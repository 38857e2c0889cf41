"""The controller: Reader + Postman processes (§2.6, Figure 4).

The Reader consumes the internal binary stream, pre-loading a window of
queries "to avoid falling behind real time"; the Postman distributes
records to client instances over TCP, sticky by original source address
so a source's queries always reach the same distributor (and from there
the same querier).  Before the first record, the controller broadcasts a
time-synchronization message carrying the input stream's first trace
time, t̄₁, which every controller of a split stream shares.

Control frames on the TCP connections: u8 type (0 = sync, 1 = record,
2 = heartbeat), then the payload (binaryform-encoded record, packed
trace epoch, or utf-8 actor name), all length-prefix framed.
Heartbeats flow the other way — distributor side back to the
controller — and only when supervision is enabled.

A record takes one path: the Reader appends its window to the Postman's
backlog and the Postman sends from the head, on the channel the
controller's :class:`~repro.replay.supervisor.Pins` table gives its
source.  Supervision (:mod:`repro.replay.supervisor`) adds two checks on
that head — move a source whose distributor died, and stall while the
target distributor sits at the high-water mark — and nothing else.

The Postman writes like a buffered writer: a pass's frames collect per
channel and leave in one ``conn.send`` each (:meth:`Controller.flush`),
so a 512-record window goes out as MSS-sized segments, not one segment
per record.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Iterable, Iterator

from repro.netsim.framing import LengthPrefixFramer, frame_message
from repro.netsim.host import Host
from repro.obs.report import zero_counters
from repro.replay.distributor import Distributor
from repro.replay.supervisor import Pins, next_tick
from repro.trace.binaryform import decode_record, encode_record
from repro.trace.record import QueryRecord

SYNC_FRAME = 0
RECORD_FRAME = 1
HEARTBEAT_FRAME = 2

READER_PER_RECORD = 1.5e-6   # input parse cost, seconds
READ_WINDOW = 512            # records pre-loaded per reader pass


class ControlChannel:
    """Postman's TCP connection to one distributor host."""

    def __init__(self, host: Host, distributor: Distributor,
                 port: int = 9053):
        self.distributor = distributor
        self.conn = host.tcp_connect(distributor.host.addr, port)
        self.conn.nagle = False  # control plane wants low latency
        self.sent = 0
        self.supervisor = None
        self.pending = bytearray()  # this pass's frames, not yet written

    def enable_heartbeats(self, supervisor) -> None:
        """Listen for heartbeat frames coming back from the endpoint."""
        self.supervisor = supervisor
        framer = LengthPrefixFramer(self._on_frame)
        self.conn.on_data = framer.feed

    def _on_frame(self, frame: bytes) -> None:
        if frame and frame[0] == HEARTBEAT_FRAME:
            self.supervisor.note_heartbeat(frame[1:].decode())


class DistributorEndpoint:
    """The distributor-side listener for control traffic."""

    def __init__(self, distributor: Distributor, port: int = 9053):
        self.distributor = distributor
        self._conns: list = []
        self._hb_interval: float | None = None
        distributor.host.tcp_listen(port, self._on_connection)

    def _on_connection(self, conn) -> None:
        conn.nagle = False
        framer = LengthPrefixFramer(self._on_frame)
        conn.on_data = framer.feed
        self._conns.append(conn)

    def _on_frame(self, frame: bytes) -> None:
        kind = frame[0]
        if kind == SYNC_FRAME:
            (trace_t1,) = struct.unpack("!d", frame[1:9])
            self.distributor.handle_sync(trace_t1)
        elif kind == RECORD_FRAME:
            self.distributor.handle_record(decode_record(frame[1:]))

    # -- heartbeats (supervised mode only) ---------------------------------

    def start_heartbeats(self, interval: float, first: float) -> None:
        """Beat on behalf of the distributor and its queriers, from
        time *first* on.

        One heartbeat frame per live actor per tick, sent back over
        every accepted control connection.  Beats fire at absolute
        multiples of *interval* (:func:`next_tick`), the grid the
        supervisor's monitor runs on."""
        self._hb_interval = interval
        self.distributor.host.scheduler.at(first, self._beat, daemon=True)

    def _schedule_beat(self) -> None:
        scheduler = self.distributor.host.scheduler
        scheduler.at(next_tick(scheduler.now, self._hb_interval),
                     self._beat, daemon=True)

    def _beat(self) -> None:
        supervisor = self.distributor.supervisor
        if supervisor is not None and supervisor.stopped:
            return  # replay drained: stop beating, don't reschedule
        names = []
        if not self.distributor.crashed:
            names.append(self.distributor.name)
        names.extend(querier.name for querier in self.distributor.queriers
                     if not querier.crashed)
        for conn in self._conns:
            for name in names:
                conn.send(frame_message(
                    bytes([HEARTBEAT_FRAME]) + name.encode()))
        self._schedule_beat()


class Controller:
    """Reader + Postman on the controller host."""

    # Counted per record sent (not per batch read), so a stalled
    # Postman's backlog is not in it.
    COUNTERS = {"records_read": "replay.controller_records"}
    # What the readers' split (a Pins table over controllers) asks of a
    # member: a controller is never failed over.
    crashed = False

    def __init__(self, host: Host, distributors: list[Distributor],
                 seed: int = 0, control_port: int = 9053):
        if not distributors:
            raise ValueError("controller needs at least one distributor")
        self.host = host
        zero_counters(self)
        # Controllers may share distributors: each gets its own
        # listening endpoints, on its own control_port.
        self._endpoints = [DistributorEndpoint(d, port=control_port)
                           for d in distributors]
        self.channels = [ControlChannel(host, d, port=control_port)
                         for d in distributors]
        # Same source -> same channel, hence same distributor.
        self.pins = Pins(self.channels, seed,
                         actor=lambda channel: channel.distributor)
        self._input: Iterator[QueryRecord] | None = None
        self._trace_t1 = 0.0
        self._reader_cost = 0.0
        self._synced = False
        self.finished = False
        self._backlog: deque = deque()  # read but not yet sent
        # Supervision state (repro.replay.supervisor).
        self.supervisor = None
        self.paused = False          # Postman stalled on a full queue
        self._read_paused = False    # Reader pass deferred by the stall

    def enable_supervision(self, supervisor) -> None:
        self.supervisor = supervisor
        for channel in self.channels:
            channel.enable_heartbeats(supervisor)

    # -- the Reader process ---------------------------------------------------

    def start(self, records: Iterable[QueryRecord], trace_t1: float,
              reader_cost: float) -> None:
        """Begin replaying *records* (an iterable; consumed lazily in
        windows, modelling the Reader's pre-load behaviour), each
        costing the Reader *reader_cost* seconds.  *trace_t1* is the
        stream's first trace time, the epoch the sync broadcasts: with
        a split stream every controller's records share one baseline."""
        self._input = iter(records)
        self._trace_t1 = trace_t1
        self._reader_cost = reader_cost
        self.host.scheduler.after(0.0, self._read_pass)

    def _read_pass(self) -> None:
        assert self._input is not None
        if self.paused:
            # Backpressure: the Postman is stalled, so the Reader stops
            # pre-loading; resume_reading() re-arms this pass.
            self._read_paused = True
            return
        batch: list[QueryRecord] = []
        for record in self._input:
            batch.append(record)
            if len(batch) >= READ_WINDOW:
                break
        if not batch:
            self.finished = True
            return
        self._postman_dispatch(batch)
        # Reader costs CPU per record; the next window becomes available
        # after that processing time.
        self.host.scheduler.after(len(batch) * self._reader_cost,
                                  self._read_pass)

    # -- the Postman process ------------------------------------------------------

    def _postman_dispatch(self, batch: list[QueryRecord]) -> None:
        obs = self.host.scheduler.obs
        if obs is not None:
            obs.tracer.emit("controller.dispatch",
                            self.host.scheduler.now,
                            detail=f"batch={len(batch)}")
        if not self._synced:
            self._synced = True
            sync = frame_message(bytes([SYNC_FRAME])
                                 + struct.pack("!d", self._trace_t1))
            for channel in self.channels:
                channel.pending += sync
        self._backlog.extend(batch)
        self._drain_backlog()

    def _room_for(self, record: QueryRecord) -> ControlChannel | None:
        """The channel *record* goes out on — or, under supervision,
        None while its distributor sits at the C->D watermark.  The
        per-record depth precheck keeps the distributor's (enroute +
        queue) from ever exceeding the high-water mark: the Postman
        stalls instead."""
        channel = self.pins.member_for(record.src)
        supervisor = self.supervisor
        if supervisor is not None:
            if channel.distributor.crashed:
                channel = self.pins.live(record.src)
            if (supervisor.config.queue_policy == "stall"
                    and channel.distributor.total_depth()
                    >= supervisor.config.high_water):
                return None
        return channel

    def _drain_backlog(self) -> None:
        backlog = self._backlog
        while backlog:
            channel = self._room_for(backlog[0])
            if channel is None:
                if not self.paused:
                    self.paused = True
                    self.supervisor.on_stall(self)
                break
            self.records_read += 1
            self.send_record(channel, backlog.popleft())
        self.flush()

    def send_record(self, channel: ControlChannel,
                    record: QueryRecord) -> None:
        """The one place a record frame is built.  It joins *channel*'s
        pass and leaves with the next :meth:`flush`; the distributor
        counts it en route from now on."""
        channel.pending += frame_message(
            bytes([RECORD_FRAME]) + encode_record(record))
        channel.sent += 1
        channel.distributor.enroute += 1

    def flush(self) -> None:
        """Write the pass: one ``conn.send`` per channel with frames."""
        for channel in self.channels:
            if channel.pending:
                channel.conn.send(bytes(channel.pending))
                channel.pending.clear()

    def try_resume(self) -> None:
        """A downstream queue drained: unstall if the head record's
        distributor now has room."""
        if not self.paused:
            return
        if self._backlog and self._room_for(self._backlog[0]) is None:
            return  # still no room; stay stalled
        self.paused = False
        self.supervisor.on_resume(self)
        self._drain_backlog()
        if not self.paused and self._read_paused:
            self._read_paused = False
            self.host.scheduler.after(0.0, self._read_pass)
