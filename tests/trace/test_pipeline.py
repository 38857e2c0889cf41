"""Tests for the TracePipeline: chunking, parallelism, determinism.

The headline property is the determinism contract of
docs/TRACES.md: pipeline output is **byte-identical** for any
``jobs``/``chunk_records`` setting, because chunks split on frame
boundaries, seeded ops hash (seed, global index) or (seed, client)
instead of drawing from sequential RNG state, and results merge in
input order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.fuzzing import query_records
from repro.dns.constants import RRType
from repro.obs import Observer
from repro.trace.binaryform import (HEADER_SIZE, scan_frames,
                                    trace_to_binary)
from repro.trace.errors import TraceFormatError
from repro.trace.pipeline import (FilterRecords, MapRecords, PrependUnique,
                                  RebaseTime, ScaleTime, SetDoFraction,
                                  SetProtocol, SetQnameSuffix,
                                  TracePipeline, as_trace, client_unit,
                                  index_unit)
from repro.trace.record import PROTOCOLS, QueryRecord, Trace
from repro.trace.stats import StreamingStats

from tests.trace.test_stats import two_pass_moments

# -- fixtures -----------------------------------------------------------------

record_strategy = st.builds(
    QueryRecord,
    time=st.floats(min_value=0, max_value=1e9, allow_nan=False,
                   allow_infinity=False),
    src=st.sampled_from(["10.0.0.1", "10.0.0.2", "192.168.7.9",
                         "2001:db8::1"]),
    sport=st.integers(min_value=1024, max_value=65535),
    qname=st.sampled_from([".", "example.com.", "a.b.example.com.",
                           "xn--nxasmq6b.test."]),
    qtype=st.sampled_from([RRType.A, RRType.AAAA, RRType.MX]),
    proto=st.sampled_from(["udp", "tcp", "tls"]),
    do=st.booleans(),
    rd=st.booleans(),
    msg_id=st.integers(min_value=0, max_value=0xFFFF),
)


def make_trace(n=40, name="t") -> Trace:
    return Trace([
        QueryRecord(time=100.0 + i * 0.25,
                    src=f"10.0.{i % 5}.{i % 7 + 1}", sport=1024 + i,
                    qname=f"q{i}.example.com." if i % 9 else ".",
                    qtype=RRType.A if i % 2 else RRType.AAAA,
                    proto="udp", do=(i % 3 == 0), msg_id=i)
        for i in range(n)
    ], name=name)


# All six frame-capable ops, so the jobs x chunk matrix below runs the
# whole in-place frame contract through the pool.
CHAIN = (SetProtocol("tcp", fraction=0.5, seed=3),
         SetDoFraction(0.7, seed=5),
         PrependUnique("u"),
         ScaleTime(2.0),
         RebaseTime(),
         SetQnameSuffix("example.com.", "example.net."))


# -- chunk splitting ----------------------------------------------------------

@given(st.lists(record_strategy, min_size=0, max_size=30))
@settings(max_examples=50, deadline=None)
def test_scan_frames_never_splits_a_frame(records):
    """Frame scan offsets exactly tile the payload: each frame starts
    where the previous ended, and re-encoding the decoded record of
    each frame reproduces its bytes."""
    data = trace_to_binary(Trace(records))
    pos = HEADER_SIZE
    count = 0
    for offset, length in scan_frames(data):
        assert offset == pos
        pos = offset + 2 + length
        count += 1
    assert pos == len(data)
    assert count == len(records)


@given(st.lists(record_strategy, min_size=1, max_size=25),
       st.integers(min_value=1, max_value=30))
@settings(max_examples=50, deadline=None)
def test_chunk_boundaries_land_on_frames(records, chunk_records):
    """However small the chunks, every chunk boundary is a frame
    boundary — concatenating chunk byte ranges reproduces the file."""
    data = trace_to_binary(Trace(records))
    pipe = TracePipeline.from_binary(data, chunk_records=chunk_records)
    chunks = list(pipe._chunks(data))
    assert chunks[0].start == HEADER_SIZE
    for a, b in zip(chunks, chunks[1:]):
        assert a.end == b.start
        assert b.base_index == a.base_index + a.records
    assert chunks[-1].end == len(data)
    assert sum(c.records for c in chunks) == len(records)
    assert all(c.records <= chunk_records for c in chunks)


def test_one_frame_walk_per_chunked_run(monkeypatch):
    """The walk that cuts the chunks is the only one: the runner reads
    each frame at its noted offset, in frame mode and in record mode."""
    from repro.trace import pipeline
    visited = []

    def counting(*args, **kwargs):
        for frame in scan_frames(*args, **kwargs):
            visited.append(frame)
            yield frame
    monkeypatch.setattr(pipeline, "scan_frames", counting)
    trace = make_trace(30)
    pipe = TracePipeline.from_binary(trace_to_binary(trace),
                                     chunk_records=10)
    for chain in (pipe.pipe(SetDoFraction(0.5, seed=3)),
                  pipe.filter(keep_all)):
        for sink in (chain.to_binary, chain.collect):
            visited.clear()
            sink()
            result = chain.last_result
            assert result.chunks == 3
            assert len(visited) == len(trace) == result.records_in


# -- byte-identity across jobs x chunk sizes ----------------------------------

@given(st.lists(record_strategy, min_size=0, max_size=40))
@settings(max_examples=30, deadline=None)
def test_frame_mode_matches_record_mode(records):
    """A chain of frame ops alone, the same chain with a keep-all
    filter (which decodes every record and keeps each as its frame) and
    the streaming executor's decode-apply-encode give the same bytes
    (serial, in-process — no pools under hypothesis)."""
    data = trace_to_binary(Trace(records))
    frame = TracePipeline.from_binary(data).pipe(*CHAIN).to_binary()
    filtered = TracePipeline.from_binary(data).pipe(
        *CHAIN, FilterRecords(always_true)).to_binary()
    streaming = TracePipeline.from_records(records).pipe(
        *CHAIN).to_binary()
    assert frame == filtered == streaming


def always_true(record):
    return True


def keep_odd_name_lengths(record):
    return len(record.qname) % 2 == 1


def keep_do(record):
    return record.do


def same_record(record):
    return record


def next_msg_id(record):
    return record.with_(msg_id=(record.msg_id + 1) & 0xFFFF)


def prefixed_name(record):
    return record.with_(qname="m." + record.qname)


_fractions = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_seeds = st.integers(0, 2 ** 32)
drawn_chains = st.tuples(
    st.builds(SetProtocol, st.sampled_from(PROTOCOLS), _fractions, _seeds),
    st.builds(SetDoFraction, _fractions,
              st.sampled_from((512, 1232, 4096)), _seeds),
    st.builds(PrependUnique, st.sampled_from(("q", "u-", ""))),
    st.builds(ScaleTime, st.floats(0.01, 100.0)),
    st.builds(RebaseTime, st.floats(0.0, 1e6)),
    # "." ends every name, "example." the strategies' fallback names.
    st.builds(SetQnameSuffix, st.sampled_from((".", "example.", "com.")),
              st.sampled_from((".", "test.", "a.longer.example.org."))),
).flatmap(st.permutations)
# Filters that drop some records, a map that keeps each record as it is
# and maps that replace it (a field after the qname, and the qname).
record_ops = st.sampled_from((
    FilterRecords(keep_odd_name_lengths), FilterRecords(keep_do),
    MapRecords(same_record), MapRecords(next_msg_id),
    MapRecords(prefixed_name)))


@st.composite
def chains_with_record_ops(draw):
    """The six frame ops in a drawn order, with up to three record ops
    put in at drawn positions."""
    chain = list(draw(drawn_chains))
    for _ in range(draw(st.integers(0, 3))):
        chain.insert(draw(st.integers(0, len(chain))), draw(record_ops))
    return tuple(chain)


@given(st.lists(query_records() | record_strategy, max_size=25),
       chains_with_record_ops(), st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_three_executors_agree_on_drawn_chains(records, chain,
                                               chunk_records):
    """Any order of the six frame-capable ops, with drawn parameters
    and record ops at drawn positions: the chunked runner over LDPB
    (at a drawn chunk size, with and without a trailing keep-all
    filter) gives the bytes and the records of the streaming executor
    over the records themselves, which is the reference."""
    data = trace_to_binary(records)
    streaming = TracePipeline.from_records(records).pipe(*chain)
    expected = streaming.to_binary()
    chunked = TracePipeline.from_binary(
        data, chunk_records=chunk_records).pipe(*chain)
    assert chunked.to_binary() == expected
    assert chunked.filter(always_true).to_binary() == expected
    assert trace_to_binary(chunked.collect()) == \
        trace_to_binary(streaming.collect()) == expected
    assert chunked.last_result.records_out == \
        streaming.last_result.records_out


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("chunk_records", [1, 7, 4096])
def test_output_byte_identical_across_jobs_and_chunks(jobs,
                                                      chunk_records):
    data = trace_to_binary(make_trace(60))
    reference = TracePipeline.from_binary(data).pipe(*CHAIN).to_binary()
    out = TracePipeline.from_binary(
        data, jobs=jobs, chunk_records=chunk_records).pipe(
            *CHAIN).to_binary()
    assert out == reference


def test_seeded_ops_identical_serial_vs_parallel(tmp_path):
    """The per-client / per-index seeded decisions do not depend on
    worker count or chunking — the whole point of the order-free
    hashing."""
    trace = make_trace(200)
    path = tmp_path / "t.ldpb"
    path.write_bytes(trace_to_binary(trace))
    ops = (SetProtocol("tls", fraction=0.37, seed=11),
           SetDoFraction(0.61, seed=7))
    serial = TracePipeline.from_file(path).pipe(*ops).to_binary()
    parallel = TracePipeline.from_file(
        path, jobs=4, chunk_records=17).pipe(*ops).to_binary()
    assert parallel == serial
    # And the choices are actually fractional, not all-or-nothing.
    out = TracePipeline.from_binary(serial).collect()
    tls = sum(1 for r in out if r.proto == "tls")
    do = sum(1 for r in out if r.do)
    assert 0 < tls < len(out)
    assert 0 < do < len(out)


def test_index_and_client_units_are_order_free():
    assert index_unit(3, 17) == index_unit(3, 17)
    assert index_unit(3, 17) != index_unit(3, 18)
    assert client_unit(3, b"10.0.0.1") == client_unit(3, b"10.0.0.1")
    assert all(0.0 <= index_unit(9, i) < 1.0 for i in range(100))


# -- legacy wrappers removed --------------------------------------------------

def test_deprecated_wrapper_modules_removed():
    """`repro.trace.mutate` and the stream operator wrappers (warned
    in 1.4) are gone; each rewrite has exactly one definition, its
    pipeline op."""
    import repro.trace.stream as stream
    with pytest.raises(ImportError):
        from repro.trace import mutate  # noqa: F401
    assert not hasattr(stream, "pipeline")
    assert not hasattr(stream, "set_protocol_stream")


def encode(record):
    from repro.trace.binaryform import encode_record
    return encode_record(record)


# -- error indexing across workers --------------------------------------------

def corrupt_record(data: bytes, index: int) -> bytes:
    """Truncate record *index*'s frame body (keeps later frames intact
    by lying in the length prefix of a rebuilt stream)."""
    offsets = list(scan_frames(data))
    off, length = offsets[index]
    # Zero the frame body, keeping the declared length: the blob's
    # internal length fields no longer tile it, so both frame_spans
    # and decode_record reject it — at this record's global index.
    bad = bytearray(data)
    bad[off + 2:off + 2 + length] = b"\x00" * length
    return bytes(bad)


def keep_all(record):
    return True


@pytest.mark.parametrize("jobs", [1, 3])
def test_malformed_frame_reports_global_index(jobs, tmp_path):
    data = trace_to_binary(make_trace(50))
    bad = corrupt_record(data, 37)
    pipe = TracePipeline.from_binary(bad, jobs=jobs, chunk_records=8)
    offset = list(scan_frames(data))[37][0]
    # Frame mode, record mode and the stats sink: one per-chunk function
    # serves all three, inline and in the pool.
    for run in (pipe.pipe(SetDoFraction(1.0)).to_binary,
                pipe.filter(keep_all).to_binary, pipe.stats):
        with pytest.raises(TraceFormatError) as exc_info:
            run()
        assert (exc_info.value.index, exc_info.value.offset) == \
            (37, offset)
        assert "record 37" in str(exc_info.value)


@pytest.mark.parametrize("jobs", [1, 3])
def test_skip_malformed_drops_only_the_bad_record(jobs):
    trace = make_trace(50)
    data = trace_to_binary(trace)
    bad = corrupt_record(data, 37)
    skipped: list = []
    out = TracePipeline.from_binary(
        bad, jobs=jobs, chunk_records=8, skip_malformed=True,
        skipped=skipped).collect()
    assert len(out) == 49
    assert len(skipped) == 1
    assert [r.qname for r in out] == \
        [r.qname for i, r in enumerate(trace) if i != 37]


# -- streaming stats ----------------------------------------------------------

def test_streaming_stats_matches_legacy_trace_stats():
    """The single Welford pass against the two-pass reference."""
    trace = make_trace(80).sorted()
    mean, stdev = two_pass_moments(trace)
    streaming = StreamingStats()
    for record in trace:
        streaming.update(record)
    got = streaming.stats()
    assert got.records == len(trace)
    assert got.clients == len(trace.clients())
    assert got.duration == pytest.approx(
        trace.records[-1].time - trace.records[0].time)
    assert got.interarrival_mean == pytest.approx(mean)
    assert got.interarrival_stdev == pytest.approx(stdev)


@pytest.mark.parametrize("jobs", [1, 3])
def test_pipeline_stats_parallel_merge(jobs):
    trace = make_trace(120).sorted()
    data = trace_to_binary(trace)
    got = TracePipeline.from_binary(
        data, jobs=jobs, chunk_records=13).stats()
    assert got.records == len(trace)
    assert got.clients == len(trace.clients())
    assert got.interarrival_stdev() == pytest.approx(
        two_pass_moments(trace)[1])
    assert got.do_fraction() == pytest.approx(
        sum(1 for r in trace if r.do) / len(trace))


# -- observability ------------------------------------------------------------

def test_pipeline_counters_land_in_observer():
    """A replay feed's counts are recorded, once it has run, from the
    pipeline's own ``last_result``."""
    observer = Observer()
    data = trace_to_binary(make_trace(30))
    feed = TracePipeline.from_binary(data, chunk_records=8).pipe(
        SetDoFraction(1.0))
    as_trace(feed, observer)
    snap = observer.snapshot()
    assert snap["trace"]["pipeline_records_in"] == 30
    assert snap["trace"]["pipeline_records_out"] == 30
    assert snap["trace"]["pipeline_chunks"] == 4
    # The tracer summary still shares the group (merge, not overwrite).
    assert "emitted" in snap["trace"]


def test_observed_counts_are_the_pipelines_last_result():
    observer = Observer()
    feed = TracePipeline.from_trace(make_trace(12)).filter(
        lambda record: record.qtype == RRType.A)
    as_trace(feed, observer)
    trace = observer.snapshot()["trace"]
    assert (trace["pipeline_records_in"], trace["pipeline_records_out"],
            trace["pipeline_chunks"], trace["pipeline_skipped"]) == (
        feed.last_result.records_in, feed.last_result.records_out,
        feed.last_result.chunks, feed.last_result.skipped) == (12, 6, 0, 0)
    assert not hasattr(TracePipeline, "with_observer")


# -- replay feed --------------------------------------------------------------

def test_as_trace_accepts_all_feed_shapes():
    trace = make_trace(10)
    assert as_trace(trace) is trace
    assert len(as_trace(iter(trace.records))) == 10
    assert len(as_trace(TracePipeline.from_trace(trace))) == 10


def test_engine_accepts_pipeline_feed():
    from repro.experiments.harness import (authoritative_world,
                                           wildcard_zone)
    from repro.workloads.synthetic import synthetic_trace
    trace = synthetic_trace(0.05, duration=1.0, name="t")
    world = authoritative_world([wildcard_zone()], mode="direct",
                                observe=True, seed=1)
    world.run(TracePipeline.from_trace(trace).rebase_time())
    snap = world.sim.observer.snapshot()
    assert snap["trace"]["pipeline_records_in"] == len(trace)


def test_naive_replayer_accepts_pipeline_feed():
    from repro.netsim.sim import Simulator
    from repro.replay.naive import NaiveReplayer
    sim = Simulator()
    host = sim.add_host("client", ["10.0.0.1"])
    replayer = NaiveReplayer(host, "10.9.9.9")
    trace = make_trace(5)
    results = replayer.run(TracePipeline.from_trace(trace).rebase_time())
    sim.run_until_idle()
    assert len(results) == 5


# -- CLI ----------------------------------------------------------------------

def test_cli_jobs_output_identical(tmp_path):
    from repro.tools.trace_mutate import main
    src = tmp_path / "in.ldpb"
    src.write_bytes(trace_to_binary(make_trace(60)))
    out1 = tmp_path / "out1.ldpb"
    out2 = tmp_path / "out2.ldpb"
    args = ["--do", "0.5", "--protocol", "tls", "--seed", "3"]
    assert main([str(src), str(out1), "--jobs", "1"] + args) == 0
    assert main([str(src), str(out2), "--jobs", "2",
                 "--chunk-records", "7"] + args) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unpicklable_op_raises_clearly(tmp_path):
    data = trace_to_binary(make_trace(5))
    pipe = TracePipeline.from_binary(data, jobs=2).filter(
        lambda r: True)
    with pytest.raises(ValueError, match="picklable"):
        pipe.to_binary()


def test_pipeline_is_lazy_and_reusable():
    calls = []

    def tracker(record):
        calls.append(record)
        return record

    pipe = TracePipeline.from_trace(make_trace(4)).map(tracker)
    assert not calls                     # nothing ran yet
    assert len(pipe.collect()) == 4
    assert len(calls) == 4
    assert len(pipe.collect()) == 4      # sinks re-run from the source
