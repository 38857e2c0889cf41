"""Self-tests of the ledger (``python -m pytest benchmarks/ledger -q``).

Tier-1 collects ``tests/`` only; these check the benchmark's own
machinery: the layer map, the profile fold, the declared names, the
comparison rule, and a 1/50-size smoke run of every workload.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import pytest

from benchmarks.ledger import cli, drives, harness, layers
from benchmarks.ledger.catalogue import (ALL_LAYERS, LAYERS, LEDGER,
                                         REFERENCE_SECONDS, ROOT, SRC,
                                         Declaration, layer_of,
                                         load_declaration)
from benchmarks.ledger.compare import verdict
from benchmarks.ledger.workloads import WORKLOADS, composition

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SMOKE_SECONDS = 0.2             # 1/50 of the declared run


@pytest.fixture(scope="module")
def declaration() -> Declaration:
    return Declaration()


# -- the declaration -------------------------------------------------------

def test_benchmark_json_meets_the_contract():
    raw = load_declaration()
    assert set(raw) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert raw["paths"] == ["benchmarks/ledger"]
    assert 1 <= raw["run_seconds"] <= 60
    assert 2 <= len(raw["workloads"]) <= 8
    assert 1 <= len(raw["end_to_end"]) <= 16
    assert 1 <= len(raw["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in raw[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for workload in raw["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in raw["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in raw["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in raw["end_to_end"] + raw["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = {m["name"]: m for m in raw["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in raw["end_to_end"])


def test_declaration_and_code_name_the_same_things(declaration):
    assert list(WORKLOADS) == declaration.workloads
    shares = {f"{layer}.self_share" for layer in ALL_LAYERS}
    assert shares <= set(declaration.per_layer)
    driven = {name for w in WORKLOADS.values() for name in w.drives}
    assert driven == set(drives.DRIVES) <= set(declaration.per_layer)
    assert set(harness.STAND_INS) <= set(declaration.end_to_end)


# -- layers ------------------------------------------------------------------

def test_every_source_file_maps_to_exactly_one_layer():
    files = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))
    assert len(files) > 100
    for rel in files:
        assert layer_of(rel) in ALL_LAYERS      # raises if claimed twice
    listed = [entry for entries in LAYERS.values() for entry in entries]
    assert len(listed) == len(set(listed))
    for entry in listed:                        # a rename must be noticed
        assert (SRC / entry).exists(), entry
    assert layer_of("dns/name.py") == "dns.name"
    assert layer_of("proxy/rewrite.py") == "proxy"
    assert layer_of("check/golden.py") == "obs"
    assert layer_of("core/experiment.py") == "other"


def test_fold_sums_to_one_and_charges_a_builtin_to_its_caller():
    stdlib = Path(sysconfig.get_paths()["stdlib"])
    parse = (str(SRC / "dns/name.py"), 10, "from_text")
    with_ = (str(SRC / "trace/record.py"), 40, "with_")
    replace = (str(stdlib / "dataclasses.py"), 5, "replace")
    loop = (str(stdlib / "asyncio/base_events.py"), 1, "_run_once")
    length = ("~", 0, "<built-in method builtins.len>")
    copy = ("~", 0, "<built-in method copy>")
    poll = ("~", 0, "<method 'poll' of 'select.epoll' objects>")
    root = ("~", 0, "<built-in method builtins.exec>")

    def edge(seconds):
        return (1, 1, seconds, seconds)

    stats = {                       # (cc, nc, tottime, cumtime, callers)
        parse: (1, 1, 2.0, 3.0, {root: edge(2.0)}),
        length: (1, 1, 1.0, 1.0, {parse: edge(1.0)}),
        with_: (1, 1, 0.5, 2.0, {root: edge(0.5)}),
        replace: (1, 1, 1.0, 1.5, {with_: edge(1.0)}),
        copy: (1, 1, 0.5, 0.5, {replace: edge(0.5)}),
        loop: (1, 1, 1.0, 5.0, {root: edge(1.0)}),
        poll: (1, 1, 4.0, 4.0, {loop: edge(4.0)}),
        root: (1, 1, 0.25, 10.25, {}),
    }
    folded = layers.fold(stats)
    busy = 6.25
    assert sum(folded.shares.values()) == pytest.approx(1.0)
    # len()'s second is dns.name's; copy() reaches trace.codec through
    # the stdlib function between them.
    assert folded.shares["dns.name"] == pytest.approx(3.0 / busy)
    assert folded.shares["trace.codec"] == pytest.approx(2.0 / busy)
    assert folded.shares["sockets"] == pytest.approx(1.0 / busy)
    assert folded.shares["other"] == pytest.approx(0.25 / busy)
    assert folded.unattributed_share == pytest.approx(0.25 / busy)
    assert folded.idle_share == pytest.approx(4.0 / 10.25)


# -- the run -------------------------------------------------------------------

def test_smoke_run_emits_exactly_the_declared_names(declaration):
    start = time.perf_counter()
    for name in declaration.workloads:
        for traced, run in ((0, harness.measure), (1, harness.trace)):
            result = run(WORKLOADS[name], 11, SMOKE_SECONDS, declaration)
            declared = declaration.section(traced)
            cli.validate(result, declared)
            assert set(result.metrics) == set(declared)
            assert result.attempted >= 1 and result.failed == 0
            assert result.correct, [c for c in result.checks if not c.ok]
    assert time.perf_counter() - start < 60
    assert not any((LEDGER / "_scratch").glob("*"))


def test_last_line_is_the_contract_object(declaration):
    done = subprocess.run(
        [sys.executable, str(LEDGER / "__main__.py"), "--workload",
         "fig9_hot", "--seed", "12", "--seconds", str(SMOKE_SECONDS),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
        timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == set(declaration.end_to_end)
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declaration.end_to_end[name]["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("seed", [11, 12])
def test_composition_stays_inside_its_bands(declaration, seed):
    scale = declaration.run_seconds / REFERENCE_SECONDS
    for workload in WORKLOADS.values():
        inputs = workload.inputs(seed, scale)
        try:
            found = composition(inputs)
        finally:
            inputs.cleanup()
        assert set(workload.bands) == set(found)
        for name, (low, high) in workload.bands.items():
            assert low <= found[name] <= high, (workload.name, name,
                                                found[name])


def test_a_drive_that_cannot_import_is_null_with_a_warning(capsys):
    def moved(*_args):
        raise ImportError("No module named 'repro.dns.name'")
    assert harness.run_drive("dns.name.parse_us", moved) is None
    assert "dns.name.parse_us" in capsys.readouterr().err


def test_a_missing_end_to_end_metric_is_an_error(declaration):
    metrics = {name: harness.Stat(1.0) for name in declaration.end_to_end}
    result = harness.Result("fig9_hot", 11, 10, False, metrics, attempted=1)
    cli.validate(result, declaration.end_to_end)
    metrics["records_per_s"] = harness.Stat(None)
    with pytest.raises(SystemExit):
        cli.validate(result, declaration.end_to_end)
    del metrics["records_per_s"]
    with pytest.raises(SystemExit):
        cli.validate(result, declaration.end_to_end)
    # A per-layer metric may be null: that is a drive that did not run.
    layer = {name: harness.Stat(None) for name in declaration.per_layer}
    cli.validate(harness.Result("fig9_hot", 11, 10, True, layer),
                 declaration.per_layer)


# -- compare ---------------------------------------------------------------------

def _stat(value, low=None, high=None):
    return {"value": value, "low": low, "high": high}


def test_compare_verdicts():
    steady = _stat(100.0, 99.0, 101.0)
    assert verdict(steady, _stat(104.0, 103, 105), "lower", 0.08)[0] == "ok"
    assert verdict(steady, _stat(110.0, 109, 111), "lower", 0.08)[0] \
        == "regressed"
    assert verdict(steady, _stat(110.0, 109, 111), "higher", 0.08)[0] \
        == "improved"
    assert verdict(steady, _stat(90.0, 89, 91), "higher", 0.08)[0] \
        == "regressed"
    # Repeats that spread wider than the bound decide nothing.
    assert verdict(steady, _stat(110.0, 100, 120), "lower", 0.08)[0] \
        == "unresolved"
    assert verdict(_stat(50.0), _stat(50.0), "lower", 0.1) == ("ok", 0.0)
