"""Light tests for the run-everything CLI (the heavy path runs in CI's
``experiments`` job / ``make experiments``; here we check wiring only)."""

import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.experiments
from repro.experiments import report


def test_parser_help_and_bogus_flag():
    # argparse wiring: --help exits 0; bogus flag exits 2.
    with pytest.raises(SystemExit) as info:
        report.main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        report.main(["--bogus"])
    assert info.value.code == 2


def test_module_runs_without_a_runpy_warning():
    """``python -m repro.experiments.<name>`` must find the module not
    yet imported: a package ``__init__`` that imports its submodules
    makes runpy warn (and, under ``-W error``, fail)."""
    src = Path(repro.experiments.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m",
         "repro.experiments.report", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr


def test_section_header_format(capsys):
    report._section("Probe")
    out = capsys.readouterr().out
    assert out.startswith("\n=== Probe ")


def test_runner_lists_every_module_with_a_main():
    """A new experiment module cannot be left out of the loop (and so
    out of ``make experiments`` and CI's artifact)."""
    with_main = {
        info.name
        for info in pkgutil.iter_modules(repro.experiments.__path__)
        if info.name != "report" and hasattr(
            importlib.import_module(f"repro.experiments.{info.name}"),
            "main")}
    assert sorted(report.MODULES) == sorted(with_main)


def test_runner_calls_each_main_in_order(monkeypatch, capsys):
    calls = []
    for name in report.MODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        monkeypatch.setattr(
            module, "main",
            lambda *args, _name=name: calls.append((_name, args)))
    assert report.main([]) == 0
    assert [name for name, _ in calls] == list(report.MODULES)
    # attack.main parses a command line: it must get an empty one, not
    # fall back to the runner's sys.argv.
    assert all(args == (([],) if name == "attack" else ())
               for name, args in calls)
    assert capsys.readouterr().out.count("\n=== ") == len(report.MODULES)


def sweep_warning_status(monkeypatch, capsys, module, bad_cell, good_cell):
    """``module.main()``'s exit status and warning, for a sweep with and
    without a cell that misses its bar."""
    statuses = []
    for cells in ([good_cell], [good_cell, bad_cell]):
        monkeypatch.setattr(module, "sweep", lambda cells=cells: cells)
        statuses.append(module.main())
        statuses.append("WARNING" in capsys.readouterr().out)
    return statuses


def test_failover_sweep_fails_below_the_answered_bar(monkeypatch, capsys):
    from repro.experiments import failover
    cell = failover.FailoverCell(crash_at=1.0, supervised=True,
                                 answered_fraction=1.0, failovers=1,
                                 redispatched=3, failed_over=0)
    stranded = dataclasses.replace(cell, answered_fraction=0.9)
    assert sweep_warning_status(monkeypatch, capsys, failover,
                                stranded, cell) == [0, False, 1, True]


def test_resilience_sweep_fails_on_stranded_queries(monkeypatch, capsys):
    from repro.experiments import resilience
    cell = resilience.ResilienceCell(
        loss=0.1, policy="t=0.25s r=3 b=2", answered_fraction=1.0,
        latency=None, timed_out=0, retransmits=2, recovered=2,
        still_pending=0)
    stranded = dataclasses.replace(cell, still_pending=4)
    assert sweep_warning_status(monkeypatch, capsys, resilience,
                                stranded, cell) == [0, False, 1, True]


def test_runner_stops_on_a_failing_module(monkeypatch):
    calls = []
    for name in report.MODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        monkeypatch.setattr(
            module, "main",
            lambda *args, _name=name: calls.append(_name)
            or int(_name == "resilience"))
    assert report.main([]) == 1
    assert calls[-1] == "resilience"
    assert "failover" not in calls
