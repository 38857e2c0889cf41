"""Light tests for the run-everything CLI (the heavy path runs in CI's
``experiments`` job / ``make experiments``; here we check wiring only)."""

import importlib
import pkgutil

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
