"""Tests for the command-line tools (driven via their main())."""

import importlib
import re
from pathlib import Path

import pytest

import repro
from repro.tools.replay_run import main as replay_main
from repro.tools.trace_convert import main as convert_main
from repro.tools.trace_mutate import main as mutate_main
from repro.tools.zone_build import main as zone_build_main
from repro.trace.pipeline import TracePipeline
from repro.trace.record import QueryRecord, Trace


def load_trace(path):
    return TracePipeline.from_file(path).collect()


def save_trace(trace, path):
    TracePipeline.from_trace(trace).to_file(path)


@pytest.fixture
def sample_trace(tmp_path):
    trace = Trace([
        QueryRecord(time=10.0 + i * 0.05, src=f"10.9.0.{i % 5 + 1}",
                    qname=f"host{i % 3}.dom00{i % 2}.com.", msg_id=i)
        for i in range(40)], name="sample")
    path = tmp_path / "sample.txt"
    save_trace(trace, path)
    return trace, path


def test_io_round_trips_all_formats(tmp_path, sample_trace):
    trace, _ = sample_trace
    for ext in (".txt", ".ldpb", ".pcap"):
        path = tmp_path / f"t{ext}"
        save_trace(trace, path)
        back = load_trace(path)
        assert len(back) == len(trace)
        assert back[0].qname == trace[0].qname


def test_io_rejects_unknown_extension(tmp_path):
    with pytest.raises(ValueError, match="unknown trace format"):
        load_trace(tmp_path / "x.dat")
    with pytest.raises(ValueError, match="unknown trace format"):
        save_trace(Trace([]), tmp_path / "x.dat")


def test_convert_text_to_binary(tmp_path, sample_trace, capsys):
    _, path = sample_trace
    out = tmp_path / "out.ldpb"
    assert convert_main([str(path), str(out)]) == 0
    assert "40 records" in capsys.readouterr().out
    assert len(load_trace(out)) == 40


def test_convert_to_pcap_and_back(tmp_path, sample_trace):
    _, path = sample_trace
    pcap = tmp_path / "out.pcap"
    convert_main([str(path), str(pcap)])
    text2 = tmp_path / "again.txt"
    convert_main([str(pcap), str(text2)])
    assert len(load_trace(text2)) == 40


def test_mutate_protocol_and_do(tmp_path, sample_trace):
    _, path = sample_trace
    out = tmp_path / "mutated.txt"
    assert mutate_main([str(path), str(out), "--protocol", "tls",
                        "--do", "1.0", "--rebase"]) == 0
    mutated = load_trace(out)
    assert all(r.proto == "tls" and r.do for r in mutated)
    assert mutated[0].time == 0.0


def test_mutate_unique_and_scale(tmp_path, sample_trace):
    _, path = sample_trace
    out = tmp_path / "mutated.txt"
    mutate_main([str(path), str(out), "--unique", "u",
                 "--scale-time", "2.0"])
    mutated = load_trace(out)
    names = [r.qname for r in mutated]
    assert len(set(names)) == len(names)
    assert mutated.duration() == pytest.approx(
        load_trace(path).duration() * 2.0)


def test_zone_build_writes_zone_files(tmp_path, sample_trace, capsys):
    _, path = sample_trace
    outdir = tmp_path / "zones"
    assert zone_build_main([str(path), str(outdir), "--tlds", "2",
                            "--slds", "3", "--seed", "1"]) == 0
    files = sorted(p.name for p in outdir.glob("*.zone"))
    assert "root.zone" in files
    assert "com.zone" in files
    assert any(f.startswith("dom00") for f in files)


def test_replay_run_end_to_end(tmp_path, sample_trace, capsys):
    _, path = sample_trace
    outdir = tmp_path / "zones"
    zone_build_main([str(path), str(outdir), "--tlds", "2",
                     "--slds", "3", "--seed", "1"])
    capsys.readouterr()
    assert replay_main([str(path), "--zones", str(outdir),
                        "--instances", "1", "--queriers", "2"]) == 0
    out = capsys.readouterr().out
    assert "answered: " in out
    assert "latency ms" in out


def test_replay_run_missing_zones(tmp_path, sample_trace):
    _, path = sample_trace
    empty = tmp_path / "nozones"
    empty.mkdir()
    assert replay_main([str(path), "--zones", str(empty)]) == 2


def test_replay_run_rejects_a_zero_query_timeout(tmp_path, sample_trace,
                                                capsys):
    """Exits with the message, not with a 0 %-answered report."""
    _, path = sample_trace
    outdir = tmp_path / "zones"
    zone_build_main([str(path), str(outdir), "--tlds", "2",
                     "--slds", "3", "--seed", "1"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        replay_main([str(path), "--zones", str(outdir),
                     "--retries", "3", "--query-timeout", "0"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "timeout must be > 0" in captured.err
    assert "answered" not in captured.out


def test_trace_stats_tool(tmp_path, sample_trace, capsys):
    from repro.tools.trace_stats import main as stats_main
    _, path = sample_trace
    assert stats_main([str(path)]) == 0
    out = capsys.readouterr().out
    assert "records=" in out
    assert "mix: udp=100.0%" in out
    assert "DO=0.0%" in out


def test_replay_run_overload_flags(tmp_path, sample_trace, capsys):
    _, path = sample_trace
    outdir = tmp_path / "zones"
    zone_build_main([str(path), str(outdir), "--tlds", "2",
                     "--slds", "3", "--seed", "1"])
    capsys.readouterr()
    assert replay_main([str(path), "--zones", str(outdir),
                        "--instances", "1", "--queriers", "2",
                        "--rrl-rate", "5", "--rrl-slip", "3",
                        "--cookies", "--admission-limit", "64",
                        "--admission-soft-limit", "32"]) == 0
    out = capsys.readouterr().out
    assert "overload: rrl_dropped=" in out
    assert "cookies_validated=" in out


def test_overload_config_from_args_off_by_default():
    from repro.tools.replay_run import (build_parser,
                                        overload_config_from_args)
    parser = build_parser()
    assert overload_config_from_args(
        parser.parse_args(["t", "--zones", "z"])) is None
    config = overload_config_from_args(parser.parse_args(
        ["t", "--zones", "z", "--rrl-rate", "10",
         "--rrl-prefix-len", "28"]))
    assert config.rrl.rate == 10.0
    assert config.rrl.prefix_len == 28
    assert config.cookies is None and config.admission is None


# -- packaging: pyproject.toml is the one metadata source -------------------

ROOT = Path(__file__).resolve().parents[2]
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def test_every_console_script_target_is_callable():
    """The ldp-* commands README and docs/ tell users to run must be
    declared where setuptools will keep reading them, and must resolve.
    (Regex read: CI also runs 3.10, which has no tomllib.)"""
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[)", PYPROJECT,
                        re.S | re.M).group(1)
    scripts = dict(re.findall(r'^([\w-]+) = "([\w.]+:\w+)"$', section,
                              re.M))
    assert sorted(scripts) == [
        "ldp-dig", "ldp-replay", "ldp-trace-convert", "ldp-trace-mutate",
        "ldp-trace-stats", "ldp-verify", "ldp-zone-build"]
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


def test_version_is_declared_once():
    (version,) = re.findall(r'^version = "(.+)"$', PYPROJECT, re.M)
    assert repro.__version__ == version
    setup_py = (ROOT / "setup.py").read_text(encoding="utf-8")
    assert "version=" not in setup_py and "entry_points" not in setup_py
