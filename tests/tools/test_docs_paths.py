"""The docs name things that exist.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md tell a reader which
file to open, which module to run and which make target wraps it; each
of those is checked against the tree, and DESIGN.md §3's module map
against ``src/repro/`` file for file, so a rename or a deletion cannot
leave the documentation pointing at nothing.  Knob tables are checked
against the config dataclasses, name for name and default for default.
"""

import ast
import dataclasses
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
# Spellings of the second benchmark tree PR 18 retired — in halves, so
# that a repo-wide grep for them stays empty with this file in it.
RETIRED = ("test_" "bench_", "make " "bench", "--benchmark" "-only",
           "pytest" "-benchmark", "_results" "/")
MAKE_TARGETS = set(re.findall(
    r"^([\w-]+):", (ROOT / "Makefile").read_text(encoding="utf-8"), re.M))


@pytest.fixture(scope="module", params=DOCS, ids=lambda path: path.name)
def text(request):
    return request.param.read_text(encoding="utf-8")


def test_backticked_paths_exist(text):
    paths = re.findall(
        r"`((?:src|tests|benchmarks|examples|docs)/[^`\s]*)`", text)
    for path in paths:
        path = path.split("::")[0]          # tests/x.py::test_name
        assert list(ROOT.glob(path.rstrip("/"))), path


def test_python_dash_m_modules_import(text):
    for module in re.findall(r"python3? -m (repro(?:\.\w+)*)", text):
        assert importlib.util.find_spec(module) is not None, module


def test_make_targets_exist(text):
    for target in re.findall(r"`make ([\w-]+)`", text):
        assert target in MAKE_TARGETS, target


def test_retired_benchmark_tree_is_not_mentioned(text):
    for spelling in RETIRED:
        assert spelling not in text, spelling


def test_design_module_map_lists_exactly_the_source_files():
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    block = re.search(r"^## 3\..*?```\n(.*?)```", design, re.S | re.M).group(1)
    listed, prose_only, package, subdir = set(), set(), None, None
    for line in block.splitlines():
        entry = re.match(r"^( {2}| {4}| {6})(\w+(?:\.py|/))(?:\s|$)", line)
        if entry is None:
            continue                        # the root line, wrapped prose
        depth, name = len(entry.group(1)), entry.group(2)
        if depth == 2:
            package, subdir = name, None
            prose_only.add(name)
        elif depth == 4 and name.endswith("/"):
            subdir = name
        else:
            listed.add(package + (subdir if depth == 6 else "") + name)
            prose_only.discard(package)
    # tools/ is described in a sentence, not file by file.
    assert prose_only == {"tools/"}
    source = ROOT / "src" / "repro"
    actual = {path.relative_to(source).as_posix()
              for path in source.rglob("*.py")
              if path.name != "__init__.py"
              and path.relative_to(source).parts[0] + "/" not in prose_only}
    assert listed == actual, (sorted(listed - actual),
                              sorted(actual - listed))


# -- knob tables -----------------------------------------------------------
#
# A config class is documented either by a table whose header row starts
# `| knob | default |` under a heading that names the class in
# backticks, or by a fenced python block made of nothing but
# `XConfig(field=default, ...)` calls.  Either way the documented names
# are exactly the dataclass's fields and each default its default.

DOCUMENTED_CONFIGS = {
    "CacheConfig", "LiveReplayConfig", "ResilienceConfig",
    "SupervisionConfig", "OverloadConfig", "RrlConfig", "CookieConfig",
    "AdmissionConfig"}


def _documented_knobs():
    """``(doc, class name, {field: default})`` per table or block."""
    for doc in sorted((ROOT / "docs").glob("*.md")):
        body = doc.read_text(encoding="utf-8")
        for heading, table in re.findall(
                r"^#+ [^\n]*`(\w+Config)`[^\n]*\n(?:(?!^#)[^\n]*\n)*?"
                r"\| knob \| default \|[^\n]*\n\|[-| ]+\n((?:\|[^\n]*\n)+)",
                body, re.M):
            rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", table, re.M)
            assert len(rows) == table.count("\n"), (doc.name, heading)
            yield doc.name, heading, {
                name: ast.literal_eval(default) for name, default in rows}
        for block in re.findall(r"```python\n(.*?)```", body, re.S):
            try:
                statements = ast.parse(block).body
            except SyntaxError:
                continue                    # elided (`…`) example code
            calls = [s.value for s in statements
                     if isinstance(s, ast.Expr)
                     and isinstance(s.value, ast.Call)
                     and isinstance(s.value.func, ast.Name)
                     and s.value.func.id.endswith("Config")]
            if not calls or len(calls) != len(statements):
                continue                    # an example, not a reference
            for call in calls:
                assert not call.args, (doc.name, call.func.id)
                yield doc.name, call.func.id, {
                    k.arg: ast.literal_eval(k.value) for k in call.keywords}


def test_documented_knobs_are_the_dataclass_fields():
    import repro
    seen = set()
    for doc, name, documented in _documented_knobs():
        seen.add(name)
        actual = {f.name: f.default
                  for f in dataclasses.fields(getattr(repro, name))}
        assert documented == actual, (doc, name)
    assert seen == DOCUMENTED_CONFIGS
