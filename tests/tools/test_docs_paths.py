"""The docs name things that exist.

README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md tell a reader which
file to open, which module to run and which make target wraps it; each
of those is checked against the tree, and DESIGN.md §3's module map
against ``src/repro/`` file for file, so a rename or a deletion cannot
leave the documentation pointing at nothing.
"""

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
    # tools/ and util/ are described in a sentence, not file by file.
    assert prose_only == {"tools/", "util/"}
    source = ROOT / "src" / "repro"
    actual = {path.relative_to(source).as_posix()
              for path in source.rglob("*.py")
              if path.name != "__init__.py"
              and path.relative_to(source).parts[0] + "/" not in prose_only}
    assert listed == actual, (sorted(listed - actual),
                              sorted(actual - listed))
