"""Every ``from repro... import name`` resolves.

A deletion under ``src/repro`` can leave an importer behind that no
test runs: an import inside a function (a lazy import of an optional
module, a CLI's sub-command, a benchmark drive) fails only when that
function is called.  This scans ``src/``, ``benchmarks/`` and
``examples/`` with the AST — module level and function bodies alike —
and resolves each imported name with importlib: an attribute of the
module, or a submodule of a package.  The scanned files themselves are
not imported.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples")


def repro_imports():
    """``(where, module, name)`` for every name imported from a
    ``repro`` module; ``name`` is None for a plain ``import repro.x``."""
    found = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                where = f"{path.relative_to(ROOT)}:{getattr(node, 'lineno', 0)}"
                if isinstance(node, ast.ImportFrom) and node.level == 0 \
                        and (node.module or "").split(".")[0] == "repro":
                    found += [(where, node.module, alias.name)
                              for alias in node.names]
                elif isinstance(node, ast.Import):
                    found += [(where, alias.name, None)
                              for alias in node.names
                              if alias.name.split(".")[0] == "repro"]
    return found


def unresolved(module_name, name):
    """Why ``from module_name import name`` fails, or None."""
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        return f"module: {exc}"
    if name is None or name == "*" or hasattr(module, name):
        return None
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return f"no name {name!r}"
    return None


def test_scan_sees_module_level_and_function_imports():
    found = repro_imports()
    assert len(found) > 500
    assert any(where.startswith("benchmarks/") for where, _, _ in found)
    assert any(where.startswith("examples/") for where, _, _ in found)
    # One import the scan must see inside a function body.
    assert any(where.startswith("src/repro/trace/pipeline.py")
               and module == "repro.trace.stats"
               for where, module, _ in found)


def test_every_repro_import_resolves():
    failures = [f"{where}: from {module} import {name}: {why}"
                for where, module, name in repro_imports()
                if (why := unresolved(module, name)) is not None]
    assert not failures, "\n".join(failures)
