"""Every knob is set by somebody.

The mechanical half of the knob audit (ROADMAP item 6): every field of
every ``*Config`` dataclass under ``src/repro`` and every defaulted
``__init__`` keyword of a public class there is passed at least once
under ``src/``, ``examples/``, ``benchmarks/`` or ``tests/`` — by
keyword in any call, or positionally in a direct ``ClassName(...)``
call.  A name nothing passes is a setting nobody sets: make it a module
constant.  (Whether a name is only ever set to its default, or only by
the test of the knob itself, is a review question; AST cannot see it.)
Pure AST: the scanned modules are not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "examples", "benchmarks", "tests")

# What the scan cannot see: (class, name) -> why it is set all the
# same.  Empty today.
ALLOWED: dict[tuple[str, str], str] = {}


def _trees(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"))


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def declared_knobs():
    """``{(class, name)}`` plus each class's positional parameter order."""
    knobs, order = set(), {}
    for _, tree in _trees("src/repro"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) \
                    or node.name.startswith("_"):
                continue
            if node.name.endswith("Config") and _is_dataclass(node):
                fields = [s.target.id for s in node.body
                          if isinstance(s, ast.AnnAssign)
                          and isinstance(s.target, ast.Name)]
                order[node.name] = fields
                knobs.update((node.name, f) for f in fields)
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and item.name == "__init__":
                    args = item.args
                    positional = [a.arg for a in args.args[1:]]
                    order[node.name] = positional
                    defaulted = positional[len(positional)
                                           - len(args.defaults):]
                    defaulted += [a.arg for a, d in zip(
                        args.kwonlyargs, args.kw_defaults)
                        if d is not None]
                    knobs.update((node.name, k) for k in defaulted)
    return knobs, order


def passed_names(order):
    """Keyword names passed in any call, and ``(class, name)`` pairs
    passed positionally in a direct ``ClassName(...)`` call."""
    keywords, positional = set(), set()
    for _, tree in _trees(*SCANNED):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords.update(k.arg for k in node.keywords if k.arg)
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None)
            for param, _ in zip(order.get(name, ()), node.args):
                positional.add((name, param))
    return keywords, positional


def test_every_knob_is_passed_somewhere():
    knobs, order = declared_knobs()
    assert len(knobs) > 100          # the scan found the tree
    keywords, positional = passed_names(order)
    unset = sorted(knob for knob in knobs
                   if knob[1] not in keywords and knob not in positional
                   and knob not in ALLOWED)
    assert not unset, (
        "settings nothing sets — make each a module constant, or add "
        f"it to ALLOWED with the reason: {unset}")


def test_allow_list_names_real_knobs():
    knobs, _ = declared_knobs()
    assert set(ALLOWED) <= knobs
