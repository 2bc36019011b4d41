"""Every public name of latmax has a caller besides its own tests, and so
does every public method and property of its public classes.

A name in ``latmax.__all__`` counts as used when a library module (other
than ``__init__.py``), a benchmark file under ``perfbench/`` or a script
under ``scripts/`` refers to it: as a name, an attribute or an import.
Strings do not count, so a name the benchmark's tracer patches by name
alone is not a caller. A method or property counts as used when its name
is referred to the same way, on any object. Names that stay public without
a caller are listed with the reason; once one gains a caller its entry
must go, so the list stays current.
"""

import ast
from functools import cached_property
from pathlib import Path

import latmax

ROOT = Path(__file__).resolve().parents[1]

NO_CALLER_YET = {
    "vmeet": "the subspace meet; the benchmark's tracer patches it by name",
    "check_order_consistency": "the knapsack value bound holds only for "
                               "order-consistent costs and is to record it",
    "check_prop1_equivalence": "acceptance 06 reproduces Proposition 1 with it",
}


def _referenced_names():
    files = [p for p in sorted((ROOT / "src" / "latmax").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller():
    unused = set(latmax.__all__) - _referenced_names() - set(NO_CALLER_YET)
    assert not unused, f"public names that only tests use: {sorted(unused)}"


def test_names_without_a_caller_are_public_and_still_uncalled():
    assert set(NO_CALLER_YET) <= set(latmax.__all__)
    called = set(NO_CALLER_YET) & _referenced_names()
    assert not called, f"these now have callers; drop them from NO_CALLER_YET: {sorted(called)}"


def _public_members():
    """``Class.name`` for each method and property that a public class
    defines itself, names with a leading underscore aside."""
    kinds = (property, cached_property, classmethod, staticmethod)
    for cls in (getattr(latmax, name) for name in latmax.__all__):
        if isinstance(cls, type):
            for name, attr in vars(cls).items():
                if not name.startswith("_") and (callable(attr) or isinstance(attr, kinds)):
                    yield f"{cls.__name__}.{name}"


def test_every_public_method_and_property_has_a_caller():
    names = _referenced_names()
    unused = {m for m in _public_members() if m.split(".")[1] not in names}
    assert not unused, f"methods and properties that only tests use: {sorted(unused)}"
