"""Every public name of latmax has a caller besides its own tests.

A name in ``latmax.__all__`` counts as used when a library module (other
than ``__init__.py``), a benchmark file under ``perfbench/`` or a script
under ``scripts/`` refers to it: as a name, an attribute or an import.
Strings do not count, so a name the benchmark's tracer patches by name
alone is not a caller. Names that stay public without a caller are listed
with the reason; once one gains a caller its entry must go, so the list
stays current.
"""

import ast
from pathlib import Path

import latmax

ROOT = Path(__file__).resolve().parents[1]

NO_CALLER_YET = {
    "vmeet": "the subspace meet; the benchmark's tracer patches it by name",
    "check_order_consistency": "the knapsack value bound holds only for "
                               "order-consistent costs and is to record it",
    "sample_strong_gap_vector": "the only gap estimate on the subspace lattice, "
                                "for a value bound there",
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
