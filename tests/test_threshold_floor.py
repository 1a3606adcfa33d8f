"""Threshold lint: the unit floor tol * max(1, ref) is written once, in
``tolerances.bound``, which spells it max(tol, tol * ref).  Every other
module calls ``bound``, so no module of ``lme`` calls ``max`` with a
literal 1 or 1.0 among its arguments."""

import ast
from pathlib import Path

import numpy as np

import lme
from lme.tolerances import bound

SRC = Path(__file__).resolve().parents[1] / "src" / "lme"


def _unit(node: ast.expr) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 1)


def unit_floors(trees: dict[str, ast.Module]) -> list[str]:
    """``module.py:line`` of every ``max(...)`` call with a literal 1 or 1.0
    argument."""
    return [
        f"{name}.py:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "max"
        and any(_unit(arg) for arg in node.args)
    ]


def test_no_module_spells_the_unit_floor():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), p.name) for p in sorted(SRC.glob("*.py"))}
    assert unit_floors(trees) == []


def test_the_lint_flags_a_planted_floor():
    trees = {
        "planted": ast.parse(
            "def f(tol, x, xs):\n"
            "    a = tol * max(1.0, x)\n"
            "    b = max(x, 1)\n"
            "    c = max(tol, tol * x)\n"
            "    d = max(2.0, x), max(True, x), xs.max(1), max(xs, key=1)\n"
            "    return a / max(1, max(1.0, x))\n"
        ),
    }
    assert sorted(unit_floors(trees)) == ["planted.py:2", "planted.py:3", "planted.py:6", "planted.py:6"]


def test_bound_is_the_floored_product():
    for tol in (0.0, 5e-324, 1e-10, 1e-8, 1.0, 3.0):
        for ref in (0.0, 1e-300, 0.5, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 7.3, 1e150, 1e308):
            assert bound(tol, ref) == tol * max(1.0, ref)
        assert bound(tol, float("nan")) == tol
    assert bound(0.0, np.inf) == 0.0


def test_an_exact_commutator_passes_a_zero_tolerance_when_the_norms_overflow():
    # ||A||_F = 1e160 overflows in numpy's sum of squares, and 0 * inf would
    # be NaN; AB = BA = 0
    with np.errstate(over="ignore"):
        assert lme.commutes(np.diag([1e160, 0.0]), np.diag([0.0, 1e160]), 0.0)
