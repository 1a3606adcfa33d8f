"""Input lint: ``matcore.require_square(value, name, n)`` is the one check
of a square input.  It converts through ``as_matrix`` itself, so no module
of ``lme`` wraps ``as_matrix`` in it, and no module but ``require_square``
raises a shape error worded "has size", "must be square" or "shapes
differ".  The two size-0 checks, "has size 0, expected at least 1", stay
with their callers: ``require_square`` accepts a 0×0 matrix."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lme"
SHAPE_ERRORS = {"DimensionMismatchError", "NonSquareError"}
WORDINGS = ("has size", "must be square", "shapes differ")


def _name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _text(node: ast.expr) -> str:
    """The literal parts of a message, f-strings included."""
    return "".join(n.value for n in ast.walk(node) if isinstance(n, ast.Constant) and isinstance(n.value, str))


def input_rule_offences(trees: dict[str, ast.Module]) -> list[str]:
    """``module.py:line`` of every ``require_square(as_matrix(...))`` and of
    every shape error with a size or squareness message outside
    ``require_square``."""
    found = []
    for name, tree in trees.items():
        owner = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "require_square"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = _name(node.func)
            wrapped = (func == "require_square" and node.args and isinstance(node.args[0], ast.Call)
                       and _name(node.args[0].func) == "as_matrix")
            message = _text(node.args[0]) if func in SHAPE_ERRORS and node.args else ""
            worded = (id(node) not in owner and any(w in message for w in WORDINGS)
                      and "expected at least 1" not in message)
            if wrapped or worded:
                found.append(f"{name}.py:{node.lineno}")
    return found


def test_every_square_input_goes_through_require_square():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), p.name) for p in sorted(SRC.glob("*.py"))}
    assert input_rule_offences(trees) == []


def test_the_lint_flags_planted_offences():
    trees = {
        "planted": ast.parse(
            "def require_square(value, name, n=None):\n"
            "    raise NonSquareError(f'{name} must be square')\n"
            "def f(a, b, n):\n"
            "    a = require_square(as_matrix(a, 'A'), 'A')\n"
            "    b = matcore.require_square(matcore.as_matrix(b))\n"
            "    raise DimensionMismatchError(f'shapes differ: {a.shape} vs {b.shape}')\n"
            "    raise errors.NonSquareError('B must be square')\n"
            "    raise DimensionMismatchError(f'S has size {n}, expected ' + str(n))\n"
            "def g(a, n):\n"
            "    a = require_square(a, 'A', n)\n"
            "    c = as_matrix(require_square(a))\n"
            "    raise DimensionMismatchError(f'C has size 0, expected at least 1')\n"
            "    raise DimensionMismatchError('sequences have different lengths')\n"
            "    raise ValueError('X has size 2, expected 3')\n"
        ),
    }
    assert input_rule_offences(trees) == [f"planted.py:{line}" for line in (4, 5, 6, 7, 8)]
