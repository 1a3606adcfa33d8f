"""Layering lint: no module of ``lme`` reads a private attribute (``x._name``)
that a class of another module declares.  What a class keeps behind an
underscore is read only in the module that defines the class; a fact that
two modules need is a public field of one owner.  Dunders and ``self._name``
are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lme"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def declared_private_attributes(tree: ast.Module) -> set[str]:
    """The private names that the classes of one module declare: in a class
    body (fields, methods, class attributes and ``__slots__`` entries) or as
    ``self._name = ...`` in a method."""
    names = set()
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, ast.Name):
                        continue
                    names.add(target.id)
                    if target.id == "__slots__":
                        names.update(c.value for c in ast.walk(node.value)
                                     if isinstance(c, ast.Constant) and isinstance(c.value, str))
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                names.add(node.attr)
    return {name for name in names if _private(name)}


def private_reads(tree: ast.Module):
    """(line, name) of every ``x._name`` read other than ``self._name``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and _private(node.attr)
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
            yield node.lineno, node.attr


def offences(trees: dict[str, ast.Module]) -> list[str]:
    declared = {name: declared_private_attributes(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        for line, attr in private_reads(tree):
            owners = sorted(other for other, attrs in declared.items() if other != name and attr in attrs)
            if owners:
                found.append(f"{name}.py:{line} reads .{attr}, declared by a class of {', '.join(owners)}")
    return found


def parse(sources: dict[str, str]) -> dict[str, ast.Module]:
    return {name: ast.parse(text, f"{name}.py") for name, text in sources.items()}


def test_no_module_reads_another_modules_private_attribute():
    trees = parse({p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))})
    # the lint sees the package: the spec's memo is private to equations
    assert "_solved" in declared_private_attributes(trees["equations"])
    assert offences(trees) == []


def test_the_lint_flags_a_cross_module_read():
    trees = parse({
        "core": (
            "class Basis:\n"
            "    _norms: tuple\n"
            "    __slots__ = ('_cells',)\n"
            "    def _scale(self):\n"
            "        self._cache = self._norms\n"
            "        return self.__class__\n"
        ),
        "user": (
            "def f(basis, other):\n"
            "    return basis._norms, basis._scale(), basis._cells, basis._cache, basis.__class__\n"
            "class Local:\n"
            "    def g(self):\n"
            "        return self._norms, other._unknown\n"
        ),
    })
    assert sorted(offences(trees)) == [
        f"user.py:2 reads .{attr}, declared by a class of core"
        for attr in ("_cache", "_cells", "_norms", "_scale")
    ]
