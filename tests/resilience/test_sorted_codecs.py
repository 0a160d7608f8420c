"""A ``SORTED_*`` codec is for state that is only looked up.

``SORTED_SET``, ``SORTED_PAIRS`` and ``SORTED_ROWS`` write a set or a
dict in key order, so a restored one iterates and pops in key order,
not in the order the uninterrupted run built it.  That is only right
for state used by key: tested, added, updated, deleted.  This test
reads the checkpointed packages' source and refuses a sorted codec on
any attribute that the same packages iterate bare (a ``for`` or a
comprehension over it or over its ``items()``/``keys()``/``values()``,
or ``list``/``tuple``/``iter``/``enumerate`` of it) or pop in an order
the container chooses (``pop()`` with no key, ``popitem()``).
Iterating ``sorted(...)`` of it is fine: the order is the key's.
"""

import ast
from pathlib import Path

import pytest

import repro

SORTED = {"SORTED_SET", "SORTED_PAIRS", "SORTED_ROWS"}
PACKAGES = ("soc", "coherence", "bridge", "models", "resilience")
_VIEWS = {"items", "keys", "values"}
_ORDERED_CALLS = {"list", "tuple", "iter", "enumerate"}


def _sources() -> dict:
    root = Path(repro.__file__).parent
    return {str(path.relative_to(root.parent)): path.read_text()
            for package in PACKAGES
            for path in sorted((root / package).rglob("*.py"))}


def sorted_attributes(tree: ast.AST) -> set:
    """Attribute names a table entry ``(..., "attr", SORTED_*)`` saves
    with a sorted codec (the last part of a dotted attribute)."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) >= 2
                and isinstance(node.elts[-1], ast.Name)
                and node.elts[-1].id in SORTED
                and isinstance(node.elts[-2], ast.Constant)):
            out.add(node.elts[-2].value.rpartition(".")[2])
    return out


def _attribute(node) -> str:
    """The attribute *node* reads, through an ``items()``-like view."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in _VIEWS and not node.args):
        node = node.func.value
    return node.attr if isinstance(node, ast.Attribute) else ""


def ordered_uses(tree: ast.AST) -> dict:
    """``attribute -> [line, ...]`` of every bare iteration or
    container-ordered pop of an attribute in *tree*."""
    out: dict = {}

    def use(node, line) -> None:
        name = _attribute(node)
        if name:
            out.setdefault(name, []).append(line)

    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            use(node.iter, getattr(node, "lineno", node.iter.lineno))
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in _ORDERED_CALLS
                    and node.args):
                use(node.args[0], node.lineno)
            elif isinstance(func, ast.Attribute) and (
                    func.attr == "popitem"
                    or (func.attr == "pop" and not node.args)):
                use(func.value, node.lineno)
    return out


def violations(sources: dict) -> list:
    """``file:line attribute`` of each ordered use of an attribute some
    table saves with a sorted codec."""
    trees = {name: ast.parse(text, name) for name, text in sources.items()}
    saved = set().union(*(sorted_attributes(t) for t in trees.values()))
    return sorted(f"{name}:{line} {attr}"
                  for name, tree in trees.items()
                  for attr, lines in ordered_uses(tree).items()
                  if attr in saved for line in lines)


def test_sorted_codecs_hold_lookup_state_only():
    sources = _sources()
    assert any(sorted_attributes(ast.parse(text)) for text in
               sources.values()), "no sorted codec found: the scan is broken"
    assert violations(sources) == []


@pytest.mark.parametrize("body", [
    "for block in self._seen:\n    pass",
    "xs = [b for b, v in self._seen.items()]",
    "first = self._seen.pop()",
    "last = self._seen.popitem()",
    "order = list(self._seen)",
])
def test_an_ordered_use_is_caught(body):
    table = 'ckpt_state = (("_seen", SORTED_SET),)\n'
    assert violations({"m.py": table + body}) == ["m.py:2 _seen"]


@pytest.mark.parametrize("body", [
    "for block in sorted(self._seen):\n    pass",
    "xs = sorted(self._seen.items())",
    "self._seen.pop(3, None)",
    "hit = 3 in self._seen",
])
def test_a_keyed_use_is_not(body):
    table = 'ckpt_state = (("_seen", SORTED_SET),)\n'
    assert violations({"m.py": table + body}) == []
