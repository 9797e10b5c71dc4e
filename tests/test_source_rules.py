"""Rules the package source keeps, checked on the syntax trees of every
module under `src/`, one test per rule."""
import ast
import pathlib
from functools import cache

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CONVERSIONS = ("packbits", "unpackbits", "frombuffer", "from_bytes")
SIZING_SUFFIXES = ("_BUDGET", "_BYTES", "_CELLS")


@cache
def modules() -> tuple:
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no modules under {SRC}"
    return tuple((path, ast.parse(path.read_text())) for path in paths)


def found(rule) -> list[str]:
    """`module:line` of every node of every module for which `rule(node,
    path)` is true."""
    return [f"{path.relative_to(SRC)}:{node.lineno}" for path, tree in modules()
            for node in ast.walk(tree) if rule(node, path)]


def test_no_assert_statements():
    # invariants must hold under `python -O`, which skips `assert`
    assert found(lambda node, path: isinstance(node, ast.Assert)) == []


def test_no_isinstance_calls():
    # types carry their own behaviour, so no code tests a type
    assert found(lambda node, path: isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "isinstance") == []


def test_row_conversions_only_in_sets():
    # a batch of masks has one format, packed rows, and only sets.py
    # converts between masks, bytes and bits
    assert found(lambda node, path: isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr in CONVERSIONS
                 and path.name != "sets.py") == []


def ground_size(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "n"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "ground")


def test_ground_sizes_compared_only_by_check_same():
    # two ground sets are compared only by GroundSet.check_same, which reads
    # the sizes off the ground sets themselves: no == or != in src/, sets.py
    # included, has a `<expr>.ground.n` operand
    assert found(lambda node, path: isinstance(node, ast.Compare)
                 and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                 and any(map(ground_size, [node.left, *node.comparators]))) == []


def assigns_sizing_constant(node) -> bool:
    """An assignment to a name ending in a sizing suffix."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(isinstance(name, ast.Name) and name.id.endswith(SIZING_SUFFIXES)
               for target in targets for name in ast.walk(target))


def test_budgets_and_chunk_sizes_only_in_sets():
    # how many sets an enumeration may take and how much of a batch is
    # worked on at once are decided once, at module level in sets.py
    # (MULTILINEAR_BUDGET, CHUNK_BYTES); other modules import them
    assert [f"{path.relative_to(SRC)}:{node.lineno}" for path, tree in modules()
            if path.name != "sets.py" for node in tree.body if assigns_sizing_constant(node)] == []


TYPING_UNIONS = ("Union", "Optional")


def names_typing_union(node) -> bool:
    """`from typing import Union` (or Optional), or `typing.Union`."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "typing" and any(a.name in TYPING_UNIONS for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in TYPING_UNIONS
            and isinstance(node.value, ast.Name) and node.value.id == "typing")


def test_no_typing_union_or_optional():
    # unions are written `A | B`: a module-level `typing.Union[...]` is kept
    # in typing's subscription cache with the classes it names, which keeps
    # every earlier import of the package alive
    assert found(lambda node, path: names_typing_union(node)) == []
