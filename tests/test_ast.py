import dataclasses
import random

from ml1 import ast
from ml1.rewrite import defer_lowering, uppercase_defs

from gen import random_unit, random_unit_defs_only

# Import filter values: parts of an ImportClause, not tree nodes.
SELECTOR_VALUES = {ast.Selector, ast.ImportSelectors}

NODE_CLASSES = {
    value
    for value in vars(ast).values()
    if isinstance(value, type)
    and dataclasses.is_dataclass(value)
    and value.__module__ == ast.__name__
    and value not in SELECTOR_VALUES
}


def generated_trees(seed: int, count: int):
    """Random units, plus defer-lowered ones, which hold frames, thunks and
    registers."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_unit(rng)
        unit = random_unit_defs_only(rng)
        yield ast.map_children(unit, defer_lowering)


def test_every_node_class_has_a_child_field_entry():
    assert set(ast.CHILD_FIELDS) == NODE_CLASSES
    for cls, names in ast.CHILD_FIELDS.items():
        declared = [f.name for f in dataclasses.fields(cls)]
        assert [n for n in declared if n in names] == list(names), cls


def test_identity_map_returns_every_node_itself():
    for tree in generated_trees(11, 60):
        for node in ast.walk(tree):
            assert ast.map_children(node, lambda child: child) is node


def test_map_children_rebuilds_only_the_changed_field():
    call = ast.Call(ast.Ref(("f",)), (ast.IntLit(1), ast.IntLit(2)))
    bumped = ast.map_children(
        call, lambda c: ast.IntLit(c.value + 1) if isinstance(c, ast.IntLit) else c
    )
    assert bumped == ast.Call(ast.Ref(("f",)), (ast.IntLit(2), ast.IntLit(3)))
    assert bumped.callee is call.callee
    seen = []
    ast.map_children(call, lambda c: seen.append(c) or c)
    assert seen == [call.callee, *call.args]


def _scan(node):
    """Pre-order nodes found through every dataclass field, independent of
    the child-field table."""
    yield node
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if type(item) in NODE_CLASSES:
                yield from _scan(item)


def test_walk_visits_exactly_the_nodes_a_field_scan_finds():
    for tree in generated_trees(23, 60):
        assert [id(n) for n in ast.walk(tree)] == [id(n) for n in _scan(tree)]


def test_rewriters_return_untouched_templates_themselves():
    rng = random.Random(31)
    for _ in range(60):
        for tpl in random_unit(rng, allow_defer=False).templates():
            assert defer_lowering(tpl) is tpl
            upper = uppercase_defs(tpl)
            assert uppercase_defs(upper) is upper
