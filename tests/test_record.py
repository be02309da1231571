"""The record base against the standard dataclass: every record class in
ml1 must behave like a dataclass declared with the same fields, defaults,
compare/repr flags and frozenness, while its methods come from the base."""

from __future__ import annotations

import ast as pyast
import dataclasses
import importlib
import inspect
import pkgutil
import random

import pytest

import ml1
from ml1 import record
from ml1.record import Record
from ml1.tokens import Span

MODULES = [
    importlib.import_module(f"ml1.{info.name}")
    for info in pkgutil.iter_modules(ml1.__path__)
    if info.name != "__main__"
]


def _declared(module) -> dict[str, bool]:
    """Each class of the module's source that lists `Record` as a base,
    with its declared frozenness, read from the source text."""
    found = {}
    for node in pyast.walk(pyast.parse(inspect.getsource(module))):
        if isinstance(node, pyast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in node.bases):
            flags = {kw.arg: pyast.literal_eval(kw.value) for kw in node.keywords}
            found[node.name] = flags.get("frozen", False)
    return found


# (class, declared frozen) for every record class in ml1.
RECORDS = [
    (getattr(module, name), frozen) for module in MODULES for name, frozen in sorted(_declared(module).items())
]


def _standard(value):
    """`dataclasses.MISSING` for `record.MISSING`, else the value."""
    return dataclasses.MISSING if value is record.MISSING else value


def _twin(cls: type, frozen: bool) -> type:
    """The standard dataclass with `cls`'s fields, flags and frozenness."""
    specs = [
        (
            f.name,
            f.type,
            dataclasses.field(
                default=_standard(f.default),
                default_factory=_standard(f.default_factory),
                compare=f.compare,
                repr=f.repr,
            ),
        )
        for f in record.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen)


def _value(rng: random.Random) -> object:
    """A random hashable field value; small pools make equal values common."""
    return rng.choice(
        [
            rng.randint(0, 2),
            rng.choice(["a", "b", "é"]),
            None,
            (rng.randint(0, 1), "x"),
            Span(rng.randint(0, 1), 2),
        ]
    )


def _outcome(fn):
    """What calling `fn` gives: its value, or its exception's type and text.
    The standard `FrozenInstanceError` counts as the record one."""
    try:
        return "value", fn()
    except dataclasses.FrozenInstanceError as err:
        return record.FrozenInstanceError, str(err)
    except Exception as err:  # the exception is the outcome compared
        return type(err), str(err)


def test_every_dataclass_in_ml1_is_a_declared_record():
    classes = {
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    }
    dataclasses_found = {cls for cls in classes if dataclasses.is_dataclass(cls)}
    assert dataclasses_found == {cls for cls in classes if issubclass(cls, Record)} - {Record}
    assert dataclasses_found == {cls for cls, _ in RECORDS}


@pytest.mark.parametrize("cls, frozen", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_behaves_like_its_dataclass_twin(cls, frozen):
    twin = _twin(cls, frozen)
    names = [f.name for f in record.fields(cls)]
    ignored = {f.name for f in record.fields(cls) if not f.compare}
    assert ignored <= {"span", "source_name"} or cls.__name__ == "ScopeGraph"
    assert cls.__match_args__ == twin.__match_args__
    assert list(cls.__dataclass_fields__) == names
    # A plain default stays a class attribute; a default_factory leaves none.
    assert {n: cls.__dict__[n] for n in names if n in cls.__dict__} == {
        n: twin.__dict__[n] for n in names if n in twin.__dict__
    }
    assert cls.__doc__

    # The methods come from the base, never from per-class code.
    assert "__eq__" not in cls.__dict__ and "__repr__" not in cls.__dict__
    assert cls.__eq__ is Record.__eq__ and cls.__repr__ is Record.__repr__
    assert cls.__hash__ is (Record.__hash__ if frozen else None)
    if frozen:
        assert cls.__setattr__ is Record.__setattr__ and cls.__delattr__ is Record.__delattr__
        assert issubclass(record.FrozenInstanceError, AttributeError)

    rng = random.Random(cls.__name__)
    for _ in range(60):
        a = [_value(rng) for _ in names]
        b = [_value(rng) for _ in names]
        ra, rb, ta, tb = cls(*a), cls(*b), twin(*a), twin(*b)
        assert repr(ra) == repr(ta)
        assert (ra == rb) == (ta == tb) and (ra != rb) == (ta != tb)
        assert ra == cls(*a) and ra != ta
        # Fields left out of equality (spans, source names) change nothing.
        c = [b[i] if name in ignored else a[i] for i, name in enumerate(names)]
        assert ra == cls(*c) and ta == twin(*c)
        if frozen:
            assert hash(ra) == hash(ta) == hash(cls(*c))
        else:
            assert _outcome(lambda: hash(ra)) == _outcome(lambda: hash(ta))
            with pytest.raises(TypeError):
                hash(ra)
        if names:
            i = rng.randrange(len(names))
            changed = {names[i]: b[i]}
            replaced = record.replace(ra, **changed)
            assert type(replaced) is cls and repr(replaced) == repr(dataclasses.replace(ta, **changed))
            assert _outcome(lambda: setattr(ra, names[i], b[i])) == _outcome(lambda: setattr(ta, names[i], b[i]))
            assert _outcome(lambda: delattr(ra, names[i])) == _outcome(lambda: delattr(ta, names[i]))
            if frozen:
                assert _outcome(lambda: setattr(ra, names[i], b[i]))[0] is record.FrozenInstanceError


@pytest.mark.parametrize("cls, frozen", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_construction_matches_its_dataclass_twin(cls, frozen):
    twin = _twin(cls, frozen)
    fields = record.fields(cls)
    required = [f.name for f in fields if f.default is record.MISSING and f.default_factory is record.MISSING]
    args = list(range(len(required)))

    # Defaults, and a fresh default_factory value per instance.
    first, second = cls(*args), cls(*args)
    assert repr(first) == repr(twin(*args))
    for f in fields:
        if f.default_factory is not record.MISSING:
            assert getattr(first, f.name) == f.default_factory()
            assert getattr(first, f.name) is not getattr(second, f.name)

    # Wrong arity and unknown keywords fail as the dataclass fails.
    calls = [
        lambda k: k(*args, *range(len(fields) - len(required) + 1)),
        lambda k: k(*args, no_such_field=1),
    ]
    if required:
        calls.append(lambda k: k(*args[:-1]))
        calls.append(lambda k: k(*args, **{required[0]: 0}))
    for call in calls:
        got = _outcome(lambda: call(cls))
        assert got[0] is TypeError and got == _outcome(lambda: call(twin))


# Declarations as (name, how, value): "required" has no default, "plain" a
# plain default, "field" a `field(default=value)`, "factory" a
# `field(default_factory=value)`.
DECLARATIONS = {
    "required after plain default": [("a", "plain", 1), ("b", "required", None)],
    "required after factory": [("a", "factory", list), ("b", "required", None)],
    "required after field default": [("a", "required", None), ("b", "field", 2), ("c", "required", None)],
    "list default": [("a", "plain", [])],
    "dict default": [("a", "plain", {})],
    "set field default": [("a", "field", set())],
    "mutable default before a misplaced required": [("a", "plain", 1), ("b", "plain", []), ("c", "required", None)],
    "well formed": [("a", "required", None), ("b", "plain", 1), ("c", "factory", list), ("d", "field", "x")],
}


def _declare(make_field, base: tuple, spec):
    """A class of `spec`'s fields, built with `make_field` on `base`."""
    namespace: dict[str, object] = {"__annotations__": {name: "object" for name, _, _ in spec}}
    for name, how, value in spec:
        if how == "plain":
            namespace[name] = value
        elif how == "field":
            namespace[name] = make_field(default=value)
        elif how == "factory":
            namespace[name] = make_field(default_factory=value)
    return type("P", base, namespace)


@pytest.mark.parametrize("spec", DECLARATIONS.values(), ids=DECLARATIONS)
def test_declaration_errors_match_the_dataclass(spec):
    got = _outcome(lambda: _declare(record.field, (Record,), spec))
    want = _outcome(lambda: dataclasses.dataclass(_declare(dataclasses.field, (), spec)))
    assert got[0] is want[0]
    if want[0] == "value":
        required = [0 for _, how, _ in spec if how == "required"]
        assert repr(got[1](*required)) == repr(want[1](*required))
    else:
        # Some Python versions also name the default argument that a
        # required one follows; a record always does.
        assert got[1].startswith(want[1])


def test_both_default_and_default_factory_fail_as_in_dataclasses():
    got = _outcome(lambda: record.field(default=1, default_factory=list))
    assert got == _outcome(lambda: dataclasses.field(default=1, default_factory=list))
    assert got[0] is ValueError


def test_a_record_without_a_docstring_is_described_by_its_fields():
    class Point(Record, frozen=True):
        x: int
        y: int = 0

    assert Point.__doc__ == "Point(x, y)"
    assert Point.__match_args__ == ("x", "y") and Point.y == 0


def test_a_record_with_no_compared_field_matches_its_dataclass_twin():
    # Every field left out of equality: instances compare by the empty tuple.
    class Note(Record, frozen=True):
        """Only a span, which equality ignores."""

        span: Span = record.field(default=None, compare=False)

    twin = _twin(Note, frozen=True)
    a, b, ta, tb = Note(Span(0, 1)), Note(Span(1, 2)), twin(Span(0, 1)), twin(Span(1, 2))
    assert Note._compared(a) == ()
    assert (a == b) is (ta == tb) is True
    assert (a != b) is (ta != tb) is False
    assert hash(a) == hash(b) == hash(ta) == hash(tb)
