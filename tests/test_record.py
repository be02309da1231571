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


def _twin(cls: type, frozen: bool) -> type:
    """The standard dataclass with `cls`'s fields, flags and frozenness."""
    specs = [
        (
            f.name,
            f.type,
            dataclasses.field(default=f.default, default_factory=f.default_factory, compare=f.compare, repr=f.repr),
        )
        for f in dataclasses.fields(cls)
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
    """What calling `fn` gives: its value, or its exception's type and text."""
    try:
        return "value", fn()
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
    names = [f.name for f in dataclasses.fields(cls)]
    ignored = {f.name for f in dataclasses.fields(cls) if not f.compare}
    assert ignored <= {"span", "source_name"} or cls.__name__ == "ScopeGraph"
    assert cls.__match_args__ == twin.__match_args__

    # The methods come from the base, never from per-class code.
    assert "__eq__" not in cls.__dict__ and "__repr__" not in cls.__dict__
    assert cls.__eq__ is Record.__eq__ and cls.__repr__ is Record.__repr__
    assert cls.__hash__ is (Record.__hash__ if frozen else None)
    if frozen:
        assert cls.__setattr__ is Record.__setattr__ and cls.__delattr__ is Record.__delattr__

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
            replaced = dataclasses.replace(ra, **changed)
            assert type(replaced) is cls and repr(replaced) == repr(dataclasses.replace(ta, **changed))
            assert _outcome(lambda: setattr(ra, names[i], b[i])) == _outcome(lambda: setattr(ta, names[i], b[i]))
            assert _outcome(lambda: delattr(ra, names[i])) == _outcome(lambda: delattr(ta, names[i]))
            if frozen:
                assert _outcome(lambda: setattr(ra, names[i], b[i]))[0] is dataclasses.FrozenInstanceError


@pytest.mark.parametrize("cls, frozen", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_construction_matches_its_dataclass_twin(cls, frozen):
    twin = _twin(cls, frozen)
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    args = list(range(len(required)))

    # Defaults, and a fresh default_factory value per instance.
    first, second = cls(*args), cls(*args)
    assert repr(first) == repr(twin(*args))
    for f in fields:
        if f.default_factory is not dataclasses.MISSING:
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
