"""One base for ml1's record classes: dataclass behaviour without per-class
code generation and without the `dataclasses` module.

A record is declared like a dataclass, with annotated fields, defaults and
`field(...)`:

    class SymbolId(Record, frozen=True):
        fqn: str
        kind: str

`Record.__init_subclass__` builds the field table itself: one `Field` per
annotation, in declaration order, after a record base's fields. `field`
takes `default`, `default_factory`, `compare` and `repr`; `fields` and
`replace` work as their `dataclasses` namesakes do. Importing
`dataclasses` would load `inspect` and much of the compiler toolchain at
every ml1 start-up, so this module stands in for it.

Only `__init__` is generated per class, with one `exec`, because a generic
`*args/**kwargs` constructor makes building the syntax tree markedly
slower. Equality, hashing and repr are defined once, here: they read a
per-class `operator.attrgetter` of the compared fields and give the
values, the hashes and the text a dataclass gives. A frozen record raises
`FrozenInstanceError` (an `AttributeError`) on assignment and deletion;
any other record is unhashable. A declaration a dataclass rejects (a
field without a default after one with a default, a `list`, `dict` or
`set` default, both `default` and `default_factory`) raises what the
dataclass raises.
"""

from __future__ import annotations

import reprlib
from operator import attrgetter

MISSING = object()  # no default given
_HAS_FACTORY = object()  # default of a field whose value comes from its default_factory


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


class Field:
    """One declared field: its name, annotation, default or default
    factory, and whether equality and repr include it."""

    __slots__ = ("name", "type", "default", "default_factory", "compare", "repr")

    def __init__(self, default, default_factory, compare: bool, repr: bool):
        self.name = self.type = None
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def field(*, default=MISSING, default_factory=MISSING, compare: bool = True, repr: bool = True) -> Field:
    """The specification of a field whose default, equality or repr differs
    from the plain annotated form."""
    if default is not MISSING and default_factory is not MISSING:
        raise ValueError("cannot specify both default and default_factory")
    return Field(default, default_factory, compare, repr)


def fields(record) -> tuple[Field, ...]:
    """The fields of a record class or instance, in declaration order."""
    return tuple(record.__dataclass_fields__.values())


def replace(record, /, **changes):
    """A new record of the same class, with `changes` and every other field
    taken from `record`."""
    for name in record.__dataclass_fields__:
        if name not in changes:
            changes[name] = getattr(record, name)
    return record.__class__(**changes)


def _field_table(cls: type, annotations: dict[str, object]) -> dict[str, Field]:
    """The fields of `cls`, name to `Field`, in declaration order: a record
    base's first, then each annotation of `cls`. As a dataclass does, a
    field with a plain default keeps it as a class attribute, and a
    `field(...)` with a factory leaves none."""
    table = dict(getattr(cls, "__dataclass_fields__", {}))
    for name, annotation in annotations.items():
        default = cls.__dict__.get(name, MISSING)
        f = default if isinstance(default, Field) else Field(default, MISSING, True, True)
        f.name, f.type = name, annotation
        if f.default.__class__.__hash__ is None:
            raise ValueError(
                f"mutable default {type(f.default)} for field {name} is not allowed: use default_factory"
            )
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif isinstance(default, Field):
            delattr(cls, name)
        table[name] = f
    seen_default = None
    for f in table.values():
        if f.default is not MISSING or f.default_factory is not MISSING:
            seen_default = f
        elif seen_default is not None:
            raise TypeError(f"non-default argument {f.name!r} follows default argument {seen_default.name!r}")
    return table


def _tuple_getter(names: list[str]):
    """A function from an instance to the tuple of these fields' values."""
    if len(names) > 1:
        return attrgetter(*names)  # returns a tuple, and is no descriptor
    if names:
        get = attrgetter(names[0])
        return staticmethod(lambda obj: (get(obj),))
    return staticmethod(lambda obj: ())


def _make_init(cls: type, declared: tuple[Field, ...], frozen: bool):
    """`cls.__init__`, with the parameters, defaults and stores of the
    dataclass `__init__`."""
    ns: dict[str, object] = {"_set": object.__setattr__, "_HAS_FACTORY": _HAS_FACTORY}
    params, body = ["self"], []
    for f in declared:
        value = f.name
        if f.default_factory is not MISSING:
            ns[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_HAS_FACTORY")
            value = f"_factory_{f.name}() if {f.name} is _HAS_FACTORY else {f.name}"
        elif f.default is not MISSING:
            ns[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        else:
            params.append(f.name)
        body.append(f"_set(self, {f.name!r}, {value})" if frozen else f"self.{f.name} = {value}")
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body or ["pass"]), ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Base of every ml1 record class; see the module docstring."""

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        if cls.__doc__ is None:
            cls.__doc__ = f"{cls.__name__}({', '.join(annotations)})"
        # The table keeps the name a dataclass gives it, because the bench's
        # node count (`bench/layers._nodes`) walks `__dataclass_fields__`.
        cls.__dataclass_fields__ = _field_table(cls, annotations)
        declared = fields(cls)
        cls.__match_args__ = tuple(f.name for f in declared)
        cls.__init__ = _make_init(cls, declared, frozen)
        cls._compared = _tuple_getter([f.name for f in declared if f.compare])
        cls._shown = tuple(f.name for f in declared if f.repr)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._compared(self))

    @reprlib.recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
