"""One base for ml1's record classes: dataclass behaviour without per-class
code generation.

A record is declared like a dataclass, with annotated fields, defaults and
`dataclasses.field(...)`:

    class SymbolId(Record, frozen=True):
        fqn: str
        kind: str

`dataclasses.dataclass(init=False, repr=False, eq=False)` builds the field
table, so `dataclasses.fields` and `dataclasses.replace` keep working.
Only `__init__` is generated per class, with one `exec`, because a generic
`*args/**kwargs` constructor makes building the syntax tree markedly
slower. Equality, hashing and repr are defined once, here: they read a
per-class `operator.attrgetter` of the compared fields and give the
values, the hashes and the text a dataclass gives. A frozen record raises
`dataclasses.FrozenInstanceError` on assignment and deletion; any other
record is unhashable.
"""

from __future__ import annotations

import reprlib
from dataclasses import MISSING, Field, FrozenInstanceError, dataclass, fields
from operator import attrgetter

_HAS_FACTORY = object()  # default of a field whose value comes from its default_factory


def _tuple_getter(names: list[str]):
    """A function from an instance to the tuple of these fields' values."""
    if len(names) > 1:
        return attrgetter(*names)  # returns a tuple, and is no descriptor
    if names:
        get = attrgetter(names[0])
        return staticmethod(lambda obj: (get(obj),))
    return staticmethod(lambda obj: ())


def _make_init(cls: type, fields: tuple[Field, ...], frozen: bool):
    """`cls.__init__`, with the parameters, defaults and stores of the
    dataclass `__init__`."""
    ns: dict[str, object] = {"_set": object.__setattr__, "_HAS_FACTORY": _HAS_FACTORY}
    params, body = ["self"], []
    for f in fields:
        if not f.init or f.kw_only is True or f.hash is not None:
            raise TypeError(f"{cls.__name__}.{f.name}: records support default, default_factory, compare and repr")
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
        if cls.__doc__ is None:
            # A dataclass derives a missing docstring from `inspect.signature`,
            # which costs more than the rest of its work here.
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__dict__.get('__annotations__', ()))})"
        dataclass(cls, init=False, repr=False, eq=False)
        declared = fields(cls)
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
