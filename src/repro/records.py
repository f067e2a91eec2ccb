"""Records: the value classes of the run path, written out by hand.

A record is a class with ``__slots__`` and a hand-written ``__init__`` that
stores its fields.  :class:`Record` gives it what a dataclass would: equality
with a record of the same class and equal fields, a ``repr`` shaped as the
keyword constructor call, no hash (a mutable value), pickling and
``__match_args__``.  :class:`Frozen` adds immutability and a hash over the
fields.  Generating those methods per class, as ``dataclasses`` does, costs
every ``ginflow`` command an ``exec`` per record and the import of
``dataclasses`` and ``inspect`` before it does anything.

The fields of a record are its slots, its bases' first, minus those whose name
starts with ``_``: private state (a cache, a memo) that is neither compared nor
shown.  This module imports nothing from :mod:`repro`, so any layer can build
on it.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Record", "Frozen", "FrozenError"]


class Record:
    """A value built by slot stores: like a dataclass, equal to one of its class with equal
    fields, shown as its keyword constructor call, unhashable unless a subclass says how."""

    __slots__ = ()
    #: the field names, in constructor order (set on every subclass)
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ()) if name[0] != "_"
        )

    def _fields(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other: Any) -> bool:
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes: Any) -> Any:
        """A new record of this class, built by its constructor from these fields and ``changes``
        (an unknown name is the constructor's ``TypeError``)."""
        return type(self)(**dict(zip(self.__match_args__, self._fields()), **changes))


class FrozenError(AttributeError):
    """Raised on assigning to, or deleting, a field of a :class:`Frozen` record."""


def _restore(cls: type[Frozen], fields: tuple[Any, ...]) -> Frozen:
    """A frozen record rebuilt from its fields without re-running its constructor (unpickling)."""
    record = cls.__new__(cls)
    record._init(*fields)
    return record


class Frozen(Record):
    """An immutable :class:`Record`, hashed like the tuple of its fields.  Its constructor
    stores the fields with :meth:`_init` (or each with ``object.__setattr__``)."""

    __slots__ = ()

    def _init(self, *values: Any) -> None:
        """Store the fields, ``values`` in constructor order."""
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, *value: Any) -> None:
        raise FrozenError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[Any, ...]:
        return _restore, (type(self), self._fields())
