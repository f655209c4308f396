"""The private base of bellbox's immutable value classes.

A subclass names its fields in ``_fields`` and sets each of them once, in
its ``__init__``, with ``vars(self).update(...)`` (``vars(self)[name] = ...``
for a single field).  From then on, assigning or deleting any attribute
raises :class:`AttributeError`.  Equality, hashing and the repr go over the
named fields only, so a value that ``functools.cached_property`` keeps in
the instance ``__dict__`` never takes part.  :meth:`Value._make` is the
one way to build a value without the checks of its ``__init__``, for a
caller that has already made them.  Defining such a class costs no more
than any class statement, where a generated ``dataclasses`` class costs
about a millisecond.
"""

from operator import attrgetter


class Value:
    """An immutable value, equal to another of its class with equal fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls._fields)

    @classmethod
    def _make(cls, **fields: object):
        """A value with ``fields`` set as given and no check of ``__init__``
        made: the caller guarantees what that check would."""
        value = object.__new__(cls)
        vars(value).update(fields)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
