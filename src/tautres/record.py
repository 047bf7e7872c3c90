"""Frozen records: the part of frozen dataclasses this package uses.

``dataclasses`` imports ``inspect`` and generates each class's methods
with ``exec``, which costs more than the rest of ``import tautres.cli``.
A :class:`Record` subclass declares its fields the same way, as class
annotations with optional defaults, and gets generic methods instead.
"""

from __future__ import annotations


class Record:
    """Base of the package's immutable value types.

    The fields are the annotated names of the class and of its Record
    bases, in order; a class attribute of the same name is the field's
    default.  Construction takes the fields positionally or by keyword,
    then runs ``__post_init__`` when the class has one.  Assignment and
    deletion raise AttributeError.  Instances of the same class are equal
    when their fields are, and hash by their fields; a method the class
    defines itself (``__eq__``, ``__repr__``, ``__hash__ = None``) wins.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [n for n in cls.__dict__.get("__annotations__", {}) if n not in cls._fields]
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields, got %d" % (type(self).__name__, len(fields), len(args)))
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError("%s got an unknown or repeated field %r" % (type(self).__name__, name))
            values[name] = value
        if len(values) < len(fields):
            missing = [n for n in fields if n not in values and n not in self._defaults]
            if missing:
                raise TypeError("%s is missing fields %s" % (type(self).__name__, ", ".join(missing)))
        self.__dict__.update(values)
        post = getattr(self, "__post_init__", None)
        if post is not None:
            post()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign %r of a frozen record" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r of a frozen record" % name)

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join("%s=%r" % (n, getattr(self, n)) for n in self._fields)
        return "%s(%s)" % (type(self).__qualname__, body)


def replace(record: Record, **changes) -> Record:
    """A copy of record with some fields changed; ``__post_init__`` runs again."""
    values = {n: getattr(record, n) for n in record._fields}
    values.update(changes)
    return type(record)(**values)
