"""Frozen records: the immutable value types of invreg.

A record type subclasses :class:`Record` and lists its fields as class
annotations, in order, each with an optional default.  The constructor
takes the fields positionally or by keyword, fills in the defaults and then
calls ``__post_init__``, which may validate the values and normalize them
with ``object.__setattr__``.  A record cannot be changed after that.
Records compare equal when they are of the same type and their compared
fields are equal, and hash alike; the repr lists the fields.

The fields are read from the annotations once, when the class is created;
every method is a function of this module, shared by all record types, so
creating a record type generates and compiles no code.  An annotated name
that the class binds to a property is a computed field: the constructor
does not take it, and the repr and comparisons read the property.
"""

from __future__ import annotations

__all__ = ["Record", "Field"]

_MISSING = object()


class Field:
    """The default of a field made by calling ``default_factory`` for each
    record; ``compare=False`` leaves the field out of equality and hashing."""

    def __init__(self, *, default_factory, compare: bool = True) -> None:
        self.default_factory, self.compare = default_factory, compare


class Record:
    """Base of the frozen record types; see the module docstring."""

    # field names taken by the constructor, shown in the repr and compared
    _init: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    # default of each field that has one: a value or a Field
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", {}))
        attrs = {name: cls.__dict__.get(name, _MISSING) for name in names}
        cls._shown = names
        cls._init = tuple(name for name in names if not isinstance(attrs[name], property))
        uncompared = {name for name, attr in attrs.items() if isinstance(attr, Field) and not attr.compare}
        cls._compared = tuple(name for name in names if name not in uncompared)
        cls._defaults = {name: attrs[name] for name in cls._init if attrs[name] is not _MISSING}
        for name in cls._init:
            if isinstance(attrs[name], Field):
                delattr(cls, name)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._init
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in given:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            given[name] = value
        # set in field order, as the instances of a type share one key table
        for name in names:
            value = given.get(name, _MISSING)
            if value is _MISSING:
                value = cls._defaults.get(name, _MISSING)
                if value is _MISSING:
                    raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
                if isinstance(value, Field):
                    value = value.default_factory()
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _compared_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared_values() == other._compared_values()

    def __hash__(self) -> int:
        return hash(self._compared_values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"
