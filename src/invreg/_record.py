"""Frozen records: the immutable value types of invreg.

A record type subclasses :class:`Record` and lists its fields as class
annotations, in order, each with an optional default, its class attribute.
The constructor takes the fields positionally or by keyword, fills in the
defaults and then calls ``__post_init__``, which may validate the values
and normalize them with ``object.__setattr__``.  A record cannot be changed
after that.  Records compare equal when they are of the same type and their
fields are equal, and hash alike; the repr lists the fields.  A record that
holds arrays or a dict neither hashes nor compares with ``==``.

The fields are read from the annotations once, when the class is created;
every method is a function of this module, shared by all record types, so
creating a record type generates and compiles no code.
"""

from __future__ import annotations

__all__ = ["Record"]

_MISSING = object()


class Record:
    """Base of the frozen record types; see the module docstring."""

    # field names, in order, and the default of each field that has one
    _init: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._init = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {name: cls.__dict__[name] for name in cls._init if name in cls.__dict__}

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
            value = given.get(name, cls._defaults.get(name, _MISSING))
            if value is _MISSING:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._init)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._init)
        return f"{type(self).__qualname__}({fields})"
