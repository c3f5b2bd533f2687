"""Working units and the trapezoid rule: what states and densities both
need, kept apart so that a density command loads no state machinery.

Also _Record, the base of every record the package defines (units, grids,
states, recipes, reports, rows): a frozen record in the manner of
@dataclass(frozen=True), whose methods are written once here.  That
decorator writes the source of each class's __init__, __repr__, __eq__,
__hash__, __setattr__ and __delattr__ and runs exec on it when the module
is imported, in every process, which cost each fresh command 2.7-6.8 ms of
its start (2 vCPUs, Python 3.11); no bytecode cache keeps that work.

A record's fields are its own class annotations, in order, read when the
class is made: Python 3.10 and later give a class only its own
annotations, and the package's modules import annotations from
__future__, so the annotations are strings and nothing in them is
evaluated.  Checked on Python 3.11 only.  Python 3.14 defers annotations
(PEP 649 and PEP 749), and the base is not checked there.
"""

from __future__ import annotations

import math

from .errors import require_positive

TWO_PI = 2.0 * math.pi


class _Record:
    """A frozen record, as @dataclass(frozen=True) makes one.

    _fields is the class's field names, its annotations in order; a field
    given a value in the class body has it as its default.  Construction
    binds positional and keyword arguments as a function of the fields
    would, stores the values in the instance's __dict__ in field order (so
    vars(record) lists them so), then calls __post_init__ when the class
    defines one, looked up at each call.  Assigning or deleting an attribute
    raises AttributeError; a __post_init__ that normalizes a field writes it
    into vars(self).  ==, hash and repr are the dataclass's: equal when of
    the same class with equal field tuples, the hash of that tuple, and
    Class(field=value!r, ...).  Pickling keeps the __dict__.
    """

    _fields: tuple = ()
    _defaults: dict = {}
    __post_init__ = None

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # a value for each field, by position, needs no binding
            args = self._bound(args, kwargs)
        values = self.__dict__
        for i, name in enumerate(fields):  # faster than zip's pairs on Python 3.11
            values[name] = args[i]
        if self.__post_init__ is not None:
            self.__post_init__()

    @classmethod
    def _bound(cls, args, kwargs) -> tuple:
        """The field values, in order, that args and kwargs give, with the
        defaults; TypeError for too many, unknown, repeated or missing ones."""
        fields, given = cls._fields, dict(zip(cls._fields, args))
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional arguments but {len(args)} were given")
        for name in kwargs:
            if name in given or name not in fields:
                how = "multiple values for" if name in given else "an unexpected keyword"
                raise TypeError(f"{cls.__qualname__}() got {how} argument {name!r}")
        given.update(kwargs)
        missing = [name for name in fields if name not in given and name not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(map(repr, missing))}")
        return tuple(given[name] if name in given else cls._defaults[name] for name in fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class UnitSystem(_Record):
    """Working units, fixed by the Planck constant h (default h = 2*pi, i.e. hbar = 1)."""

    h: float = TWO_PI

    def __post_init__(self):
        require_positive("Planck constant", self.h)

    @property
    def hbar(self) -> float:
        return self.h / TWO_PI

    @property
    def bound(self) -> float:
        """Lower bound h/(4*pi) on the product of position and momentum spreads."""
        return self.h / (4.0 * math.pi)


def _trapz(y, dx: float) -> float:
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))
