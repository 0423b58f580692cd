"""Exception types shared across the library, its input checks, its one
budget type and ``Value``, the base of its four value classes."""

import sys
from functools import wraps
from operator import attrgetter


class MonordError(Exception):
    """Base class for library errors."""


class DataError(MonordError, ValueError):
    """Invalid input data (bad syntax, failed preconditions, invalid values).

    Also a ValueError, so callers that catch ValueError keep working.
    """


class ParseError(DataError):
    """Syntax error in a textual input.

    Carries the position (line, column) when known.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}"
            if column is not None:
                where += f", column {column}"
        super().__init__(message + where)


class DimensionMismatch(DataError):
    """Operands live in different ambient dimensions."""


class BudgetExceeded(MonordError):
    """A computation ran out of its Budget.  One budget type serves both
    places that need one: the chain bounds count loop steps, bytes of the
    values they build, bound values read and the size of each h_m value, and
    ``monord hilbert`` counts the bytes of the H and h lists it prints."""

    def __init__(self, message, spent=None):
        self.spent = spent
        super().__init__(message)


def natural(x, what, least=0):
    """x, when it is an int (bools are not) of at least ``least``; else a
    DataError that names ``what``.  Every natural-number argument of the
    public calls passes through here, so the kernels behind them need no
    checks of their own."""
    if type(x) is int and x >= least:
        return x
    need = "a natural number" + (f" >= {least}" if least else "")
    if type(x) is not int:
        raise DataError(f"{what} {x!r} is not an integer, so not {need}")
    raise DataError(f"{what} {x} is not {need}")


# The largest ambient dimension accepted: a point holds dim coordinates, so
# an ideal file's header would otherwise set what its first point allocates.
MAX_DIM = 1000


def check_dim(dim):
    """dim, when it is an int (not a bool) in 1..MAX_DIM; else a DataError."""
    if natural(dim, "dimension", 1) > MAX_DIM:
        raise DataError(f"dimension {dim} is above the cap of {MAX_DIM}")
    return dim


def is_a(x, cls):
    """Whether x is a cls: of that very class, or of the class of the same
    module and name in a copy of monord imported afresh."""
    t = type(x)
    return t is cls or (t.__module__ == cls.__module__
                        and t.__qualname__ == cls.__qualname__)


def listed(x, what):
    """x as a list, or a DataError that names ``what`` if x is not iterable."""
    try:
        return list(x)
    except TypeError:
        raise DataError(f"{what} {x!r} is not a sequence") from None


def digit_limited(write):
    """write, a function that writes ints in decimal, raising a DataError
    in place of the bare ValueError that Python raises for an int with more
    digits than its int-string limit allows (the CLI lifts the limit)."""

    @wraps(write)
    def checked(*args):
        try:
            return write(*args)
        except DataError:
            raise
        except ValueError:  # past Python's int-string digit limit
            raise DataError(
                f"an integer in this value has more than "
                f"{sys.get_int_max_str_digits()} digits, Python's int-string "
                f"limit; sys.set_int_max_str_digits raises it") from None
    return checked


def _builder(cls, names):
    """``cls._of`` for a Value subclass cls with these field names, one or
    two: cls._of(*fields) is the value with these fields, already known to
    pass the checks of cls's constructor, built without running them
    again.  It is a closure over cls, its names and ``object.__setattr__``,
    made once, so a build looks nothing up and loops over nothing."""
    new, put = object.__new__, object.__setattr__
    first, *rest = names
    if not rest:
        def of(field):
            v = new(cls)
            put(v, first, field)
            return v
        return of
    second, = rest  # no value class has more than two fields

    def of(a, b):
        v = new(cls)
        put(v, first, a)
        put(v, second, b)
        return v
    return of


class Value:
    """The base of monord's value classes: ``class C(Value, fields=...)``
    acts as a frozen dataclass over the named fields.  Writes and deletes
    raise AttributeError, so constructors set fields through ``_set``;
    ==, hash and repr read the fields, and pickles and copies load through
    C's checked constructor.  ``_of`` builds a value past those checks, and
    ``_derived`` keeps data worked out from it in a store that none of the
    above reads."""

    __slots__ = ()
    _set = object.__setattr__  # constructors' way past __setattr__
    _kept = None  # until an instance keeps derived data (_derived)
    _of = None  # C._of(*fields), made for each subclass C by _builder

    def __init_subclass__(cls, fields):
        # one getter: the bare field for one field, else their tuple
        cls._field_names, cls._key = fields, attrgetter(*fields)
        cls._of = staticmethod(_builder(cls, fields))

    def _derived(self, key, compute):
        """compute(self, key), worked out on the first request for key and
        kept in the instance's own ``_kept`` dict, which that request sets
        (Value's is None, so a miss raises nothing).  An Ord, with no
        instance ``__dict__``, keeps nothing."""
        kept = self._kept
        if kept is None:
            kept = {}
            self._set("_kept", kept)
        elif key in kept:
            return kept[key]
        value = kept[key] = compute(self, key)
        return value

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    @digit_limited
    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}"
                           for n in self._field_names)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._field_names)


class Budget:
    """A limit of ``limit`` units, ``default`` when limit is None, and the
    units spent against it so far."""

    def __init__(self, limit, default):
        self.limit = default if limit is None else natural(limit, "budget")
        self.spent = 0

    def charge(self, units):
        """Spend ``units``, or raise BudgetExceeded, spending none, when
        they do not fit."""
        if self.spent + units > self.limit:
            raise BudgetExceeded(
                f"budget of {self.limit} units exhausted: {self.spent} spent, "
                f"{units} more asked (raise it with budget= or --budget)",
                spent=self.spent)
        self.spent += units
