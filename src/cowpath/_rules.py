"""The input contract: the one rule that reads each kind of argument (an
integer, a real, the admission of a member record) and the limits it checks.
It imports only the standard library and holds no record type, so `cowpath
--help` and usage errors load nothing else of the package."""

import math
import operator
import sys

DEFAULT_HORIZON = 64


class HorizonTooShort(Exception):
    """A required target lies beyond every candidate's finite segment prefix."""


def _integer(value: object, name: str, lo: int, hi: float = math.inf) -> int:
    """The one rule that reads an integer argument: an int, a numpy integer
    or an integral float in [lo, hi], returned as an int.  A bool, a string,
    None, a fraction, nan or inf is refused.  A value out of range is quoted
    as given."""
    number = value
    if type(value) is not int:  # the fast path: each k-bit hint reads two ints
        try:
            if isinstance(value, bool):
                raise TypeError
            integral = isinstance(value, float) and value.is_integer()  # not nan
            number = int(value) if integral else operator.index(value)  # numpy too
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if lo <= number <= hi:
        return number
    # a float by its repr less any '.0': int(1e300) would print 301 digits
    got = repr(float(value) if isinstance(value, float) else number)
    got = got.removesuffix(".0")
    if number < lo:
        raise ValueError(f"{name} must be >= {lo}, got {got}")
    raise ValueError(f"{name} must be <= {hi}, got {got}")


# The default upper bound of _real: the largest float, so that the range
# test alone refuses inf (and nan, which fails every comparison).
_MAX_REAL = sys.float_info.max


def _real(
    value: object,
    name: str,
    lo: float,
    hi: float = _MAX_REAL,
    open_lo: bool = False,
    reason: str = "",
) -> float:
    """The one rule that reads a real argument: an int, a float or a numpy
    real, finite and in [lo, hi] ((lo, hi] when ``open_lo``; ``hi`` is
    finite), returned as a float.  A bool (numpy's too), a string, bytes or
    None is refused before float() could read it as a number.  A value out
    of range is quoted as given, followed by ``reason``."""
    number = value
    if type(value) is not float:  # the fast path: each position hint reads one
        try:
            # numpy's bool is no subclass of bool; both types are named bool
            if type(value).__name__ in ("bool", "bool_") or isinstance(
                value, (str, bytes, bytearray)
            ):
                raise TypeError
            number = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a number, got {value!r}") from None
        except OverflowError:  # an int past the float range
            number = math.inf
    if (lo < number if open_lo else lo <= number) and number <= hi:
        return number
    got = repr(value if type(value) in (int, float) else number)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {got}")
    if hi < _MAX_REAL:
        span = f"in {'(' if open_lo else '['}{lo:g}, {hi:g}]"
    else:
        span = f"{'>' if open_lo else '>='} {lo:g}"
    raise ValueError(f"{name} must be {span}{reason}, got {got}")


# Bound on rows x horizon, the segments the batched kernels stack (about 220
# bytes each at peak, so about 230 MB at the bound), and so on the horizon.
_MAX_SEGMENTS = 2**20

# ln of the largest float, less a relative 1e-9 that covers the rounding of
# the lengths and of their running sums: a walk below it stays finite.
_LOG_MAX_WALK = math.log(sys.float_info.max) - 1e-9


def _admit(
    rows: int,
    horizon: int,
    first: float,
    base: float,
    params: str,
    name: str = "horizon",
) -> int:
    """The one admission rule of a record of ``rows`` members of ``horizon``
    segments, each length at most first * base**i (base > 1), checked in
    order before any array: 1 <= horizon <= _MAX_SEGMENTS; the walk
    2 * (sum of lengths), which bounds every cost and ratio, is finite; rows x
    horizon <= _MAX_SEGMENTS.  Errors quote ``params`` and the horizon as
    ``name``.  Returns the horizon as an int."""
    horizon = _integer(horizon, name, 1, _MAX_SEGMENTS)
    # ln of 2 * first * base**(horizon - 1) * (1 + 1/base + .. + 1/base**(horizon - 1))
    step = math.log(base)
    tail = math.expm1(-horizon * step) / math.expm1(-step)  # in [1, horizon]
    log_walk = math.log(2.0 * first) + (horizon - 1) * step + math.log(tail)
    if log_walk > _LOG_MAX_WALK:
        raise ValueError(
            f"{params} with {name}={horizon} overflows the float range: the walk "
            f"2 * (sum of lengths) reaches about 10**{log_walk / math.log(10):.1f}"
        )
    if rows * horizon > _MAX_SEGMENTS:
        # quoted as the walk is: 2**511 members would print 154 digits
        count = rows if rows < 10**15 else f"about 10**{math.log10(rows):.1f}"
        raise ValueError(
            f"{params} with {name}={horizon} needs {count} members x {horizon} "
            f"segments, over the limit of {_MAX_SEGMENTS} segments"
        )
    return horizon


def _direction_params(b: float, delta: float) -> tuple[float, float]:
    """Checked floats b > 1 and delta in (0, 1]."""
    b = _real(b, "b", 1.0, open_lo=True)
    return b, _real(delta, "delta", 0.0, 1.0, open_lo=True)


_MAX_K = 511  # largest k with (1 + 2**k)**2 a finite float
