"""Bit-level integer arithmetic underlying the Stirling valuation formulas.

Everything here is exact and pure: 2-adic valuations, binary digit sums,
and the closed-form digit identities (Legendre, Kummer, carry-free digit
additivity, the J-set cardinality, the top-run statistic theta, and the
delta correction term of the difference-valuation formula).

All inputs are machine-scale integers; arbitrary-precision Stirling values
live in :mod:`stirling2adic.engine`.  The column forms (``s2_column`` and
the like) apply a scalar function to every entry of a numpy array, for the
sweeps' blocks of cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ResourceCapError

__all__ = [
    "FINITE",
    "AT_LEAST",
    "INFINITE",
    "Valuation",
    "BinaryProfile",
    "nu2",
    "nu2_int",
    "s2",
    "ceil_log2",
    "is_power_of_two",
    "legendre_factorial_val",
    "kummer_binomial_val",
    "digit_additive",
    "s2_scaled_difference",
    "count_J",
    "brute_force_J",
    "mersenne_power_val",
    "theta",
    "delta_conjecture",
    "s2_column",
    "nu2_column",
    "ceil_log2_column",
    "theta_column",
]

FINITE = "finite"
AT_LEAST = "at-least"
INFINITE = "infinite"

DEFAULT_ENUMERATION_CAP = 1 << 20


@dataclass(frozen=True)
class Valuation:
    """A possibly-unbounded 2-adic order.

    ``finite(v)``    the integer is exactly divisible by 2**v;
    ``at_least(m)``  a truncated computation could only certify order >= m;
    ``infinite()``   the integer is exactly zero.

    Orders of integers are never negative, but derived quantities (such as
    the slack of a congruence check, a difference of orders) reuse this type
    and may carry a negative finite value.
    """

    kind: str
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind == FINITE:
            if self.value is None:
                raise DomainError("finite valuation needs a value")
        elif self.kind == AT_LEAST:
            if self.value is None or self.value < 1:
                raise DomainError(f"at-least valuation needs bound >= 1, got {self.value}")
        elif self.kind == INFINITE:
            if self.value is not None:
                raise DomainError("infinite valuation carries no value")
        else:
            raise DomainError(f"unknown valuation kind {self.kind!r}")

    @classmethod
    def finite(cls, v: int) -> "Valuation":
        return cls(FINITE, v)

    @classmethod
    def at_least(cls, bound: int) -> "Valuation":
        return cls(AT_LEAST, bound)

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(INFINITE)

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == INFINITE

    def exact(self) -> int:
        if self.kind != FINITE:
            raise DomainError(f"valuation {self} is not finite")
        assert self.value is not None
        return self.value

    def __str__(self) -> str:
        if self.kind == FINITE:
            return str(self.value)
        if self.kind == AT_LEAST:
            return f">={self.value}"
        return "inf"


def nu2_int(x: int) -> int:
    """2-adic order of a nonzero integer (sign ignored)."""
    if x == 0:
        raise DomainError("nu2_int is undefined at 0; use nu2")
    x = abs(x)
    return (x & -x).bit_length() - 1


def nu2(x: int) -> Valuation:
    """2-adic valuation of any integer; 0 maps to the infinite valuation."""
    if x == 0:
        return Valuation.infinite()
    return Valuation.finite(nu2_int(x))


def s2(x: int) -> int:
    """Number of ones in the binary expansion of a natural number."""
    if x < 0:
        raise DomainError(f"s2 needs x >= 0, got {x}")
    return x.bit_count()


def is_power_of_two(x: int) -> bool:
    return x >= 1 and (x & (x - 1)) == 0


def ceil_log2(x: int) -> int:
    """Exact ceil(log2(x)) for x >= 1, by bit length only."""
    if x < 1:
        raise DomainError(f"ceil_log2 needs x >= 1, got {x}")
    return x.bit_length() - 1 if is_power_of_two(x) else x.bit_length()


def legendre_factorial_val(n: int) -> int:
    """nu2(n!) in closed form: n - s2(n)."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return n - s2(n)


def kummer_binomial_val(n: int, k: int) -> int:
    """nu2(C(n, k)) in closed form: s2(k) + s2(n-k) - s2(n).

    Equals the number of carries when adding k and n-k in base 2,
    so it is always nonnegative.
    """
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    return s2(k) + s2(n - k) - s2(n)


def digit_additive(m: int, n: int) -> bool:
    """True iff s2(m+n) = s2(m) + s2(n), i.e. the addition is carry-free."""
    if m < 0 or n < 0:
        raise DomainError("digit_additive needs nonnegative arguments")
    return (m & n) == 0


def s2_scaled_difference(c: int, n: int, a: int) -> int:
    """s2(c*2**n - a) in closed form for odd c and 1 <= a <= 2**n."""
    if c < 1 or c % 2 == 0:
        raise DomainError(f"need odd c >= 1, got {c}")
    if n < 0 or not 1 <= a <= (1 << n):
        raise DomainError(f"need 1 <= a <= 2**n, got n={n}, a={a}")
    return s2(c) + n - nu2_int(a) - s2(a)


def count_J(n: int, a: int) -> int:
    """Cardinality of J = {1 <= j <= 2**n : s2(2**(n+1)+a-j) + s2(j) = s2(2**(n+1)+a)}.

    Closed form: 2**s2(a) - 1 when a <= 2**n, else 2**(s2(a)-1).
    """
    if n < 0 or not 1 <= a < (1 << (n + 1)):
        raise DomainError(f"need 1 <= a < 2**(n+1), got n={n}, a={a}")
    if a <= (1 << n):
        return (1 << s2(a)) - 1
    return 1 << (s2(a) - 1)


def brute_force_J(n: int, a: int, cap: int = DEFAULT_ENUMERATION_CAP) -> set[int]:
    """The literal set J by enumeration of j = 1..2**n (oracle for count_J)."""
    if n < 0 or not 1 <= a < (1 << (n + 1)):
        raise DomainError(f"need 1 <= a < 2**(n+1), got n={n}, a={a}")
    if (1 << n) > cap:
        raise ResourceCapError(f"2**{n} exceeds enumeration cap {cap}")
    total = (1 << (n + 1)) + a
    target = s2(total)
    # total - j >= 2**n + a and j >= 1: both positive, so s2 is bit_count
    return {j for j in range(1, (1 << n) + 1) if (total - j).bit_count() + j.bit_count() == target}


def mersenne_power_val(r: int, n: int, t: int, m: int) -> int:
    """nu2((r*2**n - 1)**(t*2**m) - 1) in closed form: m + n.

    Needs r, t odd, n >= 2, m >= 1.
    """
    if r < 1 or r % 2 == 0:
        raise DomainError(f"need odd r >= 1, got {r}")
    if t < 1 or t % 2 == 0:
        raise DomainError(f"need odd t >= 1, got {t}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    return m + n


def theta(k: int) -> int:
    """Length of the maximal run of consecutive exponents at the top of k.

    With k = 2**m1 + 2**m2 + ... (m1 > m2 > ...), theta(k) is the largest l
    such that m1, ..., ml are consecutive integers; equivalently the number
    of leading one-bits of k.
    """
    if k < 1:
        raise DomainError(f"theta needs k >= 1, got {k}")
    run = 0
    i = k.bit_length() - 1
    while i >= 0 and (k >> i) & 1:
        run += 1
        i -= 1
    return run


def delta_conjecture(k: int) -> int:
    """Correction term of the difference drop f(k).

    2 at k=4; 1 at powers of two above 4 and at powers of two minus one;
    otherwise 0.
    """
    if k < 3:
        raise DomainError(f"need k >= 3, got {k}")
    if k == 4:
        return 2
    if is_power_of_two(k) or is_power_of_two(k + 1):
        return 1
    return 0


# ---------------------------------------------------------------------------
# column forms
#
# Each takes an array of integers (or anything numpy.asarray takes) and gives
# an int64 array of the same shape, entry for entry what the scalar form
# gives, with the same DomainError on an entry outside its domain.  int64
# arrays are computed by whole-array operations; any other dtype, such as
# object arrays of Python integers past int64, goes through the scalar form
# one entry at a time.

_BYTE_S2 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _column_form(scalar: Callable[[int], int]) -> Callable:
    """Decorator: the vectorised int64 body, with scalar for every other dtype."""

    def decorate(body: Callable[[np.ndarray], np.ndarray]) -> Callable[[object], np.ndarray]:
        @functools.wraps(body)
        def column(x: object) -> np.ndarray:
            x = np.asarray(x)
            if x.dtype != np.int64:
                values = [scalar(v) for v in x.ravel().tolist()]
                return np.array(values, dtype=np.int64).reshape(x.shape)
            return body(x)

        return column

    return decorate


def _at_least(x: np.ndarray, low: int, name: str) -> None:
    if x.size and x.min() < low:
        raise DomainError(f"{name} needs x >= {low}, got {x.min()}")


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of an int64 array of naturals: the exponent
    numpy.frexp gives, exact below 2**53, and above that by binary search."""
    if not x.size or x.max() < 1 << 53:
        return np.frexp(x)[1].astype(np.int64)
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = x >> shift != 0
        out += high * shift
        x = np.where(high, x >> shift, x)
    return out + (x != 0)


@_column_form(s2)
def s2_column(x: np.ndarray) -> np.ndarray:
    """s2 of each entry, as the sum of a byte table over its 8 bytes
    (numpy.bitwise_count needs numpy 2)."""
    _at_least(x, 0, "s2")
    octets = np.ascontiguousarray(x).view(np.uint8).reshape(x.shape + (8,))
    return _BYTE_S2[octets].sum(axis=-1, dtype=np.int64)


@_column_form(nu2_int)
def nu2_column(x: np.ndarray) -> np.ndarray:
    """nu2 of each nonzero entry (sign ignored), from its lowest set bit x & -x."""
    if (x == 0).any():
        raise DomainError("nu2_int is undefined at 0; use nu2")
    return _bit_lengths(x & -x) - 1


@_column_form(ceil_log2)
def ceil_log2_column(x: np.ndarray) -> np.ndarray:
    """ceil(log2(x)) of each entry x >= 1: the bit length of x - 1."""
    _at_least(x, 1, "ceil_log2")
    return _bit_lengths(x - 1)


@_column_form(theta)
def theta_column(x: np.ndarray) -> np.ndarray:
    """theta of each entry x >= 1: its bit length less that of its complement
    within that length, whose top bit is the first zero below the top run."""
    _at_least(x, 1, "theta")
    length = _bit_lengths(x)
    return length - _bit_lengths(((1 << length) - 1) ^ x)


@dataclass(frozen=True)
class BinaryProfile:
    """Binary expansion data of a positive integer.

    ``digits`` is indexed from bit 0; ``exponents`` lists the positions of
    one-bits in strictly decreasing order, so value = sum(2**e for e in
    exponents) and s2 = len(exponents).
    """

    value: int
    digits: tuple[int, ...]
    s2: int
    nu2: Valuation
    exponents: tuple[int, ...]
    theta: int
    ceil_log2: int

    @classmethod
    def of(cls, value: int) -> "BinaryProfile":
        if value < 1:
            raise DomainError(f"BinaryProfile needs value >= 1, got {value}")
        bits = tuple((value >> i) & 1 for i in range(value.bit_length()))
        exps = tuple(i for i in range(value.bit_length() - 1, -1, -1) if (value >> i) & 1)
        return cls(
            value=value,
            digits=bits,
            s2=s2(value),
            nu2=nu2(value),
            exponents=exps,
            theta=theta(value),
            ceil_log2=ceil_log2(value),
        )
