"""Bit-level integer arithmetic underlying the Stirling valuation formulas.

Everything here is exact and pure: 2-adic valuations, binary digit sums,
and the closed-form digit identities (Legendre, Kummer, the J-set
cardinality, the top-run statistic theta, and the delta correction term of
the difference-valuation formula).

All inputs are machine-scale integers; arbitrary-precision Stirling values
live in :mod:`stirling2adic.engine`.  The functions the predictors use (s2,
nu2_int, ceil_log2, is_power_of_two, theta, delta_conjecture and select)
take a Python int or a numpy column of integers alike, and give an int or a
column of the same shape.  They are written with operators that numpy and
int share (&, >>, +, comparisons) over two primitives that dispatch on the
type, bit_length and s2: an int body, a whole-array body for int64 columns,
and one entry at a time for any other column, such as object arrays of
Python integers past int64.  A domain check on a column fails if any entry
fails it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceCapError

__all__ = [
    "FINITE",
    "AT_LEAST",
    "INFINITE",
    "Valuation",
    "nu2",
    "nu2_int",
    "s2",
    "bit_length",
    "ceil_log2",
    "is_power_of_two",
    "select",
    "holds",
    "legendre_factorial_val",
    "kummer_binomial_val",
    "s2_scaled_difference",
    "count_J",
    "brute_force_J",
    "mersenne_power_val",
    "theta",
    "delta_conjecture",
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


# ---------------------------------------------------------------------------
# on ints and on columns


def holds(cond) -> bool:
    """Whether cond holds: a bool, or every entry of a boolean column."""
    return cond if isinstance(cond, bool) else bool(cond.all())


def _require(cond, message: str) -> None:
    if cond is not True and not holds(cond):
        raise DomainError(message)


def select(cond, yes, no):
    """yes where cond holds, else no: on a bool, or entry for entry (numpy.where).

    Both yes and no are evaluated, so each must be defined wherever it is not chosen.
    """
    if isinstance(cond, bool):
        return yes if cond else no
    return np.where(cond, yes, no)


def _per_entry(x: np.ndarray, fn) -> np.ndarray:
    """fn of each entry of a column that is not int64, as exact Python integers."""
    values = [fn(v) for v in x.ravel().tolist()]
    return np.array(values, dtype=object).reshape(x.shape)


def bit_length(x):
    """int.bit_length of x, or of each entry of a column.

    An int64 column takes the exponent numpy.frexp gives, exact below 2**53,
    and by binary search above that; its entries must be naturals below 2**63.
    """
    if isinstance(x, int):
        return x.bit_length()
    x = np.asarray(x)
    if x.dtype != np.int64:
        return _per_entry(x, int.bit_length)
    if not x.size or x.max() < 1 << 53:
        return np.frexp(x)[1].astype(np.int64)
    out = np.zeros(x.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        high = x >> shift != 0
        out += high * shift
        x = np.where(high, x >> shift, x)
    return out + (x != 0)


_BYTE_S2 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def s2(x):
    """Number of ones in the binary expansion of a natural number, or of each
    entry of a column: an int64 column sums a byte table over its 8 bytes
    (numpy.bitwise_count needs numpy 2)."""
    _require(x >= 0, "s2 needs x >= 0")
    if isinstance(x, int):
        return x.bit_count()
    x = np.asarray(x)
    if x.dtype != np.int64:
        return _per_entry(x, int.bit_count)
    octets = np.ascontiguousarray(x).reshape(-1).view(np.uint8).reshape(x.shape + (8,))
    return _BYTE_S2[octets].sum(axis=-1, dtype=np.int64)


def nu2_int(x):
    """2-adic order of a nonzero integer (sign ignored), or of each entry of a column."""
    _require(x != 0, "nu2_int is undefined at 0; use nu2")
    return bit_length(x & -x) - 1


def nu2(x: int) -> Valuation:
    """2-adic valuation of any integer; 0 maps to the infinite valuation."""
    if x == 0:
        return Valuation.infinite()
    return Valuation.finite(nu2_int(x))


def is_power_of_two(x):
    """Whether x is a power of two, or which entries of a column are."""
    return (x >= 1) & ((x & (x - 1)) == 0)


def ceil_log2(x):
    """Exact ceil(log2(x)) for x >= 1: the bit length of x - 1."""
    _require(x >= 1, "ceil_log2 needs x >= 1")
    return bit_length(x - 1)


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


def theta(k):
    """Length of the maximal run of consecutive exponents at the top of k.

    With k = 2**m1 + 2**m2 + ... (m1 > m2 > ...), theta(k) is the largest l
    such that m1, ..., ml are consecutive integers; equivalently the number
    of leading one-bits of k: the bit length of k less that of its
    complement within that length, whose top bit is the first zero below
    the top run.
    """
    _require(k >= 1, "theta needs k >= 1")
    length = bit_length(k)
    return length - bit_length(((1 << length) - 1) ^ k)


def delta_conjecture(k):
    """Correction term of the difference drop f(k).

    2 at k=4; 1 at powers of two above 4 and at powers of two minus one;
    otherwise 0.
    """
    _require(k >= 3, "need k >= 3")
    return select(k == 4, 2, select(is_power_of_two(k) | is_power_of_two(k + 1), 1, 0))
