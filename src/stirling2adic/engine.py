"""Exact and truncated 2-adic computation of Stirling numbers of the second kind.

Two independent evaluation routes are kept deliberately separate so that one
can verify the other: the triangular recurrence

    S(n, k) = S(n-1, k-1) + k * S(n-1, k),    S(0, 0) = 1, S(n, 0) = 0 (n > 0)

iterated row by row, and the explicit alternating binomial sum

    S(n, k) = (1/k!) * sum_{i=0..k} (-1)**i * C(k, i) * (k - i)**n.

Modular rows are reduced mod 2**bits throughout.  For bits <= 64 the rows run
in numpy lanes as narrow as the precision allows: uint32 up to 32 bits, uint64
from 33 to 64 (wraparound mod 2**32 or 2**64 is exact for any smaller power of
two); above that they run on Python integers with a mask.  The numpy rows
advance by jumps of up to _MAX_JUMP steps: s steps of the recurrence are one
banded matrix, so a jump is one numpy product of a cached coefficient band
with the shifted copies of the row and one sum over the band.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .base2 import Valuation, nu2_int, s2
from .errors import DomainError, ResourceCapError

__all__ = [
    "Residue",
    "PrecisionPolicy",
    "DEFAULT_EXACT_CAP",
    "DEFAULT_ROW_CAP",
    "stirling_exact",
    "stirling_row_mod2",
    "stirling_rows_mod2",
    "stirling_mod2",
    "stirling_explicit_mod2",
    "stirling_explicit_rows_mod2",
    "valuations",
    "val_stirling",
    "val_stirling_difference",
    "check_convolution",
    "check_symmetric_identity",
]

DEFAULT_EXACT_CAP = 2000
DEFAULT_ROW_CAP = 1 << 22  # entries of each lane's jump bands; a row gets at most half
_MAX_JUMP = 16  # recurrence steps per numpy pass of the <= 64-bit row kernel
_PASCAL_CAP = 1 << 19  # entries of the explicit rows' binomial triangle: k_max <= 1022, tens of MB

Query = tuple[int, int | None, int]  # (n1, n2, k): nu2(S(n1, k)), or of S(n1, k) - S(n2, k)


@dataclass(frozen=True)
class Residue:
    """An integer residue mod 2**bits together with its precision."""

    value: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise DomainError(f"precision must be >= 1 bit, got {self.bits}")
        if not 0 <= self.value < (1 << self.bits):
            raise DomainError(f"residue {self.value} out of range for {self.bits} bits")

    def val(self) -> Valuation:
        """Valuation certified by this residue: exact if nonzero, else a bound."""
        if self.value:
            return Valuation.finite(nu2_int(self.value))
        return Valuation.at_least(self.bits)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Adaptive precision: start at initial_bits, double up to max_bits."""

    initial_bits: int = 48
    max_bits: int = 4096

    def __post_init__(self) -> None:
        if not 1 <= self.initial_bits <= self.max_bits:
            raise DomainError(
                f"need 1 <= initial_bits <= max_bits, got {self.initial_bits}, {self.max_bits}"
            )

    def ladder(self) -> Iterator[int]:
        bits = self.initial_bits
        yield bits
        while bits < self.max_bits:
            bits = min(2 * bits, self.max_bits)
            yield bits

    @classmethod
    def for_predicted(cls, predicted: int | None = None, max_bits: int = 4096) -> "PrecisionPolicy":
        """Policy sized from a predicted valuation plus 32 guard bits."""
        base = predicted if predicted is not None else 16
        return cls(initial_bits=min(max(base, 0) + 32, max_bits), max_bits=max_bits)


# ---------------------------------------------------------------------------
# row engine (recurrence route)


def _band_rows(depth: int) -> int:
    """Rows of the bands for the jumps 1, 2, 4, ..., depth together: the sum of s + 1."""
    return 2 * depth + depth.bit_length() - 1


def _jump_depth(width: int) -> int:
    """Longest jump, a power of two <= _MAX_JUMP, whose bands fit DEFAULT_ROW_CAP at this width."""
    depth = _MAX_JUMP
    while depth > 1 and _band_rows(depth) * width > DEFAULT_ROW_CAP:
        depth >>= 1
    return depth


class _JumpBands:
    """Cached coefficient bands of the row recurrence's jumps in one lane dtype, grown on demand.

    s steps of the recurrence map a row to

        row'[j] = sum_{i=0..s} h_{s-i}(j-i, ..., j) * row[j-i],

    h the complete homogeneous symmetric polynomial.  The band of the jump
    s = 2**e holds these coefficients, the one of row[j-i] at [i, j].  The
    bands are built by running the plain recurrence on the coefficients,
    snapshotting at 1, 2, 4, ... steps.  As in _ExactTable, a wider request
    at least doubles the width.  The bands together never hold more than
    DEFAULT_ROW_CAP entries, so rows too wide for the full depth get shorter
    jumps.  The bands hold the coefficients mod 2**32 or 2**64, by the lane.
    """

    def __init__(self, lane: type[np.unsignedinteger]) -> None:
        self._lane = lane
        self._width = 0
        self._bands: list[np.ndarray] = []

    def _build(self, width: int, depth: int) -> None:
        idx = np.arange(width, dtype=self._lane)
        coef = np.ones((1, width), dtype=self._lane)
        self._width, self._bands = width, []
        for s in range(1, depth + 1):
            # the coefficient of row[j-i] after s steps: that of row[(j-1)-(i-1)] plus j times that of row[j-i]
            nxt = np.zeros((s + 1, width), dtype=self._lane)
            np.multiply(coef, idx, out=nxt[:s])
            nxt[1:, 1:] += coef[:, :-1]
            coef = nxt
            if s & (s - 1) == 0:
                self._bands.append(coef)

    def get(self, width: int) -> list[np.ndarray]:
        """Bands of the jumps 2**e, e = 0, 1, ..., as deep as fits, sliced to width columns."""
        depth = _jump_depth(width)
        if width > self._width or len(self._bands) < depth.bit_length():
            # a wider request doubles the width, a deeper one (after a wide, shallow build) does not
            grown = 2 * self._width if width > self._width else width
            self._build(max(width, min(grown, DEFAULT_ROW_CAP // _band_rows(depth))), depth)
        return [band[:, :width] for band in self._bands]


_BANDS = {lane: _JumpBands(lane) for lane in (np.uint32, np.uint64)}


def _rows_numpy(want: dict[int, Sequence[int]], k_max: int, bits: int) -> dict[int, list[int]]:
    # bits <= 64: the lane's wraparound is the working modulus, masked on capture
    lane = np.uint32 if bits <= 32 else np.uint64
    mask = lane((1 << bits) - 1)
    width = k_max + 1
    bands = _BANDS[lane].get(width)
    depth = 1 << (len(bands) - 1)
    pad = np.zeros(depth + width, dtype=lane)
    row = pad[depth:]
    row[0] = 1
    windows = sliding_window_view(pad, width)  # windows[depth - i] = the row shifted right by i
    prod = np.empty((depth + 1, width), dtype=lane)
    out: dict[int, list[int]] = {}
    n = 0
    for target in sorted(want):
        while n < target:
            # the longest jump 2**e that does not pass the target
            e = min(target - n, depth).bit_length() - 1
            s = 1 << e
            np.multiply(bands[e], windows[depth - s :][::-1], out=prod[: s + 1])
            np.add.reduce(prod[: s + 1], axis=0, dtype=lane, out=row)
            n += s
        ks = want[target]
        if isinstance(ks, range):  # numpy would convert it element by element
            ks = np.arange(ks.start, ks.stop, ks.step)
        out[target] = (row[ks] & mask).tolist()
    return out


def _rows_python(want: dict[int, Sequence[int]], k_max: int, bits: int) -> dict[int, list[int]]:
    mask = (1 << bits) - 1
    row = [0] * (k_max + 1)
    row[0] = 1
    out: dict[int, list[int]] = {}
    if 0 in want:
        out[0] = [row[k] for k in want[0]]
    for step in range(1, max(want) + 1):
        for j in range(k_max, 0, -1):
            row[j] = (row[j - 1] + j * row[j]) & mask
        row[0] = 0
        if step in want:
            out[step] = [row[k] for k in want[step]]
    return out


def stirling_rows_mod2(
    ns: Iterable[int], k_max: int, bits: int, columns: Mapping[int, Sequence[int]] | None = None
) -> dict[int, list[int]]:
    """Rows S(n, 0..k_max) mod 2**bits for several n in one recurrence pass.

    Sharing the pass is exact because every requested row is an intermediate
    state of the longest one.  With columns, which must map each n to some
    k in 0..k_max, row n holds only S(n, k) for those k, in that order.  At
    bits <= 64 the pass runs in uint32 lanes up to 32 bits and in uint64
    lanes above, and it jumps: each numpy pass advances the row by the
    longest cached power of two <= _MAX_JUMP steps that does not pass the
    next requested row.  The row is capped at DEFAULT_ROW_CAP // 2 entries,
    so that even the band of a single step (two entries per row entry) fits
    the cap.
    """
    targets = sorted(set(ns))
    if not targets:
        return {}
    if targets[0] < 0:
        raise DomainError(f"need n >= 0, got {targets[0]}")
    if k_max < 0:
        raise DomainError(f"need k_max >= 0, got {k_max}")
    if bits < 1:
        raise DomainError(f"need bits >= 1, got {bits}")
    if 2 * (k_max + 1) > DEFAULT_ROW_CAP:
        raise ResourceCapError(f"row of {k_max + 1} entries exceeds cap {DEFAULT_ROW_CAP // 2}")
    if columns is None:
        want = {n: range(k_max + 1) for n in targets}
    else:
        missing = [n for n in targets if n not in columns]
        if missing:
            raise DomainError(f"no columns given for rows {missing}")
        want = {n: columns[n] for n in targets}
        for n, ks in want.items():
            if len(ks) and not 0 <= min(ks) <= max(ks) <= k_max:
                bad = next(k for k in ks if not 0 <= k <= k_max)
                raise DomainError(f"column {bad} of row {n} is outside 0..{k_max}")
    if bits <= 64:
        return _rows_numpy(want, k_max, bits)
    return _rows_python(want, k_max, bits)


def stirling_row_mod2(n: int, k_max: int, bits: int) -> list[int]:
    """Row S(n, 0..k_max) mod 2**bits."""
    return stirling_rows_mod2((n,), k_max, bits)[n]


def stirling_mod2(n: int, k: int, bits: int) -> Residue:
    """S(n, k) mod 2**bits via the row recurrence; k > n yields 0."""
    if n < 0 or k < 0:
        raise DomainError(f"need n, k >= 0, got n={n}, k={k}")
    if k > n:
        return Residue(0, bits)
    return Residue(stirling_row_mod2(n, k, bits)[k], bits)


# ---------------------------------------------------------------------------
# exact engine

class _ExactTable:
    """Cached triangle of exact rows, grown on demand.

    Rows are stored at a shared width; widening rebuilds the triangle (the
    truncated entries cannot be recovered incrementally), extending in n
    appends rows.
    """

    def __init__(self) -> None:
        self._rows: list[list[int]] = [[1]]
        self._width = 0

    def _next_row(self, prev: list[int]) -> list[int]:
        w = self._width
        row = [0] * (w + 1)
        for j in range(1, w + 1):
            row[j] = prev[j - 1] + j * prev[j]
        return row

    def ensure(self, n: int, k: int) -> None:
        if k > self._width:
            self._width = max(k, 2 * self._width)
            height = len(self._rows)
            rows = [[1] + [0] * self._width]
            self._rows = rows
            for _ in range(1, height):
                rows.append(self._next_row(rows[-1]))
        while len(self._rows) <= n:
            self._rows.append(self._next_row(self._rows[-1]))

    def value(self, n: int, k: int) -> int:
        self.ensure(n, k)
        return self._rows[n][k]


_EXACT = _ExactTable()


def stirling_exact(n: int, k: int, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact S(n, k) as a Python integer; 0 for k > n.

    Capped at n <= cap (entries grow like n*log2(k) bits).
    """
    if n < 0 or k < 0:
        raise DomainError(f"need n, k >= 0, got n={n}, k={k}")
    if n > cap:
        raise ResourceCapError(f"exact engine capped at n <= {cap}, got {n}")
    if k > n:
        return 0
    return _EXACT.value(n, k)


# ---------------------------------------------------------------------------
# explicit-formula engine (independent route)


def _signed_powers(n: int, k_max: int, bits: int) -> tuple[list[int], int]:
    """Working modulus mod = 2**(bits + nu2(k_max!)) and (-1)**j j**n mod `mod`, j <= k_max.

    The modulus keeps enough bits for the exact division by k! at every
    k <= k_max.
    """
    if n < 0 or k_max < 0:
        raise DomainError(f"need n, k >= 0, got n={n}, k={k_max}")
    if bits < 1:
        raise DomainError(f"need bits >= 1, got {bits}")
    mod = 1 << (bits + k_max - s2(k_max))
    return [-pow(j, n, mod) if j & 1 else pow(j, n, mod) for j in range(k_max + 1)], mod


@functools.lru_cache(maxsize=1 << 12)
def _odd_factorial_inverse(k: int, bits: int) -> int:
    """Inverse of the odd part of k! mod 2**bits."""
    return pow(math.factorial(k) >> (k - s2(k)), -1, 1 << bits)


def _explicit_sum(n: int, k: int, bits: int, binoms: list[int], powers: list[int], mod: int) -> int:
    """S(n, k) mod 2**bits from binoms[j] = C(k, j) and powers[j] = (-1)**j j**n, j <= k, mod `mod`.

    `mod` is the working modulus of _signed_powers(n, k_max, bits) for some
    k_max >= k.  T = sum_j (-1)**(k-j) C(k,j) j**n is taken mod `mod`, so the exact
    division by k! survives: T is divided by 2**nu2(k!) and multiplied by the
    inverse of the odd part of k! mod 2**bits.
    """
    total = sum(map(operator.mul, binoms, powers))
    total = (-total if k & 1 else total) % mod
    v2_fact = k - s2(k)
    if total & ((1 << v2_fact) - 1):
        raise RuntimeError(
            f"internal error: explicit sum for S({n},{k}) not divisible by 2**{v2_fact}"
        )
    return (total >> v2_fact) * _odd_factorial_inverse(k, bits) % (1 << bits)


def stirling_explicit_mod2(n: int, k: int, bits: int) -> Residue:
    """S(n, k) mod 2**bits via the explicit alternating binomial sum."""
    powers, mod = _signed_powers(n, k, bits)
    binoms = [1]
    for j in range(k):
        binoms.append(binoms[-1] * (k - j) // (j + 1))
    return Residue(_explicit_sum(n, k, bits, binoms, powers, mod), bits)


def stirling_explicit_rows_mod2(n_max: int, k_max: int, bits: int) -> Iterator[list[int]]:
    """Rows S(n, 0..k_max) mod 2**bits for n = 0..n_max via the explicit alternating binomial sum.

    The Pascal rows C(k, .), k <= k_max, are built once, at the working
    modulus of _signed_powers, and each row's signed powers (-1)**j j**n come
    from the previous row's with one multiply per j.  The triangle is capped
    at _PASCAL_CAP entries before any work.
    """
    if (k_max + 1) * (k_max + 2) // 2 > _PASCAL_CAP:
        raise ResourceCapError(f"Pascal triangle to k = {k_max} exceeds {_PASCAL_CAP} entries")
    if n_max < 0:
        raise DomainError(f"need n_max >= 0, got {n_max}")
    powers, mod = _signed_powers(0, k_max, bits)
    mask = mod - 1
    pascal = [[1]]
    for _ in range(k_max):
        prev = pascal[-1]
        pascal.append([(x + y) & mask for x, y in zip([0] + prev, prev + [0])])

    def rows(powers: list[int]) -> Iterator[list[int]]:
        for n in range(n_max + 1):
            yield [_explicit_sum(n, k, bits, pascal[k], powers, mod) for k in range(k_max + 1)]
            powers = [p * j & mask for j, p in enumerate(powers)]

    return rows(powers)


# ---------------------------------------------------------------------------
# adaptive valuations


def valuations(queries: Iterable[Query], policy: PrecisionPolicy) -> dict[Query, Valuation]:
    """nu2(S(n1, k)), or nu2(S(n1, k) - S(n2, k)) if n2 is not None, for each query (n1, n2, k).

    Each rung of the policy's ladder makes one recurrence pass up to the
    largest pending row, at the width of the largest pending k, keeping only
    the entries the pending queries ask for.  A nonzero residue certifies a
    finite valuation and takes its query off the ladder; a query whose
    residue is still zero at max_bits gets an at-least valuation.  Zero
    values (k = 0, k > n, n1 = n2) are the caller's to rule out.

    When the first rung lies in 33..64, a 32-bit pass over every query goes
    first: it runs in uint32 lanes, at about half the cost of a uint64 pass,
    and a nonzero residue mod 2**32 certifies nu2 < 32, the value the first
    rung would certify.  Only the queries it leaves at zero climb the
    policy's own rungs.
    """
    out: dict[Query, Valuation] = {}
    pending = set(queries)
    first_pass = (32,) if 32 < policy.initial_bits <= 64 else ()
    for bits in (*first_pass, *policy.ladder()):
        if not pending:
            break
        entries = sorted({(n, k) for n1, n2, k in pending for n in (n1, n2) if n is not None})
        columns: dict[int, list[int]] = defaultdict(list)
        for n, k in entries:
            columns[n].append(k)
        rows = stirling_rows_mod2(columns.keys(), max(k for *_, k in pending), bits, columns)
        value = {(n, k): r for n, ks in columns.items() for k, r in zip(ks, rows[n])}
        mask = (1 << bits) - 1
        for query in list(pending):
            n1, n2, k = query
            r = value[n1, k] if n2 is None else (value[n1, k] - value[n2, k]) & mask
            if r:
                out[query] = Valuation.finite(nu2_int(r))
                pending.discard(query)
    for query in pending:
        out[query] = Valuation.at_least(policy.max_bits)
    return out


def val_stirling(n: int, k: int, policy: PrecisionPolicy | None = None) -> Valuation:
    """nu2(S(n, k)) with adaptive precision.

    Returns a finite valuation as soon as some residue is nonzero; S(n, k)
    is never 0 for 1 <= k <= n, so an at-least result only means the
    precision ladder was exhausted.
    """
    if n < 0 or not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return Valuation.finite(0) if n == 0 else Valuation.infinite()
    return valuations([(n, None, k)], policy or PrecisionPolicy())[n, None, k]


def val_stirling_difference(
    n1: int, n2: int, k: int, policy: PrecisionPolicy | None = None
) -> Valuation:
    """nu2(S(n1, k) - S(n2, k)) with adaptive shared-precision residues.

    The result is infinite exactly when the difference is the integer zero;
    besides n1 = n2 that happens identically at k <= 1, where the column is
    constant.
    """
    if k < 0 or k > min(n1, n2):
        raise DomainError(f"need 0 <= k <= min(n1, n2), got n1={n1}, n2={n2}, k={k}")
    if k <= 1:
        column = (lambda n: int(n == 0)) if k == 0 else (lambda n: int(n >= 1))
        d = column(n1) - column(n2)
        return Valuation.infinite() if d == 0 else Valuation.finite(0)
    if n1 == n2:
        return Valuation.infinite()
    return valuations([(n1, n2, k)], policy or PrecisionPolicy())[n1, n2, k]


# ---------------------------------------------------------------------------
# identity checks (exact)


def check_convolution(n: int, m: int, k: int) -> bool:
    """Exact check of the two-argument splitting identity

        S(n+m, k) = sum_{j=1..k} sum_{i=0..j} C(j,i) (k-i)!/(k-j)! S(n, k-i) S(m, j).

    The identity needs m >= 1 (the inner sum starts at j = 1, so the right
    side vanishes for m = 0); the check evaluates whatever it is given.
    """
    if n < 0 or m < 0 or not 0 <= k <= n + m:
        raise DomainError(f"need n, m >= 0 and 0 <= k <= n+m, got {n}, {m}, {k}")
    lhs = stirling_exact(n + m, k)
    rhs = 0
    for j in range(1, k + 1):
        sm = stirling_exact(m, j)
        if sm == 0:
            continue
        for i in range(j + 1):
            sn = stirling_exact(n, k - i)
            if sn == 0:
                continue
            rhs += math.comb(j, i) * math.perm(k - i, j - i) * sn * sm
    return lhs == rhs


def check_symmetric_identity(k1: int, k2: int, r: int) -> bool:
    """Exact check of the symmetric product identity, cleared of denominators:

        k1! k2! (r-1)! S(k1+k2+2, r)
            = (k1+k2+1)! sum_{i=1..r-1} (i-1)! (r-i-1)! S(k1+1, i) S(k2+1, r-i).
    """
    if k1 < 0 or k2 < 0:
        raise DomainError(f"need k1, k2 >= 0, got {k1}, {k2}")
    if r < max(k1, k2) + 2:
        raise DomainError(f"need r >= max(k1, k2) + 2, got r={r}")
    lhs = (
        math.factorial(k1)
        * math.factorial(k2)
        * math.factorial(r - 1)
        * stirling_exact(k1 + k2 + 2, r)
    )
    rhs = math.factorial(k1 + k2 + 1) * sum(
        math.factorial(i - 1)
        * math.factorial(r - i - 1)
        * stirling_exact(k1 + 1, i)
        * stirling_exact(k2 + 1, r - i)
        for i in range(1, r)
    )
    return lhs == rhs
