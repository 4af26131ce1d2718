"""Exact and truncated 2-adic computation of Stirling numbers of the second kind.

Two independent evaluation routes are kept deliberately separate so that one
can verify the other: the triangular recurrence

    S(n, k) = S(n-1, k-1) + k * S(n-1, k),    S(0, 0) = 1, S(n, 0) = 0 (n > 0)

iterated row by row, and the explicit alternating binomial sum

    S(n, k) = (1/k!) * sum_{i=0..k} (-1)**i * C(k, i) * (k - i)**n.

Modular rows are reduced mod 2**bits throughout, in numpy lanes as narrow as
the precision allows: uint32 up to 32 bits, uint64 from 33 to 64 (wraparound
mod 2**32 or 2**64 is exact for any smaller power of two), and Python
integers (dtype object) masked to bits above that.  The rows advance by
jumps of 2**e steps, e as large as the next wanted row and the band caps
allow: s steps of the recurrence are one banded matrix, so a jump is one
numpy product of a coefficient band with the shifted copies of the row and
one sum over the band.  The band of 2s steps is the band of s composed with
itself, so a narrow row N steps long takes O(log N) numpy passes.  Every
pass plans its jumps from its inputs and is refused over _LANE_STEP_CAP
lane-steps, object-lane words weighted by their cost, before any work (see
stirling_rows_mod2).

The explicit route evaluates the sum for one cell, and for whole rows reads
k! S(n, k) off the forward-difference table of 0**n, 1**n, ..., k**n.  The
table is held in int64 arrays of 32-bit limbs over blocks of consecutive
rows of at most _EXPLICIT_BLOCK_LIMBS limbs; a difference level is one
subtraction over all limbs, carries are propagated every _CARRY_LEVELS
levels, before a limb can overflow, and a block stops at level
min(k_max, its last n), since the k-th difference of x**n is 0 for k > n
(see stirling_explicit_rows_mod2).
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from itertools import cycle, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .base2 import Valuation, nu2_int, s2
from .errors import DomainError, ResourceCapError

__all__ = [
    "Residue",
    "PrecisionPolicy",
    "DEFAULT_EXACT_CAP",
    "DEFAULT_ROW_CAP",
    "stirling_exact",
    "stirling_exact_table",
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
DEFAULT_ROW_CAP = 1 << 22  # entries of a lane's jump bands of 1 to 16 steps; a row gets at most half
_SHORT_JUMPS = 5  # the bands of 1, 2, 4, 8 and 16 steps, which share DEFAULT_ROW_CAP
_LANE_BAND_CAP = 1 << 17  # entries of a lane's bands together once it holds one of more than 16 steps
_LANE_STEP_CAP = 1 << 36  # lane-steps of one row pass (see _lane_steps); the scan at n = 16 takes 4.6e10
# An object-lane word costs as much time as this many uint32 lane-steps: measured 20 to 86 at
# widths 257 and 1,025 and 65 to 256 bits (most at 65 bits, where a word carries least)
_OBJECT_WORD_WEIGHT = 96
_EXPLICIT_K_CAP = 1022  # widest explicit row: its working residues carry up to nu2(1022!) = 1013 extra bits
_LIMB_BITS = 32  # the explicit rows' difference table: int64 limbs of 32 bits, carried lazily
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_CARRY_LEVELS = 30  # doublings between carry passes: limbs under 2**33 stay under 2**63
_EXPLICIT_BLOCK_LIMBS = 1 << 14  # limbs of one block's difference table

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


def _jump_count(width: int, want: int) -> int:
    """How many of the bands of the jumps 1, 2, 4, ..., 2**(want-1) fit the caps at this width.

    The bands of 1 to 16 steps together hold at most DEFAULT_ROW_CAP entries.
    A longer band is built only while the lane's bands, with it, hold at most
    _LANE_BAND_CAP.  From e = 2 on, a band holds no more entries than all
    shorter bands together, so each longer band holds at most half of that
    cap.  Band sizes grow with e, so the bands that fit are the first ones.
    """
    total = 0
    for e in range(want):
        total += (min(1 << e, width - 1) + 1) * width
        if total > (DEFAULT_ROW_CAP if e < _SHORT_JUMPS else _LANE_BAND_CAP):
            return e
    return want


def _band(
    e: int, half: np.ndarray | None, width: int, dtype: type, old: np.ndarray | None = None
) -> np.ndarray:
    """The band of the jump 2**e at this width, in dtype, from half, the band of 2**(e-1) steps.

    s steps of the recurrence map a row to

        row'[j] = sum_{i=0..s} h_{s-i}(j-i, ..., j) * row[j-i],

    h the complete homogeneous symmetric polynomial.  The band of the jump
    s = 2**e holds these coefficients, the one of row[j-i] at [i, j].  Only
    i <= j can be nonzero, so the band keeps min(s, width - 1) + 1 rows.  The
    band of one step is the recurrence itself; that of 2s is the band of s
    composed with itself,

        c_2s[i, j] = sum_t c_s[t, j] * c_s[i-t, j-t],

    which half must hold at this width.  With old, the same band at a
    narrower width, its columns are kept and only the new ones computed.
    """
    band = np.zeros((min(1 << e, width - 1) + 1, width), dtype=dtype)
    lo = 0
    if old is not None:
        lo = old.shape[1]
        band[: old.shape[0], :lo] = old
    if e == 0:
        # one step: row'[j] = j * row[j] + row[j-1]
        band[0, lo:] = np.arange(lo, width)
        band[1:, max(lo, 1) :] = 1
        return band
    r = half.shape[0]
    for t in range(r):
        # c_s[t, j] * c_s[u, j-t] adds to c_2s[t+u, j]; t + u <= j < width, else it is 0
        c, u = max(t, lo), min(r, band.shape[0] - t)
        band[t : t + u, c:] += half[t, c:] * half[:u, c - t : width - t]
    return band


class _JumpBands:
    """Cached bands (see _band) of one fixed-width lane dtype, grown on demand.

    The bands are composed in the lane's dtype, so they hold the coefficients
    mod 2**32 or 2**64.  The cache keeps the exact width of the widest
    request since it was last rebuilt.  A narrower request slices the cached
    bands; a wider one widens them in place, composing only their new
    columns.  The bands are rebuilt at a narrower width only when it fits a
    band of up to 32 steps that the cached width does not.  Otherwise a
    narrow row gets the bands of the cached width, which may stop short of
    its own: after a row 1,000 wide, one 65 wide gets jumps of at most 32
    steps, although its own width allows 2**34.  _rows_numpy then composes
    the row's deeper bands for its pass alone, when that is cheaper than
    the shorter jumps.  Rebuilding whenever a narrower width fits one more
    band would rebuild on every other query of a stream of single queries
    of mixed widths.
    """

    def __init__(self, lane: type[np.unsignedinteger]) -> None:
        self._lane = lane
        self._width = 0
        self._bands: list[np.ndarray] = []

    def _grow(self, e: int, lo: int = 0) -> np.ndarray:
        """Band e at the cached width: columns below lo from the cached band e, the rest computed."""
        half = self._bands[e - 1] if e else None
        return _band(e, half, self._width, self._lane, self._bands[e] if lo else None)

    def get(self, width: int, count: int) -> list[np.ndarray]:
        """Bands of the jumps 2**e, e < count, as many as fit the cached width, sliced to width columns.

        All count bands must fit the caps at this width.
        """
        held = _jump_count(self._width, count)
        # only the bands of up to 32 steps are compared: deeper bands at a narrower width
        # are not worth a rebuild
        if min(held, _SHORT_JUMPS + 1) < min(count, _SHORT_JUMPS + 1):
            # start afresh at this width
            self._width, self._bands = 0, []
        lo = self._width
        if width > lo:
            # widen, in place, each band that still fits: only the new columns are computed
            self._width, held = width, count
            del self._bands[_jump_count(width, len(self._bands)) :]
            for e in range(len(self._bands)):
                self._bands[e] = self._grow(e, lo)
        while len(self._bands) < held:
            self._bands.append(self._grow(len(self._bands)))
        return [band[: min(1 << e, width - 1) + 1, :width] for e, band in enumerate(self._bands[:held])]


_BANDS = {lane: _JumpBands(lane) for lane in (np.uint32, np.uint64)}


def _object_bands(width: int, count: int, bits: int) -> list[np.ndarray]:
    """The bands of the jumps 1, 2, ..., 2**(count-1) in Python integers mod 2**bits, built afresh."""
    mask = (1 << bits) - 1
    bands: list[np.ndarray] = []
    for e in range(count):
        band = _band(e, bands[-1] if bands else None, width, object)
        band &= mask
        bands.append(band)
    return bands


def _lane_steps(targets: list[int], width: int, count: int, bits: int) -> int:
    """Lane-steps of a pass from row 0 through the sorted targets with count bands at this width.

    A jump of 2**e steps reads the min(2**e, width - 1) + 1 rows of its
    band once, and each entry counts ceil(bits / 32) 32-bit words: 1 in the
    uint32 lane, 2 in the uint64 lane.  Above 64 bits each word counts
    _OBJECT_WORD_WEIGHT, what a word of the object lane costs in uint32
    lane-steps of the same time.  A gap takes gap >> (count - 1) jumps
    of the longest band and then one jump for each set bit of the remainder,
    so the plan costs a few integer operations per row.
    """
    if not count:
        return 0  # only row 0
    top = count - 1
    longest = (min(1 << top, width - 1) + 1) * width
    short = (width - 1).bit_length()  # the bands with 2**e <= width - 1 have 2**e + 1 rows
    entries = n = 0
    for target in targets:
        gap, n = target - n, target
        rest = gap & ((1 << top) - 1)
        low = rest & ((1 << short) - 1)
        entries += (gap >> top) * longest + width * (
            rest.bit_count() + low + (width - 1) * (rest >> short).bit_count()
        )
    return entries * -(-bits // 32) * (_OBJECT_WORD_WEIGHT if bits > 64 else 1)


def _rows_numpy(
    want: dict[int, Sequence[int]], k_max: int, bits: int, count: int
) -> dict[int, list[int]]:
    width = k_max + 1
    targets = sorted(want)
    mask = (1 << bits) - 1
    if bits > 64:
        # Python integers, masked once per jump: bands built for this pass at its own precision
        lane: type = object
        bands = _object_bands(width, count, bits)
    else:
        # the lane's wraparound is the working modulus, masked on capture
        lane = np.uint32 if bits <= 32 else np.uint64
        bands = _BANDS[lane].get(width, count)
        mask = lane(mask)
        held = len(bands)
        if held < count:
            # the bands cached for a wider row stop short of this row's own: compose the deeper
            # ones for this pass alone when their products and jumps read fewer band entries
            # than the shorter jumps of the cached ones
            rows = [min(1 << e, width - 1) + 1 for e in range(count)]
            build = width * sum(rows[e - 1] * rows[e] for e in range(held, count))
            if _lane_steps(targets, width, held, 1) > build + _lane_steps(targets, width, count, 1):
                for e in range(held, count):
                    bands.append(_band(e, bands[-1], width, lane))
        count = len(bands)
    reach = bands[-1].shape[0] if bands else 1  # the most shifts of the row a jump reads
    pad = np.zeros(reach - 1 + width, dtype=lane)
    row = pad[reach - 1 :]
    row[0] = 1
    # shifted[i] = the row shifted right by i: a read-only strided view of pad.  The fixed-width
    # lanes build it directly, at a quarter of as_strided's cost per pass; numpy does not
    # promise to view an object array's memory that way
    step = pad.itemsize
    if lane is object:
        shifted = as_strided(row, (reach, width), (-step, step), writeable=False)
    else:
        shifted = np.ndarray((reach, width), lane, pad, (reach - 1) * step, (-step, step))
        shifted.flags.writeable = False
    prod = np.empty((reach, width), dtype=lane)
    out: dict[int, list[int]] = {}
    n = 0
    for target in targets:
        while n < target:
            # the longest jump 2**e that does not pass the target
            e = min((target - n).bit_length(), count) - 1
            r = bands[e].shape[0]
            np.multiply(bands[e], shifted[:r], out=prod[:r])
            np.add.reduce(prod[:r], axis=0, dtype=lane, out=row)
            if lane is object:
                np.bitwise_and(row, mask, out=row)
            n += 1 << e
        ks = want[target]
        if isinstance(ks, range):  # numpy would convert it element by element
            ks = np.arange(ks.start, ks.stop, ks.step)
        out[target] = (row[ks] if lane is object else row[ks] & mask).tolist()
    return out


def stirling_rows_mod2(
    ns: Iterable[int], k_max: int, bits: int, columns: Mapping[int, Sequence[int]] | None = None
) -> dict[int, list[int]]:
    """Rows S(n, 0..k_max) mod 2**bits for several n in one recurrence pass.

    Sharing the pass is exact because every requested row is an intermediate
    state of the longest one.  With columns, which must map each n to some
    k in 0..k_max, row n holds only S(n, k) for those k, in that order.  The
    pass runs in numpy lanes: uint32 up to 32 bits, uint64 up to 64 and
    Python integers (dtype object) above.  It jumps: each numpy pass
    advances the row by the longest power of two steps that does not pass
    the next requested row and whose band fits the caps of _jump_count at
    this width; a jump longer than the row is wide costs about
    (k_max + 1)**2 products.  Above 64 bits the bands are built for the pass
    alone, mod 2**bits, and bands longer than 16 steps only when
    (k_max + 1)**2 is at most the largest gap between requested rows: a
    band built out to the full width costs about (k_max + 1)**3 big-integer
    products and saves little on a shorter gap.  The row is capped at
    DEFAULT_ROW_CAP // 2 entries, so that even the band of a single step
    (two entries per row entry) fits the cap.  Before any band is built,
    the pass's jumps are planned from the inputs alone and the pass is
    refused when they would take more than _LANE_STEP_CAP lane-steps (see
    _lane_steps; above 64 bits a lane-step weighs what it costs in the
    object lane), so whether it is refused never depends on what ran
    earlier in the process.  Bands cached for a wider row may stop short of
    the plan's; the pass takes their shorter jumps only when they read fewer
    band entries than composing its own deeper bands and jumping with them.
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
    width = k_max + 1
    if 2 * width > DEFAULT_ROW_CAP:
        raise ResourceCapError(f"row of {width} entries exceeds cap {DEFAULT_ROW_CAP // 2}")
    gap = max(b - a for a, b in zip([0, *targets], targets))
    count = _jump_count(width, gap.bit_length())
    if bits > 64 and width * width > gap:
        count = min(count, _SHORT_JUMPS)
    steps = _lane_steps(targets, width, count, bits)
    if steps > _LANE_STEP_CAP:
        raise ResourceCapError(
            f"row pass of {targets[-1]} steps at width {width} and {bits} bits takes {steps}"
            f" lane-steps, over the cap of {_LANE_STEP_CAP}"
        )
    if columns is None:
        want = {n: range(width) for n in targets}
    else:
        missing = [n for n in targets if n not in columns]
        if missing:
            raise DomainError(f"no columns given for rows {missing}")
        want = {n: columns[n] for n in targets}
        for n, ks in want.items():
            if len(ks) and not 0 <= min(ks) <= max(ks) <= k_max:
                bad = next(k for k in ks if not 0 <= k <= k_max)
                raise DomainError(f"column {bad} of row {n} is outside 0..{k_max}")
    return _rows_numpy(want, k_max, bits, count)


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

    def table(self, n_max: int, k_max: int) -> list[list[int]]:
        self.ensure(n_max, k_max)
        return self._rows


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


def stirling_exact_table(n_max: int, k_max: int) -> list[list[int]]:
    """The shared exact triangle, grown to rows 0..n_max and columns 0..k_max at least.

    Row n holds S(n, k) at index k, and 0 above n.  The rows are the cache
    itself, not copies: a check that reads many entries reads them here
    after one range check, instead of calling stirling_exact per entry.
    Callers must not change them.
    """
    if n_max < 0 or k_max < 0:
        raise DomainError(f"need n_max, k_max >= 0, got n_max={n_max}, k_max={k_max}")
    if n_max > DEFAULT_EXACT_CAP:
        raise ResourceCapError(f"exact engine capped at n <= {DEFAULT_EXACT_CAP}, got {n_max}")
    return _EXACT.table(n_max, k_max)


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


def _odd_factorial_inverses(top: int, bits: int) -> list[int]:
    """The inverses mod 2**bits of the odd parts of 0!, ..., top!: one pow at top,
    then inv(odd((k-1)!)) = inv(odd(k!)) * odd(k) on the way down."""
    mod = 1 << bits
    inverses = [pow(math.factorial(top) >> (top - s2(top)), -1, mod)]
    for k in range(top, 0, -1):
        inverses.append(inverses[-1] * (k // (k & -k)) % mod)  # k // (k & -k) is odd(k)
    return inverses[::-1]


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
    inverse = pow(math.factorial(k) >> v2_fact, -1, 1 << bits)
    return (total >> v2_fact) * inverse % (1 << bits)


def stirling_explicit_mod2(n: int, k: int, bits: int) -> Residue:
    """S(n, k) mod 2**bits via the explicit alternating binomial sum."""
    powers, mod = _signed_powers(n, k, bits)
    binoms = [1]
    for j in range(k):
        binoms.append(binoms[-1] * (k - j) // (j + 1))
    return Residue(_explicit_sum(n, k, bits, binoms, powers, mod), bits)


def _carry(limbs: np.ndarray) -> None:
    """One carry pass over int64 limbs, which run along the first axis, in place.

    Each limb keeps its low 32 bits and gains the carry of the limb below.
    The top limb's carry is dropped, so a value is kept mod 2**(32 * limbs).
    Limbs under 2**63 in magnitude come out under 2**33.
    """
    high = limbs >> _LIMB_BITS
    limbs &= _LIMB_MASK
    limbs[1:] += high[:-1]


def _digits(limbs: np.ndarray) -> np.ndarray:
    """The 32-bit digits of lazily carried int64 limbs (under 2**63), mod 2**(32 * limbs).

    Whole-array operations only, whatever the number of limbs.  Adding
    2**34 to the lowest limb and 2**34 - 4 to each other one adds
    2**(32 * limbs + 2), a multiple of the modulus, and makes every limb
    positive; two carry passes then leave each limb at most 2**32.  The
    carries left ripple through runs of 2**32 - 1: a limb takes one iff
    the nearest limb below it that is not 2**32 - 1 is 2**32.  Modifies
    `limbs`; returns the digits as uint64.
    """
    _carry(limbs)
    limbs += 1 << (_LIMB_BITS + 2)
    limbs[1:] -= 4
    _carry(limbs)
    _carry(limbs)
    # 2 (i + 1) + (1 if limb i is 2**32), for the nearest limb i at or below that is not 2**32 - 1
    nearest = limbs >> _LIMB_BITS
    nearest += np.arange(2, 2 * len(limbs) + 1, 2).reshape((-1,) + (1,) * (limbs.ndim - 1))
    nearest[limbs == _LIMB_MASK] = 0
    np.maximum.accumulate(nearest, axis=0, out=nearest)
    nearest &= 1
    limbs[1:] += nearest[:-1]
    limbs &= _LIMB_MASK
    return limbs.view(np.uint64)


def stirling_explicit_rows_mod2(n_max: int, k_max: int, bits: int) -> Iterator[list[int]]:
    """Rows S(n, 0..k_max) mod 2**bits for n = 0..n_max via the explicit formula.

    k! S(n, k) is the k-th forward difference of x**n at x = 0, so an
    explicit row is the first column of the difference table of
    0**n, 1**n, ..., k_max**n, taken mod 2**(bits + nu2(k_max!)) as in the
    single-cell form, which keeps enough bits for the exact division by
    every k!.  The table is kept for a block of consecutive rows at once,
    in int64 arrays of 32-bit limbs (_LIMB_BITS), one plane per limb, whose
    carries are kept lazily: a difference level is one subtraction over
    all limbs and at most doubles a limb, so a carry pass (_carry) runs
    every _CARRY_LEVELS levels, before any limb can reach 2**63.  The
    powers are built in limbs too, one product by x per row; a product by
    x < 2**b counts as b doublings.

    The k-th difference of x**n is 0 for k > n, so a block whose last row
    is n1 stops at level top = min(k_max, n1) and reads x <= top only.
    Each entry of its table, the d-th difference of x**n at an x with
    x + d <= top, counts the maps from n points into x + d values that
    reach the last d of them, so it lies in [0, top**n] and fits in
    n1 * bit_length(top) + 1 bits; the block holds that many bits or the
    working precision, whichever is fewer.  A block holds at most
    _EXPLICIT_BLOCK_LIMBS limbs, and at least one row.

    Each level's first column is kept, its digits resolved once (_digits),
    its low nu2(k!) bits checked to be 0 and the next `bits` bits read out
    as Python integers, which are multiplied by the inverse of the odd part
    of k! mod 2**bits.  No recurrence, exact triangle or binomial is used.
    Inputs are checked at the call, before the first row is asked for;
    k_max is capped at _EXPLICIT_K_CAP.
    """
    if k_max > _EXPLICIT_K_CAP:
        raise ResourceCapError(f"explicit rows capped at k_max <= {_EXPLICIT_K_CAP}, got {k_max}")
    if n_max < 0 or k_max < 0:
        raise DomainError(f"need n_max, k_max >= 0, got n_max={n_max}, k_max={k_max}")
    if bits < 1:
        raise DomainError(f"need bits >= 1, got {bits}")
    working = bits + k_max - s2(k_max)

    def limbs(n1: int) -> int:
        top = min(k_max, n1)
        return -(-min(working, n1 * top.bit_length() + 1) // _LIMB_BITS)

    width = min(n_max, k_max) + 1  # past column n_max every row is 0
    shift = np.array([k - s2(k) for k in range(width)])  # nu2(k!)
    inverse = _odd_factorial_inverses(width - 1, bits)
    mask = (1 << bits) - 1
    # the bits of each limb below nu2(k!), which must be 0
    below = np.clip(shift - _LIMB_BITS * np.arange(limbs(n_max))[:, None], 0, _LIMB_BITS)
    low = ((1 << below) - 1).astype(np.uint64)
    spread = min(-(-bits // _LIMB_BITS), limbs(n_max))  # limbs of a quotient that can be nonzero
    start, offset = shift // _LIMB_BITS, (shift % _LIMB_BITS).astype(np.uint64)
    top_mask = (1 << min(_LIMB_BITS, bits - _LIMB_BITS * (spread - 1))) - 1
    # rows between carry passes of the powers: a product by x < 2**b is b doublings
    every = max(1, _CARRY_LEVELS // max(1, (width - 1).bit_length()))
    x = np.arange(width, dtype=np.int64)

    def block(n0: int, n1: int, powers: np.ndarray) -> list[list[int]]:
        # rows n0..n1, from powers = x**n0 (which it leaves at x**(n1 + 1))
        top, size, count = min(k_max, n1), limbs(n1), n1 + 1 - n0
        table = np.empty((size, top + 1, count), np.int64)  # [limb, x, row]
        for n in range(n0, n1 + 1):
            table[..., n - n0] = powers[:size, : top + 1]
            powers *= x
            if (n + 1) % every == 0:
                _carry(powers)
        _carry(table)
        # [limb, level, row], and a limb of zeros above for the reads past the values
        first = np.zeros((size + 1, top + 1, count), np.int64)
        first[:size, 0] = table[:, 0]
        for level in range(1, top + 1):
            table = table[:, 1:] - table[:, :-1]
            if level % _CARRY_LEVELS == 0:
                _carry(table)
            first[:size, level] = table[:, 0]
        _digits(first[:size])
        digits = first.view(np.uint64)
        bad = np.nonzero((digits[:size] & low[:size, : top + 1, None]).any(axis=0).T)
        if len(bad[0]):
            n, k = n0 + int(bad[0][0]), int(bad[1][0])
            raise RuntimeError(
                f"internal error: explicit sum for S({n},{k}) not divisible by 2**{shift[k]}"
            )
        # the quotient's limbs from bit nu2(k!) up
        at = np.minimum(start[: top + 1] + np.arange(spread + 1)[:, None], size)
        pieces = digits[at[..., None], np.arange(top + 1)[:, None], np.arange(count)]
        del first, digits  # each array is let go once read, so that few are held at once
        cut = offset[: top + 1, None]
        quotient = pieces[:-1] >> cut
        quotient |= pieces[1:] << (_LIMB_BITS - cut)
        del pieces
        quotient &= _LIMB_MASK
        quotient[-1] &= top_mask
        raw = np.ascontiguousarray(quotient.transpose(2, 1, 0), "<u4").view(f"V{4 * spread}")
        del quotient
        # one product at a time, so that no more than one is ever past `bits` bits
        quotients = map(int.from_bytes, raw.ravel().tolist(), repeat("little"))
        products = map(operator.mul, quotients, cycle(inverse[: top + 1]))
        values = list(map(mask.__and__, products))
        zeros = [0] * (k_max - top)
        return [values[i : i + top + 1] + zeros for i in range(0, len(values), top + 1)]

    def rows() -> Iterator[list[int]]:
        powers = np.zeros((limbs(n_max), width), np.int64)  # x**n, exact or mod 2**working
        powers[0] = 1
        n0 = 0
        while n0 <= n_max:
            n1 = n0
            while n1 < n_max and (
                (n1 + 2 - n0) * (min(k_max, n1 + 1) + 1) * limbs(n1 + 1) <= _EXPLICIT_BLOCK_LIMBS
            ):
                n1 += 1
            yield from block(n0, n1, powers)
            n0 = n1 + 1

    return rows()


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

    Per query a rung costs a few builtin operations: the queries are
    deduplicated once, each rung groups the pending entries into one sorted
    column list per row and reads each row's residues through one dict, and
    every query certified at the same value shares one Valuation.
    """
    out: dict[Query, Valuation] = {}
    finite: dict[int, Valuation] = {}  # one shared Valuation per certified value
    pending = list(dict.fromkeys(queries))
    first_pass = (32,) if 32 < policy.initial_bits <= 64 else ()
    for bits in (*first_pass, *policy.ladder()):
        if not pending:
            break
        wanted: dict[int, set[int]] = defaultdict(set)
        for n1, n2, k in pending:
            wanted[n1].add(k)
            if n2 is not None:
                wanted[n2].add(k)
        columns = {n: sorted(ks) for n, ks in wanted.items()}
        k_max = max(ks[-1] for ks in columns.values())
        rows = stirling_rows_mod2(columns.keys(), k_max, bits, columns)
        value = {n: dict(zip(ks, rows[n])) for n, ks in columns.items()}
        mask = (1 << bits) - 1
        left = []
        for query in pending:
            n1, n2, k = query
            r = value[n1][k] if n2 is None else (value[n1][k] - value[n2][k]) & mask
            if r:
                v = (r & -r).bit_length() - 1  # nu2_int(r), inline
                out[query] = finite.get(v) or finite.setdefault(v, Valuation.finite(v))
            else:
                left.append(query)
        pending = left
    if pending:
        at_least = Valuation.at_least(policy.max_bits)
        out.update(dict.fromkeys(pending, at_least))
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
    table = stirling_exact_table(n + m, k)
    row_n, row_m = table[n], table[m]
    rhs = 0
    for j in range(1, k + 1):
        sm = row_m[j]
        if sm == 0:
            continue
        for i in range(j + 1):
            sn = row_n[k - i]
            if sn == 0:
                continue
            rhs += math.comb(j, i) * math.perm(k - i, j - i) * sn * sm
    return table[n + m][k] == rhs


def check_symmetric_identity(k1: int, k2: int, r: int) -> bool:
    """Exact check of the symmetric product identity, cleared of denominators:

        k1! k2! (r-1)! S(k1+k2+2, r)
            = (k1+k2+1)! sum_{i=1..r-1} (i-1)! (r-i-1)! S(k1+1, i) S(k2+1, r-i).
    """
    if k1 < 0 or k2 < 0:
        raise DomainError(f"need k1, k2 >= 0, got {k1}, {k2}")
    if r < max(k1, k2) + 2:
        raise DomainError(f"need r >= max(k1, k2) + 2, got r={r}")
    table = stirling_exact_table(k1 + k2 + 2, r)
    row_1, row_2 = table[k1 + 1], table[k2 + 1]
    lhs = (
        math.factorial(k1)
        * math.factorial(k2)
        * math.factorial(r - 1)
        * table[k1 + k2 + 2][r]
    )
    rhs = math.factorial(k1 + k2 + 1) * sum(
        math.factorial(i - 1) * math.factorial(r - i - 1) * row_1[i] * row_2[r - i]
        for i in range(1, r)
    )
    return lhs == rhs
