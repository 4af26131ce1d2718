"""Grid sweeps comparing the closed-form predictors to the modular engine,
identity suites, the difference-congruence check, and a scanner for the open
Mersenne-shaped case.

A sweep works on blocks of cells, not on one cell at a time.  A target
yields its grid as blocks, for example one per n or per pair, each with its
cell count in closed form, so that a grid over the cell cap is refused
before any block is built.  A block holds its parameters and claim fields
as columns of two kinds (see _Block): numpy integer arrays (int64, or exact
Python integers where a value can pass int64), and codes into a few values
(_Coded), which the parameters of an outer loop (see _runs), a value that
every cell shares and a column of texts all become.  The claims come from
the predictors' statements, each declared once and evaluated on the
block's columns (Statement.claims); the queries of every block go to one
valuations() call, and the verdicts are one table lookup over all cells
(see _VERDICTS).  The exact checks (junod, identities, count-J,
diff-congruence) run one cell at a time and emit blocks too, and so do the
scanner and cross-validation.

Reports are deterministic: cells are emitted in lexicographic parameter
order, and runtime metadata is kept out of the serialized record section.
Everything runs in the calling process.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

import numpy as np

from ._version import __version__
from .base2 import (
    AT_LEAST,
    FINITE,
    INFINITE,
    Valuation,
    brute_force_J,
    count_J,
    nu2_int,
)
from .bell import junod_check
from .engine import (
    DEFAULT_EXACT_CAP,
    PrecisionPolicy,
    check_convolution,
    check_symmetric_identity,
    stirling_exact_table,
    stirling_explicit_rows_mod2,
    stirling_row_mod2,  # unused here; kept for callers that look it up in this module
    stirling_rows_mod2,
    valuations,
)
from .errors import DomainError, ResourceCapError
from . import predictors as P

__all__ = [
    "CONFIRMED",
    "VIOLATED",
    "INDETERMINATE",
    "CONJECTURE_OBSERVED",
    "CONJECTURE_DEVIATION",
    "SCHEMA_VERSION",
    "VERDICT_ORDER",
    "CellRecord",
    "SweepConfig",
    "SweepReport",
    "classify",
    "run_sweep",
    "sweep_targets",
    "default_ranges",
    "scan_conjecture_mersenne",
    "check_diff_congruence",
    "cross_validate",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "EXIT_CONJECTURE_DEVIATION",
    "EXIT_INDETERMINATE",
    "verdict_exit_code",
]

SCHEMA_VERSION = "1"
ENGINE_TAG = f"stirling2adic {__version__}"

CONFIRMED = "confirmed"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"
CONJECTURE_OBSERVED = "conjecture-observed"
CONJECTURE_DEVIATION = "conjecture-deviation"

VERDICT_ORDER = (
    CONFIRMED,
    VIOLATED,
    INDETERMINATE,
    CONJECTURE_OBSERVED,
    CONJECTURE_DEVIATION,
)

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONJECTURE_DEVIATION = 3
EXIT_INDETERMINATE = 4

DEFAULT_CELL_CAP = 10_000_000


def verdict_exit_code(verdicts: Collection[str]) -> int:
    """Exit code for a collection of verdicts: the gravest one present decides."""
    if VIOLATED in verdicts:
        return EXIT_VIOLATION
    if CONJECTURE_DEVIATION in verdicts:
        return EXIT_CONJECTURE_DEVIATION
    if INDETERMINATE in verdicts:
        return EXIT_INDETERMINATE
    return EXIT_OK


def classify(kind: str, value: int | None, observed: Valuation) -> str:
    """Verdict for a claim of the given kind against an observed valuation."""
    if kind == P.EQUALITY:
        if observed.is_finite:
            return CONFIRMED if observed.value == value else VIOLATED
        if observed.is_infinite:
            return VIOLATED
        assert value is not None
        return VIOLATED if observed.value > value else INDETERMINATE
    if kind == P.LOWER_BOUND:
        assert value is not None
        if observed.is_finite:
            return CONFIRMED if observed.value >= value else VIOLATED
        if observed.is_infinite:
            return CONFIRMED
        return CONFIRMED if observed.value >= value else INDETERMINATE
    if kind == P.CONJECTURAL_EQUALITY:
        if observed.is_finite:
            return CONJECTURE_OBSERVED if observed.value == value else CONJECTURE_DEVIATION
        if observed.is_infinite:
            return CONJECTURE_DEVIATION
        assert value is not None
        return CONJECTURE_DEVIATION if observed.value > value else INDETERMINATE
    raise DomainError(f"cannot classify claim kind {kind!r}")


_OBSERVED_KINDS = (FINITE, AT_LEAST, INFINITE)


def _verdict_table() -> np.ndarray:
    """classify as a table: the code in VERDICT_ORDER of the verdict on a claim
    of kind CLAIM_KINDS[i] against an observation of kind _OBSERVED_KINDS[j]
    whose value is below (0), at (1) or above (2) the claimed one."""
    table = np.empty((len(P.CLAIM_KINDS), len(_OBSERVED_KINDS), 3), dtype=np.int8)
    for i, kind in enumerate(P.CLAIM_KINDS):
        for j, observed in enumerate(_OBSERVED_KINDS):
            for side in range(3):
                v = Valuation.infinite() if observed == INFINITE else Valuation(observed, 1 + side)
                table[i, j, side] = VERDICT_ORDER.index(classify(kind, 2, v))
    return table


_VERDICTS = _verdict_table()


@dataclass
class CellRecord:
    """One verified grid cell: parameter echo, claim, observation, verdict."""

    params: dict
    source: str
    claim_kind: str
    claim_value: int | None
    observed_kind: str
    observed_value: int | None
    verdict: str


# ---------------------------------------------------------------------------
# column blocks


_FIELDS = ("source", "claim_kind", "claim_value", "observed_kind", "observed_value", "verdict")


class _Coded(NamedTuple):
    """A column of labels[code] for each code."""

    labels: tuple
    codes: np.ndarray


class _Block(NamedTuple):
    """Cells that share a params layout, as columns.

    keys is the layout; params holds one column per key and fields one per
    name in _FIELDS.  A column is a numpy integer array (int64, or object
    for exact Python integers past int64) or a _Coded; _block makes them.
    """

    keys: tuple[str, ...]
    params: tuple
    fields: tuple
    size: int


_ZEROS = np.broadcast_to(np.uint8(0), sys.maxsize)  # one byte, read at every position


def _block(keys: Iterable[str], params: Iterable, fields: Iterable, size: int) -> _Block:
    """A _Block of size cells, from columns that may also be lists or single values.

    A list becomes codes into its distinct values, told apart by type, so
    that 1, 1.0 and True are three labels, and a float by its text, so that
    0.0 and -0.0 are two.  A single value becomes a _Coded of one label,
    whose codes are one zero seen size times (_ZEROS).
    """

    def column(values: object) -> np.ndarray | _Coded:
        if isinstance(values, (np.ndarray, _Coded)):
            return values
        if not isinstance(values, list):
            return _Coded((values,), _ZEROS[:size])
        index: dict = {}
        tags = [(type(v), repr(v) if type(v) is float else v) for v in values]
        codes = [index.setdefault(tag, len(index)) for tag in tags]
        firsts = np.unique(codes, return_index=True)[1].tolist()
        return _Coded(tuple(values[i] for i in firsts), np.array(codes, np.min_scalar_type(len(index))))

    return _Block(tuple(keys), tuple(map(column, params)), tuple(map(column, fields)), size)


def _values(column: np.ndarray | _Coded, index: slice | np.ndarray) -> list:
    """The entries of a column at index (a slice, or an array of positions)."""
    if isinstance(column, _Coded):
        return [column.labels[code] for code in column.codes[index].tolist()]
    return column[index].tolist()


def _records(block: _Block, index: slice | np.ndarray = slice(None)) -> list[CellRecord]:
    params = [_values(column, index) for column in block.params]
    fields = [_values(column, index) for column in block.fields]
    rows = zip(*params) if params else repeat((), len(fields[0]))
    return [CellRecord(dict(zip(block.keys, row)), *f) for row, f in zip(rows, zip(*fields))]


def _blocks_of(records: Iterable[CellRecord]) -> list[_Block]:
    """Blocks of records given one by one: one per run of records whose params share a layout."""
    blocks = []
    for keys, run in itertools.groupby(records, key=lambda rec: tuple(rec.params)):
        run = list(run)
        params = ([rec.params[key] for rec in run] for key in keys)
        fields = (list(map(attrgetter(name), run)) for name in _FIELDS)
        blocks.append(_block(keys, params, fields, len(run)))
    return blocks


class _Records(Sequence):
    """The cells of a list of blocks as CellRecords, built when read."""

    def __init__(self, blocks: list[_Block]) -> None:
        self._blocks = blocks
        self._ends = list(itertools.accumulate(block.size for block in blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("record index out of range")
        b = bisect.bisect_right(self._ends, i)
        at = i - (self._ends[b] - self._blocks[b].size)
        return _records(self._blocks[b], slice(at, at + 1))[0]

    def __iter__(self) -> Iterator[CellRecord]:
        for block in self._blocks:
            yield from _records(block)


def _int64(lo: int, hi: int) -> bool:
    return -(1 << 63) <= lo and hi < 1 << 63


def _plus(base: int, offsets: np.ndarray) -> np.ndarray:
    """base + offsets, in int64 where base and every sum fit, else in exact Python integers."""
    if not offsets.size or _int64(min(base, base + int(offsets.min())), max(base, base + int(offsets.max()))):
        return offsets + base
    return offsets.astype(object) + base


def _exact(values: list[int]) -> np.ndarray:
    """values as an int64 array where they all fit, else as exact Python integers."""
    fits = not values or _int64(min(values), max(values))
    return np.array(values, dtype=np.int64 if fits else object)


def _runs(sizes: int | list[int], *columns: list[int]) -> tuple[_Coded, ...]:
    """Columns of an outer loop over runs of cells: column[i] in each of the
    sizes[i] cells of run i (sizes cells each for an int), as codes into
    the column's values, one codes array for all the columns."""
    count = len(columns[0])
    codes = np.repeat(np.arange(count, dtype=np.min_scalar_type(count)), sizes)
    return tuple(_Coded(tuple(values), codes) for values in columns)


def _decoded(column: _Coded) -> np.ndarray:
    """The entries of a column of runs as an array, for arithmetic."""
    return _exact(list(column.labels))[column.codes]


# ---------------------------------------------------------------------------
# sweep targets
#
# A target's blocks(ranges) validates its ranges, then yields one
# (cell count, build) per block of its grid, in lexicographic order; build()
# makes the block.  A valuation target builds _Cells, whose cells run
# through _run_blocks; an exact-check target builds a finished _Block,
# running its check one cell at a time.


class _Cells(NamedTuple):
    """Valuation cells before evaluation: their params as in _Block, the
    query (n1, n2, k) of each cell as columns, asking for nu2(S(n1, k)) when
    n2 is None and for nu2(S(n1, k) - S(n2, k)) otherwise, and the claims."""

    keys: tuple[str, ...]
    params: tuple
    query: tuple
    claims: P.Claims
    size: int


class _Target(NamedTuple):
    name: str
    columns: tuple[str, ...]
    defaults: dict
    blocks: Callable[[dict], Iterator[tuple[int, Callable[[], _Cells | _Block]]]]


def _int_list(ranges: dict, key: str, floor: int | None = None) -> list[int]:
    values = sorted(set(int(v) for v in ranges[key]))
    if floor is not None and values and values[0] < floor:
        raise DomainError(f"range {key!r} needs values >= {floor}, got {values[0]}")
    return values


def _odd_list(ranges: dict, key: str) -> list[int]:
    values = _int_list(ranges, key)
    for c in values:
        if c < 1 or c % 2 == 0:
            raise DomainError(f"{key} must be odd and >= 1, got {c}")
    return values


def _pair_list(ranges: dict) -> list[tuple[int, int]]:
    pairs = sorted(set((int(a), int(b)) for a, b in ranges["pairs"]))
    for a, b in pairs:
        if not a > b >= 1:
            raise DomainError(f"difference pairs need a > b >= 1, got ({a}, {b})")
    return pairs


def _cells(keys: str, params: tuple, query: tuple, claims: P.Claims, size: int) -> _Cells:
    return _Cells(tuple(keys.split()), params, query, claims, size)


def _lengyel(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n, k)) = s2(k) - 1 for 1 <= k <= 2**n: a block per n."""
    ns, cs = _int_list(r, "n", floor=0), _int_list(r, "c", floor=1)
    for n in ns:
        yield len(cs) << n, partial(_lengyel_block, n, cs)


def _lengyel_block(n: int, cs: list[int]) -> _Cells:
    width = 1 << n
    c, big_n = _runs(width, cs, [c << n for c in cs])
    k = np.tile(np.arange(1, width + 1), len(cs))
    claims = P.LENGYEL_EQ.claims(_decoded(c), n, k)
    return _cells("n c k N", (n, c, k, big_n), (big_n, None, k), claims, k.size)


def _lower_sizes(n: int, cs: list[int]) -> list[int]:
    # every k <= c*2**n but the multiples of 2**(n+1)
    return [(c << n) - (c >> 1) for c in cs]


def _lower(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n, b*2**(n+1) + a)) >= s2(a) - 1 for every such k <= c*2**n,
    c odd: a block per n."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=0)
    for n in ns:
        yield sum(_lower_sizes(n, cs)), partial(_lower_block, n, cs)


def _lower_block(n: int, cs: list[int]) -> _Cells:
    sizes, low = _lower_sizes(n, cs), (1 << (n + 1)) - 1
    k = np.concatenate([np.arange(1, (c << n) + 1) for c in cs])
    k = k[(k & low) != 0]
    a, b = k & low, k >> (n + 1)
    c, big_n = _runs(sizes, cs, [c << n for c in cs])
    claims = P.LOWER.claims(_decoded(c), n, b, a)
    return _cells("n c b a k N", (n, c, b, a, k, big_n), (big_n, None, k), claims, k.size)


def _diagonal(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n, (c-1)*2**n + a)) = s2(a) - 1 for 1 <= a <= 2**n: a block per n."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=2)
    for n in ns:
        yield len(cs) << n, partial(_diagonal_block, n, cs)


def _diagonal_block(n: int, cs: list[int]) -> _Cells:
    width = 1 << n
    c, big_n, base = _runs(width, cs, [c << n for c in cs], [(c - 1) << n for c in cs])
    a = np.tile(np.arange(1, width + 1), len(cs))
    k = _decoded(base) + a
    claims = P.DIAGONAL.claims(_decoded(c), n, a)
    return _cells("n c a k N", (n, c, a, k, big_n), (big_n, None, k), claims, a.size)


def _triple(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**m + b*2**(n+1) + 2**n, b*2**(n+2) + a)), m from its least
    value on: a block per (n, b), of every (m, c) and a."""
    cs, offs = _odd_list(r, "c"), _int_list(r, "m_offsets", floor=0)
    ns, bs = _int_list(r, "n", floor=1), _int_list(r, "b", floor=1)
    for n, b in itertools.product(ns, bs):
        ms = [n + 2 + (b.bit_length() - 1) + off for off in offs]
        yield len(ms) * len(cs) * ((2 << n) - 1), partial(_triple_block, n, b, ms, cs)


def _triple_block(n: int, b: int, ms: list[int], cs: list[int]) -> _Cells:
    width, outer = (2 << n) - 1, list(itertools.product(ms, cs))
    m, c, big_n = _runs(
        width,
        [m for m, _ in outer],
        [c for _, c in outer],
        [(c << m) + (b << (n + 1)) + (1 << n) for m, c in outer],
    )
    a = np.tile(np.arange(1, width + 1), len(outer))
    k = _plus(b << (n + 2), a)
    claims = P.SHIFTED_TRIPLE.claims(_decoded(c), _decoded(m), b, n, a)
    return _cells("n b m c a k N", (n, b, m, c, a, k, big_n), (big_n, None, k), claims, a.size)


def _diff_ks(n: int) -> np.ndarray:
    """3 <= k <= 2**n without the k = 2**m - 1: 2**n - n - 1 of them."""
    k = np.arange(3, (1 << n) + 1)
    return k[(k & (k + 1)) != 0]


def _difference(r: dict) -> Iterator[tuple]:
    """nu2(S(a*2**n, k) - S(b*2**n, k)) for 3 <= k <= 2**n, k not 2**m - 1:
    a block per pair."""
    pairs, ns = _pair_list(r), _int_list(r, "n", floor=2)
    for a, b in pairs:
        yield sum((1 << n) - n - 1 for n in ns), partial(_difference_block, a, b, ns)


def _difference_block(a: int, b: int, ns: list[int]) -> _Cells:
    k = np.concatenate([_diff_ks(n) for n in ns])
    n, n1, n2 = _runs([(1 << n) - n - 1 for n in ns], ns, [a << n for n in ns], [b << n for n in ns])
    claims = P.DIFFERENCE.claims(a, b, _decoded(n), k)
    return _cells("a b n k N1 N2", (a, b, n, k, n1, n2), (n1, n2, k), claims, k.size)


def _shifted_power(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n + 2**m, 2**n)) = n - 1 - m for 0 <= m < n: a block per c."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=1)
    for c in cs:
        yield sum(ns), partial(_shifted_power_block, c, ns)


def _shifted_power_block(c: int, ns: list[int]) -> _Cells:
    grid = [(n, m) for n in ns for m in range(n)]
    n, m = _exact([n for n, _ in grid]), _exact([m for _, m in grid])
    big_n = _exact([(c << n) + (1 << m) for n, m in grid])
    k = _exact([1 << n for n, _ in grid])
    claims = P.SHIFTED_POWER.claims(c, n, m)
    return _cells("c n m N k", (c, n, m, big_n, k), (big_n, None, k), claims, len(grid))


def _theta(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n - a, k - 2a)) from the top-run lemma: a block per (c, n) of
    every k in 3..2**n but the powers of two and the k = 2**m - 1, and for
    each k every a in 1..ceil(k/2) - 1."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=2)
    for c, n in itertools.product(cs, ns):
        # sum over k <= 2**n of ceil(k/2) - 1, less 2**(j-1) - 1 twice for each 2 <= j <= n
        half = 1 << (n - 1)
        yield half * (half - 1) - ((2 << n) - 2 * n - 2), partial(_theta_block, c, n)


def _theta_block(c: int, n: int) -> _Cells:
    ks = np.arange(3, (1 << n) + 1)
    ks = ks[((ks & (ks - 1)) != 0) & ((ks & (ks + 1)) != 0)]
    counts = (ks + 1) // 2 - 1
    k = np.repeat(ks, counts)
    a = np.arange(k.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    arg_n, arg_k = _plus(c << n, -a), k - 2 * a
    claims = P.THETA.claims(c, n, a, k)
    return _cells("c n k a arg_n arg_k", (c, n, k, a, arg_n, arg_k), (arg_n, None, arg_k), claims, k.size)


def _check_block(keys: str, params: tuple, source: str, claim_kind: str, holds: list) -> _Block:
    """A block of exact-check cells whose checks returned holds, one truth value per cell."""
    ok = np.array(holds, dtype=bool)
    verdict = np.where(ok, VERDICT_ORDER.index(CONFIRMED), VERDICT_ORDER.index(VIOLATED))
    fields = (source, claim_kind, None, "boolean", ok.astype(np.int64), _Coded(VERDICT_ORDER, verdict))
    return _block(keys.split(), params, fields, ok.size)


def _junod(r: dict) -> Iterator[tuple]:
    """Junod's Bell-polynomial congruence: one block."""
    ps, vs = _int_list(r, "p", floor=2), _int_list(r, "v", floor=1)
    ms, ns = _int_list(r, "m", floor=0), _int_list(r, "n", floor=1)
    yield len(ps) * len(vs) * len(ms) * len(ns), partial(_junod_block, ps, vs, ms, ns)


def _junod_block(ps: list[int], vs: list[int], ms: list[int], ns: list[int]) -> _Block:
    grid = list(itertools.product(ps, vs, ms, ns))
    results = [junod_check(m, n, v, p) for p, v, m, n in grid]
    params = [_exact(list(column)) for column in zip(*grid)]
    slack = [str(slack) for _, slack in results]
    holds = [holds for holds, _ in results]
    return _check_block("p v m n slack", (*params, slack), "Lem-Junod", "congruence", holds)


def _identities(r: dict) -> Iterator[tuple]:
    """The convolution and symmetric product identities: a block per n and per k1."""
    conv_n, conv_m = _int_list(r, "conv_n", floor=0), _int_list(r, "conv_m", floor=1)
    sym_k1, sym_k2 = _int_list(r, "sym_k1", floor=0), _int_list(r, "sym_k2", floor=0)
    for n in conv_n:
        yield sum(n + m + 1 for m in conv_m), partial(_convolution_block, n, conv_m)
    for k1 in sym_k1:
        yield sum(min(k1, k2) + 1 for k2 in sym_k2), partial(_symmetric_block, k1, sym_k2)


def _convolution_block(n: int, ms: list[int]) -> _Block:
    grid = [(m, k) for m in ms for k in range(n + m + 1)]
    holds = [check_convolution(n, m, k) for m, k in grid]
    params = ("convolution", n, _exact([m for m, _ in grid]), _exact([k for _, k in grid]))
    return _check_block("identity n m k", params, "Lem-Convolution", "identity", holds)


def _symmetric_block(k1: int, k2s: list[int]) -> _Block:
    grid = [(k2, r) for k2 in k2s for r in range(max(k1, k2) + 2, k1 + k2 + 3)]
    holds = [check_symmetric_identity(k1, k2, r) for k2, r in grid]
    params = ("symmetric", k1, _exact([k2 for k2, _ in grid]), _exact([r for _, r in grid]))
    return _check_block("identity k1 k2 r", params, "Lem-SymmetricProduct", "identity", holds)


def _count_j(r: dict) -> Iterator[tuple]:
    """The closed-form |J| against enumeration: a block per n."""
    for n in _int_list(r, "n", floor=0):
        yield (2 << n) - 1, partial(_count_j_block, n)


def _count_j_block(n: int) -> _Block:
    a = np.arange(1, 2 << n)
    claimed = np.array([count_J(n, x) for x in a.tolist()], dtype=np.int64)
    observed = np.array([len(brute_force_J(n, x)) for x in a.tolist()], dtype=np.int64)
    verdict = np.where(claimed == observed, VERDICT_ORDER.index(CONFIRMED), VERDICT_ORDER.index(VIOLATED))
    fields = ("Lem-CountJ", "count", claimed, "count", observed, _Coded(VERDICT_ORDER, verdict))
    return _block(("n", "a"), (n, a), fields, a.size)


def _diff_congruence(r: dict) -> Iterator[tuple]:
    """The binomial-sum congruence behind the difference formula: a block per (pair, n)."""
    pairs, ns = _pair_list(r), _int_list(r, "n", floor=2)
    for (a, b), n in itertools.product(pairs, ns):
        yield (1 << n) - n - 1, partial(_diff_congruence_block, a, b, n)


def _diff_congruence_block(a: int, b: int, n: int) -> _Block:
    k = _diff_ks(n)
    holds = [check_diff_congruence(a, b, n, kk) for kk in k.tolist()]
    params = (a, b, n, k, n + nu2_int(a - b))
    return _check_block("a b n k mod_bits", params, "Lem-DiffCongruence", "congruence", holds)


_TARGETS: dict[str, _Target] = {
    target.name: target
    for target in (
        _Target(
            "lengyel-eq",
            ("n", "c", "k", "N"),
            {"n": list(range(1, 10)), "c": [1, 3, 5, 7]},
            _lengyel,
        ),
        _Target(
            "thm-lower",
            ("n", "c", "b", "a", "k", "N"),
            {"n": list(range(1, 8)), "c": [1, 3, 5, 7, 9]},
            _lower,
        ),
        _Target(
            "thm-diagonal",
            ("n", "c", "a", "k", "N"),
            {"n": list(range(2, 10)), "c": [1, 3, 5, 7]},
            _diagonal,
        ),
        _Target(
            "thm-shifted-triple",
            ("n", "b", "m", "c", "a", "k", "N"),
            {"n": list(range(1, 6)), "b": list(range(1, 8)), "c": [1, 3], "m_offsets": [0, 1, 2]},
            _triple,
        ),
        _Target(
            "thm-difference",
            ("a", "b", "n", "k", "N1", "N2"),
            {"n": list(range(2, 9)), "pairs": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]},
            _difference,
        ),
        _Target(
            "lem-shifted-power",
            ("c", "n", "m", "N", "k"),
            {"c": [1, 3, 5], "n": list(range(1, 9))},
            _shifted_power,
        ),
        _Target(
            "lem-theta",
            ("c", "n", "k", "a", "arg_n", "arg_k"),
            {"c": [1, 3], "n": list(range(3, 8))},
            _theta,
        ),
        _Target(
            "junod",
            ("p", "v", "m", "n", "slack"),
            {"p": [2], "v": [1, 2], "m": list(range(0, 9)), "n": list(range(1, 9))},
            _junod,
        ),
        _Target(
            "identities",
            ("identity", "n", "m", "k", "k1", "k2", "r"),
            {
                "conv_n": list(range(0, 13)),
                "conv_m": list(range(1, 13)),
                "sym_k1": list(range(0, 7)),
                "sym_k2": list(range(0, 7)),
            },
            _identities,
        ),
        _Target("count-J", ("n", "a"), {"n": list(range(0, 9))}, _count_j),
        _Target(
            "diff-congruence",
            ("a", "b", "n", "k", "mod_bits"),
            {"n": list(range(2, 7)), "pairs": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]},
            _diff_congruence,
        ),
    )
}


def sweep_targets() -> tuple[str, ...]:
    return tuple(_TARGETS)


def default_ranges(target: str) -> dict:
    if target not in _TARGETS:
        raise DomainError(f"unknown sweep target {target!r}")
    return {k: list(v) for k, v in _TARGETS[target].defaults.items()}


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class SweepConfig:
    target: str
    ranges: dict = field(default_factory=dict)
    policy: PrecisionPolicy = field(default_factory=PrecisionPolicy)
    workers: int = 1  # only 1 is accepted; see _one_process
    cell_cap: int = DEFAULT_CELL_CAP


def _json_scalar(value: object) -> str:
    """A str, int, float, bool or None as json.dumps writes it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    raise TypeError(
        f"report values must be str, int, float, bool or None, got {type(value).__name__}"
    )


def _csv_field(value: object) -> str:
    return "" if value is None else str(value)


_SPAN = 1 << 14  # the most records whose texts are held at once
_BATCH = 1 << 22  # characters of report text joined before they are appended


class _Memo:
    """fn(0), fn(1), fn(2), ... as an object array, grown on demand up to _MEMO_CAP entries."""

    def __init__(self, fn: Callable[[int], object]) -> None:
        self._fn = fn
        self._values = np.empty(0, dtype=object)

    def below(self, bound: int) -> np.ndarray:
        if bound > self._values.size:
            size = min(_MEMO_CAP, max(bound, 2 * self._values.size))
            self._values = np.array(list(map(self._fn, range(size))), dtype=object)
        return self._values


_MEMO_CAP = 1 << 12  # small naturals, as k mostly is: larger ones are few per grid or sparse
_DECIMALS = _Memo(int.__repr__)  # the texts of naturals, shared by the writers
_INTS = _Memo(int)  # Python integers, one object per value, shared by the queries


def _texts(column: np.ndarray | _Coded, span: slice, convert: Callable[[object], str]) -> str | list[str]:
    """The texts of a column's entries in span: one str when they are all equal.

    A _Coded column is read off the texts of its labels, without a look at
    its codes when it has one label.  An integer column is written with
    int.__repr__, as both writers write an int, and an int64 one read off
    _DECIMALS where its entries are naturals below _MEMO_CAP.
    """
    if isinstance(column, _Coded):
        if len(column.labels) == 1:
            return convert(column.labels[0])
        codes = column.codes[span]
        low, high = int(codes.min()), int(codes.max())
        if low == high:
            return convert(column.labels[low])
        table = np.array(list(map(convert, column.labels[low : high + 1])), dtype=object)
        return table[codes - low].tolist()
    values = column[span]
    if column.dtype != object:
        low, high = int(values.min()), int(values.max())
        if low == high:
            return int.__repr__(low)
        if 0 <= low and high < _MEMO_CAP:
            return _DECIMALS.below(high + 1)[values].tolist()
    return list(map(int.__repr__, values.tolist()))


def _joined(pieces: list, sep: str, count: int, lead: str) -> str:
    """lead, then count records joined by sep, each the concatenation of pieces:
    a str is the same in every record, a list holds one str per record."""
    parts = [""]  # literal, column, literal, ..., column, literal
    for piece in pieces:
        if isinstance(piece, str):
            parts[-1] += piece
        else:
            parts += [piece, ""]
    if len(parts) == 1:
        return lead + sep.join(repeat(parts[0], count))
    literals, columns = parts[0::2], parts[1::2]
    stride = 2 * len(columns)
    # literals[0], then per record: column 0, literal 1, column 1, ..., the last column and
    # the text between two records; the last record ends with the last literal instead
    flat = [literals[-1] + sep + literals[0]] * (stride * count + 1)
    flat[0], flat[-1] = lead + literals[0], literals[-1]
    for i, column in enumerate(columns):
        flat[1 + 2 * i :: stride] = column
        if i:
            flat[2 * i :: stride] = [literals[i]] * count
    return "".join(flat)


def _json_pieces(block: _Block, span: slice) -> list:
    """The pieces (see _joined) of the records in span of a block as SweepReport.to_json writes them."""
    pieces = ['{\n      "params": {']
    for i, (key, column) in enumerate(zip(block.keys, block.params)):
        # a key that is not a str raises TypeError here, as json.dumps would for the record
        name = encode_basestring_ascii(key)
        text = _texts(column, span, _json_scalar)
        pieces += [(",\n        " if i else "\n        ") + name + ": ", text]
    pieces.append("\n      }," if block.keys else "},")
    for name, column in zip(_FIELDS, block.fields):
        pieces += [f'\n      "{name}": ', _texts(column, span, _json_scalar), ","]
    pieces[-1] = "\n    }"
    return pieces


def _csv_pieces(columns: tuple[str, ...], block: _Block, span: slice) -> list:
    """The pieces (see _joined) of the lines of the records in span of a block in SweepReport.to_csv."""
    params = dict(zip(block.keys, block.params))
    pieces: list = []
    for name in columns:
        pieces += [_texts(params[name], span, str) if name in params else "", ","]
    for column in block.fields:
        pieces += [_texts(column, span, _csv_field), ","]
    return pieces[:-1]


def _report(
    head: str, blocks: list[_Block], pieces: Callable, sep: str, first: str, tail: str
) -> str:
    """head, first, the records of the blocks joined by sep, and tail.

    The records are written at most _SPAN of a block at a time, from
    pieces(block, span) (see _joined), and joined in batches of about
    _BATCH characters; each batch past the first is appended to the text so
    far.  CPython appends in place to a str that nothing else holds, and a
    block that large grows in place, so a large report is held about once,
    not twice as a list of its parts and their join hold it.
    """
    text, batch, size, lead = "", [head], len(head), first
    for block in blocks:
        for lo in range(0, block.size, _SPAN):
            count = min(_SPAN, block.size - lo)
            batch.append(_joined(pieces(block, slice(lo, lo + count)), sep, count, lead))
            size, lead = size + len(batch[-1]), sep
            if size >= _BATCH:
                text += "".join(batch)
                batch, size = [], 0
    batch.append(tail)
    text += "".join(batch)
    return text


class SweepReport:
    """Deterministic sweep outcome; runtime metadata stays out of serialization.

    The cells are held as column blocks (see _Block), each with one params
    layout; a list of CellRecord given as records is converted to blocks
    once.  records reads as a sequence of CellRecord, each built from the
    blocks when read; its length, summary, exit_code and cells(verdict)
    read the blocks' columns and build no record they do not return.  The
    writers read the blocks a column at a time.
    """

    def __init__(
        self,
        target: str,
        config: dict,
        columns: tuple[str, ...],
        records: Iterable[CellRecord] = (),
        engine: str = ENGINE_TAG,
        runtime_seconds: float | None = None,
        *,
        blocks: list[_Block] | None = None,
    ) -> None:
        self.target = target
        self.config = config
        self.columns = columns
        self.engine = engine
        self.runtime_seconds = runtime_seconds
        self.blocks = _blocks_of(records) if blocks is None else blocks

    @property
    def records(self) -> Sequence[CellRecord]:
        return _Records(self.blocks)

    @property
    def summary(self) -> dict:
        counts = {v: 0 for v in VERDICT_ORDER}
        for block in self.blocks:
            verdicts = block.fields[-1]
            tally = np.bincount(verdicts.codes, minlength=len(verdicts.labels)).tolist()
            for verdict, count in zip(verdicts.labels, tally):
                counts[verdict] += count
        return {"cells": sum(block.size for block in self.blocks), **counts}

    @property
    def exit_code(self) -> int:
        summary = self.summary
        return verdict_exit_code({v for v in VERDICT_ORDER if summary[v]})

    def cells(self, *verdicts: str) -> list[CellRecord]:
        """The records whose verdict is one of verdicts, in report order."""
        out: list[CellRecord] = []
        for block in self.blocks:
            column = block.fields[-1]
            wanted = [i for i, label in enumerate(column.labels) if label in verdicts]
            out += _records(block, np.flatnonzero(np.isin(column.codes, wanted)))
        return out

    def to_csv(self) -> str:
        """One line per record: its params at the report's columns ("" where a
        record has none), then the six claim fields, None written as ""."""
        header = ",".join([*self.columns, *_FIELDS]) + "\n"
        pieces = partial(_csv_pieces, self.columns)
        return _report(header, self.blocks, pieces, "\n", "", "\n" if self.blocks else "")

    def to_json(self, include_runtime: bool = False) -> str:
        """The report as JSON, byte for byte what json.dumps(obj, indent=2)
        gives for the object with the header fields, "records" (one object
        per record: "params" and the six claim fields) and, when asked for,
        "runtime".

        The header goes through json.dumps; the records are written from
        their fixed layout by _json_pieces, because json.dumps with an
        indent runs the pure-Python encoder.  A record field or param value
        must be a str, int, float, bool or None, and a param key a str:
        anything else raises TypeError.
        """
        header = {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "engine": self.engine,
            "config": self.config,
            "summary": self.summary,
        }
        # the header's own closing "\n}" comes after the records
        head = json.dumps(header, indent=2)[:-2] + ',\n  "records": '
        tail = "\n}\n"
        if include_runtime:
            seconds = _json_scalar(self.runtime_seconds)
            tail = f',\n  "runtime": {{\n    "seconds": {seconds}\n  }}' + tail
        if not self.blocks:
            return head + "[]" + tail
        return _report(head, self.blocks, _json_pieces, ",\n    ", "[\n    ", "\n  ]" + tail)


def _config_echo(target: str, ranges: dict, policy: PrecisionPolicy) -> dict:
    echo_ranges = {
        key: [list(v) if isinstance(v, (tuple, list)) else v for v in values]
        for key, values in sorted(ranges.items())
    }
    return {
        "target": target,
        "ranges": echo_ranges,
        "policy": {"initial_bits": policy.initial_bits, "max_bits": policy.max_bits},
    }


def _one_process(workers: int) -> None:
    """Refuse any worker count but 1.

    The process pool was removed; the workers keyword of SweepConfig,
    scan_conjecture_mersenne and cross_validate stays only because the
    benchmark harness in bench/ passes workers=1.
    """
    if workers != 1:
        raise DomainError(f"workers must be 1 (the process pool was removed), got {workers}")


def _column_list(column: np.ndarray | _Coded | None, size: int) -> Iterable:
    """A query column's entries, int64 naturals below _MEMO_CAP and the values
    of a _Coded column as shared int objects; None (no second row) in each cell."""
    if column is None:
        return repeat(None, size)
    if isinstance(column, _Coded):
        return np.array(column.labels, dtype=object)[column.codes].tolist()
    if column.dtype != object and 0 <= column.min() and column.max() < _MEMO_CAP:
        return _INTS.below(int(column.max()) + 1)[column].tolist()
    return column.tolist()


def _folded(labels: tuple, codes: np.ndarray, size: int) -> _Coded:
    """The column of labels[codes] over size cells (codes is 0-d when they all
    have the same), with the one label alone when every code is the same."""
    if codes.ndim == 0 or codes.min() == codes.max():
        return _Coded((labels[codes.flat[0]],), _ZEROS[:size])
    return _Coded(labels, codes)


def _run_blocks(blocks: list[_Cells], policy: PrecisionPolicy) -> list[_Block]:
    """Evaluate and classify blocks of valuation cells.

    The queries of every block, zipped from their columns, go to one
    valuations() call.  The observed valuations, the claims and the
    verdicts are then each one column over all cells, cut into the blocks.
    """
    queries: list[tuple] = []
    for block in blocks:
        queries += zip(*(_column_list(column, block.size) for column in block.query))
    vals = valuations(queries, policy)
    observed = list(map(vals.__getitem__, queries))
    del queries, vals
    # valuations shares one Valuation per value, so the distinct objects are few
    ids = np.fromiter(map(id, observed), dtype=np.uintp, count=len(observed))
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    distinct = [observed[i] for i in first.tolist()]
    index = index.astype(np.min_scalar_type(len(distinct)))
    del observed, ids
    value_labels = tuple(v.value for v in distinct)
    observed_kind = np.array([_OBSERVED_KINDS.index(v.kind) for v in distinct], np.int8)[index]
    observed_value = np.array([value or 0 for value in value_labels], np.int64)[index]

    claim_kind = np.concatenate([np.broadcast_to(b.claims.kind, b.size) for b in blocks])
    claim_value = np.concatenate([np.broadcast_to(b.claims.value, b.size) for b in blocks])
    side = np.sign(observed_value - claim_value) + 1
    verdict = _VERDICTS[claim_kind, observed_kind, side]

    # a column that holds one value in every cell of the sweep has one label in every block
    kinds = _folded(_OBSERVED_KINDS, observed_kind, verdict.size)
    verdicts = _folded(VERDICT_ORDER, verdict, verdict.size)
    out = []
    for block, end in zip(blocks, itertools.accumulate(block.size for block in blocks)):
        cut, claims = slice(end - block.size, end), block.claims
        fields = (
            _folded(P.SOURCES, claims.source, block.size),
            _folded(P.CLAIM_KINDS, claims.kind, block.size),
            int(claims.value) if claims.value.ndim == 0 else claims.value,
            _Coded(kinds.labels, kinds.codes[cut]),
            _Coded(value_labels, index[cut]),
            _Coded(verdicts.labels, verdicts.codes[cut]),
        )
        out.append(_block(block.keys, block.params, fields, block.size))
    return out


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run one sweep target over its grid and classify every cell.

    The grid's cell count is summed from its blocks' closed-form counts,
    before any block is built, and the grid is refused as soon as the sum
    passes config.cell_cap.  A negative cap is refused before that.
    """
    _one_process(config.workers)
    if config.cell_cap < 0:
        raise DomainError(f"cell cap must be >= 0, got {config.cell_cap}")
    if config.target not in _TARGETS:
        raise DomainError(f"unknown sweep target {config.target!r}")
    target = _TARGETS[config.target]
    unknown = set(config.ranges) - set(target.defaults)
    if unknown:
        raise DomainError(f"unknown range parameter(s) for {config.target}: {sorted(unknown)}")
    ranges = {**target.defaults, **config.ranges}
    plan, total = [], 0
    for size, build in target.blocks(ranges):
        total += size
        if total > config.cell_cap:
            raise ResourceCapError(f"grid has more cells than the cap of {config.cell_cap}")
        if size:
            plan.append(build)
    start = time.perf_counter()
    built = [build() for build in plan]
    cells = [block for block in built if isinstance(block, _Cells)]
    evaluated = iter(_run_blocks(cells, config.policy) if cells else ())
    blocks = [next(evaluated) if isinstance(block, _Cells) else block for block in built]
    return SweepReport(
        target=config.target,
        config=_config_echo(config.target, ranges, config.policy),
        columns=target.columns,
        runtime_seconds=time.perf_counter() - start,
        blocks=blocks,
    )


# ---------------------------------------------------------------------------
# difference congruence (exact)


def check_diff_congruence(a: int, b: int, n: int, k: int) -> bool:
    """Exact check of the congruence

        S(a*2**n, k) - S(b*2**n, k)
            = sum_{i=1..ceil(k/2)-1} C((a-b)*2**n, i) S(b*2**n - i, k - 2i)
                                                    (mod 2**(n + nu2(a-b)))

    for a > b >= 1 and 3 <= k <= 2**n.  Both sides are evaluated with exact
    integers, read off the shared exact triangle.  The congruence derives
    from the Bell-polynomial congruence applied with shift (2b-a)*2**n, so
    it is only guaranteed for a <= 2b; the check evaluates whatever it is
    given.
    """
    if b < 1 or a <= b:
        raise DomainError(f"need a > b >= 1, got a={a}, b={b}")
    if k < 3 or k > (1 << n):
        raise DomainError(f"need 3 <= k <= 2**n, got k={k}, n={n}")
    mod = 1 << (n + nu2_int(a - b))
    table = stirling_exact_table(a << n, k)
    base = b << n
    lhs = table[a << n][k] - table[base][k]
    rhs = 0
    for i in range(1, -(-k // 2)):
        rhs += math.comb((a - b) << n, i) * table[base - i][k - 2 * i]
    return (lhs - rhs) % mod == 0


# ---------------------------------------------------------------------------
# conjecture scanner (the open Mersenne-shaped case)

_SCANNER_COLUMNS = ("n", "m", "a", "b", "k", "arg_n1", "arg_n2")
DEFAULT_SCANNER_POLICY = PrecisionPolicy(initial_bits=48, max_bits=8192)


def _scan_block(n: int, ms: list[int], pairs: list[tuple[int, int]]) -> _Cells:
    """The cells of one n: for each m, every pair."""
    exp = n + 1  # cells use arguments a*2**(n+1); records echo them raw
    size = len(ms) * len(pairs)

    def per_pair(values: list[int]) -> np.ndarray:
        return np.tile(_exact(values), len(ms))

    m, k = _runs(len(pairs), ms, [(1 << x) - 1 for x in ms])
    a, b = per_pair([a for a, _ in pairs]), per_pair([b for _, b in pairs])
    n1, n2 = per_pair([a << exp for a, _ in pairs]), per_pair([b << exp for _, b in pairs])
    claims = P.DIFFERENCE.claims(a, b, exp, _decoded(k))
    return _cells("n m a b k arg_n1 arg_n2", (n, m, a, b, k, n1, n2), (n1, n2, k), claims, size)


def scan_conjecture_mersenne(
    n_values: Iterable[int],
    pairs: Iterable[tuple[int, int]],
    m_values: Iterable[int] | None = None,
    policy: PrecisionPolicy | None = None,
    workers: int = 1,
) -> SweepReport:
    """Scan the conjectured difference valuation at k = 2**m - 1.

    Cells compare nu2(S(a*2**(n+1), k) - S(b*2**(n+1), k)) with the
    conjectured (n+1) + 1 + nu2(a-b) for every k = 2**m - 1 <= 2**n.  The
    record echoes the raw Stirling arguments so either indexing convention
    can be re-derived.  Mismatches are conjecture deviations, never
    violations: this case is open.  The cells of each n are one block.
    """
    _one_process(workers)
    policy = policy or DEFAULT_SCANNER_POLICY
    ranges = {"n": n_values, "pairs": pairs, "m": m_values}
    ns, pair_list = _int_list(ranges, "n", floor=2), _pair_list(ranges)
    wanted_m = None if m_values is None else _int_list(ranges, "m", floor=2)
    start = time.perf_counter()
    cells = []
    for n in ns:
        ms = [m for m in wanted_m or range(2, n + 1) if (1 << m) - 1 <= 1 << n]
        if ms and pair_list:
            cells.append(_scan_block(n, ms, pair_list))
    config = {
        "target": "conjecture-mersenne",
        "ranges": {
            "n": ns,
            "pairs": [list(p) for p in pair_list],
            "m": wanted_m if wanted_m is not None else "auto",
        },
        "policy": {"initial_bits": policy.initial_bits, "max_bits": policy.max_bits},
    }
    return SweepReport(
        target="conjecture-mersenne",
        config=config,
        columns=_SCANNER_COLUMNS,
        runtime_seconds=time.perf_counter() - start,
        blocks=_run_blocks(cells, policy) if cells else [],
    )


# ---------------------------------------------------------------------------
# cross-engine validation


def cross_validate(
    n_max: int = 400,
    k_max: int = 64,
    bits_list: Iterable[int] = (8, 32, 64),
    workers: int = 1,
) -> SweepReport:
    """Check recurrence, explicit-formula, and exact engines against each other.

    One record per (bits, n) covering every k <= min(n, k_max); a record is
    violated iff any k disagrees (the first offending k is echoed).  Each
    precision makes one recurrence pass and one explicit row sequence over
    n <= n_max, compared row by row with the exact rows, which are read
    once; its records are one block.  Inputs past the exact engine's cap,
    the explicit rows' cap on k_max, below 1 bit, or with no precision at
    all (which would confirm nothing) are refused before any work.
    """
    _one_process(workers)
    if n_max < 0 or k_max < 0:
        raise DomainError("need n_max, k_max >= 0")
    if n_max > DEFAULT_EXACT_CAP:
        raise ResourceCapError(f"exact engine capped at n <= {DEFAULT_EXACT_CAP}, got n_max={n_max}")
    bits_values = sorted(set(int(b) for b in bits_list))
    if not bits_values:
        raise DomainError("need at least one precision in bits_list")
    start = time.perf_counter()
    # the explicit rows check k_max and bits at the call, before their first row
    explicit = {bits: stirling_explicit_rows_mod2(n_max, k_max, bits) for bits in bits_values}
    exact = stirling_exact_table(n_max, min(n_max, k_max))
    n = np.arange(n_max + 1)
    tops = np.minimum(n, k_max)  # the last k of each row
    blocks = []
    for bits in bits_values:
        rows = stirling_rows_mod2(range(n_max + 1), k_max, bits)
        mask = (1 << bits) - 1
        first_bad: list[int | str] = []
        for i, explicit_row in enumerate(explicit[bits]):
            top = min(i, k_max) + 1
            row, expected = rows[i], list(map(mask.__and__, exact[i][:top]))
            if row[:top] != expected or explicit_row[:top] != expected:
                first_bad.append(
                    next(
                        k
                        for k, (e, r, x) in enumerate(zip(expected, row, explicit_row))
                        if r != e or x != e
                    )
                )
            else:
                first_bad.append("")
        holds = [bad == "" for bad in first_bad]
        params = (bits, n, tops, first_bad)
        blocks.append(
            _check_block("bits n k_max first_mismatch", params, "Id-CrossEngine", "agreement", holds)
        )
    config = {
        "target": "cross-validate",
        "ranges": {"n_max": n_max, "k_max": k_max, "bits": bits_values},
        "policy": None,
    }
    return SweepReport(
        target="cross-validate",
        config=config,
        columns=("bits", "n", "k_max", "first_mismatch"),
        runtime_seconds=time.perf_counter() - start,
        blocks=blocks,
    )
