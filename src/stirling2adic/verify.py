"""Grid sweeps comparing the closed-form predictors to the modular engine,
identity suites, the difference-congruence check, and a scanner for the open
Mersenne-shaped case.

Reports are deterministic: cells are emitted in lexicographic parameter
order, runtime metadata is kept out of the serialized record section, and
worker parallelism cannot affect output bytes (shards are merged by sort).
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ._version import __version__
from .base2 import Valuation, count_J, brute_force_J, is_power_of_two, nu2_int, s2
from .bell import junod_check
from .engine import (
    DEFAULT_EXACT_CAP,
    PrecisionPolicy,
    check_convolution,
    check_symmetric_identity,
    stirling_exact,
    stirling_explicit_row_mod2,
    stirling_row_mod2,
    stirling_rows_mod2,
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
]

SCHEMA_VERSION = "1"
ENGINE_TAG = f"stirling2adic {__version__}"

CONFIRMED = "confirmed"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"
CONJECTURE_OBSERVED = "conjecture-observed"
CONJECTURE_DEVIATION = "conjecture-deviation"

_VERDICT_ORDER = (
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
    order: tuple = field(default=(), repr=False, compare=False)


def _observed_fields(v: Valuation) -> tuple[str, int | None]:
    return v.kind, v.value


def _record(params: dict, pred: P.Prediction, observed: Valuation, order: tuple) -> CellRecord:
    kind, value = _observed_fields(observed)
    return CellRecord(
        params=params,
        source=pred.source,
        claim_kind=pred.kind,
        claim_value=pred.value,
        observed_kind=kind,
        observed_value=value,
        verdict=classify(pred.kind, pred.value, observed),
        order=order,
    )


def _bool_record(
    params: dict, source: str, claim_kind: str, holds: bool, order: tuple
) -> CellRecord:
    return CellRecord(
        params=params,
        source=source,
        claim_kind=claim_kind,
        claim_value=None,
        observed_kind="boolean",
        observed_value=int(holds),
        verdict=CONFIRMED if holds else VIOLATED,
        order=order,
    )


# ---------------------------------------------------------------------------
# batched observations with adaptive escalation


def _vals_for_row(big_n: int, ks: Sequence[int], policy: PrecisionPolicy) -> dict[int, Valuation]:
    """nu2(S(big_n, k)) for many k sharing one recurrence row per precision."""
    out: dict[int, Valuation] = {}
    pending = list(ks)
    for bits in policy.ladder():
        if not pending:
            break
        row = stirling_row_mod2(big_n, max(pending), bits)
        still = []
        for k in pending:
            if row[k]:
                out[k] = Valuation.finite(nu2_int(row[k]))
            else:
                still.append(k)
        pending = still
    for k in pending:
        out[k] = Valuation.at_least(policy.max_bits)
    return out


def _diff_vals(
    n1: int, n2: int, ks: Sequence[int], policy: PrecisionPolicy
) -> dict[int, Valuation]:
    """nu2(S(n1, k) - S(n2, k)) for many k at shared precision."""
    out: dict[int, Valuation] = {}
    pending = list(ks)
    for bits in policy.ladder():
        if not pending:
            break
        rows = stirling_rows_mod2((n1, n2), max(pending), bits)
        mask = (1 << bits) - 1
        still = []
        for k in pending:
            d = (rows[n1][k] - rows[n2][k]) & mask
            if d:
                out[k] = Valuation.finite(nu2_int(d))
            else:
                still.append(k)
        pending = still
    for k in pending:
        out[k] = Valuation.at_least(policy.max_bits)
    return out


# ---------------------------------------------------------------------------
# sweep targets


@dataclass(frozen=True)
class _Target:
    name: str
    columns: tuple[str, ...]
    defaults: dict
    shards: Callable[[dict], list]
    evaluate: Callable[[tuple, dict, PrecisionPolicy], list[CellRecord]]
    count: Callable[[dict], int]


def _int_list(ranges: dict, key: str, floor: int | None = None) -> list[int]:
    values = sorted(set(int(v) for v in ranges[key]))
    if floor is not None and values and values[0] < floor:
        raise DomainError(f"range {key!r} needs values >= {floor}, got {values[0]}")
    return values


def _pair_list(ranges: dict) -> list[tuple[int, int]]:
    pairs = sorted(set((int(a), int(b)) for a, b in ranges["pairs"]))
    for a, b in pairs:
        if not a > b >= 1:
            raise DomainError(f"difference pairs need a > b >= 1, got ({a}, {b})")
    return pairs


def _require_odd(values: Iterable[int], what: str) -> None:
    for c in values:
        if c < 1 or c % 2 == 0:
            raise DomainError(f"{what} must be odd and >= 1, got {c}")


# -- lengyel-eq: nu2(S(c*2**n, k)) = s2(k) - 1 for 1 <= k <= 2**n

def _sh_lengyel(r: dict) -> list:
    return [(n, c) for n in _int_list(r, "n", floor=0) for c in _int_list(r, "c", floor=1)]


def _ev_lengyel(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    n, c = shard
    big_n = c << n
    ks = range(1, (1 << n) + 1)
    vals = _vals_for_row(big_n, list(ks), policy)
    recs = []
    for k in ks:
        pred = P.Prediction(P.EQUALITY, s2(k) - 1, P.SRC_LEM_LENGYEL_EQ)
        params = {"n": n, "c": c, "k": k, "N": big_n}
        recs.append(_record(params, pred, vals[k], (n, c, k)))
    return recs


def _ct_lengyel(r: dict) -> int:
    return sum((1 << n) for n in _int_list(r, "n")) * len(_int_list(r, "c"))


# -- thm-lower: nu2(S(c*2**n, b*2**(n+1) + a)) >= s2(a) - 1

def _sh_lower(r: dict) -> list:
    cs = _int_list(r, "c")
    _require_odd(cs, "c")
    return [(n, c) for n in _int_list(r, "n", floor=0) for c in cs]


def _cells_lower(n: int, c: int) -> list[tuple[int, int, int]]:
    big_n = c << n
    cells = []
    for b in range(((big_n - 1) >> (n + 1)) + 1):
        for a in range(1, 1 << (n + 1)):
            k = (b << (n + 1)) + a
            if k <= big_n:
                cells.append((b, a, k))
    return cells


def _ev_lower(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    n, c = shard
    big_n = c << n
    cells = _cells_lower(n, c)
    vals = _vals_for_row(big_n, [k for _, _, k in cells], policy)
    recs = []
    for b, a, k in cells:
        pred = P.Prediction(P.LOWER_BOUND, s2(a) - 1, P.SRC_THM_LOWER_BOUND)
        params = {"n": n, "c": c, "b": b, "a": a, "k": k, "N": big_n}
        recs.append(_record(params, pred, vals[k], (n, c, b, a)))
    return recs


def _ct_lower(r: dict) -> int:
    return sum(len(_cells_lower(n, c)) for n in _int_list(r, "n") for c in _int_list(r, "c"))


# -- thm-diagonal: nu2(S(c*2**n, (c-1)*2**n + a)) = s2(a) - 1

def _sh_diagonal(r: dict) -> list:
    cs = _int_list(r, "c")
    _require_odd(cs, "c")
    return [(n, c) for n in _int_list(r, "n", floor=2) for c in cs]


def _ev_diagonal(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    n, c = shard
    big_n = c << n
    cells = [(a, ((c - 1) << n) + a) for a in range(1, (1 << n) + 1)]
    vals = _vals_for_row(big_n, [k for _, k in cells], policy)
    recs = []
    for a, k in cells:
        pred = P.Prediction(P.EQUALITY, s2(a) - 1, P.SRC_THM_DIAGONAL)
        params = {"n": n, "c": c, "a": a, "k": k, "N": big_n}
        recs.append(_record(params, pred, vals[k], (n, c, a)))
    return recs


def _ct_diagonal(r: dict) -> int:
    return sum((1 << n) for n in _int_list(r, "n")) * len(_int_list(r, "c"))


# -- thm-shifted-triple: nu2(S(c*2**m + b*2**(n+1) + 2**n, b*2**(n+2) + a))

def _sh_triple(r: dict) -> list:
    cs = _int_list(r, "c")
    _require_odd(cs, "c")
    offs = _int_list(r, "m_offsets")
    if offs and offs[0] < 0:
        raise DomainError("m_offsets must be nonnegative")
    shards = []
    for n in _int_list(r, "n", floor=1):
        for b in _int_list(r, "b", floor=1):
            m_lo = n + 2 + (b.bit_length() - 1)
            for off in offs:
                for c in cs:
                    shards.append((n, b, m_lo + off, c))
    return shards


def _ev_triple(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    n, b, m, c = shard
    big_n = (c << m) + (b << (n + 1)) + (1 << n)
    cells = [(a, (b << (n + 2)) + a) for a in range(1, 1 << (n + 1))]
    vals = _vals_for_row(big_n, [k for _, k in cells], policy)
    recs = []
    for a, k in cells:
        pred = P.predict_val_shifted_triple(c, m, b, n, a)
        params = {"n": n, "b": b, "m": m, "c": c, "a": a, "k": k, "N": big_n}
        recs.append(_record(params, pred, vals[k], (n, b, m, c, a)))
    return recs


def _ct_triple(r: dict) -> int:
    per_shard = len(_int_list(r, "m_offsets")) * len(_int_list(r, "c")) * len(_int_list(r, "b"))
    return per_shard * sum((1 << (n + 1)) - 1 for n in _int_list(r, "n"))


# -- thm-difference: nu2(S(a*2**n, k) - S(b*2**n, k)), k not 2**m - 1

def _diff_ks(n: int) -> list[int]:
    return [k for k in range(3, (1 << n) + 1) if not is_power_of_two(k + 1)]


def _sh_difference(r: dict) -> list:
    return [(a, b, n) for a, b in _pair_list(r) for n in _int_list(r, "n", floor=2)]


def _ev_difference(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    a, b, n = shard
    n1, n2 = a << n, b << n
    ks = _diff_ks(n)
    vals = _diff_vals(n1, n2, ks, policy)
    recs = []
    for k in ks:
        pred = P.predict_val_difference(a, b, n, k)
        params = {"a": a, "b": b, "n": n, "k": k, "N1": n1, "N2": n2}
        recs.append(_record(params, pred, vals[k], (a, b, n, k)))
    return recs


def _ct_difference(r: dict) -> int:
    return len(_pair_list(r)) * sum(len(_diff_ks(n)) for n in _int_list(r, "n"))


# -- lem-shifted-power: nu2(S(c*2**n + 2**m, 2**n)) = n - 1 - m

def _sh_shifted_power(r: dict) -> list:
    cs = _int_list(r, "c")
    _require_odd(cs, "c")
    return [(c, n) for c in cs for n in _int_list(r, "n", floor=1)]


def _ev_shifted_power(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    c, n = shard
    recs = []
    for m in range(n):
        big_n = (c << n) + (1 << m)
        k = 1 << n
        pred = P.predict_val_shifted_power(c, n, m)
        observed = _vals_for_row(big_n, [k], policy)[k]
        params = {"c": c, "n": n, "m": m, "N": big_n, "k": k}
        recs.append(_record(params, pred, observed, (c, n, m)))
    return recs


def _ct_shifted_power(r: dict) -> int:
    return len(_int_list(r, "c")) * sum(n for n in _int_list(r, "n"))


# -- lem-theta: nu2(S(c*2**n - a, k - 2a)) from the top-run lemma

def _theta_ks(n: int) -> list[int]:
    out = []
    for k in range(3, (1 << n) + 1):
        if s2(k) < 2 or is_power_of_two(k) or is_power_of_two(k + 1):
            continue
        out.append(k)
    return out


def _sh_theta(r: dict) -> list:
    cs = _int_list(r, "c")
    _require_odd(cs, "c")
    return [(c, n) for c in cs for n in _int_list(r, "n", floor=2)]


def _ev_theta(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    c, n = shard
    by_a: dict[int, list[int]] = {}
    for k in _theta_ks(n):
        for a in range(1, -(-k // 2)):
            by_a.setdefault(a, []).append(k)
    recs = []
    for a, ks in sorted(by_a.items()):
        arg_n = (c << n) - a
        vals = _vals_for_row(arg_n, [k - 2 * a for k in ks], policy)
        for k in ks:
            pred = P.predict_val_theta(c, n, a, k)
            params = {"c": c, "n": n, "k": k, "a": a, "arg_n": arg_n, "arg_k": k - 2 * a}
            recs.append(_record(params, pred, vals[k - 2 * a], (c, n, k, a)))
    recs.sort(key=lambda rec: rec.order)
    return recs


def _ct_theta(r: dict) -> int:
    total = 0
    for n in _int_list(r, "n"):
        total += sum(-(-k // 2) - 1 for k in _theta_ks(n))
    return total * len(_int_list(r, "c"))


# -- junod: Bell-polynomial congruence suite

def _sh_junod(r: dict) -> list:
    return [
        (p, v, m)
        for p in _int_list(r, "p", floor=2)
        for v in _int_list(r, "v", floor=1)
        for m in _int_list(r, "m", floor=0)
    ]


def _ev_junod(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    p, v, m = shard
    recs = []
    for n in _int_list(r, "n"):
        holds, slack = junod_check(m, n, v, p)
        params = {"p": p, "v": v, "m": m, "n": n, "slack": str(slack)}
        recs.append(_bool_record(params, "Lem-Junod", "congruence", holds, (p, v, m, n)))
    return recs


def _ct_junod(r: dict) -> int:
    return (
        len(_int_list(r, "p"))
        * len(_int_list(r, "v"))
        * len(_int_list(r, "m"))
        * len(_int_list(r, "n"))
    )


# -- identities: convolution + symmetric product suites

def _sh_identities(r: dict) -> list:
    shards = [("convolution", n, m) for n in _int_list(r, "conv_n") for m in _int_list(r, "conv_m")]
    shards += [("symmetric", k1, k2) for k1 in _int_list(r, "sym_k1") for k2 in _int_list(r, "sym_k2")]
    return shards


def _ev_identities(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    recs = []
    if shard[0] == "convolution":
        _, n, m = shard
        for k in range(n + m + 1):
            holds = check_convolution(n, m, k)
            params = {"identity": "convolution", "n": n, "m": m, "k": k}
            recs.append(
                _bool_record(params, "Lem-Convolution", "identity", holds, ("convolution", n, m, k))
            )
    else:
        _, k1, k2 = shard
        for rr in range(max(k1, k2) + 2, k1 + k2 + 3):
            holds = check_symmetric_identity(k1, k2, rr)
            params = {"identity": "symmetric", "k1": k1, "k2": k2, "r": rr}
            recs.append(
                _bool_record(params, "Lem-SymmetricProduct", "identity", holds, ("symmetric", k1, k2, rr))
            )
    return recs


def _ct_identities(r: dict) -> int:
    total = sum(
        n + m + 1 for n in _int_list(r, "conv_n") for m in _int_list(r, "conv_m")
    )
    total += sum(
        (k1 + k2 + 3) - (max(k1, k2) + 2)
        for k1 in _int_list(r, "sym_k1")
        for k2 in _int_list(r, "sym_k2")
    )
    return total


# -- count-J: closed-form |J| against enumeration

def _sh_count_j(r: dict) -> list:
    return [(n,) for n in _int_list(r, "n", floor=0)]


def _ev_count_j(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    (n,) = shard
    recs = []
    for a in range(1, 1 << (n + 1)):
        expected = count_J(n, a)
        actual = len(brute_force_J(n, a))
        recs.append(
            CellRecord(
                params={"n": n, "a": a},
                source="Lem-CountJ",
                claim_kind="count",
                claim_value=expected,
                observed_kind="count",
                observed_value=actual,
                verdict=CONFIRMED if expected == actual else VIOLATED,
                order=(n, a),
            )
        )
    return recs


def _ct_count_j(r: dict) -> int:
    return sum((1 << (n + 1)) - 1 for n in _int_list(r, "n"))


# -- diff-congruence: the binomial-sum congruence behind the difference formula

def _sh_diff_congruence(r: dict) -> list:
    return [(a, b, n) for a, b in _pair_list(r) for n in _int_list(r, "n", floor=2)]


def _ev_diff_congruence(shard: tuple, r: dict, policy: PrecisionPolicy) -> list[CellRecord]:
    a, b, n = shard
    recs = []
    for k in _diff_ks(n):
        holds = check_diff_congruence(a, b, n, k)
        params = {"a": a, "b": b, "n": n, "k": k, "mod_bits": n + nu2_int(a - b)}
        recs.append(
            _bool_record(params, "Lem-DiffCongruence", "congruence", holds, (a, b, n, k))
        )
    return recs


_TARGETS: dict[str, _Target] = {
    "lengyel-eq": _Target(
        "lengyel-eq",
        ("n", "c", "k", "N"),
        {"n": list(range(1, 10)), "c": [1, 3, 5, 7]},
        _sh_lengyel,
        _ev_lengyel,
        _ct_lengyel,
    ),
    "thm-lower": _Target(
        "thm-lower",
        ("n", "c", "b", "a", "k", "N"),
        {"n": list(range(1, 8)), "c": [1, 3, 5, 7, 9]},
        _sh_lower,
        _ev_lower,
        _ct_lower,
    ),
    "thm-diagonal": _Target(
        "thm-diagonal",
        ("n", "c", "a", "k", "N"),
        {"n": list(range(2, 10)), "c": [1, 3, 5, 7]},
        _sh_diagonal,
        _ev_diagonal,
        _ct_diagonal,
    ),
    "thm-shifted-triple": _Target(
        "thm-shifted-triple",
        ("n", "b", "m", "c", "a", "k", "N"),
        {"n": list(range(1, 6)), "b": list(range(1, 8)), "c": [1, 3], "m_offsets": [0, 1, 2]},
        _sh_triple,
        _ev_triple,
        _ct_triple,
    ),
    "thm-difference": _Target(
        "thm-difference",
        ("a", "b", "n", "k", "N1", "N2"),
        {"n": list(range(2, 9)), "pairs": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]},
        _sh_difference,
        _ev_difference,
        _ct_difference,
    ),
    "lem-shifted-power": _Target(
        "lem-shifted-power",
        ("c", "n", "m", "N", "k"),
        {"c": [1, 3, 5], "n": list(range(1, 9))},
        _sh_shifted_power,
        _ev_shifted_power,
        _ct_shifted_power,
    ),
    "lem-theta": _Target(
        "lem-theta",
        ("c", "n", "k", "a", "arg_n", "arg_k"),
        {"c": [1, 3], "n": list(range(3, 8))},
        _sh_theta,
        _ev_theta,
        _ct_theta,
    ),
    "junod": _Target(
        "junod",
        ("p", "v", "m", "n", "slack"),
        {"p": [2], "v": [1, 2], "m": list(range(0, 9)), "n": list(range(1, 9))},
        _sh_junod,
        _ev_junod,
        _ct_junod,
    ),
    "identities": _Target(
        "identities",
        ("identity", "n", "m", "k", "k1", "k2", "r"),
        {
            "conv_n": list(range(0, 13)),
            "conv_m": list(range(1, 13)),
            "sym_k1": list(range(0, 7)),
            "sym_k2": list(range(0, 7)),
        },
        _sh_identities,
        _ev_identities,
        _ct_identities,
    ),
    "count-J": _Target(
        "count-J",
        ("n", "a"),
        {"n": list(range(0, 9))},
        _sh_count_j,
        _ev_count_j,
        _ct_count_j,
    ),
    "diff-congruence": _Target(
        "diff-congruence",
        ("a", "b", "n", "k", "mod_bits"),
        {"n": list(range(2, 7)), "pairs": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]},
        _sh_diff_congruence,
        _ev_diff_congruence,
        _ct_difference,
    ),
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
    workers: int = 1
    cell_cap: int = DEFAULT_CELL_CAP


@dataclass
class SweepReport:
    """Deterministic sweep outcome; runtime metadata stays out of serialization."""

    target: str
    config: dict
    columns: tuple[str, ...]
    records: list[CellRecord]
    engine: str = ENGINE_TAG
    runtime_seconds: float | None = None
    workers: int = 1

    @property
    def summary(self) -> dict:
        counts = {v: 0 for v in _VERDICT_ORDER}
        for rec in self.records:
            counts[rec.verdict] += 1
        return {"cells": len(self.records), **counts}

    @property
    def exit_code(self) -> int:
        s = self.summary
        if s[VIOLATED]:
            return EXIT_VIOLATION
        if s[CONJECTURE_DEVIATION]:
            return EXIT_CONJECTURE_DEVIATION
        if s[INDETERMINATE]:
            return EXIT_INDETERMINATE
        return EXIT_OK

    def cells(self, verdict: str) -> list[CellRecord]:
        return [rec for rec in self.records if rec.verdict == verdict]

    def to_csv(self) -> str:
        head = list(self.columns) + [
            "source",
            "claim_kind",
            "claim_value",
            "observed_kind",
            "observed_value",
            "verdict",
        ]
        lines = [",".join(head)]
        for rec in self.records:
            cols = [str(rec.params.get(c, "")) for c in self.columns]
            cols += [
                rec.source,
                rec.claim_kind,
                "" if rec.claim_value is None else str(rec.claim_value),
                rec.observed_kind,
                "" if rec.observed_value is None else str(rec.observed_value),
                rec.verdict,
            ]
            lines.append(",".join(cols))
        return "\n".join(lines) + "\n"

    def to_json(self, include_runtime: bool = False) -> str:
        obj: dict = {
            "schema_version": SCHEMA_VERSION,
            "target": self.target,
            "engine": self.engine,
            "config": self.config,
            "summary": self.summary,
            "records": [
                {
                    "params": rec.params,
                    "source": rec.source,
                    "claim_kind": rec.claim_kind,
                    "claim_value": rec.claim_value,
                    "observed_kind": rec.observed_kind,
                    "observed_value": rec.observed_value,
                    "verdict": rec.verdict,
                }
                for rec in self.records
            ],
        }
        if include_runtime:
            obj["runtime"] = {"seconds": self.runtime_seconds, "workers": self.workers}
        return json.dumps(obj, indent=2) + "\n"


def _config_echo(target: str, ranges: dict, policy: PrecisionPolicy) -> dict:
    # workers deliberately omitted: parallelism must not affect report bytes
    echo_ranges = {
        key: [list(v) if isinstance(v, (tuple, list)) else v for v in values]
        for key, values in sorted(ranges.items())
    }
    return {
        "target": target,
        "ranges": echo_ranges,
        "policy": {"initial_bits": policy.initial_bits, "max_bits": policy.max_bits},
    }


def _eval_task(args: tuple) -> list[CellRecord]:
    name, shard, ranges, policy = args
    return _TARGETS[name].evaluate(shard, ranges, policy)


def _run_shards(
    tasks: list[tuple], workers: int, evaluate: Callable[[tuple], list[CellRecord]]
) -> list[CellRecord]:
    if workers < 1:
        raise DomainError(f"need workers >= 1, got {workers}")
    # ProcessPoolExecutor may start all max_workers processes up front
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(evaluate, tasks))
    else:
        chunks = [evaluate(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda rec: rec.order)
    return records


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run one sweep target over its grid and classify every cell."""
    if config.target not in _TARGETS:
        raise DomainError(f"unknown sweep target {config.target!r}")
    target = _TARGETS[config.target]
    unknown = set(config.ranges) - set(target.defaults)
    if unknown:
        raise DomainError(f"unknown range parameter(s) for {config.target}: {sorted(unknown)}")
    ranges = {**target.defaults, **config.ranges}
    n_cells = target.count(ranges)
    if n_cells > config.cell_cap:
        raise ResourceCapError(f"grid of {n_cells} cells exceeds cap {config.cell_cap}")
    start = time.perf_counter()
    tasks = [(config.target, shard, ranges, config.policy) for shard in target.shards(ranges)]
    records = _run_shards(tasks, config.workers, _eval_task)
    if len(records) != n_cells:
        raise RuntimeError(
            f"internal error: {config.target} produced {len(records)} records for {n_cells} cells"
        )
    return SweepReport(
        target=config.target,
        config=_config_echo(config.target, ranges, config.policy),
        columns=target.columns,
        records=records,
        runtime_seconds=time.perf_counter() - start,
        workers=config.workers,
    )


# ---------------------------------------------------------------------------
# difference congruence (exact)


def check_diff_congruence(a: int, b: int, n: int, k: int, cap: int = DEFAULT_EXACT_CAP) -> bool:
    """Exact check of the congruence

        S(a*2**n, k) - S(b*2**n, k)
            = sum_{i=1..ceil(k/2)-1} C((a-b)*2**n, i) S(b*2**n - i, k - 2i)
                                                    (mod 2**(n + nu2(a-b)))

    for a > b >= 1 and 3 <= k <= 2**n.  Both sides are evaluated with exact
    integers.  The congruence derives from the Bell-polynomial congruence
    applied with shift (2b-a)*2**n, so it is only guaranteed for a <= 2b;
    the check evaluates whatever it is given.
    """
    if b < 1 or a <= b:
        raise DomainError(f"need a > b >= 1, got a={a}, b={b}")
    if k < 3 or k > (1 << n):
        raise DomainError(f"need 3 <= k <= 2**n, got k={k}, n={n}")
    mod = 1 << (n + nu2_int(a - b))
    lhs = stirling_exact(a << n, k, cap=cap) - stirling_exact(b << n, k, cap=cap)
    rhs = 0
    for i in range(1, -(-k // 2)):
        rhs += math.comb((a - b) << n, i) * stirling_exact((b << n) - i, k - 2 * i, cap=cap)
    return (lhs - rhs) % mod == 0


# ---------------------------------------------------------------------------
# conjecture scanner (the open Mersenne-shaped case)

_SCANNER_COLUMNS = ("n", "m", "a", "b", "k", "arg_n1", "arg_n2")
DEFAULT_SCANNER_POLICY = PrecisionPolicy(initial_bits=48, max_bits=8192)


def _scan_task(args: tuple) -> list[CellRecord]:
    a, b, n, ms, policy = args
    exp = n + 1  # cells use arguments a*2**(n+1); records echo them raw
    n1, n2 = a << exp, b << exp
    ks = [(1 << m) - 1 for m in ms]
    vals = _diff_vals(n1, n2, ks, policy)
    recs = []
    for m, k in zip(ms, ks):
        pred = P.predict_val_difference(a, b, exp, k)
        params = {"n": n, "m": m, "a": a, "b": b, "k": k, "arg_n1": n1, "arg_n2": n2}
        recs.append(_record(params, pred, vals[k], (n, m, a, b)))
    return recs


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
    violations: this case is open.
    """
    policy = policy or DEFAULT_SCANNER_POLICY
    ns = sorted(set(int(n) for n in n_values))
    if ns and ns[0] < 2:
        raise DomainError(f"scanner needs n >= 2, got {ns[0]}")
    pair_list = sorted(set((int(a), int(b)) for a, b in pairs))
    for a, b in pair_list:
        if not a > b >= 1:
            raise DomainError(f"scanner pairs need a > b >= 1, got ({a}, {b})")
    wanted_m = None if m_values is None else sorted(set(int(m) for m in m_values))
    if wanted_m and wanted_m[0] < 2:
        raise DomainError(f"scanner needs m >= 2, got {wanted_m[0]}")
    start = time.perf_counter()
    tasks = []
    for n in ns:
        ms = [m for m in (wanted_m or range(2, n + 1)) if (1 << m) - 1 <= (1 << n)]
        if not ms:
            continue
        for a, b in pair_list:
            tasks.append((a, b, n, ms, policy))
    records = _run_shards(tasks, workers, _scan_task)
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
        records=records,
        runtime_seconds=time.perf_counter() - start,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# cross-engine validation


def _cross_task(args: tuple) -> list[CellRecord]:
    bits, n_max, k_cap = args
    rows = stirling_rows_mod2(range(n_max + 1), k_cap, bits)
    mask = (1 << bits) - 1
    recs = []
    for n in range(n_max + 1):
        k_max = min(n, k_cap)
        explicit = stirling_explicit_row_mod2(n, k_max, bits)
        first_bad: int | None = None
        for k in range(k_max + 1):
            expected = stirling_exact(n, k) & mask
            if rows[n][k] != expected or explicit[k] != expected:
                first_bad = k
                break
        params = {
            "bits": bits,
            "n": n,
            "k_max": k_max,
            "first_mismatch": "" if first_bad is None else first_bad,
        }
        recs.append(
            _bool_record(params, "Id-CrossEngine", "agreement", first_bad is None, (bits, n))
        )
    return recs


def cross_validate(
    n_max: int = 400,
    k_max: int = 64,
    bits_list: Iterable[int] = (8, 32, 64),
    workers: int = 1,
) -> SweepReport:
    """Check recurrence, explicit-formula, and exact engines against each other.

    One record per (bits, n) covering every k <= min(n, k_max); a record is
    violated iff any k disagrees (the first offending k is echoed).  Each
    precision is one task: one recurrence pass over n <= n_max and one
    explicit row per n.
    """
    if n_max < 0 or k_max < 0:
        raise DomainError("need n_max, k_max >= 0")
    bits_values = sorted(set(int(b) for b in bits_list))
    start = time.perf_counter()
    # warm the shared exact triangle once; worker processes inherit or rebuild
    stirling_exact(min(n_max, DEFAULT_EXACT_CAP), min(n_max, k_max))
    tasks = [(bits, n_max, k_max) for bits in bits_values]
    records = _run_shards(tasks, workers, _cross_task)
    config = {
        "target": "cross-validate",
        "ranges": {"n_max": n_max, "k_max": k_max, "bits": bits_values},
        "policy": None,
    }
    return SweepReport(
        target="cross-validate",
        config=config,
        columns=("bits", "n", "k_max", "first_mismatch"),
        records=records,
        runtime_seconds=time.perf_counter() - start,
        workers=workers,
    )
