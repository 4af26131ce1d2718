"""Grid sweeps comparing the closed-form predictors to the modular engine,
identity suites, the difference-congruence check, and a scanner for the open
Mersenne-shaped case.

Reports are deterministic: cells are emitted in lexicographic parameter
order, and runtime metadata is kept out of the serialized record section.
Everything runs in the calling process.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, Iterator

from ._version import __version__
from .base2 import Valuation, count_J, brute_force_J, is_power_of_two, nu2_int, s2
from .bell import junod_check
from .engine import (
    DEFAULT_EXACT_CAP,
    PrecisionPolicy,
    check_convolution,
    check_symmetric_identity,
    stirling_exact,
    stirling_exact_rows,
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


def _observed_fields(v: Valuation) -> tuple[str, int | None]:
    return v.kind, v.value


def _record(params: dict, pred: P.Prediction, observed: Valuation) -> CellRecord:
    kind, value = _observed_fields(observed)
    return CellRecord(
        params=params,
        source=pred.source,
        claim_kind=pred.kind,
        claim_value=pred.value,
        observed_kind=kind,
        observed_value=value,
        verdict=classify(pred.kind, pred.value, observed),
    )


def _bool_record(params: dict, source: str, claim_kind: str, holds: bool) -> CellRecord:
    return CellRecord(
        params=params,
        source=source,
        claim_kind=claim_kind,
        claim_value=None,
        observed_kind="boolean",
        observed_value=int(holds),
        verdict=CONFIRMED if holds else VIOLATED,
    )


def _check_record(params: dict, claim: tuple, result: object) -> CellRecord:
    """Record of an exact-check cell whose check returned `result`.

    A count claim holds when the enumerated set has the claimed size; any
    other claim holds when the check returns true.  junod_check also returns
    its slack, which the record echoes as a parameter.
    """
    source, claim_kind, expected = claim
    if claim_kind == "count":
        return CellRecord(
            params=params,
            source=source,
            claim_kind=claim_kind,
            claim_value=expected,
            observed_kind="count",
            observed_value=len(result),
            verdict=CONFIRMED if len(result) == expected else VIOLATED,
        )
    if isinstance(result, tuple):
        result, slack = result
        params = {**params, "slack": str(slack)}
    return _bool_record(params, source, claim_kind, result)


# ---------------------------------------------------------------------------
# sweep targets
#
# A target's cells(ranges) validates its ranges, then yields one cell
# (params, claim, query) per grid point in lexicographic order.  A
# valuation cell's query is (n1, n2, k), asking for nu2(S(n1, k)) when n2 is
# None and nu2(S(n1, k) - S(n2, k)) otherwise; its claim is
# (predictor, *args), called only when the record is made, so that counting
# cells stays cheap.  An exact-check cell's query is a partial that runs the
# check, and its claim is (source, claim_kind, claim_value).


@dataclass(frozen=True)
class _Target:
    name: str
    columns: tuple[str, ...]
    defaults: dict
    cells: Callable[[dict], Iterator[tuple]]


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


def _digit_claim(kind: str, source: str, x: int) -> P.Prediction:
    return P.Prediction(kind, s2(x) - 1, source)


def _lengyel(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n, k)) = s2(k) - 1 for 1 <= k <= 2**n."""
    ns, cs = _int_list(r, "n", floor=0), _int_list(r, "c", floor=1)
    for n in ns:
        for c in cs:
            big_n = c << n
            for k in range(1, (1 << n) + 1):
                params = {"n": n, "c": c, "k": k, "N": big_n}
                claim = (_digit_claim, P.EQUALITY, P.SRC_LEM_LENGYEL_EQ, k)
                yield params, claim, (big_n, None, k)


def _lower(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n, b*2**(n+1) + a)) >= s2(a) - 1 for every such k <= c*2**n."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=0)
    for n in ns:
        for c in cs:
            big_n = c << n
            for b in range(((big_n - 1) >> (n + 1)) + 1):
                base = b << (n + 1)
                for a in range(1, min(1 << (n + 1), big_n - base + 1)):
                    k = base + a
                    params = {"n": n, "c": c, "b": b, "a": a, "k": k, "N": big_n}
                    claim = (_digit_claim, P.LOWER_BOUND, P.SRC_THM_LOWER_BOUND, a)
                    yield params, claim, (big_n, None, k)


def _diagonal(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n, (c-1)*2**n + a)) = s2(a) - 1 for 1 <= a <= 2**n."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=2)
    for n in ns:
        for c in cs:
            big_n = c << n
            for a in range(1, (1 << n) + 1):
                k = ((c - 1) << n) + a
                params = {"n": n, "c": c, "a": a, "k": k, "N": big_n}
                claim = (_digit_claim, P.EQUALITY, P.SRC_THM_DIAGONAL, a)
                yield params, claim, (big_n, None, k)


def _triple(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**m + b*2**(n+1) + 2**n, b*2**(n+2) + a)), m from its least value on."""
    cs, offs = _odd_list(r, "c"), _int_list(r, "m_offsets", floor=0)
    ns, bs = _int_list(r, "n", floor=1), _int_list(r, "b", floor=1)
    for n in ns:
        for b in bs:
            m_lo = n + 2 + (b.bit_length() - 1)
            for off in offs:
                m = m_lo + off
                for c in cs:
                    big_n = (c << m) + (b << (n + 1)) + (1 << n)
                    for a in range(1, 1 << (n + 1)):
                        k = (b << (n + 2)) + a
                        params = {"n": n, "b": b, "m": m, "c": c, "a": a, "k": k, "N": big_n}
                        claim = (P.predict_val_shifted_triple, c, m, b, n, a)
                        yield params, claim, (big_n, None, k)


def _diff_ks(n: int) -> Iterator[int]:
    return (k for k in range(3, (1 << n) + 1) if not is_power_of_two(k + 1))


def _difference(r: dict) -> Iterator[tuple]:
    """nu2(S(a*2**n, k) - S(b*2**n, k)) for 3 <= k <= 2**n, k not 2**m - 1."""
    pairs, ns = _pair_list(r), _int_list(r, "n", floor=2)
    for a, b in pairs:
        for n in ns:
            n1, n2 = a << n, b << n
            for k in _diff_ks(n):
                params = {"a": a, "b": b, "n": n, "k": k, "N1": n1, "N2": n2}
                yield params, (P.predict_val_difference, a, b, n, k), (n1, n2, k)


def _shifted_power(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n + 2**m, 2**n)) = n - 1 - m for 0 <= m < n."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=1)
    for c in cs:
        for n in ns:
            k = 1 << n
            for m in range(n):
                big_n = (c << n) + (1 << m)
                params = {"c": c, "n": n, "m": m, "N": big_n, "k": k}
                yield params, (P.predict_val_shifted_power, c, n, m), (big_n, None, k)


def _theta(r: dict) -> Iterator[tuple]:
    """nu2(S(c*2**n - a, k - 2a)) from the top-run lemma."""
    cs, ns = _odd_list(r, "c"), _int_list(r, "n", floor=2)
    for c in cs:
        for n in ns:
            for k in range(3, (1 << n) + 1):
                if s2(k) < 2 or is_power_of_two(k) or is_power_of_two(k + 1):
                    continue
                for a in range(1, -(-k // 2)):
                    arg_n, arg_k = (c << n) - a, k - 2 * a
                    params = {"c": c, "n": n, "k": k, "a": a, "arg_n": arg_n, "arg_k": arg_k}
                    claim = (P.predict_val_theta, c, n, a, k)
                    yield params, claim, (arg_n, None, arg_k)


def _junod(r: dict) -> Iterator[tuple]:
    """Junod's Bell-polynomial congruence."""
    ps, vs = _int_list(r, "p", floor=2), _int_list(r, "v", floor=1)
    ms, ns = _int_list(r, "m", floor=0), _int_list(r, "n", floor=1)
    for p, v, m, n in itertools.product(ps, vs, ms, ns):
        params = {"p": p, "v": v, "m": m, "n": n}
        claim = ("Lem-Junod", "congruence", None)
        yield params, claim, partial(junod_check, m, n, v, p)


def _identities(r: dict) -> Iterator[tuple]:
    """The convolution and symmetric product identities."""
    conv_n, conv_m = _int_list(r, "conv_n", floor=0), _int_list(r, "conv_m", floor=0)
    sym_k1, sym_k2 = _int_list(r, "sym_k1", floor=0), _int_list(r, "sym_k2", floor=0)
    for n, m in itertools.product(conv_n, conv_m):
        for k in range(n + m + 1):
            params = {"identity": "convolution", "n": n, "m": m, "k": k}
            claim = ("Lem-Convolution", "identity", None)
            yield params, claim, partial(check_convolution, n, m, k)
    for k1, k2 in itertools.product(sym_k1, sym_k2):
        for rr in range(max(k1, k2) + 2, k1 + k2 + 3):
            params = {"identity": "symmetric", "k1": k1, "k2": k2, "r": rr}
            claim = ("Lem-SymmetricProduct", "identity", None)
            yield params, claim, partial(check_symmetric_identity, k1, k2, rr)


def _count_j(r: dict) -> Iterator[tuple]:
    """The closed-form |J| against enumeration."""
    for n in _int_list(r, "n", floor=0):
        for a in range(1, 1 << (n + 1)):
            claim = ("Lem-CountJ", "count", count_J(n, a))
            yield {"n": n, "a": a}, claim, partial(brute_force_J, n, a)


def _diff_congruence(r: dict) -> Iterator[tuple]:
    """The binomial-sum congruence behind the difference formula."""
    pairs, ns = _pair_list(r), _int_list(r, "n", floor=2)
    for a, b in pairs:
        for n in ns:
            mod_bits = n + nu2_int(a - b)
            for k in _diff_ks(n):
                params = {"a": a, "b": b, "n": n, "k": k, "mod_bits": mod_bits}
                claim = ("Lem-DiffCongruence", "congruence", None)
                yield params, claim, partial(check_diff_congruence, a, b, n, k)


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


_FIELDS = ("source", "claim_kind", "claim_value", "observed_kind", "observed_value", "verdict")
_CHUNK = 512  # records converted at a time, so that their columns stay small


def _chunks(records: list[CellRecord]) -> Iterator[list[CellRecord]]:
    return (records[i : i + _CHUNK] for i in range(0, len(records), _CHUNK))


def _field_columns(records: list[CellRecord]) -> list[list]:
    return [list(map(attrgetter(name), records)) for name in _FIELDS]


def _column(values: list, convert: Callable[[object], str], by_type: dict) -> Iterable[str]:
    """convert(value) for each value.

    When every value has one exact type that by_type maps to a converter,
    that converter runs once per distinct value and the column is one builtin
    map over the table of results.
    """
    types = set(map(type, values))
    fast = by_type.get(types.pop()) if len(types) == 1 else None
    if fast is None:
        return map(convert, values)
    distinct = set(values)
    return map(dict(zip(distinct, map(fast, distinct))).__getitem__, values)


_JSON_BY_TYPE = {int: int.__repr__, str: encode_basestring_ascii}
_CSV_BY_TYPE = {int: int.__repr__, str: str}


def _csv_field(value: object) -> str:
    return "" if value is None else str(value)


def _json_template(keys: tuple) -> str:
    """%-template of one record of SweepReport.to_json whose params have these keys,
    at the records list's indent: one %s per param value, then one per field."""
    if keys:
        # a key that is not a str raises TypeError here, as json.dumps would for the record
        params = ",\n        ".join(
            encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys
        )
        params = f"{{\n        {params}\n      }}"
    else:
        params = "{}"
    fields = ",\n".join(f'      "{name}": %s' for name in _FIELDS)
    return f'{{\n      "params": {params},\n{fields}\n    }}'


def _json_records(records: list[CellRecord]) -> Iterator[str]:
    """The records of SweepReport.to_json, one string per chunk of records.

    Within a chunk, each run of records with one params layout is converted
    a column (a param, or a field) at a time by _column, and each record is
    one %-format of its layout's template.
    """
    templates: dict[tuple, str] = {}
    for chunk in _chunks(records):
        out: list[str] = []
        for keys, run in itertools.groupby(chunk, key=lambda rec: tuple(rec.params)):
            if keys not in templates:
                templates[keys] = _json_template(keys)
            run = list(run)
            params = list(map(attrgetter("params"), run))
            columns = [list(map(itemgetter(key), params)) for key in keys] + _field_columns(run)
            texts = [_column(values, _json_scalar, _JSON_BY_TYPE) for values in columns]
            out.extend(map(templates[keys].__mod__, zip(*texts)))
        yield ",\n    ".join(out)


@dataclass
class SweepReport:
    """Deterministic sweep outcome; runtime metadata stays out of serialization."""

    target: str
    config: dict
    columns: tuple[str, ...]
    records: list[CellRecord]
    engine: str = ENGINE_TAG
    runtime_seconds: float | None = None

    @property
    def summary(self) -> dict:
        counts = {v: 0 for v in VERDICT_ORDER}
        for rec in self.records:
            counts[rec.verdict] += 1
        return {"cells": len(self.records), **counts}

    @property
    def exit_code(self) -> int:
        return verdict_exit_code({rec.verdict for rec in self.records})

    def cells(self, verdict: str) -> list[CellRecord]:
        return [rec for rec in self.records if rec.verdict == verdict]

    def to_csv(self) -> str:
        """One line per record: its params at the report's columns ("" where a
        record has none), then the six claim fields, None written as ""."""
        lines = [",".join([*self.columns, *_FIELDS])]
        for chunk in _chunks(self.records):
            params = list(map(attrgetter("params"), chunk))
            columns = [
                _column(list(map(dict.get, params, repeat(c), repeat(""))), str, _CSV_BY_TYPE)
                for c in self.columns
            ]
            columns += [_column(values, _csv_field, _CSV_BY_TYPE) for values in _field_columns(chunk)]
            lines.append("\n".join(map(",".join, zip(*columns))))
        return "\n".join(lines) + "\n"

    def to_json(self, include_runtime: bool = False) -> str:
        """The report as JSON, byte for byte what json.dumps(obj, indent=2)
        gives for the object with the header fields, "records" (one object
        per record: "params" and the six claim fields) and, when asked for,
        "runtime".

        The header goes through json.dumps; the records are written from
        their fixed layout by _json_records, because json.dumps with an
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
        parts = [json.dumps(header, indent=2)[:-2], ',\n  "records": ']
        if self.records:
            parts.append("[\n    " + ",\n    ".join(_json_records(self.records)) + "\n  ]")
        else:
            parts.append("[]")
        if include_runtime:
            seconds = _json_scalar(self.runtime_seconds)
            parts.append(f',\n  "runtime": {{\n    "seconds": {seconds}\n  }}')
        parts.append("\n}\n")
        return "".join(parts)


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


def _run_cells(cells: list[tuple], policy: PrecisionPolicy) -> list[CellRecord]:
    """Evaluate and classify cells (params, claim, query), one record per
    cell in the cells' order.

    Every valuation query goes to one valuations() call; exact checks run
    inline, one cell at a time.
    """
    vals = valuations((query for _, _, query in cells if not isinstance(query, partial)), policy)
    records = []
    for params, claim, query in cells:
        if isinstance(query, partial):
            records.append(_check_record(params, claim, query()))
        else:
            predict, *args = claim
            records.append(_record(params, predict(*args), vals[query]))
    return records


def run_sweep(config: SweepConfig) -> SweepReport:
    """Run one sweep target over its grid and classify every cell.

    The grid is counted by a lazy pass over its cells, before any engine
    work, and refused when it has more than config.cell_cap cells.
    """
    _one_process(config.workers)
    if config.target not in _TARGETS:
        raise DomainError(f"unknown sweep target {config.target!r}")
    target = _TARGETS[config.target]
    unknown = set(config.ranges) - set(target.defaults)
    if unknown:
        raise DomainError(f"unknown range parameter(s) for {config.target}: {sorted(unknown)}")
    ranges = {**target.defaults, **config.ranges}
    cap = config.cell_cap
    if sum(1 for _ in itertools.islice(target.cells(ranges), cap + 1)) > cap:
        raise ResourceCapError(f"grid has more cells than the cap of {cap}")
    start = time.perf_counter()
    records = _run_cells(list(target.cells(ranges)), config.policy)
    return SweepReport(
        target=config.target,
        config=_config_echo(config.target, ranges, config.policy),
        columns=target.columns,
        records=records,
        runtime_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# difference congruence (exact)


def check_diff_congruence(a: int, b: int, n: int, k: int) -> bool:
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
    lhs = stirling_exact(a << n, k) - stirling_exact(b << n, k)
    rhs = 0
    for i in range(1, -(-k // 2)):
        rhs += math.comb((a - b) << n, i) * stirling_exact((b << n) - i, k - 2 * i)
    return (lhs - rhs) % mod == 0


# ---------------------------------------------------------------------------
# conjecture scanner (the open Mersenne-shaped case)

_SCANNER_COLUMNS = ("n", "m", "a", "b", "k", "arg_n1", "arg_n2")
DEFAULT_SCANNER_POLICY = PrecisionPolicy(initial_bits=48, max_bits=8192)


def _scan_cells(
    ns: list[int], pairs: list[tuple[int, int]], wanted_m: list[int] | None
) -> Iterator[tuple]:
    for n in ns:
        exp = n + 1  # cells use arguments a*2**(n+1); records echo them raw
        for m in wanted_m or range(2, n + 1):
            k = (1 << m) - 1
            if k > 1 << n:
                continue
            for a, b in pairs:
                n1, n2 = a << exp, b << exp
                params = {"n": n, "m": m, "a": a, "b": b, "k": k, "arg_n1": n1, "arg_n2": n2}
                claim = (P.predict_val_difference, a, b, exp, k)
                yield params, claim, (n1, n2, k)


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
    _one_process(workers)
    policy = policy or DEFAULT_SCANNER_POLICY
    ranges = {"n": n_values, "pairs": pairs, "m": m_values}
    ns, pair_list = _int_list(ranges, "n", floor=2), _pair_list(ranges)
    wanted_m = None if m_values is None else _int_list(ranges, "m", floor=2)
    start = time.perf_counter()
    records = _run_cells(list(_scan_cells(ns, pair_list, wanted_m)), policy)
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
    once.  Inputs past the exact engine's cap, the explicit rows' cap on
    k_max, or below 1 bit are refused before any work.
    """
    _one_process(workers)
    if n_max < 0 or k_max < 0:
        raise DomainError("need n_max, k_max >= 0")
    if n_max > DEFAULT_EXACT_CAP:
        raise ResourceCapError(f"exact engine capped at n <= {DEFAULT_EXACT_CAP}, got n_max={n_max}")
    bits_values = sorted(set(int(b) for b in bits_list))
    start = time.perf_counter()
    # the explicit rows check k_max and bits at the call, before their first row
    explicit = {bits: stirling_explicit_rows_mod2(n_max, k_max, bits) for bits in bits_values}
    exact = stirling_exact_rows(n_max, k_max)
    records = []
    for bits in bits_values:
        rows = stirling_rows_mod2(range(n_max + 1), k_max, bits)
        mask = (1 << bits) - 1
        for n, explicit_row in enumerate(explicit[bits]):
            expected = list(map(mask.__and__, exact[n]))
            top = len(expected) - 1  # min(n, k_max)
            first_bad: int | None = None
            if rows[n][: top + 1] != expected or explicit_row[: top + 1] != expected:
                first_bad = next(
                    k
                    for k, (e, r, x) in enumerate(zip(expected, rows[n], explicit_row))
                    if r != e or x != e
                )
            params = {
                "bits": bits,
                "n": n,
                "k_max": top,
                "first_mismatch": "" if first_bad is None else first_bad,
            }
            ok = first_bad is None
            records.append(_bool_record(params, "Id-CrossEngine", "agreement", ok))
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
    )
