"""Closed-form valuation predictions for Stirling numbers of the second kind.

Each closed form of the source paper (arXiv:1209.6284) and of T. Lengyel
(FPSAC 2009) is declared once, as a Statement: its source, its parameters,
its named hypotheses (predicates), the rule for its claim's kind and its
value.  A claim is an equality, a lower bound, or a conjectural equality,
tagged with the statement it came from.  Claims are verified against the
exact engine by :mod:`stirling2adic.verify`; predictors never compute
Stirling numbers themselves.

The predicates and formulas are written with operations that take a Python
int and a numpy column alike (see :mod:`stirling2adic.base2`), so one
declaration gives both the scalar claim (``Statement.prediction``, behind
``predict_val`` and the ``predict_val_*`` functions) and the claims about a
block of cells at once (``Statement.claims``, for the sweeps).  A scalar
call outside a statement's hypotheses raises DomainError naming the first
hypothesis that fails; a column call raises if any cell fails one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .base2 import (
    bit_length,
    ceil_log2,
    delta_conjecture,
    holds,
    is_power_of_two,
    nu2_int,
    s2,
    select,
    theta,
)
from .errors import DomainError

__all__ = [
    "EQUALITY",
    "LOWER_BOUND",
    "CONJECTURAL_EQUALITY",
    "NOT_APPLICABLE",
    "SRC_THM_LOWER_BOUND",
    "SRC_THM_DIAGONAL",
    "SRC_THM_DIFFERENCE",
    "SRC_THM_SHIFTED_TRIPLE",
    "SRC_LEM_LENGYEL_EQ",
    "SRC_LEM_LENGYEL_BD",
    "SRC_LEM_SHIFTED_POWER",
    "SRC_LEM_THETA",
    "SRC_CONJ_MERSENNE",
    "CLAIM_KINDS",
    "SOURCES",
    "Prediction",
    "Claims",
    "Statement",
    "LENGYEL_EQ",
    "DIAGONAL",
    "LENGYEL_BD",
    "LOWER",
    "SHIFTED_POWER",
    "SHIFTED_TRIPLE",
    "DIFFERENCE",
    "THETA",
    "predict_val",
    "predict_val_shifted_power",
    "predict_val_shifted_triple",
    "predict_val_difference",
    "predict_val_theta",
    "f_conjectured",
]

EQUALITY = "equality"
LOWER_BOUND = "lower-bound"
CONJECTURAL_EQUALITY = "conjectural-equality"
NOT_APPLICABLE = "not-applicable"

SRC_THM_LOWER_BOUND = "Thm-LowerBound"
SRC_THM_DIAGONAL = "Thm-DiagonalEquality"
SRC_THM_DIFFERENCE = "Thm-Difference"
SRC_THM_SHIFTED_TRIPLE = "Thm-ShiftedTriple"
SRC_LEM_LENGYEL_EQ = "Lem-Lengyel-Eq"
SRC_LEM_LENGYEL_BD = "Lem-Lengyel-Bd"
SRC_LEM_SHIFTED_POWER = "Lem-ShiftedPower"
SRC_LEM_THETA = "Lem-Theta"
SRC_CONJ_MERSENNE = "Conj-Mersenne"

# what the codes of a Claims stand for
CLAIM_KINDS = (EQUALITY, LOWER_BOUND, CONJECTURAL_EQUALITY)
SOURCES = (
    SRC_THM_LOWER_BOUND,
    SRC_THM_DIAGONAL,
    SRC_THM_DIFFERENCE,
    SRC_THM_SHIFTED_TRIPLE,
    SRC_LEM_LENGYEL_EQ,
    SRC_LEM_LENGYEL_BD,
    SRC_LEM_SHIFTED_POWER,
    SRC_LEM_THETA,
    SRC_CONJ_MERSENNE,
)


@dataclass(frozen=True)
class Prediction:
    """A sourced claim about a 2-adic valuation."""

    kind: str
    value: int | None
    source: str
    params: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind in (EQUALITY, LOWER_BOUND, CONJECTURAL_EQUALITY):
            if self.value is None or self.value < 0:
                raise DomainError(f"{self.kind} claim needs value >= 0, got {self.value}")
        elif self.kind == NOT_APPLICABLE:
            if self.value is not None:
                raise DomainError("not-applicable claim carries no value")
        else:
            raise DomainError(f"unknown claim kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == NOT_APPLICABLE:
            return "NotApplicable"
        label = {
            EQUALITY: "Equality",
            LOWER_BOUND: "LowerBound",
            CONJECTURAL_EQUALITY: "ConjecturalEquality",
        }[self.kind]
        return f"{label}({self.value}) [{self.source}]"


class Claims(NamedTuple):
    """The column form of Prediction: one claim per cell of a block.

    source and kind are int8 codes into SOURCES and CLAIM_KINDS, value int64;
    each is an array over the cells, or 0-d when it is the same in every cell.
    """

    source: np.ndarray
    kind: np.ndarray
    value: np.ndarray


_EQ, _BOUND, _CONJ = range(len(CLAIM_KINDS))  # the codes of CLAIM_KINDS, for the kind rules

Rule = Callable[..., object]


class Statement(NamedTuple):
    """A closed form: for params that satisfy every hypothesis, a claim about
    a valuation, of the kind and value its rules give, tagged with source.

    hypotheses maps names to predicates, checked in order.  kind gives a
    code into CLAIM_KINDS; a conjectural claim is tagged with conjecture
    instead of source.  A predicate or rule takes the params in order, as
    ints or as numpy columns that broadcast together, and gives a bool or a
    column of them (a predicate), a code or a column of codes (kind), or an
    integer or a column of them (value).
    """

    source: str
    params: tuple[str, ...]
    hypotheses: dict[str, Rule]
    kind: Rule
    value: Rule
    conjecture: str | None = None

    def refusal(self, args: tuple) -> str | None:
        """The first hypothesis that args fail (in some cell, for columns), or None."""
        for name, predicate in self.hypotheses.items():
            ok = predicate(*args)
            if ok is not True and not holds(ok):
                return name
        return None

    def claim(self, args: tuple) -> Prediction:
        """The claim about one cell of ints, whose hypotheses hold."""
        kind = CLAIM_KINDS[self.kind(*args)]
        source = self.conjecture if kind == CONJECTURAL_EQUALITY else self.source
        return Prediction(kind, self.value(*args), source, dict(zip(self.params, args)))

    def prediction(self, *args: int) -> Prediction:
        """The claim about one cell of ints; DomainError outside the hypotheses."""
        name = self.refusal(args)
        if name is not None:
            got = ", ".join(f"{p}={v}" for p, v in zip(self.params, args))
            raise DomainError(f"{self.source} needs {name}, got {got}")
        return self.claim(args)

    def claims(self, *args: object) -> Claims:
        """The claims about a block of cells; DomainError if any cell is outside the hypotheses."""
        name = self.refusal(args)
        if name is not None:
            raise DomainError(f"{self.source} needs {name} in every cell")
        kind = np.asarray(self.kind(*args), dtype=np.int8)
        source = np.asarray(SOURCES.index(self.source), dtype=np.int8)
        if self.conjecture is not None:
            source = np.where(kind == _CONJ, SOURCES.index(self.conjecture), source).astype(np.int8)
        return Claims(source, kind, np.asarray(self.value(*args), dtype=np.int64))


def _c_odd(c, *rest):
    return (c >= 1) & ((c & 1) == 1)


# nu2(S(c*2**n, k)) = s2(k) - 1
LENGYEL_EQ = Statement(
    SRC_LEM_LENGYEL_EQ,
    ("c", "n", "k"),
    {"c >= 1": lambda c, n, k: c >= 1, "1 <= k <= 2**n": lambda c, n, k: (k >= 1) & (k <= 1 << n)},
    kind=lambda c, n, k: _EQ,
    value=lambda c, n, k: s2(k) - 1,
)

# nu2(S(c*2**n, (c-1)*2**n + a)) = s2(a) - 1
DIAGONAL = Statement(
    SRC_THM_DIAGONAL,
    ("c", "n", "a"),
    {
        "c odd >= 1": _c_odd,
        "n >= 2": lambda c, n, a: n >= 2,
        "1 <= a <= 2**n": lambda c, n, a: (a >= 1) & (a <= 1 << n),
    },
    kind=lambda c, n, a: _EQ,
    value=lambda c, n, a: s2(a) - 1,
)

# nu2(S(c*2**n, k)) = n at k = 2**(n+1) - 1, and >= s2(k) below it
LENGYEL_BD = Statement(
    SRC_LEM_LENGYEL_BD,
    ("c", "n", "k"),
    {
        "c odd >= 3": lambda c, n, k: (c >= 3) & ((c & 1) == 1),
        "2**n < k < 2**(n+1) or k = 2**(n+1) - 1": (
            lambda c, n, k: ((k > 1 << n) & (k < 2 << n)) | (k == (2 << n) - 1)
        ),
    },
    kind=lambda c, n, k: select(k == (2 << n) - 1, _EQ, _BOUND),
    value=lambda c, n, k: select(k == (2 << n) - 1, n, s2(k)),
)

# nu2(S(c*2**n, b*2**(n+1) + a)) >= s2(a) - 1
LOWER = Statement(
    SRC_THM_LOWER_BOUND,
    ("c", "n", "b", "a"),
    {
        "c odd >= 1": _c_odd,
        "b >= 0": lambda c, n, b, a: b >= 0,
        "1 <= a < 2**(n+1)": lambda c, n, b, a: (a >= 1) & (a < 2 << n),
    },
    kind=lambda c, n, b, a: _BOUND,
    value=lambda c, n, b, a: s2(a) - 1,
)

# nu2(S(c*2**n + 2**m, 2**n)) = n - 1 - m
SHIFTED_POWER = Statement(
    SRC_LEM_SHIFTED_POWER,
    ("c", "n", "m"),
    {"c odd >= 1": _c_odd, "0 <= m < n": lambda c, n, m: (m >= 0) & (m < n)},
    kind=lambda c, n, m: _EQ,
    value=lambda c, n, m: n - 1 - m,
)

# nu2(S(c*2**m + b*2**(n+1) + 2**n, b*2**(n+2) + a)) = n at a = 2**(n+1) - 1, else >= s2(a)
SHIFTED_TRIPLE = Statement(
    SRC_THM_SHIFTED_TRIPLE,
    ("c", "m", "b", "n", "a"),
    {
        "c odd >= 1": _c_odd,
        "b >= 1": lambda c, m, b, n, a: b >= 1,
        "n >= 1": lambda c, m, b, n, a: n >= 1,
        "1 <= a < 2**(n+1)": lambda c, m, b, n, a: (a >= 1) & (a < 2 << n),
        "m >= n + 2 + floor(log2 b)": lambda c, m, b, n, a: m >= n + 1 + bit_length(b),
    },
    kind=lambda c, m, b, n, a: select(a == (2 << n) - 1, _EQ, _BOUND),
    value=lambda c, m, b, n, a: select(a == (2 << n) - 1, n, s2(a)),
)


def f_conjectured(k):
    """The difference drop f(k) = 1 + ceil(log2 k) - s2(k) - delta(k), for
    k >= 3 (delta's domain), or of each entry of a column.

    Proved for k other than 2**m - 1, where f(k) = 0 is the conjecture."""
    delta = delta_conjecture(k)
    return 1 + ceil_log2(k) - s2(k) - delta


# nu2(S(a*2**n, k) - S(b*2**n, k)) = n + 1 + nu2(a-b) - f(k), proved away from k = 2**m - 1.
# At k = 2**m - 1, where f(k) = 0, the case is open: the claim is conjectural, so verifiers
# report rather than assert it.
DIFFERENCE = Statement(
    SRC_THM_DIFFERENCE,
    ("a", "b", "n", "k"),
    {
        "a > b >= 1": lambda a, b, n, k: (a > b) & (b >= 1),
        "n >= 0": lambda a, b, n, k: n >= 0,
        "3 <= k <= 2**n": lambda a, b, n, k: (k >= 3) & ((k - 1) >> n == 0),
    },
    kind=lambda a, b, n, k: select(is_power_of_two(k + 1), _CONJ, _EQ),
    value=lambda a, b, n, k: n + 1 + nu2_int(a - b) - f_conjectured(k),
    conjecture=SRC_CONJ_MERSENNE,
)


def _distinguished_a(k):
    """The a at which the top-run lemma is an equality: with t the top run of
    k (its theta(k) leading one-bits, the bits below cleared), t // 2 when k
    has one-bits below its top run, else k less its top bit."""
    length, run = bit_length(k), theta(k)
    top = ((1 << run) - 1) << (length - run)
    return select(top == k, k - (1 << (length - 1)), top >> 1)


def _theta_value(c, n, a, k):
    base = s2(k) - ceil_log2(k) + nu2_int(a)
    # strict inequality over integers, clamped: valuations are never negative
    return select(a == _distinguished_a(k), base, select(base >= 0, base + 1, 0))


# The top-run lemma: nu2(S(c*2**n - a, k - 2a)) = s2(k) - ceil(log2 k) + nu2(a) exactly at the
# distinguished a, and a strict inequality (a lower bound one higher) everywhere else.
THETA = Statement(
    SRC_LEM_THETA,
    ("c", "n", "a", "k"),
    {
        "c odd >= 1": _c_odd,
        "n >= 0": lambda c, n, a, k: n >= 0,
        "3 <= k <= 2**n": lambda c, n, a, k: (k >= 3) & ((k - 1) >> n == 0),
        "s2(k) >= 2": lambda c, n, a, k: s2(k) >= 2,
        "k neither a power of two nor one less": (
            lambda c, n, a, k: (k & (k - 1) != 0) & (k & (k + 1) != 0)
        ),
        "1 <= a <= ceil(k/2) - 1": lambda c, n, a, k: (a >= 1) & (a <= ((k + 1) >> 1) - 1),
    },
    kind=lambda c, n, a, k: select(a == _distinguished_a(k), _EQ, _BOUND),
    value=_theta_value,
)


def predict_val(big_n: int, k: int) -> list[Prediction]:
    """All applicable closed-form claims about nu2(S(big_n, k)).

    Decomposes big_n = c * 2**n with n = nu2(big_n) maximal (c odd) and
    matches every statement whose hypotheses hold at (c, n, k).  Equality
    claims come first; a not-applicable placeholder is returned when nothing
    matches.
    """
    if big_n < 2:
        raise DomainError(f"need N >= 2, got {big_n}")
    if not 1 <= k <= big_n:
        raise DomainError(f"need 1 <= k <= N, got k={k}, N={big_n}")
    n = nu2_int(big_n)
    c = big_n >> n
    # equalities come first in this order: LENGYEL_BD, the one statement that gives
    # either kind, follows those that give equalities and precedes the one that gives bounds
    cells = (
        (LENGYEL_EQ, (c, n, k)),
        (DIAGONAL, (c, n, k - ((c - 1) << n))),  # k = (c-1)*2**n + a
        (LENGYEL_BD, (c, n, k)),
        (LOWER, (c, n, k >> (n + 1), k & ((2 << n) - 1))),  # k = b*2**(n+1) + a
    )
    out = [statement.claim(args) for statement, args in cells if statement.refusal(args) is None]
    return out or [Prediction(NOT_APPLICABLE, None, SRC_THM_LOWER_BOUND, {"c": c, "n": n})]


def predict_val_shifted_power(c: int, n: int, m: int) -> Prediction:
    """SHIFTED_POWER's claim about nu2(S(c*2**n + 2**m, 2**n))."""
    return SHIFTED_POWER.prediction(c, n, m)


def predict_val_shifted_triple(c: int, m: int, b: int, n: int, a: int) -> Prediction:
    """SHIFTED_TRIPLE's claim about nu2(S(c*2**m + b*2**(n+1) + 2**n, b*2**(n+2) + a))."""
    return SHIFTED_TRIPLE.prediction(c, m, b, n, a)


def predict_val_difference(a: int, b: int, n: int, k: int) -> Prediction:
    """DIFFERENCE's claim about nu2(S(a*2**n, k) - S(b*2**n, k))."""
    return DIFFERENCE.prediction(a, b, n, k)


def predict_val_theta(c: int, n: int, a: int, k: int) -> Prediction:
    """THETA's claim about nu2(S(c*2**n - a, k - 2a))."""
    return THETA.prediction(c, n, a, k)
