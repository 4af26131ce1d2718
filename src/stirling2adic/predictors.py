"""Closed-form valuation predictions for Stirling numbers of the second kind.

Each predictor encodes one proved statement (or, for the Mersenne-shaped
case, the conjectured one) as a typed claim: an equality, a lower bound, or
a conjectural equality, tagged with the statement it came from.  Claims are
verified against the exact engine by :mod:`stirling2adic.verify`; predictors
never compute Stirling numbers themselves.

The sweeps' predictors also have column forms (``predict_*_columns``): the
claims about a block of cells at once, as a Claims of numpy columns, each
entry what the scalar form gives for that cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .base2 import (
    ceil_log2,
    ceil_log2_column,
    delta_conjecture,
    is_power_of_two,
    nu2_column,
    nu2_int,
    s2,
    s2_column,
    theta,
    theta_column,
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
    "predict_val",
    "predict_val_shifted_power",
    "predict_val_shifted_triple",
    "predict_val_difference",
    "predict_val_theta",
    "predict_val_shifted_power_columns",
    "predict_val_shifted_triple_columns",
    "predict_val_difference_columns",
    "predict_val_theta_columns",
    "f_conjectured",
    "f_conjectured_columns",
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

    @classmethod
    def of(cls, source: str | np.ndarray, kind: str | np.ndarray, value: object) -> "Claims":
        """Claims from a source and a kind given by name, or as code arrays."""
        if isinstance(source, str):
            source = np.array(SOURCES.index(source), dtype=np.int8)
        if isinstance(kind, str):
            kind = np.array(CLAIM_KINDS.index(kind), dtype=np.int8)
        return cls(source, kind, np.asarray(value, dtype=np.int64))


def _where(cond: np.ndarray, yes: str, no: str, names: tuple[str, ...]) -> np.ndarray:
    """The code of yes where cond holds, else that of no, in names."""
    return np.where(cond, names.index(yes), names.index(no)).astype(np.int8)


def predict_val(big_n: int, k: int) -> list[Prediction]:
    """All applicable closed-form claims about nu2(S(big_n, k)).

    Decomposes big_n = c * 2**n with n = nu2(big_n) maximal (c odd) and
    matches every statement whose parameter domain contains (c, n, k).
    Equality claims come first; a not-applicable placeholder is returned
    when nothing matches.
    """
    if big_n < 2:
        raise DomainError(f"need N >= 2, got {big_n}")
    if not 1 <= k <= big_n:
        raise DomainError(f"need 1 <= k <= N, got k={k}, N={big_n}")
    n = nu2_int(big_n)
    c = big_n >> n
    equalities: list[Prediction] = []
    bounds: list[Prediction] = []

    if k <= (1 << n):
        equalities.append(
            Prediction(EQUALITY, s2(k) - 1, SRC_LEM_LENGYEL_EQ, {"c": c, "n": n, "k": k})
        )
    if n >= 2 and (c - 1) << n < k:  # k = (c-1)*2**n + a with 1 <= a <= 2**n
        a = k - ((c - 1) << n)
        if a <= (1 << n):
            equalities.append(
                Prediction(EQUALITY, s2(a) - 1, SRC_THM_DIAGONAL, {"c": c, "n": n, "a": a})
            )
    if c >= 3:
        if k == (1 << (n + 1)) - 1:
            equalities.append(
                Prediction(EQUALITY, n, SRC_LEM_LENGYEL_BD, {"c": c, "n": n, "k": k})
            )
        elif (1 << n) < k < (1 << (n + 1)) - 1:
            bounds.append(
                Prediction(LOWER_BOUND, s2(k), SRC_LEM_LENGYEL_BD, {"c": c, "n": n, "k": k})
            )
    a = k & ((1 << (n + 1)) - 1)
    b = k >> (n + 1)
    if a > 0:
        bounds.append(
            Prediction(LOWER_BOUND, s2(a) - 1, SRC_THM_LOWER_BOUND, {"c": c, "n": n, "b": b, "a": a})
        )
    out = equalities + bounds
    return out or [Prediction(NOT_APPLICABLE, None, SRC_THM_LOWER_BOUND, {"c": c, "n": n})]


def predict_val_shifted_power(c: int, n: int, m: int) -> Prediction:
    """Claim: nu2(S(c*2**n + 2**m, 2**n)) = n - 1 - m, for 0 <= m < n, c odd."""
    if c < 1 or c % 2 == 0:
        raise DomainError(f"need odd c >= 1, got {c}")
    if not 0 <= m < n:
        raise DomainError(f"need 0 <= m < n, got m={m}, n={n}")
    return Prediction(
        EQUALITY, n - 1 - m, SRC_LEM_SHIFTED_POWER, {"c": c, "n": n, "m": m}
    )


def predict_val_shifted_power_columns(c: int, n: np.ndarray, m: np.ndarray) -> Claims:
    """Column form of predict_val_shifted_power over arrays n and m of the same shape."""
    if c < 1 or c % 2 == 0:
        raise DomainError(f"need odd c >= 1, got {c}")
    if m.size and ((m < 0) | (m >= n)).any():
        raise DomainError("need 0 <= m < n in every cell")
    return Claims.of(SRC_LEM_SHIFTED_POWER, EQUALITY, n - 1 - m)


def predict_val_shifted_triple(c: int, m: int, b: int, n: int, a: int) -> Prediction:
    """Claim about nu2(S(c*2**m + b*2**(n+1) + 2**n, b*2**(n+2) + a)).

    Equality n when a = 2**(n+1) - 1, otherwise a lower bound of s2(a).
    Needs c odd, b >= 1, n >= 1, 1 <= a < 2**(n+1) and m large enough
    (m >= n + 2 + floor(log2(b))).
    """
    if c < 1 or c % 2 == 0:
        raise DomainError(f"need odd c >= 1, got {c}")
    if b < 1:
        raise DomainError(f"need b >= 1, got {b}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    if not 1 <= a < (1 << (n + 1)):
        raise DomainError(f"need 1 <= a < 2**(n+1), got a={a}")
    m_min = n + 2 + (b.bit_length() - 1)
    if m < m_min:
        raise DomainError(f"need m >= n + 2 + floor(log2(b)) = {m_min}, got {m}")
    params = {"c": c, "m": m, "b": b, "n": n, "a": a}
    if a == (1 << (n + 1)) - 1:
        return Prediction(EQUALITY, n, SRC_THM_SHIFTED_TRIPLE, params)
    return Prediction(LOWER_BOUND, s2(a), SRC_THM_SHIFTED_TRIPLE, params)


def predict_val_shifted_triple_columns(
    c: np.ndarray, m: np.ndarray, b: int, n: int, a: np.ndarray
) -> Claims:
    """Column form of predict_val_shifted_triple over arrays c, m and a of the same shape."""
    if a.size:
        # the domain is a box in (c, m, a) but for the oddness of c: its corners decide
        predict_val_shifted_triple(int(c.min()), int(m.min()), b, n, int(a.min()))
        predict_val_shifted_triple(int(c.max()), int(m.max()), b, n, int(a.max()))
        if (c % 2 == 0).any():
            raise DomainError("need odd c in every cell")
    top = a == (1 << (n + 1)) - 1
    kind = _where(top, EQUALITY, LOWER_BOUND, CLAIM_KINDS)
    return Claims.of(SRC_THM_SHIFTED_TRIPLE, kind, np.where(top, n, s2_column(a)))


def predict_val_difference(a: int, b: int, n: int, k: int) -> Prediction:
    """Claim about nu2(S(a*2**n, k) - S(b*2**n, k)) for a > b >= 1, 3 <= k <= 2**n:

        n + 1 + nu2(a-b) - f(k),    f(k) = 1 + ceil(log2 k) - s2(k) - delta(k).

    Away from k = 2**m - 1 this is the proved formula.  At k = 2**m - 1,
    where f(k) = 0, the case is open: the claim is tagged conjectural so
    verifiers report rather than assert it.
    """
    if b < 1 or a <= b:
        raise DomainError(f"need a > b >= 1, got a={a}, b={b}")
    if k < 3 or k > (1 << n):
        raise DomainError(f"need 3 <= k <= 2**n, got k={k}, n={n}")
    params = {"a": a, "b": b, "n": n, "k": k}
    value = n + 1 + nu2_int(a - b) - f_conjectured(k)
    if is_power_of_two(k + 1):
        return Prediction(CONJECTURAL_EQUALITY, value, SRC_CONJ_MERSENNE, params)
    return Prediction(EQUALITY, value, SRC_THM_DIFFERENCE, params)


def predict_val_difference_columns(
    a: int | np.ndarray, b: int | np.ndarray, n: int | np.ndarray, k: np.ndarray
) -> Claims:
    """Column form of predict_val_difference: a, b and n are ints or arrays
    that broadcast with the array k."""
    if k.size and (np.min(b) < 1 or np.min(a - b) < 1):
        raise DomainError(f"need a > b >= 1 in every cell, got a={a}, b={b}")
    # f_conjectured_columns checks k >= 3; k <= 2**n is (k - 1) >> n == 0
    value = n + 1 + nu2_column(a - b) - f_conjectured_columns(k)
    if k.size and ((k - 1) >> n).any():
        raise DomainError(f"need 3 <= k <= 2**n in every cell, got k={k}, n={n}")
    mersenne = (k & (k + 1)) == 0
    source = _where(mersenne, SRC_CONJ_MERSENNE, SRC_THM_DIFFERENCE, SOURCES)
    kind = _where(mersenne, CONJECTURAL_EQUALITY, EQUALITY, CLAIM_KINDS)
    return Claims.of(source, kind, value)


def _distinguished_a(k: int) -> int:
    # the unique a for which the theta-lemma bound is attained
    m1 = k.bit_length() - 1
    th = theta(k)
    m_th = m1 - th + 1  # exponents at the top run are consecutive
    if th < s2(k):
        return (1 << (m_th - 1)) * ((1 << th) - 1)
    return (1 << m_th) * ((1 << (th - 1)) - 1)


def _distinguished_a_columns(k: np.ndarray) -> np.ndarray:
    """_distinguished_a of each entry of k."""
    if k.dtype != np.int64:
        return np.array([_distinguished_a(v) for v in k.tolist()], dtype=object)
    th = theta_column(k)
    m_th = ceil_log2_column(k + 1) - th  # floor(log2 k) - theta + 1
    # each branch is taken only where its shifts are >= 0
    short = (1 << np.maximum(m_th - 1, 0)) * ((1 << th) - 1)
    run = (1 << m_th) * ((1 << np.maximum(th - 1, 0)) - 1)
    return np.where(th < s2_column(k), short, run)


def predict_val_theta(c: int, n: int, a: int, k: int) -> Prediction:
    """Claim about nu2(S(c*2**n - a, k - 2a)) from the top-run lemma.

    For k with s2(k) >= 2, k neither a power of two nor one less, and
    1 <= a <= ceil(k/2) - 1: equality s2(k) - ceil(log2 k) + nu2(a) exactly
    at the distinguished a determined by theta(k), and a strict inequality
    (reported as a lower bound one higher) everywhere else.
    """
    if c < 1 or c % 2 == 0:
        raise DomainError(f"need odd c >= 1, got {c}")
    if k < 3 or k > (1 << n):
        raise DomainError(f"need 3 <= k <= 2**n, got k={k}, n={n}")
    if s2(k) < 2:
        raise DomainError(f"need s2(k) >= 2, got k={k}")
    if is_power_of_two(k) or is_power_of_two(k + 1):
        raise DomainError(f"k may be neither a power of two nor one less, got {k}")
    a_max = -(-k // 2) - 1
    if not 1 <= a <= a_max:
        raise DomainError(f"need 1 <= a <= ceil(k/2) - 1 = {a_max}, got a={a}")
    base = s2(k) - ceil_log2(k) + nu2_int(a)
    params = {"c": c, "n": n, "a": a, "k": k}
    if a == _distinguished_a(k):
        return Prediction(EQUALITY, base, SRC_LEM_THETA, params)
    # strict inequality over integers, clamped: valuations are never negative
    return Prediction(LOWER_BOUND, max(0, base + 1), SRC_LEM_THETA, params)


def predict_val_theta_columns(c: int, n: int, a: np.ndarray, k: np.ndarray) -> Claims:
    """Column form of predict_val_theta over arrays a and k of the same shape."""
    if c < 1 or c % 2 == 0:
        raise DomainError(f"need odd c >= 1, got {c}")
    if k.size:
        if int(k.min()) < 3 or int(k.max()) > 1 << n:
            raise DomainError(f"need 3 <= k <= 2**n, got k in {k.min()}..{k.max()}, n={n}")
        # s2(k) >= 2 holds for every k >= 3 that is not a power of two
        if ((k & (k - 1)) == 0).any() or ((k & (k + 1)) == 0).any():
            raise DomainError("k may be neither a power of two nor one less")
        if (a < 1).any() or (a > (k + 1) // 2 - 1).any():
            raise DomainError("need 1 <= a <= ceil(k/2) - 1 in every cell")
    base = s2_column(k) - ceil_log2_column(k) + nu2_column(a)
    at = a == _distinguished_a_columns(k)
    kind = _where(at, EQUALITY, LOWER_BOUND, CLAIM_KINDS)
    return Claims.of(SRC_LEM_THETA, kind, np.where(at, base, np.maximum(0, base + 1)))


def f_conjectured(k: int) -> int:
    """The difference drop f(k) = 1 + ceil(log2 k) - s2(k) - delta(k).

    Proved for k other than 2**m - 1, where f(k) = 0 is the conjecture."""
    if k < 3:
        raise DomainError(f"need k >= 3, got {k}")
    return 1 + ceil_log2(k) - s2(k) - delta_conjecture(k)


def f_conjectured_columns(k: np.ndarray) -> np.ndarray:
    """f_conjectured of each entry of k."""
    if np.size(k) and int(np.min(k)) < 3:
        raise DomainError(f"need k >= 3, got {np.min(k)}")
    power = (k & (k - 1)) == 0
    delta = np.where(k == 4, 2, power | ((k & (k + 1)) == 0))
    return 1 + ceil_log2_column(k) - s2_column(k) - delta
