"""Bell polynomials over truncated 2-adic coefficients and the Junod check.

The Bell polynomial is B_n(x) = sum_k S(n, k) x**k.  Junod's congruence
relates B_{m + n*p**v} to the lower-index polynomials

    B_{m+n*p**v}(x) = sum_{j=0..n} C(n,j) (x**p + ... + x**(p**v))**(n-j) B_{m+j}(x)

modulo (n*p/2) Z_p[x].  That modulus is read ideal-theoretically: for p = 2
it is n*Z_2[x], i.e. every coefficient of the difference must have 2-adic
order >= nu2(n); for odd p the factor 2 is a unit, so the requirement is
order >= nu_p(n) + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .base2 import Valuation, nu2_int
from .engine import Residue, stirling_exact_table, stirling_row_mod2, stirling_rows_mod2
from .errors import DomainError, PrecisionError

__all__ = ["PolyMod", "bell_poly", "junod_check"]

_GUARD_BITS = 8


@dataclass(frozen=True)
class PolyMod:
    """Polynomial with coefficients mod 2**bits, truncated above degree_cap."""

    coeffs: tuple[int, ...]
    bits: int
    degree_cap: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise DomainError(f"need bits >= 1, got {self.bits}")
        if len(self.coeffs) > self.degree_cap + 1:
            raise DomainError("more coefficients than degree_cap allows")
        if any(not 0 <= c < (1 << self.bits) for c in self.coeffs):
            raise DomainError(f"coefficient out of range for {self.bits} bits")

    def residue(self, k: int) -> Residue:
        value = self.coeffs[k] if k < len(self.coeffs) else 0
        return Residue(value, self.bits)


def bell_poly(n: int, bits: int, degree_cap: int | None = None) -> PolyMod:
    """Bell polynomial B_n with coefficients S(n, k) mod 2**bits, k <= degree_cap."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    cap = n if degree_cap is None else degree_cap
    if cap < 0:
        raise DomainError(f"need degree_cap >= 0, got {cap}")
    row = stirling_row_mod2(n, min(n, cap), bits)
    return PolyMod(tuple(row), bits, cap)


def _poly_mul(p: list[int], q: list[int], cap: int, mask: int | None) -> list[int]:
    out = [0] * min(len(p) + len(q) - 1, cap + 1)
    for i, pi in enumerate(p):
        if pi == 0 or i > cap:
            continue
        for j, qj in enumerate(q):
            if i + j > cap:
                break
            out[i + j] += pi * qj
    if mask is not None:
        out = [c & mask for c in out]
    return out


def _nu_p(x: int, p: int) -> int:
    x = abs(x)
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _rhs_coeffs(bells: list[list[int]], v: int, p: int, cap: int, mask: int | None) -> list[int]:
    """Right-side coefficients up to degree cap from bells[j], those of B_{m+j}, j <= n."""
    gap = [0] * (p**v + 1)
    for t in range(1, v + 1):
        gap[p**t] = 1
    rhs = [0] * (cap + 1)
    gpow = [1]  # (x**p + ... + x**(p**v)) ** e, e = n - j as j descends
    n = len(bells) - 1
    for e, j in enumerate(range(n, -1, -1)):
        if e > 0:
            gpow = _poly_mul(gpow, gap, cap, mask)
        cnj = math.comb(n, j) if mask is None else math.comb(n, j) & mask
        term = _poly_mul(gpow, bells[j], cap, mask)
        for i, t in enumerate(term):
            rhs[i] = rhs[i] + cnj * t
            if mask is not None:
                rhs[i] &= mask
    return rhs


def junod_check(
    m: int,
    n: int,
    v: int,
    p: int = 2,
    bits: int | None = None,
    degree_cap: int | None = None,
) -> tuple[bool, Valuation]:
    """Check Junod's congruence coefficientwise; returns (holds, slack).

    slack is the minimum coefficient valuation of the difference minus the
    required bound, so holds iff slack is nonnegative (an at-least slack of
    any size certifies the congruence at the working precision).

    For p = 2 coefficients are computed mod 2**bits (default: required bound
    plus guard bits).  A nonzero residue settles the check either way; if
    every residue vanishes at a precision that does not exceed the required
    bound, neither outcome is certified and PrecisionError is raised.  Odd p
    runs on exact integers.
    """
    if m < 0 or n < 1 or v < 1:
        raise DomainError(f"need m >= 0, n >= 1, v >= 1, got m={m}, n={n}, v={v}")
    if not _is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    full_degree = m + n * p**v
    cap = full_degree if degree_cap is None else degree_cap
    if cap < 0:
        raise DomainError(f"need degree_cap >= 0, got {cap}")

    if p == 2:
        required = nu2_int(n)
        work_bits = bits if bits is not None else required + _GUARD_BITS
        if work_bits < 1:
            raise DomainError(f"need bits >= 1, got {work_bits}")
        mask = (1 << work_bits) - 1
        ns = [*range(m, m + n + 1), full_degree]
        rows = stirling_rows_mod2(ns, min(full_degree, cap), work_bits)
        lhs = rows[full_degree]
        bells = [rows[m + j][: min(m + j, cap) + 1] for j in range(n + 1)]
        rhs = _rhs_coeffs(bells, v, p, cap, mask)
        lhs += [0] * (cap + 1 - len(lhs))
        diff = [(a - b) & mask for a, b in zip(lhs, rhs)]
        finite = [nu2_int(d) for d in diff if d]
        if not finite:
            if work_bits <= required:
                raise PrecisionError(
                    f"all coefficients vanish mod 2**{work_bits}; "
                    f"cannot certify the bound nu2 >= {required}"
                )
            return True, Valuation.at_least(work_bits - required)
        low = min(finite)
        return low >= required, Valuation.finite(low - required)

    required = _nu_p(n, p) + 1
    table = stirling_exact_table(full_degree, min(full_degree, cap))
    lhs_exact = table[full_degree][: min(full_degree, cap) + 1]
    bells = [table[m + j][: min(m + j, cap) + 1] for j in range(n + 1)]
    rhs_exact = _rhs_coeffs(bells, v, p, cap, None)
    lhs_exact += [0] * (cap + 1 - len(lhs_exact))
    diff_exact = [a - b for a, b in zip(lhs_exact, rhs_exact)]
    finite = [_nu_p(d, p) for d in diff_exact if d]
    if not finite:
        return True, Valuation.infinite()
    low = min(finite)
    return low >= required, Valuation.finite(low - required)
