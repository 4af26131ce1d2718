import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stirling2adic.base2 import (
    Valuation,
    brute_force_J,
    ceil_log2,
    count_J,
    delta_conjecture,
    kummer_binomial_val,
    legendre_factorial_val,
    mersenne_power_val,
    nu2,
    nu2_int,
    s2,
    s2_scaled_difference,
    theta,
)
from stirling2adic.errors import DomainError, ResourceCapError


def v2_oracle(x: int) -> int:
    # division-loop oracle, independent of the bit tricks under test
    x = abs(x)
    v = 0
    while x % 2 == 0:
        x //= 2
        v += 1
    return v


class TestNu2:
    def test_examples(self):
        assert nu2(40) == Valuation.finite(3)
        assert nu2(0) == Valuation.infinite()
        assert nu2(1) == Valuation.finite(0)

    def test_negative(self):
        assert nu2(-40) == Valuation.finite(3)

    def test_nu2_int_rejects_zero(self):
        with pytest.raises(DomainError):
            nu2_int(0)

    @given(st.integers(min_value=-(2**40), max_value=2**40).filter(lambda x: x != 0))
    def test_matches_division_oracle(self, x):
        assert nu2_int(x) == v2_oracle(x)


class TestS2:
    def test_examples(self):
        assert s2(11) == 3
        assert s2(0) == 0
        for t in range(12):
            assert s2(1 << t) == 1

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            s2(-1)

    @given(st.integers(min_value=0, max_value=2**64))
    def test_matches_bin_count(self, x):
        assert s2(x) == bin(x).count("1")


class TestCeilLog2:
    def test_powers_and_neighbours(self):
        assert ceil_log2(1) == 0
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(4) == 2
        assert ceil_log2(5) == 3
        assert ceil_log2(1024) == 10
        assert ceil_log2(1025) == 11

    @given(st.integers(min_value=1, max_value=2**60))
    def test_exact(self, x):
        c = ceil_log2(x)
        assert (1 << c) >= x
        assert x == 1 or (1 << (c - 1)) < x

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            ceil_log2(0)


class TestLegendre:
    def test_examples(self):
        assert legendre_factorial_val(10) == 8
        assert math.factorial(10) == 2**8 * 14175
        assert legendre_factorial_val(0) == 0
        for t in range(10):
            assert legendre_factorial_val(1 << t) == (1 << t) - 1

    def test_against_exact_factorials(self):
        fact = 1
        for n in range(1, 400):
            fact *= n
            assert legendre_factorial_val(n) == v2_oracle(fact)


class TestKummer:
    def test_examples(self):
        assert kummer_binomial_val(10, 4) == 1
        assert math.comb(10, 4) == 210
        assert kummer_binomial_val(7, 0) == 0
        assert kummer_binomial_val(7, 7) == 0

    def test_rejects_k_above_n(self):
        with pytest.raises(DomainError):
            kummer_binomial_val(4, 5)

    def test_against_pascal_recurrence(self):
        row = [1]
        for n in range(1, 129):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for k, val in enumerate(row):
                assert kummer_binomial_val(n, k) == v2_oracle(val)

    @given(st.integers(min_value=0, max_value=300), st.data())
    def test_nonnegative(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert kummer_binomial_val(n, k) >= 0


class TestS2ScaledDifference:
    def test_examples(self):
        assert s2_scaled_difference(3, 4, 5) == 4
        assert 3 * 2**4 - 5 == 43 and s2(43) == 4
        assert s2_scaled_difference(1, 3, 8) == 0
        assert s2_scaled_difference(1, 3, 1) == 3

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            s2_scaled_difference(2, 4, 5)  # even c
        with pytest.raises(DomainError):
            s2_scaled_difference(3, 4, 0)
        with pytest.raises(DomainError):
            s2_scaled_difference(3, 4, 17)

    def test_full_small_grid(self):
        for c in range(1, 32, 2):
            for n in range(0, 13):
                for a in range(1, (1 << n) + 1):
                    assert s2_scaled_difference(c, n, a) == s2(c * 2**n - a)


class TestJSet:
    def test_count_examples(self):
        assert count_J(2, 3) == 3
        assert count_J(2, 5) == 2
        for n in range(0, 8):
            assert count_J(n, 1) == 1

    def test_enumeration_examples(self):
        assert brute_force_J(2, 3) == {1, 2, 3}
        assert brute_force_J(1, 1) == {1}
        assert brute_force_J(2, 5) == {1, 4}

    def test_count_matches_enumeration(self):
        for n in range(0, 7):
            for a in range(1, 1 << (n + 1)):
                assert count_J(n, a) == len(brute_force_J(n, a))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            count_J(3, 0)
        with pytest.raises(DomainError):
            count_J(3, 16)
        with pytest.raises(DomainError):
            brute_force_J(3, 16)

    def test_enumeration_cap(self):
        with pytest.raises(ResourceCapError):
            brute_force_J(30, 1, cap=1 << 10)


class TestMersennePower:
    def test_examples(self):
        assert mersenne_power_val(1, 2, 1, 2) == 4
        assert 3**4 - 1 == 80
        assert mersenne_power_val(1, 2, 1, 1) == 3
        assert mersenne_power_val(1, 3, 1, 1) == 4

    def test_against_exact_powers(self):
        for r in (1, 3, 5):
            for n in (2, 3, 4):
                for t in (1, 3):
                    for m in (1, 2, 3):
                        if m + n > 64:
                            continue
                        base = r * 2**n - 1
                        assert mersenne_power_val(r, n, t, m) == v2_oracle(
                            base ** (t * 2**m) - 1
                        )

    def test_rejects_bad_domain(self):
        for bad in [(2, 2, 1, 1), (1, 1, 1, 1), (1, 2, 2, 1), (1, 2, 1, 0)]:
            with pytest.raises(DomainError):
                mersenne_power_val(*bad)


def theta_oracle(k: int) -> int:
    # direct definitional scan of the exponent list
    exps = [i for i in range(k.bit_length() - 1, -1, -1) if (k >> i) & 1]
    best = 1
    for length in range(1, len(exps) + 1):
        if all(exps[i] == exps[0] - i for i in range(length)):
            best = length
    return best


class TestTheta:
    def test_examples(self):
        assert theta(11) == 1
        assert theta(12) == 2
        assert theta(13) == 2
        for t in range(8):
            assert theta(1 << t) == 1

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            theta(0)

    def test_definitional_scan(self):
        for k in range(1, 4097):
            assert theta(k) == theta_oracle(k)

    def test_range_and_maximality(self):
        for k in range(1, 2049):
            t = theta(k)
            assert 1 <= t <= s2(k)
            # theta == s2 exactly when k = 2**j * (2**s2 - 1)
            odd_part = k >> nu2_int(k)
            assert (t == s2(k)) == (odd_part == (1 << s2(k)) - 1)


class TestDeltas:
    def test_conjecture_variant(self):
        assert delta_conjecture(7) == 1
        assert delta_conjecture(4) == 2
        assert delta_conjecture(10) == 0
        assert delta_conjecture(3) == 1
        assert delta_conjecture(8) == 1
        assert delta_conjecture(15) == 1
        assert delta_conjecture(16) == 1
        with pytest.raises(DomainError):
            delta_conjecture(2)


def ceil_log2_oracle(x: int) -> int:
    # the least c with 2**c >= x, by doubling
    c = 0
    while 1 << c < x:
        c += 1
    return c


class TestColumnForms:
    # below 2**53, where int64 bit lengths come from numpy.frexp; above, where they come by
    # binary search; and exact Python integers past int64
    VALUES = [1, 2, 3, 4, 7, 8, 12, 255, 256, 2**31 + 5, 2**52 + 1, 2**53 - 1, 2**53, 2**53 + 3,
              2**62 + 2**61, 2**63 - 1]
    HUGE = [2**70 + 3, 2**64, 3 * 2**80, 2**64 - 1, (2**90 - 1) << 7]

    @pytest.mark.parametrize(
        "fn, oracle",
        [(s2, lambda x: bin(x).count("1")), (nu2_int, v2_oracle), (ceil_log2, ceil_log2_oracle),
         (theta, theta_oracle)],
        ids=["s2", "nu2_int", "ceil_log2", "theta"],
    )
    def test_against_oracles(self, fn, oracle):
        rng = random.Random(5)
        values = self.VALUES + [rng.randrange(1, 2**63) for _ in range(300)]
        expected = [oracle(v) for v in values]
        assert fn(np.array(values, dtype=np.int64)).tolist() == expected
        assert [fn(v) for v in values] == expected
        assert fn(np.array(self.HUGE, dtype=object)).tolist() == [oracle(v) for v in self.HUGE]
        assert [fn(v) for v in self.HUGE] == [oracle(v) for v in self.HUGE]

    @pytest.mark.parametrize(
        "fn, bad", [(s2, -1), (nu2_int, 0), (ceil_log2, 0), (theta, 0)],
        ids=["s2", "nu2_int", "ceil_log2", "theta"],
    )
    def test_domain(self, fn, bad):
        for dtype in (np.int64, object):
            with pytest.raises(DomainError):
                fn(np.array([5, bad], dtype=dtype))
        with pytest.raises(DomainError):
            fn(bad)
