import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirling2adic import engine
from stirling2adic.base2 import Valuation, nu2_int
from stirling2adic.engine import (
    PrecisionPolicy,
    Residue,
    check_convolution,
    check_symmetric_identity,
    stirling_exact,
    stirling_explicit_mod2,
    stirling_explicit_row_mod2,
    stirling_mod2,
    stirling_row_mod2,
    stirling_rows_mod2,
    val_stirling,
    val_stirling_difference,
    valuations,
)
from stirling2adic.errors import DomainError, ResourceCapError


def stirling_reference(n: int, k: int) -> int:
    # inclusion-exclusion oracle, independent of the recurrence under test
    if k > n:
        return 0
    total = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    assert total % math.factorial(k) == 0
    return total // math.factorial(k)


class TestResidue:
    def test_val(self):
        assert Residue(12, 8).val() == Valuation.finite(2)
        assert Residue(0, 8).val() == Valuation.at_least(8)

    def test_invariants(self):
        with pytest.raises(DomainError):
            Residue(256, 8)
        with pytest.raises(DomainError):
            Residue(-1, 8)
        with pytest.raises(DomainError):
            Residue(0, 0)


class TestPrecisionPolicy:
    def test_ladder_doubles_and_clips(self):
        assert list(PrecisionPolicy(48, 100).ladder()) == [48, 96, 100]
        assert list(PrecisionPolicy(64, 64).ladder()) == [64]

    def test_for_predicted(self):
        assert PrecisionPolicy.for_predicted(3).initial_bits == 35
        assert PrecisionPolicy.for_predicted(None).initial_bits == 48

    def test_rejects_bad(self):
        with pytest.raises(DomainError):
            PrecisionPolicy(0, 64)
        with pytest.raises(DomainError):
            PrecisionPolicy(128, 64)


class TestExact:
    def test_examples(self):
        assert stirling_exact(4, 2) == 7
        assert stirling_exact(9, 9) == 1
        assert stirling_exact(12, 10) == 1705
        assert stirling_exact(12, 10) == math.comb(12, 3) + 3 * math.comb(12, 4)

    def test_edges(self):
        assert stirling_exact(0, 0) == 1
        assert stirling_exact(5, 0) == 0
        assert stirling_exact(3, 7) == 0

    def test_cap(self):
        with pytest.raises(ResourceCapError):
            stirling_exact(2001, 5)
        assert stirling_exact(2001, 1, cap=2500) == 1

    def test_against_explicit_reference(self):
        for n in range(0, 40):
            for k in range(0, n + 1):
                assert stirling_exact(n, k) == stirling_reference(n, k)


class TestRowEngine:
    def test_examples(self):
        assert stirling_mod2(4, 3, 8) == Residue(6, 8)
        for n in (1, 5, 33):
            assert stirling_mod2(n, 1, 16) == Residue(1, 16)
        assert stirling_mod2(16, 5, 16).value == stirling_exact(16, 5) % 2**16 == 35414

    def test_row_matches_exact(self):
        for bits in (8, 64, 96):
            for n in (0, 1, 7, 25, 80):
                row = stirling_row_mod2(n, n, bits)
                for k in range(n + 1):
                    assert row[k] == stirling_exact(n, k) % 2**bits

    def test_multi_snapshot_single_pass(self):
        rows = stirling_rows_mod2((8, 20, 32), 10, 32)
        assert set(rows) == {8, 20, 32}
        for n, row in rows.items():
            assert row == stirling_row_mod2(n, 10, 32)

    def test_k_above_n_is_zero(self):
        assert stirling_mod2(5, 9, 16).value == 0

    def test_row_cap(self):
        with pytest.raises(ResourceCapError):
            stirling_row_mod2(10, 1 << 23, 8)

    def test_parity_against_exact(self):
        # 1-bit rows: parity carried through the full recurrence
        for n in range(0, 201, 7):
            row = stirling_row_mod2(n, n, 1)
            for k in range(n + 1):
                assert row[k] == stirling_exact(n, k) % 2


class TestExplicitEngine:
    def test_examples(self):
        assert stirling_explicit_mod2(4, 2, 8) == Residue(7, 8)
        for k in (0, 1, 4, 9):
            assert stirling_explicit_mod2(k, k, 12).value == 1
        assert stirling_explicit_mod2(10, 4, 12) == stirling_mod2(10, 4, 12)

    def test_against_exact(self):
        # the row form against the single-cell form and the exact triangle,
        # three columns past the diagonal
        for bits in (1, 8, 32, 64, 65, 128):
            for n in range(0, 45):
                expected = [stirling_exact(n, k) % 2**bits for k in range(n + 4)]
                assert expected[n + 1 :] == [0, 0, 0]
                assert stirling_explicit_row_mod2(n, n + 3, bits) == expected
                assert [stirling_explicit_mod2(n, k, bits).value for k in range(n + 4)] == expected

    def test_k_above_n(self):
        assert stirling_explicit_mod2(3, 8, 16).value == 0

    def test_row_rejects_bad_input(self):
        for args in ((-1, 4, 8), (4, -1, 8), (4, 4, 0)):
            with pytest.raises(DomainError):
                stirling_explicit_row_mod2(*args)
        with pytest.raises(ResourceCapError):
            stirling_explicit_row_mod2(10, 1 << 23, 8)


class TestValStirling:
    def test_examples(self):
        assert val_stirling(16, 5) == Valuation.finite(1)
        assert val_stirling(9, 9) == Valuation.finite(0)
        assert val_stirling(12, 11) == Valuation.finite(1)
        assert stirling_exact(12, 11) == 66

    def test_k_zero(self):
        assert val_stirling(0, 0) == Valuation.finite(0)
        assert val_stirling(5, 0) == Valuation.infinite()

    def test_rejects_k_above_n(self):
        with pytest.raises(DomainError):
            val_stirling(5, 6)

    def test_soundness_against_exact(self):
        for n in range(1, 65):
            for k in range(1, n + 1):
                v = val_stirling(n, k)
                assert v.is_finite
                assert v.exact() == nu2_int(stirling_exact(n, k))

    def test_precision_exhaustion_reports_at_least(self):
        # nu2(S(12, 7)) = 2, unresolvable with only 1..2 bits
        policy = PrecisionPolicy(1, 2)
        assert val_stirling(12, 7, policy) == Valuation.at_least(2)

    @given(st.integers(min_value=1, max_value=120), st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_precision(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        bits = data.draw(st.sampled_from([4, 8, 16]))
        r = stirling_mod2(n, k, bits)
        if r.value:
            wider = stirling_mod2(n, k, 2 * bits)
            assert wider.val() == r.val()


class TestValDifference:
    def test_examples(self):
        assert val_stirling_difference(32, 16, 5) == Valuation.finite(3)
        assert val_stirling_difference(20, 20, 7) == Valuation.infinite()
        assert val_stirling_difference(8, 4, 3) == Valuation.finite(6)
        assert stirling_exact(8, 3) - stirling_exact(4, 3) == 960

    def test_soundness_against_exact(self):
        for (n1, n2) in [(24, 8), (40, 16), (33, 9), (50, 2)]:
            for k in range(1, n2 + 1):
                d = stirling_exact(n1, k) - stirling_exact(n2, k)
                expected = Valuation.infinite() if d == 0 else Valuation.finite(nu2_int(d))
                assert val_stirling_difference(n1, n2, k) == expected

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            val_stirling_difference(16, 8, 9)


class TestValuations:
    @pytest.mark.parametrize(
        "n1, n2, policy",
        [
            (25, None, PrecisionPolicy(1, 8)),
            (25, 9, PrecisionPolicy(1, 8)),
            # nu2(S(80, 2) - S(70, 2)) = 69: certified on the wide tier at 132 bits
            (80, 70, PrecisionPolicy(33, 132)),
        ],
    )
    def test_one_pass_per_rung_over_pending_columns(self, monkeypatch, n1, n2, policy):
        ks = range(1, 10)
        exact = {
            k: stirling_exact(n1, k) - (0 if n2 is None else stirling_exact(n2, k)) for k in ks
        }
        passes = []

        def rows(ns, k_max, bits):
            passes.append((tuple(ns), k_max, bits))
            return stirling_rows_mod2(ns, k_max, bits)

        monkeypatch.setattr(engine, "stirling_rows_mod2", rows)
        out = valuations(n1, ks, policy, n2)
        expected_passes, pending = [], set(ks)
        for bits in policy.ladder():
            if pending:
                ns = (n1,) if n2 is None else (n1, n2)
                expected_passes.append((ns, max(pending), bits))
                pending = {k for k in pending if exact[k] % (1 << bits) == 0}
        assert passes == expected_passes
        for k in ks:
            if exact[k] % (1 << policy.max_bits):
                assert out[k] == Valuation.finite(nu2_int(exact[k])), k
            else:
                assert out[k] == Valuation.at_least(policy.max_bits), k

    def test_zero_columns_exhaust_the_ladder(self):
        # S(5, 7) = 0 and S(12, 3) - S(12, 3) = 0: the caller's cases to rule out
        policy = PrecisionPolicy(8, 16)
        assert valuations(5, [7, 3], policy) == {7: Valuation.at_least(16), 3: Valuation.finite(0)}
        assert valuations(12, [3], policy, 12) == {3: Valuation.at_least(16)}


class TestConvolution:
    def test_examples(self):
        assert check_convolution(1, 1, 2)
        for m in (1, 3, 6):
            for k in range(m + 1):
                assert check_convolution(0, m, k)
        assert check_convolution(5, 7, 4)

    def test_full_small_grid(self):
        for n in range(0, 7):
            for m in range(1, 7):
                for k in range(n + m + 1):
                    assert check_convolution(n, m, k)

    def test_m_zero_is_outside_identity_domain(self):
        # the right side vanishes at m = 0, so the identity genuinely fails
        assert not check_convolution(5, 0, 3)

    def test_rejects_bad_k(self):
        with pytest.raises(DomainError):
            check_convolution(2, 2, 5)


class TestSymmetricIdentity:
    def test_examples(self):
        assert check_symmetric_identity(1, 1, 3)
        assert check_symmetric_identity(1, 2, 4)
        assert check_symmetric_identity(3, 3, 5)

    def test_small_grid(self):
        for k1 in range(0, 5):
            for k2 in range(0, 5):
                for r in range(max(k1, k2) + 2, k1 + k2 + 3):
                    assert check_symmetric_identity(k1, k2, r)

    def test_rejects_small_r(self):
        with pytest.raises(DomainError):
            check_symmetric_identity(3, 3, 4)
