import hashlib
import itertools
import json

import pytest

from stirling2adic import predictors

from stirling2adic.base2 import ceil_log2, is_power_of_two, nu2_int, s2
from stirling2adic.engine import stirling_exact, val_stirling, val_stirling_difference
from stirling2adic.errors import DomainError
from stirling2adic.predictors import (
    CONJECTURAL_EQUALITY,
    EQUALITY,
    LOWER_BOUND,
    NOT_APPLICABLE,
    SRC_CONJ_MERSENNE,
    SRC_LEM_LENGYEL_BD,
    SRC_LEM_LENGYEL_EQ,
    SRC_THM_DIAGONAL,
    SRC_THM_DIFFERENCE,
    SRC_THM_LOWER_BOUND,
    Prediction,
    f_conjectured,
    predict_val,
    predict_val_difference,
    predict_val_shifted_power,
    predict_val_shifted_triple,
    predict_val_theta,
)


def by_source(preds, source):
    return [p for p in preds if p.source == source]


class TestPredictVal:
    def test_lengyel_equality_instance(self):
        preds = predict_val(16, 5)
        (p,) = by_source(preds, SRC_LEM_LENGYEL_EQ)
        assert p.kind == EQUALITY and p.value == 1
        assert val_stirling(16, 5).exact() == 1

    def test_diagonal_instance(self):
        preds = predict_val(12, 10)
        (p,) = by_source(preds, SRC_THM_DIAGONAL)
        assert p.kind == EQUALITY and p.value == 0
        assert dict(p.params) == {"c": 3, "n": 2, "a": 2}
        assert stirling_exact(12, 10) == 1705  # odd

    def test_lower_bound_instance(self):
        preds = predict_val(12, 11)
        (p,) = by_source(preds, SRC_THM_LOWER_BOUND)
        assert p.kind == LOWER_BOUND and p.value == 1
        assert p.params["b"] == 1 and p.params["a"] == 3
        # the diagonal statement covers (12, 11) as well, with a = 3
        (q,) = by_source(preds, SRC_THM_DIAGONAL)
        assert q.kind == EQUALITY and q.value == 1
        assert stirling_exact(12, 11) == 66

    def test_lengyel_bound_instances(self):
        preds = predict_val(12, 5)  # 2**2 < 5 < 2**3 - 1, c = 3
        (p,) = by_source(preds, SRC_LEM_LENGYEL_BD)
        assert p.kind == LOWER_BOUND and p.value == s2(5)
        preds = predict_val(12, 7)  # k = 2**3 - 1
        (p,) = by_source(preds, SRC_LEM_LENGYEL_BD)
        assert p.kind == EQUALITY and p.value == 2
        assert val_stirling(12, 7).exact() == 2

    def test_equalities_come_first(self):
        preds = predict_val(12, 10)
        kinds = [p.kind for p in preds]
        assert kinds == sorted(kinds, key=lambda k: k != EQUALITY)

    def test_not_applicable_placeholder(self):
        preds = predict_val(12, 8)  # a = 0 mod 2**(n+1): nothing matches
        assert len(preds) == 1 and preds[0].kind == NOT_APPLICABLE

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            predict_val(1, 1)
        with pytest.raises(DomainError):
            predict_val(12, 0)
        with pytest.raises(DomainError):
            predict_val(12, 13)

    def test_soundness_small_grid(self):
        for big_n in range(2, 65):
            for k in range(1, big_n + 1):
                observed = nu2_int(stirling_exact(big_n, k))
                for p in predict_val(big_n, k):
                    if p.kind == EQUALITY:
                        assert p.value == observed, (big_n, k, p)
                    elif p.kind == LOWER_BOUND:
                        assert observed >= p.value, (big_n, k, p)


class TestShiftedPower:
    def test_examples(self):
        p = predict_val_shifted_power(1, 3, 1)  # S(10, 8)
        assert p.kind == EQUALITY and p.value == 1
        assert nu2_int(stirling_exact(10, 8)) == 1
        assert predict_val_shifted_power(1, 5, 4).value == 0
        p = predict_val_shifted_power(3, 4, 0)  # S(49, 16)
        assert p.value == 3
        assert nu2_int(stirling_exact(49, 16)) == 3

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            predict_val_shifted_power(1, 3, 3)
        with pytest.raises(DomainError):
            predict_val_shifted_power(2, 3, 1)


class TestShiftedTriple:
    def test_mersenne_branch(self):
        p = predict_val_shifted_triple(1, 3, 1, 1, 3)  # S(14, 11)
        assert p.kind == EQUALITY and p.value == 1
        assert stirling_exact(14, 11) == 66066

    def test_bound_branch(self):
        p = predict_val_shifted_triple(1, 4, 1, 1, 1)  # S(22, 9)
        assert p.kind == LOWER_BOUND and p.value == 1
        assert nu2_int(stirling_exact(22, 9)) >= 1

    def test_larger_instance(self):
        p = predict_val_shifted_triple(3, 5, 2, 2, 7)  # S(116, 39)
        assert p.kind == EQUALITY and p.value == 2
        assert nu2_int(stirling_exact(116, 39)) == 2

    def test_rejects_small_m(self):
        with pytest.raises(DomainError):
            predict_val_shifted_triple(1, 4, 2, 2, 3)  # needs m >= 5
        with pytest.raises(DomainError):
            predict_val_shifted_triple(1, 5, 0, 2, 3)


class TestDifference:
    def test_theorem_instance(self):
        p = predict_val_difference(2, 1, 4, 5)
        assert p.kind == EQUALITY and p.value == 3
        assert p.source == SRC_THM_DIFFERENCE
        assert val_stirling_difference(32, 16, 5).exact() == 3

    def test_power_of_two_uses_delta(self):
        for n in (3, 4, 5):
            p = predict_val_difference(2, 1, n, 4)
            assert p.value == n + 1
        assert val_stirling_difference(16, 8, 4).exact() == 4

    def test_one_formula_matches_the_proved_and_conjectured_branches(self):
        # n + 1 + nu2(a-b) - f(k) against the proved formula with its own
        # delta (0 at k = 2**m - 1) and the conjectured value at k = 2**m - 1
        cells = 0
        for a in range(2, 12):
            for b in range(1, a):
                for n in range(2, 11):
                    for k in range(3, (1 << n) + 1):
                        p = predict_val_difference(a, b, n, k)
                        if is_power_of_two(k + 1):
                            value = n + 1 + nu2_int(a - b)
                            expected = (CONJECTURAL_EQUALITY, value, SRC_CONJ_MERSENNE)
                        else:
                            delta = 2 if k == 4 else 1 if is_power_of_two(k) else 0
                            value = n + nu2_int(a - b) - ceil_log2(k) + s2(k) + delta
                            expected = (EQUALITY, value, SRC_THM_DIFFERENCE)
                        assert (p.kind, p.value, p.source) == expected, (a, b, n, k)
                        cells += 1
        assert cells == 111_430

    def test_mersenne_is_conjectural(self):
        p = predict_val_difference(3, 1, 5, 7)
        assert p.kind == CONJECTURAL_EQUALITY
        assert p.source == SRC_CONJ_MERSENNE
        assert p.value == 5 + 1 + nu2_int(3 - 1) == 7
        assert val_stirling_difference(96, 32, 7).exact() == 7

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            predict_val_difference(1, 1, 4, 5)
        with pytest.raises(DomainError):
            predict_val_difference(2, 1, 4, 2)
        with pytest.raises(DomainError):
            predict_val_difference(2, 1, 3, 9)

    def test_rejects_negative_n(self):
        # refused by a hypothesis, not by a negative shift count (ValueError)
        with pytest.raises(DomainError):
            predict_val_difference(2, 1, -1, 5)


class TestTheta:
    def test_distinguished_equality_short_run(self):
        # k = 11 = 1011b: theta = 1 < s2 = 3, distinguished a = 4
        p = predict_val_theta(1, 5, 4, 11)  # S(28, 3)
        assert p.kind == EQUALITY and p.value == 1
        assert nu2_int(stirling_exact(28, 3)) == 1

    def test_distinguished_equality_full_run(self):
        # k = 12 = 1100b: theta = s2 = 2, distinguished a = 4
        p = predict_val_theta(1, 5, 4, 12)  # S(28, 4)
        assert p.kind == EQUALITY and p.value == 0
        assert nu2_int(stirling_exact(28, 4)) == 0

    def test_bound_branch(self):
        p = predict_val_theta(1, 5, 2, 12)  # S(30, 8)
        assert p.kind == LOWER_BOUND and p.value == 0
        p = predict_val_theta(1, 5, 3, 11)  # S(29, 5)
        assert p.kind == LOWER_BOUND and p.value == 0
        assert nu2_int(stirling_exact(29, 5)) >= 0

    def test_distinguished_a_respects_a_range(self):
        for k in range(3, 513):
            if s2(k) < 2 or is_power_of_two(k) or is_power_of_two(k + 1):
                continue
            n = max(5, k.bit_length())
            hits = [
                a
                for a in range(1, -(-k // 2))
                if predict_val_theta(1, n, a, k).kind == EQUALITY
            ]
            assert len(hits) == 1  # exactly one distinguished a, always in range

    def test_rejects_excluded_shapes(self):
        with pytest.raises(DomainError):
            predict_val_theta(1, 5, 1, 8)  # power of two
        with pytest.raises(DomainError):
            predict_val_theta(1, 5, 1, 7)  # one below a power of two
        with pytest.raises(DomainError):
            predict_val_theta(1, 5, 6, 11)  # a > ceil(k/2) - 1
        with pytest.raises(DomainError):
            predict_val_theta(2, 5, 4, 11)  # even c

    def test_rejects_negative_n(self):
        # refused by a hypothesis, not by a negative shift count (ValueError)
        with pytest.raises(DomainError):
            predict_val_theta(1, -1, 1, 5)


class TestFConjectured:
    def test_examples(self):
        assert f_conjectured(4) == 0
        assert f_conjectured(7) == 0
        assert f_conjectured(12) == 3
        assert f_conjectured(8) == 2
        with pytest.raises(DomainError):
            f_conjectured(2)

    def test_agrees_with_theorem_form_off_mersenne(self):
        # n + 1 + nu2(a-b) - f(k) equals the proved equality value
        for k in range(3, 300):
            if is_power_of_two(k + 1):
                continue
            for n in (k.bit_length(), k.bit_length() + 3):
                for (a, b) in [(2, 1), (5, 3), (7, 3)]:
                    pred = predict_val_difference(a, b, n, k)
                    assert pred.value == n + 1 + nu2_int(a - b) - f_conjectured(k)

    def test_mersenne_f_is_zero(self):
        for m in range(2, 12):
            assert f_conjectured((1 << m) - 1) == 0


class TestPredictionType:
    def test_str(self):
        p = Prediction(EQUALITY, 3, SRC_THM_DIFFERENCE)
        assert str(p) == "Equality(3) [Thm-Difference]"

    def test_invariants(self):
        with pytest.raises(DomainError):
            Prediction(EQUALITY, -1, SRC_THM_DIFFERENCE)
        with pytest.raises(DomainError):
            Prediction(NOT_APPLICABLE, 2, SRC_THM_DIFFERENCE)
        with pytest.raises(DomainError):
            Prediction("weird", 1, SRC_THM_DIFFERENCE)


def _answer(out) -> list | int:
    if isinstance(out, Prediction):
        return [out.kind, out.value, out.source, dict(out.params)]
    return [_answer(p) for p in out] if isinstance(out, list) else out


class TestScalarBytes:
    """The SHA-256 of what each scalar predictor answers, one JSON line per
    input: (kind, value, source, params) of each claim, or "refused" where it
    raises DomainError.  A refactor of the predictors must keep these bytes."""

    PREDICT_VAL_SHA256 = "e8e93ee0116962b985f41020c4b59296eefdfa094f62965523f6c61bec09e912"
    # each box reaches past the statement's hypotheses on every side (n >= 0 where
    # 1 << n would raise ValueError before any hypothesis is checked)
    BOXES = {
        "predict_val_shifted_power": (
            (range(-1, 6), range(-2, 8), range(-2, 8)),
            "1c68c982b8105ae86591008f4836fc1ead05cbd746ddc20f203c90ee19c4df87",
        ),
        "predict_val_shifted_triple": (
            (range(-1, 5), range(-1, 10), range(-1, 6), range(-1, 4), range(-1, 18)),
            "d29a9a5562767b2bb51ba009e06b1502c3d2f12e84d5857b4e50466c82867256",
        ),
        "predict_val_difference": (
            (range(-1, 7), range(-1, 7), range(0, 6), range(-1, 36)),
            "2fc7261fe5b80749b851d94b48f1257c4a2b9c6f5ec8f0ba990d4f24a52aec57",
        ),
        "predict_val_theta": (
            (range(-1, 5), range(0, 7), range(-1, 14), range(-1, 44)),
            "653b3324ff3a2b7023971697477ac56146e5cf84d31bd195e643461187916efb",
        ),
        "f_conjectured": (
            (range(-3, 300),),
            "f9af85917feba3325c2e72d0890601ed8fab25fa87d774bdcdad9f3cb6728414",
        ),
    }

    def test_predict_val(self):
        lines = (
            json.dumps(_answer(predict_val(big_n, k)))
            for big_n in range(2, 257)
            for k in range(1, big_n + 1)
        )
        text = "".join(line + "\n" for line in lines)
        assert hashlib.sha256(text.encode()).hexdigest() == self.PREDICT_VAL_SHA256

    @pytest.mark.parametrize("name", sorted(BOXES))
    def test_box(self, name):
        box, sha256 = self.BOXES[name]
        predictor = getattr(predictors, name)
        lines = []
        for args in itertools.product(*box):
            try:
                answer = _answer(predictor(*args))
            except DomainError:
                answer = "refused"
            lines.append(json.dumps([list(args), answer]))
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == sha256
