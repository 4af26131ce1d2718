import json
import os
import random
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinned_cells import (
    DIFF_CONGRUENCE_FAILURES,
    DIFFERENCE_FORMULA_COUNTEREXAMPLES,
    congruence_residue,
    stirling2,
)
from stirling2adic import engine, predictors, verify
from stirling2adic.base2 import Valuation, s2
from stirling2adic.engine import PrecisionPolicy, stirling_exact, valuations
from stirling2adic.errors import DomainError, ResourceCapError
from stirling2adic.predictors import CONJECTURAL_EQUALITY, EQUALITY, LOWER_BOUND, Prediction
from stirling2adic.verify import (
    CONFIRMED,
    CONJECTURE_DEVIATION,
    CONJECTURE_OBSERVED,
    EXIT_CONJECTURE_DEVIATION,
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_VIOLATION,
    INDETERMINATE,
    VIOLATED,
    CellRecord,
    SweepConfig,
    SweepReport,
    check_diff_congruence,
    classify,
    cross_validate,
    default_ranges,
    run_sweep,
    scan_conjecture_mersenne,
    sweep_targets,
)


class TestClassify:
    def test_equality(self):
        assert classify(EQUALITY, 3, Valuation.finite(3)) == CONFIRMED
        assert classify(EQUALITY, 3, Valuation.finite(4)) == VIOLATED
        assert classify(EQUALITY, 3, Valuation.at_least(8)) == VIOLATED
        assert classify(EQUALITY, 3, Valuation.at_least(3)) == INDETERMINATE
        assert classify(EQUALITY, 3, Valuation.infinite()) == VIOLATED

    def test_lower_bound(self):
        assert classify(LOWER_BOUND, 3, Valuation.finite(5)) == CONFIRMED
        assert classify(LOWER_BOUND, 3, Valuation.finite(2)) == VIOLATED
        assert classify(LOWER_BOUND, 3, Valuation.at_least(3)) == CONFIRMED
        assert classify(LOWER_BOUND, 3, Valuation.at_least(2)) == INDETERMINATE
        assert classify(LOWER_BOUND, 3, Valuation.infinite()) == CONFIRMED

    def test_conjectural(self):
        assert classify(CONJECTURAL_EQUALITY, 4, Valuation.finite(4)) == CONJECTURE_OBSERVED
        assert classify(CONJECTURAL_EQUALITY, 4, Valuation.finite(5)) == CONJECTURE_DEVIATION
        assert classify(CONJECTURAL_EQUALITY, 4, Valuation.at_least(8)) == CONJECTURE_DEVIATION
        assert classify(CONJECTURAL_EQUALITY, 4, Valuation.at_least(4)) == INDETERMINATE


class TestRunSweep:
    def test_lengyel_small(self):
        report = run_sweep(SweepConfig("lengyel-eq", {"n": [1, 2, 3, 4], "c": [1, 3]}))
        s = report.summary
        assert s["cells"] == s[CONFIRMED] == 2 * (2 + 4 + 8 + 16)
        assert report.exit_code == EXIT_OK

    def test_all_targets_have_defaults(self):
        for target in sweep_targets():
            assert default_ranges(target)

    def test_records_cover_grid_without_gaps(self):
        report = run_sweep(SweepConfig("thm-diagonal", {"n": [2, 3], "c": [1, 3]}))
        assert report.summary["cells"] == len(report.records) == 2 * (4 + 8)
        keys = [(r.params["n"], r.params["c"], r.params["a"]) for r in report.records]
        assert keys == sorted(keys)

    def test_difference_counterexamples_are_found(self):
        report = run_sweep(
            SweepConfig(
                "thm-difference",
                {"n": [2, 3], "pairs": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]},
            )
        )
        found = {
            (r.params["a"], r.params["b"], r.params["n"], r.params["k"]): r.observed_value
            for r in report.cells(VIOLATED)
        }
        assert found == {
            cell: obs
            for cell, obs in DIFFERENCE_FORMULA_COUNTEREXAMPLES.items()
            if cell[2] <= 3
        }
        assert report.exit_code == EXIT_VIOLATION

    def test_difference_observed_values_match_exact(self):
        for (a, b, n, k), observed in DIFFERENCE_FORMULA_COUNTEREXAMPLES.items():
            d = stirling_exact(a << n, k) - stirling_exact(b << n, k)
            assert d % (1 << observed) == 0 and d % (1 << (observed + 1)) != 0

    def test_pinned_recurrence_agrees_with_engine(self):
        # the acceptance checks re-derive their pins with this recurrence
        assert stirling2(8, 4) - stirling2(4, 4) == 1700
        for n in range(41):
            for k in range(9):
                assert stirling2(n, k) == stirling_exact(n, k), (n, k)

    def test_unknown_target_or_range(self):
        with pytest.raises(DomainError):
            run_sweep(SweepConfig("nope"))
        with pytest.raises(DomainError):
            run_sweep(SweepConfig("lengyel-eq", {"q": [1]}))

    def test_cell_cap(self):
        with pytest.raises(ResourceCapError):
            run_sweep(SweepConfig("lengyel-eq", {"n": [1, 2, 3]}, cell_cap=5))
        report = run_sweep(SweepConfig("lengyel-eq", {"n": [1, 2, 3]}, cell_cap=4 * 14))
        assert report.summary["cells"] == 4 * 14

    def test_negative_cell_cap_is_refused_before_any_block(self, monkeypatch):
        def refuse(ranges):
            raise AssertionError("a block was planned under a negative cap")

        target = verify._TARGETS["lengyel-eq"]
        monkeypatch.setitem(verify._TARGETS, "lengyel-eq", target._replace(blocks=refuse))
        with pytest.raises(DomainError, match="cell cap"):
            run_sweep(SweepConfig("lengyel-eq", cell_cap=-5))

    def test_cell_cap_of_zero(self):
        # a cap of 0 is legal: it admits an empty grid and refuses any other
        assert run_sweep(SweepConfig("lengyel-eq", {"c": []}, cell_cap=0)).summary["cells"] == 0
        with pytest.raises(ResourceCapError):
            run_sweep(SweepConfig("lengyel-eq", {"n": [1]}, cell_cap=0))

    @pytest.mark.parametrize(
        "target, ranges",
        [
            ("lengyel-eq", {"n": [60]}),
            ("thm-lower", {"n": [40]}),
            ("thm-diagonal", {"n": [40]}),
            ("thm-shifted-triple", {"n": [30]}),
            ("thm-difference", {"n": [30]}),
            ("lem-shifted-power", {"n": [4_000_000]}),
            ("lem-theta", {"n": [40]}),
            ("junod", {"m": list(range(3001)), "n": list(range(1, 3001))}),
            ("identities", {"conv_n": [10**7], "conv_m": [1]}),
            ("count-J", {"n": [23]}),
            ("diff-congruence", {"n": [30]}),
        ],
    )
    def test_cell_cap_holds_before_any_work(self, monkeypatch, target, ranges):
        # the cells are counted from each block's closed-form count: nothing evaluated or listed
        def fail(*args, **kwargs):
            raise AssertionError("work started on a grid over the cap")

        monkeypatch.setattr(engine, "stirling_rows_mod2", fail)
        monkeypatch.setattr(verify, "_run_blocks", fail)
        start = time.process_time()
        with pytest.raises(ResourceCapError):
            run_sweep(SweepConfig(target, ranges))
        assert time.process_time() - start < 0.1

    def test_even_c_rejected_where_oddness_matters(self):
        with pytest.raises(DomainError):
            run_sweep(SweepConfig("thm-diagonal", {"n": [2], "c": [2]}))

    def test_indeterminate_cells_are_reported(self):
        policy = PrecisionPolicy(1, 1)  # nu2(S(12, 7)) = 2 is out of reach
        report = run_sweep(
            SweepConfig("lengyel-eq", {"n": [2], "c": [3]}, policy=policy)
        )
        cells = report.cells(INDETERMINATE)
        assert cells and all(r.observed_kind == "at-least" for r in cells)
        assert report.exit_code == EXIT_INDETERMINATE


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        cfg = {"n": [2, 3, 4], "pairs": [(2, 1), (3, 2)]}
        r1 = run_sweep(SweepConfig("thm-difference", cfg))
        r2 = run_sweep(SweepConfig("thm-difference", cfg))
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()

    def test_runtime_is_segregated(self):
        report = run_sweep(SweepConfig("count-J", {"n": [0, 1]}))
        assert "runtime" not in json.loads(report.to_json())
        assert "runtime" in json.loads(report.to_json(include_runtime=True))
        assert report.runtime_seconds is not None


class TestReportShape:
    def test_csv_layout(self):
        report = run_sweep(SweepConfig("lengyel-eq", {"n": [1], "c": [1]}))
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "n,c,k,N,source,claim_kind,claim_value,observed_kind,observed_value,verdict"
        assert len(lines) == 1 + report.summary["cells"]
        assert lines[1] == "1,1,1,2,Lem-Lengyel-Eq,equality,0,finite,0,confirmed"

    def test_json_schema(self):
        report = run_sweep(SweepConfig("count-J", {"n": [0, 1, 2]}))
        obj = json.loads(report.to_json())
        assert obj["schema_version"] == "1"
        assert obj["target"] == "count-J"
        assert obj["summary"]["cells"] == len(obj["records"])
        assert obj["config"]["policy"]["max_bits"] == 4096
        rec = obj["records"][0]
        assert set(rec) == {
            "params",
            "source",
            "claim_kind",
            "claim_value",
            "observed_kind",
            "observed_value",
            "verdict",
        }


def reference_json(report: SweepReport, include_runtime: bool, records=None) -> str:
    """The report through json.dumps, the bytes to_json must give, of records
    (the report's own when None)."""
    obj = {
        "schema_version": verify.SCHEMA_VERSION,
        "target": report.target,
        "engine": report.engine,
        "config": report.config,
        "summary": report.summary,
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
            for rec in (report.records if records is None else records)
        ],
    }
    if include_runtime:
        obj["runtime"] = {"seconds": report.runtime_seconds}
    return json.dumps(obj, indent=2) + "\n"


# quotes, backslashes, control characters, non-ASCII and lone surrogates
_text = st.text(
    st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7fé '), st.characters(exclude_categories=()))
)
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
    st.floats(),
    _text,
)
_record = st.builds(
    CellRecord,
    params=st.dictionaries(_text, _scalar, max_size=5),
    source=_text,
    claim_kind=_text,
    claim_value=_scalar,
    observed_kind=_text,
    observed_value=_scalar,
    verdict=st.sampled_from(verify.VERDICT_ORDER),
)
_report = st.builds(
    SweepReport,
    target=_text,
    config=st.recursive(
        _scalar, lambda inner: st.lists(inner) | st.dictionaries(_text, inner), max_leaves=6
    ),
    columns=st.just(()),
    records=st.lists(_record, max_size=4),
    engine=_text,
    runtime_seconds=st.none() | st.floats(),
)


def reference_csv(report: SweepReport, records=None) -> str:
    """The CSV to_csv must give, written one record at a time, of records
    (the report's own when None)."""
    fields = ["source", "claim_kind", "claim_value", "observed_kind", "observed_value", "verdict"]
    lines = [",".join([*report.columns, *fields])]
    for rec in report.records if records is None else records:
        cols = [str(rec.params.get(c, "")) for c in report.columns]
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


def assert_same_text(got: str, want: str) -> None:
    """got == want, failing with the first difference only: a diff of two reports
    of thousands of records would cost more than the test."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(
            f"lengths {len(got)} and {len(want)}, first difference at {at}: "
            f"{got[max(0, at - 60) : at + 60]!r} != {want[max(0, at - 60) : at + 60]!r}"
        )


# a column's values: one exact type, so that the writers take their per-type route, or mixed
_pool = st.one_of(
    st.lists(st.integers(), min_size=1, max_size=5),
    st.lists(_text, min_size=1, max_size=5),
    st.lists(_scalar, min_size=1, max_size=5),
)


# keys with % signs, which the JSON writer's %-templates must escape
_key = _text | st.text(st.sampled_from("%sd()"), min_size=1)


@st.composite
def _big_report(draw) -> SweepReport:
    """A report of hundreds to thousands of records, several writer chunks, whose
    params follow 2 or 3 layouts, in long runs or interleaved.  Hypothesis draws
    the layouts, the value pools and the run lengths; a seeded generator deals
    the records from them."""
    keys = draw(st.lists(_key, min_size=1, max_size=6, unique=True))
    layouts = draw(
        st.lists(
            st.lists(st.sampled_from(keys), unique=True), min_size=2, max_size=3, unique_by=tuple
        )
    )
    pools = {key: draw(_pool) for key in keys}
    fields = {
        name: draw(st.lists(_text, min_size=1, max_size=3))
        for name in ("source", "claim_kind", "observed_kind")
    }
    fields.update({name: draw(_pool) for name in ("claim_value", "observed_value")})
    count = draw(st.sampled_from([300, 700, 1500, 3000]))
    longest_run = draw(st.sampled_from([1, 3, 600, 3000]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    records = []
    while len(records) < count:
        layout = rng.choice(layouts)
        for _ in range(rng.randint(1, longest_run)):
            records.append(
                CellRecord(
                    params={key: rng.choice(pools[key]) for key in layout},
                    verdict=rng.choice(verify.VERDICT_ORDER),
                    **{name: rng.choice(pool) for name, pool in fields.items()},
                )
            )
    columns = tuple(draw(st.permutations(keys)) + draw(st.lists(_text, max_size=1)))
    return SweepReport("t", {}, columns, records[:count], runtime_seconds=1.0)


class TestJsonWriter:
    @given(_big_report(), st.booleans())
    @settings(deadline=None, max_examples=25)
    def test_report_size_matches_json_dumps(self, report, include_runtime):
        assert_same_text(report.to_json(include_runtime), reference_json(report, include_runtime))

    @given(_report, st.booleans())
    @settings(deadline=None)
    def test_matches_json_dumps(self, report, include_runtime):
        assert report.to_json(include_runtime) == reference_json(report, include_runtime)

    def test_empty_shapes(self):
        record = CellRecord({}, "s", "k", None, "o", None, CONFIRMED)
        for records in ([], [record]):
            report = SweepReport("t", {}, (), records, runtime_seconds=0.5)
            for include_runtime in (False, True):
                text = report.to_json(include_runtime)
                assert text == reference_json(report, include_runtime)
        assert '"records": []' in SweepReport("t", {}, (), []).to_json()
        assert '"params": {}' in text

    def test_edge_values(self):
        values = [
            float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2**64 + 1, -(2**70),
            True, False, None, " é\"\\\x00\U0001f600", "",
        ]
        params = {f"p{i}": value for i, value in enumerate(values)}
        record = CellRecord(params, "s", "k", True, "o", float("nan"), CONFIRMED)
        report = SweepReport("t", {}, (), [record], runtime_seconds=float("inf"))
        for include_runtime in (False, True):
            assert report.to_json(include_runtime) == reference_json(report, include_runtime)
        records = _equal_values_of_other_types()
        report = SweepReport("t", {}, ("x",), records, runtime_seconds=1.0)
        assert_same_records(report, records)
        for include_runtime in (False, True):
            want = reference_json(report, include_runtime, records)
            assert report.to_json(include_runtime) == want

    # nested values would need nested indentation; keys must be text
    @pytest.mark.parametrize(
        "params",
        [{"n": 1, "x": value} for value in ([], [1, 2], (1,), {}, {"a": 1}, {1, 2}, b"x")]
        + [{1: 1}],
    )
    def test_other_params_are_refused(self, params):
        record = CellRecord(params, "s", "k", None, "o", None, CONFIRMED)
        with pytest.raises(TypeError):
            SweepReport("t", {}, (), [record]).to_json()


class TestCsvWriter:
    @given(_big_report())
    @settings(deadline=None, max_examples=25)
    def test_report_size_matches_per_record(self, report):
        assert_same_text(report.to_csv(), reference_csv(report))

    def test_edge_values(self):
        records = _equal_values_of_other_types()
        report = SweepReport("t", {}, ("x", "y"), records)
        assert_same_records(report, records)
        assert report.to_csv() == reference_csv(report, records)
        assert [line.split(",")[0] for line in report.to_csv().splitlines()[1:6]] == [
            "1", "True", "1.0", "0", "False"
        ]


def _equal_values_of_other_types() -> list[CellRecord]:
    """Records whose one key, claim value and observed value hold values that
    are equal but of other types, or floats of equal value but other texts."""
    values = [1, True, 1.0, 0, False, 0.0, -0.0, 1, False, -0.0]
    return [CellRecord({"x": v}, "s", "k", v, "o", v, CONFIRMED) for v in values]


def assert_same_records(report: SweepReport, records: list[CellRecord]) -> None:
    """report.records are records, value for value, of the same types and texts."""

    def tagged(recs):
        return [
            [(type(v), repr(v)) for v in (*rec.params.values(), rec.claim_value, rec.observed_value)]
            for rec in recs
        ]

    assert tagged(report.records) == tagged(records)


class TestColumnKinds:
    """Every params and fields column of a block is a numpy integer array or a
    _Coded, of one entry per cell."""

    @pytest.mark.parametrize(
        "make",
        [partial(run_sweep, SweepConfig(target)) for target in sweep_targets()]
        + [
            partial(scan_conjecture_mersenne, range(2, 6), [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]),
            partial(cross_validate, 60, 8, (8, 65)),
            partial(SweepReport, "t", {}, ("x",), _equal_values_of_other_types()),
        ],
        ids=[*sweep_targets(), "scan", "cross-validate", "records"],
    )
    def test_two_kinds(self, make):
        report = make()
        assert report.blocks
        for block in report.blocks:
            assert len(block.params) == len(block.keys)
            assert len(block.fields) == len(verify._FIELDS)
            for column in (*block.params, *block.fields):
                if isinstance(column, verify._Coded):
                    assert len(column.codes) == block.size
                    assert 0 <= column.codes.min() and column.codes.max() < len(column.labels)
                else:
                    assert isinstance(column, np.ndarray) and column.dtype in (np.int64, object)
                    assert len(column) == block.size


class TestIdentitySweeps:
    def test_identities_small(self):
        report = run_sweep(
            SweepConfig(
                "identities",
                {"conv_n": [0, 3], "conv_m": [1, 2], "sym_k1": [0, 2], "sym_k2": [1]},
            )
        )
        assert report.summary[CONFIRMED] == report.summary["cells"]

    def test_junod_small(self):
        report = run_sweep(
            SweepConfig("junod", {"p": [2, 3], "v": [1], "m": [0, 1, 2], "n": [1, 2, 3]})
        )
        assert report.summary[CONFIRMED] == report.summary["cells"] == 18

    def test_count_j_small(self):
        report = run_sweep(SweepConfig("count-J", {"n": [0, 1, 2, 3, 4]}))
        assert report.summary[CONFIRMED] == report.summary["cells"]


class TestLemmaSweeps:
    def test_shifted_power(self):
        report = run_sweep(SweepConfig("lem-shifted-power", {"c": [1, 3, 5], "n": [1, 2, 3, 4, 5]}))
        assert report.summary[CONFIRMED] == report.summary["cells"] == 3 * 15

    def test_theta(self):
        report = run_sweep(SweepConfig("lem-theta", {"c": [1, 3], "n": [3, 4, 5]}))
        assert report.summary[CONFIRMED] == report.summary["cells"]

    def test_shifted_triple(self):
        report = run_sweep(
            SweepConfig(
                "thm-shifted-triple",
                {"n": [1, 2, 3], "b": [1, 2, 3], "c": [1, 3], "m_offsets": [0, 2]},
            )
        )
        assert report.summary[CONFIRMED] == report.summary["cells"]


class TestDiffCongruence:
    def test_examples(self):
        assert check_diff_congruence(2, 1, 4, 5)
        assert check_diff_congruence(3, 1, 3, 3)
        assert check_diff_congruence(2, 1, 3, 8)  # boundary k = 2**n

    def test_known_failures(self):
        for (a, b, n, k) in DIFF_CONGRUENCE_FAILURES:
            assert not check_diff_congruence(a, b, n, k)

    def test_pinned_residue_agrees_with_check(self):
        for (a, b) in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]:
            for n in (2, 3):
                for k in range(3, 2**n + 1):
                    holds = congruence_residue(a, b, n, k) == 0
                    assert holds == check_diff_congruence(a, b, n, k), (a, b, n, k)

    def test_holds_on_derivable_pairs(self):
        # a <= 2b: the shift (2b-a)*2**n is a valid index, so it must hold
        for (a, b) in [(2, 1), (3, 2), (4, 2), (5, 3), (7, 4)]:
            for n in (2, 3, 4):
                for k in range(3, 2**n + 1):
                    assert check_diff_congruence(a, b, n, k), (a, b, n, k)

    def test_sweep_reports_known_failures(self):
        report = run_sweep(
            SweepConfig(
                "diff-congruence",
                {"n": [2, 3], "pairs": [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1)]},
            )
        )
        bad = {
            (r.params["a"], r.params["b"], r.params["n"], r.params["k"])
            for r in report.cells(VIOLATED)
        }
        assert bad == DIFF_CONGRUENCE_FAILURES

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            check_diff_congruence(1, 1, 4, 5)
        with pytest.raises(DomainError):
            check_diff_congruence(2, 1, 3, 9)


class TestScanner:
    def test_small_scan_all_observed(self):
        report = scan_conjecture_mersenne([2, 3, 4], [(2, 1), (3, 1)])
        s = report.summary
        # n=2: k=3; n=3: k in {3,7}; n=4: k in {3,7,15}; two pairs
        assert s["cells"] == 12
        assert s[CONJECTURE_OBSERVED] == 12
        assert report.exit_code == EXIT_OK

    def test_echoes_raw_arguments(self):
        report = scan_conjecture_mersenne([3], [(2, 1)])
        rec = next(r for r in report.records if r.params["m"] == 3)
        assert rec.params["arg_n1"] == 2 << 4 and rec.params["arg_n2"] == 1 << 4
        assert rec.params["k"] == 7
        assert rec.claim_value == 5  # (n+1) + 1 + nu2(a-b)
        assert rec.observed_value == 5
        d = stirling_exact(32, 7) - stirling_exact(16, 7)
        assert d % 32 == 0 and d % 64 != 0

    def test_deviation_is_exit_3_not_failure(self):
        # far outside the scanned regime the conjectured value genuinely fails
        report = scan_conjecture_mersenne([2], [(33, 1)])
        (rec,) = report.records
        assert rec.verdict == CONJECTURE_DEVIATION
        assert rec.claim_value == 9 and rec.observed_value == 7
        assert report.exit_code == EXIT_CONJECTURE_DEVIATION

    def test_indeterminate_on_tiny_precision(self):
        report = scan_conjecture_mersenne([2], [(2, 1)], policy=PrecisionPolicy(2, 4))
        (rec,) = report.records
        assert rec.verdict == INDETERMINATE
        assert report.exit_code == EXIT_INDETERMINATE

    def test_m_filter(self):
        report = scan_conjecture_mersenne([4, 5], [(2, 1)], m_values=[3])
        assert all(r.params["k"] == 7 for r in report.records)
        assert report.summary["cells"] == 2

    def test_rejects_bad_domain(self):
        with pytest.raises(DomainError):
            scan_conjecture_mersenne([1], [(2, 1)])
        with pytest.raises(DomainError):
            scan_conjecture_mersenne([3], [(1, 1)])


# The cells of each valuation target and of the scanner, one at a time, in report order:
# (params, the scalar predictor's claim, the query (n1, n2, k)).


def _reference_lengyel(r):
    for n in sorted(set(r["n"])):
        for c in sorted(set(r["c"])):
            for k in range(1, (1 << n) + 1):
                claim = Prediction(EQUALITY, s2(k) - 1, predictors.SRC_LEM_LENGYEL_EQ)
                yield {"n": n, "c": c, "k": k, "N": c << n}, claim, (c << n, None, k)


def _reference_lower(r):
    for n in sorted(set(r["n"])):
        for c in sorted(set(r["c"])):
            for k in range(1, (c << n) + 1):
                a, b = k % (2 << n), k // (2 << n)
                if a:
                    claim = Prediction(LOWER_BOUND, s2(a) - 1, predictors.SRC_THM_LOWER_BOUND)
                    params = {"n": n, "c": c, "b": b, "a": a, "k": k, "N": c << n}
                    yield params, claim, (c << n, None, k)


def _reference_diagonal(r):
    for n in sorted(set(r["n"])):
        for c in sorted(set(r["c"])):
            for a in range(1, (1 << n) + 1):
                k = (c - 1) * 2**n + a
                claim = Prediction(EQUALITY, s2(a) - 1, predictors.SRC_THM_DIAGONAL)
                yield {"n": n, "c": c, "a": a, "k": k, "N": c << n}, claim, (c << n, None, k)


def _reference_triple(r):
    for n in sorted(set(r["n"])):
        for b in sorted(set(r["b"])):
            for off in sorted(set(r["m_offsets"])):
                m = n + 2 + (b.bit_length() - 1) + off
                for c in sorted(set(r["c"])):
                    big_n = c * 2**m + b * 2 ** (n + 1) + 2**n
                    for a in range(1, 2 ** (n + 1)):
                        k = b * 2 ** (n + 2) + a
                        claim = predictors.predict_val_shifted_triple(c, m, b, n, a)
                        params = {"n": n, "b": b, "m": m, "c": c, "a": a, "k": k, "N": big_n}
                        yield params, claim, (big_n, None, k)


def _reference_difference(r):
    for a, b in sorted(set(map(tuple, r["pairs"]))):
        for n in sorted(set(r["n"])):
            for k in range(3, 2**n + 1):
                if k & (k + 1):
                    claim = predictors.predict_val_difference(a, b, n, k)
                    params = {"a": a, "b": b, "n": n, "k": k, "N1": a << n, "N2": b << n}
                    yield params, claim, (a << n, b << n, k)


def _reference_shifted_power(r):
    for c in sorted(set(r["c"])):
        for n in sorted(set(r["n"])):
            for m in range(n):
                big_n = c * 2**n + 2**m
                claim = predictors.predict_val_shifted_power(c, n, m)
                yield {"c": c, "n": n, "m": m, "N": big_n, "k": 2**n}, claim, (big_n, None, 2**n)


def _reference_theta(r):
    for c in sorted(set(r["c"])):
        for n in sorted(set(r["n"])):
            for k in range(3, 2**n + 1):
                if k & (k - 1) == 0 or k & (k + 1) == 0:
                    continue
                for a in range(1, -(-k // 2)):
                    claim = predictors.predict_val_theta(c, n, a, k)
                    arg_n, arg_k = c * 2**n - a, k - 2 * a
                    params = {"c": c, "n": n, "k": k, "a": a, "arg_n": arg_n, "arg_k": arg_k}
                    yield params, claim, (arg_n, None, arg_k)


def _reference_scan(ns, pairs, ms):
    for n in sorted(set(ns)):
        for m in sorted(set(ms)) if ms else range(2, n + 1):
            k = 2**m - 1
            if k <= 2**n:
                for a, b in sorted(set(pairs)):
                    claim = predictors.predict_val_difference(a, b, n + 1, k)
                    n1, n2 = a << (n + 1), b << (n + 1)
                    params = {"n": n, "m": m, "a": a, "b": b, "k": k, "arg_n1": n1, "arg_n2": n2}
                    yield params, claim, (n1, n2, k)


def reference_records(cells, policy):
    """The records of the cells, one at a time: the scalar predictor's claim, the one
    valuations routine on the queries as tuples, and the scalar classify."""
    cells = list(cells)
    observed = valuations([query for _, _, query in cells], policy)
    return [
        CellRecord(
            params,
            claim.source,
            claim.kind,
            claim.value,
            observed[query].kind,
            observed[query].value,
            classify(claim.kind, claim.value, observed[query]),
        )
        for params, claim, query in cells
    ]


def assert_same_report(got, cells, policy):
    """got, field by field and in its JSON and CSV text, against the reference records."""
    want = reference_records(cells, policy)
    assert len(got.records) == len(want)
    assert list(got.records) == want
    assert [list(rec.params) for rec in got.records] == [list(rec.params) for rec in want]
    for verdict in verify.VERDICT_ORDER:
        assert got.cells(verdict) == [rec for rec in want if rec.verdict == verdict]
    assert got.exit_code == verify.verdict_exit_code({rec.verdict for rec in want})
    reference = SweepReport(got.target, got.config, got.columns, want)
    assert_same_text(got.to_json(), reference_json(reference, False))
    assert_same_text(got.to_csv(), reference_csv(reference))


def _subset(values, max_size=3):
    return st.lists(st.sampled_from(values), min_size=1, max_size=max_size, unique=True)


_odd = [1, 3, 5, 7]
_pairs = _subset([(a, b) for a in range(2, 9) for b in range(1, a)])
# small ladders reach at-least observations, so every verdict path is taken
_policy = st.sampled_from([PrecisionPolicy(), PrecisionPolicy(1, 2), PrecisionPolicy(2, 4), PrecisionPolicy(3, 3)])
_REFERENCE = {
    "lengyel-eq": (_reference_lengyel, st.fixed_dictionaries({"n": _subset(range(7)), "c": _subset(range(1, 10))})),
    "thm-lower": (_reference_lower, st.fixed_dictionaries({"n": _subset(range(6)), "c": _subset(_odd)})),
    "thm-diagonal": (_reference_diagonal, st.fixed_dictionaries({"n": _subset(range(2, 7)), "c": _subset(_odd)})),
    "thm-shifted-triple": (
        _reference_triple,
        st.fixed_dictionaries(
            {
                "n": _subset(range(1, 4)),
                "b": _subset(range(1, 6)),
                "c": _subset(_odd, 2),
                "m_offsets": _subset(range(3), 2),
            }
        ),
    ),
    "thm-difference": (_reference_difference, st.fixed_dictionaries({"n": _subset(range(2, 7)), "pairs": _pairs})),
    "lem-shifted-power": (_reference_shifted_power, st.fixed_dictionaries({"c": _subset(_odd), "n": _subset(range(1, 9))})),
    "lem-theta": (_reference_theta, st.fixed_dictionaries({"c": _subset(_odd, 2), "n": _subset(range(2, 7))})),
}


class TestColumnPath:
    """The column path of every valuation target and of the scanner against a per-cell reference."""

    def test_every_valuation_target_has_a_reference(self):
        exact_checks = {"junod", "identities", "count-J", "diff-congruence"}
        assert set(_REFERENCE) == set(sweep_targets()) - exact_checks

    @given(st.data(), _policy)
    @settings(deadline=None, max_examples=60)
    def test_sweeps(self, data, policy):
        target = data.draw(st.sampled_from(sorted(_REFERENCE)))
        cells, ranges = _REFERENCE[target]
        ranges = data.draw(ranges)
        assert_same_report(run_sweep(SweepConfig(target, ranges, policy)), cells(ranges), policy)

    @pytest.mark.parametrize(
        "target, ranges",
        [
            ("lem-shifted-power", {"c": [2**70 + 1], "n": [2, 3]}),
            ("thm-shifted-triple", {"c": [2**66 + 1], "n": [1], "b": [1], "m_offsets": [0]}),
        ],
    )
    def test_parameters_past_int64(self, target, ranges):
        policy = PrecisionPolicy()
        cells, _ = _REFERENCE[target]
        report = run_sweep(SweepConfig(target, ranges, policy))
        assert any(value >= 2**63 for rec in report.records for value in rec.params.values())
        assert_same_report(report, cells(ranges), policy)

    @given(_subset(range(2, 7)), _pairs, st.none() | _subset(range(2, 7)), _policy)
    @settings(deadline=None, max_examples=20)
    @example([2, 3], [(2**70 + 1, 1)], None, PrecisionPolicy())
    def test_scanner(self, ns, pairs, ms, policy):
        report = scan_conjecture_mersenne(ns, pairs, ms, policy)
        assert_same_report(report, _reference_scan(ns, pairs, ms), policy)


class TestCrossValidate:
    def test_small(self):
        report = cross_validate(n_max=40, k_max=12, bits_list=(8, 32))
        assert report.summary[CONFIRMED] == report.summary["cells"] == 2 * 41
        assert report.exit_code == EXIT_OK

    @pytest.mark.parametrize(
        "n_max, k_max, bits_list, error",
        [
            (2001, 64, (8,), ResourceCapError),  # past the exact engine's cap
            (2000, 1023, (8,), ResourceCapError),  # past the explicit rows' cap
            (400, 64, (8, 0), DomainError),
            (400, 64, (-3,), DomainError),
        ],
    )
    def test_refused_before_any_work(self, n_max, k_max, bits_list, error):
        start = time.perf_counter()
        with pytest.raises(error):
            cross_validate(n_max=n_max, k_max=k_max, bits_list=bits_list)
        assert time.perf_counter() - start < 0.1

    def test_empty_precision_list_is_refused(self, monkeypatch):
        # no precision would confirm nothing: refused before any row or exact table is read
        def refuse(*args, **kwargs):
            raise AssertionError("cross_validate worked on an empty precision list")

        for name in ("stirling_rows_mod2", "stirling_explicit_rows_mod2", "stirling_exact_table"):
            monkeypatch.setattr(verify, name, refuse)
        for bits_list in ([], (), iter(())):
            with pytest.raises(DomainError, match="at least one precision"):
                cross_validate(n_max=40, k_max=12, bits_list=bits_list)

    @pytest.mark.parametrize(
        "route", ["stirling_rows_mod2", "stirling_explicit_rows_mod2", "stirling_exact_table"]
    )
    def test_disagreement_is_reported(self, monkeypatch, route):
        bad_n, bad_k = 9, 4
        original = getattr(verify, route)

        def rows(ns, k_max, bits):
            out = original(ns, k_max, bits)
            out[bad_n][bad_k] ^= 1
            return out

        def explicit_rows(n_max, k_max, bits):
            for n, row in enumerate(original(n_max, k_max, bits)):
                if n == bad_n:
                    row[bad_k] ^= 1
                yield row

        def exact_table(n_max, k_max):
            # a copy of the shared table with a corrupted copy of one row; the cache stays intact
            out = list(original(n_max, k_max))
            out[bad_n] = list(out[bad_n])
            out[bad_n][bad_k] += 1
            return out

        corrupted = {
            "stirling_rows_mod2": rows,
            "stirling_explicit_rows_mod2": explicit_rows,
            "stirling_exact_table": exact_table,
        }[route]
        monkeypatch.setattr(verify, route, corrupted)
        report = cross_validate(n_max=12, k_max=6, bits_list=(8, 96))
        assert report.exit_code == EXIT_VIOLATION
        for rec in report.records:
            if rec.params["n"] == bad_n:
                assert rec.verdict == VIOLATED
                assert rec.params["first_mismatch"] == bad_k
            else:
                assert rec.verdict == CONFIRMED
                assert rec.params["first_mismatch"] == ""


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_fewer_than_one(self, workers):
        with pytest.raises(DomainError):
            cross_validate(n_max=6, k_max=3, bits_list=(8, 16), workers=workers)
        with pytest.raises(DomainError):
            run_sweep(SweepConfig("lengyel-eq", workers=workers))

    def test_only_one_is_accepted(self):
        # the keyword stays for callers that pass workers=1; the pool is gone
        entry_points = (
            lambda w: run_sweep(SweepConfig("count-J", {"n": [0, 1]}, workers=w)),
            lambda w: scan_conjecture_mersenne([2], [(2, 1)], workers=w),
            lambda w: cross_validate(n_max=6, k_max=3, bits_list=(8,), workers=w),
        )
        for run in entry_points:
            for workers in (0, 2, -3):
                with pytest.raises(DomainError, match="process pool was removed"):
                    run(workers)
            assert run(1).exit_code == EXIT_OK
        report = cross_validate(n_max=6, k_max=3, bits_list=(8,))
        assert json.loads(report.to_json(include_runtime=True))["runtime"].keys() == {"seconds"}
