import gc
import itertools
import math
import time
import tracemalloc

import numpy as np
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
    stirling_exact_table,
    stirling_explicit_mod2,
    stirling_explicit_rows_mod2,
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

    def test_rows(self):
        # the shared table's rows 0..n_max, each with S(n, k) at every k <= k_max (0 above n)
        for n_max, k_max in ((0, 0), (12, 5), (30, 40)):
            table = stirling_exact_table(n_max, k_max)
            assert [row[: k_max + 1] for row in table[: n_max + 1]] == [
                [stirling_reference(n, k) for k in range(k_max + 1)] for n in range(n_max + 1)
            ]
        with pytest.raises(ResourceCapError):
            stirling_exact_table(2001, 3)
        with pytest.raises(DomainError):
            stirling_exact_table(-1, 3)
        with pytest.raises(DomainError):
            stirling_exact_table(3, -1)


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

    def test_row_cap_leaves_room_for_the_one_step_band(self):
        # the band of a one-step jump holds two entries per row entry
        for bits in (8, 96):
            with pytest.raises(ResourceCapError):
                stirling_row_mod2(10, engine.DEFAULT_ROW_CAP // 2, bits)

    def test_wide_pass_cap(self, monkeypatch):
        # every pass is planned from its inputs and refused over _LANE_STEP_CAP lane-steps
        # before any band is built: rows 1,001 wide jump by at most 32 steps
        for ns in ([1 << 33, 3 << 33], [10**12]):
            start = time.perf_counter()
            with pytest.raises(ResourceCapError, match="lane-steps"):
                stirling_rows_mod2(ns, 1000, 32)
            assert time.perf_counter() - start < 0.1
        # 3 * 2**33 rows 6 wide jump by up to 2**34 steps above 64 bits too
        row = stirling_rows_mod2([3 << 33], 5, 96)[3 << 33]
        assert row == [stirling_explicit_mod2(3 << 33, k, 96).value for k in range(6)]
        # the plan against the jumps taken one by one: a cap of exactly the planned
        # lane-steps lets the pass run, one less refuses it
        cases = [
            ([5, 10], 5, 65, 3),  # 6**2 > gap 5: jumps of 4 and 1, 5 rows and 2 of 6, 3 words
            ([0, 1, 2, 40], 0, 1, 6),  # width 1: every band has one row
            ([7, 300, 301], 16, 32, 9),  # gaps past the band depth and the width
            ([100, 5000], 40, 64, 13),  # deep bands at width 41
            ([64, 1000], 9, 200, 10),  # 10**2 <= gap 936: deep bands above 64 bits too
            ([1000], 40, 128, 5),  # 41**2 > gap 1000: jumps of at most 16 above 64 bits
        ]
        for ns, k_max, bits, count in cases:
            steps = planned_lane_steps(ns, k_max, bits, count)
            monkeypatch.setattr(engine, "_LANE_STEP_CAP", steps)
            assert stirling_rows_mod2(ns, k_max, bits) == reference_rows(ns, k_max, bits)
            monkeypatch.setattr(engine, "_LANE_STEP_CAP", steps - 1)
            with pytest.raises(ResourceCapError, match=f" {steps} lane-steps"):
                stirling_rows_mod2(ns, k_max, bits)

    def test_object_lane_pass_is_weighed_by_its_cost(self):
        # 10**6 steps at width 257 and 128 bits plan about 1.0e9 lane-steps, a pass of about 30 s in
        # the object lane; weighed by its cost it is refused, while the same pass at 64 bits runs
        columns = {10**6: [0, 1, 3, 4, 63, 256]}
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="lane-steps"):
            stirling_rows_mod2([10**6], 256, 128, columns)
        assert time.perf_counter() - start < 0.1
        row = stirling_rows_mod2([10**6], 256, 64, columns)[10**6]
        assert row[:2] == [0, 1]

    @pytest.mark.parametrize(
        "columns",
        [{5: [-1]}, {5: [1, 4]}, {7: [1]}],
        ids=["negative-k", "k-above-k_max", "row-without-columns"],
    )
    def test_columns_are_checked(self, columns):
        for bits in (16, 96):
            with pytest.raises(DomainError):
                stirling_rows_mod2((5,), 3, bits, columns)

    def test_parity_against_exact(self):
        # 1-bit rows: parity carried through the full recurrence
        for n in range(0, 201, 7):
            row = stirling_row_mod2(n, n, 1)
            for k in range(n + 1):
                assert row[k] == stirling_exact(n, k) % 2


def planned_lane_steps(ns, k_max, bits, count):
    """Band entries read by the jumps with count bands, taken one at a time, times 32-bit words,
    each weighted by what it costs in the object lane above 64 bits."""
    width, total, n = k_max + 1, 0, 0
    weight = engine._OBJECT_WORD_WEIGHT if bits > 64 else 1
    for target in sorted(ns):
        while n < target:
            e = min((target - n).bit_length(), count) - 1
            total += (min(1 << e, width - 1) + 1) * width * -(-bits // 32) * weight
            n += 1 << e
    return total


def exact_rows(ns, k_max, bits, columns=None):
    ks = {n: range(k_max + 1) if columns is None else columns[n] for n in ns}
    return {n: [stirling_exact(n, k) % 2**bits for k in ks[n]] for n in ns}


def reference_rows(ns, k_max, bits):
    """exact_rows up to row 300, the explicit sum above it, where the exact triangle would grow large."""
    return {
        n: exact_rows((n,), k_max, bits)[n]
        if n <= 300
        else [stirling_explicit_mod2(n, k, bits).value for k in range(k_max + 1)]
        for n in ns
    }


def recurrence_bands(lane, width, depth):
    """The bands of the jumps 1, 2, 4, ... <= depth, s + 1 rows each, built by
    running the plain recurrence on the coefficients: an independent reference
    for the bands that _JumpBands composes."""
    idx = np.arange(width, dtype=lane)
    coef = np.ones((1, width), dtype=lane)
    bands = []
    for s in range(1, depth + 1):
        # the coefficient of row[j-i] after s steps: that of row[(j-1)-(i-1)] plus j times that of row[j-i]
        nxt = np.zeros((s + 1, width), dtype=lane)
        np.multiply(coef, idx, out=nxt[:s])
        nxt[1:, 1:] += coef[:, :-1]
        coef = nxt
        if s & (s - 1) == 0:
            bands.append(coef)
    return bands


def band_sizes(count, width):
    """Entries of the bands of the jumps 1, 2, ..., 2**(count-1) at this width."""
    return [(min(1 << e, width - 1) + 1) * width for e in range(count)]


# entries of one band of more than 16 steps: the lane cap keeps each such band under half of it
LONG_BAND_CAP = engine._LANE_BAND_CAP // 2


def assert_within_caps(cache):
    """The cached bands of one lane: no band and no total above its cap."""
    sizes = [band.size for band in cache._bands]
    assert sizes == band_sizes(len(sizes), cache._width)
    assert sum(sizes[: engine._SHORT_JUMPS]) <= engine.DEFAULT_ROW_CAP
    if len(sizes) > engine._SHORT_JUMPS:
        assert max(sizes[engine._SHORT_JUMPS :]) <= LONG_BAND_CAP
        assert sum(sizes) <= engine._LANE_BAND_CAP


# the ways a request can leave the previous row: every gap up to two 16-step
# jumps and one more, and every power of two up to 2**13 with its neighbours
GAPS = sorted({*range(34), *(2**e + d for e in range(14) for d in (-1, 0, 1))})

# each numpy lane with the widest precision it runs
LANES = ((np.uint32, 32), (np.uint64, 64))


class TestJumpKernel:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sparse_rows_against_exact_and_explicit_sum(self, data):
        # half the draws at 31..34 or 63..66 bits, around the switches from uint32 to uint64
        # lanes and from uint64 to Python integers; rows past 300 are checked against
        # the explicit sum on the drawn columns
        k_max = data.draw(st.integers(0, 90), label="k_max")
        switch = st.one_of(st.integers(31, 34), st.integers(63, 66))
        bits = data.draw(st.one_of(switch, st.integers(1, 256)), label="bits")
        start = data.draw(st.integers(0, 100), label="start")
        gap = st.one_of(st.sampled_from(GAPS), st.integers(0, 1 << 12))
        gaps = data.draw(st.lists(gap, min_size=1, max_size=6), label="gaps")
        ns = sorted({min(start + sum(gaps[: i + 1]), 1 << 13) for i in range(len(gaps))})
        columns = None
        if data.draw(st.booleans(), label="columns"):
            k = st.integers(0, k_max)
            columns = {n: data.draw(st.lists(k, max_size=8), label=f"columns[{n}]") for n in ns}
        rows = stirling_rows_mod2(ns, k_max, bits, columns)
        small = [n for n in ns if n <= 300]
        assert {n: rows[n] for n in small} == exact_rows(small, k_max, bits, columns)
        for n in ns:
            if n > 300:
                ks = range(k_max + 1) if columns is None else columns[n]
                assert rows[n] == [stirling_explicit_mod2(n, k, bits).value for k in ks]
        if bits <= 32:
            # the uint32 lane agrees with the uint64 lane mod 2**bits
            wide = stirling_rows_mod2(ns, k_max, 64, columns)
            assert rows == {n: [r % 2**bits for r in row] for n, row in wide.items()}

    @pytest.mark.parametrize("bits", [1, 32, 33, 37, 64, 65, 128, 256])
    def test_every_gap(self, bits):
        # a row alone and a row after row 50, at every gap: each jump length and remainder
        for gap in GAPS:
            assert stirling_rows_mod2((gap,), 20, bits) == reference_rows((gap,), 20, bits)
            ns = (50, 50 + gap)
            assert stirling_rows_mod2(ns, 20, bits) == reference_rows(ns, 20, bits)

    def test_range_columns(self):
        # a range of columns is taken in its own order, also backwards and with a step
        for columns in (range(20), range(19, -1, -1), range(1, 20, 3)):
            for bits in (64, 96):
                assert stirling_rows_mod2((40,), 19, bits, {40: columns}) == exact_rows(
                    (40,), 19, bits, {40: columns}
                )

    @pytest.mark.parametrize("n", [99_999, 100_000, 100_003, 2**20 - 1, 2**20, 10**6])
    def test_deep_narrow_rows_against_explicit_sum(self, n):
        for k_max in (64, 256):
            ks = [0, 1, 3, 4, 63, k_max]
            # above 64 bits only at k_max = 64: a row 257 wide takes about 30 s there
            for bits in (13, 32, 64) if k_max > 64 else (13, 32, 64, 65, 128, 256):
                row = stirling_rows_mod2((n,), k_max, bits, {n: ks})[n]
                assert row == [stirling_explicit_mod2(n, k, bits).value for k in ks]

    @pytest.mark.parametrize("width", [1, 2, 17, 130])
    def test_composed_bands_match_the_recurrence(self, width):
        # composed at this width, and widened to it from about half of it, where
        # only the new columns are composed
        for lane, _ in LANES:
            reference = recurrence_bands(lane, width, 1 << 7)
            fresh, widened = engine._JumpBands(lane), engine._JumpBands(lane)
            widened.get(width // 2 + 1, 8)
            for cache in (fresh, widened):
                bands = cache.get(width, 8)
                assert len(bands) == 8
                for e, (band, ref) in enumerate(zip(bands, reference)):
                    rows = min(1 << e, width - 1) + 1
                    assert band.dtype == np.dtype(lane) and band.shape == (rows, width)
                    assert (band == ref[:rows]).all() and not ref[rows:].any()
            assert fresh._width == widened._width == width
        # Python integers: composed from the one-step band and reduced mod 2**bits
        reference = recurrence_bands(object, width, 1 << 7)
        for bits in (65, 128, 256):
            bands = engine._object_bands(width, 8, bits)
            for e, (band, ref) in enumerate(zip(bands, reference)):
                rows = min(1 << e, width - 1) + 1
                assert band.dtype == np.dtype(object) and band.shape == (rows, width)
                assert band.tolist() == (ref[:rows] % 2**bits).tolist() and not ref[rows:].any()

    def test_narrow_after_wide_and_wide_after_narrow(self, monkeypatch):
        # each sequence starts from an empty band cache of its lane; the process-wide ones are restored after
        ns = (0, 1, 17, 64, 65, 130)
        for (lane, bits), widths in itertools.product(LANES, ((120, 9), (9, 120), (1, 300, 2))):
            monkeypatch.setitem(engine._BANDS, lane, engine._JumpBands(lane))
            for k_max in widths:
                assert stirling_rows_mod2(ns, k_max, bits) == exact_rows(ns, k_max, bits)
                assert_within_caps(engine._BANDS[lane])

    def test_jump_depth_fits_the_cap(self):
        cap = engine.DEFAULT_ROW_CAP
        full = cap // (2 + 3 + 5 + 9 + 17)  # the widest row with the five bands of 1 to 16 steps
        assert engine._jump_count(full, 64) == engine._SHORT_JUMPS
        assert engine._jump_count(full + 1, 64) == engine._SHORT_JUMPS - 1
        assert engine._jump_count(4096, 64) == engine._SHORT_JUMPS  # the scan's rows: jumps of 16
        assert engine._jump_count(65, 64) > 32  # a narrow row: jumps past 2**32 steps
        for width in (1, 2, 17, 65, 257, 360, 4096, full, full + 1, cap // 33 + 1, cap // 5 + 1, cap // 2):
            count = engine._jump_count(width, 64)
            sizes = band_sizes(count + 1, width)
            assert count >= 1 and sum(sizes[: min(count, engine._SHORT_JUMPS)]) <= cap
            if count > engine._SHORT_JUMPS:
                assert max(sizes[engine._SHORT_JUMPS : count]) <= LONG_BAND_CAP
                assert sum(sizes[:count]) <= engine._LANE_BAND_CAP
            # the next band would break a cap
            if count < engine._SHORT_JUMPS:
                assert sum(sizes) > cap
            elif count < 64:
                assert sum(sizes) > engine._LANE_BAND_CAP
            # a request's largest gap bounds the bands: jumps of 1 and 2 steps for a gap of 3
            assert engine._jump_count(width, (3).bit_length()) == min(count, 2)

    def test_narrow_row_after_a_wide_one_composes_its_own_deep_bands(self, monkeypatch):
        # the cached bands of a row 1,001 wide jump by at most 32 steps: 3 * 2**32 steps
        # of a row 6 wide would take 4 * 10**8 numpy passes with them
        ns = (1 << 32, 3 << 32)
        expected = {n: [stirling_explicit_mod2(n, k, 32).value for k in range(6)] for n in ns}
        for lane, bits in LANES:
            bands = engine._JumpBands(lane)
            monkeypatch.setitem(engine._BANDS, lane, bands)
            stirling_rows_mod2((100,), 1000, bits)
            assert bands._width == 1001 and len(bands._bands) == engine._SHORT_JUMPS + 1
            start = time.perf_counter()
            rows = stirling_rows_mod2(ns, 5, bits)
            assert time.perf_counter() - start < 0.1
            assert {n: [r % 2**32 for r in row] for n, row in rows.items()} == expected
            # the deep bands were the pass's own: the cache is as it was
            assert bands._width == 1001 and len(bands._bands) == engine._SHORT_JUMPS + 1

    def test_wide_row_keeps_the_band_cache_under_the_cap(self, monkeypatch):
        # a row too wide for the 16-step jump, then narrow rows, then one as
        # wide as the scan's, then a narrow row again, in each lane's own cache and dtype
        width = engine.DEFAULT_ROW_CAP // 33 + 1
        for lane, bits in LANES:
            bands = engine._JumpBands(lane)
            monkeypatch.setitem(engine._BANDS, lane, bands)
            rows = stirling_rows_mod2((3, 5, 40), width - 1, bits)
            assert_within_caps(bands)
            assert len(bands._bands) == engine._SHORT_JUMPS - 1  # jumps of at most 8 steps
            assert {band.dtype for band in bands._bands} == {np.dtype(lane)}
            assert rows == {n: exact_rows((n,), n, bits)[n] + [0] * (width - 1 - n) for n in (3, 5, 40)}
            # a narrow call after it gets the 16-step band at its own width
            assert stirling_rows_mod2((20,), 40, bits) == reference_rows((20,), 40, bits)
            assert bands._width == 41 and len(bands._bands) == engine._SHORT_JUMPS
            assert_within_caps(bands)
            # and deep bands, when its gap asks for them
            n = 5000
            deep = reference_rows((n,), 40, bits)
            assert stirling_rows_mod2((n,), 40, bits) == deep
            assert bands._width == 41 and len(bands._bands) == n.bit_length()
            assert_within_caps(bands)
            # a narrower row that fits no band of up to 32 steps more slices the cached bands
            assert stirling_rows_mod2((n,), 29, bits, {n: range(30)}) == {n: deep[n][:30]}
            assert bands._width == 41 and len(bands._bands) == n.bit_length()
            # as wide as the scan's rows: jumps of exactly 16 steps, however long the gap
            rows = stirling_rows_mod2((3, 300), 4095, bits, {3: [0, 3], 300: [1, 299, 300, 4095]})
            assert rows == {3: [0, 1], 300: [1, math.comb(300, 2) % 2**bits, 1, 0]}
            assert bands._width == 4096 and len(bands._bands) == engine._SHORT_JUMPS
            assert_within_caps(bands)
            # a narrow row after it gets deep bands at its own width again
            assert stirling_rows_mod2((n,), 40, bits) == deep
            assert bands._width == 41 and len(bands._bands) == n.bit_length()


class TestExplicitEngine:
    def test_examples(self):
        assert stirling_explicit_mod2(4, 2, 8) == Residue(7, 8)
        for k in (0, 1, 4, 9):
            assert stirling_explicit_mod2(k, k, 12).value == 1
        assert stirling_explicit_mod2(10, 4, 12) == stirling_mod2(10, 4, 12)

    def test_against_exact(self):
        # the row sequence against the single-cell form and the exact
        # triangle, three columns past the diagonal of its last row
        for bits in (1, 8, 32, 64, 65, 128):
            rows = list(stirling_explicit_rows_mod2(44, 47, bits))
            assert len(rows) == 45
            for n, row in enumerate(rows):
                expected = [stirling_exact(n, k) % 2**bits for k in range(48)]
                assert expected[n + 1 :] == [0] * (47 - n)
                assert row == expected
                single = [stirling_explicit_mod2(n, k, bits).value for k in range(n + 4)]
                assert single == expected[: n + 4]
            # rows narrower than the diagonal
            narrow = [[stirling_exact(n, k) % 2**bits for k in range(6)] for n in range(31)]
            assert list(stirling_explicit_rows_mod2(30, 5, bits)) == narrow
        assert list(stirling_explicit_rows_mod2(0, 0, 8)) == [[1]]

    def test_k_above_n(self):
        assert stirling_explicit_mod2(3, 8, 16).value == 0

    def test_row_rejects_bad_input(self):
        # refused at the call, before the first row is asked for
        for args in ((-1, 4, 8), (4, -1, 8), (4, 4, 0)):
            with pytest.raises(DomainError):
                stirling_explicit_rows_mod2(*args)
        with pytest.raises(ResourceCapError):
            stirling_explicit_rows_mod2(10, 1 << 23, 8)
        with pytest.raises(ResourceCapError):
            stirling_explicit_rows_mod2(10, 1023, 8)
        assert next(stirling_explicit_rows_mod2(0, 1022, 8)) == [1] + [0] * 1022

    @staticmethod
    def blocks(n_max, k_max, bits):
        # the rows (n0, n1) of each block of the difference table: a block whose last row is n1
        # holds min(k_max, n1) + 1 x-columns of 32-bit limbs, enough for its values (at most
        # min(k_max, n1)**n1) or for the residues and their nu2(k_max!) extra bits, and at most
        # _EXPLICIT_BLOCK_LIMBS limbs unless it is one row
        working = bits + nu2_int(math.factorial(k_max))

        def block_limbs(n0, n1):
            top = min(k_max, n1)
            return (n1 + 1 - n0) * (top + 1) * -(-min(working, n1 * top.bit_length() + 1) // 32)

        plan, n0 = [], 0
        while n0 <= n_max:
            n1 = n0
            while n1 < n_max and block_limbs(n0, n1 + 1) <= engine._EXPLICIT_BLOCK_LIMBS:
                n1 += 1
            plan.append((n0, n1))
            n0 = n1 + 1
        return plan

    @pytest.mark.parametrize("bits", [1, 65, 200])
    def test_rows_against_single_cell_and_exact(self, bits):
        n_max, k_max = 110, 100
        assert len(self.blocks(n_max, k_max, bits)) > 1  # the rows cross a block boundary
        rows = list(stirling_explicit_rows_mod2(n_max, k_max, bits))
        assert len(rows) == n_max + 1
        for n, row in enumerate(rows):
            assert row == [stirling_exact(n, k) % 2**bits for k in range(k_max + 1)]
            # past k = n + 2 both are 0, as the exact row shows
            top = min(n + 2, k_max)
            assert row[: top + 1] == [stirling_explicit_mod2(n, k, bits).value for k in range(top + 1)]

    def test_block_boundaries(self, monkeypatch):
        k_max, bits = 20, 65
        expected = list(stirling_explicit_rows_mod2(12, k_max, bits))
        assert expected == list(exact_rows(range(13), k_max, bits).values())
        heights = set()
        for limbs in (1, 4, 9, 16, 25, 36, 49, 64, 162, 1 << 15):
            monkeypatch.setattr(engine, "_EXPLICIT_BLOCK_LIMBS", limbs)
            (n0, n1), *_ = self.blocks(12, k_max, bits)
            heights.add(n1 + 1 - n0)
            for n_max in range(13):
                assert list(stirling_explicit_rows_mod2(n_max, k_max, bits)) == expected[: n_max + 1]
        assert heights == {1, 2, 3, 4, 5, 6, 7, 8, 9, 13}

    @pytest.mark.parametrize("bits", [1, 65, 200])
    def test_one_row_blocks_at_the_widest_k(self, bits, monkeypatch):
        # at k_max = 1022 the residues carry nu2(1022!) = 1013 extra bits; blocks stop at
        # level n1 < k_max, so at the default budget they hold one row only from n = 214
        # (200 bits) to 256 (1 bit) on, and here a budget of one limb makes every block one row
        monkeypatch.setattr(engine, "_EXPLICIT_BLOCK_LIMBS", 1)
        assert all(n0 == n1 for n0, n1 in self.blocks(40, 1022, bits))
        rows = list(stirling_explicit_rows_mod2(40, 1022, bits))
        assert rows == list(exact_rows(range(41), 1022, bits).values())

    def test_limb_boundaries(self):
        # 63 bits at k_max = 3 work at 64 bits, two whole limbs; the quotient of column 34 starts
        # at bit nu2(34!) = 32, a limb boundary; and precisions around one, two and three limbs
        assert 63 + nu2_int(math.factorial(3)) == 64 and nu2_int(math.factorial(34)) == 32
        assert list(stirling_explicit_rows_mod2(20, 3, 63)) == list(exact_rows(range(21), 3, 63).values())
        for bits in (31, 32, 33, 64, 96):
            rows = list(stirling_explicit_rows_mod2(60, 40, bits))
            assert rows == list(exact_rows(range(61), 40, bits).values())

    def test_carries_at_every_level(self, monkeypatch):
        # a carry pass after every difference level and every product of the powers
        shapes = [(20, 3, 63), (60, 40, 96), (100, 64, 8), (30, 1022, 200)]
        expected = [list(exact_rows(range(n_max + 1), k_max, bits).values()) for n_max, k_max, bits in shapes]
        assert [list(stirling_explicit_rows_mod2(*shape)) for shape in shapes] == expected
        monkeypatch.setattr(engine, "_CARRY_LEVELS", 1)
        assert [list(stirling_explicit_rows_mod2(*shape)) for shape in shapes] == expected

    def test_block_straddles_the_level_cut_off(self, monkeypatch):
        # a block holding rows below and above k_max stops at level k_max, where its first
        # rows are 0 past k = n: rows 0..98 of the first case, 8..13 of the second
        assert self.blocks(400, 40, 64)[0] == (0, 98)
        rows = list(stirling_explicit_rows_mod2(400, 40, 64))
        assert rows == list(exact_rows(range(401), 40, 64).values())
        monkeypatch.setattr(engine, "_EXPLICIT_BLOCK_LIMBS", 150)
        assert self.blocks(30, 10, 65)[1] == (8, 13)
        rows = list(stirling_explicit_rows_mod2(30, 10, 65))
        assert rows == list(exact_rows(range(31), 10, 65).values())

    @given(st.integers(0, 60), st.integers(0, 80), st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_rows_against_exact_property(self, n_max, k_max, bits):
        rows = list(stirling_explicit_rows_mod2(n_max, k_max, bits))
        assert rows == list(exact_rows(range(n_max + 1), k_max, bits).values())

    def test_small_values_at_high_precision(self):
        # a million bits, but the values of rows n <= 10 fit one or two limbs, and the blocks
        # hold only those
        rows = list(stirling_explicit_rows_mod2(10, 4, 10**6))
        assert rows == list(exact_rows(range(11), 4, 10**6).values())

    def test_megabit_rows_keep_no_inverses(self):
        # each call builds the inverses of the odd parts of k! it needs and lets them go:
        # nothing of three megabit calls stays behind
        expected = [stirling_exact(10, k) for k in range(11)]
        tracemalloc.start()
        try:
            for bits in (10**6, 2 * 10**6, 3 * 10**6):
                rows = list(stirling_explicit_rows_mod2(10, 40, bits))
                assert rows[10][:11] == expected
            del rows
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1 << 20

    def test_digits_resolve_carry_runs(self):
        # lazily carried limbs (under 2**63) of known digits: runs of 2**32 - 1 that a carry
        # crosses, and carries and borrows moved between neighbouring limbs
        rng = np.random.default_rng(7)
        limbs, columns, top = 12, 400, (1 << 32) - 1
        choices = np.array([0, 1, top - 1, top, 1 << 31])
        digits = rng.choice(choices, size=(limbs, columns), p=[0.1, 0.1, 0.1, 0.6, 0.1])
        moved = rng.integers(-(1 << 30), 1 << 30, size=digits.shape)
        lazy = digits + (moved << 32)  # moved * 2**32 into each limb, taken from the next one
        lazy[1:] -= moved[:-1]
        # -1; 2**32 + (2**32 - 1) * (2**32 + 2**64 + ...), a multiple of the modulus;
        # 2**62 - 1 - (2**30 + 1) * 2**32 = -2**32 - 1; and 1 - 2**62 + 2**30 * 2**32 = 1
        lazy[:, :4] = 0
        lazy[0, :4] = -1, 1 << 32, (1 << 62) - 1, 1 - (1 << 62)
        lazy[1:, 1] = top
        lazy[1, 2:4] = -(1 << 30) - 1, 1 << 30
        digits[:, :4] = [[top, 0, top, 1], [top, 0, top - 1, 0]] + [[top, 0, top, 0]] * (limbs - 2)
        assert engine._digits(lazy.copy()).tolist() == digits.tolist()

    @pytest.mark.parametrize("bits", [1, 65, 200])
    def test_edges(self, bits):
        assert list(stirling_explicit_rows_mod2(0, 0, bits)) == [[1]]
        assert list(stirling_explicit_rows_mod2(0, 9, bits)) == [[1] + [0] * 9]
        assert list(stirling_explicit_rows_mod2(7, 0, bits)) == [[1]] + [[0]] * 7
        for n_max, k_max in ((3, 10), (9, 10), (10, 10), (11, 10)):
            expected = exact_rows(range(n_max + 1), k_max, bits)
            assert list(stirling_explicit_rows_mod2(n_max, k_max, bits)) == list(expected.values())

    def test_rows_use_no_other_route(self, monkeypatch):
        expected = list(exact_rows(range(51), 40, 96).values())

        def refuse(*args, **kwargs):
            raise AssertionError("the explicit rows reached another route")

        for name in ("stirling_rows_mod2", "_rows_numpy", "_band", "_JumpBands", "stirling_exact"):
            monkeypatch.setattr(engine, name, refuse)
        assert list(stirling_explicit_rows_mod2(50, 40, 96)) == expected

    def test_division_by_k_factorial_is_checked(self, monkeypatch):
        # with s2 = 0 the rows would divide k! S(n, k) by 2**k, which 1! S(1, 1) = 1 is not
        monkeypatch.setattr(engine, "s2", lambda k: 0)
        monkeypatch.setattr(engine, "_odd_factorial_inverses", lambda top, bits: [1] * (top + 1))
        with pytest.raises(RuntimeError, match=r"S\(1,1\) not divisible by 2\*\*1"):
            list(stirling_explicit_rows_mod2(4, 4, 8))


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


def exact_value(n1, n2, k):
    """S(n1, k), or S(n1, k) - S(n2, k) when n2 is not None."""
    return stirling_exact(n1, k) - (0 if n2 is None else stirling_exact(n2, k))


def expected_valuation(value, max_bits):
    return Valuation.finite(nu2_int(value)) if value % 2**max_bits else Valuation.at_least(max_bits)


def record_passes(monkeypatch):
    """Wrap the engine's row pass; return the list of (ns, k_max, bits, columns, rows) it sees."""
    passes = []

    def rows(ns, k_max, bits, columns=None):
        out = stirling_rows_mod2(ns, k_max, bits, columns)
        passes.append((sorted(ns), k_max, bits, columns, out))
        return out

    monkeypatch.setattr(engine, "stirling_rows_mod2", rows)
    return passes


def expected_passes(queries, policy):
    """(ns, k_max, bits) of each rung: the rows and the largest k of the pending queries.

    A first rung in 33..64 is preceded by a 32-bit pass over every query.
    """
    passes, pending = [], set(queries)
    ladder = list(policy.ladder())
    if 32 < ladder[0] <= 64:
        ladder.insert(0, 32)
    for bits in ladder:
        if pending:
            ns = sorted({n for n1, n2, _ in pending for n in (n1, n2) if n is not None})
            passes.append((ns, max(k for *_, k in pending), bits))
            pending = {q for q in pending if exact_value(*q) % 2**bits == 0}
    return passes


# row 25, the pair (25, 9), and the pair (80, 70), whose nu2(S(80, 2) - S(70, 2)) = 69
# is certified on the wide tier at 132 bits
GRID_QUERIES = (
    [(25, None, k) for k in range(1, 10)]
    + [(25, 9, k) for k in range(2, 10)]
    + [(80, 70, k) for k in range(2, 10)]
)


class TestValuations:
    @pytest.mark.parametrize(
        "n1, n2, policy",
        [
            (25, None, PrecisionPolicy(1, 8)),
            (25, 9, PrecisionPolicy(1, 8)),
            (80, 70, PrecisionPolicy(33, 132)),
        ],
    )
    def test_one_pass_per_rung_over_pending_columns(self, monkeypatch, n1, n2, policy):
        queries = [(n1, n2, k) for k in range(1, 10)]
        passes = record_passes(monkeypatch)
        out = valuations(queries, policy)
        assert [p[:3] for p in passes] == expected_passes(queries, policy)
        assert out == {q: expected_valuation(exact_value(*q), policy.max_bits) for q in queries}

    def test_one_pass_per_rung_over_every_pending_row(self, monkeypatch):
        policy = PrecisionPolicy(33, 132)
        passes = record_passes(monkeypatch)
        out = valuations(GRID_QUERIES, policy)
        assert [p[:3] for p in passes] == expected_passes(GRID_QUERIES, policy)
        # the rows 9 and 25 are certified by the 32-bit pass, (80, 70) at k = 2 on the last rung
        assert [p[0] for p in passes] == [[9, 25, 70, 80], [70, 80], [70, 80], [70, 80]]
        assert [p[2] for p in passes] == [32, 33, 66, 132]
        assert out[80, 70, 2] == Valuation.finite(69)
        assert out == {q: expected_valuation(exact_value(*q), 132) for q in GRID_QUERIES}

    def test_each_pass_returns_only_the_queried_entries(self, monkeypatch):
        policy = PrecisionPolicy(1, 132)
        passes = record_passes(monkeypatch)
        valuations(GRID_QUERIES, policy)
        pending = set(GRID_QUERIES)
        for ns, _, bits, columns, rows in passes:
            wanted = {n: sorted({k for n1, n2, k in pending if n in (n1, n2)}) for n in ns}
            assert columns == wanted
            assert rows == {
                n: [stirling_exact(n, k) % 2**bits for k in ks] for n, ks in wanted.items()
            }
            pending = {q for q in pending if exact_value(*q) % 2**bits == 0}
        assert len(passes) > 2 and not pending

    @pytest.mark.parametrize(
        "query, policy, bits, expected",
        [
            # nu2(S(50, 2) - S(40, 2)) = 39 and nu2(S(40, 2) - S(33, 2)) = 32: zero mod 2**32
            ((50, 40, 2), PrecisionPolicy(48, 48), [32, 48], Valuation.finite(39)),
            ((40, 33, 2), PrecisionPolicy(33, 33), [32, 33], Valuation.finite(32)),
            ((40, 33, 2), PrecisionPolicy(32, 64), [32, 64], Valuation.finite(32)),
            # nu2(S(12, 7)) = 2, beyond what PrecisionPolicy(1, 1) may certify
            ((12, None, 7), PrecisionPolicy(1, 1), [1], Valuation.at_least(1)),
            ((12, None, 7), PrecisionPolicy(64, 64), [32], Valuation.finite(2)),
            ((12, None, 7), PrecisionPolicy(65, 130), [65], Valuation.finite(2)),
        ],
    )
    def test_32_bit_first_pass(self, monkeypatch, query, policy, bits, expected):
        # only a first rung in 33..64 gets the 32-bit pass
        passes = record_passes(monkeypatch)
        assert valuations([query], policy) == {query: expected}
        assert [p[2] for p in passes] == bits
        assert expected == expected_valuation(exact_value(*query), policy.max_bits)

    def test_zero_columns_exhaust_the_ladder(self):
        # S(5, 7) = 0 and S(12, 3) - S(12, 3) = 0: the caller's cases to rule out
        policy = PrecisionPolicy(8, 16)
        assert valuations([(5, None, 7), (5, None, 3)], policy) == {
            (5, None, 7): Valuation.at_least(16),
            (5, None, 3): Valuation.finite(0),
        }
        assert valuations([(12, 12, 3)], policy) == {(12, 12, 3): Valuation.at_least(16)}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_single_queries_and_exact(self, data):
        # pairs have distinct rows and k >= 2: equal rows and k <= 1 give zero
        # differences, which the single-query functions rule out first
        max_bits = data.draw(st.integers(1, 16))
        policy = PrecisionPolicy(data.draw(st.integers(1, max_bits)), max_bits)
        row = st.integers(1, 60).flatmap(
            lambda n: st.tuples(st.just(n), st.none(), st.integers(1, n))
        )
        pair = (
            st.tuples(st.integers(2, 60), st.integers(2, 60))
            .filter(lambda ns: ns[0] != ns[1])
            .flatmap(lambda ns: st.tuples(st.just(ns[0]), st.just(ns[1]), st.integers(2, min(ns))))
        )
        queries = data.draw(st.lists(st.one_of(row, pair), min_size=1, max_size=12))
        out = valuations(queries, policy)
        assert set(out) == set(queries)
        for n1, n2, k in queries:
            if n2 is None:
                single = val_stirling(n1, k, policy)
            else:
                single = val_stirling_difference(n1, n2, k, policy)
            assert out[n1, n2, k] == single
            assert single == expected_valuation(exact_value(n1, n2, k), max_bits)


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
