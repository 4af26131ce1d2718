"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the checks that their outputs are right.

Each workload is a sequence of rounds of operations (ops).  An op's ``run``
is timed; its ``check`` runs outside the timed region, returns the number of
verified cells, and raises CheckFailed on any wrong output.  Independent
re-derivations go through the explicit alternating-sum route
(``stirling_explicit_mod2``), never through the row recurrence under test,
and are memoized so that each distinct cell is re-derived once per run.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from stirling2adic import cli
from stirling2adic import verify as V
from stirling2adic.engine import stirling_explicit_mod2

DEFAULT_PAIRS = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 1))

# Exact arithmetic contradicts the paper's difference formula (A05) and its
# congruence (A10) on exactly these cells, keyed (a, b, n, k).  A05 maps each
# cell to its exact valuation.  These outputs, with exit code 2, are expected.
A05_CELLS = {(2, 1, 2, 4): 2, (3, 1, 2, 4): 2, (5, 1, 2, 4): 2, (5, 1, 3, 4): 11, (5, 1, 3, 8): 6}
A10_CELLS = {(3, 1, 2, 4), (5, 1, 2, 4), (5, 1, 3, 8)}
VIOLATIONS = {"thm-difference": set(A05_CELLS), "diff-congruence": A10_CELLS}

# SHA-256 of the JSON and CSV report of every default sweep
SWEEP_SHA256 = {
    "lengyel-eq": (
        "6f302787d6df27dda68e8ff232718f5513d6677efd2473fcf66bb879d7358cf8",
        "7d72e0369ba443e7d7118c6c2c6f39d73e883a87bf0467af803f396562739761",
    ),
    "thm-lower": (
        "836560bc2d4b28f91ccc3f080eeb99881ffb6b03c47f0b74c6a0f2df97e337a3",
        "0b8e5ea356beea151fc9d080ed59bce956e14f41c796a2b98405c8a7326e51b8",
    ),
    "thm-diagonal": (
        "c18ccc41279ea1b11837341b995590117c084c1434c0cee8b281767f6f3a677a",
        "2a658ab616569a5708a2b0b73bd0eca578febe0b2613027c92896f78b12c5014",
    ),
    "thm-shifted-triple": (
        "b7ff7b70f1745a1acc012d78d9186ea2530f9b494ce7763226795db0bae4cbd9",
        "51e776025768255e7841cb1b3e8b9ab55b0bd240fa4fed92e1799b7e71a8771d",
    ),
    "thm-difference": (
        "3592f8464ea9964a65308deabf8bd1fc6e02168f3393cb230c8ff39b8c1c010a",
        "f37d60d19550c597236fee00d5801ead8c3daa04fc125e61f835daa7cd9e4b0e",
    ),
    "lem-shifted-power": (
        "d042608e1d63e8ee69a0b64334f796a5cca61766f7fdc33a3d522912d5e31b6e",
        "400d09c5a909c73090f6af37106c40048e1e5cc3904ecff230f2bb5942a2a396",
    ),
    "lem-theta": (
        "f4d46e5977f46913d94e13c33b705c697adc72ab66c3e0274b155bd376d866b5",
        "c931482fb3087caa818acde1601b542fe39a3b7108281fd615bc974347402c52",
    ),
    "junod": (
        "8648f90bcfc67bb1dffece2c5949082ee719ab1b5f751a0b5129bc01da00cbfd",
        "c47bacbec59d16b5225db568d29d4ddcdbbb44b7ea6d6a6aded097e8f73dafeb",
    ),
    "identities": (
        "6d00a88167c7290f5b4c8d20aef42109a417e788797890f5cab175584d7af551",
        "681a150da51ef0ae403284863316c9c45b0b16ba54089ebea120fe8c0e9ed820",
    ),
    "count-J": (
        "7f7592afd0ad5a138b55d90a43e8d98f9b98b279bc406d6f64abd8430bf8c319",
        "128a381f0fa526b1a32828ee56e6d7c66d54d9bd2dad24f354601c99d351c70a",
    ),
    "diff-congruence": (
        "68743c7eb3531d909ba098456a74c5cd34e69a096bb9e10caab75dcfae9ff07c",
        "16358ca778c450775ccceabf04d43b5af25e3aeb2ec20ec150a69ae6f3e20da9",
    ),
}

# SHA-256 of the default-pair records of the scan at n = 2..12 (see Scan)
SCAN_DEFAULT_SHA256 = "0dad63d3c27762a553c14fcbd1b8ee107ad694a22257e87df9e54fc43f094294"

# SHA-256 of the JSON report of cross_validate(400, 64, [bits])
XVAL_SHA256 = {
    8: "715b4710ff28e1f11523756b7f518c169a659afd6fc105e8d2735d6a1ed90ae9",
    32: "37b72fb6e88f6fa14f89be8465b4649933507b23f9d11f91a0e3c8951779aff5",
    64: "1b88b5be3a3f36e708f6302ec8a525e4d4fc724109d29675daa43f9de2c5c03f",
    128: "1762065c07d2eb8b5a225b282a7ec7bdfda72477fca5de63a26328be2881734a",
}


class CheckFailed(Exception):
    """An output differs from what the benchmark expects."""


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], int]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _nu2(x: int) -> int:
    return (x & -x).bit_length() - 1


def independent_nu2(n1: int, k: int, n2: int | None = None) -> int:
    """nu2(S(n1, k)), or of S(n1, k) - S(n2, k), by the explicit-sum route."""
    bits = 64
    while True:
        r = stirling_explicit_mod2(n1, k, bits).value
        if n2 is not None:
            r = (r - stirling_explicit_mod2(n2, k, bits).value) % (1 << bits)
        if r:
            return _nu2(r)
        bits *= 2


class Sweeps:
    """Every sweep target at its default grid, plus its JSON and CSV report."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def warm_up(self) -> Op:
        # the widest reach into the process-wide exact triangle of any target
        return self._op("diff-congruence")

    def round(self) -> list[Op]:
        order = list(V.sweep_targets())
        self.rng.shuffle(order)
        return [self._op(target) for target in order]

    def _op(self, target: str) -> Op:
        def run():
            report = V.run_sweep(V.SweepConfig(target, workers=1))
            return report, report.to_json(), report.to_csv()

        def check(out) -> int:
            report, js, csv = out
            if (sha256(js), sha256(csv)) != SWEEP_SHA256[target]:
                raise CheckFailed("report bytes differ from the pinned SHA-256")
            bad = {
                tuple(rec.params[p] for p in ("a", "b", "n", "k"))
                for rec in report.cells(V.VIOLATED)
            }
            expected = VIOLATIONS.get(target, set())
            if bad != expected or report.exit_code != (2 if expected else 0):
                raise CheckFailed(f"exit {report.exit_code}, violated cells {sorted(bad)}")
            return len(report.records)

        return Op(f"sweep {target}", run, check)


class Scan:
    """The Mersenne-case scanner at n = 2..12 with the five default pairs plus
    two pairs (6, b) with b drawn from the seed, with its JSON report.

    A pair's row pass runs to a * 2**(n+1) whatever b is, so fixing a = 6
    gives every seed the same work.
    """

    N_VALUES = tuple(range(2, 13))
    CELLS = 7 * sum(n - 1 for n in N_VALUES)
    SAMPLE = 8

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.pairs = list(DEFAULT_PAIRS) + [(6, b) for b in rng.sample(range(1, 6), 2)]
        self.sample = rng.sample(range(self.CELLS), self.SAMPLE)
        self.exact: dict[tuple, int] = {}

    def warm_up(self) -> Op:
        return self._op()

    def round(self) -> list[Op]:
        return [self._op()]

    def _op(self) -> Op:
        def run():
            report = V.scan_conjecture_mersenne(self.N_VALUES, self.pairs, workers=1)
            return report, report.to_json()

        def check(out) -> int:
            report, js = out
            if report.exit_code != 0:
                raise CheckFailed(f"exit {report.exit_code}: {report.summary}")
            records = json.loads(js)["records"]
            if len(records) != self.CELLS:
                raise CheckFailed(f"{len(records)} records, expected {self.CELLS}")
            default = [r for r in records if (r["params"]["a"], r["params"]["b"]) in DEFAULT_PAIRS]
            if sha256(json.dumps(default, sort_keys=True)) != SCAN_DEFAULT_SHA256:
                raise CheckFailed("default-pair records differ from the pinned SHA-256")
            for i in self.sample:
                p = records[i]["params"]
                key = (p["a"] << (p["n"] + 1), (1 << p["m"]) - 1, p["b"] << (p["n"] + 1))
                if key != (p["arg_n1"], p["k"], p["arg_n2"]):
                    raise CheckFailed(f"cell {p}: arguments differ from (n, m, a, b)")
                if key not in self.exact:
                    self.exact[key] = independent_nu2(*key)
                if (records[i]["observed_kind"], records[i]["observed_value"]) != ("finite", self.exact[key]):
                    raise CheckFailed(f"cell {p}: observed {records[i]['observed_value']}, "
                                      f"explicit sum gives {self.exact[key]}")
            return len(records)

        return Op("scan", run, check)


class CrossValidate:
    """Cross-validation on the A08 grid (n <= 400, k <= 64), one op per
    precision in 8, 32, 64 and 128 bits, with its JSON report."""

    BITS = (8, 32, 64, 128)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def warm_up(self) -> Op:
        return self._op(self.BITS[0])

    def round(self) -> list[Op]:
        order = list(self.BITS)
        self.rng.shuffle(order)
        return [self._op(bits) for bits in order]

    def _op(self, bits: int) -> Op:
        def run():
            report = V.cross_validate(n_max=400, k_max=64, bits_list=(bits,), workers=1)
            return report, report.to_json()

        def check(out) -> int:
            report, js = out
            s = report.summary
            if report.exit_code != 0 or s["cells"] != 401 or s[V.CONFIRMED] != 401:
                raise CheckFailed(f"exit {report.exit_code}: {s}")
            if sha256(js) != XVAL_SHA256[bits]:
                raise CheckFailed("report bytes differ from the pinned SHA-256")
            return s["cells"]

        return Op(f"cross-validate bits={bits}", run, check)


_ANSWER = re.compile(r"nu2\(S\((\d+),(\d+)\)(?: - S\((\d+),\d+\))?\) = (\d+)\n")


def _arguments(query: tuple[str, ...]) -> tuple[int, int, int | None]:
    """(n1, k, n2) of S(n1, k), or of S(n1, k) - S(n2, k), that a query asks for."""
    if query[0] == "val":
        return int(query[1]), int(query[2]), None
    a, b, n, k = map(int, query[1:])
    return a << n, k, b << n


class Queries:
    """A seeded pool of single ``val N k`` and ``diff a b n k`` commands run
    through ``cli.main`` with output captured in memory; a round runs the pool."""

    POOL = 500

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        pool: dict[tuple[str, ...], None] = {}
        while len(pool) < self.POOL:
            pool[self.draw(rng)] = None
        self.pool = list(pool)
        self.exact: dict[tuple[str, ...], int] = {}

    @staticmethod
    def draw(rng: random.Random) -> tuple[str, ...]:
        if rng.random() < 0.5:
            big_n = rng.randint(2, 2048)
            return ("val", str(big_n), str(rng.randint(1, min(256, big_n))))
        # default pairs only: elsewhere the formula fails on cells not pinned
        # in A05; k = 2**m - 1 is the open case, left to the scan workload
        a, b = rng.choice(DEFAULT_PAIRS)
        n = rng.randint(2, 9)
        ks = [k for k in range(3, min(1 << n, 256) + 1) if k & (k + 1)]
        return ("diff", str(a), str(b), str(n), str(rng.choice(ks)))

    def warm_up(self) -> Op:
        return self._op(self.pool[0])

    def round(self) -> list[Op]:
        return [self._op(q) for q in self.pool]

    def _op(self, query: tuple[str, ...]) -> Op:
        def run():
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(list(query))
            return code, out.getvalue()

        args = _arguments(query)

        def check(result) -> int:
            code, text = result
            m = _ANSWER.match(text)
            if m is None or (int(m[1]), int(m[2]), m[3] and int(m[3])) != args:
                raise CheckFailed(f"exit {code}, unexpected answer {text[:80]!r}")
            observed = int(m[4])
            if query not in self.exact:
                self.exact[query] = independent_nu2(*args)
            pinned = query[0] == "diff" and tuple(map(int, query[1:])) in A05_CELLS
            if observed != self.exact[query] or code != (2 if pinned else 0):
                raise CheckFailed(
                    f"exit {code}, nu2 {observed}; explicit sum gives {self.exact[query]}"
                )
            return 1

        return Op(" ".join(query), run, check)


WORKLOADS = {"sweeps": Sweeps, "scan": Scan, "xval": CrossValidate, "queries": Queries}
