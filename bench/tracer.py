"""Span tracer for the benchmark's traced run.

Wrappers replace the package's functions at every module attribute that holds
them, because that is where callers look them up: ``verify`` and ``bell``
import engine functions by name, so wrapping ``engine`` alone would miss
their calls.  Each wrapped call records a span (name, start, end, parent,
op id) in memory; the spans are written out when the run ends.  Self time is
a span's duration minus the time its child spans cover.

The hottest helper, ``nu2_int``, is only counted: a span per call would cost
more than the call itself.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

SWEEP_TARGETS = (
    "lengyel-eq",
    "thm-lower",
    "thm-diagonal",
    "thm-shifted-triple",
    "thm-difference",
    "lem-shifted-power",
    "lem-theta",
    "junod",
    "identities",
    "count-J",
    "diff-congruence",
)

# (metric, unit, better) for every per-layer metric the traced run reports
PER_LAYER = (
    [
        (f"engine.{tier}.{field}", unit, "lower")
        for tier in ("rows64", "rows_wide")
        for field, unit in (("calls", "count"), ("self_s", "s"), ("lane_steps", "lane-steps"))
    ]
    + [
        ("engine.explicit.calls", "count", "lower"),
        ("engine.explicit.self_s", "s", "lower"),
        ("engine.exact.calls", "count", "lower"),
        ("engine.exact.self_s", "s", "lower"),
        ("engine.identity.self_s", "s", "lower"),
        ("engine.val.calls", "count", "lower"),
        ("engine.val.self_s", "s", "lower"),
        ("engine.escalations", "count", "lower"),
        ("engine.first_rung_ratio", "ratio", "higher"),
        ("base2.nu2_int.calls", "count", "lower"),
        ("base2.brute_force_J.self_s", "s", "lower"),
        ("bell.junod_check.calls", "count", "lower"),
        ("bell.junod_check.self_s", "s", "lower"),
        ("predictors.calls", "count", "lower"),
        ("predictors.self_s", "s", "lower"),
        ("verify.classify.calls", "count", "lower"),
        ("verify.classify.self_s", "s", "lower"),
    ]
    + [(f"verify.sweep.{target}_s", "s", "lower") for target in SWEEP_TARGETS]
    + [
        ("verify.sweep.self_s", "s", "lower"),
        ("verify.scan_s", "s", "lower"),
        ("verify.cross_validate_s", "s", "lower"),
        ("verify.to_json_s", "s", "lower"),
        ("verify.to_csv_s", "s", "lower"),
        ("verify.report_bytes", "bytes", "lower"),
        ("cli.main.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def lane_steps(ns: Iterable[int], k_max: int, bits: int) -> int:
    """Work of one row pass, computed from its arguments:
    recurrence steps x row width x 32-bit limbs."""
    ns = list(ns)
    if not ns:
        return 0
    return max(ns) * (k_max + 1) * -(-bits // 32)


def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(start)):
        covered = 0.0
        reach = start[i]
        for c in sorted(children.get(i, ()), key=start.__getitem__):
            lo, hi = max(start[c], reach), min(end[c], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end[i] - start[i] - covered)
    return out


class Tracer:
    """Spans and counts recorded by wrappers it installs; undone by uninstall()."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.value: dict[int, float] = {}  # per-span quantity: lane-steps, bytes, certified flag
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def spanned(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        value: Callable[[tuple, dict, object], float] | None = None,
    ) -> Callable:
        """fn wrapped to record a span; name and value may depend on the call."""
        names, start, end, parent, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name(args, kwargs) if callable(name) else name)
            parent.append(stack[-1])
            ops.append(self.op_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if value is not None:
                self.value[i] = value(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation

    def replace(self, modules: Iterable[object], original: Callable, wrapper: Callable) -> None:
        """Put wrapper at every attribute of modules that holds original."""
        for mod in modules:
            for key, held in list(vars(mod).items()):
                if held is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def install_package(self) -> None:
        """Wrap the package's layer boundaries (see PER_LAYER)."""
        import stirling2adic
        from stirling2adic import base2, bell, cli, engine, predictors, verify

        modules = (stirling2adic, base2, engine, bell, predictors, verify, cli)

        def span(fn, name, value=None):
            self.replace(modules, fn, self.spanned(fn, name, value))

        span(engine.stirling_rows_mod2, _rows_tier, _rows_lane_steps)
        span(engine.stirling_explicit_mod2, "engine.explicit")
        span(engine.stirling_exact, "engine.exact")
        span(engine.check_convolution, "engine.identity")
        span(engine.check_symmetric_identity, "engine.identity")
        for fn in (engine.val_stirling, engine.val_stirling_difference):
            span(fn, "engine.val", lambda args, kwargs, result: float(result.is_finite))
        span(base2.brute_force_J, "base2.brute_force_J")
        span(bell.junod_check, "bell.junod_check")
        for key in predictors.__all__:
            if key.startswith("predict_") or key == "f_conjectured":
                span(getattr(predictors, key), "predictors")
        span(verify.classify, "verify.classify")
        span(verify.run_sweep, lambda args, kwargs: f"verify.sweep.{_arg(args, kwargs, 0, 'config').target}")
        span(verify.scan_conjecture_mersenne, "verify.scan")
        span(verify.cross_validate, "verify.cross_validate")
        span(cli.main, "cli.main")
        for method in ("to_json", "to_csv"):
            fn = vars(verify.SweepReport)[method]
            wrapper = self.spanned(fn, f"verify.{method}", lambda args, kwargs, result: len(result))
            self.replace([verify.SweepReport], fn, wrapper)
        nu2_int = base2.nu2_int
        self.replace(modules, nu2_int, self.counted(nu2_int, "base2.nu2_int"))

    # -- results

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_ratio."""
        self_s = self_times(self.start, self.end, self.parent)
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        work: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.name):
            calls[name] += 1
            own[name] += self_s[i]
            total[name] += self.end[i] - self.start[i]
            work[name] += self.value.get(i, 0)

        # a valuation escalated once for every row pass beyond its first
        passes: dict[int, int] = defaultdict(int)
        for i, name in enumerate(self.name):
            if name.startswith("engine.rows"):
                p = self.parent[i]
                while p >= 0 and self.name[p] != "engine.val":
                    p = self.parent[p]
                if p >= 0:
                    passes[p] += 1
        vals = [i for i, name in enumerate(self.name) if name == "engine.val"]
        first_rung = sum(1 for i in vals if passes[i] == 1 and self.value.get(i))

        out: dict[str, float] = {}
        for tier in ("rows64", "rows_wide"):
            key = f"engine.{tier}"
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = own[key]
            out[f"{key}.lane_steps"] = work[key]
        for key in ("engine.explicit", "engine.exact", "engine.val",
                    "bell.junod_check", "predictors", "verify.classify"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.self_s"] = own[key]
        out["engine.identity.self_s"] = own["engine.identity"]
        out["engine.escalations"] = sum(max(0, passes[i] - 1) for i in vals)
        out["engine.first_rung_ratio"] = first_rung / len(vals) if vals else 0.0
        out["base2.nu2_int.calls"] = self.counts["base2.nu2_int"]
        out["base2.brute_force_J.self_s"] = own["base2.brute_force_J"]
        for target in SWEEP_TARGETS:
            out[f"verify.sweep.{target}_s"] = total[f"verify.sweep.{target}"]
        out["verify.sweep.self_s"] = sum(
            own[name] for name in own if name.startswith("verify.sweep.")
        )
        out["verify.scan_s"] = total["verify.scan"]
        out["verify.cross_validate_s"] = total["verify.cross_validate"]
        out["verify.to_json_s"] = total["verify.to_json"]
        out["verify.to_csv_s"] = total["verify.to_csv"]
        out["verify.report_bytes"] = work["verify.to_json"] + work["verify.to_csv"]
        out["cli.main.self_s"] = own["cli.main"]
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i, name in enumerate(self.name):
                fh.write(f"{name}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n")


def _arg(args: tuple, kwargs: dict, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _rows_tier(args: tuple, kwargs: dict) -> str:
    return "engine.rows64" if _arg(args, kwargs, 2, "bits") <= 64 else "engine.rows_wide"


def _rows_lane_steps(args: tuple, kwargs: dict, result: object) -> int:
    return lane_steps(
        _arg(args, kwargs, 0, "ns"), _arg(args, kwargs, 1, "k_max"), _arg(args, kwargs, 2, "bits")
    )
