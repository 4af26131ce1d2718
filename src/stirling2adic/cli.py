"""Command-line front end.

Subcommands mirror the library: single-query valuations (``val``, ``diff``,
``predict``), grid sweeps (``sweep``, ``scan-conjecture``, ``cross-validate``,
``check-identities``), and small utilities (``bell``, ``j-set``).

Exit codes: 0 all confirmed, 2 violation found, 3 conjecture deviation found,
4 indeterminate cells present, 64 usage or domain error, 70 resource cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import textwrap
from typing import Sequence

from ._version import __version__
from .base2 import brute_force_J, count_J
from .bell import bell_poly
from .engine import PrecisionPolicy, val_stirling, val_stirling_difference
from .errors import DomainError, ResourceCapError
from . import predictors as P
from . import verify as V
from .verify import EXIT_OK

EXIT_USAGE = 64
EXIT_RESOURCE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # usage problems exit 64, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_int_list(text: str) -> list[int]:
    """Parse '2..5', '1,3,7', or a mix like '1..3,9' into a sorted list."""
    values: set[int] = set()
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if ".." in part:
                lo, hi = part.split("..", 1)
                lo_i, hi_i = int(lo), int(hi)
                if hi_i < lo_i:
                    raise DomainError(f"empty range {part!r}")
                values.update(range(lo_i, hi_i + 1))
            else:
                values.add(int(part))
    except DomainError:
        raise
    except ValueError as exc:
        raise DomainError(f"bad range expression {text!r}: {exc}") from exc
    if not values:
        raise DomainError(f"no values in range expression {text!r}")
    return sorted(values)


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse 'a:b' pairs, comma separated, e.g. '2:1,3:1'."""
    pairs = []
    try:
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            a, b = part.split(":", 1)
            pairs.append((int(a), int(b)))
    except ValueError as exc:
        raise DomainError(f"bad pair list {text!r}: {exc}") from exc
    if not pairs:
        raise DomainError(f"no pairs in {text!r}")
    return pairs


def _policy_from(
    args: argparse.Namespace, hint: int | None = None, default: PrecisionPolicy = PrecisionPolicy()
) -> PrecisionPolicy:
    max_bits = default.max_bits if args.precision_max is None else args.precision_max
    if args.precision_initial is not None:
        return PrecisionPolicy(args.precision_initial, max_bits)
    return PrecisionPolicy.for_predicted(hint, max_bits=max_bits)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _policy_line(policy: PrecisionPolicy) -> str:
    return f"precision: initial={policy.initial_bits} max={policy.max_bits} bits"


def _prediction_json(pred: P.Prediction, verdict: str | None) -> dict:
    obj = {
        "kind": pred.kind,
        "value": pred.value,
        "source": pred.source,
        "params": dict(pred.params),
    }
    if verdict is not None:
        obj["verdict"] = verdict
    return obj


def _params_str(pred: P.Prediction) -> str:
    if not pred.params:
        return ""
    inner = ", ".join(f"{k}={v}" for k, v in pred.params.items())
    return f" ({inner})"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_val(args: argparse.Namespace) -> int:
    preds = P.predict_val(args.N, args.K)
    hint = max((p.value for p in preds if p.value is not None), default=None)
    policy = _policy_from(args, hint)
    observed = val_stirling(args.N, args.K, policy)
    verdicts = {
        id(p): (V.classify(p.kind, p.value, observed) if p.kind != P.NOT_APPLICABLE else "none")
        for p in preds
    }
    if args.format == "json":
        obj = {
            "N": args.N,
            "k": args.K,
            "observed": {"kind": observed.kind, "value": observed.value},
            "predictions": [_prediction_json(p, verdicts[id(p)]) for p in preds],
            "policy": {"initial_bits": policy.initial_bits, "max_bits": policy.max_bits},
        }
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        lines = [f"nu2(S({args.N},{args.K})) = {observed}"]
        for p in preds:
            lines.append(f"predicted {p}{_params_str(p)}: {verdicts[id(p)]}")
        lines.append(_policy_line(policy))
        _emit("\n".join(lines) + "\n", args.out)
    return V.verdict_exit_code([verdicts[id(p)] for p in preds])


def _cmd_predict(args: argparse.Namespace) -> int:
    preds = P.predict_val(args.N, args.K)
    if args.format == "json":
        obj = {
            "N": args.N,
            "k": args.K,
            "predictions": [_prediction_json(p, None) for p in preds],
        }
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        lines = [f"predictions for nu2(S({args.N},{args.K})):"]
        for p in preds:
            lines.append(f"  {p}{_params_str(p)}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    pred = P.predict_val_difference(args.A, args.B, args.N, args.K)
    policy = _policy_from(args, pred.value)
    n1, n2 = args.A << args.N, args.B << args.N
    observed = val_stirling_difference(n1, n2, args.K, policy)
    verdict = V.classify(pred.kind, pred.value, observed)
    if args.format == "json":
        obj = {
            "a": args.A,
            "b": args.B,
            "n": args.N,
            "k": args.K,
            "arg_n1": n1,
            "arg_n2": n2,
            "observed": {"kind": observed.kind, "value": observed.value},
            "prediction": _prediction_json(pred, verdict),
            "policy": {"initial_bits": policy.initial_bits, "max_bits": policy.max_bits},
        }
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        lines = [
            f"nu2(S({n1},{args.K}) - S({n2},{args.K})) = {observed}",
            f"predicted {pred}: {verdict}",
            _policy_line(policy),
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return V.verdict_exit_code([verdict])


def _report_text(report: V.SweepReport) -> str:
    s = report.summary
    lines = [f"sweep {report.target}: {s['cells']} cells"]
    for verdict in V.VERDICT_ORDER:
        if s[verdict]:
            lines.append(f"  {verdict}: {s[verdict]}")
    policy = report.config.get("policy")
    if policy:
        lines.append(f"precision: initial={policy['initial_bits']} max={policy['max_bits']} bits")
    for rec in report.cells(V.VIOLATED, V.CONJECTURE_DEVIATION, V.INDETERMINATE):
        params = ", ".join(f"{k}={v}" for k, v in rec.params.items())
        claim = rec.claim_kind if rec.claim_value is None else f"{rec.claim_kind}={rec.claim_value}"
        obs = rec.observed_kind if rec.observed_value is None else f"{rec.observed_kind}={rec.observed_value}"
        lines.append(f"  {rec.verdict}: [{params}] {rec.source} {claim} observed {obs}")
    return "\n".join(lines) + "\n"


def _emit_report(report: V.SweepReport, args: argparse.Namespace) -> int:
    if args.format == "json":
        _emit(report.to_json(), args.out)
    elif args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(_report_text(report), args.out)
    if report.runtime_seconds is not None:
        print(f"[{report.target}] {report.runtime_seconds:.2f}s", file=sys.stderr)
    return report.exit_code


def _cmd_sweep(args: argparse.Namespace) -> int:
    ranges: dict = {}
    for item in args.range or []:
        if "=" not in item:
            raise DomainError(f"--range expects key=values, got {item!r}")
        key, values = item.split("=", 1)
        ranges[key.strip()] = parse_int_list(values)
    if args.pairs:
        ranges["pairs"] = parse_pairs(args.pairs)
    config = V.SweepConfig(
        target=args.kind,
        ranges=ranges,
        policy=_policy_from(args),
        cell_cap=args.cell_cap,
    )
    return _emit_report(V.run_sweep(config), args)


def _cmd_scan(args: argparse.Namespace) -> int:
    # the scanner's default is wider: conjectural valuations grow with n
    policy = _policy_from(args, default=V.DEFAULT_SCANNER_POLICY)
    report = V.scan_conjecture_mersenne(
        n_values=parse_int_list(args.n),
        pairs=parse_pairs(args.pairs),
        m_values=parse_int_list(args.m) if args.m else None,
        policy=policy,
    )
    return _emit_report(report, args)


def _cmd_check_identities(args: argparse.Namespace) -> int:
    junod = [(2, [1, 2], args.junod_max)]
    if args.junod_p3_max > 0:
        junod.append((3, [1], args.junod_p3_max))
    identities = {
        "conv_n": list(range(0, args.max_conv + 1)),
        "conv_m": list(range(1, args.max_conv + 1)),
        "sym_k1": list(range(0, args.max_sym + 1)),
        "sym_k2": list(range(0, args.max_sym + 1)),
    }
    suites = [("identities", identities)] + [
        ("junod", {"p": [p], "v": vs, "m": list(range(0, top + 1)), "n": list(range(1, top + 1))})
        for p, vs, top in junod
    ]
    reports = [
        V.run_sweep(V.SweepConfig(target, ranges))
        for target, ranges in suites
    ]
    if args.format == "json":
        # the reports as one list: each nests one level deeper, and no
        # encoded string holds a raw newline
        items = (textwrap.indent(r.to_json().rstrip("\n"), "  ") for r in reports)
        _emit("[\n" + ",\n".join(items) + "\n]\n", args.out)
    elif args.format == "csv":
        _emit("".join(r.to_csv() for r in reports), args.out)
    else:
        _emit("".join(_report_text(r) for r in reports), args.out)
    return max(r.exit_code for r in reports)


def _cmd_bell(args: argparse.Namespace) -> int:
    poly = bell_poly(args.N, args.mod_bits, args.degree_cap)
    if args.format == "json":
        obj = {
            "n": args.N,
            "bits": poly.bits,
            "degree_cap": poly.degree_cap,
            "coefficients": list(poly.coeffs),
        }
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        _emit(
            f"B_{args.N} mod 2**{poly.bits}: {list(poly.coeffs)}\n",
            args.out,
        )
    return EXIT_OK


def _cmd_cross_validate(args: argparse.Namespace) -> int:
    report = V.cross_validate(
        n_max=args.n_max,
        k_max=args.k_max,
        bits_list=parse_int_list(args.bits),
    )
    return _emit_report(report, args)


def _cmd_j_set(args: argparse.Namespace) -> int:
    expected = count_J(args.N, args.A)
    if args.format == "json":
        obj = {"n": args.N, "a": args.A, "count": expected}
        if args.enumerate:
            obj["elements"] = sorted(brute_force_J(args.N, args.A))
        _emit(json.dumps(obj, indent=2) + "\n", args.out)
    else:
        lines = [f"count_J({args.N},{args.A}) = {expected}"]
        if args.enumerate:
            lines.append(f"J = {sorted(brute_force_J(args.N, args.A))}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="stirling2adic", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    out = _Parser(add_help=False)
    out.add_argument("--format", choices=("text", "csv", "json"), default="text")
    out.add_argument("--out", help="write output to a file instead of stdout")

    # None selects the command's default policy; subparsers share these
    # actions, so a per-command default set on one would reach all of them
    prec = _Parser(add_help=False)
    prec.add_argument("--precision-initial", type=int, default=None, metavar="BITS")
    prec.add_argument("--precision-max", type=int, default=None, metavar="BITS")

    p = sub.add_parser("val", parents=[out, prec], help="valuation of S(N,K) with predictions")
    p.add_argument("N", type=int)
    p.add_argument("K", type=int)
    p.set_defaults(func=_cmd_val)

    p = sub.add_parser("predict", parents=[out], help="closed-form predictions only")
    p.add_argument("N", type=int)
    p.add_argument("K", type=int)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser(
        "diff", parents=[out, prec], help="valuation of S(A*2**N,K) - S(B*2**N,K)"
    )
    p.add_argument("A", type=int)
    p.add_argument("B", type=int)
    p.add_argument("N", type=int)
    p.add_argument("K", type=int)
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("sweep", parents=[out, prec], help="run a verification sweep")
    p.add_argument("kind", choices=V.sweep_targets())
    p.add_argument(
        "--range",
        action="append",
        metavar="KEY=VALUES",
        help="override a grid range, e.g. --range n=2..5 --range c=1,3",
    )
    p.add_argument("--pairs", metavar="A:B,...", help="difference pairs, e.g. 2:1,3:1")
    p.add_argument("--cell-cap", type=int, default=V.DEFAULT_CELL_CAP)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "scan-conjecture",
        parents=[out, prec],
        help="scan the conjectured difference valuation at k = 2**m - 1",
    )
    p.add_argument("--n", default="2..8", help="range of n (arguments use a*2**(n+1))")
    p.add_argument("--m", default=None, help="range of m; default: all with 2**m-1 <= 2**n")
    p.add_argument("--pairs", default="2:1,3:1,3:2,4:2,5:1")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "check-identities", parents=[out], help="convolution, symmetric, Junod suites"
    )
    p.add_argument("--max-conv", type=int, default=12)
    p.add_argument("--max-sym", type=int, default=6)
    p.add_argument("--junod-max", type=int, default=8)
    p.add_argument("--junod-p3-max", type=int, default=6, help="0 disables the p=3 suite")
    p.set_defaults(func=_cmd_check_identities)

    p = sub.add_parser("bell", parents=[out], help="Bell polynomial coefficients mod 2**bits")
    p.add_argument("N", type=int)
    p.add_argument("--mod-bits", type=int, default=64)
    p.add_argument("--degree-cap", type=int, default=None)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser(
        "cross-validate", parents=[out], help="recurrence vs explicit vs exact engines"
    )
    p.add_argument("--n-max", type=int, default=400)
    p.add_argument("--k-max", type=int, default=64)
    p.add_argument("--bits", default="8,32,64")
    p.set_defaults(func=_cmd_cross_validate)

    p = sub.add_parser("j-set", parents=[out], help="closed-form |J| and optional enumeration")
    p.add_argument("N", type=int)
    p.add_argument("A", type=int)
    p.add_argument("--enumerate", action="store_true")
    p.set_defaults(func=_cmd_j_set)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    raise SystemExit(main())
