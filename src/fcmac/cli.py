"""Command-line entry point.

Exit codes: 0 when everything passed, 1 for failed expectations or an
infeasible system, 2 for usage, parse, or validation errors and for paths
that cannot be read or written. The default seed comes from FCMAC_SEED when
set.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import experiments, graphs, jsonio
from .feasibility import check_feasibility
from .graphs import (
    SizeCapError,
    characteristic_graph,
    conditional_chromatic_entropy,
    conditional_graph_entropy,
    min_entropy_coloring,
)
from .channels import GaussianMAC, gmac_sum_rate, mac_sum_capacity_independent
from .probability import AxisError
from .schemes import DEFAULT_SEED


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


@contextlib.contextmanager
def _at_fault(flags: dict):
    """Prefix a library refusal raised inside with the flag that ``flags``
    gives its exception type: the option naming the input at fault."""
    try:
        yield
    except tuple(flags) as exc:
        flag = next(f for kind, f in flags.items() if isinstance(exc, kind))
        raise ValueError(f"{flag}: {exc}") from None


def _rows_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# the columns of an experiment's result rows, in both output formats
_ROW_FIELDS = ("label", "value", "units", "expected", "tolerance", "reference",
               "status", "note")


def _result_json(result: experiments.ExperimentResult) -> dict:
    out = {
        "experiment": result.experiment_id,
        "passed": result.passed,
        "rows": [{k: getattr(r, k) for k in _ROW_FIELDS} for r in result.rows],
        "schemes": [{("scheme" if k == "scheme_id" else k): v for k, v in asdict(s).items()}
                    for s in result.schemes],
    }
    if result.sweep_rows is not None:
        out["sweep"] = {"header": list(result.sweep_header),
                        "rows": [list(row) for row in result.sweep_rows]}
    return out


def _experiment_csv(result: experiments.ExperimentResult) -> str:
    if result.sweep_rows is not None:
        return _rows_csv(result.sweep_header, result.sweep_rows)
    return _rows_csv(_ROW_FIELDS, ([getattr(r, k) for k in _ROW_FIELDS] for r in result.rows))


def _print_experiment(result: experiments.ExperimentResult) -> None:
    print(f"experiment: {result.experiment_id}")
    width = max(len(r.label) for r in result.rows)
    for r in result.rows:
        val = _fmt(r.value)
        line = f"  {r.label:<{width}}  {val:>14} {r.units:<5} [{r.status}]"
        if r.status == "flagged" and r.reference is not None:
            line += f" (reference {_fmt(r.reference)})"
        print(line)
    for s in result.schemes:
        bits = []
        if s.source_entropy_bits is not None:
            bits.append(f"rate {_fmt(s.source_entropy_bits)}")
        if s.color_entropy_bits is not None:
            bits.append(f"colors {_fmt(s.color_entropy_bits)}")
        if s.channel_sum_rate_bits is not None:
            bits.append(f"channel {_fmt(s.channel_sum_rate_bits)}")
        if s.verdict is not None:
            bits.append(f"{s.verdict} (margin {_fmt(s.margin_bits)})")
        if s.distortion_analytic is not None:
            bits.append(f"distortion {_fmt(s.distortion_analytic)}")
        if s.distortion_mc is not None:
            bits.append(f"mc {_fmt(s.distortion_mc.value)}±{_fmt(s.distortion_mc.halfwidth)}")
        print(f"  scheme {s.scheme_id}: " + ", ".join(bits))
    n_fail = sum(1 for r in result.rows if not r.passed)
    n_flag = sum(1 for r in result.rows if r.status == "flagged")
    verdict = "PASS" if result.passed else "FAIL"
    print(f"RESULT: {verdict} ({len(result.rows)} rows, {n_fail} failed, {n_flag} flagged)")


def _cmd_experiment(args) -> int:
    if args.seed is None:
        raw = os.environ.get("FCMAC_SEED", str(DEFAULT_SEED))
        try:
            args.seed = int(raw)
        except ValueError:
            raise ValueError(f"FCMAC_SEED must be an integer, got {raw!r}") from None
    overrides = {name: getattr(args, name) for name in experiments.OVERRIDES
                 if getattr(args, name) is not None}
    result = experiments.run_experiment(args.id, seed=args.seed, **overrides)
    _print_experiment(result)
    if args.out:
        if args.format == "json":
            jsonio.dump_json(_result_json(result), args.out)
        else:
            _write_text(args.out, _experiment_csv(result))
    return 0 if result.passed else 1


def _cmd_check(args) -> int:
    spec = jsonio.system_spec_from_json(jsonio.load_json(args.spec))
    with _at_fault({SizeCapError: "--spec"}):
        report = check_feasibility(spec)
    if args.format == "json":
        text = jsonio.json_text(jsonio.feasibility_report_to_json(report))
    elif args.format == "csv":
        rows = [(r.name, r.lhs_bits, r.rhs_bits, r.margin_bits, r.verdict)
                for r in report.inequalities]
        rows.append(("distortion", report.achieved_distortion,
                     report.target_distortion,
                     report.target_distortion - report.achieved_distortion,
                     "ok" if report.distortion_ok else "exceeded"))
        text = _rows_csv(("record", "lhs_bits", "rhs_bits", "margin_bits", "verdict"),
                         rows)
    else:
        lines = []
        for r in report.inequalities:
            lines.append(f"{r.name:<9} lhs {_fmt(r.lhs_bits):>14}  rhs {_fmt(r.rhs_bits):>14}"
                         f"  margin {_fmt(r.margin_bits):>14}  {r.verdict}")
        lines.append(f"distortion achieved {_fmt(report.achieved_distortion)}"
                     f" target {_fmt(report.target_distortion)}"
                     f" -> {'ok' if report.distortion_ok else 'exceeded'}")
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return 0 if report.feasible(allow_boundary=args.allow_boundary) else 1


def _numeric_label(value):
    if isinstance(value, (int, float, Fraction)):   # the reader refuses booleans
        return value
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--function: label {value!r} is not numeric; threshold mode needs"
                         " numeric function values") from None


def _cmd_graph_build(args) -> int:
    joint = jsonio.pmf_from_json(jsonio.load_json(args.joint))
    table = jsonio.function_table_from_json(jsonio.load_json(args.function))
    # the range distortion is read in threshold mode only, when --delta is
    # given, on every ordered label pair: each label is parsed once
    numeric = functools.cache(_numeric_label)
    # the joint's axis count is checked first, and any later mismatch is the
    # function's; of the two caps the joint's vertices^2 x peers comes
    # first, and a labels^2 refusal is the function's
    two_axes = len(joint.axes) == 2
    over = two_axes and len(joint.axes[0]) * joint.mass.size > graphs.CHARACTERISTIC_GRAPH_CAP
    with _at_fault({AxisError: "--function" if two_axes else "--joint",
                    SizeCapError: "--joint" if over else "--function"}):
        g = characteristic_graph(joint, table, delta=args.delta,
                                 range_distortion=lambda a, b: abs(numeric(a) - numeric(b)))
    _write_text(args.out, jsonio.json_text(jsonio.graph_to_json(g)))
    return 0


def _cmd_graph_color(args) -> int:
    g = jsonio.graph_from_json(jsonio.load_json(args.graph))
    marginal = jsonio.pmf_from_json(jsonio.load_json(args.marginal))
    with _at_fault({AxisError: "--marginal", SizeCapError: "--graph"}):
        coloring, bits = min_entropy_coloring(g, marginal, args.mode)
    print(f"entropy_bits {_fmt(bits)} ({args.mode})")
    _write_text(args.out, jsonio.json_text(jsonio.coloring_to_json(coloring)))
    return 0


def _cmd_graph_entropy(args) -> int:
    g = jsonio.graph_from_json(jsonio.load_json(args.graph))
    needed = "marginal" if args.kind == "chromatic" else "joint"
    if getattr(args, needed) is None:
        raise ValueError(f"--kind {args.kind} needs --{needed}")
    pmf = jsonio.pmf_from_json(jsonio.load_json(getattr(args, needed)))
    # a size cap is the graph's, unless a block length past 1 raised it
    sized = "--n" if args.kind == "conditional-chromatic" and args.n > 1 else "--graph"
    with _at_fault({AxisError: f"--{needed}", SizeCapError: sized}):
        if args.kind == "chromatic":
            payload = {"kind": "chromatic", "bits": min_entropy_coloring(g, pmf, "exact")[1]}
        elif args.kind == "conditional-chromatic":
            payload = {"kind": "conditional-chromatic", "n": args.n,
                       "bits": conditional_chromatic_entropy(g, pmf, args.n)}
        else:
            res = conditional_graph_entropy(g, pmf)
            payload = {"kind": "conditional-graph", "bits": res.value,
                       "gap_bits": res.gap, "upper_bound_bits": res.upper_bound,
                       "converged": res.converged}
    sys.stdout.write(jsonio.json_text(payload))
    return 0


def _cmd_channel_capacity(args) -> int:
    mac = jsonio.mac_from_json(jsonio.load_json(args.mac))
    with _at_fault({SizeCapError: "--mac"}):
        res = mac_sum_capacity_independent(mac)
    # JSON has no infinity: a gap that is +inf, because a block could
    # open an unused output, is written as null
    gap1, gap2 = (g if math.isfinite(g) else None for g in (res.gap1, res.gap2))
    sys.stdout.write(jsonio.json_text({
        "sum_capacity_bits": res.bits, "gap1_bits": gap1, "gap2_bits": gap2,
        "input1": [float(p) for p in res.input1],
        "input2": [float(p) for p in res.input2]}))
    return 0


def _cmd_channel_gmac(args) -> int:
    # gmac_sum_rate would name its own parameter, rho_x
    if not -1.0 <= args.rho <= 1.0:
        raise ValueError(f"--rho must lie in [-1, 1], got {args.rho}")
    rate = gmac_sum_rate(GaussianMAC(args.power, args.noise_var), args.rho)
    sys.stdout.write(jsonio.json_text({"sum_rate_bits": rate}))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    It holds only constants: parsing returns a fresh namespace each time, and
    anything read per call, such as FCMAC_SEED, is resolved by the handler
    that ``func`` names for the leaf subcommand.
    """
    parser = argparse.ArgumentParser(
        prog="fcmac",
        description="Workbench for distributed computation of functions over"
                    " multiple access channels")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a registered experiment")
    exp.add_argument("id", help=f"one of {', '.join(experiments.EXPERIMENT_IDS)}")
    exp.add_argument("--out", help="write results to this path")
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, kind in experiments.OVERRIDES.items():
        exp.add_argument("--" + name.replace("_", "-"), type=kind, default=None)
    exp.set_defaults(func=_cmd_experiment)

    check = sub.add_parser("check", help="check a system description")
    check_sub = check.add_subparsers(dest="check_cmd", required=True)
    thm = check_sub.add_parser("theorem1", help="evaluate the rate inequalities"
                                               " and distortion for a system file")
    thm.add_argument("--spec", required=True, help="system JSON file")
    thm.add_argument("--allow-boundary", action="store_true")
    thm.add_argument("--format", choices=("text", "json", "csv"), default="text")
    thm.add_argument("--out", default=None)
    thm.set_defaults(func=_cmd_check)

    graph = sub.add_parser("graph", help="build, color, or measure graphs")
    graph_sub = graph.add_subparsers(dest="graph_cmd", required=True)
    build = graph_sub.add_parser("build", help="confusability graph from a joint and a function")
    build.add_argument("--joint", required=True)
    build.add_argument("--function", required=True)
    build.add_argument("--delta", type=float, default=None,
                       help="threshold mode: confusable when values differ by more than this")
    build.add_argument("--out", default=None)
    build.set_defaults(func=_cmd_graph_build)
    color = graph_sub.add_parser("color", help="minimum-entropy coloring")
    color.add_argument("--graph", required=True)
    color.add_argument("--marginal", required=True)
    color.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    color.add_argument("--out", default=None)
    color.set_defaults(func=_cmd_graph_color)
    gent = graph_sub.add_parser("entropy", help="graph entropy quantities")
    gent.add_argument("--graph", required=True)
    gent.add_argument("--kind", choices=("chromatic", "conditional-chromatic",
                                         "conditional-graph"), default="chromatic")
    gent.add_argument("--marginal", default=None)
    gent.add_argument("--joint", default=None)
    gent.add_argument("--n", type=int, default=1)
    gent.set_defaults(func=_cmd_graph_entropy)

    chan = sub.add_parser("channel", help="channel capacities and sum rates")
    chan_sub = chan.add_subparsers(dest="channel_cmd", required=True)
    cap = chan_sub.add_parser("capacity", help="independent-input sum capacity")
    cap.add_argument("--mac", required=True, help="channel kernel JSON file")
    cap.set_defaults(func=_cmd_channel_capacity)
    gm = chan_sub.add_parser("gmac", help="Gaussian sum rate at an input correlation")
    gm.add_argument("--power", type=float, required=True)
    gm.add_argument("--rho", type=float, default=0.0)
    gm.add_argument("--noise-var", dest="noise_var", type=float, default=1.0)
    gm.set_defaults(func=_cmd_channel_gmac)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every parse, validation and size-cap error is a ValueError; OSError
    # covers paths that cannot be read or written
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
