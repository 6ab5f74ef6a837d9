"""Command-line workbench.

Exit codes: 0 all checks passed, 1 a check failed with a witness, 2 the
requested window is not certified at this cutoff, 3 usage or parse errors.
Reports print to stdout as text or as stable JSON; MOSVA_REPORT_DIR, when
set, receives a copy of each report.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import SUITES, check_region_consistency, run_suite
from .constructions import contragredient_module, opposite_mosva, transport_module
from .correlators import (PRODUCT, WINDOW_LIMITED, CorrelationSeries,
                          _module_position, correlate, estimate_pole_orders,
                          reconstruct_rational)
from .document import load, save
from .errors import SchemaError, WindowError
from .factory import build_heisenberg, matrix_units_mosva, self_module
from .graded import DualVec, Vec
from .report import Report
from .scalars import format_scalar, parse_scalar
from .vertex import BI, LEFT, RIGHT, AlgebraInstance

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_WINDOW = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mosva", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("example", help="generate a shipped example instance")
    ex.add_argument("which", choices=["matrix", "heisenberg"])
    ex.add_argument("--cutoff", type=int, default=6)
    ex.add_argument("--level", default="1")
    ex.add_argument("--module", choices=[LEFT, RIGHT, BI], default=None,
                    help="write the self-module of this side instead of the algebra")
    ex.add_argument("-o", "--output", required=True)

    ck = sub.add_parser("check", help="run checker suites on an instance file")
    ck.add_argument("file")
    ck.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    ck.add_argument("--p1-max", type=int, default=None)
    ck.add_argument("--max-weight", type=int, default=4)
    ck.add_argument("--report", choices=["text", "machine"], default="text")

    op = sub.add_parser("oppose", help="write the opposite algebra")
    op.add_argument("file")
    op.add_argument("-o", "--output", required=True)

    tr = sub.add_parser("transport", help="transport a module across the opposite")
    tr.add_argument("file")
    tr.add_argument("--direction", required=True,
                    choices=["right_to_left_op", "left_to_right_op",
                             "right_op_to_left", "left_op_to_right"])
    tr.add_argument("-o", "--output", required=True)

    cg = sub.add_parser("contragredient", help="write the contragredient module")
    cg.add_argument("file")
    cg.add_argument("-o", "--output", required=True)

    def add_correlator_args(q):
        q.add_argument("file")
        q.add_argument("--bra", required=True, help="dual basis label")
        q.add_argument("--ops", required=True,
                       help="comma-separated label@variable pairs")
        q.add_argument("--ket", required=True, help="basis label")
        q.add_argument("--mode", choices=["product", "iterate", "mixed"],
                       default="product")
        q.add_argument("--module-at", type=int, default=None)
        q.add_argument("--report", choices=["text", "machine"], default="text")

    co = sub.add_parser("correlate", help="compute a correlation series")
    add_correlator_args(co)
    co.add_argument("--order", type=int, default=None)

    rc = sub.add_parser("reconstruct", help="reconstruct the rational function")
    add_correlator_args(rc)

    rg = sub.add_parser("regions", help="match region expansions against series")
    add_correlator_args(rg)
    rg.add_argument("--order", type=int, default=6)
    return p


# built once per process: parsing reads the parser and leaves it unchanged
_PARSER = _build_parser()


def _emit(report: Report, style: str, command: str) -> None:
    text = report.to_json() if style == "machine" else report.to_text() + "\n"
    sys.stdout.write(text)
    outdir = os.environ.get("MOSVA_REPORT_DIR")
    if outdir:
        ext = "json" if style == "machine" else "txt"
        path = os.path.join(outdir, f"{command}-report.{ext}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _correlator_args(inst, args):
    """The bra, operators and ket that --bra, --ops and --ket name.  Operator
    i, or the ket at chain position len(ops), is read in the module's space
    at the module element's position and in the algebra's elsewhere."""
    if args.bra not in inst.space.label_weights:
        raise _UsageError(f"unknown bra label {args.bra!r}")
    pieces = [piece.strip() for piece in args.ops.split(",")]
    # reconstruct and regions take the product form whatever --mode says
    mode = args.mode if args.command == "correlate" else PRODUCT
    position = _module_position(inst, len(pieces), mode, args.module_at)
    spaces = [inst.space if i == position else inst.algebra.space
              for i in range(len(pieces) + 1)]
    if args.ket not in spaces[-1].label_weights:
        raise _UsageError(f"unknown ket label {args.ket!r}")
    ops = []
    for piece, space in zip(pieces, spaces):
        if "@" not in piece:
            raise _UsageError(f"operator {piece!r} must look like label@variable")
        lbl, var = piece.split("@", 1)
        if lbl not in space.label_weights:
            raise _UsageError(f"unknown label {lbl!r}")
        ops.append((Vec(space, {lbl: 1}), var))
    return DualVec(inst.space, {args.bra: 1}), ops, Vec(spaces[-1], {args.ket: 1})


def _series_report(series: CorrelationSeries, command: str) -> Report:
    rep = Report(command)
    for mono in sorted(series.coefficients):
        body = " ".join(f"{v}^{e}" for v, e in zip(series.variables, mono))
        rep.ok(f"coefficient {format_scalar(series.coefficients[mono])}",
               inputs=body)
    # the box of exponents of the stored nonzero coefficients ({0} when none)
    monos = series.coefficients or [(0,) * len(series.variables)]
    box = {v: (min(m[i] for m in monos), max(m[i] for m in monos))
           for i, v in enumerate(series.variables)}
    rep.note(f"certified window: "
             + ", ".join(f"{v} in [{lo}, {hi}]" for v, (lo, hi) in sorted(box.items())))
    return rep


def _run(args) -> int:
    if args.command == "example":
        if args.which == "matrix":
            inst = matrix_units_mosva(2)
        else:
            inst, _ = build_heisenberg(level=parse_scalar(args.level),
                                       cutoff=args.cutoff)
        if args.module:
            inst = self_module(inst, args.module)
        save(inst, args.output)
        print(f"wrote {args.output}")
        return EXIT_PASS

    inst = load(args.file)

    if args.command == "check":
        rep = run_suite(inst, args.suite, max_weight=args.max_weight,
                        p1_max=args.p1_max)
        _emit(rep, args.report, "check")
        return EXIT_PASS if rep.passed else EXIT_FAIL

    if args.command == "oppose":
        if not isinstance(inst, AlgebraInstance):
            raise _UsageError("oppose takes an algebra file")
        save(opposite_mosva(inst).result, args.output)
        print(f"wrote {args.output}")
        return EXIT_PASS

    if args.command == "transport":
        if isinstance(inst, AlgebraInstance):
            raise _UsageError("transport takes a module file")
        save(transport_module(inst, args.direction), args.output)
        print(f"wrote {args.output}")
        return EXIT_PASS

    if args.command == "contragredient":
        if isinstance(inst, AlgebraInstance):
            raise _UsageError("contragredient takes a module file")
        save(contragredient_module(inst), args.output)
        print(f"wrote {args.output}")
        return EXIT_PASS

    bra, ops, ket = _correlator_args(inst, args)

    if args.command == "correlate":
        if args.order is not None:
            span = inst.space.cutoff - inst.space.min_weight
            if args.order > span:
                raise WindowError(
                    f"order {args.order} exceeds the certified span {span}; "
                    f"cutoff >= {args.order + inst.space.min_weight} would suffice",
                    needed=args.order + inst.space.min_weight)
        series = correlate(inst, bra, ops, ket, args.mode,
                           module_at=args.module_at)
        _emit(_series_report(series, "correlate"), args.report, "correlate")
        return EXIT_PASS

    if args.command == "reconstruct":
        series = correlate(inst, bra, ops, ket, PRODUCT)
        witness = estimate_pole_orders(inst, bra, ops, ket, series=series)
        res = reconstruct_rational(series, witness)
        rep = Report("reconstruct")
        if res.certified:
            rep.ok("rational reconstruction", inputs=str(res.fn),
                   window=f"degree {res.degree}")
        elif res.reason == WINDOW_LIMITED:
            raise WindowError(res.detail)
        else:
            rep.fail("rational reconstruction", witness=res.detail)
        _emit(rep, args.report, "reconstruct")
        return EXIT_PASS if rep.passed else EXIT_FAIL

    if args.command == "regions":
        rep = check_region_consistency(inst, bra, ops, ket, order=args.order)
        _emit(rep, args.report, "regions")
        return EXIT_PASS if rep.passed else EXIT_FAIL

    raise _UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _run(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SchemaError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except WindowError as e:
        print(f"window insufficient: {e}", file=sys.stderr)
        return EXIT_WINDOW
    except (ValueError, ArithmeticError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
