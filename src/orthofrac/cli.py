"""Command-line interface.

Subcommands: enumerate, classify, indicator, verify.  Exit codes:
0 success / verification pass, 1 verification fail, 2 usage or parse
error, 3 the problem is too large (brute-force ceiling exceeded, or out
of memory), 4 an arithmetic overflow (an internal fault: every int64
fast path falls back to exact Python ints), 5 an enumerated design failed
the algebraic cross-check (an internal fault), 6 any other internal error.
Every error is one `error: ...` line on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    indicator_from_design,
    reduce_to_standard_form,
    verify_theta_report,
)
from .catalog import FLAGSHIP_ARITIES, cross_check_classes
from .classify import classification_report, classify_matrix, table_report
from .designs import FullFactorial, full_factorial, load_design_csv
from .fastcheck import matrix_runs
from .polynomials import parse_polynomial
from .search import (
    CrossCheckError,
    ProblemTooLargeError,
    SearchProblem,
    brute_force_matrix,
    enumerate_matrix,
    read_design_matrix,
    write_design_matrix,
)


def _arities(text: str) -> tuple[int, ...]:
    try:
        arities = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels list {text!r}")
    if not arities or any(r < 2 for r in arities):
        raise argparse.ArgumentTypeError("each factor needs at least 2 levels")
    return arities


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthofrac",
        description="Enumerate and classify orthogonal fractions of mixed-level "
        "factorial designs, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="enumerate all orthogonal fractions")
    p_enum.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_enum.add_argument("--size", type=int, required=True)
    p_enum.add_argument("--strength", type=int, required=True)
    p_enum.add_argument("--out", help="results file (default: stdout)")
    p_enum.add_argument("--oracle", action="store_true", help="force the brute-force subset filter")
    p_enum.add_argument("--oracle-ceiling", type=int, default=10**8)
    p_enum.add_argument("--format", choices=("text", "json"), default="text")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cls = sub.add_parser("classify", help="partition a design list into symmetry classes")
    p_cls.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_cls.add_argument("--designs", help="design list file (default: stdin)")
    p_cls.add_argument("--out", help="report file (default: stdout)")
    p_cls.add_argument("--format", choices=("text", "json"), default="text")
    p_cls.set_defaults(func=cmd_classify)

    p_ind = sub.add_parser("indicator", help="print the indicator polynomial of a design")
    p_ind.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_ind.add_argument("--design", required=True, help="design CSV file")
    p_ind.add_argument("--format", choices=("text", "json"), default="text")
    p_ind.set_defaults(func=cmd_indicator)

    p_ver = sub.add_parser("verify", help="check a design or indicator for size and strength")
    p_ver.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_ver.add_argument("--size", type=int, required=True)
    p_ver.add_argument("--strength", type=int, required=True)
    src = p_ver.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", help="design CSV file")
    src.add_argument("--indicator", help="indicator polynomial text")
    src.add_argument("--indicator-file", help="file holding indicator polynomial text")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args) -> int:
    ambient = full_factorial(args.levels)
    problem = SearchProblem(ambient, args.size, args.strength, oracle_ceiling=args.oracle_ceiling)
    y = brute_force_matrix(problem) if args.oracle else enumerate_matrix(problem)
    if args.format == "json":
        payload = {
            "schema": 1,
            "arities": list(args.levels),
            "size": args.size,
            "strength": args.strength,
            "count": len(y),
            "designs": matrix_runs(y),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        import io

        buf = io.StringIO()
        write_design_matrix(y, buf)
        _emit(buf.getvalue(), args.out)
    if args.out:
        print(f"{len(y)} designs -> {args.out}")
    return 0


def _is_complete_flagship(ambient: FullFactorial, classes) -> bool:
    return (
        ambient.radices == FLAGSHIP_ARITIES
        and len(classes) > 0
        and classes[0].invariants is not None
        and sum(c.orbit_size for c in classes) == 35200
    )


def cmd_classify(args) -> int:
    ambient = full_factorial(args.levels)
    if args.designs:
        with open(args.designs) as fh:
            y = read_design_matrix(fh, ambient)
    else:
        y = read_design_matrix(sys.stdin, ambient)
    classes = classify_matrix(ambient, y)
    report = classification_report(classes)
    check_failed = False
    if _is_complete_flagship(ambient, classes):
        problems = cross_check_classes(classes)
        report["catalog_check"] = {"pass": not problems, "problems": problems}
        check_failed = bool(problems)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        lines = [f"{len(y)} designs in {len(classes)} classes"]
        for rec in report["classes"]:
            inv = rec.get("invariants")
            tag = ""
            if inv:
                jtxt = "{" + ",".join(str(v) for v in inv["jset"]) + "}"
                tag = f"  type {inv['t1']},{jtxt}-{inv['t2']}"
            lines.append(f"orbit {rec['orbit_size']:>5}{tag}  {rec['indicator']}")
        if "table" in report:
            lines.append("")
            lines.append(table_report(classes).to_text())
        if "catalog_check" in report:
            check = report["catalog_check"]
            lines.append("")
            lines.append(
                "catalog check: pass" if check["pass"] else
                "catalog check: FAIL\n" + "\n".join("  " + p for p in check["problems"])
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 1 if check_failed else 0


def cmd_indicator(args) -> int:
    ambient = full_factorial(args.levels)
    design = load_design_csv(args.design, ambient)
    text = indicator_from_design(design).to_text()
    if args.format == "json":
        print(json.dumps({"schema": 1, "indicator": text}))
    else:
        print(text)
    return 0


def cmd_verify(args) -> int:
    ambient = full_factorial(args.levels)
    if args.design:
        design = load_design_csv(args.design, ambient)
        poly = indicator_from_design(design)
    else:
        if args.indicator_file:
            with open(args.indicator_file) as fh:
                text = fh.read()
        else:
            text = args.indicator
        poly = parse_polynomial(text, ambient.n_factors)
        if not poly.in_lattice(ambient):
            poly = reduce_to_standard_form(poly, ambient)
    report = verify_theta_report(poly, ambient, args.size, args.strength)
    ok = all(report.values())
    if args.format == "json":
        print(json.dumps({"schema": 1, "checks": report, "pass": ok}))
    else:
        for name, result in report.items():
            print(f"{name}: {'PASS' if result else 'FAIL'}")
        print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _detail(exc: BaseException) -> str:
    """': message' on one line, or '' when the exception carries no message."""
    text = " ".join(str(exc).split())
    return f": {text}" if text else ""


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CrossCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{_detail(exc)}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"error: internal error ({type(exc).__name__}){_detail(exc)}", file=sys.stderr)
        return 6


if __name__ == "__main__":
    sys.exit(main())
