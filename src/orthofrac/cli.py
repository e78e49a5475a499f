"""Command-line interface.

Subcommands: enumerate, classify, indicator, verify.  Exit codes:
0 success / verification pass, 1 verification fail, 2 usage or parse
error (a design list with no line at all, not even "# count: 0",
included), 3 the problem is too large (the brute-force ceiling of 10^8
subsets, the 768 MB key budget of enumerate, which charges 16W + 8 bytes
per design of W = ceil(m/64) key words plus what the join rows and slice
candidates of each level hold (designs._MATRIX_BUDGET), the
symmetry-group table budget, or the 1 MiB budget of one level power when
verify reduces an indicator such as x1^10000000 (algebra._power_row), is
exceeded, or memory runs out), 4 an
arithmetic overflow (an internal fault: every int64 fast path falls back
to exact Python ints), 5 an enumerated design failed the algebraic
cross-check (an internal fault), 6 any other internal error.
Every error is one `error: ...` line on stderr, never a traceback.
classify adds one `note: ...` line on stderr when it read fewer designs
than the orbits of its classes hold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import lru_cache

from .algebra import (
    indicator_from_design,
    reduce_to_standard_form,
    verify_theta_report,
)
from .catalog import cross_check_classes, is_complete_flagship
from .classify import classification_report, classify_keys, report_text
from .designs import full_factorial, key_runs, load_design_csv
from .polynomials import parse_polynomial
from .search import (
    CrossCheckError,
    ProblemTooLargeError,
    SearchProblem,
    brute_force_keys,
    enumerate_keys,
    read_design_keys,
    write_design_keys,
)


def _arities(text: str) -> tuple[int, ...]:
    try:
        arities = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad levels list {text!r}")
    if not arities or any(r < 2 for r in arities):
        raise argparse.ArgumentTypeError("each factor needs at least 2 levels")
    return arities


# Built once per process: building it costs a small classify's worth of time.
@lru_cache(maxsize=None)
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
    p_enum.add_argument("--format", choices=("text", "json"), default="text")

    p_cls = sub.add_parser("classify", help="partition a design list into symmetry classes")
    p_cls.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_cls.add_argument("--designs", help="design list file (default: stdin)")
    p_cls.add_argument("--out", help="report file (default: stdout)")
    p_cls.add_argument("--format", choices=("text", "json"), default="text")

    p_ind = sub.add_parser("indicator", help="print the indicator polynomial of a design")
    p_ind.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_ind.add_argument("--design", required=True, help="design CSV file")
    p_ind.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="check a design or indicator for size and strength")
    p_ver.add_argument("--levels", type=_arities, required=True, metavar="R1,R2,...")
    p_ver.add_argument("--size", type=int, required=True)
    p_ver.add_argument("--strength", type=int, required=True)
    src = p_ver.add_mutually_exclusive_group(required=True)
    src.add_argument("--design", help="design CSV file")
    src.add_argument("--indicator", help="indicator polynomial text")
    src.add_argument("--indicator-file", help="file holding indicator polynomial text")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    return parser


@contextmanager
def _output(out: str | None):
    """The text handle of --out, or stdout."""
    if not out:
        yield sys.stdout
        return
    # Overwritten in place and then cut to length: on ext4, truncating a
    # file to zero makes its close() start writeback (auto_da_alloc).  The
    # cut is at the bytes that reached the file, also when a write failed,
    # so no tail of the old file stays behind the new text.
    with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        try:
            yield fh
            fh.flush()
        finally:
            if os.path.isfile(out):  # not a pipe or a device
                os.ftruncate(fh.fileno(), os.lseek(fh.fileno(), 0, os.SEEK_CUR))


def _emit(text: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(text)


def cmd_enumerate(args) -> int:
    ambient = full_factorial(args.levels)
    problem = SearchProblem(ambient, args.size, args.strength)
    keys = brute_force_keys(problem) if args.oracle else enumerate_keys(problem)
    if args.format == "json":
        payload = {
            "schema": 1,
            "arities": list(args.levels),
            "size": args.size,
            "strength": args.strength,
            "count": len(keys),
            "designs": key_runs(keys),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        with _output(args.out) as fh:
            write_design_keys(keys, fh)
    if args.out:
        print(f"{len(keys)} designs -> {args.out}")
    return 0


def cmd_classify(args) -> int:
    ambient = full_factorial(args.levels)
    if args.designs:
        with open(args.designs, "rb") as fh:
            keys = read_design_keys(fh, ambient)
    else:
        # Bytes, as from the file; a replaced stdin with no buffer is read as text.
        keys = read_design_keys(getattr(sys.stdin, "buffer", sys.stdin), ambient)
    classes = classify_keys(ambient, keys)
    report = classification_report(classes)
    problems = []
    if is_complete_flagship(classes):
        problems = cross_check_classes(classes)
        report["catalog_check"] = {"pass": not problems, "problems": problems}
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.out)
    else:
        _emit(report_text(report, len(keys)), args.out)
    # The report's total counts whole orbits; a subset, or designs of another
    # ambient with as many runs, reads fewer designs than that.
    in_orbits = report.get("total_designs", 0)
    if in_orbits != len(keys):
        print(
            f"note: {len(keys)} designs read, {in_orbits} in the orbits of their {len(classes)} classes: "
            "the input is not closed under the symmetry group",
            file=sys.stderr,
        )
    return 1 if problems else 0


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
    args = build_parser().parse_args(argv)
    try:
        # Looked up per call, not stored in the shared parser.
        return globals()[f"cmd_{args.command}"](args)
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
