"""Child process of the benchmark: one pass of one workload, in a fresh interpreter.

    python3 bench/worker.py {setup|measure|trace} --workload W --seed N --seconds S --out FILE

`setup` times importing the package and filling the ambient caches.
`measure` does the same, then times the two CLI commands and the exact
check stream with tracing off.  Both scale their times by the machine's
speed at the time (bench/yardstick.py).  `trace` calls each module's public
functions directly on the same inputs and records spans.  The pass writes
its observations as JSON to FILE; bench/run.py judges them against the
expected outputs.  Each stage is announced on stderr as `@stage NAME`, so
the parent can name the stage that was running when a pass times out.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Workload  # noqa: E402
from yardstick import Yardstick  # noqa: E402

_clock = time.perf_counter
_stage = ""
TRACED_CHECKS = 30


def stage(name: str) -> None:
    global _stage
    _stage = name
    print(f"@stage {name}", file=sys.stderr, flush=True)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nospan(name: str):
    return contextlib.nullcontext()


def quiet_cli(argv: list[str]) -> int:
    """orthofrac.cli.main with its stdout notices discarded."""
    from orthofrac import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


# ---------------------------------------------------------------------------
# Set-up


def setup(w: Workload, tracer=None) -> None:
    """Import the package and fill the caches every later stage reuses."""
    span = tracer.span if tracer else nospan
    stage("setup")
    from orthofrac.algebra import orthogonality_system
    from orthofrac.classify import generate_group
    from orthofrac.designs import full_factorial
    from orthofrac.fastcheck import get_checker

    ambient = full_factorial(w.levels)
    with span("classify.generate_group"):
        generate_group(ambient)
    with span("fastcheck.get_checker"):
        get_checker(ambient)
    orthogonality_system(ambient, *w.check_size_strength)


def warm(w: Workload) -> None:
    """Fill the small lazy caches (run points, power tables) untimed."""
    stage("warm")
    from orthofrac.algebra import indicator_from_design, verify_theta_report
    from orthofrac.designs import all_points, full_factorial, has_strength

    ambient = full_factorial(w.check_levels)
    all_points(ambient)
    size, strength = w.check_size_strength
    design = random_design(random.Random(0), ambient, size)
    has_strength(design, strength)
    verify_theta_report(indicator_from_design(design), ambient, size, strength)


# ---------------------------------------------------------------------------
# Pipeline stream: the two commands users run


def shuffle_design_file(src: Path, dst: Path, rng: random.Random) -> int:
    lines = src.read_text().splitlines(keepends=True)
    body = [ln for ln in lines if not ln.startswith("#")]
    tail = [ln for ln in lines if ln.startswith("#")]
    rng.shuffle(body)
    dst.write_text("".join(body + tail))
    return len(body)


def pipeline_rep(w: Workload, rng: random.Random, work: Path, ys: Yardstick) -> dict:
    """One enumerate and one classify, each timed through the yardstick."""
    designs_file, shuffled, report_file = work / "designs.txt", work / "shuffled.txt", work / "report.json"
    common = ["--levels", w.levels_arg]
    stage("enumerate")
    with ys.interval() as enum_time:
        rc_enum = quiet_cli(
            ["enumerate", *common, "--size", str(w.size), "--strength", str(w.strength),
             "--out", str(designs_file)]
        )
    n_designs = shuffle_design_file(designs_file, shuffled, rng)
    stage("classify")
    with ys.interval() as cls_time:
        rc_cls = quiet_cli(
            ["classify", *common, "--designs", str(shuffled), "--format", "json", "--out", str(report_file)]
        )
    report = json.loads(report_file.read_text())
    return {
        "enumerate": enum_time,
        "classify": cls_time,
        "enumerate_rc": rc_enum,
        "classify_rc": rc_cls,
        "designs": n_designs,
        "classes": report["class_count"],
        "catalog_pass": report.get("catalog_check", {}).get("pass"),
        "designs_sha256": sha256(designs_file),
        "report_sha256": sha256(report_file),
    }


# ---------------------------------------------------------------------------
# Check stream: the exact one-design-at-a-time route


def random_design(rng: random.Random, ambient, size: int):
    from orthofrac.designs import Design

    return Design.from_runs(ambient, rng.sample(range(ambient.run_count), size))


class CheckInputs:
    """Seeded stream of check inputs in a fixed pattern of kinds.

    The pattern is fixed so that p50 sits two thirds into the random
    subsets and p90 two thirds into the passing designs on every seed; the
    seed draws which design, subset or group element.
    Kinds: ("pass", design, g), ("random", design, expected), ("misprint", text).
    """

    def __init__(self, w: Workload, rng: random.Random, enumerated_file: Path | None):
        from orthofrac.classify import act, generate_group
        from orthofrac.designs import Design, full_factorial

        self.rng = rng
        self.ambient = full_factorial(w.check_levels)
        self.size, self.strength = w.check_size_strength
        self.group = generate_group(self.ambient)
        if w.checks == "catalog":
            from orthofrac.catalog import CATALOG, catalog_designs

            designs = [d for _, d in catalog_designs()]
            self._pass = lambda: act(rng.choice(self.group), rng.choice(designs))
            self.misprints = [e.published_text for e in CATALOG if e.published_text]
            self.pattern = ["pass"] * 3 + ["random"] * 6 + ["misprint"]
        else:
            runs = [json.loads(ln) for ln in enumerated_file.read_text().splitlines()
                    if not ln.startswith("#")]
            self._pass = lambda: Design(self.ambient, tuple(rng.choice(runs)))
            self.pattern = ["pass"] * 3 + ["random"] * 7
        self.i = 0

    def next(self) -> tuple:
        from orthofrac.designs import has_strength

        kind = self.pattern[self.i % len(self.pattern)]
        self.i += 1
        if kind == "pass":
            return ("pass", self._pass(), self.rng.choice(self.group))
        if kind == "random":
            design = random_design(self.rng, self.ambient, self.size)
            # Expected verdict from direct margin counting, independent of the algebra.
            return ("random", design, has_strength(design, self.strength))
        return ("misprint", self.misprints[(self.i // len(self.pattern)) % len(self.misprints)])


def check_op(inp: tuple, inputs: CheckInputs, span) -> str | None:
    """One exact check; returns a description of the mismatch, or None."""
    from orthofrac.algebra import indicator_from_design, reduce_to_standard_form, verify_theta_report
    from orthofrac.classify import act, act_theta
    from orthofrac.polynomials import parse_polynomial

    ambient, size, strength = inputs.ambient, inputs.size, inputs.strength
    n = ambient.n_factors
    if inp[0] == "misprint":
        with span("polynomials.parse_polynomial"):
            poly = parse_polynomial(inp[1], n)
        if not poly.in_lattice(ambient):
            poly = reduce_to_standard_form(poly, ambient)
        with span("algebra.verify_theta_report"):
            report = verify_theta_report(poly, ambient, size, strength)
        return None if report["idempotency"] is False else f"misprint passed idempotency: {inp[1]}"
    kind, design = inp[0], inp[1]
    with span("algebra.indicator_from_design"):
        poly = indicator_from_design(design)
    with span("polynomials.to_text"):
        text = poly.to_text()
    with span("polynomials.parse_polynomial"):
        parsed = parse_polynomial(text, n)
    with span("algebra.verify_theta_report"):
        report = verify_theta_report(parsed, ambient, size, strength)
    expected = True if kind == "pass" else inp[2]
    if not (report["idempotency"] and report["size"]) or all(report.values()) != expected:
        return f"{kind} design {design.runs}: verdict {report}, expected pass={expected}"
    if kind == "pass":
        g = inp[2]
        with span("classify.act_theta"):
            image = act_theta(g, parsed)
        if image != indicator_from_design(act(g, design)):
            return f"act_theta disagrees with the relabelled design for {design.runs}"
    return None


# ---------------------------------------------------------------------------
# Passes


def halves_agree(values: list[float]) -> bool:
    """The medians of the first and the second half of the samples agree within a tenth."""
    half = len(values) // 2
    a, b = statistics.median(values[:half]), statistics.median(values[half:])
    return max(a, b) <= 1.1 * min(a, b)


def scaled_setup(w: Workload) -> dict:
    with Yardstick() as ys:
        with ys.interval() as t:
            setup(w)
    ys.scale()
    return {"setup_s": t["s"], "setup_wall_s": t["wall_s"]}


def scaled_times(reps: list[dict], checks: list[dict]) -> tuple[list[float], list[float]]:
    """Copy the scaled and wall times onto the reps; return the scaled and wall check latencies."""
    for rep in reps:
        for key in ("enumerate", "classify"):
            rep[f"{key}_s"], rep[f"{key}_wall_s"] = rep[key]["s"], rep[key]["wall_s"]
        rep["pipeline_s"] = rep["enumerate_s"] + rep["classify_s"]
    return [c["s"] for c in checks], [c["wall_s"] for c in checks]


def measure(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    """Set-up, then rounds of one pipeline repetition and a batch of checks.

    Every time is taken through one yardstick that runs for the whole pass.
    Rounds continue until at least min_rounds ran and --seconds passed, and
    then until every metric repeats within a tenth between the two halves
    of its samples, or 1.25 x --seconds passed.
    """
    rng = random.Random(seed)
    reps: list[dict] = []
    checks: list[dict] = []
    failures: list[str] = []
    inputs = None
    with Yardstick() as ys:
        with ys.interval() as set_up:
            setup(w)
        warm(w)
        start = _clock()
        while True:
            gc.collect()  # each round starts from the same heap, so peak RSS is one round's
            reps.append(pipeline_rep(w, rng, work, ys))
            if inputs is None:
                inputs = CheckInputs(w, rng, work / "designs.txt")
            stage("checks")
            for _ in range(w.checks_per_round):
                inp = inputs.next()
                with ys.interval() as t:
                    problem = check_op(inp, inputs, nospan)
                checks.append(t)
                if problem:
                    failures.append(problem)
            elapsed = _clock() - start
            if len(reps) >= w.min_rounds and elapsed >= seconds:
                ys.scale()
                latencies, _ = scaled_times(reps, checks)
                steady = halves_agree(latencies) and all(
                    halves_agree([r[k] for r in reps]) for k in ("enumerate_s", "classify_s", "pipeline_s"))
                if steady or elapsed >= 1.25 * seconds:
                    break
    ys.scale()
    latencies, wall_latencies = scaled_times(reps, checks)
    return {
        "setup_s": set_up["s"],
        "setup_wall_s": set_up["wall_s"],
        "reps": reps,
        "checks": {"latencies_s": latencies, "wall_latencies_s": wall_latencies, "failures": failures},
        "steady": steady,
        "reference": {"samples": len(ys.samples), "median_s": statistics.median(ys.samples)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


class Tracer:
    """In-memory spans: (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": _clock(), "end": None,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            rec["end"] = _clock()

    def dur(self, index: int) -> float:
        s = self.spans[index]
        return s["end"] - s["start"]

    def total(self, name: str, within: int | None = None) -> float:
        """Summed duration of spans called `name` (optionally only children of `within`)."""
        return sum(self.dur(i) for i, s in enumerate(self.spans)
                   if s["name"] == name and (within is None or s["parent"] == within))

    def median_ms(self, name: str) -> dict:
        durations = [self.dur(i) for i, s in enumerate(self.spans) if s["name"] == name]
        return {"value": 1000 * statistics.median(durations), "n": len(durations)}

    def last(self, name: str) -> int:
        return max(i for i, s in enumerate(self.spans) if s["name"] == name)


@contextlib.contextmanager
def fastcheck_spans(tracer: Tracer):
    """Spans around the fastcheck calls that `enumerate_orthogonal` makes.

    The benchmark wraps the names the search module looks up, so the
    program itself is not changed; if a later version stops calling them
    the spans are simply absent.
    """
    from orthofrac import search

    class TracedChecker:
        def __init__(self, checker):
            self._checker = checker

        def __getattr__(self, name):
            return getattr(self._checker, name)

        def verify(self, *args, **kwargs):
            with tracer.span("fastcheck.verify"):
                return self._checker.verify(*args, **kwargs)

    saved = {name: getattr(search, name, None) for name in ("runs_matrix", "get_checker")}

    def runs_matrix(*args, **kwargs):
        with tracer.span("fastcheck.runs_matrix"):
            return saved["runs_matrix"](*args, **kwargs)

    def get_checker(*args, **kwargs):
        return TracedChecker(saved["get_checker"](*args, **kwargs))

    if saved["runs_matrix"]:
        search.runs_matrix = runs_matrix
    if saved["get_checker"]:
        search.get_checker = get_checker
    try:
        yield
    finally:
        for name, fn in saved.items():
            if fn is not None:
                setattr(search, name, fn)


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one empty span."""
    t = Tracer()
    t0 = _clock()
    for _ in range(n):
        with t.span("x"):
            pass
    return (_clock() - t0) / n


def trace(w: Workload, seed: int, work: Path) -> dict:
    """Set-up with spans, the two commands once untraced (for trace.unattributed_s),
    then the same work through the public functions with spans, a workers=2
    enumeration, traced checks and the catalog layer."""
    from orthofrac.designs import full_factorial

    tracer = Tracer()
    t_begin = _clock()
    setup(w, tracer)
    warm(w)
    ambient = full_factorial(w.levels)
    rng = random.Random(seed)

    # Untraced: the two commands, as in a measure pass.
    rep = pipeline_rep(w, rng, work, Yardstick())

    # Traced: the same work through each module's public functions.
    from orthofrac.catalog import FLAGSHIP_ARITIES, catalog_designs, cross_check_classes
    from orthofrac.classify import classification_report, classify, generate_group
    from orthofrac.search import SearchProblem, enumerate_orthogonal, read_designs, write_designs

    stage("traced pipeline")
    traced_file, shuffled = work / "traced.txt", work / "traced-shuffled.txt"
    pipeline_spans: list[int] = []

    @contextlib.contextmanager
    def layer(name: str):
        with tracer.span(name):
            pipeline_spans.append(len(tracer.spans) - 1)
            yield

    with fastcheck_spans(tracer), layer("search.enumerate_orthogonal"):
        designs = enumerate_orthogonal(SearchProblem(ambient, w.size, w.strength))
    with open(traced_file, "w") as fh, layer("search.write_designs"):
        write_designs(designs, fh)
    shuffle_design_file(traced_file, shuffled, rng)
    with open(shuffled) as fh, layer("search.read_designs"):
        read_back = read_designs(fh, ambient)
    with layer("classify.classify"):
        classes = classify(read_back)
    with layer("classify.classification_report"):
        classification_report(classes)
    # The CLI runs the catalog check only on the complete flagship instance.
    flagship_complete = ambient.radices == FLAGSHIP_ARITIES and (w.size, w.strength) == (24, 2)
    if flagship_complete:
        with layer("catalog.cross_check_classes"):
            problems = cross_check_classes(classes)
    enum_index = pipeline_spans[0]

    stage("workers=2")
    t0 = _clock()
    enumerate_orthogonal(SearchProblem(ambient, w.size, w.strength, workers=2))
    workers2_s = _clock() - t0

    stage("traced checks")
    inputs = CheckInputs(w, rng, traced_file)
    failures = [p for p in (check_op(inputs.next(), inputs, tracer.span) for _ in range(TRACED_CHECKS))
                if p]

    # Catalog and invariant layers are defined on the flagship ambient only;
    # on other workloads they run on the 63 catalog representatives.
    stage("catalog")
    with tracer.span("catalog.catalog_designs"):
        reference = [d for _, d in catalog_designs()]
    from orthofrac.designs import has_strength, invariant_triple

    for d in reference:
        with tracer.span("designs.invariant_triple"):
            invariant_triple(d)
        with tracer.span("designs.has_strength"):
            has_strength(d, 3)
    if not flagship_complete:
        ref_classes = classify(reference)
        with tracer.span("catalog.cross_check_classes"):
            problems = cross_check_classes(ref_classes)
    traced_wall = _clock() - t_begin

    t = tracer
    fast = t.total("fastcheck.runs_matrix", enum_index) + t.total("fastcheck.verify", enum_index)
    single = {
        "classify.generate_group_s": t.total("classify.generate_group"),
        "classify.group_order": len(generate_group(ambient)),
        "classify.classify_s": t.dur(t.last("classify.classify")),
        "classify.classes": len(classes),
        "classify.orbit_total": sum(c.orbit_size for c in classes),
        "classify.classification_report_s": t.total("classify.classification_report"),
        "fastcheck.get_checker_s": t.total("fastcheck.get_checker"),
        "fastcheck.runs_matrix_s": t.total("fastcheck.runs_matrix", enum_index),
        "fastcheck.verify_s": t.total("fastcheck.verify", enum_index),
        "search.enumerate_orthogonal_s": t.dur(enum_index),
        "search.designs": len(designs),
        "search.self_s": t.dur(enum_index) - fast,
        "search.write_designs_s": t.total("search.write_designs"),
        "search.read_designs_s": t.total("search.read_designs"),
        "search.workers2_speedup": t.dur(enum_index) / workers2_s,
        "catalog.catalog_designs_s": t.total("catalog.catalog_designs"),
        "catalog.cross_check_classes_s": t.dur(t.last("catalog.cross_check_classes")),
        "catalog.problems": len(problems),
        "trace.unattributed_s": rep["enumerate"]["wall_s"] + rep["classify"]["wall_s"] - sum(t.dur(i) for i in pipeline_spans),
        "trace.overhead_frac": len(t.spans) * span_cost_s() / traced_wall,
    }
    layers = {name: {"value": v, "n": 1} for name, v in single.items()}
    for span_name in ("classify.act_theta", "algebra.indicator_from_design",
                      "algebra.verify_theta_report", "polynomials.parse_polynomial",
                      "polynomials.to_text", "designs.invariant_triple", "designs.has_strength"):
        layers[span_name + "_ms"] = t.median_ms(span_name)
    return {
        "reps": [rep],
        "traced": {"designs": len(designs), "classes": len(classes), "catalog_problems": problems,
                   "check_failures": failures, "checks": TRACED_CHECKS},
        "layers": layers,
        "spans": tracer.spans,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    try:
        with tempfile.TemporaryDirectory(dir=args.out.parent) as tmp:
            if args.mode == "setup":
                result = scaled_setup(w)
            elif args.mode == "measure":
                result = measure(w, args.seed, args.seconds, Path(tmp))
            else:
                result = trace(w, args.seed, Path(tmp))
    except Exception as exc:  # the pass boundary: report the stage, never a bare traceback
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}", "stage": _stage}
    if "numpy" in sys.modules:
        result["numpy"] = sys.modules["numpy"].__version__
    args.out.write_text(json.dumps(result))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
