"""Benchmark of the orthofrac enumerate -> classify pipeline and the exact check route.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Each pass of a workload runs in a fresh interpreter
(bench/worker.py) under a wall-clock budget.  With --trace 0 the run
times set-up in three fresh processes, then the two CLI commands and the
exact check stream with tracing off, and prints every end-to-end metric.
Those times are scaled by the machine's speed while each was measured,
so that drift of that speed cancels (bench/yardstick.py).
With --trace 1 it prints the per-layer metrics of one traced pass.  Every
output is checked against bench/expected.json; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The full
record (environment, samples, spans) is saved under bench/out/.
See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402

RUN_BUDGET_S = 170.0  # a whole run, set-up processes included

END_TO_END_UNITS = {
    "setup_s": "s",
    "enumerate_s": "s",
    "classify_s": "s",
    "pipeline_s": "s",
    "checks_per_s": "1/s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "classify.generate_group_s": "s",
    "classify.group_order": "count",
    "classify.classify_s": "s",
    "classify.classes": "count",
    "classify.orbit_total": "count",
    "classify.classification_report_s": "s",
    "classify.act_theta_ms": "ms",
    "fastcheck.get_checker_s": "s",
    "fastcheck.runs_matrix_s": "s",
    "fastcheck.verify_s": "s",
    "search.enumerate_orthogonal_s": "s",
    "search.designs": "count",
    "search.self_s": "s",
    "search.write_designs_s": "s",
    "search.read_designs_s": "s",
    "search.workers2_speedup": "x",
    "catalog.catalog_designs_s": "s",
    "catalog.cross_check_classes_s": "s",
    "catalog.problems": "count",
    "algebra.indicator_from_design_ms": "ms",
    "algebra.verify_theta_report_ms": "ms",
    "polynomials.parse_polynomial_ms": "ms",
    "polynomials.to_text_ms": "ms",
    "designs.invariant_triple_ms": "ms",
    "designs.has_strength_ms": "ms",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def loadavg_1m() -> float | None:
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code when no commit does."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def last_stage(stderr: str) -> str:
    stages = [ln[len("@stage "):] for ln in stderr.splitlines() if ln.startswith("@stage ")]
    return stages[-1] if stages else "start"


def run_pass(mode: str, workload: str, seed: int, seconds: int, timeout: float, tmp: Path) -> dict:
    """One worker pass in a fresh process group, killed whole on timeout."""
    out = tmp / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        try:
            _, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            return {"error": f"timeout after {timeout:.0f} s", "stage": last_stage(err)}
    if out.exists():
        result = json.loads(out.read_text())
        if "error" in result:
            sys.stderr.write(err)
        return result
    sys.stderr.write(err)
    return {"error": f"exit code {proc.returncode}", "stage": last_stage(err)}


class Ledger:
    """Attempted and failed operations, with a reason for every failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail_pass(self, mode: str, result: dict) -> None:
        self.record(False, f"{mode} pass: {result['error']} (stage: {result['stage']})")


def judge_reps(reps: list[dict], exp: dict, ledger: Ledger) -> None:
    """Counts, exit codes and sha256 of the designs file and the JSON report."""
    for i, rep in enumerate(reps):
        enum_ok = (rep["enumerate_rc"] == 0 and rep["designs"] == exp["designs"]
                   and rep["designs_sha256"] == exp["designs_sha256"])
        ledger.record(enum_ok, f"rep {i} enumerate: rc {rep['enumerate_rc']}, {rep['designs']} designs, "
                               f"sha256 {rep['designs_sha256'][:12]}")
        cls_ok = (rep["classify_rc"] == 0 and rep["classes"] == exp["classes"]
                  and rep["catalog_pass"] == exp["catalog_pass"]
                  and rep["report_sha256"] == exp["report_sha256"])
        ledger.record(cls_ok, f"rep {i} classify: rc {rep['classify_rc']}, {rep['classes']} classes, "
                              f"catalog {rep['catalog_pass']}, sha256 {rep['report_sha256'][:12]}")


def summary(values: list[float], wall: list[float], center=statistics.median) -> dict:
    """A scaled metric: its center and quartiles, and the center of the unscaled wall times."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": center(values), "median": med, "q1": q1, "q3": q3, "n": len(values),
            "wall": center(wall)}


def end_to_end(setup_samples: list[dict], result: dict) -> dict:
    metrics = {}
    if setup_samples:
        metrics["setup_s"] = summary([s["setup_s"] for s in setup_samples],
                                     [s["setup_wall_s"] for s in setup_samples])
    reps = result.get("reps")
    if reps:
        # The mean over rounds: a flagship run has only a handful of rounds,
        # and the mean of so few varies less from run to run than their median.
        for key in ("enumerate", "classify"):
            metrics[f"{key}_s"] = summary([r[f"{key}_s"] for r in reps],
                                          [r[f"{key}_wall_s"] for r in reps], center=statistics.fmean)
        metrics["pipeline_s"] = summary([r["pipeline_s"] for r in reps],
                                        [r["enumerate_wall_s"] + r["classify_wall_s"] for r in reps],
                                        center=statistics.fmean)
    checks = result.get("checks")
    if checks:
        lat, wall = checks["latencies_s"], checks["wall_latencies_s"]
        metrics["checks_per_s"] = {"value": len(lat) / sum(lat), "n": len(lat), "wall": len(wall) / sum(wall)}
        deciles, wall_deciles = statistics.quantiles(lat, n=10), statistics.quantiles(wall, n=10)
        metrics["check_p50_ms"] = {"value": 1000 * deciles[4], "n": len(lat), "wall": 1000 * wall_deciles[4]}
        metrics["check_p90_ms"] = {"value": 1000 * deciles[8], "n": len(lat), "wall": 1000 * wall_deciles[8]}
    if "peak_rss_mb" in result:
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "n": 1}
    return metrics


def run_workload(workload: str, seed: int, seconds: int, traced: bool, expected: dict) -> dict:
    """Run one workload end to end and return the full record."""
    started = time.monotonic()
    exp = expected[workload]
    env = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m_start": loadavg_1m(),
    }
    ledger = Ledger()
    setup_samples: list[dict] = []
    work = BENCH_DIR / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        remaining = lambda: RUN_BUDGET_S - (time.monotonic() - started)  # noqa: E731

        def setup_sample() -> None:
            r = run_pass("setup", workload, seed, seconds, min(60.0, remaining()), Path(tmp))
            if "error" in r:
                ledger.fail_pass("setup", r)
            else:
                ledger.record(True, "setup")
                setup_samples.append(r)

        # Set-up samples before and after the measure pass (which takes the
        # third), so that they sample different moments of CPU-speed drift.
        mode = "trace" if traced else "measure"
        if not traced:
            setup_sample()
        result = run_pass(mode, workload, seed, seconds, remaining() - (0 if traced else 30), Path(tmp))
        if not traced:
            setup_sample()
    if "error" in result:
        ledger.fail_pass(mode, result)
    else:
        judge_reps(result["reps"], exp, ledger)
        if traced:
            t = result["traced"]
            ledger.record(t["designs"] == exp["designs"] and t["classes"] == exp["classes"],
                          f"traced pipeline: {t['designs']} designs, {t['classes']} classes")
            ledger.record(not t["catalog_problems"], f"catalog check: {t['catalog_problems'][:3]}")
            ledger.attempted += t["checks"]
            ledger.failures += t["check_failures"]
        else:
            setup_samples.append({k: result[k] for k in ("setup_s", "setup_wall_s")})
            ledger.attempted += len(result["checks"]["latencies_s"])
            ledger.failures += result["checks"]["failures"]
    env["numpy"] = result.get("numpy")
    env["loadavg_1m_end"] = loadavg_1m()
    if traced:
        metrics = result.get("layers", {})
    else:
        metrics = end_to_end(setup_samples, result)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": env, "attempted": ledger.attempted, "failed": len(ledger.failures),
        "failures": ledger.failures, "steady": result.get("steady"), "metrics": metrics,
        "raw": result,
    }


def report_lines(record: dict) -> list[str]:
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    env = record["env"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
        f"trace {record['trace']}" + ("" if record["trace"] else f"  steady {record['steady']}"),
        "env " + "  ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for name, unit in units.items():
        m = record["metrics"].get(name)
        if m is None:
            lines.append(f"{name:<34} missing")
            continue
        spread = f"  median {m['median']:.6g}  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        wall = f"  (unscaled {m['wall']:.6g})" if "wall" in m else ""
        lines.append(f"{name:<34} {m['value']:.6g} {unit}{spread}  n={m['n']}{wall}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else 1.0
    lines.append(f"{'error_rate':<34} {rate:.6g} ratio  ({record['failed']}/{record['attempted']} operations)")
    lines += [f"  failed: {f}" for f in record["failures"][:10]]
    return lines


def result_line(record: dict) -> str:
    units = PER_LAYER_UNITS if record["trace"] else END_TO_END_UNITS
    metrics = {name: {"value": record["metrics"][name]["value"], "unit": unit}
               for name, unit in units.items() if name in record["metrics"]}
    correct = record["failed"] == 0 and len(metrics) == len(units)
    return json.dumps({"correct": correct, "attempted": max(1, record["attempted"]),
                       "failed": record["failed"], "metrics": metrics})


def save(record: dict) -> Path:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orthofrac" / "__init__.py").is_file():
        print(f"error: no orthofrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), load_expected())
    path = save(record)
    print("\n".join(report_lines(record)))
    print(f"record saved to {path.relative_to(ROOT)}")
    line = result_line(record)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
