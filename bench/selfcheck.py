"""Self-check of the benchmark harness on the tiny 2^3*3, s=12, t=2 instance.

    python3 bench/selfcheck.py

That instance has 44 designs in 3 classes and runs in seconds.  Checks
that a run with the recorded digests has error_rate 0 and prints every
end-to-end metric of BENCHMARK.json, that the traced run prints every
per-layer metric, and that a deliberately wrong expected report digest
yields error_rate > 0.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import sys

import run


def metric_names(kind: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def main() -> int:
    expected = run.load_expected()
    problems: list[str] = []
    for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run_workload("tiny", 1, 1, traced, expected)
        lines = run.report_lines(record)
        printed = {ln.split()[0] for ln in lines if len(ln.split()) > 1 and ln.split()[1] != "missing"}
        for name in metric_names(kind) + ["error_rate"]:
            if name not in printed:
                problems.append(f"{kind}: {name} not printed")
        result = json.loads(run.result_line(record))
        if set(result["metrics"]) != set(metric_names(kind)):
            problems.append(f"{kind}: result metrics differ from BENCHMARK.json")
        if record["failed"]:
            problems.append(f"{kind}: failures with the recorded digests: {record['failures'][:3]}")

    wrong = copy.deepcopy(expected)
    wrong["tiny"]["report_sha256"] = "0" * 64
    record = run.run_workload("tiny", 1, 1, False, wrong)
    if not record["failed"]:
        problems.append("a wrong expected report digest did not count as a failure")

    for p in problems:
        print(f"FAIL {p}")
    print("self-check: " + ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
