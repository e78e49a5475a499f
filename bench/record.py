"""Record bench/expected.json: the counts and output digests every run is gated on.

    python3 bench/record.py

Run once at a commit whose outputs are known to be right (the counts are
asserted against the published ones below); every later run must then
reproduce the files byte for byte.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

KNOWN_COUNTS = {  # (designs, classes)
    "flagship": (35200, 63),
    "threelevel81": (24696, 7),
    "twolevel64": (65100, 21),
    "exact": None,
    "tiny": (44, 3),
}


def main() -> int:
    expected = {}
    (run.BENCH_DIR / "_work").mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.BENCH_DIR / "_work") as tmp:
            result = run.run_pass("measure", name, 0, 0, 600.0, Path(tmp))
        if "error" in result:
            print(f"{name}: {result['error']} (stage {result['stage']})", file=sys.stderr)
            return 1
        rep = result["reps"][0]
        known = KNOWN_COUNTS[name]
        if known and (rep["designs"], rep["classes"]) != known:
            print(f"{name}: {rep['designs']}/{rep['classes']}, expected {known}", file=sys.stderr)
            return 1
        expected[name] = {k: rep[k] for k in
                          ("designs", "classes", "catalog_pass", "designs_sha256", "report_sha256")}
        print(name, expected[name])
    (run.BENCH_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
