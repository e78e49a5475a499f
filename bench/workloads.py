"""Workload table shared by the benchmark parent (run.py) and its child (worker.py).

Every workload runs the same two streams on its own instance:

* the pipeline stream: `orthofrac enumerate` then `orthofrac classify`
  through `orthofrac.cli.main`, with the design file shuffled by the seed
  before it is classified;
* the check stream: the one-design-at-a-time exact route
  (indicator -> text -> parse -> verify, plus `act_theta` on passing inputs).

`checks` names the check inputs: "sample" draws designs from the
enumerated file and seeded random subsets of the same size; "catalog" is
the flagship mix of relabelled catalog designs, random 24-run subsets and
the two published misprints.
"""

from __future__ import annotations

from dataclasses import dataclass

FLAGSHIP_LEVELS = (2, 2, 2, 2, 3)


@dataclass(frozen=True)
class Workload:
    levels: tuple[int, ...]
    size: int
    strength: int
    checks: str
    # The timed section runs rounds of one pipeline repetition followed by
    # checks_per_round checks, so both streams sample the whole run: CPU
    # speed on shared virtual machines drifts over seconds, and a stream
    # timed in one block would see only part of that drift.
    min_rounds: int
    checks_per_round: int
    in_benchmark: bool
    why: str

    @property
    def levels_arg(self) -> str:
        return ",".join(map(str, self.levels))

    @property
    def check_levels(self) -> tuple[int, ...]:
        """Ambient of the check stream: the catalog lives on the flagship ambient."""
        return FLAGSHIP_LEVELS if self.checks == "catalog" else self.levels

    @property
    def check_size_strength(self) -> tuple[int, int]:
        return (24, 2) if self.checks == "catalog" else (self.size, self.strength)


WORKLOADS: dict[str, Workload] = {
    "flagship": Workload(
        (2, 2, 2, 2, 3), 24, 2, "sample", 3, 40, True,
        "the paper's instance (35200 designs, 63 classes); the only one that runs "
        "the invariants, the table and the catalog check; cross-check dominates",
    ),
    "exact": Workload(
        (2, 2, 2, 2, 3), 12, 2, "catalog", 20, 10, True,
        "the Fraction route (indicator, text, parse, verify, act_theta) on the "
        "flagship ambient; its small 288-design pipeline keeps the batch cross-check cold",
    ),
    # Runnable by name but not in BENCHMARK.json: one run of either takes
    # over a minute (three ~10 s set-ups, 14-19 s per enumerate), more than
    # the benchmark's per-run share of its hour-long budget.
    "threelevel81": Workload(
        (3, 3, 3, 3), 18, 2, "sample", 2, 25, False,
        "join-heavy (r = 3, 900 keys) with the largest checker (m = 81) and a "
        "31104-element group (24696 designs, 7 classes)",
    ),
    "twolevel64": Workload(
        (2, 2, 2, 2, 2, 2), 16, 2, "sample", 2, 25, False,
        "the largest group (46080) and the heaviest backtracking "
        "(65100 designs, 21 classes)",
    ),
    # Self-check instance only (bench/selfcheck.py): 44 designs in 3 classes.
    "tiny": Workload(
        (2, 2, 2, 3), 12, 2, "sample", 2, 10, False,
        "self-check of the harness",
    ),
}
