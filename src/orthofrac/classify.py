"""Classification of fractions under level and factor permutations.

The symmetry group combines a level permutation per factor with a
permutation of factors among factors of equal arity.  Each element induces
a permutation of the run indices; acting on a design permutes its run set,
and acting on an indicator coefficient vector is conjugation of the run
permutation by the model matrix.  Orbits are computed by explicit closure:
the whole group is applied to a seed design and the images are collected,
with a union-find over the input tying members of one orbit together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    indicator_from_design,
    model_matrix_inverse,
    build_model_matrix,
    polynomial_from_theta,
    theta_vector,
)
from .designs import (
    Design,
    FullFactorial,
    ShapeMismatchError,
    has_strength,
    invariant_triple,
    supports_triple_invariant,
)
from .polynomials import Polynomial


@dataclass(frozen=True)
class GroupElement:
    """One symmetry: factor relabeling plus per-factor level relabelings.

    The induced index-vector action is
    new_iv[j] = level_perms[j][ old_iv[factor_perm[j]] ],
    and run_perm is that action written on run indices.
    """

    ambient: FullFactorial
    factor_perm: tuple[int, ...]
    level_perms: tuple[tuple[int, ...], ...]
    run_perm: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(p == i for i, p in enumerate(self.run_perm))


def _arity_blocks(ambient: FullFactorial) -> list[list[int]]:
    blocks: dict[int, list[int]] = {}
    for j, r in enumerate(ambient.radices):
        blocks.setdefault(r, []).append(j)
    return [blocks[r] for r in sorted(blocks)]


@lru_cache(maxsize=None)
def generate_group(ambient: FullFactorial) -> tuple[GroupElement, ...]:
    """Every combination of same-arity factor permutations and level permutations."""
    n = ambient.n_factors
    radices = ambient.radices
    blocks = _arity_blocks(ambient)
    block_perm_choices = [list(itertools.permutations(b)) for b in blocks]
    level_perm_choices = [list(itertools.permutations(range(r))) for r in radices]
    decoded = [ambient.decode(i) for i in range(ambient.run_count)]

    elements = []
    for block_choice in itertools.product(*block_perm_choices):
        factor_perm = [0] * n
        for block, perm in zip(blocks, block_choice):
            for pos, src in zip(block, perm):
                factor_perm[pos] = src
        fp = tuple(factor_perm)
        for level_choice in itertools.product(*level_perm_choices):
            run_perm = tuple(
                ambient.encode([level_choice[j][iv[fp[j]]] for j in range(n)])
                for iv in decoded
            )
            elements.append(GroupElement(ambient, fp, tuple(level_choice), run_perm))
    return tuple(elements)


def act(g: GroupElement, design: Design) -> Design:
    """Image of a design under one symmetry."""
    if g.ambient != design.ambient:
        raise ShapeMismatchError("group element and design have different ambients")
    rp = g.run_perm
    return Design(design.ambient, tuple(sorted(rp[i] for i in design.runs)))


def act_theta(g: GroupElement, poly: Polynomial) -> Polynomial:
    """Coefficient-level action: conjugate the run permutation by the model matrix."""
    ambient = g.ambient
    theta = theta_vector(poly, ambient)
    values = build_model_matrix(ambient).mul_vec(theta)
    permuted = [values[0]] * len(values)
    for i, v in enumerate(values):
        permuted[g.run_perm[i]] = v
    image = model_matrix_inverse(ambient).mul_vec(permuted)
    return polynomial_from_theta(image, ambient)


def _mask(runs) -> int:
    m = 0
    for i in runs:
        m |= 1 << i
    return m


def _unmask(mask: int) -> tuple[int, ...]:
    runs = []
    i = 0
    while mask:
        if mask & 1:
            runs.append(i)
        mask >>= 1
        i += 1
    return tuple(runs)


def _orbit_masks(design: Design) -> set[int]:
    """The full group orbit as run bitmasks (O(1) hashing per image)."""
    group = generate_group(design.ambient)
    runs = design.runs
    return {_mask(g.run_perm[i] for i in runs) for g in group}


def orbit_of(design: Design) -> set[tuple[int, ...]]:
    """Run tuples of the full group orbit of one design."""
    return {_unmask(m) for m in _orbit_masks(design)}


def stabilizer_size(design: Design) -> int:
    group = generate_group(design.ambient)
    runs = design.runs
    target = _mask(runs)
    return sum(1 for g in group if _mask(g.run_perm[i] for i in runs) == target)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@dataclass(frozen=True)
class EquivalenceClass:
    """One symmetry class: representative, full orbit size, invariants."""

    representative: Design
    orbit_size: int
    invariants: tuple[int, tuple[int, int, int, int], int] | None
    members: tuple[Design, ...] | None = None

    @property
    def sort_key(self):
        inv = self.invariants if self.invariants is not None else ()
        return (inv, self.representative.runs)


def classify(designs, store_members: bool = False) -> list[EquivalenceClass]:
    """Partition pairwise-distinct designs of one ambient into group orbits.

    The representative is the lexicographically least design of the full
    orbit and orbit_size counts the full orbit, whether or not every orbit
    member is present in the input.  Classes are sorted by (invariants,
    representative).
    """
    designs = list(designs)
    if not designs:
        return []
    ambient = designs[0].ambient
    if any(d.ambient != ambient for d in designs):
        raise ShapeMismatchError("designs come from different ambients")
    index_of = {_mask(d.runs): i for i, d in enumerate(designs)}
    if len(index_of) != len(designs):
        raise ValueError("designs must be pairwise distinct")

    uf = _UnionFind(len(designs))
    processed = [False] * len(designs)
    orbit_info: dict[int, tuple[tuple[int, ...], int, tuple | None]] = {}

    for idx in range(len(designs)):
        if processed[idx]:
            continue
        orbit = _orbit_masks(designs[idx])
        for mask in orbit:
            j = index_of.get(mask)
            if j is not None:
                processed[j] = True
                uf.union(idx, j)
        if store_members:
            run_tuples = sorted(_unmask(mask) for mask in orbit)
            rep_runs, members = run_tuples[0], tuple(run_tuples)
        else:
            rep_runs, members = min(map(_unmask, orbit)), None
        orbit_info[uf.find(idx)] = (rep_runs, len(orbit), members)

    roots: dict[int, list[int]] = {}
    for i in range(len(designs)):
        roots.setdefault(uf.find(i), []).append(i)

    compute_invariants = supports_triple_invariant(ambient) and all(
        d.size == 24 for d in designs
    )
    classes = []
    for root in roots:
        rep_runs, orbit_size, member_runs = orbit_info[root]
        rep = Design(ambient, rep_runs)
        invariants = invariant_triple(rep) if compute_invariants else None
        members = (
            tuple(Design(ambient, t) for t in member_runs) if member_runs is not None else None
        )
        classes.append(EquivalenceClass(rep, orbit_size, invariants, members))
    classes.sort(key=lambda c: c.sort_key)
    return classes


# ---------------------------------------------------------------------------
# Tabular summary over the invariants (2x2x2x2x3 ambient only)


@dataclass(frozen=True)
class TableReport:
    """Class counts per (T1, J) row and T2 column, with footnote tallies."""

    row_keys: tuple[tuple[int, tuple[int, int, int, int]], ...]
    t2_values: tuple[int, ...]
    counts: tuple[tuple[int, ...], ...]
    strength3_counts: tuple[tuple[int, ...], ...]
    regular_counts: tuple[tuple[int, ...], ...]

    def cell(self, t1: int, jset, t2: int) -> int:
        key = (t1, tuple(jset))
        if key not in self.row_keys or t2 not in self.t2_values:
            return 0
        return self.counts[self.row_keys.index(key)][self.t2_values.index(t2)]

    def to_json_dict(self) -> dict:
        rows = []
        for key, row, s3, reg in zip(
            self.row_keys, self.counts, self.strength3_counts, self.regular_counts
        ):
            rows.append(
                {
                    "t1": key[0],
                    "jset": list(key[1]),
                    "counts_by_t2": list(row),
                    "strength3_by_t2": list(s3),
                    "regular_by_t2": list(reg),
                }
            )
        return {"t2_values": list(self.t2_values), "rows": rows}

    def to_text(self) -> str:
        header = "T1  J-set            " + "".join(f"{t2:>6}" for t2 in self.t2_values)
        lines = [header, "-" * len(header)]
        for key, row, s3, reg in zip(
            self.row_keys, self.counts, self.strength3_counts, self.regular_counts
        ):
            cells = []
            for c, a, b in zip(row, s3, reg):
                mark = "a" if a else ("b" if b else "")
                cells.append(f"{(str(c) + mark) if c else '':>6}")
            jtxt = "{" + ",".join(str(v) for v in key[1]) + "}"
            lines.append(f"{key[0]:<3} {jtxt:<16} " + "".join(cells))
        lines.append("a: strength-3 classes; b: regular x_i x_j x_k = +-1 classes")
        return "\n".join(lines)


def table_report(classes) -> TableReport:
    """Class-count matrix over (T1, J) x T2 for flagship-shaped classifications."""
    classes = list(classes)
    if not classes:
        return TableReport((), (), (), (), ())
    ambient = classes[0].representative.ambient
    if not supports_triple_invariant(ambient):
        raise ShapeMismatchError("table layout requires the 2x2x2x2x3 ambient")
    if any(c.invariants is None for c in classes):
        raise ShapeMismatchError("classes carry no invariants")

    max_t2 = max(5, max(c.invariants[2] for c in classes))
    t2_values = tuple(range(max_t2 + 1))
    by_row: dict[tuple[int, tuple], dict[int, list]] = {}
    for c in classes:
        t1, jset, t2 = c.invariants
        cell = by_row.setdefault((t1, jset), {}).setdefault(t2, [0, 0, 0])
        cell[0] += 1
        if has_strength(c.representative, 3):
            cell[1] += 1
        if 24 in jset:
            cell[2] += 1

    row_keys = sorted(by_row, key=lambda k: (k[0], tuple(-v for v in k[1])))
    counts, s3_rows, reg_rows = [], [], []
    for key in row_keys:
        cells = by_row[key]
        counts.append(tuple(cells.get(t2, [0, 0, 0])[0] for t2 in t2_values))
        s3_rows.append(tuple(cells.get(t2, [0, 0, 0])[1] for t2 in t2_values))
        reg_rows.append(tuple(cells.get(t2, [0, 0, 0])[2] for t2 in t2_values))
    return TableReport(
        tuple(row_keys), t2_values, tuple(counts), tuple(s3_rows), tuple(reg_rows)
    )


def classification_report(classes, include_members: bool = False) -> dict:
    """JSON-ready report: one record per class plus the table when defined."""
    classes = list(classes)
    report: dict = {"schema": 1, "class_count": len(classes)}
    if classes:
        ambient = classes[0].representative.ambient
        report["arities"] = list(ambient.radices)
        report["total_designs"] = sum(c.orbit_size for c in classes)
    records = []
    for c in classes:
        rec: dict = {
            "representative_runs": list(c.representative.runs),
            "indicator": indicator_from_design(c.representative).to_text(),
            "orbit_size": c.orbit_size,
        }
        if c.invariants is not None:
            t1, jset, t2 = c.invariants
            rec["invariants"] = {"t1": t1, "jset": list(jset), "t2": t2}
            rec["strength3"] = has_strength(c.representative, 3)
        if include_members and c.members is not None:
            rec["members"] = [list(d.runs) for d in c.members]
        records.append(rec)
    report["classes"] = records
    if classes and classes[0].invariants is not None:
        report["table"] = table_report(classes).to_json_dict()
    return report
