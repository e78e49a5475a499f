"""Classification of fractions under level and factor permutations.

The symmetry group combines a level permutation per factor with a
permutation of factors among factors of equal arity.  Each element induces
a permutation of the run indices; the group is one cached G x m table of
them, in the narrowest unsigned dtype that holds m - 1 (one byte per entry
for m <= 256).  Acting on a design is a gather of the table's columns at
its runs, and acting on an indicator coefficient vector conjugates the run
permutation by the model matrix.

Designs are keys (designs), and among designs of one size the largest
key is the lexicographically least design (designs.sort_keys), so the
largest key of an orbit is its canonical form.  The keys of all G images
are shifted out of the gathered G x s run indices (images).  Orbit
membership is tested one way: the images, in search form, are looked up
(designs.find_keys) in sorted search keys (designs.sorted_search_keys).
classify_keys holds its input keys once in that form, closes each orbit
once, from the first design in key order not yet seen, as its sorted
distinct images, and keeps only its largest key and its size.

classification_report builds a classification's report as one JSON-ready
dict, and report_text renders that dict as the text report.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod

import numpy as np

from . import designs
from .algebra import polynomial_from_values, values_at_runs
from .designs import (
    Design, FullFactorial, ShapeMismatchError, design_keys, find_keys, indexed_keys, invariant_triples, key_runs,
    run_index, search_rows, sorted_search_keys, supports_triple_invariant, unpack_runs,
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


def _factor_perms(ambient: FullFactorial):
    """Every factor permutation that maps each factor to one of equal arity."""
    radices = ambient.radices
    blocks = [[j for j, r in enumerate(radices) if r == a] for a in sorted(set(radices))]
    for choice in itertools.product(*map(itertools.permutations, blocks)):
        source = dict(zip(itertools.chain(*blocks), itertools.chain(*choice)))
        yield tuple(source[j] for j in range(len(radices)))


def _level_perms(ambient: FullFactorial) -> list[list[tuple[int, ...]]]:
    return [list(itertools.permutations(range(r))) for r in ambient.radices]


@lru_cache(maxsize=None)
def run_perm_table(ambient: FullFactorial) -> np.ndarray:
    """perm[g, i]: the image of run i under the g-th element of generate_group
    (read-only), in the narrowest unsigned dtype that holds m - 1: uint8 for
    m <= 256, so the table, the largest cached object of an ambient, takes
    G x m bytes there.  It is stored column-major, so gathering the columns
    of a design's runs copies whole contiguous columns.

    Raises designs.ProblemTooLargeError, before allocating, when the table
    would take more than designs._MATRIX_BUDGET bytes.

    Rows run over factor permutations, then over level-permutation choices
    with the last factor fastest.  Row (f, l) is level[l, factor[f, i]]:
    factor[f] permutes the runs by the factor permutation alone,
    factor[f, i] = run_index(iv_i[factor_perm[0]], ..., iv_i[factor_perm[n-1]]),
    and level[l] by the level permutations alone, the sum over j of
    run_index of level_perms[j][iv_i[j]] at factor j and 0 elsewhere (a
    run index is the sum of those of its digits placed alone).  Both are
    cast to the table's dtype as they are formed.
    """
    radices, n, m = ambient.radices, ambient.n_factors, ambient.run_count
    dtype = np.min_scalar_type(m - 1)
    # k factors of arity r contribute k! factor orders times r!^k level relabelings.
    order = prod(factorial(k) * factorial(r) ** k for r, k in Counter(radices).items())
    if order * m * dtype.itemsize > designs._MATRIX_BUDGET:
        raise designs.ProblemTooLargeError(
            f"the symmetry group has {order} elements; its {order} x {m} {dtype.name} run-permutation "
            f"table exceeds the {designs._MATRIX_BUDGET}-byte budget"
        )
    # ivs[j, i]: the level of factor j in run i.  Every partial sum below is
    # a run index, so the sums stay in dtype.
    ivs = ambient.index_vectors.T
    factor_perms = np.array(list(_factor_perms(ambient)), dtype=np.intp)
    factor = run_index(ambient, ivs[factor_perms.T]).astype(dtype)
    level = 0
    for j, choices in enumerate(_level_perms(ambient)):
        digits = [0] * n
        digits[j] = np.array(choices)[:, ivs[j]].reshape((1,) * j + (-1,) + (1,) * (n - j - 1) + (m,))
        level = level + run_index(ambient, digits).astype(dtype)
    # columns[i, f, l] = level[l, factor[f, i]]: the m x G transpose, built in one gather.
    columns = level.reshape(-1, m).T.take(factor.T, axis=0)
    table = columns.reshape(m, order).T
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def generate_group(ambient: FullFactorial) -> tuple[GroupElement, ...]:
    """Every combination of same-arity factor permutations and level permutations."""
    table = run_perm_table(ambient)  # its budget check comes before any label is listed
    labels = itertools.product(_factor_perms(ambient), itertools.product(*_level_perms(ambient)))
    return tuple(
        GroupElement(ambient, fp, lp, tuple(run_perm))
        for (fp, lp), run_perm in zip(labels, map(np.ndarray.tolist, table))
    )


def act(g: GroupElement, design: Design) -> Design:
    """Image of a design under one symmetry."""
    if g.ambient != design.ambient:
        raise ShapeMismatchError("group element and design have different ambients")
    rp = g.run_perm
    return Design(design.ambient, tuple(sorted(rp[i] for i in design.runs)))


def act_theta(g: GroupElement, poly: Polynomial) -> Polynomial:
    """Coefficient-level action: X^{-1} P X theta for the run permutation P of g."""
    values, den = values_at_runs(poly, g.ambient)
    permuted = np.empty_like(values)
    permuted[:, g.run_perm] = values
    return polynomial_from_values(permuted, den, g.ambient)[0]


def images(ambient: FullFactorial, runs) -> np.ndarray:
    """The key of the design with these runs under every group element, in table order."""
    return indexed_keys(run_perm_table(ambient)[:, np.asarray(runs, dtype=np.intp)], ambient.run_count)


@dataclass(frozen=True)
class EquivalenceClass:
    """One symmetry class: representative, full orbit size, invariants."""

    representative: Design
    orbit_size: int
    invariants: tuple[int, tuple[int, int, int, int], int] | None


def classify(designs) -> list[EquivalenceClass]:
    """Partition pairwise-distinct designs of one ambient into group orbits.

    Each orbit is closed once, from the first input design in key order
    not yet seen, and binary search marks the input designs it contains.  The
    representative is the lexicographically least design of the full
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
    return classify_keys(ambient, design_keys(designs, ambient.run_count))


def classify_keys(ambient: FullFactorial, keys: np.ndarray) -> list[EquivalenceClass]:
    """classify for the designs of keys (designs), one row each."""
    if not len(keys):
        return []
    # One sorted copy, in search form: seeds are read back from it.
    ordered = sorted_search_keys(keys)
    if np.any(ordered[1:] == ordered[:-1]):
        first = np.argmax(ordered[1:] == ordered[:-1])
        (runs,) = key_runs(search_rows(ordered[first : first + 1]))
        raise ValueError(f"designs must be pairwise distinct: {list(runs)} appears more than once")

    unseen = np.ones(len(ordered), dtype=bool)
    tops, sizes = [], []
    idx = 0
    while idx < len(ordered):
        orbit = sorted_search_keys(images(ambient, unpack_runs(search_rows(ordered[idx : idx + 1]))[1]))
        orbit = orbit[np.r_[True, orbit[1:] != orbit[:-1]]]
        pos, found = find_keys(ordered, orbit)
        unseen[pos[found]] = False
        tops.append(orbit[-1:].copy())  # a view would keep the whole orbit alive
        sizes.append(len(orbit))
        del orbit, pos, found  # freed before the next orbit's images form
        # Key idx lies in its own orbit, so argmax is 0 only when no key is unseen.
        step = int(np.argmax(unseen[idx:]))
        idx = idx + step if step else len(ordered)

    tops = search_rows(np.concatenate(tops))
    reps = key_runs(tops)
    invariants = [None] * len(reps)
    # Every input design shares its size with the representative of its orbit.
    if supports_triple_invariant(ambient) and all(len(rep) == 24 for rep in reps):
        invariants = invariant_triples(ambient, tops)
    classes = [
        EquivalenceClass(Design(ambient, rep), size, inv) for rep, size, inv in zip(reps, sizes, invariants)
    ]
    classes.sort(key=lambda c: (c.invariants or (), c.representative.runs))
    return classes


# ---------------------------------------------------------------------------
# The classification report: one JSON-ready dict, also rendered as text.
# Its table is defined on the 2x2x2x2x3 ambient only.


def jset_text(jset) -> str:
    """The report text of a J-set, e.g. "{24,0,0,0}"."""
    return "{" + ",".join(str(v) for v in jset) + "}"


def type_label(t1: int, jset, t2: int) -> str:
    """The report text of a class type (T1, J, T2), e.g. "1,{24,0,0,0}-0"."""
    return f"{t1},{jset_text(jset)}-{t2}"


def _strength3(t1: int, t2: int) -> bool:
    """has_strength(representative, 3) of a class with invariants (T1, J, T2):
    the ten size-3 factor subsets of the 2x2x2x2x3 ambient are the four
    two-level triples that T1 counts and the six mixed ones that T2 counts."""
    return t1 == t2 == 0


def table_report(classes) -> dict:
    """The report's table of classes with invariants, which classify_keys gives on the
    2x2x2x2x3 ambient alone: per (T1, J) row, by T1 then descending J, the counts of
    classes, strength-3 and regular ones per T2."""
    classes = list(classes)
    if not classes:
        return {"t2_values": [], "rows": []}
    if any(c.invariants is None for c in classes):
        raise ShapeMismatchError("classes carry no invariants")

    t2_values = list(range(max(5, max(c.invariants[2] for c in classes)) + 1))
    rows: dict[tuple, dict] = {}
    for c in sorted(classes, key=lambda c: (c.invariants[0], [-v for v in c.invariants[1]])):
        t1, jset, t2 = c.invariants
        row = rows.setdefault((t1, jset), {"t1": t1, "jset": list(jset)})
        for column, hit in ("counts_by_t2", 1), ("strength3_by_t2", _strength3(t1, t2)), ("regular_by_t2", 24 in jset):
            row.setdefault(column, [0] * len(t2_values))[t2] += hit
    return {"t2_values": t2_values, "rows": list(rows.values())}


def table_text(table: dict) -> str:
    """The text of a report's table: a count per (T1, J) row and T2 column,
    marked a (strength 3) or b (regular), with the footnote."""
    header = "T1  J-set            " + "".join(f"{t2:>6}" for t2 in table["t2_values"])
    lines = [header, "-" * len(header)]
    for row in table["rows"]:
        cells = "".join(
            f"{(str(c) + ('a' if a else 'b' if b else '')) if c else '':>6}"
            for c, a, b in zip(row["counts_by_t2"], row["strength3_by_t2"], row["regular_by_t2"])
        )
        lines.append(f"{row['t1']:<3} {jset_text(row['jset']):<16} " + cells)
    lines.append("a: strength-3 classes; b: regular x_i x_j x_k = +-1 classes")
    return "\n".join(lines)


def classification_report(classes) -> dict:
    """JSON-ready report: one record per class plus the table when defined."""
    classes = list(classes)
    report: dict = {"schema": 1, "class_count": len(classes)}
    indicators = []
    if classes:
        ambient = classes[0].representative.ambient
        report["arities"] = list(ambient.radices)
        report["total_designs"] = sum(c.orbit_size for c in classes)
        # One X^{-1} product gives every representative's indicator.
        indicators = polynomial_from_values(
            np.array([c.representative.membership() for c in classes]), 1, ambient
        )
    records = []
    for c, indicator in zip(classes, indicators):
        rec: dict = {
            "representative_runs": list(c.representative.runs),
            "indicator": indicator.to_text(),
            "orbit_size": c.orbit_size,
        }
        if c.invariants is not None:
            t1, jset, t2 = c.invariants
            rec["invariants"] = {"t1": t1, "jset": list(jset), "t2": t2}
            rec["strength3"] = _strength3(t1, t2)
        records.append(rec)
    report["classes"] = records
    if classes and classes[0].invariants is not None:
        report["table"] = table_report(classes)
    return report


def report_text(report: dict, designs_read: int) -> str:
    """The text of a classification report: a header line, one line per
    class, then the table and the catalog check when the report holds them."""
    lines = [f"{designs_read} designs in {report['class_count']} classes"]
    for rec in report["classes"]:
        inv = rec.get("invariants")
        tag = f"  type {type_label(inv['t1'], inv['jset'], inv['t2'])}" if inv else ""
        lines.append(f"orbit {rec['orbit_size']:>5}{tag}  {rec['indicator']}")
    if "table" in report:
        lines += ["", table_text(report["table"])]
    if "catalog_check" in report:
        check = report["catalog_check"]
        lines += ["", "catalog check: " + ("pass" if check["pass"] else "FAIL")]
        lines += ["  " + problem for problem in check["problems"]]
    return "\n".join(lines) + "\n"
