"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The flagship instance is the 2x2x2x2x3 ambient at size 24, strength 2;
its enumeration and classification come from session fixtures and are
shared across criteria.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import table_cell
from orthofrac.algebra import (
    design_from_indicator,
    indicator_from_design,
    linear_preprocess,
    mode_products,
    orthogonality_system,
    reduce_to_standard_form,
    value_checks,
)
from orthofrac.catalog import CATALOG
from orthofrac.classify import act, act_theta, generate_group, table_report
from orthofrac.designs import (
    Design,
    design_keys,
    full_factorial,
    has_strength,
    invariant_triple,
    invariant_triples,
    margin_cells,
)
from orthofrac.fastcheck import get_checker
from orthofrac.polynomials import parse_polynomial
from orthofrac.search import SearchProblem, enumerate_orthogonal
from reference import (
    bitset_keys,
    brute_force_oracle,
    margin_counts,
    membership_rows,
    orbit_of,
    product,
    stabilizer_size,
    verify_theta,
)


def _report(number: int, label: str, outcome: bool, detail: str = "") -> None:
    status = "PASS" if outcome else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {label}: {status}{suffix}")
    assert outcome, f"criterion {number} ({label}) failed: {detail}"


def test_criterion_1_flagship_count(flagship_result):
    elapsed, designs = flagship_result
    ok = len(designs) == 35200 and elapsed <= 1800
    _report(1, "flagship count 35200", ok, f"{len(designs)} designs in {elapsed:.1f}s")


def test_criterion_2_flagship_class_count(flagship_classes):
    ok = len(flagship_classes) == 63
    _report(2, "63 equivalence classes", ok, f"{len(flagship_classes)} classes")


EXPECTED_TABLE = {
    (0, (0, 0, 0, 0)): (3, 4, 2, 3, 1, 1),
    (1, (24, 0, 0, 0)): (1, 0, 0, 0, 0, 0),
    (1, (16, 0, 0, 0)): (1, 1, 0, 0, 0, 0),
    (1, (8, 0, 0, 0)): (4, 8, 8, 5, 2, 0),
    (2, (16, 8, 0, 0)): (1, 1, 1, 0, 0, 0),
    (2, (8, 8, 0, 0)): (1, 4, 3, 1, 0, 0),
    (3, (8, 8, 8, 0)): (1, 1, 3, 2, 0, 0),
}


def test_criterion_3_table_reproduction(flagship_classes):
    table = table_report(flagship_classes)
    rows = {(row["t1"], tuple(row["jset"])): row for row in table["rows"]}
    problems = []
    if set(rows) != set(EXPECTED_TABLE):
        problems.append(f"row keys {tuple(rows)}")
    for key, expected in EXPECTED_TABLE.items():
        if key in rows:
            got = rows[key]["counts_by_t2"][:6]
            if tuple(got) != expected:
                problems.append(f"row {key}: {got} != {expected}")
    # footnote a: exactly the 3 classes at (0,{0,0,0,0},0) have strength 3
    s3_total = sum(sum(row["strength3_by_t2"]) for row in table["rows"])
    if table_cell(table, 0, (0, 0, 0, 0), 0) != 3 or s3_total != 3:
        problems.append("strength-3 footnote")
    if rows[(0, (0, 0, 0, 0))]["strength3_by_t2"][0] != 3:
        problems.append("strength-3 classes not in the (0,{0,0,0,0},0) cell")
    # footnote b: exactly one regular class, in the (1,{24,0,0,0},0) cell
    reg_total = sum(sum(row["regular_by_t2"]) for row in table["rows"])
    if reg_total != 1 or rows[(1, (24, 0, 0, 0))]["regular_by_t2"][0] != 1:
        problems.append("regular footnote")
    _report(3, "class-count table matches", not problems, "; ".join(problems) or "all cells")


def test_criterion_4_orbit_size_ledger(flagship_classes):
    got = Counter(c.orbit_size for c in flagship_classes)
    expected = Counter(e.orbit_size for e in CATALOG)
    total = sum(c.orbit_size for c in flagship_classes)
    ok = got == expected and total == 35200
    _report(4, "orbit-size multiset and sum", ok, f"sum={total}")


def test_criterion_5_representative_cross_check(flagship, flagship_designs, flagship_classes):
    enumerated = {d.runs for d in flagship_designs}
    orbits = []  # class index per catalog entry
    problems = []
    for entry in CATALOG:
        poly = parse_polynomial(entry.indicator_text, 5)
        if not verify_theta(poly, flagship, 24, 2):
            problems.append(f"{entry.type_label}: verify_theta failed")
            continue
        design = design_from_indicator(poly, flagship)
        if design.runs not in enumerated:
            problems.append(f"{entry.type_label}: not in the enumerated set")
            continue
        if invariant_triple(design) != (entry.t1, entry.jset, entry.t2):
            problems.append(f"{entry.type_label}: invariants mismatch")
        # locate its class: the one whose representative lies in its orbit
        orbit = orbit_of(design)
        hits = [k for k, c in enumerate(flagship_classes) if c.representative.runs in orbit]
        if len(hits) != 1:
            problems.append(f"{entry.type_label}: found {len(hits)} classes")
            continue
        k = hits[0]
        orbits.append(k)
        if flagship_classes[k].orbit_size != entry.orbit_size:
            problems.append(f"{entry.type_label}: orbit size mismatch")
        if len(orbit) != entry.orbit_size:
            problems.append(f"{entry.type_label}: direct orbit size mismatch")
    if len(set(orbits)) != 63:
        problems.append(f"only {len(set(orbits))} distinct classes hit")
    # The two published misprints must fail as printed (errata evidence).
    misprints = [e for e in CATALOG if e.published_text]
    if len(misprints) != 2:
        problems.append("expected exactly 2 corrected entries")
    for entry in misprints:
        poly = reduce_to_standard_form(parse_polynomial(entry.published_text, 5), flagship)
        if verify_theta(poly, flagship, 24, 2):
            problems.append(f"{entry.type_label}: published text unexpectedly verifies")
    _report(
        5,
        "63 catalog representatives",
        not problems,
        "; ".join(problems) or "63/63 matched (2 catalog entries correct source misprints)",
    )


def test_criterion_6_preprocessing_counts(flagship):
    system = orthogonality_system(flagship, 24, 2)
    pre = linear_preprocess(system)
    ok = system.n_rows == 21 and pre.n_eliminated == 21 and pre.n_free == 27
    _report(6, "21 eliminated / 27 free", ok, f"{pre.n_eliminated}/{pre.n_free}")


@pytest.mark.parametrize(
    "arities,size,expected_count",
    [((2, 2, 2), 4, 2), ((2, 2, 2, 2), 8, None), ((2, 2, 2, 3), 12, None)],
)
def test_criterion_7_oracle_equivalence(arities, size, expected_count):
    ambient = full_factorial(arities)
    t0 = time.time()
    engine = enumerate_orthogonal(SearchProblem(ambient, size, 2))
    oracle = brute_force_oracle(SearchProblem(ambient, size, 2))
    elapsed = time.time() - t0
    ok = engine == oracle and elapsed <= 300
    if expected_count is not None:
        ok = ok and len(engine) == expected_count
    label = "x".join(map(str, arities))
    _report(7, f"oracle equivalence {label} s={size}", ok, f"{len(engine)} designs in {elapsed:.1f}s")


@pytest.mark.parametrize("arities", [(2, 2, 2), (2, 2, 3)])
def test_criterion_8_algebraic_characterization(arities):
    ambient = full_factorial(arities)
    m = ambient.run_count
    n = ambient.n_factors
    rng = random.Random(97)
    mismatches = 0
    for bits in range(2**m):
        runs = tuple(i for i in range(m) if bits >> i & 1)
        design = Design(ambient, runs)
        poly = indicator_from_design(design)
        for t in range(1, n + 1):
            if verify_theta(poly, ambient, len(runs), t) != has_strength(design, t):
                mismatches += 1
        if rng.random() < 0.02:
            # wrong size must fail the algebraic check
            if verify_theta(poly, ambient, len(runs) + 1, 1):
                mismatches += 1
    label = "x".join(map(str, arities))
    _report(8, f"verify_theta <=> size+strength on {label}", mismatches == 0,
            f"{2**m} fractions x {n} strengths, {mismatches} mismatches")


def test_criterion_9_indicator_identities(flagship, flagship_designs):
    y = membership_rows(flagship_designs, 48)
    theta, w = mode_products(flagship, y, inverse=True)
    values, x = mode_products(flagship, theta, inverse=False)
    interp = values == y * (x * w)
    const = theta[:, 0] * 48 == 24 * w
    # The squared reduction: X theta is 0/1, read from the round-tripped values.
    idem = value_checks(flagship, values, x * w, 24, 2)[:, 0]
    ok = bool(np.all(interp) and np.all(const) and np.all(idem))
    detail = f"{len(flagship_designs)} designs: interpolation/constant/squared-reduction"
    # Polynomial-level spot of the same identities on the 63 catalog entries.
    for entry in CATALOG:
        poly = parse_polynomial(entry.indicator_text, 5)
        design = design_from_indicator(poly, flagship)
        if indicator_from_design(design) != poly:
            ok = False
            detail = f"{entry.type_label}: round trip failed"
            break
        if reduce_to_standard_form(product(poly, poly), flagship) != poly:
            ok = False
            detail = f"{entry.type_label}: reduce(f^2) != f"
            break
        if poly.coefficient((0, 0, 0, 0, 0)) != Fraction(design.size, 48):
            ok = False
            detail = f"{entry.type_label}: constant term"
            break
    _report(9, "indicator identities on all designs", ok, detail)


def test_criterion_10_group_action_coherence(flagship, flagship_designs, flagship_classes):
    rng = random.Random(101)
    group = generate_group(flagship)
    ok = True
    detail = ""
    for trial in range(1000):
        g = group[rng.randrange(len(group))]
        d = flagship_designs[rng.randrange(len(flagship_designs))]
        lhs = act_theta(g, indicator_from_design(d))
        rhs = indicator_from_design(act(g, d))
        if lhs != rhs:
            ok = False
            detail = f"pair {trial}: theta action != design action"
            break
    if ok:
        for c in flagship_classes:
            if c.orbit_size * stabilizer_size(c.representative) != 2304:
                ok = False
                detail = f"orbit {c.orbit_size}: orbit x stabilizer != 2304"
                break
    _report(10, "theta/design actions agree; orbit x stabilizer = 2304", ok,
            detail or "1000 pairs, 63 classes")


def test_flagship_outputs_are_sound(flagship, flagship_designs):
    """Soundness sweep: every enumerated design passes the combinatorial and
    the algebraic checks (100%, not sampled)."""
    y = membership_rows(flagship_designs, 48)
    table = margin_cells(flagship, 2)
    assert bool(np.all(table.balanced(margin_counts(table, y), 24)))
    assert bool(np.all(get_checker(flagship).verify(bitset_keys(y), 24, 2)))


def test_invariants_constant_on_every_orbit(flagship, flagship_designs, flagship_classes):
    """invariant_triple is a class invariant across all 35200 designs, and the
    J = 0 <=> balanced-triple equivalence holds design by design."""
    triples = invariant_triples(flagship, design_keys(flagship_designs, 48))
    by_runs = {d.runs: inv for d, inv in zip(flagship_designs, triples)}
    for t1, jset, _ in triples:
        # T1 equals the number of nonzero triple J-statistics.
        assert t1 == sum(1 for j in jset if j)
    for c in flagship_classes:
        assert by_runs[c.representative.runs] == c.invariants
    rng = random.Random(7)
    for _ in range(40):
        d = flagship_designs[rng.randrange(len(flagship_designs))]
        orbit = orbit_of(d)
        hits = [c.invariants for c in flagship_classes if c.representative.runs in orbit]
        assert len(hits) == 1
        assert by_runs[d.runs] == hits[0]


def test_flagship_pipeline_reproducible_byte_for_byte(tmp_path):
    """enumerate | classify on the flagship reproduces its report exactly on
    a second run, with the built-in catalog self-check passing."""
    import json

    from orthofrac.cli import main

    outputs = []
    for tag in ("a", "b"):
        designs = tmp_path / f"designs_{tag}.txt"
        report = tmp_path / f"report_{tag}.json"
        assert (
            main(
                ["enumerate", "--levels", "2,2,2,2,3", "--size", "24", "--strength", "2",
                 "--out", str(designs)]
            )
            == 0
        )
        assert (
            main(
                ["classify", "--levels", "2,2,2,2,3", "--designs", str(designs),
                 "--out", str(report), "--format", "json"]
            )
            == 0
        )
        outputs.append((designs.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0][1])
    assert payload["class_count"] == 63
    assert payload["catalog_check"]["pass"] is True
