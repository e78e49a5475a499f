import dataclasses
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import numpy as np
import pytest

import reference
from conftest import random_ambient, sign_fraction, table_cell
from orthofrac.algebra import indicator_from_design
from orthofrac.catalog import CATALOG, catalog_designs, cross_check_classes
from orthofrac.classify import (
    act,
    act_theta,
    classification_report,
    classify,
    classify_keys,
    generate_group,
    run_perm_table,
    table_report,
    table_text,
)
from orthofrac.designs import (
    Design,
    ShapeMismatchError,
    design_keys,
    full_factorial,
    has_strength,
)
from orthofrac import designs, search
from orthofrac.search import SearchProblem, enumerate_keys, enumerate_orthogonal


FLAGSHIP = full_factorial([2, 2, 2, 2, 3])


def test_group_orders():
    assert len(generate_group(FLAGSHIP)) == 2304  # 4! * 2^4 * 3!
    assert len(generate_group(full_factorial([2]))) == 2
    assert len(generate_group(full_factorial([2, 3]))) == 12  # no factor swaps


def test_group_elements_are_permutations_and_unique():
    group = generate_group(full_factorial([2, 3]))
    perms = {g.run_perm for g in group}
    assert len(perms) == len(group)
    for g in group:
        assert sorted(g.run_perm) == list(range(6))


def test_run_perm_table_rows_are_the_documented_actions(monkeypatch):
    # Row g of the table is new_iv[j] = level_perms[j][old_iv[factor_perm[j]]]
    # on run indices, for the labels of the g-th group element, in the
    # narrowest unsigned dtype that holds m - 1.
    for amb in (FLAGSHIP, full_factorial([2, 3, 3]), full_factorial([4, 2, 2])):
        table = run_perm_table(amb)
        assert table.dtype == np.uint8 and not table.flags.writeable
        run_of = {amb.decode(i): i for i in range(amb.run_count)}
        ivs = [amb.decode(i) for i in range(amb.run_count)]
        for row, g in zip(table.tolist(), generate_group(amb), strict=True):
            fp, lp = g.factor_perm, g.level_perms
            assert row == [run_of[tuple(lp[j][iv[fp[j]]] for j in range(len(fp)))] for iv in ivs]
    # 288 runs take two bytes each: the budget names the dtype before allocating.
    monkeypatch.setattr(designs, "_MATRIX_BUDGET", 0)
    with pytest.raises(search.ProblemTooLargeError, match="276480 x 288 uint16"):
        run_perm_table(full_factorial([2, 2, 2, 2, 2, 3, 3]))


def test_identity_element_acts_trivially():
    group = generate_group(FLAGSHIP)
    identity = next(g for g in group if reference.is_identity(g))
    frac = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    assert act(identity, frac) == frac


def test_level_swap_flips_sign_of_word():
    plus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    minus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), -1)
    group = generate_group(FLAGSHIP)
    swap_x1 = next(
        g
        for g in group
        if g.factor_perm == (0, 1, 2, 3, 4)
        and g.level_perms == ((1, 0), (0, 1), (0, 1), (0, 1), (0, 1, 2))
    )
    assert act(swap_x1, plus) == minus


def test_action_is_a_group_action():
    amb = full_factorial([2, 2, 3])
    group = generate_group(amb)
    rng = random.Random(31)
    by_perm = {g.run_perm: g for g in group}
    for _ in range(30):
        g, h = rng.choice(group), rng.choice(group)
        composed = tuple(g.run_perm[h.run_perm[i]] for i in range(amb.run_count))
        assert composed in by_perm  # closure
        runs = tuple(sorted(rng.sample(range(12), 6)))
        d = Design(amb, runs)
        assert act(by_perm[composed], d) == act(g, act(h, d))


def test_action_preserves_strength():
    rng = random.Random(37)
    group = generate_group(FLAGSHIP)
    frac = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    for _ in range(20):
        g = rng.choice(group)
        assert has_strength(act(g, frac), 2)


def test_act_shape_mismatch():
    group = generate_group(full_factorial([2, 2]))
    d = Design(full_factorial([2, 3]), (0, 1))
    with pytest.raises(ShapeMismatchError):
        act(group[0], d)


def test_theta_action_matches_design_action():
    amb = full_factorial([2, 2, 3])
    group = generate_group(amb)
    rng = random.Random(41)
    for _ in range(20):
        g = rng.choice(group)
        runs = tuple(sorted(rng.sample(range(12), rng.randint(0, 12))))
        d = Design(amb, runs)
        lhs = act_theta(g, indicator_from_design(d))
        rhs = indicator_from_design(act(g, d))
        assert lhs == rhs


def test_orbit_of_regular_fractions():
    plus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    minus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), -1)
    assert classify([plus])[0].orbit_size == 2
    assert reference.orbit_of(plus) == {plus.runs, minus.runs}

    triple = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    assert classify([triple])[0].orbit_size == 8


def test_orbit_stabilizer_product():
    for frac in (
        sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1),
        sign_fraction(FLAGSHIP, (0, 1, 3), 1),
    ):
        assert classify([frac])[0].orbit_size * reference.stabilizer_size(frac) == 2304


def test_classify_single_design_reports_full_orbit():
    plus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    classes = classify([plus])
    assert len(classes) == 1
    assert classes[0].orbit_size == 2
    assert classes[0].invariants == (0, (0, 0, 0, 0), 0)
    # representative is the lexicographically least orbit member
    assert classes[0].representative.runs == reference.canonical_form(plus)


def test_classify_partitions_group_closed_input():
    amb = full_factorial([2, 2, 2])
    designs = enumerate_orthogonal(SearchProblem(amb, 4, 2))
    classes = classify(designs)
    assert len(classes) == 1
    assert classes[0].orbit_size == 2
    assert reference.orbit_of(classes[0].representative) == {d.runs for d in designs}


def test_classify_rejects_duplicates_and_mixed_ambients():
    amb = full_factorial([2, 2])
    d = Design(amb, (0, 3))
    with pytest.raises(ValueError, match=r"^designs must be pairwise distinct: \[0, 3\] appears more than once$"):
        classify([d, d])
    # The design named is the repeated one of least key, on two-word keys too.
    amb = full_factorial([3, 3, 3, 3])
    rows = [(0, 80), (1, 2), (0, 80), (1, 2), (5, 70)]
    with pytest.raises(ValueError, match=r": \[1, 2\] appears more than once$"):
        classify_keys(amb, design_keys(rows, 81))
    other = Design(full_factorial([2, 3]), (0, 1))
    with pytest.raises(ShapeMismatchError):
        classify([d, other])
    assert classify([]) == []


@pytest.mark.parametrize("levels, size", [([2, 2, 2, 2, 3], 24), ([3, 3, 3, 3], 18)], ids=["flagship", "3^4-s18"])
def test_classify_keys_holds_its_input_once(levels, size):
    # Beside its input of W-word keys, classify_keys holds them once more,
    # sorted in search form, and one unseen flag each: 8 W + 1 bytes per
    # design.  The group table and one orbit's arrays do not grow with the
    # input, so doubling a shuffled input raises the traced peak by at most
    # 8 W + 4 bytes per added design.
    import tracemalloc

    ambient = full_factorial(levels)
    keys = enumerate_keys(SearchProblem(ambient, size, 2))
    keys = keys[np.random.default_rng(size).permutation(len(keys))]
    half = len(keys) // 2
    classify_keys(ambient, keys[:half])  # fills the ambient's caches untraced

    def peak(rows):
        tracemalloc.start()
        try:
            classify_keys(ambient, rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(keys) - peak(keys[:half]) <= (8 * keys.shape[1] + 4) * (len(keys) - half)


@pytest.mark.parametrize(
    "levels, size, bound", [([2] * 6, 16, 46), ([3, 3, 3, 3], 18, 114)], ids=["2^6-s16", "3^4-s18"]
)
def test_classify_keys_frees_each_orbit_as_the_next_forms(levels, size, bound):
    # classify_keys keeps a copy of each orbit's top key and drops the
    # orbit before the next one's images form: a view of the top, a
    # one-word slice as much as a two-word one, would hold that orbit's
    # whole array of distinct images until the loop ends.  On shuffled keys
    # the traced peak is 43.2 bytes per design at 2^6/16/2 (one-word keys)
    # and 110.4 at 3^4/18/2 (two-word keys) with the copies, and 51.2 and
    # 126.3 with the views.
    import tracemalloc

    ambient = full_factorial(levels)
    keys = enumerate_keys(SearchProblem(ambient, size, 2))
    keys = keys[np.random.default_rng(size).permutation(len(keys))]
    classify_keys(ambient, keys[:1])  # fills the ambient's caches untraced
    tracemalloc.start()
    try:
        classify_keys(ambient, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(keys)


def test_invariants_constant_on_orbit():
    from orthofrac.designs import invariant_triple

    frac = sign_fraction(FLAGSHIP, (0, 1, 3), -1)
    expected = invariant_triple(frac)
    for runs in reference.orbit_of(frac):
        assert invariant_triple(Design(FLAGSHIP, runs)) == expected


def test_table_report_smoke():
    plus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    triple = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    classes = classify([plus, triple])
    table = table_report(classes)
    assert table_cell(table, 0, (0, 0, 0, 0), 0) == 1
    assert table_cell(table, 1, (24, 0, 0, 0), 0) == 1
    assert table_cell(table, 1, (8, 0, 0, 0), 2) == 0
    text = table_text(table)
    assert "1a" in text and "1b" in text  # strength-3 flag and regular flag
    with pytest.raises(ShapeMismatchError):
        table_report(classify([Design(full_factorial([2, 2]), (0, 3))]))


def test_report_strength3_flags_match_has_strength(flagship_classes):
    # Both reports read a class's strength-3 flag from its invariants
    # (T1 = T2 = 0); each flag is has_strength of the representative.
    expected = [has_strength(c.representative, 3) for c in flagship_classes]
    assert sum(expected) == 3
    report = classification_report(flagship_classes)
    assert [rec["strength3"] for rec in report["classes"]] == expected
    table = table_report(flagship_classes)
    assert sum(sum(row["strength3_by_t2"]) for row in table["rows"]) == 3
    assert report["table"] == table


def _reference_classes(designs):
    """(representative, orbit size, sorted members) per orbit, closed with act."""
    group = generate_group(designs[0].ambient)
    found, classes = set(), []
    for d in designs:
        if d.runs not in found:
            orbit = sorted({act(g, d).runs for g in group})
            found.update(orbit)
            classes.append((orbit[0], len(orbit), tuple(orbit)))
    return sorted(classes)


def _not_group_closed():
    """Some 12-run designs of the flagship ambient, a few relabelled copies among them."""
    rng = random.Random(59)
    group = generate_group(FLAGSHIP)
    designs = {tuple(sorted(rng.sample(range(48), 12))) for _ in range(25)}
    for runs in list(designs)[:8]:
        designs.add(act(rng.choice(group), Design(FLAGSHIP, runs)).runs)
    designs |= {d.runs for d in enumerate_orthogonal(SearchProblem(FLAGSHIP, 12, 2))[:5]}
    return [Design(FLAGSHIP, runs) for runs in sorted(designs)]


@lru_cache(maxsize=None)
def _three_four():
    # 81 runs: the orbit bitsets take two 64-bit words.
    return enumerate_orthogonal(SearchProblem(full_factorial([3, 3, 3, 3]), 9, 2))


@pytest.mark.parametrize(
    "designs",
    [lambda: enumerate_orthogonal(SearchProblem(FLAGSHIP, 12, 2)), _three_four, _not_group_closed],
    ids=["2^4*3-s12", "3^4-s9", "not-group-closed"],
)
def test_classify_matches_reference_closure(designs):
    designs = designs()
    classes = classify(designs)
    expected = _reference_classes(designs)
    assert [(c.representative.runs, c.orbit_size) for c in classes] == [(r, size) for r, size, _ in expected]
    ambient = designs[0].ambient
    order = len(generate_group(ambient))
    for c, (_, _, members) in zip(classes[:3], expected):
        d = Design(ambient, max(members))
        assert [(a.representative, a.orbit_size) for a in classify([d])] == [(c.representative, c.orbit_size)]
        assert c.orbit_size * reference.stabilizer_size(d) == order


def test_enumerated_3_4_is_one_class_of_72():
    designs = _three_four()
    classes = classify(designs)
    assert len(designs) == 72
    assert [c.orbit_size for c in classes] == [72]
    assert classes[0].representative.runs == min(d.runs for d in designs)


def test_classify_invariant_under_relabelling_and_shuffle(flagship_designs):
    rng = random.Random(61)
    designs = rng.sample(flagship_designs, 600)
    expected = classify(designs)
    g = rng.choice(generate_group(FLAGSHIP))
    relabelled = [act(g, d) for d in designs]
    rng.shuffle(relabelled)
    assert {d.runs for d in relabelled} != {d.runs for d in designs}
    got = classify(relabelled)
    assert got == expected
    assert [reference.orbit_of(c.representative) for c in got] == [
        reference.orbit_of(c.representative) for c in expected
    ]


def test_cross_check_accepts_any_orbit_member_as_representative(flagship_classes):
    assert cross_check_classes(flagship_classes) == []
    rng = random.Random(67)
    group = generate_group(FLAGSHIP)
    classes = list(flagship_classes)
    for k in rng.sample(range(len(classes)), 5):
        rep = classes[k].representative
        other = next(a for a in (act(g, rep) for g in group) if a.runs > rep.runs)
        classes[k] = dataclasses.replace(classes[k], representative=other)
    assert cross_check_classes(classes) == []
    # A representative taken from another class is caught.
    classes[0] = dataclasses.replace(classes[0], representative=classes[1].representative)
    assert cross_check_classes(classes) != []


def _group_order(ambient):
    """|G| from the arities alone: level permutations times same-arity factor swaps."""
    arities = Counter(ambient.radices)
    return prod(factorial(r) ** k * factorial(k) for r, k in arities.items())


def _random_design(ambient, rng):
    m = ambient.run_count
    return Design(ambient, tuple(sorted(rng.sample(range(m), rng.randint(0, m)))))


def _check_closure_against_reference(ambient, rng, n_designs):
    order = _group_order(ambient)
    for _ in range(n_designs):
        d = _random_design(ambient, rng)
        orbit = reference.orbit_of(d)
        assert reference.canonical_form(d) == min(orbit)
        assert len(orbit) * reference.stabilizer_size(d) == order
        # The design alone and a sample of its orbit each make one class:
        # the full orbit, its least member.
        sample = rng.sample(sorted(orbit), min(len(orbit), 20))
        for designs in ([d], [Design(ambient, runs) for runs in sample]):
            (c,) = classify(designs)
            assert (c.representative.runs, c.orbit_size) == (min(orbit), len(orbit))
        # Each orbit closed marks its members seen and nothing else: the
        # sample with other designs makes one class per distinct orbit, the
        # classes that each design makes alone.
        others = [Design(ambient, runs) for runs in {_random_design(ambient, rng).runs for _ in range(5)} - orbit]
        expected = {min(orbit)} | {classify([o])[0].representative.runs for o in others}
        designs = sorted([Design(ambient, runs) for runs in sample] + others, key=lambda o: o.runs)
        assert sorted(c.representative.runs for c in classify(designs)) == sorted(expected)


@pytest.mark.parametrize("seed", range(8))
def test_word_closure_matches_bool_scatter_on_random_ambients(seed):
    rng = random.Random(seed)
    _check_closure_against_reference(random_ambient(rng), rng, 4)


_WIDE = {
    # m = 81 and m = 80 take two words; 2^6 fills exactly one.
    "3^4": full_factorial([3, 3, 3, 3]),
    "2^4*5-rational": reference.from_level_sets(
        [(0, Fraction(1, 2))] * 2
        + [(-1, Fraction(1, 3)), (Fraction(-1, 2), 2)]
        + [(-2, Fraction(-1, 3), 0, Fraction(1, 2), 3)]
    ),
    "2^6": full_factorial([2] * 6),
}


@pytest.mark.parametrize("name", list(_WIDE))
def test_word_closure_matches_bool_scatter_on_wide_ambients(name):
    _check_closure_against_reference(_WIDE[name], random.Random(name), 3)


def _random_design_list(seed):
    """40 distinct random designs of a random ambient with at least 8 runs."""
    rng = random.Random(seed)
    ambient = random_ambient(rng)
    while ambient.run_count < 8:
        ambient = random_ambient(rng)
    runs = {_random_design(ambient, rng).runs for _ in range(40)}
    return [Design(ambient, r) for r in sorted(runs)]


@pytest.mark.parametrize("subset", [False, True], ids=["full", "subset"])
@pytest.mark.parametrize("case", ["flagship", "random-a", "random-b"])
def test_classify_returns_the_same_classes_for_a_relabelled_list(case, subset, flagship_designs):
    designs = flagship_designs if case == "flagship" else _random_design_list(case)
    rng = random.Random(f"{case}-{subset}")
    if subset:
        designs = rng.sample(designs, len(designs) // 3)
    g = rng.choice([g for g in generate_group(designs[0].ambient) if not reference.is_identity(g)])
    relabelled = [act(g, d) for d in designs]
    rng.shuffle(relabelled)

    def summary(classes):
        return [(c.representative.runs, c.orbit_size, c.invariants) for c in classes]

    assert summary(classify(relabelled)) == summary(classify(designs))


def test_cross_check_passes_with_every_representative_a_random_orbit_member(flagship_classes):
    rng = random.Random(73)
    classes = []
    for c in flagship_classes:
        runs = rng.choice(sorted(reference.orbit_of(c.representative)))
        classes.append(dataclasses.replace(c, representative=Design(c.representative.ambient, runs)))
    moved = sum(a.representative != c.representative for a, c in zip(classes, flagship_classes))
    assert moved > 50
    assert cross_check_classes(classes) == []


def test_catalog_designs_are_built_once():
    # One immutable tuple of (entry, design) pairs, in catalog order, equal
    # to a fresh parse of the indicators.
    designs = catalog_designs()
    assert catalog_designs() is designs
    assert type(designs) is tuple and all(type(pair) is tuple for pair in designs)
    assert [entry for entry, _ in designs] == list(CATALOG)
    assert catalog_designs.__wrapped__() == designs


def test_cross_check_problem_strings(flagship_classes):
    classes = list(flagship_classes)
    assert cross_check_classes([]) == ["expected 63 classes, got 0"] + [
        f"catalog type {e.type_label} not found in any class" for e in CATALOG
    ]
    assert cross_check_classes(classes[:5] + classes[6:]) == [
        "expected 63 classes, got 62",
        "catalog type 0,{0,0,0,0}-1 not found in any class",
    ]
    duplicated = ["expected 63 classes, got 64", "some classes matched no catalog entry"]
    assert cross_check_classes(classes + [classes[7]]) == duplicated
    assert cross_check_classes([classes[7]] + classes) == duplicated
    wrong = dataclasses.replace(classes[3], orbit_size=classes[3].orbit_size + 1)
    assert cross_check_classes(classes[:3] + [wrong] + classes[4:]) == [
        "type 0,{0,0,0,0}-1: orbit size 73 != 72"
    ]
    swapped = dataclasses.replace(classes[0], representative=classes[1].representative)
    assert cross_check_classes([swapped] + classes[1:]) == [
        "catalog type 0,{0,0,0,0}-0 not found in any class",
        "some classes matched no catalog entry",
    ]
