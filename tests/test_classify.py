import dataclasses
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest

import reference
from conftest import random_ambient, sign_fraction
from orthofrac.algebra import indicator_from_design
from orthofrac.catalog import CATALOG, catalog_designs, cross_check_classes
from orthofrac.classify import (
    act,
    act_theta,
    canonical_form,
    classify,
    generate_group,
    in_orbit,
    orbit_of,
    stabilizer_size,
    table_report,
)
from orthofrac.designs import (
    Design,
    ShapeMismatchError,
    from_level_sets,
    full_factorial,
    has_strength,
)
from orthofrac.fastcheck import bitset_keys, runs_matrix
from orthofrac.search import SearchProblem, enumerate_orthogonal


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


def test_identity_element_acts_trivially():
    group = generate_group(FLAGSHIP)
    identity = next(g for g in group if g.is_identity())
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
    orbit = orbit_of(plus)
    assert len(orbit) == 2
    assert sign_fraction(FLAGSHIP, (0, 1, 2, 3), -1).runs in orbit

    triple = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    assert len(orbit_of(triple)) == 8


def test_orbit_stabilizer_product():
    for frac in (
        sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1),
        sign_fraction(FLAGSHIP, (0, 1, 3), 1),
    ):
        assert len(orbit_of(frac)) * stabilizer_size(frac) == 2304


def test_classify_single_design_reports_full_orbit():
    plus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    classes = classify([plus])
    assert len(classes) == 1
    assert classes[0].orbit_size == 2
    assert classes[0].invariants == (0, (0, 0, 0, 0), 0)
    # representative is the lexicographically least orbit member
    assert classes[0].representative.runs == min(orbit_of(plus))


def test_classify_partitions_group_closed_input():
    amb = full_factorial([2, 2, 2])
    designs = enumerate_orthogonal(SearchProblem(amb, 4, 2))
    classes = classify(designs, store_members=True)
    assert len(classes) == 1
    assert classes[0].orbit_size == 2
    assert classes[0].members is not None
    assert {d.runs for d in classes[0].members} == {d.runs for d in designs}


def test_classify_rejects_duplicates_and_mixed_ambients():
    amb = full_factorial([2, 2])
    d = Design(amb, (0, 3))
    with pytest.raises(ValueError):
        classify([d, d])
    other = Design(full_factorial([2, 3]), (0, 1))
    with pytest.raises(ShapeMismatchError):
        classify([d, other])
    assert classify([]) == []


def test_invariants_constant_on_orbit():
    from orthofrac.designs import invariant_triple

    frac = sign_fraction(FLAGSHIP, (0, 1, 3), -1)
    expected = invariant_triple(frac)
    for runs in orbit_of(frac):
        assert invariant_triple(Design(FLAGSHIP, runs)) == expected


def test_table_report_smoke():
    plus = sign_fraction(FLAGSHIP, (0, 1, 2, 3), 1)
    triple = sign_fraction(FLAGSHIP, (0, 1, 3), 1)
    classes = classify([plus, triple])
    report = table_report(classes)
    assert report.cell(0, (0, 0, 0, 0), 0) == 1
    assert report.cell(1, (24, 0, 0, 0), 0) == 1
    assert report.cell(1, (8, 0, 0, 0), 2) == 0
    text = report.to_text()
    assert "1a" in text and "1b" in text  # strength-3 flag and regular flag
    with pytest.raises(ShapeMismatchError):
        table_report(classify([Design(full_factorial([2, 2]), (0, 3))]))


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


def _summary(classes):
    return [
        (c.representative.runs, c.orbit_size, tuple(d.runs for d in c.members)) for c in classes
    ]


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
    classes = classify(designs, store_members=True)
    reference = _reference_classes(designs)
    assert _summary(classes) == reference
    order = len(generate_group(designs[0].ambient))
    for c in classes[:3]:
        d = c.members[-1]
        assert canonical_form(d) == c.representative.runs
        assert orbit_of(d) == {m.runs for m in c.members}
        assert c.orbit_size * stabilizer_size(d) == order


def test_enumerated_3_4_is_one_class_of_72():
    designs = _three_four()
    classes = classify(designs)
    assert len(designs) == 72
    assert [c.orbit_size for c in classes] == [72]
    assert classes[0].representative.runs == min(d.runs for d in designs)


def test_classify_invariant_under_relabelling_and_shuffle(flagship_designs):
    rng = random.Random(61)
    designs = rng.sample(flagship_designs, 600)
    expected = classify(designs, store_members=True)
    g = rng.choice(generate_group(FLAGSHIP))
    relabelled = [act(g, d) for d in designs]
    rng.shuffle(relabelled)
    assert {d.runs for d in relabelled} != {d.runs for d in designs}
    assert classify(relabelled, store_members=True) == expected


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
        orbit = orbit_of(d)
        assert orbit == reference.orbit_of(d)
        assert canonical_form(d) == reference.canonical_form(d) == min(orbit)
        stab = stabilizer_size(d)
        assert stab == reference.stabilizer_size(d)
        assert len(orbit) * stab == order
        # Classify a sample of the orbit: one class, the full orbit, its least member.
        sample = rng.sample(sorted(orbit), min(len(orbit), 20))
        (c,) = classify([Design(ambient, runs) for runs in sample])
        assert (c.representative.runs, c.orbit_size) == (min(orbit), len(orbit))
        others = [_random_design(ambient, rng).runs for _ in range(5)]
        keys = bitset_keys(runs_matrix(sample + others, ambient.run_count))
        assert in_orbit(d, keys).tolist() == [runs in orbit for runs in sample + others]


@pytest.mark.parametrize("seed", range(8))
def test_word_closure_matches_bool_scatter_on_random_ambients(seed):
    rng = random.Random(seed)
    _check_closure_against_reference(random_ambient(rng), rng, 4)


_WIDE = {
    # m = 81 and m = 80 take two words; 2^6 fills exactly one.
    "3^4": full_factorial([3, 3, 3, 3]),
    "2^4*5-rational": from_level_sets(
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
    g = rng.choice([g for g in generate_group(designs[0].ambient) if not g.is_identity()])
    relabelled = [act(g, d) for d in designs]
    rng.shuffle(relabelled)

    def summary(classes):
        return [(c.representative.runs, c.orbit_size, c.invariants) for c in classes]

    assert summary(classify(relabelled)) == summary(classify(designs))


def test_cross_check_passes_with_every_representative_a_random_orbit_member(flagship_classes):
    rng = random.Random(73)
    classes = []
    for c in flagship_classes:
        runs = rng.choice(sorted(orbit_of(c.representative)))
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
