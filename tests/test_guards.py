"""Source guards: patterns that must not appear in the package.

Each guard names the files it reads (globs relative to the repository root,
a "!" glob removing files), the patterns that must match no line of them,
and why: the concept each pattern names lives in tests/reference.py, or was
replaced by the one route the reason names.  Run with the rest of Tier 1,
so that a guard fails before a push, not only in CI.
"""

import re
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


class Guard(NamedTuple):
    title: str
    checks: list[tuple[str, str]]  # (files, pattern) pairs
    reason: str


GUARDS = [
    Guard(
        "Reference-only algebra stays out of the package",
        [("src/**/*", r"idempotency_system|QuadraticEquation|satisfies_idempotency|build_model_matrix|model_matrix_inverse|scaled_model_matrix|scaled_contrast_rows|np\.kron")],
        (
            "the quadratic system and the dense model matrix belong in tests/reference.py; src/ "
            "applies X only through algebra.mode_products"
        ),
    ),
    Guard(
        "One exact elimination, algebra.rref, and one set of contrast rows",
        [("src/**/*", r"class Matrix|linalg|\.inverse\(|\.solve\(|ContrastMatrix|build_contrast_matrix")],
        (
            "algebra.rref is the package's only Gaussian elimination (V^-1 is the right half of "
            "rref([V | I])); algebra.contrast_rows are the only contrast rows; the dense X and the "
            "entry-by-entry contrast blocks are the tests' reference (tests/reference.py)"
        ),
    ),
    Guard(
        "The cross-check reads the membership rows, with no X X^-1 round trip",
        [("src/**/*.py", r"theta_scaled|values_scaled|interpolation_ok|constant_term_ok|x_scale|w_scale")],
        (
            "the batch cross-check is algebra.value_checks on y itself (X theta = y); the "
            "round-trip identities are checked in the tests through algebra.mode_products"
        ),
    ),
    Guard(
        "The bool-scatter orbit closure stays in tests/reference.py",
        [("src/**/*.py", r"_image_keys|_orbit_keys|np\.zeros\(table\.shape, dtype=bool\)")],
        (
            "src/ builds orbit keys by shifting bits out of the gathered run indices "
            "(designs.indexed_keys); the bool scatter is the tests' reference"
        ),
    ),
    Guard(
        "One enumeration path, no backtracking search or process pool in the package",
        [("src/**/*.py", r"multiprocessing|_backtrack_subsets")],
        (
            "slice candidates come from the recursive slice-and-join; the backtracking search is "
            "the tests' reference (tests/reference.py)"
        ),
    ),
    Guard(
        "Designs cross stages as keys, not as membership matrices",
        [("src/**/*.py", r"enumerate_matrix|brute_force_matrix|read_design_matrix|write_design_matrix|classify_matrix|matrix_runs|matrix_designs|_CANONICAL_LINE|_design_lines|_SEPARATORS")],
        (
            "enumerate, the design file and classify pass keys (designs; enumerate_keys, "
            "read_design_keys, write_design_keys, classify_keys, key_runs, key_designs); the design"
            " file is rendered and checked by search._render, not by a regex or a %-format"
        ),
    ),
    Guard(
        "The batch cross-check counts bits of keys, with no integer matmul",
        [("src/orthofrac/search.py src/orthofrac/fastcheck.py", r"contrast_sums|value_checks")],
        (
            "the batch cross-check sums contrast rows over keys by per-octet sum tables "
            "(designs.octet_sums, fastcheck.BatchChecker); the int64 product algebra.contrast_sums "
            "serves only the one-design route"
        ),
    ),
    Guard(
        "The mode products choose one dtype per call, from one bound",
        [("src/orthofrac/algebra.py", r"bound \*= g")],
        (
            "algebra.mode_products passes max(1, max|v|) times the growth (the product of the "
            "factors' row-abs-sums) to _exact_dtype once and runs every factor step in that dtype; "
            "no bound is carried from step to step"
        ),
    ),
    Guard(
        "The batch cross-check takes one size per call",
        [("src/orthofrac/fastcheck.py", r"np\.ravel\(size\)|def sums\(")],
        (
            "BatchChecker.verify takes one int size and builds one packed target; the tests read "
            "exact key sums through designs.column_sums of fastcheck._contrast_tables"
        ),
    ),
    Guard(
        "Level-list ambients and the identity test stay in the tests",
        [("src/**/*.py", r"def (from_level_sets|is_identity)\(")],
        "from_level_sets and is_identity are only the tests' helpers (tests/reference.py)",
    ),
    Guard(
        "The package counts margins on keys, with no membership matrix",
        [("src/orthofrac/**/*.py", r"runs_matrix|_membership_row|incidence")],
        (
            "keys are the only run-set type below the Fraction algebra: margin counts are per-octet"
            " sums of keys (designs.MarginCells.count_keys) and run sets become keys through "
            "designs.design_keys; membership rows times an incidence matrix are the tests' "
            "reference (tests/reference.py)"
        ),
    ),
    Guard(
        "Only designs.py knows the key layout",
        [("src/orthofrac/*.py !src/orthofrac/designs.py", r">u8|unpackbits|packbits|// 64|% 64|64 \*|lexsort|np\.sort\(")],
        (
            "keys are packed, unpacked, counted in words, sorted and read a byte at a time only in "
            "designs.py (key_words, key_capacity, unpack_runs, key_bits, sort_keys, key_octets, "
            "octet_keys, search_keys, sorted_search_keys, search_rows, find_keys); other modules "
            "call those"
        ),
    ),
    Guard(
        "classify holds its input once, as sorted search keys, and imports nothing from the search engine",
        [
            ("src/orthofrac/classify.py", r"from \. import search|from \.search|search\.|search_keys\(sort_keys\("),
            ("src/**/*", r"def key_order"),
        ],
        (
            "classify_keys keeps its input once, as designs.sorted_search_keys (the sorted copy "
            "turned big-endian in place), and reads seeds back through designs.search_rows, with no"
            " argsort index; the key budget is designs._MATRIX_BUDGET"
        ),
    ),
    Guard(
        "One orbit-membership route, find_keys on sorted search keys",
        [("src/**/*.py", r"def (in_orbit|distinct_keys)\(|needles = search_keys")],
        (
            "classify_keys closes each orbit as designs.sorted_search_keys of its images, drops "
            "repeats by one neighbour compare and looks them up with designs.find_keys, which takes"
            " needles already in search form; catalog.cross_check_classes sorts each catalog "
            "design's images the same way and finds the class representatives in them"
        ),
    ),
    Guard(
        "The catalog check finds class representatives only through find_keys",
        [("src/orthofrac/catalog.py", r"searchsorted")],
        (
            "catalog.cross_check_classes looks the representatives' search keys up in each sorted "
            "catalog orbit with designs.find_keys; no slot array or bool scatter maps hits back to "
            "classes"
        ),
    ),
    Guard(
        "One invariant route, the size-3 margin counts",
        [("src/**/*.py", r"_sign_tables")],
        (
            "designs.invariant_triples takes T1, T2 and each two-level triple's J from the same "
            "MarginCells.count_keys counts, J as the sum of the triple's 8 cell counts signed by "
            "their levels; no octet-table family of sign columns counts J apart"
        ),
    ),
    Guard(
        "One pairing step joins every slice level, and materialise divides once per level",
        [("src/orthofrac/search.py", r"local //= n_c|local % n_c|_fitting_prefixes|n_levels == 2")],
        (
            "search._join_blocks forms every level but the last by one pairing step, depth first "
            "from the empty assignment: a block of the assignments so far against every key in "
            "per-cell broadcast compares, one searchsorted finding the last level; no per-key "
            "recursion over the first levels and no two-slice branch; search._materialize takes "
            "each level's candidate with one np.divmod"
        ),
    ),
    Guard(
        "The design file is read as bytes, in one equal-length bulk shape",
        [("src/orthofrac/search.py", r"is_run|surrogatepass|searchsorted\(last, ends\)")],
        (
            "read_design_keys reads byte chunks (a text handle's chunk is encoded once); "
            "search._canonical_lines reads a chunk's numbers as one B x s array and checks it "
            "against search._render, which builds its ids with no run mask; a chunk of mixed run "
            "counts goes line by line"
        ),
    ),
    Guard(
        "One encoder from run indices, one chunk budget, no theta-vector helpers, polynomial arithmetic or point evaluation in the package",
        [
            ("src/**/*.py", r"run_keys|theta_vector|polynomial_from_theta|_POPCOUNT_BYTES|def bitset_keys|np\.packbits"),
            ("src/orthofrac/polynomials.py", r"def (evaluate|scale|__mul__|__add__|__sub__|__neg__)\("),
            ("src/orthofrac/designs.py", r"def points\("),
        ],
        (
            "run indices become keys only through designs.indexed_keys; every chunk loop reads "
            "designs._CHUNK_BYTES; the packbits encoder, one-run keys, the coefficient-vector "
            "helpers, polynomial arithmetic, evaluation at a point and a design's points are the "
            "tests' reference (tests/reference.py)"
        ),
    ),
    Guard(
        "One bit-counting route, the per-octet sum tables",
        [("src/**/*.py", r"def popcounts|def mask_words|_contrast_masks|\.masks\b")],
        (
            "contrast rows and margin cells are summed over keys only through designs.octet_tables "
            "and designs.octet_sums; the popcount passes over run masks are gone"
        ),
    ),
    Guard(
        "Only designs.py derives the run order",
        [("src/orthofrac/*.py !src/orthofrac/designs.py", r"unravel_index|ravel_multi_index|np\.indices|stride|range\(r\) for r in")],
        (
            "runs are numbered last factor fastest only in designs.py: other modules read "
            "FullFactorial.index_vectors (algebra.exponent_lattice too), designs.run_index and "
            "MarginCells.levels"
        ),
    ),
    Guard(
        "One change of basis to the standard form, each factor's V^-1",
        [("src/**/*.py", r"vanishing_substitution|_power_table")],
        (
            "algebra.reduce_to_standard_form reduces x_j^e through V_j^-1 (algebra._factor_matrix);"
            " the step-by-step substitution x^r -> g(x) is the tests' reference "
            "(tests/reference.py)"
        ),
    ),
    Guard(
        "The package exports what the CLI, the bench and the README call; test-only helpers stay in the tests",
        [("src/**/*.py", r"def (margins|j_statistic|save_design_csv|full_design|canonical_form|orbit_of|stabilizer_size|brute_force_oracle|verify_theta)\(|class MarginTable|NonTwoLevelFactorError")],
        (
            "the Fraction-level margins and J-statistics, the design CSV writer, the brute-force "
            "oracle as a Design list, the one-verdict verify_theta and the bool-scatter orbit, "
            "canonical form and stabiliser are the tests' reference (tests/reference.py); "
            "classify_keys gives a class's representative and orbit size; the package tests orbit "
            "membership only by designs.find_keys in sorted search keys"
        ),
    ),
    Guard(
        "classify.py builds and renders the classification report; the CLI reads no class record",
        [
            ("src/**/*.py", r"class TableReport"),
            ("src/orthofrac/cli.py", r'jset_text|rec\[|"invariants"'),
        ],
        (
            "the report is one dict: classify.classification_report builds it (its table from "
            "classify.table_report) and classify.report_text renders it; the CLI attaches the "
            "catalog check and emits"
        ),
    ),
]


def _files(spec: str) -> list[Path]:
    """The files the space-separated globs name, less those of the "!"
    globs; bytecode and build metadata, which a fresh checkout lacks, are
    left out."""
    keep, drop = set(), set()
    for glob in spec.split():
        (drop if glob.startswith("!") else keep).update(ROOT.glob(glob.lstrip("!")))
    return sorted(
        path for path in keep - drop
        if path.is_file() and not any(p == "__pycache__" or p.endswith(".egg-info") for p in path.parts)
    )


@pytest.mark.parametrize("guard", GUARDS, ids=[g.title for g in GUARDS])
def test_guard(guard):
    hits = []
    for spec, pattern in guard.checks:
        files = _files(spec)
        assert files, f"{spec} names no file"
        regex = re.compile(pattern)
        for path in files:
            for number, line in enumerate(path.read_bytes().decode("utf-8", "replace").splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(ROOT)}:{number}: {line.strip()}")
    assert not hits, guard.reason + "\n" + "\n".join(hits)
