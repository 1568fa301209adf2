"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 1 carries one strict-xfail companion: its stated cell
count follows the two-corner cell reading, which contradicts the exact
initial-ideal dimension cross-check that the same criterion and criterion 3
demand; the verified values are asserted in the main test.
"""

import time

import pytest

from hibilab.betti import (
    betti_numbers,
    has_linear_resolution_oracle,
    is_linearly_related_oracle,
    krull_dimension_via_initial,
)
from hibilab.binomials import toric_fiber_oracle, window_ideal
from hibilab.classify import (
    all_proper_windows_linear,
    classify_window,
    enumerate_linrel_windows,
)
from hibilab.reports import (
    CorpusSpec,
    demo_staircase,
    ell_lattice,
    full_grid,
    generate_corpus,
)
from hibilab.windows import (
    all_windows,
    bipartite_graph,
    dimension,
    generators,
    is_chordal_bipartite,
    polyomino,
)


def announce(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CorpusSpec(seed=7, count=40, max_m=5, max_n=4))


@pytest.fixture(scope="module")
def corpus_pairs(corpus):
    """(name, lattice, window, ideal) pairs with at most 12 window variables."""
    pairs = []
    for name, lat in corpus:
        for w in all_windows(lat):
            if len(generators(lat, w)) <= 12:
                pairs.append((name, lat, w, window_ideal(lat, w)))
    assert len(pairs) >= 200
    return pairs


def test_criterion_1_running_example():
    t0 = time.perf_counter()
    lat = demo_staircase()
    gens = generators(lat, (3, 7))
    assert len(gens) == 14
    poly = polyomino(lat, (3, 7))
    assert len(poly.cells) == 5
    dim = dimension(lat, (3, 7))
    ideal = window_ideal(lat, (3, 7))
    krull = krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars)
    assert dim == krull == 14 - len(poly.cells) == 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    announce(
        f"criterion-1: PASS - 14 generators, {len(poly.cells)} cells, "
        f"dimension {dim} = initial-ideal Krull dimension, {elapsed:.3f}s"
    )


@pytest.mark.xfail(
    strict=True,
    reason="two-corner cell reading (7 cells, dimension 7) contradicts the exact "
    "initial-ideal Krull dimension cross-check; see the verified values in "
    "test_criterion_1_running_example",
)
def test_criterion_1_stated_cell_count():
    lat = demo_staircase()
    assert len(polyomino(lat, (3, 7)).cells) == 7
    assert dimension(lat, (3, 7)) == 7


def test_criterion_2_quadratic_bases_at_scale(corpus_pairs):
    t0 = time.perf_counter()
    chordal = gb_ok = certified = 0
    for name, lat, w, ideal in corpus_pairs:
        assert is_chordal_bipartite(bipartite_graph(lat, w)).chordal, (name, w)
        chordal += 1
        assert ideal.gb.quadratic and ideal.gb.squarefree, (name, w, ideal.orders_tried)
        gb_ok += 1
        cert = toric_fiber_oracle(ideal, degree=4)
        assert cert.membership_ok and cert.generated and cert.gb_certified, (name, w)
        certified += 1
    elapsed = time.perf_counter() - t0
    assert chordal == gb_ok == certified == len(corpus_pairs) >= 200
    assert elapsed < 120.0
    announce(
        f"criterion-2: PASS - {len(corpus_pairs)} pairs, 100% chordal bipartite, "
        f"100% quadratic squarefree basis, 100% fiber-certified to degree 4, "
        f"{elapsed:.1f}s"
    )


def test_criterion_3_dimension_formula(corpus):
    windows = 0
    for name, lat in corpus:
        assert dimension(lat, (0, lat.rank)) == lat.rank + 1, name
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            krull = krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars)
            assert krull == dimension(lat, w), (name, w)
            windows += 1
    announce(
        f"criterion-3: PASS - dimension equals initial-ideal Krull dimension on "
        f"{windows} windows across {len(corpus)} lattices; full window gives rank+1"
    )


def test_criterion_4_characterized_families():
    t0 = time.perf_counter()
    families = [(f"band-{m}x1", full_grid(m, 1)) for m in range(1, 6)]
    families += [("ell", ell_lattice()), ("ell-t", ell_lattice(transposed=True))]
    family_windows = 0
    for name, lat in families:
        assert lat.rank <= 6
        for w in all_windows(lat, proper_only=True):
            ideal = window_ideal(lat, w)
            assert has_linear_resolution_oracle(ideal.ring), (name, w)
            family_windows += 1
        ok, witness = all_proper_windows_linear(lat)
        assert ok and witness is None, name
    # the classifier and the oracle agree that the families are exactly it:
    # full grids with m, n >= 2 expose a failing proper window
    for m, n in ((2, 2), (2, 3), (3, 3)):
        lat = full_grid(m, n)
        ok, witness = all_proper_windows_linear(lat)
        assert not ok and witness is not None, (m, n)
        v = classify_window(lat, witness)
        assert not v.linear_resolution
    anchor = window_ideal(full_grid(2, 2), (1, 3))
    table = betti_numbers(anchor)
    assert table.get(1, 4) == 1
    announce(
        f"criterion-4: PASS - {family_windows} proper family windows linear per the "
        f"oracle, classifier agrees; grids expose failing windows "
        f"(beta_(1,4)=1 anchor confirmed), {time.perf_counter() - t0:.1f}s"
    )


def test_criterion_5_linearly_related_windows():
    t0 = time.perf_counter()
    lat = full_grid(2, 2)
    wins = [(w.p, w.q) for w in enumerate_linrel_windows(lat)]
    assert wins == [(0, 2), (0, 3), (0, 4), (1, 4), (2, 4)]
    # oracle verdict matches membership for every valid window; windows with a
    # zero or principal ideal are trivially linearly related and sit outside
    # the enumerated list's hypotheses
    for w in all_windows(lat):
        ideal = window_ideal(lat, w)
        verdict = is_linearly_related_oracle(ideal, var_cap=20)
        if ideal.is_zero or ideal.is_principal:
            assert verdict, w
            continue
        assert verdict == ((w.p, w.q) in set(wins)), w
    # full grids up to rank 6: interior windows are never linearly related,
    # the near-full upper window always is
    checked = 0
    for m in range(2, 5):
        for n in range(2, 5):
            if m + n > 6:
                continue
            grid = full_grid(m, n)
            upper = window_ideal(grid, (0, m + n - 1))
            assert is_linearly_related_oracle(upper, var_cap=20)
            for w in all_windows(grid):
                if not (0 < w.p < w.q < m + n):
                    continue
                ideal = window_ideal(grid, w)
                if ideal.is_zero or ideal.is_principal:
                    continue
                assert not is_linearly_related_oracle(ideal, var_cap=20), (m, n, w)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    announce(
        f"criterion-5: PASS - exact window list on the 2x2 grid, oracle matches "
        f"membership, {checked} interior grid windows non-linearly-related, "
        f"{elapsed:.1f}s"
    )


def test_criterion_6_oracle_sanity_anchors():
    single = window_ideal(full_grid(1, 1), (0, 2))
    assert betti_numbers(single).entries == {(0, 2): 1}
    minors = window_ideal(full_grid(2, 1), (0, 3))
    assert betti_numbers(minors).entries == {
        (0, 2): 3,
        (1, 3): 2,
    }
    announce(
        "criterion-6: PASS - single 2-minor and 2x3 generic minors have exactly "
        "the expected Betti tables"
    )


def test_criterion_7_property_suites():
    import test_properties as props

    props.CASES.clear()
    props.test_birkhoff_round_trip_random()
    props.test_reduced_basis_determinism_random()
    props.test_normal_form_idempotent_random()
    props.test_transposition_symmetry_random()
    props.test_window_invariants_random()
    total = sum(props.CASES.values())
    assert total >= 1000
    announce(
        f"criterion-7: PASS - {total} randomized cases with fixed seeds, 0 failures "
        f"({', '.join(f'{k}={v}' for k, v in sorted(props.CASES.items()))})"
    )
