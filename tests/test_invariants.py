"""Cross-module bridging invariants exercised over the shared corpus."""

import json
import pathlib

import pytest

from fiber_reference import balanced, plain_sizes
from hibilab.betti import betti_numbers, hilbert_function, monomial_betti_table
from hibilab.binomials import toric_fiber_oracle, window_ideal
from hibilab.classify import enumerate_linrel_windows, is_linearly_related_lattice
from hibilab.reports import demo_staircase, ell_lattice, full_grid, run_suite
from hibilab.windows import all_windows

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_every_generator_maps_to_zero(small_corpus):
    for name, lat in small_corpus:
        for w in all_windows(lat)[::2]:
            ideal = window_ideal(lat, w)
            assert all(balanced(ideal.ring, g) for g in ideal.generators), (name, w)


def test_fiber_hilbert_matches_standard_monomials(small_corpus):
    """The fiber records' fibers and hilbert_function, which both read
    Semigroup.size, against the plain semigroup build (plain_sizes)."""
    for name, lat in small_corpus[:8]:
        for w in all_windows(lat)[::3]:
            ideal = window_ideal(lat, w)
            if ideal.ring.nvars > 11:
                continue
            plain = plain_sizes(ideal.ring, 3)  # |L_1|, |L_2|, |L_3|
            cert = toric_fiber_oracle(ideal, degree=3)
            assert [d.fibers for d in cert.per_degree] == plain[1:], (name, w)
            assert hilbert_function(ideal, 3) == [1, *plain], (name, w)


def test_first_syzygies_exist_for_non_principal_windows(small_corpus):
    # beta_{1,3} + beta_{1,4} >= 1 whenever there are at least two generators
    for name, lat in small_corpus[:8]:
        for w in all_windows(lat)[::3]:
            ideal = window_ideal(lat, w)
            if len(ideal.generators) < 2 or ideal.ring.nvars > 11:
                continue
            table = betti_numbers(ideal, _targets=[(1, 3), (1, 4)])
            assert table.get(1, 3) + table.get(1, 4) >= 1, (name, w)


def test_initial_table_bounds_toric_table(small_corpus):
    for name, lat in small_corpus[:6]:
        for w in all_windows(lat)[::4]:
            ideal = window_ideal(lat, w)
            if not ideal.generators or ideal.ring.nvars > 9:
                continue
            mono = monomial_betti_table(ideal.gb.lead_supports, ideal.ring.nvars)
            toric = betti_numbers(ideal)
            for key, value in toric.entries.items():
                assert mono.get(key, 0) >= value, (name, w, key)


def test_enumerated_windows_subset_of_valid_and_contain_full(small_corpus):
    for name, lat in small_corpus:
        if lat.m < 2 or lat.n < 2:
            continue
        if not is_linearly_related_lattice(lat):
            continue
        wins = enumerate_linrel_windows(lat)
        valid = {(w.p, w.q) for w in all_windows(lat)}
        assert {(w.p, w.q) for w in wins} <= valid, name
        assert (0, lat.rank) in {(w.p, w.q) for w in wins}, name


def test_golden_staircase_window_report():
    rep = run_suite(demo_staircase(), windows=[(3, 7)], with_fiber=True, name="staircase-5x4")
    expected = (GOLDEN / "staircase_5x4_w37.json").read_text().strip()
    assert rep.to_json(include_timings=False) == expected


def test_golden_report_values():
    doc = json.loads((GOLDEN / "staircase_5x4_w37.json").read_text())
    rec = doc["windows"][0]
    assert rec["generators"] == 14
    assert rec["cells"] == 5
    assert rec["dimension"] == rec["krull"] == 9
    assert rec["gb"]["quadratic"] and rec["gb"]["squarefree"]


def test_linrel_list_is_sound_on_rank_six_grids():
    # every listed window is linearly related per the oracle; the converse
    # needs the band to span the full box, so boundary windows like (0, 3)
    # are decided by shape or oracle instead of the fixed list
    from hibilab.betti import is_linearly_related_oracle

    for m, n in ((2, 4), (3, 3)):
        lat = full_grid(m, n)
        for w in enumerate_linrel_windows(lat):
            ideal = window_ideal(lat, w)
            assert is_linearly_related_oracle(ideal, var_cap=20), (m, n, w)
        boundary = window_ideal(lat, (0, 3))
        assert is_linearly_related_oracle(boundary, var_cap=20)


def test_ell_window_verdicts_match_both_routes():
    from hibilab.classify import verify_window

    for lat in (ell_lattice(), ell_lattice(transposed=True)):
        for w in all_windows(lat):
            verify_window(lat, w)


def test_family_dichotomy_on_small_corpus(small_corpus):
    # all_proper_windows_linear asserts internally that the structural family
    # membership matches the window sweep on every simple lattice
    from hibilab.classify import all_proper_windows_linear
    from hibilab.lattice import is_simple

    checked = 0
    for name, lat in small_corpus:
        if lat.rank < 2 or len(lat.points) > 12 or not is_simple(lat).simple:
            continue
        all_proper_windows_linear(lat)
        checked += 1
    assert checked >= 5


def test_hilbert_budget_guard(monkeypatch):
    from hibilab.errors import BudgetExceeded

    monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
    ideal = window_ideal(demo_staircase(), (0, 9))
    with pytest.raises(BudgetExceeded):
        hilbert_function(ideal, 4)
