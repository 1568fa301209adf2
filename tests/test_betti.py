from math import comb

import pytest

from hibilab.betti import (
    betti_numbers,
    has_linear_resolution_oracle,
    hilbert_function,
    is_linearly_related_oracle,
    krull_dimension_via_initial,
    monomial_betti_table,
    standard_monomial_basis,
    _block_faces,
    _semigroup_levels,
)
from hibilab.binomials import WindowRing, monomial_order, window_ideal
from hibilab.errors import BudgetExceeded, CapExceeded, DegreeInfeasible, VerificationFailed
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from hibilab.windows import all_windows, dimension


class TestHilbert:
    def test_single_quadric(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        assert hilbert_function(ideal.gb, 2, nvars=4) == [1, 4, 9]

    def test_two_by_three_minors(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        assert hilbert_function(ideal.gb, 2, nvars=6) == [1, 6, 18]

    def test_staircase_window_golden(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        assert hilbert_function(ideal.gb, 3, nvars=14) == [1, 14, 94, 426]

    def test_zero_ideal(self):
        assert hilbert_function([], 2, nvars=3) == [1, 3, 6]

    def test_standard_monomials_count(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        basis = standard_monomial_basis(ideal.gb, 4, 2)
        assert basis.hilbert() == (1, 4, 9)


class TestKrull:
    def test_single_quadric(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        assert krull_dimension_via_initial(ideal.gb, nvars=4) == 3

    def test_staircase_window(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        assert krull_dimension_via_initial(ideal.gb, nvars=14) == 9

    def test_full_grid(self):
        ideal = window_ideal(full_grid(5, 4), (0, 9))
        assert krull_dimension_via_initial(ideal.gb, nvars=30) == 10

    def test_zero_ideal(self):
        assert krull_dimension_via_initial([], nvars=7) == 7

    def test_matches_dimension_formula_everywhere(self, corpus):
        for name, lat in corpus[:20]:
            for w in all_windows(lat):
                ideal = window_ideal(lat, w)
                k = krull_dimension_via_initial(ideal.gb, nvars=ideal.ring.nvars)
                assert k == dimension(lat, w), (name, w)


class TestBettiAnchors:
    def test_single_quadric(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        table = betti_numbers(ideal.ring, ideal.generators)
        assert table.entries == {(0, 2): 1}

    def test_two_by_three_minors(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        table = betti_numbers(ideal.ring, ideal.generators)
        assert table.entries == {(0, 2): 3, (1, 3): 2}

    def test_regular_sequence_of_two_quadrics(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        table = betti_numbers(ideal.ring, ideal.generators)
        assert table.entries == {(0, 2): 2, (1, 4): 1}

    def test_zero_ideal_empty_table(self):
        ideal = window_ideal(full_grid(2, 2), (1, 2))
        table = betti_numbers(ideal.ring, ideal.generators)
        assert table.entries == {}

    def test_generator_count_matches_beta_0_2(self, small_corpus):
        for name, lat in small_corpus[:10]:
            for w in all_windows(lat)[::3]:
                ideal = window_ideal(lat, w)
                if not ideal.generators or ideal.ring.nvars > 10:
                    continue
                table = betti_numbers(
                    ideal.ring, ideal.generators, _targets=[(0, 2), (0, 3), (0, 4)]
                )
                assert table.get(0, 2) == len(ideal.generators), (name, w)
                assert table.get(0, 3) == 0 and table.get(0, 4) == 0, (name, w)


class TestBettiInternals:
    def test_koszul_piece_dimensions_tie_to_hilbert(self):
        # sum of block face counts at size s equals C(nvars, s) * HF(j - s)
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        ring = ideal.ring
        j = 4
        levels = _semigroup_levels(ring, j)
        hf = hilbert_function(ideal.gb, j, nvars=ring.nvars)
        totals = {}
        for b in levels[j]:
            faces = _block_faces(ring, b, j, levels, j, 10**9)
            for s, fs in faces.items():
                totals[s] = totals.get(s, 0) + len(fs)
        for s, total in totals.items():
            assert total == comb(ring.nvars, s) * hf[j - s]

    def test_determinism_under_generator_permutation(self):
        ideal = window_ideal(ell_lattice(), (0, 4))
        t1 = betti_numbers(ideal.ring, ideal.generators)
        t2 = betti_numbers(ideal.ring, tuple(reversed(ideal.generators)))
        assert t1.entries == t2.entries

    def test_two_primes_agree(self):
        ideal = window_ideal(full_grid(2, 2), (0, 4))
        t1 = betti_numbers(ideal.ring, ideal.generators, field=32003)
        t2 = betti_numbers(ideal.ring, ideal.generators, field=65537)
        assert t1.entries == t2.entries

    def test_var_cap(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        with pytest.raises(CapExceeded):
            betti_numbers(ideal.ring, ideal.generators, var_cap=12)

    def test_caps_and_budgets_name_the_value_that_tripped(self):
        from hibilab.binomials import toric_fiber_oracle

        ideal = window_ideal(demo_staircase(), (3, 7))
        ring, gens = ideal.ring, ideal.generators
        for call in (
            lambda: betti_numbers(ring, gens, var_cap=12),
            lambda: has_linear_resolution_oracle(ring, gens, gb=ideal.gb, var_cap=12),
            lambda: is_linearly_related_oracle(ring, gens, var_cap=12),
        ):
            with pytest.raises(CapExceeded) as err:
                call()
            assert err.value.details == {"cap": 12, "nvars": 14}
        small = window_ideal(full_grid(1, 1), (0, 2))
        with pytest.raises(CapExceeded) as err:
            betti_numbers(small.ring, small.generators, block_cap=1)
        assert err.value.details["cap"] == 1 and err.value.details["faces"] > 1
        with pytest.raises(DegreeInfeasible) as err:
            toric_fiber_oracle(ring, gens, degree=4, budget=100)
        assert err.value.details == {"budget": 100, "monomials": comb(14 + 2 - 1, 2)}
        with pytest.raises(BudgetExceeded) as err:
            standard_monomial_basis(ideal.gb, ring.nvars, 2, budget=1)
        assert err.value.details == {"budget": 1, "monomials": 14}

    def test_non_toric_input_rejected(self):
        from hibilab.binomials import make_binomial

        ring = WindowRing.for_window(full_grid(1, 1), (0, 2))
        order = monomial_order("rank-lex", ring)
        bogus = make_binomial(
            ring.monomial((1, 0), (1, 0)), ring.monomial((0, 0), (1, 1)), order
        )
        with pytest.raises(ValueError):
            betti_numbers(ring, [bogus])


class TestMonomialBetti:
    def test_edge_ideal_of_path(self):
        # supports {0,1}, {1,2}, {2,3} in 4 variables
        leads = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
        table = monomial_betti_table(leads, 4)
        assert table == {(0, 2): 3, (1, 3): 2}

    def test_two_disjoint_edges(self):
        leads = [(1, 1, 0, 0), (0, 0, 1, 1)]
        table = monomial_betti_table(leads, 4)
        assert table == {(0, 2): 2, (1, 4): 1}

    def test_bounds_toric_table_entrywise(self):
        for lat, w in ((full_grid(2, 2), (0, 4)), (ell_lattice(), (0, 4))):
            ideal = window_ideal(lat, w)
            mono = monomial_betti_table(ideal.gb.leads, ideal.ring.nvars)
            toric = betti_numbers(ideal.ring, ideal.generators)
            for key, value in toric.entries.items():
                assert mono.get(key, 0) >= value, (w, key)


class TestOracles:
    def test_minors_linear(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        assert has_linear_resolution_oracle(ideal.ring, ideal.generators, gb=ideal.gb)

    def test_regular_sequence_not_linear(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        assert not has_linear_resolution_oracle(ideal.ring, ideal.generators, gb=ideal.gb)

    def test_zero_ideal_linear(self):
        ideal = window_ideal(full_grid(2, 2), (3, 4))
        assert has_linear_resolution_oracle(ideal.ring, ideal.generators)

    def test_minors_linearly_related(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        assert is_linearly_related_oracle(ideal.ring, ideal.generators)

    def test_regular_sequence_not_linearly_related(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        assert not is_linearly_related_oracle(ideal.ring, ideal.generators)

    def test_single_quadric_linearly_related(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        assert is_linearly_related_oracle(ideal.ring, ideal.generators)

    def test_deep_check_accepts_quadratic_windows(self):
        ideal = window_ideal(full_grid(2, 2), (0, 4))
        assert is_linearly_related_oracle(ideal.ring, ideal.generators, deep=True)

    def test_linear_implies_linearly_related(self, small_corpus):
        for name, lat in small_corpus[:8]:
            for w in all_windows(lat)[::2]:
                ideal = window_ideal(lat, w)
                if ideal.ring.nvars > 11 or not ideal.generators:
                    continue
                if has_linear_resolution_oracle(ideal.ring, ideal.generators, gb=ideal.gb):
                    assert is_linearly_related_oracle(ideal.ring, ideal.generators), (name, w)


def test_block_euler_mismatch_is_a_verification_failure(monkeypatch):
    import hibilab.betti as betti_mod

    exact = betti_mod.reduced_homology

    def off_by_one(faces_by_size, p):
        hom = exact(faces_by_size, p)
        hom[0] += 1
        return hom

    monkeypatch.setattr(betti_mod, "reduced_homology", off_by_one)
    ideal = window_ideal(full_grid(1, 1), (0, 2))
    with pytest.raises(VerificationFailed):
        betti_numbers(ideal.ring, ideal.generators)
