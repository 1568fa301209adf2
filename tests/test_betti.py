import time
from dataclasses import replace
from functools import reduce
from itertools import islice
from math import comb
from operator import or_

import pytest

import koszul_reference as ref
from fiber_reference import image_of_monomial, monomial_images, with_basis
from hibilab.betti import (
    betti_numbers,
    has_linear_resolution_oracle,
    hilbert_function,
    is_linearly_related_oracle,
    krull_dimension_via_initial,
    monomial_betti_table,
    reduced_homology,
    _block_faces,
    _glues,
    _induced_2k2,
    _lead_graph,
    _pairing_faces,
    _pairing_supports,
    _semigroup_levels,
    _settled,
)
from hibilab.binomials import (
    Binomial,
    _fiber_terms,
    _sparse_term,
    _standard_counts,
    order_search,
    window_ideal,
)
from hibilab.errors import (
    BudgetExceeded,
    CapExceeded,
    InvalidParameter,
    PreconditionFailed,
    VerificationFailed,
)
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from hibilab.windows import all_windows, dimension, generators
from window_helpers import ring_for_window


class TestHilbert:
    def test_single_quadric(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        assert hilbert_function(ideal, 2) == [1, 4, 9]

    def test_two_by_three_minors(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        assert hilbert_function(ideal, 2) == [1, 6, 18]

    def test_staircase_window_golden(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        assert hilbert_function(ideal, 3) == [1, 14, 94, 426]

    def test_zero_ideal(self):
        # a window of three points and no binomial
        ideal = window_ideal(full_grid(1, 1), (0, 1))
        assert ideal.is_zero and ideal.ring.nvars == 3
        assert hilbert_function(ideal, 2) == [1, 3, 6]

    def test_standard_monomials_count(self):
        # the lead-side count both ways: the faces of the lead complex, and
        # the standard monomials enumerated when no supports are given, on
        # the fields of degree 2 (3 bits each)
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        terms = _fiber_terms(ideal.gb, ideal.ring, [1 << 3 * k for k in range(4)])
        for supports in (ideal.gb.lead_supports, None):
            assert list(islice(_standard_counts(supports, terms, 4, 2), 2)) == [4, 9]

    def test_a_basis_whose_leads_miss_it_raises(self):
        # the answer is |L_e|, held to the standard monomials of ideal.gb's
        # leads: a basis with an element dropped leaves one too many in
        # degree 2, counted on the faces, and a square lead y_0^2 added, one
        # too few, counted by enumeration; only that check sees either
        ideal = window_ideal(demo_staircase(), (3, 7))
        ring, (p, q) = ideal.ring, ideal.ring.points[:2]
        square = Binomial(ring.monomial(p, p), ring.monomial(p, q))
        for basis, standard in ((ideal.gb.basis[:-1], 95), ((*ideal.gb.basis, square), 93)):
            with pytest.raises(VerificationFailed) as err:
                hilbert_function(with_basis(ideal, basis), 4)
            assert err.value.details == {"degree": 2, "hilbert": 94, "standard": standard}


class TestKrull:
    def test_single_quadric(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        assert krull_dimension_via_initial(ideal.gb.lead_supports, nvars=4) == 3

    def test_staircase_window(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        assert krull_dimension_via_initial(ideal.gb.lead_supports, nvars=14) == 9

    def test_full_grid(self):
        ideal = window_ideal(full_grid(5, 4), (0, 9))
        assert krull_dimension_via_initial(ideal.gb.lead_supports, nvars=30) == 10

    def test_zero_ideal(self):
        assert krull_dimension_via_initial([], nvars=7) == 7

    def test_grid_5x5_full_window(self):
        ideal = window_ideal(full_grid(5, 5), (0, 10))
        krull = krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars)
        assert krull == dimension(full_grid(5, 5), (0, 10)) == 11

    @staticmethod
    def _cycles(count, length):
        """The edge supports, as bitmasks, of count disjoint cycles of the given length."""
        supports = [
            1 << length * k + a | 1 << length * k + (a + 1) % length
            for k in range(count) for a in range(length)
        ]
        return supports, count * length

    def test_search_budget(self, monkeypatch):
        # disjoint triangles: each is one clique of the bound, which is tight
        # at the root, so the first descent ends the search
        supports, nvars = self._cycles(8, 3)
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        assert krull_dimension_via_initial(supports, nvars=nvars) == 8
        # disjoint 5-cycles: the greedy cliques are edges, three to a cycle
        # against its two, so the search has to branch
        supports, nvars = self._cycles(6, 5)
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        assert krull_dimension_via_initial(supports, nvars=nvars) == 12
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as err:
            krull_dimension_via_initial(supports, nvars=nvars)
        assert err.value.details == {"budget": 1000, "nodes": 1001}

    def test_disjoint_triples_are_bounded_by_their_supports(self, monkeypatch):
        # a 3-support inside the candidates bounds the face by 2 of its
        # variables; as three singleton cliques the bound would be 3 each
        # and the search would branch through the whole product
        triples, nvars = 10, 30
        supports = [0b111 << 3 * k for k in range(triples)]
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        assert krull_dimension_via_initial(supports, nvars=nvars) == 2 * triples

    def test_matches_dimension_formula_everywhere(self, corpus):
        for name, lat in corpus[:20]:
            for w in all_windows(lat):
                ideal = window_ideal(lat, w)
                k = krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars)
                assert k == dimension(lat, w), (name, w)


class TestBettiAnchors:
    def test_single_quadric(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        table = betti_numbers(ideal)
        assert table.entries == {(0, 2): 1}

    def test_two_by_three_minors(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        table = betti_numbers(ideal)
        assert table.entries == {(0, 2): 3, (1, 3): 2}

    def test_regular_sequence_of_two_quadrics(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        table = betti_numbers(ideal)
        assert table.entries == {(0, 2): 2, (1, 4): 1}

    @pytest.mark.parametrize("field", [32003, 65537])
    def test_grid_2x2_full_window(self, field):
        ideal = window_ideal(full_grid(2, 2), (0, 4))
        table = betti_numbers(ideal, field=field)
        assert table.entries == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}

    def test_zero_ideal_empty_table(self):
        # returned before the semigroup core is peeled: most windows have no generator
        ideal = window_ideal(full_grid(2, 2), (1, 2))
        table = betti_numbers(ideal)
        assert table.entries == {}
        assert "core" not in vars(ideal.ring.semigroup)

    def test_truncated_table_claims_no_zero_ideal(self):
        # grid-1x1's ideal is one quadric; below degree 2 its table is empty
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        table = betti_numbers(ideal, j_max=1)
        assert table.entries == {}
        assert table.format_text() == "empty Betti table"

    def test_generator_count_matches_beta_0_2(self, small_corpus):
        for name, lat in small_corpus[:10]:
            for w in all_windows(lat)[::3]:
                ideal = window_ideal(lat, w)
                if not ideal.generators or ideal.ring.nvars > 10:
                    continue
                table = betti_numbers(ideal, _targets=[(0, 2), (0, 3), (0, 4)]
                )
                assert table.get(0, 2) == len(ideal.generators), (name, w)
                assert table.get(0, 3) == 0 and table.get(0, 4) == 0, (name, w)


class TestBettiInternals:
    def test_semigroup_membership_matches_levels(self):
        # the L-shaped window misses box points, so some candidates fall outside
        ring = window_ideal(ell_lattice(), (0, 4)).ring
        levels = ref.semigroup_levels(ring, 4)
        member = _semigroup_levels(ring.semigroup, range(ring.nvars), 4)
        units = [
            tuple(int(c in (i, ring.m + 1 + j)) for c in range(ring.m + ring.n + 2))
            for i in range(ring.m + 1) for j in range(ring.n + 1)
        ]
        outside = 0
        for k in range(1, 5):
            for q in levels[k - 1]:
                for unit in units:
                    vec = tuple(x + y for x, y in zip(q, unit))
                    assert (ref.semigroup_pack(ring, vec) in member[k]) == (vec in levels[k]), (k, vec)
                    outside += vec not in levels[k]
        assert outside > 0

    def test_koszul_piece_dimensions_tie_to_hilbert(self):
        # sum of block face counts at size s equals C(nvars, s) * HF(j - s)
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        ring = ideal.ring
        j = 4
        levels = _semigroup_levels(ring.semigroup, range(ring.nvars), j)
        hf = hilbert_function(ideal, j)
        totals = {}
        for b, mask in levels[j].items():
            counts, _ = _block_faces(ring.semigroup.images, b, mask, j, levels, j)
            for s, count in enumerate(counts):
                totals[s] = totals.get(s, 0) + count
        for s, total in totals.items():
            assert total == comb(ring.nvars, s) * hf[j - s]

    def test_packed_levels_match_tuple_levels(self):
        # up to degree 8, past the semigroup's first packing (entries up to 7)
        for lat, w in ((ell_lattice(), (0, 4)), (full_grid(2, 2), (0, 4))):
            ring = window_ideal(lat, w).ring
            packed = _semigroup_levels(ring.semigroup, range(ring.nvars), 8)
            assert ring.semigroup.capacity >= 8
            ref_levels = ref.semigroup_levels(ring, 8)
            for k, level in enumerate(ref_levels):
                pack = {vec: ref.semigroup_pack(ring, vec) for vec in level}
                assert set(pack.values()) == packed[k].keys(), (w, k)
                # each mask names the variables whose image leads down a level
                for vec in level:
                    down = {
                        v for v, img in enumerate(monomial_images(ring))
                        if k and ref.vec_sub(vec, img) in ref_levels[k - 1]
                    }
                    assert packed[k][pack[vec]] == sum(1 << v for v in down), (w, k, vec)
                    assert ref.semigroup_vector(ring, pack[vec], k) == vec

    @pytest.mark.parametrize("faces, max_size, apex", [
        # a path a-b-c: a cone from b
        ([[0], [1, 2, 4], [3, 6]], 3, True),
        # two disjoint edges a-b, c-d
        ([[0], [1, 2, 4, 8], [3, 12]], 3, False),
        # a hollow triangle: no apex ...
        ([[0], [1, 2, 4], [3, 5, 6]], 3, False),
        # ... but below size 2 every vertex is one (it is connected)
        ([[0], [1, 2, 4], [3, 5, 6]], 2, True),
        # a filled triangle with a pendant edge c-d: a cone from c
        ([[0], [1, 2, 4, 8], [3, 5, 6, 12], [7]], 4, True),
        # the complex of the empty face alone, and a point
        ([[0], []], 3, False),
        ([[0], [1]], 3, True),
    ])
    def test_apex_on_hand_made_complexes(self, faces, max_size, apex):
        assert ref.has_apex(faces, max_size) == apex

    def test_cone_block_skipped_and_koszul_block_kept(self):
        # grid-2x2, window (1, 3): two quadrics in 7 variables forming a
        # regular sequence; the (1, 4) Koszul block sits at the multidegree
        # of the product of their leads and has homology 1
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        ring, leads = ideal.ring, [g.lead for g in ideal.gb.basis]
        levels = _semigroup_levels(ring.semigroup, range(ring.nvars), 4)
        images = ring.semigroup.images
        product = tuple(x + y for x, y in zip(*leads))
        b = ref.semigroup_pack(ring, image_of_monomial(ring, product))
        counts, faces = _block_faces(images, b, levels[4][b], 4, levels, 3)
        assert faces is not None and counts == [1, 7, 17, 13]
        assert reduced_homology(faces, 32003)[2] == 1
        # a block that is no simplex but a cone from one vertex
        cones = 0
        ref_levels = ref.semigroup_levels(ring, 4)
        for vec in ref_levels[4]:
            ref_faces = ref.block_faces(ring, vec, 4, ref_levels, 4)
            b = ref.semigroup_pack(ring, vec)
            counts, faces = _block_faces(images, b, levels[4][b], 4, levels, 4)
            if faces is None and sum(counts) != 2 ** len(ref_faces[1]):
                assert not any(ref.reduced_homology(ref_faces, 32003).values())
                cones += 1
        assert cones > 0

    def test_two_primes_agree(self):
        ideal = window_ideal(full_grid(2, 2), (0, 4))
        t1 = betti_numbers(ideal, field=32003)
        t2 = betti_numbers(ideal, field=65537)
        assert t1.entries == t2.entries

    def test_degrees_stop_at_nvars(self):
        # a squarefree initial ideal has no Betti numbers past nvars
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        t0 = time.perf_counter()
        table = betti_numbers(ideal, j_max=32)
        assert time.perf_counter() - t0 < 1.0
        full = betti_numbers(ideal)
        assert table.entries == full.entries == {(0, 2): 2, (1, 4): 1}
        assert (table.i_max, table.j_max, table.nvars) == (7, 32, 7)

    def test_var_cap(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        with pytest.raises(CapExceeded):
            betti_numbers(ideal, var_cap=12)

    def test_caps_and_budgets_name_the_value_that_tripped(self, monkeypatch):
        import hibilab.errors as errors_mod
        from hibilab.binomials import toric_fiber_oracle

        ideal = window_ideal(demo_staircase(), (3, 7))
        for call in (
            lambda: betti_numbers(ideal, var_cap=12),
            lambda: is_linearly_related_oracle(ideal, var_cap=12),
        ):
            with pytest.raises(CapExceeded) as err:
                call()
            assert err.value.details == {"cap": 12, "nvars": 14}
        # the linear-resolution oracle is a count with no cap: it answers
        assert has_linear_resolution_oracle(ideal.ring) is False
        # the 2-minors of a 2x3 matrix: 3 generators of height 2, so walked
        small = window_ideal(full_grid(2, 1), (0, 3))
        assert not ref.complete_intersection(small)
        monkeypatch.setattr(errors_mod, "BLOCK_FACE_CAP", 1)
        with pytest.raises(CapExceeded) as err:
            betti_numbers(small)
        assert err.value.details["cap"] == 1 and err.value.details["faces"] > 1
        # the fiber oracle enumerates on the move core and the semigroup
        # core, both 12 of the 14 variables (2 leaves peeled): degree 4 has
        # C(15, 4) = 1365 monomials there; hilbert_function holds each
        # degree to all 14, C(17, 4) = 2380
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as err:
            toric_fiber_oracle(ideal, degree=4)
        assert err.value.details == {"budget": 1000, "monomials": comb(12 + 4 - 1, 4)}
        with pytest.raises(BudgetExceeded) as err:
            hilbert_function(ideal, 4)
        assert err.value.details == {"budget": 1000, "monomials": 2380}

    @pytest.mark.parametrize("var_cap", [0, -3])
    def test_var_cap_below_one_is_rejected_up_front(self, var_cap):
        # before any route is chosen: a degenerate window, a window that
        # classify answers by shape, a zero ideal and the suite all raise
        # InvalidParameter with the suite's payload, not CapExceeded
        from hibilab.classify import classify_window
        from hibilab.reports import run_suite

        lat = demo_staircase()
        ideal, zero = window_ideal(lat, (3, 7)), window_ideal(full_grid(2, 2), (1, 2))
        assert zero.is_zero
        for call in (
            lambda: classify_window(lat, (0, 1), var_cap=var_cap),
            lambda: classify_window(lat, (3, 7), var_cap=var_cap),
            lambda: betti_numbers(ideal, var_cap=var_cap),
            lambda: is_linearly_related_oracle(zero, var_cap=var_cap),
            lambda: run_suite(lat, windows=[(3, 7)], var_cap=var_cap),
        ):
            with pytest.raises(InvalidParameter) as err:
                call()
            assert err.value.details == {"var_cap": var_cap}
        # a cap of 1 is a cap, and None is none
        with pytest.raises(CapExceeded) as err:
            betti_numbers(ideal, var_cap=1)
        assert err.value.details == {"cap": 1, "nvars": 14}
        assert betti_numbers(window_ideal(full_grid(1, 1), (0, 2)), var_cap=None).entries == {(0, 2): 1}

    def test_non_toric_input_rejected(self):
        # y_10^2 - y_00 y_11 is homogeneous, but its terms have different images
        ring = ring_for_window(full_grid(1, 1), (0, 2))
        bogus = tuple(_sparse_term(ring.monomial(*t)) for t in (((1, 0), (1, 0)), ((0, 0), (1, 1))))
        with pytest.raises(InvalidParameter):
            betti_numbers(order_search(ring, [bogus]))


class TestMonomialBetti:
    def test_edge_ideal_of_path(self):
        # supports {0,1}, {1,2}, {2,3} in 4 variables
        table = monomial_betti_table([0b0011, 0b0110, 0b1100], 4)
        assert table == {(0, 2): 3, (1, 3): 2}

    def test_two_disjoint_edges(self):
        table = monomial_betti_table([0b0011, 0b1100], 4)
        assert table == {(0, 2): 2, (1, 4): 1}

    def test_subset_loop_budget(self, monkeypatch):
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        # 30 variables, 28 of them in some lead support: 2^28 subsets
        ideal = window_ideal(full_grid(5, 4), (0, 9))
        with pytest.raises(BudgetExceeded) as err:
            monomial_betti_table(ideal.gb.lead_supports, ideal.ring.nvars)
        assert err.value.details == {"budget": 200_000, "masks": 1 << 28}

    def test_degree_bound_restricts_full_table(self, corpus):
        checked = 0
        for name, lat in corpus:
            for w in all_windows(lat):
                if len(generators(lat, w)) > 10:
                    continue
                ideal = window_ideal(lat, w)
                full = monomial_betti_table(ideal.gb.lead_supports, ideal.ring.nvars)
                low = monomial_betti_table(ideal.gb.lead_supports, ideal.ring.nvars, j_max=4)
                assert low == {k: v for k, v in full.items() if k[1] <= 4}, (name, w)
                checked += low != full
        assert checked > 0

    def test_degree_bound_budget_counts_enumerated_subsets(self, monkeypatch):
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        # 20 variables, 18 of them in some lead support: 2^18 subsets of the
        # support union, 4048 of them with at most 4 elements
        ideal = window_ideal(full_grid(4, 3), (0, 7))
        supports, nvars = ideal.gb.lead_supports, ideal.ring.nvars
        assert nvars == 20
        with pytest.raises(BudgetExceeded):
            monomial_betti_table(supports, nvars)
        table = monomial_betti_table(supports, nvars, j_max=4)
        assert table[(0, 2)] == len(supports)
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as err:
            monomial_betti_table(supports, nvars, j_max=4)
        assert err.value.details == {"budget": 1000, "masks": sum(comb(18, k) for k in range(5))}

    def test_bounds_toric_table_entrywise(self):
        for lat, w in ((full_grid(2, 2), (0, 4)), (ell_lattice(), (0, 4))):
            ideal = window_ideal(lat, w)
            mono = monomial_betti_table(ideal.gb.lead_supports, ideal.ring.nvars)
            toric = betti_numbers(ideal)
            for key, value in toric.entries.items():
                assert mono.get(key, 0) >= value, (w, key)


class TestOracles:
    def test_oracles_read_the_window_ideal_packed(self, corpus):
        # given the WindowIdeal of a quadratic squarefree basis, both oracles
        # take that basis, unpack no generator, and answer as the routes
        # that rank: Hochster's table of in(I) for linear resolution, and
        # every block not settled by Euler ranked for linear relatedness
        checked = 0
        for _, lat in corpus[:12]:
            for w in all_windows(lat):
                ideal = window_ideal(lat, w)
                if ideal.ring.nvars > 12 or len(ideal.elements) < 2:
                    continue
                linear = has_linear_resolution_oracle(ideal.ring)
                linrel = is_linearly_related_oracle(ideal)
                assert "generators" not in vars(ideal), w
                table = monomial_betti_table(ideal.gb.lead_supports, ideal.ring.nvars)
                assert linear == (not any(j != i + 2 for i, j in table)), w
                assert linrel == ref.ranked_linearly_related(ideal, 32003), w
                checked += 1
        assert checked > 50

    def test_settling_rule(self):
        # a cancellation pairs (i, j) with (i - 1, j) or (i + 1, j)
        table = {(0, 2): 3, (1, 3): 2, (1, 4): 1, (2, 4): 1, (2, 5): 4, (3, 5): 2, (0, 4): 5}
        assert _settled(table, 0, 2) == 3  # (-1, 2) and (1, 2) are zero
        assert _settled(table, 1, 3) == 2
        assert _settled(table, 2, 3) == 0  # zero entries stay zero
        assert _settled(table, 1, 4) is None  # both neighbours nonzero
        assert _settled(table, 2, 4) is None  # left neighbour (1, 4)
        assert _settled(table, 0, 4) is None  # right neighbour (1, 4)
        assert _settled(table, 2, 5) is None and _settled(table, 3, 5) is None

    @pytest.mark.parametrize("nvars, edges, linear, two_k2", [
        # a path: its complement is again a path, so chordal
        (4, [(0, 1), (1, 2), (2, 3)], True, []),
        # a triangle with a pendant edge and an isolated vertex
        (5, [(0, 1), (1, 2), (0, 2), (2, 3)], True, []),
        # two disjoint edges: the complement is a 4-cycle
        (4, [(0, 1), (2, 3)], False, [(0, 1, 2, 3)]),
        # the 5-cycle is its own complement: not chordal, yet no induced 2K2
        (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], False, []),
        # a path on five vertices: one induced 2K2, {0,1} and {3,4}
        (5, [(0, 1), (1, 2), (2, 3), (3, 4)], False, [(0, 1, 3, 4)]),
    ])
    def test_froberg_on_hand_made_lead_graphs(self, nvars, edges, linear, two_k2):
        supports = [1 << a | 1 << b for a, b in edges]
        assert ref.complement_chordal(_lead_graph(supports, nvars)) == linear
        assert _induced_2k2(_lead_graph(supports, nvars)) == two_k2
        # the reference: Hochster's formula on the edge ideal
        table = monomial_betti_table(supports, nvars)
        assert (not any(j != i + 2 for i, j in table)) == linear
        assert table.get((1, 4), 0) == len(two_k2)

    def test_minors_linear(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        assert has_linear_resolution_oracle(ideal.ring)

    def test_regular_sequence_not_linear(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        assert not has_linear_resolution_oracle(ideal.ring)

    def test_zero_ideal_linear(self):
        ideal = window_ideal(full_grid(2, 2), (3, 4))
        assert has_linear_resolution_oracle(ideal.ring)

    def test_minors_linearly_related(self):
        ideal = window_ideal(full_grid(2, 1), (0, 3))
        assert is_linearly_related_oracle(ideal)

    def test_regular_sequence_not_linearly_related(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        assert not is_linearly_related_oracle(ideal)

    def test_single_quadric_linearly_related(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        assert is_linearly_related_oracle(ideal)

    def test_deep_check_accepts_quadratic_windows(self, corpus):
        # a quadratic basis bounds the first syzygies to degrees 3 and 4
        lattices = dict(corpus)
        cases = [(full_grid(2, 2), (0, 4))] + [
            (lattices[name], w)
            for name, w in (("staircase-5x4", (0, 3)), ("grid-4x3", (0, 3)), ("poset-024", (0, 4)))
        ]
        for lat, w in cases:
            ideal = window_ideal(lat, w)
            assert ideal.ring.nvars >= 9 and len(ideal.generators) >= 5
            table = betti_numbers(ideal, _targets=[(1, 5), (1, 6)])
            assert table.get(1, 5) == table.get(1, 6) == 0

    @pytest.mark.parametrize("field", [0, 1, 4])
    def test_linear_relatedness_rejects_bad_fields(self, field):
        from hibilab.classify import classify_window

        ideal = window_ideal(full_grid(2, 2), (1, 3))
        with pytest.raises(InvalidParameter):
            is_linearly_related_oracle(ideal, field=field)
        with pytest.raises(InvalidParameter):
            classify_window(full_grid(2, 2), (1, 3), mode="oracle-only", field=field)

    def test_no_qualifying_order_is_a_precondition_failure(self, no_qualifying_order):
        from hibilab.binomials import ORDER_KINDS

        ideal = window_ideal(full_grid(2, 2), (1, 3), "rank-lex")
        flagged = replace(ideal, gb=replace(ideal.gb, quadratic=False))
        cubic = window_ideal(demo_staircase(), (1, 3), "rank-revlex")
        assert not cubic.gb.quadratic
        # a basis that is not quadratic and squarefree sends the
        # linear-relatedness oracle to the order search, which here finds no order
        for searched in (flagged, cubic):
            with pytest.raises(PreconditionFailed) as err:
                is_linearly_related_oracle(searched)
            assert err.value.details == {"orders_tried": list(ORDER_KINDS)}
        # a quadratic squarefree basis is used as given, with no search
        assert is_linearly_related_oracle(ideal) is False
        # the linear-resolution oracle reads the ring alone: it answers on both windows
        for ring in (ideal.ring, cubic.ring):
            assert has_linear_resolution_oracle(ring) is False

    @pytest.mark.parametrize("supports", [
        # the hollow triangle: the last edge meets the path in its two ends
        [0b011, 0b110, 0b101],
        # a ring of tetrahedra, each meeting the next in an edge: the last
        # meets the other two in the disjoint edges 01 and 45
        [0b001111, 0b111100, 0b110011],
    ])
    def test_a_cycle_of_simplices_does_not_glue(self, supports):
        assert not _glues(supports)
        for field in (32003, 65537):
            assert reduced_homology(_pairing_faces(supports), field)[2] == 1

    def test_a_block_that_glued_only_in_sorted_order_glues(self):
        """The block of rows (1, 3, 6, 7) and columns (2, 3, 4, 7) of the 8x8
        full window has 24 supports, which did not glue in the iteration
        order of their set, though its H~_1 is 0 by rank.  Glued in
        ascending order they do, whatever order they are given in."""
        ring = ring_for_window(full_grid(8, 8), (0, 16))
        supports = _pairing_supports(ring.index, (1, 3, 6, 7), (2, 3, 4, 7))
        assert len(supports) == 24
        assert _glues(supports) and _glues(sorted(supports, reverse=True))
        for field in (32003, 65537):
            assert not reduced_homology(_pairing_faces(supports), field).get(2)

    def test_a_block_that_does_not_glue_is_ranked(self, monkeypatch):
        """The grid-2x2 window (0, 3) is linearly related with one induced-2K2
        block, which glues, so the oracle takes no rank; with the gluing test
        refusing every block, that block reaches the rank and is found to
        have no H~_1."""
        import hibilab.betti as betti_mod

        ideal = window_ideal(full_grid(2, 2), (0, 3))
        ranked = []

        def rank(faces, field):
            ranked.append(faces)
            return reduced_homology(faces, field)

        monkeypatch.setattr(betti_mod, "reduced_homology", rank)
        assert is_linearly_related_oracle(ideal)
        assert ranked == []
        monkeypatch.setattr(betti_mod, "_glues", lambda supports: False)
        assert is_linearly_related_oracle(ideal)
        assert len(ranked) == 1

    def test_linear_implies_linearly_related(self, small_corpus):
        for name, lat in small_corpus[:8]:
            for w in all_windows(lat)[::2]:
                ideal = window_ideal(lat, w)
                if ideal.ring.nvars > 11 or not ideal.generators:
                    continue
                if has_linear_resolution_oracle(ideal.ring):
                    assert is_linearly_related_oracle(ideal), (name, w)


def test_face_count_mismatch_is_a_verification_failure(monkeypatch):
    # every walked degree is checked: the full table, a degree bound and
    # targeted entries alike
    import hibilab.betti as betti_mod

    exact = betti_mod._block_faces

    def one_face_short(*args):
        counts, faces = exact(*args)
        return counts[:-1] + [counts[-1] - 1], faces

    monkeypatch.setattr(betti_mod, "_block_faces", one_face_short)
    # 3 generators of height 2: no complete intersection, so every call walks
    ideal = window_ideal(full_grid(2, 1), (0, 3))
    assert not ref.complete_intersection(ideal)
    for bounds in ({}, {"j_max": 2}, {"_targets": [(0, 2)]}):
        with pytest.raises(VerificationFailed) as err:
            betti_numbers(ideal, **bounds)
        assert err.value.details["degree"] == 2, bounds
        assert "faces" in err.value.details, bounds


def _seed7_ideals(corpus, max_vars=7):
    ideals = [window_ideal(lat, w) for _, lat in corpus for w in all_windows(lat)]
    return [ideal for ideal in ideals if ideal.ring.nvars <= max_vars and not ideal.is_zero]


def _walked(ideals):
    """The ideals whose full table betti_numbers walks: no complete intersection."""
    return [ideal for ideal in ideals if not ref.complete_intersection(ideal)]


def test_edge_ring_dimension_matches_dimension_formula(corpus):
    # rows + columns - components of the points, against the paper's
    # dimension formula and the Krull dimension of the initial ideal
    from hibilab.betti import _edge_ring_dimension

    checked = 0
    for _, lat in corpus:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            d = _edge_ring_dimension(ideal.ring)
            assert d == dimension(lat, w), w
            if ideal.ring.nvars <= 12:
                assert d == krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars), w
            checked += 1
    assert checked == 764


def test_euler_check_catches_a_dimension_one_too_large(corpus, monkeypatch):
    # with d + 1 the walk stops one face size short of the projective
    # dimension, so a top Betti number is cut off; the face counts of the
    # sizes walked still add up, and only the Euler check sees it
    import hibilab.betti as betti_mod

    exact = betti_mod._edge_ring_dimension
    monkeypatch.setattr(betti_mod, "_edge_ring_dimension", lambda ring: exact(ring) + 1)
    ideals = _seed7_ideals(corpus)
    for ideal in ideals:
        with pytest.raises(VerificationFailed) as err:
            betti_numbers(ideal, var_cap=7)
        assert "euler" in err.value.details, ideal.ring.window
    assert len(ideals) == 116


def test_euler_check_catches_a_homology_rank_off_by_one(corpus, monkeypatch):
    # one ranked block per table reports one more H~_0, as a wrong rank of
    # its vertex or edge boundary would; the face counts do not move
    import hibilab.betti as betti_mod

    exact = betti_mod.reduced_homology
    calls = []

    def one_too_many(faces, field):
        hom = exact(faces, field)
        if not calls:
            hom[1] += 1
        calls.append(1)
        return hom

    monkeypatch.setattr(betti_mod, "reduced_homology", one_too_many)
    # a complete intersection ranks no block: its table is the Koszul complex's
    ideals = _walked(_seed7_ideals(corpus))
    for ideal in ideals:
        calls.clear()
        with pytest.raises(VerificationFailed) as err:
            betti_numbers(ideal, var_cap=7)
        assert "euler" in err.value.details, ideal.ring.window
    assert len(ideals) == 23


def test_euler_check_ties_the_core_walk_to_the_whole_ring(corpus, monkeypatch):
    # the blocks are walked over the semigroup core; a walk over one core
    # variable fewer has face counts and a core Euler sum that still agree
    # with each other, so only the Euler sum in the whole ring's terms, read
    # off the class counts of Semigroup.size, sees the variable dropped
    from hibilab.binomials import Semigroup

    ideals = [ideal for ideal in _walked(_seed7_ideals(corpus)) if ideal.ring.semigroup.free]
    for ideal in ideals:
        betti_numbers(ideal, var_cap=7)
    exact = Semigroup.core
    monkeypatch.setattr(Semigroup, "core", property(lambda semigroup: exact.func(semigroup)[1:]))
    for ideal in ideals:
        with pytest.raises(VerificationFailed) as err:
            betti_numbers(ideal, var_cap=7)
        assert "euler" in err.value.details, ideal.ring.window
    assert len(ideals) == 20


def test_hochster_bound_catches_rank_errors_that_cancel_in_euler(corpus, monkeypatch):
    # one more H~ at face sizes 2 and 3 of every ranked block with faces of
    # 4 variables, as a triangle boundary ranked one short would give: the
    # two changes cancel in the Euler sum and the face counts do not move,
    # so with the basis flagged not quadratic, which leaves no Hochster
    # table to bound them, the tables come out wrong and nothing raises;
    # with the window's quadratic squarefree basis, the entrywise bound
    # beta_{i,j}(I) <= beta_{i,j}(in I) raises on every one of them
    import sys

    import hibilab.betti as betti_mod

    ideals = _seed7_ideals(corpus, max_vars=8)
    exact = [betti_numbers(ideal, var_cap=None).entries for ideal in ideals]
    homology = betti_mod.reduced_homology

    def one_short(faces, field):
        hom = homology(faces, field)
        if faces.get(4) and sys._getframe(1).f_code.co_name == "betti_numbers":
            hom[2] = hom.get(2, 0) + 1
            hom[3] = hom.get(3, 0) + 1
        return hom

    monkeypatch.setattr(betti_mod, "reduced_homology", one_short)
    wrong = 0
    for ideal, want in zip(ideals, exact):
        unbounded = replace(ideal, gb=replace(ideal.gb, quadratic=False))
        if betti_numbers(unbounded, var_cap=None).entries == want:
            assert betti_numbers(ideal, var_cap=None).entries == want
            continue
        wrong += 1
        with pytest.raises(VerificationFailed) as err:
            betti_numbers(ideal, var_cap=None)
        details = err.value.details
        assert details.keys() == {"i", "j", "toric", "hochster"}, ideal.ring.window
        assert details["toric"] > details["hochster"], ideal.ring.window
    assert wrong == 9


def test_hochster_bound_reads_the_packed_basis_at_the_same_field():
    # the bound's Hochster table, read off the GroebnerReport's lead
    # supports, bounds the grid-2x2 full window at two primes
    ideal = window_ideal(full_grid(2, 2), (0, 4))
    nvars = ideal.ring.nvars
    for field in (32003, 65537):
        hochster = monomial_betti_table(ideal.gb.lead_supports, nvars, field=field)
        table = betti_numbers(ideal, field=field, var_cap=None)
        assert table.entries and all(v <= hochster[k] for k, v in table.entries.items())


def test_complete_intersections_take_the_koszul_complex(corpus, monkeypatch):
    # r generators of height r = nvars - d: the table is the Koszul
    # complex's, beta_{i,2i+2}(I) = C(r, i + 1), with no semigroup level
    # built, and it equals the unbounded walk of koszul_reference at both
    # primes on every seed-7 complete intersection with at most 8 variables
    # (111 windows, about 4 s on 2 vCPUs; CI checks every one with at most
    # 10 variables of seed 7, seed 11 and the 3x3 box)
    import hibilab.betti as betti_mod

    def no_walk(*args):
        raise AssertionError("a complete intersection built the Koszul levels")

    monkeypatch.setattr(betti_mod, "_semigroup_levels", no_walk)
    assert ref.complete_intersection_disagreements([lat for _, lat in corpus], max_vars=8) == (111, [])


def test_the_two_non_linear_betti_windows_are_complete_intersections(corpus):
    # the only seed-7 windows with a generator, at most 7 variables and no
    # linear resolution: two quadrics of height 2, resolved by their Koszul
    # complex in every characteristic; a degree bound cuts the table, and
    # the walk, reached by a targeted call, agrees
    lattices = dict(corpus)
    nonlinear = sorted(
        (name, (w.p, w.q)) for name, lat in corpus for w in all_windows(lat)
        if len(generators(lat, w)) <= 7 and not window_ideal(lat, w).is_zero
        and not has_linear_resolution_oracle(window_ideal(lat, w).ring)
    )
    assert nonlinear == [("grid-2x2", (1, 3)), ("staircase-028", (4, 6))]
    for name, window in nonlinear:
        ideal = window_ideal(lattices[name], window)
        assert len(ideal.generators) == 2 and ref.complete_intersection(ideal)
        for field in (32003, 65537):
            assert betti_numbers(ideal, field=field).entries == {(0, 2): 2, (1, 4): 1}
            assert betti_numbers(ideal, field=field, j_max=3).entries == {(0, 2): 2}
            walked = betti_numbers(ideal, field=field, _targets=[(0, 2), (1, 3), (1, 4)])
            assert walked.entries == {(0, 2): 2, (1, 4): 1}


def test_euler_check_guards_the_complete_intersection_route(monkeypatch):
    # the 2-minors of a 2x3 matrix: 3 generators of height 2 and a linear
    # resolution.  With d one too small the height reads 3, the window
    # passes for a complete intersection, and the closed form gives the
    # Koszul numbers {(0, 2): 3, (1, 4): 3, (2, 6): 1}; the Euler check of
    # degree 3 sees beta_{1,3} = 2 missing.  A targeted call still walks
    import hibilab.betti as betti_mod

    ideal = window_ideal(full_grid(2, 1), (0, 3))
    assert betti_numbers(ideal).entries == {(0, 2): 3, (1, 3): 2}
    exact = betti_mod._edge_ring_dimension
    monkeypatch.setattr(betti_mod, "_edge_ring_dimension", lambda ring: exact(ring) - 1)
    assert len(ideal.generators) == ideal.ring.nvars - betti_mod._edge_ring_dimension(ideal.ring)
    with pytest.raises(VerificationFailed) as err:
        betti_numbers(ideal)
    assert err.value.details.keys() == {"degree", "euler", "betti"}
    assert err.value.details["degree"] == 3
    assert betti_numbers(ideal, _targets=[(0, 2), (1, 3)]).entries == {(0, 2): 3, (1, 3): 2}


def _narrow(semigroup):
    """Repack semigroup's images one bit narrower per field, in place, with
    the top value bit of each field taken for its guard: with capacity 7,
    3 bits a field, and an entry of 4 reaches the guard bit."""
    wide = semigroup.capacity.bit_length() + 1
    width = wide - 1

    def narrow(x):
        return sum((x >> wide * f & (1 << wide) - 1) << width * f for f in range(x.bit_length() // wide + 1))

    semigroup.images = [narrow(img) for img in semigroup.images]
    semigroup.guard = reduce(or_, semigroup.images, 0) << width - 1


def test_betti_numbers_on_fields_without_a_spare_bit_fail_in_the_level_build():
    # with fields one bit narrower an entry of 4 reaches the guard bit;
    # betti_numbers stops at the level build's guard test, at the first
    # degree with an entry of 4, before any block is walked (the face counts
    # add up over the aliased ints, so the face-count check would not see it).
    # The window is walked: 3 generators of height 2, no complete intersection
    ideal = window_ideal(full_grid(2, 1), (0, 3))
    assert not ref.complete_intersection(ideal)
    assert betti_numbers(ideal).entries == {(0, 2): 3, (1, 3): 2}
    _narrow(ideal.ring.semigroup)
    with pytest.raises(VerificationFailed) as err:
        betti_numbers(ideal)
    assert err.value.details == {"degree": 4}


def test_level_build_catches_fields_without_a_spare_bit():
    # with fields one bit narrower an entry of 4 reaches the guard bit; the
    # masks come from the same additions, so only the level build's guard
    # test can see it
    ring = window_ideal(full_grid(2, 2), (1, 3)).ring
    _narrow(ring.semigroup)
    # entries up to 3 still fit
    assert len(_semigroup_levels(ring.semigroup, range(ring.nvars), 3)) == 4
    with pytest.raises(VerificationFailed) as err:
        _semigroup_levels(ring.semigroup, range(ring.nvars), 4)
    assert err.value.details == {"degree": 4}
