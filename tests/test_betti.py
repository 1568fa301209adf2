import time
from math import comb

import pytest

import koszul_reference as ref
from hibilab.betti import (
    betti_numbers,
    has_linear_resolution_oracle,
    hilbert_function,
    is_linearly_related_oracle,
    krull_dimension_via_initial,
    monomial_betti_table,
    reduced_homology,
    standard_monomial_basis,
    _block_faces,
    _complement_chordal,
    _has_apex,
    _induced_2k2,
    _lead_graph,
    _Packing,
    _semigroup_levels,
    _settled,
)
from hibilab.binomials import WindowRing, monomial_order, window_ideal
from hibilab.errors import (
    BudgetExceeded,
    CapExceeded,
    DegreeInfeasible,
    InvalidParameter,
    PreconditionFailed,
    VerificationFailed,
)
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from hibilab.windows import all_windows, dimension, generators


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

    def test_grid_5x5_full_window(self):
        ideal = window_ideal(full_grid(5, 5), (0, 10))
        krull = krull_dimension_via_initial(ideal.gb, nvars=ideal.ring.nvars)
        assert krull == dimension(full_grid(5, 5), (0, 10)) == 11

    def test_search_budget(self, monkeypatch):
        # disjoint triangles of edges: the packing bound (one edge each) stays
        # below the optimum (two vertices each), so the search has to branch
        triangles = 8
        nvars = 3 * triangles
        leads = []
        for k in range(triangles):
            for a, b in ((0, 1), (1, 2), (0, 2)):
                lead = [0] * nvars
                lead[3 * k + a] = lead[3 * k + b] = 1
                leads.append(tuple(lead))
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        assert krull_dimension_via_initial(leads, nvars=nvars) == triangles
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as err:
            krull_dimension_via_initial(leads, nvars=nvars)
        assert err.value.details == {"budget": 1000, "nodes": 1001}

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

    @pytest.mark.parametrize("field", [32003, 65537])
    def test_grid_2x2_full_window(self, field):
        ideal = window_ideal(full_grid(2, 2), (0, 4))
        table = betti_numbers(ideal.ring, ideal.generators, field=field)
        assert table.entries == {(0, 2): 9, (1, 3): 16, (2, 4): 9, (3, 6): 1}

    def test_zero_ideal_empty_table(self):
        ideal = window_ideal(full_grid(2, 2), (1, 2))
        table = betti_numbers(ideal.ring, ideal.generators)
        assert table.entries == {}

    def test_truncated_table_claims_no_zero_ideal(self):
        # grid-1x1's ideal is one quadric; below degree 2 its table is empty
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        table = betti_numbers(ideal.ring, ideal.generators, j_max=1)
        assert table.entries == {}
        assert table.format_text() == "empty Betti table"

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
    def test_semigroup_membership_matches_levels(self):
        # the L-shaped window misses box points, so some candidates fall outside
        ring = window_ideal(ell_lattice(), (0, 4)).ring
        levels = ref.semigroup_levels(ring, 4)
        packing = _Packing(ring, 4)
        pack = packing.pack
        member = _semigroup_levels(packing, 4)
        units = [
            tuple(int(c in (i, ring.m + 1 + j)) for c in range(ring.m + ring.n + 2))
            for i in range(ring.m + 1) for j in range(ring.n + 1)
        ]
        outside = 0
        for k in range(1, 5):
            for q in levels[k - 1]:
                for unit in units:
                    vec = tuple(x + y for x, y in zip(q, unit))
                    assert (pack(vec) in member[k]) == (vec in levels[k]), (k, vec)
                    outside += vec not in levels[k]
        assert outside > 0

    def test_koszul_piece_dimensions_tie_to_hilbert(self):
        # sum of block face counts at size s equals C(nvars, s) * HF(j - s)
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        ring = ideal.ring
        j = 4
        packing = _Packing(ring, j)
        levels = _semigroup_levels(packing, j)
        hf = hilbert_function(ideal.gb, j, nvars=ring.nvars)
        totals = {}
        for b in levels[j]:
            counts, _ = _block_faces(packing, b, j, levels, j)
            for s, count in enumerate(counts):
                totals[s] = totals.get(s, 0) + count
        for s, total in totals.items():
            assert total == comb(ring.nvars, s) * hf[j - s]

    def test_packed_levels_match_tuple_levels(self):
        for lat, w in ((ell_lattice(), (0, 4)), (full_grid(2, 2), (0, 4))):
            ring = window_ideal(lat, w).ring
            packing = _Packing(ring, 6)
            packed = _semigroup_levels(packing, 6)
            for k, level in enumerate(ref.semigroup_levels(ring, 6)):
                assert {packing.pack(vec) for vec in level} == packed[k], (w, k)

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
        assert _has_apex(faces, max_size) == apex

    def test_cone_block_skipped_and_koszul_block_kept(self):
        # grid-2x2, window (1, 3): two quadrics in 7 variables forming a
        # regular sequence; the (1, 4) Koszul block sits at the multidegree
        # of the product of their leads and has homology 1
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        ring, leads = ideal.ring, ideal.gb.leads
        packing = _Packing(ring, 4)
        levels = _semigroup_levels(packing, 4)
        product = tuple(x + y for x, y in zip(*leads))
        b = packing.pack(ring.monomial_map.image_of_monomial(product))
        counts, faces = _block_faces(packing, b, 4, levels, 3)
        assert faces is not None and counts == [1, 7, 17, 13]
        assert reduced_homology(faces, 32003)[2] == 1
        # a block that is no simplex but a cone from one vertex
        cones = 0
        ref_levels = ref.semigroup_levels(ring, 4)
        for vec in ref_levels[4]:
            ref_faces = ref.block_faces(ring, vec, 4, ref_levels, 4)
            counts, faces = _block_faces(packing, packing.pack(vec), 4, levels, 4)
            if faces is None and sum(counts) != 2 ** len(ref_faces[1]):
                assert not any(ref.reduced_homology(ref_faces, 32003).values())
                cones += 1
        assert cones > 0

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

    def test_degrees_stop_at_nvars(self):
        # a squarefree initial ideal has no Betti numbers past nvars
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        t0 = time.perf_counter()
        table = betti_numbers(ideal.ring, ideal.generators, j_max=32)
        assert time.perf_counter() - t0 < 1.0
        full = betti_numbers(ideal.ring, ideal.generators)
        assert table.entries == full.entries == {(0, 2): 2, (1, 4): 1}
        assert (table.i_max, table.j_max, table.nvars) == (7, 32, 7)

    def test_var_cap(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        with pytest.raises(CapExceeded):
            betti_numbers(ideal.ring, ideal.generators, var_cap=12)

    def test_caps_and_budgets_name_the_value_that_tripped(self, monkeypatch):
        import hibilab.betti as betti_mod
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
        monkeypatch.setattr(betti_mod, "_BLOCK_CAP", 1)
        with pytest.raises(CapExceeded) as err:
            betti_numbers(small.ring, small.generators)
        assert err.value.details["cap"] == 1 and err.value.details["faces"] > 1
        # degree 4 of 14 variables has C(17, 4) = 2380 monomials
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(DegreeInfeasible) as err:
            toric_fiber_oracle(ring, gens, degree=4)
        assert err.value.details == {"budget": 1000, "monomials": comb(14 + 4 - 1, 4)}
        with pytest.raises(BudgetExceeded) as err:
            standard_monomial_basis(ideal.gb, ring.nvars, 4)
        assert err.value.details == {"budget": 1000, "monomials": 2380}

    def test_non_toric_input_rejected(self):
        from hibilab.binomials import make_binomial

        ring = WindowRing.for_window(full_grid(1, 1), (0, 2))
        order = monomial_order("rank-lex", ring)
        bogus = make_binomial(
            ring.monomial((1, 0), (1, 0)), ring.monomial((0, 0), (1, 1)), order
        )
        with pytest.raises(InvalidParameter):
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

    def test_subset_loop_budget(self, monkeypatch):
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        # 30 variables, 28 of them in some lead support: 2^28 subsets
        ideal = window_ideal(full_grid(5, 4), (0, 9))
        with pytest.raises(BudgetExceeded) as err:
            monomial_betti_table(ideal.gb.leads, ideal.ring.nvars)
        assert err.value.details == {"budget": 200_000, "masks": 1 << 28}

    def test_degree_bound_restricts_full_table(self, corpus):
        checked = 0
        for name, lat in corpus:
            for w in all_windows(lat):
                if len(generators(lat, w)) > 10:
                    continue
                ideal = window_ideal(lat, w)
                full = monomial_betti_table(ideal.gb.leads, ideal.ring.nvars)
                low = monomial_betti_table(ideal.gb.leads, ideal.ring.nvars, j_max=4)
                assert low == {k: v for k, v in full.items() if k[1] <= 4}, (name, w)
                checked += low != full
        assert checked > 0

    def test_degree_bound_budget_counts_enumerated_subsets(self, monkeypatch):
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        # 20 variables, 18 of them in some lead support: 2^18 subsets of the
        # support union, 4048 of them with at most 4 elements
        ideal = window_ideal(full_grid(4, 3), (0, 7))
        leads, nvars = ideal.gb.leads, ideal.ring.nvars
        assert nvars == 20
        with pytest.raises(BudgetExceeded):
            monomial_betti_table(leads, nvars)
        table = monomial_betti_table(leads, nvars, j_max=4)
        assert table[(0, 2)] == len(leads)
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as err:
            monomial_betti_table(leads, nvars, j_max=4)
        assert err.value.details == {"budget": 1000, "masks": sum(comb(18, k) for k in range(5))}

    def test_bounds_toric_table_entrywise(self):
        for lat, w in ((full_grid(2, 2), (0, 4)), (ell_lattice(), (0, 4))):
            ideal = window_ideal(lat, w)
            mono = monomial_betti_table(ideal.gb.leads, ideal.ring.nvars)
            toric = betti_numbers(ideal.ring, ideal.generators)
            for key, value in toric.entries.items():
                assert mono.get(key, 0) >= value, (w, key)


class TestOracles:
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
        leads = [tuple(int(v in e) for v in range(nvars)) for e in edges]
        assert _complement_chordal(_lead_graph(leads, nvars)) == linear
        assert _induced_2k2(_lead_graph(leads, nvars)) == two_k2
        # the reference: Hochster's formula on the edge ideal
        table = monomial_betti_table(leads, nvars)
        assert (not any(j != i + 2 for i, j in table)) == linear
        assert table.get((1, 4), 0) == len(two_k2)

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
            table = betti_numbers(ideal.ring, ideal.generators, _targets=[(1, 5), (1, 6)])
            assert table.get(1, 5) == table.get(1, 6) == 0

    @pytest.mark.parametrize("field", [0, 1, 4])
    def test_linear_relatedness_rejects_bad_fields(self, field):
        from hibilab.classify import classify_window

        ideal = window_ideal(full_grid(2, 2), (1, 3))
        with pytest.raises(InvalidParameter):
            is_linearly_related_oracle(ideal.ring, ideal.generators, field=field)
        with pytest.raises(InvalidParameter):
            classify_window(full_grid(2, 2), (1, 3), mode="oracle-only", field=field)

    def test_no_qualifying_order_is_a_precondition_failure(self, no_qualifying_order):
        from hibilab.binomials import ORDER_KINDS

        ideal = window_ideal(full_grid(2, 2), (1, 3))
        cubic = window_ideal(demo_staircase(), (1, 3), "rank-revlex")
        assert not cubic.gb.quadratic
        for oracle in (has_linear_resolution_oracle, is_linearly_related_oracle):
            for ring, gens, gb in (
                (ideal.ring, ideal.generators, None),
                (cubic.ring, cubic.generators, cubic.gb),
            ):
                with pytest.raises(PreconditionFailed) as err:
                    oracle(ring, gens, gb=gb)
                assert err.value.details == {"orders_tried": list(ORDER_KINDS)}
            # a quadratic squarefree basis is used as given, with no search
            assert oracle(ideal.ring, ideal.generators, gb=ideal.gb) is False

    def test_linear_implies_linearly_related(self, small_corpus):
        for name, lat in small_corpus[:8]:
            for w in all_windows(lat)[::2]:
                ideal = window_ideal(lat, w)
                if ideal.ring.nvars > 11 or not ideal.generators:
                    continue
                if has_linear_resolution_oracle(ideal.ring, ideal.generators, gb=ideal.gb):
                    assert is_linearly_related_oracle(ideal.ring, ideal.generators), (name, w)


def test_face_count_mismatch_is_a_verification_failure(monkeypatch):
    import hibilab.betti as betti_mod

    exact = betti_mod._block_faces

    def one_face_short(*args):
        counts, faces = exact(*args)
        return counts[:-1] + [counts[-1] - 1], faces

    monkeypatch.setattr(betti_mod, "_block_faces", one_face_short)
    ideal = window_ideal(full_grid(1, 1), (0, 2))
    with pytest.raises(VerificationFailed) as err:
        betti_numbers(ideal.ring, ideal.generators)
    assert err.value.details["degree"] == 2


def test_face_count_check_catches_fields_without_a_spare_bit(monkeypatch):
    # with w = top.bit_length() bits an entry equal to top reaches the guard
    # bit and carries into the next field, so remainders alias and faces go
    # missing; the old per-block Euler check could not see this
    import hibilab.betti as betti_mod

    def narrow(self, ring, top):
        width = top.bit_length()
        self.shifts = tuple(range(0, width * (ring.m + ring.n + 2), width))
        self.guard = sum(1 << (shift + width - 1) for shift in self.shifts)
        self.images = tuple(self.pack(img) - self.guard for img in ring.monomial_map.images)

    ideal = window_ideal(full_grid(2, 2), (1, 3))
    assert betti_numbers(ideal.ring, ideal.generators).entries == {(0, 2): 2, (1, 4): 1}
    monkeypatch.setattr(betti_mod._Packing, "__init__", narrow)
    with pytest.raises(VerificationFailed):
        betti_numbers(ideal.ring, ideal.generators)
