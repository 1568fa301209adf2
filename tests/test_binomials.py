import gc
import random
import weakref
from itertools import combinations_with_replacement, islice
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import fiber_reference
import hibilab.binomials as binomials_mod
from buchberger_reference import greater, make_binomial, mono_mul
from fiber_reference import balanced, image_of_monomial, with_basis, with_generators
from hibilab.betti import _rank_mod_p, krull_dimension_via_initial
from hibilab.binomials import (
    Binomial,
    ORDER_KINDS,
    _face_counts,
    _standard_levels,
    buchberger,
    defining_ideal_generators,
    monomial_order,
    normal_form,
    require_field,
    toric_fiber_oracle,
    window_ideal,
)
from hibilab.errors import BudgetExceeded, InvalidParameter, search_budget
from hibilab.reports import demo_staircase, ell_lattice, full_grid, lattice_from_columns
from hibilab.windows import RankWindow, WindowContext, all_windows, generators
from window_helpers import ring_for_window


def ring_and_order(lattice, window, kind="rank-revlex"):
    ring = ring_for_window(lattice, window)
    return ring, monomial_order(kind, ring)


class TestGenerators:
    def test_square_single_straightening_relation(self):
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        gens = defining_ideal_generators(ring, order)
        assert len(gens) == 1
        g = gens[0]
        assert ring.exponents_dict(g.lead) == {(1, 0): 1, (0, 1): 1}
        assert ring.exponents_dict(g.trail) == {(0, 0): 1, (1, 1): 1}

    def test_grid_band_excludes_meets_outside(self):
        ring, order = ring_and_order(full_grid(2, 2), (1, 3))
        gens = defining_ideal_generators(ring, order)
        seen = {
            tuple(sorted(ring.exponents_dict(g.lead))) for g in gens
        }
        assert seen == {((1, 1), (2, 0)), ((0, 2), (1, 1))}

    def test_ell_band(self):
        ring, order = ring_and_order(ell_lattice(), (1, 3))
        gens = defining_ideal_generators(ring, order)
        assert len(gens) == 1
        g = gens[0]
        assert ring.exponents_dict(g.lead) == {(1, 1): 1, (0, 2): 1}
        assert ring.exponents_dict(g.trail) == {(0, 1): 1, (1, 2): 1}

    def test_bijection_with_band_filtered_pairs(self):
        lat = demo_staircase()
        ring, order = ring_and_order(lat, (3, 7))
        gens = defining_ideal_generators(ring, order)
        count = 0
        pts = ring.points
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                (i, j), (k, l) = pts[a], pts[b]
                if (i - k) * (j - l) >= 0:
                    continue
                lo, hi = min(i, k) + min(j, l), max(i, k) + max(j, l)
                if 3 <= lo and hi <= 7:
                    count += 1
        assert count == len(gens) == 11

    def test_generators_balanced_under_monomial_map(self):
        for lat, w in ((demo_staircase(), (3, 7)), (full_grid(2, 2), (0, 4))):
            ring, order = ring_and_order(lat, w)
            for g in defining_ideal_generators(ring, order):
                assert balanced(ring, g)


class TestOrders:
    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_total_on_distinct_monomials(self, kind):
        ring, _ = ring_and_order(full_grid(2, 1), (0, 3))
        order = monomial_order(kind, ring)
        monos = [ring.monomial(p) for p in ring.points]
        keys = [order.key(m) for m in monos]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("kind", ORDER_KINDS)
    def test_multiplicative(self, kind):
        ring, _ = ring_and_order(full_grid(1, 1), (0, 2))
        order = monomial_order(kind, ring)
        a = ring.monomial((1, 0), (0, 1))
        b = ring.monomial((0, 0), (1, 1))
        u = ring.monomial((1, 1))
        assert greater(order, a, b) == greater(order, mono_mul(a, u), mono_mul(b, u))

    def test_rank_lex_vs_rank_revlex_disagree_on_straightening(self):
        ring, _ = ring_and_order(full_grid(1, 1), (0, 2))
        pair = ring.monomial((1, 0), (0, 1))
        diag = ring.monomial((0, 0), (1, 1))
        assert greater(monomial_order("rank-lex", ring), diag, pair)
        assert greater(monomial_order("rank-revlex", ring), pair, diag)


class TestNormalForm:
    def test_single_step(self):
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        gens = defining_ideal_generators(ring, order)
        m = ring.monomial((1, 0), (0, 1))
        assert normal_form(m, gens, order) == ring.monomial((0, 0), (1, 1))

    def test_irreducible_fixed(self):
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        gens = defining_ideal_generators(ring, order)
        m = ring.monomial((0, 0), (1, 1))
        assert normal_form(m, gens, order) == m

    def test_cubic_trace_reaches_irreducible(self):
        ring, order = ring_and_order(full_grid(2, 2), (1, 3))
        gens = defining_ideal_generators(ring, order)
        m = ring.monomial((2, 0), (1, 1), (0, 2))
        nf = normal_form(m, gens, order)
        assert nf != m
        # same toric fiber, and no further reduction applies
        assert image_of_monomial(ring, nf) == image_of_monomial(ring, m)
        assert normal_form(nf, gens, order) == nf

    def test_idempotent_on_binomials(self):
        ring, order = ring_and_order(full_grid(2, 1), (0, 3))
        gens = defining_ideal_generators(ring, order)
        gb = buchberger(gens, order)
        b = make_binomial(
            ring.monomial((2, 0), (0, 1), (1, 1)), ring.monomial((0, 0), (1, 1), (2, 1)), order
        )
        r = normal_form(b, gb.basis, order)
        if r is not None:
            assert normal_form(r, gb.basis, order) == r

    def test_basis_led_by_its_lower_degree_term_is_rejected(self):
        # reducing by y_00 -> y_11^2 could raise a monomial's degree without end
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        up = Binomial(ring.monomial((0, 0)), ring.monomial((1, 1), (1, 1)))
        with pytest.raises(InvalidParameter):
            normal_form(ring.monomial((0, 0)), [up], order)


class TestBuchberger:
    def test_single_binomial(self):
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        gens = defining_ideal_generators(ring, order)
        rep = buchberger(gens, order)
        assert len(rep.basis) == 1
        assert rep.quadratic and rep.squarefree

    def test_generic_two_by_three_minors(self):
        ring, order = ring_and_order(full_grid(2, 1), (0, 3))
        gens = defining_ideal_generators(ring, order)
        assert len(gens) == 3
        rep = buchberger(gens, order)
        assert rep.quadratic and rep.squarefree
        assert len(rep.basis) == 3

    def test_staircase_window_quadratic_under_candidates(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        assert ideal.gb.quadratic and ideal.gb.squarefree

    def test_fallback_order_found(self):
        # the straightening orders go cubic on this window; lex-style orders work
        ideal = window_ideal(demo_staircase(), (0, 7))
        assert ideal.gb.quadratic and ideal.gb.squarefree

    def test_deterministic(self):
        ring, order = ring_and_order(full_grid(2, 2), (0, 4))
        gens = defining_ideal_generators(ring, order)
        rep1 = buchberger(gens, order)
        rep2 = buchberger(list(reversed(gens)), order)
        assert rep1.basis == rep2.basis

    def test_reduced_gb_unique_per_order(self):
        lat = ell_lattice()
        ring, order = ring_and_order(lat, (0, 4), "lex")
        gens = defining_ideal_generators(ring, order)
        assert buchberger(gens, order).basis == buchberger(gens[::-1], order).basis


class TestFiberOracle:
    def test_square_hypersurface(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        cert = toric_fiber_oracle(ideal, degree=3)
        assert cert.membership_ok and cert.generated and cert.gb_certified

    def test_grid_band_two_binomials(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        cert = toric_fiber_oracle(ideal, degree=4)
        assert cert.generated and cert.gb_certified

    def test_staircase_window(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        cert = toric_fiber_oracle(ideal, degree=4)
        assert cert.generated and cert.gb_certified

    def test_fiber_counts_match_hilbert(self):
        from hibilab.betti import hilbert_function

        ideal = window_ideal(demo_staircase(), (3, 7))
        plain = fiber_reference.plain_sizes(ideal.ring, 3)  # |L_1|, |L_2|, |L_3|, not Semigroup.size
        cert = toric_fiber_oracle(ideal, degree=3)
        assert [d.fibers for d in cert.per_degree] == plain[1:]
        assert hilbert_function(ideal, 3) == [1, *plain]

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        ideal = window_ideal(demo_staircase(), (0, 9))
        with pytest.raises(BudgetExceeded):
            toric_fiber_oracle(ideal, degree=4)

    def test_budget_counts_the_core_not_the_peeled_points(self, monkeypatch):
        """A chain of 20 points has no binomial, so its move core is empty
        and no degree enumerates a monomial: degree 7, whose 657,800
        monomials exceed the default budget, certifies with the counts."""
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        ideal = window_ideal(lattice_from_columns({0: (0, 19)}), (0, 19))
        cert = toric_fiber_oracle(ideal, degree=7)
        top = cert.per_degree[-1]
        assert top.monomials == top.fibers == comb(20 + 6, 7) > search_budget()
        assert cert.generated and cert.gb_certified

    def test_a_forest_certifies_from_counts_at_any_degree(self, monkeypatch):
        """The chain of 20 points peels to no core and has no move and no
        lead, so each of the three counts takes its closed form: degree
        10,000 certifies with every record read off C(20 + e - 1, e), the
        work linear in the degree."""
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        ideal = window_ideal(lattice_from_columns({0: (0, 19)}), (0, 19))
        cert = toric_fiber_oracle(ideal, degree=10_000)
        assert [d.degree for d in cert.per_degree] == list(range(2, 10_001))
        for d in cert.per_degree:
            free = comb(20 + d.degree - 1, d.degree)
            assert (d.monomials, d.fibers, d.target_dim, d.span_rank) == (free, free, 0, 0), d.degree
            assert d.generated and d.gb_consistent, d.degree
        assert cert.membership_ok and cert.generated and cert.gb_certified

    def test_budget_counts_the_semigroup_core(self, monkeypatch):
        """Two squares joined by a path: the move core is the squares' 8
        points, but no point is a leaf, so the levels L_e are built on all
        13 and the budget counts those; degree 15 is refused at degree 9."""
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        lat = lattice_from_columns({0: (0, 1), 1: (0, 2), 2: (2, 3), 3: (3, 4), 4: (4, 5), 5: (4, 5)})
        ideal = window_ideal(lat, (0, 10))
        assert ideal.ring.nvars == 13 and ideal.ring.semigroup.free == 0
        cert = toric_fiber_oracle(ideal, degree=8)
        assert cert.generated and cert.gb_certified
        with pytest.raises(BudgetExceeded) as err:
            toric_fiber_oracle(ideal, degree=15)
        assert err.value.payload()["details"] == {"budget": search_budget(), "monomials": comb(13 + 8, 9)}

    @pytest.mark.parametrize("budget, degree, tripped", [("1000", 4, 3), ("20000", 5, 5)])
    def test_budget_trips_before_the_faces_of_its_degree(self, monkeypatch, budget, degree, tripped):
        """The budget check of degree e raises, with the payload it always had,
        before the faces of size e - 1, which count those of size e, are listed."""
        monkeypatch.setenv("HIBI_LAB_BUDGET", budget)
        ideal = window_ideal(demo_staircase(), (0, 9))  # 23 variables
        assert ideal.gb.lead_supports is not None  # the face count, not the fallback
        walked = []
        real = binomials_mod._grow_faces

        def spy(faces, *masks):
            walked.append(faces)  # one call per face size listed, from size 1 up
            return real(faces, *masks)

        monkeypatch.setattr(binomials_mod, "_grow_faces", spy)
        with pytest.raises(BudgetExceeded) as err:
            toric_fiber_oracle(ideal, degree=degree)
        monomials = comb(23 + tripped - 1, tripped)
        assert err.value.payload() == {
            "code": "budget-exceeded",
            "message": f"degree {tripped} needs {monomials} monomials",
            "details": {"budget": int(budget), "monomials": monomials},
        }
        assert len(walked) == tripped - 2

    def test_non_squarefree_leads_fall_back_to_enumeration(self):
        """A basis with a squared lead has no lead complex: its standard
        monomials are enumerated, and the certificate matches the reference.
        g^2 = lead^2 - trail^2 lies in the ideal, so the basis with it added
        is still a Groebner basis, and the basis with g replaced by it is not."""
        ideal = window_ideal(full_grid(2, 2), (0, 4))
        g = ideal.gb.basis[-1]
        square = Binomial(tuple(2 * e for e in g.lead), tuple(2 * e for e in g.trail))
        assert balanced(ideal.ring, square)
        cases = {
            "squared element added": (ideal.gb.basis + (square,), True),
            "element squared": (ideal.gb.basis[:-1] + (square,), False),
        }
        for case, (basis, certified) in cases.items():
            broken = with_basis(ideal, basis)
            assert broken.gb.lead_supports is None, case
            for degree in (3, 4):
                cert = toric_fiber_oracle(broken, degree=degree)
                assert cert == fiber_reference.toric_fiber_oracle(
                    ideal.ring, ideal.generators, gb=broken.gb, degree=degree), (case, degree)
                assert cert.generated and cert.gb_certified == certified, (case, degree)

    @staticmethod
    def bogus(ideal):
        """y_10^2 - y_00 y_11 on the square: homogeneous, its terms of two images."""
        ring = ideal.ring
        return make_binomial(ring.monomial((1, 0), (1, 0)), ring.monomial((0, 0), (1, 1)), ideal.order)

    def test_membership_detects_unbalanced(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        cert = toric_fiber_oracle(with_generators(ideal, [self.bogus(ideal)]), degree=2)
        assert not cert.membership_ok

    def test_inhomogeneous_generator_is_a_typed_error(self):
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        bogus = Binomial(ideal.ring.monomial((1, 0), (0, 1)), ideal.ring.monomial((0, 0)))
        with pytest.raises(InvalidParameter):
            toric_fiber_oracle(with_generators(ideal, [bogus]), degree=2)

    @staticmethod
    def move_graph_rank(nvars, gens, degree):
        """#monomials - #components of the degree-e move graph, by union-find."""

        def monomials(d):
            return [tuple(combo.count(k) for k in range(nvars))
                    for combo in combinations_with_replacement(range(nvars), d)]

        monos = monomials(degree)
        parent = {m: m for m in monos}

        def root(m):
            while parent[m] != m:
                m = parent[m]
            return m

        components = len(monos)
        for u in monomials(degree - 2):
            for g in gens:
                a, b = root(mono_mul(u, g.lead)), root(mono_mul(u, g.trail))
                if a != b:
                    parent[a] = b
                    components -= 1
        return len(monos) - components

    def test_span_rank_is_move_graph_rank(self, corpus):
        checked = 0
        for name, lat in corpus:
            for w in all_windows(lat):
                if len(generators(lat, w)) > 8:
                    continue
                ideal = window_ideal(lat, w)
                cert = toric_fiber_oracle(ideal, degree=3)
                for d in cert.per_degree:
                    assert d.span_rank == self.move_graph_rank(
                        ideal.ring.nvars, ideal.generators, d.degree
                    ), (name, w, d.degree)
                checked += 1
        assert checked >= 400
        ideal = window_ideal(full_grid(1, 1), (0, 2))
        bogus = self.bogus(ideal)
        cert = toric_fiber_oracle(with_generators(ideal, [bogus]), degree=3)
        for d in cert.per_degree:
            assert d.span_rank == self.move_graph_rank(ideal.ring.nvars, [bogus], d.degree)

    @staticmethod
    def unbalance(g):
        """g with its trail moved off its fiber: one variable of the trail swapped for another."""
        k = g.trail.index(max(g.trail))
        for other in range(len(g.trail)):
            trail = list(g.trail)
            trail[k] -= 1
            trail[other] += 1
            if other != k and tuple(trail) != g.lead:
                return Binomial(g.lead, tuple(trail))
        raise AssertionError(g)

    def test_counting_equals_reference(self, corpus):
        windows = 0
        for name, lat in corpus:
            for w in all_windows(lat):
                if len(generators(lat, w)) > 8:
                    continue
                ideal = window_ideal(lat, w)
                for degree in (3, 4):
                    assert toric_fiber_oracle(ideal, degree=degree) == fiber_reference.toric_fiber_oracle(
                        ideal.ring, ideal.generators, gb=ideal.gb, degree=degree), (name, w, degree)
                windows += 1
        assert windows >= 400

    def test_counting_equals_reference_on_negative_cases(self, corpus):
        """Broken generator sets and bases: each must flip a flag, on both routes alike.

        With every generator dropped there is no move, and with the basis
        dropped too no lead, so the oracle takes its closed forms for the
        span and the standard count; the window has a cell, so the fibers,
        counted from the peel and not from the generators, stay fewer than
        the monomials and generation fails."""
        flipped = {"generator dropped": 0, "basis element dropped": 0,
                   "basis element unbalanced": 0, "generator unbalanced": 0,
                   "every generator dropped": 0, "generators and basis dropped": 0}
        for name, lat in corpus:
            for w in all_windows(lat):
                points = len(generators(lat, w))
                if points > 8:
                    continue
                ideal = window_ideal(lat, w)
                gens, gb = ideal.generators, ideal.gb
                if not gens:
                    continue
                cases = {
                    "every generator dropped": with_generators(ideal, ()),
                    "generators and basis dropped": with_basis(with_generators(ideal, ()), ()),
                }
                if points >= 4 and len(gens) >= 2:
                    cases.update({
                        "generator dropped": with_generators(ideal, gens[1:]),
                        "basis element dropped": with_basis(ideal, gb.basis[:-1]),
                        "basis element unbalanced": with_basis(
                            ideal, gb.basis[:-1] + (self.unbalance(gb.basis[-1]),)),
                        "generator unbalanced": with_generators(ideal, (self.unbalance(gens[0]),) + gens[1:]),
                    })
                for case, broken in cases.items():
                    cert = toric_fiber_oracle(broken, degree=3)
                    ref = fiber_reference.toric_fiber_oracle(
                        ideal.ring, broken.generators, gb=broken.gb, degree=3)
                    assert cert == ref, (name, w, case)
                    if case == "generator unbalanced":
                        assert not cert.membership_ok and not cert.generated, (name, w)
                    elif case == "generator dropped":
                        assert not cert.generated, (name, w)
                    elif case == "every generator dropped":
                        assert cert.membership_ok and not cert.generated and cert.gb_certified, (name, w)
                    elif case == "generators and basis dropped":
                        assert cert.membership_ok and not cert.generated and not cert.gb_certified, (name, w)
                    else:
                        assert cert.membership_ok and cert.generated and not cert.gb_certified
                    flipped[case] += 1
        assert flipped["every generator dropped"] == flipped["generators and basis dropped"] == 152, flipped
        assert min(flipped.values()) >= 50, flipped


_SUPPORTS = st.integers(2, 10).flatmap(lambda nvars: st.tuples(
    st.just(nvars),
    st.lists(st.sets(st.integers(0, nvars - 1), min_size=2, max_size=3), max_size=12),
))


@settings(max_examples=200, derandomize=True)
@given(case=_SUPPORTS)
def test_face_count_matches_enumeration(case):
    """The standard monomials of squarefree leads, counted from the faces
    of the lead complex, number as many as _extend enumerates, degrees 1-5."""
    nvars, supports = case
    width = 4  # entries up to 5, and a guard
    units = [1 << width * k for k in range(nvars)]
    hi = sum(units) << width - 1
    leads = [sum(units[k] for k in support) for support in supports]
    masks = [sum(1 << k for k in support) for support in supports]
    assert list(islice(_face_counts(masks, nvars), 5)) == list(
        map(len, islice(_standard_levels(leads, units, hi, (1 << width) - 1), 1, 6)))


_MIXED_SUPPORTS = st.integers(2, 10).flatmap(lambda nvars: st.tuples(
    st.just(nvars),
    st.lists(st.sets(st.integers(0, nvars - 1), min_size=2, max_size=min(4, nvars)), max_size=12),
))


@settings(max_examples=300, derandomize=True)
@given(case=_MIXED_SUPPORTS)
def test_mask_face_walk_matches_reference_walk(case):
    """The face counts of the mask walk, which lists faces with their free
    masks and counts the top size by popcount, equal the reference walk's,
    which lists every face, for supports of sizes 2-4 mixed, degrees 1-5."""
    nvars, supports = case
    masks = [sum(1 << k for k in support) for support in supports]
    assert list(islice(_face_counts(masks, nvars), 5)) == list(
        islice(fiber_reference.face_counts(masks, nvars), 5))


def test_window_state_dies_by_refcount():
    """A WindowContext's ring and its Semigroup, once the order search, the
    Krull check and the fiber oracle have read them, are freed by reference
    counting alone: nothing they hold refers back to the ring, so no cycle
    is left for the garbage collector."""
    gc.disable()
    try:
        ctx = WindowContext(demo_staircase(), RankWindow(3, 7))
        ideal = ctx.ideal
        assert krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ctx.ring.nvars) == ctx.dimension
        cert = toric_fiber_oracle(ideal, degree=4)
        assert cert.generated and cert.gb_certified and len(ctx.ring.semigroup.sizes) == 4
        ring, store = weakref.ref(ctx.ring), weakref.ref(ctx.ring.semigroup)
        del ctx, ideal
        assert ring() is None and store() is None
    finally:
        gc.enable()


_LEADS = st.integers(1, 6).flatmap(lambda nvars: st.tuples(
    st.just(nvars),
    st.lists(st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).filter(any), max_size=6),
))


@settings(max_examples=100, derandomize=True)
@given(case=_LEADS)
def test_divided_counts_match_brute_force(case):
    """The fallback's counts, for leads that need not be squarefree, equal a
    check of every monomial of degree 1-4 against every lead.  The fiber
    certificate shows only whether a count equals |L_e|, and on these toric
    ideals a non-squarefree lead is always redundant, so no certificate
    tells a wrong fallback count from a right one."""
    nvars, leads = case
    width = 4  # entries up to 4, and a guard
    units = [1 << width * k for k in range(nvars)]
    hi = sum(units) << width - 1
    packed = [sum(e * unit for e, unit in zip(lead, units)) for lead in leads]
    brute = [
        sum(not any(all(combo.count(k) >= e for k, e in enumerate(lead)) for lead in leads)
            for combo in combinations_with_replacement(range(nvars), degree))
        for degree in range(1, 5)
    ]
    assert list(map(len, islice(_standard_levels(packed, units, hi, (1 << width) - 1), 1, 5))) == brute


def test_zero_and_principal_flags():
    ideal = window_ideal(full_grid(2, 2), (1, 2))
    assert ideal.is_zero
    ideal = window_ideal(full_grid(2, 2), (2, 4))
    assert ideal.is_principal


def test_gb_report_names_order():
    ideal = window_ideal(demo_staircase(), (3, 7), kinds="auto")
    assert ideal.order.name in ORDER_KINDS
    assert ideal.orders_tried[-1] == ideal.order.name


def test_lattice_window_call_forms():
    # the (lattice, window) entry point builds the explicit ring form
    lat = full_grid(2, 2)
    ring, order = ring_and_order(lat, (1, 3), "rank-lex")
    ideal = window_ideal(lat, (1, 3), kinds="rank-lex")
    explicit = defining_ideal_generators(ring, order)
    assert ideal.generators == tuple(explicit)
    cert = toric_fiber_oracle(with_generators(ideal, explicit), degree=3)
    assert cert.membership_ok and cert.generated and cert.gb_certified


class TestParameters:
    @pytest.mark.parametrize("field", [4, 1, 2**31, 4294967311])
    def test_field_rejected_up_front(self, field):
        with pytest.raises(InvalidParameter):
            require_field(field)

    def test_largest_field_keeps_dense_rank_exact(self):
        # rank-40 80x80 product at the largest accepted field
        p = 2**31 - 1
        assert require_field(p) == p
        rng = random.Random(5)
        left = [[rng.randrange(p) for _ in range(40)] for _ in range(80)]
        right = [[rng.randrange(p) for _ in range(80)] for _ in range(40)]
        rows = [
            {c: sum(a * b for a, b in zip(row, col)) % p for c, col in enumerate(zip(*right))}
            for row in left
        ]
        assert _rank_mod_p(rows, 80, p) == 40

    @pytest.mark.parametrize("raw", ["abc", "5", "999", "1e6", "-2000"])
    def test_budget_rejected_naming_the_value(self, monkeypatch, raw):
        monkeypatch.setenv("HIBI_LAB_BUDGET", raw)
        with pytest.raises(InvalidParameter, match=repr(raw)) as err:
            search_budget()
        assert err.value.details == {"HIBI_LAB_BUDGET": raw}

    def test_budget_default_and_override(self, monkeypatch):
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        assert search_budget() == 200_000
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        assert search_budget() == 1000

    def test_empty_order_kinds_is_a_typed_error(self):
        with pytest.raises(InvalidParameter):
            window_ideal(full_grid(2, 2), (0, 4), kinds=())
