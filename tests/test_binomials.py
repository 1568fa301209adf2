import random
from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

import fiber_reference
from hibilab.betti import _rank_mod_p
from hibilab.binomials import (
    Binomial,
    ORDER_KINDS,
    WindowRing,
    buchberger,
    default_budget,
    defining_ideal_generators,
    make_binomial,
    mono_deg,
    mono_mul,
    monomial_order,
    normal_form,
    require_field,
    toric_fiber_oracle,
    window_ideal,
)
from hibilab.errors import DegreeInfeasible, InvalidParameter
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from hibilab.windows import all_windows, generators


def ring_and_order(lattice, window, kind="rank-revlex"):
    ring = WindowRing.for_window(lattice, window)
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
            mm = ring.monomial_map
            for g in defining_ideal_generators(ring, order):
                assert mm.balanced(g)


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
        assert order.greater(a, b) == order.greater(mono_mul(a, u), mono_mul(b, u))

    def test_rank_lex_vs_rank_revlex_disagree_on_straightening(self):
        ring, _ = ring_and_order(full_grid(1, 1), (0, 2))
        pair = ring.monomial((1, 0), (0, 1))
        diag = ring.monomial((0, 0), (1, 1))
        assert monomial_order("rank-lex", ring).greater(diag, pair)
        assert monomial_order("rank-revlex", ring).greater(pair, diag)


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
        mm = ring.monomial_map
        assert mm.image_of_monomial(nf) == mm.image_of_monomial(m)
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
        cert = toric_fiber_oracle(ideal.ring, ideal.generators, gb=ideal.gb, degree=3)
        assert cert.membership_ok and cert.generated and cert.gb_certified

    def test_grid_band_two_binomials(self):
        ideal = window_ideal(full_grid(2, 2), (1, 3))
        cert = toric_fiber_oracle(ideal.ring, ideal.generators, gb=ideal.gb, degree=4)
        assert cert.generated and cert.gb_certified

    def test_staircase_window(self):
        ideal = window_ideal(demo_staircase(), (3, 7))
        cert = toric_fiber_oracle(ideal.ring, ideal.generators, gb=ideal.gb, degree=4)
        assert cert.generated and cert.gb_certified

    def test_fiber_counts_match_hilbert(self):
        from hibilab.betti import hilbert_function

        ideal = window_ideal(demo_staircase(), (3, 7))
        cert = toric_fiber_oracle(ideal.ring, ideal.generators, gb=ideal.gb, degree=3)
        hf = hilbert_function(ideal.gb, 3, nvars=ideal.ring.nvars)
        assert [d.fibers for d in cert.per_degree] == hf[2:]

    def test_budget_guard(self, monkeypatch):
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        ideal = window_ideal(demo_staircase(), (0, 9))
        with pytest.raises(DegreeInfeasible):
            toric_fiber_oracle(ideal.ring, ideal.generators, degree=4)

    def test_membership_detects_unbalanced(self):
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        bogus = make_binomial(
            ring.monomial((1, 0), (1, 0)), ring.monomial((0, 0), (1, 1)), order
        )
        cert = toric_fiber_oracle(ring, [bogus], degree=2)
        assert not cert.membership_ok

    def test_inhomogeneous_generator_is_a_typed_error(self):
        ring, _ = ring_and_order(full_grid(1, 1), (0, 2))
        bogus = Binomial(ring.monomial((1, 0), (0, 1)), ring.monomial((0, 0)))
        with pytest.raises(InvalidParameter):
            toric_fiber_oracle(ring, [bogus], degree=2)

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
                cert = toric_fiber_oracle(ideal.ring, ideal.generators, degree=3)
                for d in cert.per_degree:
                    assert d.span_rank == self.move_graph_rank(
                        ideal.ring.nvars, ideal.generators, d.degree
                    ), (name, w, d.degree)
                checked += 1
        assert checked >= 400
        ring, order = ring_and_order(full_grid(1, 1), (0, 2))
        bogus = make_binomial(
            ring.monomial((1, 0), (1, 0)), ring.monomial((0, 0), (1, 1)), order
        )
        cert = toric_fiber_oracle(ring, [bogus], degree=3)
        for d in cert.per_degree:
            assert d.span_rank == self.move_graph_rank(ring.nvars, [bogus], d.degree)

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
                    args = (ideal.ring, ideal.generators)
                    assert toric_fiber_oracle(*args, gb=ideal.gb, degree=degree) == (
                        fiber_reference.toric_fiber_oracle(*args, gb=ideal.gb, degree=degree)
                    ), (name, w, degree)
                windows += 1
        assert windows >= 400

    def test_counting_equals_reference_on_negative_cases(self, corpus):
        """Broken generator sets and bases: each must flip a flag, on both routes alike."""
        flipped = {"generator dropped": 0, "basis element dropped": 0,
                   "basis element unbalanced": 0, "generator unbalanced": 0}
        for name, lat in corpus:
            for w in all_windows(lat):
                if not 4 <= len(generators(lat, w)) <= 8:
                    continue
                ideal = window_ideal(lat, w)
                gens, gb = ideal.generators, ideal.gb
                if len(gens) < 2:
                    continue
                cases = {
                    "generator dropped": (gens[1:], gb),
                    "basis element dropped": (gens, replace(gb, basis=gb.basis[:-1])),
                    "basis element unbalanced": (
                        gens, replace(gb, basis=gb.basis[:-1] + (self.unbalance(gb.basis[-1]),))
                    ),
                    "generator unbalanced": ((self.unbalance(gens[0]),) + gens[1:], gb),
                }
                for case, (g, b) in cases.items():
                    cert = toric_fiber_oracle(ideal.ring, g, gb=b, degree=3)
                    ref = fiber_reference.toric_fiber_oracle(ideal.ring, g, gb=b, degree=3)
                    assert cert == ref, (name, w, case)
                    if case == "generator unbalanced":
                        assert not cert.membership_ok and not cert.generated, (name, w)
                    elif case == "generator dropped":
                        assert not cert.generated, (name, w)
                    else:
                        assert cert.membership_ok and cert.generated and not cert.gb_certified
                    flipped[case] += 1
        assert min(flipped.values()) >= 50, flipped


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
    direct = window_ideal(lat, (1, 3), kinds="rank-lex").generators
    explicit = defining_ideal_generators(ring, order)
    assert direct == tuple(explicit)
    cert = toric_fiber_oracle(ring, explicit, degree=3)
    assert cert.membership_ok and cert.generated


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
            default_budget()
        assert err.value.details == {"HIBI_LAB_BUDGET": raw}

    def test_budget_default_and_override(self, monkeypatch):
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        assert default_budget() == 200_000
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        assert default_budget() == 1000

    def test_empty_order_kinds_is_a_typed_error(self):
        with pytest.raises(InvalidParameter):
            window_ideal(full_grid(2, 2), (0, 4), kinds=())
