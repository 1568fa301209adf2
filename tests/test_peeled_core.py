"""The semigroup and the fiber oracle on the core of the row-column graph.

A point alone in its row or its column is a leaf edge of the window's
row-column graph; peeled off again and again, the leaves leave a core, and
the peeled points are free variables of the ring.  binomials.Semigroup
builds its levels over the core and lifts their sizes back, and
toric_fiber_oracle walks its moves over the variables some move holds.
Both must give what the references in fiber_reference.py give over every
variable: the level sizes of the plain build and the certificate of the
elimination oracle, record for record.
"""

from collections import Counter

import pytest

import fiber_reference
from fiber_reference import balanced, plain_sizes
from hibilab.binomials import Binomial, toric_fiber_oracle
from hibilab.errors import InvalidParameter
from hibilab.reports import CorpusSpec, full_grid, generate_corpus
from hibilab.windows import WindowContext, all_windows
from window_helpers import ring_for_window


def _peeled(points) -> list:
    """The points that peel off the row-column graph, one leaf at a time,
    found by counting each row's and each column's points."""
    core, peeled = list(points), []
    while True:
        rows, columns = Counter(i for i, _ in core), Counter(j for _, j in core)
        leaf = next((p for p in core if rows[p[0]] == 1 or columns[p[1]] == 1), None)
        if leaf is None:
            return peeled
        core.remove(leaf)
        peeled.append(leaf)


def _corpus(seed):
    return [lat for _, lat in generate_corpus(CorpusSpec(seed=seed, count=40, max_m=5, max_n=4))]


def _contexts(lattices, max_vars=12):
    for lat in lattices:
        for w in all_windows(lat):
            ctx = WindowContext(lat, w)
            if ctx.ring.nvars <= max_vars:
                yield ctx


CASES = {
    # name: (lattices, oracle degree, windows, forests, windows with a leaf on a cycle block)
    "seed-7": (lambda: _corpus(7), 4, 625, 344, 244),
    "seed-11": (lambda: _corpus(11), 4, 678, 366, 272),
    "grid-2x2": (lambda: [full_grid(2, 2)], 6, 10, 4, 2),
    "grid-3x2": (lambda: [full_grid(3, 2)], 6, 15, 5, 6),
}


@pytest.mark.parametrize("case", CASES)
def test_core_route_matches_the_references(case):
    """On every window with at most 12 variables, in the suite's order (the
    order search, then the oracle): the certificate equals the elimination
    oracle's record for record, |L_1..L_6| equal the plain build's, and
    Semigroup.core holds the points that a peel one leaf at a time leaves.
    The forests peel to an empty core, and some windows keep a cycle block
    with leaves hanging off it."""
    lattices, degree, windows, forests, hanging = CASES[case]
    seen = Counter()
    for ctx in _contexts(lattices()):
        ideal, ring = ctx.ideal, ctx.ring
        cert = toric_fiber_oracle(ideal, degree=degree)
        want = fiber_reference.toric_fiber_oracle(ring, ideal.generators, gb=ideal.gb, degree=degree)
        assert cert == want, (case, ctx.window)
        assert [ring.semigroup.size(e) for e in range(1, 7)] == plain_sizes(ring, 6), (case, ctx.window)
        peeled = len(_peeled(ring.points))
        core = {ring.points[v] for v in ring.semigroup.core}
        assert core == set(ring.points).difference(_peeled(ring.points)), (case, ctx.window)
        seen["windows"] += 1
        seen["forests"] += peeled == ring.nvars
        seen["hanging"] += 0 < peeled < ring.nvars
    assert (seen["windows"], seen["forests"], seen["hanging"]) == (windows, forests, hanging)


def test_a_balanced_binomial_holding_a_peeled_point_joins_the_core():
    """x g, for a peeled point x and a basis element g, is balanced and
    holds x.  Added to the generators it adds no span; put in the basis in
    place of g it leaves degree 2 with a standard monomial too many.  Either
    way x joins the core, of the moves or of the lead complex, and the
    certificate equals the elimination oracle's."""
    checked = 0
    for ctx in _contexts(_corpus(7), max_vars=9):
        ideal, ring = ctx.ideal, ctx.ring
        peeled = _peeled(ring.points)
        if not ideal.gb.basis or not peeled:
            continue
        x = ring.index[peeled[0]]
        g, *rest = ideal.gb.basis
        held = Binomial(*(tuple(e + (k == x) for k, e in enumerate(t)) for t in (g.lead, g.trail)))
        assert balanced(ring, held) and held.lead[x] == held.trail[x] == 1
        cases = (
            (fiber_reference.with_generators(ideal, ideal.generators + (held,)), True),
            (fiber_reference.with_basis(ideal, (*rest, held)), False),
        )
        for broken, certified in cases:
            cert = toric_fiber_oracle(broken, degree=4)
            assert cert == fiber_reference.toric_fiber_oracle(
                ring, broken.generators, gb=broken.gb, degree=4), ctx.window
            assert cert.membership_ok and cert.generated and cert.gb_certified == certified, ctx.window
        checked += 1
    assert checked == 179


def test_semigroup_size_at_degree_zero_and_below():
    """|L_0| = 1, the one empty sum, which the lift reads; a negative
    degree is a typed error."""
    ring = ring_for_window(full_grid(2, 2), (1, 3))
    assert ring.semigroup.size(1) == 7
    assert ring.semigroup.size(0) == 1
    with pytest.raises(InvalidParameter) as err:
        ring.semigroup.size(-1)
    assert err.value.details == {"degree": -1}

