"""Packing on first use, and the index route to the fiber oracle's terms.

A Semigroup packs its images on first use, a read of `images` or a call of
`wide`, for entries up to 7 at least, so that the order search and the fiber
oracle share one packing and a forest, whose level sizes are closed forms,
never packs.  A counted basis (a `_Led` with codes) reaches
`binomials._fiber_terms` by variable index, through the variables `_Led`
records while it codes the binomials; the packed field walk, which
Buchberger's and interreduced bases take, is the reference it must equal
tuple for tuple, on the oracle's fields and on the zero units of the balance
check.

`_Layout.exponents` is the one walk of the packed fields: `unpack`,
`variables`, the packed walk and the `hibilab gb` view all read it.  Its
references are `pack`, a field read per variable, and the dense route of
the `gb` view: `exponents_dict` and the text of the dense tuples.
"""

import random
from types import SimpleNamespace

import pytest

import fiber_reference as fiber_ref
from hibilab.binomials import (
    ORDER_KINDS,
    Binomial,
    MonomialOrder,
    Semigroup,
    WindowRing,
    _fiber_terms,
    _Layout,
    _Led,
    order_search,
    toric_fiber_oracle,
)
from hibilab.cli import _gb
from hibilab.reports import CorpusSpec, demo_staircase, full_grid, generate_corpus
from hibilab.windows import WindowContext, all_windows
from test_order_search import _random_quadric_pairs


def _contexts(seed, max_vars=12):
    corpus = generate_corpus(CorpusSpec(seed=seed, count=40, max_m=5, max_n=4))
    for _, lat in corpus:
        for w in all_windows(lat):
            ctx = WindowContext(lat, w)
            if ctx.ring.nvars <= max_vars:
                yield ctx


def _packed_walk(source, ring, units):
    """_fiber_terms on source's basis packed, as Buchberger's basis is held."""
    led = source.led
    return _fiber_terms(SimpleNamespace(led=_Led.packed(led.order, led.elements, led.layout)), ring, units)


def _same_terms_both_routes(source, ring):
    """Whether source's basis is counted; if so, its index route must equal
    the packed walk on the oracle's degree-4 fields and on zero units, and
    pack nothing itself."""
    led = source.led
    if led.codes is None:
        return False
    width = (4).bit_length() + 1
    for units in ([1 << width * k for k in range(ring.nvars)], [0] * ring.nvars):
        packed = "elements" in vars(led)
        by_index = _fiber_terms(source, ring, units)
        assert ("elements" in vars(led)) == packed
        assert by_index == _packed_walk(source, ring, units), (ring.points, units[:1])
    return True


@pytest.mark.parametrize("seed, windows, binomials", [(7, 625, 281), (11, 678, 312)])
def test_index_route_matches_the_packed_walk_on_every_counted_basis(seed, windows, binomials):
    """Every window with at most 12 variables is decided by counting, its
    basis the generators' own _Led: the same (degree, lead, trail,
    balanced) tuples in the same order by variable index as by the packed
    walk, on the windows with a binomial and, trivially, on the others."""
    counted = nonzero = 0
    for ctx in _contexts(seed):
        ideal = ctx.ideal
        assert ideal.gb.led is ideal.led
        counted += _same_terms_both_routes(ideal, ctx.ring)
        nonzero += not ideal.is_zero
    assert (counted, nonzero) == (windows, binomials)


def test_index_route_matches_the_packed_walk_on_random_quadrics():
    """Seeded random quadric generator lists, unbalanced ones among them,
    under every order kind: the counted generators read the same by index
    as by the packed walk, balance included."""
    rng = random.Random(4242)
    unbalanced = 0
    for _ in range(400):
        ring, pairs = _random_quadric_pairs(rng)
        if any(len(t) != 2 for pair in pairs for t in pair):
            continue
        for kind in ORDER_KINDS:
            ideal = order_search(ring, pairs, kind)
            assert _same_terms_both_routes(ideal, ring)
            unbalanced += not all(ok for *_, ok in _fiber_terms(ideal, ring, [0] * ring.nvars))
    assert unbalanced > 200


def test_a_forest_certifies_without_packing():
    """The 344 forest windows of the seed-7 corpus with at most 12
    variables: their certificates equal the reference's, and their
    Semigroup is never packed on the way."""
    forests = 0
    for ctx in _contexts(7):
        semigroup = ctx.ring.semigroup
        if semigroup.free != ctx.ring.nvars:
            continue
        ideal = ctx.ideal
        cert = toric_fiber_oracle(ideal, degree=4)
        assert "images" not in vars(semigroup) and semigroup.capacity == -1
        assert cert == fiber_ref.toric_fiber_oracle(ideal.ring, ideal.generators, gb=ideal.gb, degree=4)
        forests += 1
    assert forests == 344


@pytest.fixture
def packings(monkeypatch):
    """The (semigroup, degree) of each call of Semigroup.wide that packs."""
    packs = []
    real = Semigroup.wide

    def wide(self, degree):
        if degree > self.capacity:
            packs.append((self, degree))
        return real(self, degree)

    monkeypatch.setattr(Semigroup, "wide", wide)
    return packs


def test_the_order_search_and_the_oracle_share_one_packing(packings):
    """On every seed-7 window with a cell and at most 12 variables, the
    order search's wide(2), where it packs, and the oracle's wide(4) and
    level sizes read one packing of capacity 7: exactly one packing per
    window, by the order search when it has two generators or more."""
    windows = searched = 0
    for ctx in _contexts(7):
        if ctx.ring.semigroup.free == ctx.ring.nvars:
            continue
        packings.clear()
        ideal = ctx.ideal
        by_search = len(packings)
        toric_fiber_oracle(ideal, degree=4)
        assert [self for self, _ in packings] == [ctx.ring.semigroup]
        assert by_search == (ideal.size > 1) and ctx.ring.semigroup.capacity == 7
        windows += 1
        searched += by_search
    assert (windows, searched) == (281, 186)


def test_degree_eight_packs_a_second_time(packings):
    """Past entries of 7 the oracle repacks once, wider: the grid-2x2
    window (1, 3) packs for the order search and again for degree 8."""
    ctx = WindowContext(full_grid(2, 2), (1, 3))
    cert = toric_fiber_oracle(ctx.ideal, degree=8)
    assert cert.generated and cert.gb_certified
    assert [degree for _, degree in packings] == [2, 8] and ctx.ring.semigroup.capacity == 15


@pytest.mark.parametrize("window", [(0, 2), (1, 3), (0, 4)])
def test_sizes_and_wide_work_before_any_packing(window):
    """A fresh Semigroup answers size(0), size(e) and wide(e) with nothing
    packed yet, packing for entries up to 7 at least, or e above that."""
    ring = WindowContext(full_grid(2, 2), window).ring
    plain = fiber_ref.plain_sizes(ring, 4)
    assert Semigroup(ring.points, ring.rows).size(0) == 1
    for e in (1, 2, 3, 4):
        assert Semigroup(ring.points, ring.rows).size(e) == plain[e - 1]
    for e, capacity in ((0, 7), (2, 7), (7, 7), (8, 15)):
        store = Semigroup(ring.points, ring.rows)
        assert store.capacity == -1
        assert store.wide(e) == store.images and store.capacity == capacity
    store = Semigroup(ring.points, ring.rows)
    assert store.images == Semigroup(ring.points, ring.rows).wide(2) and store.capacity == 7


def test_a_single_point_ring_packs_on_first_read():
    ring = WindowRing(m=0, n=0, window=None, points=((0, 0),))
    store = ring.semigroup
    assert store.size(3) == 1 and store.capacity == -1  # a forest
    assert store.images == [0] and store.capacity == 7


def _field_read(layout, packed):
    """The dense tuple of packed, one field read per variable, with no walk."""
    return tuple([packed // unit & layout.ones for unit in layout.units])


def test_unpack_and_variables_round_trip_through_pack():
    """Seeded random monomials, sparse and dense, under lex and revlex on a
    random significance list, at widths whose layouts exceed 61 bits:
    unpack, variables and the pairs of exponents give back what pack took,
    with exponents up to the largest value below the guard."""
    rng = random.Random(4040)
    wide = 0
    for _ in range(300):
        n, width = rng.randint(16, 48), rng.randint(3, 6)
        sig = tuple(rng.sample(range(n), n))
        layout = _Layout(MonomialOrder("random", rng.choice(("lex", "revlex")), sig), width)
        share = rng.choice((0.1, 0.5, 1.0))  # the share of nonzero exponents
        mono = tuple([rng.randint(1, layout.ones >> 1) if rng.random() < share else 0 for _ in range(n)])
        packed = layout.pack(mono)
        assert layout.unpack(packed) == mono == _field_read(layout, packed)
        assert layout.variables(packed) == sum(1 << k for k, e in enumerate(mono) if e)
        assert sorted(layout.exponents(packed)) == [(k, e) for k, e in enumerate(mono) if e]
        wide += layout.top > 61
    assert wide > 250


def _dense_record(ideal):
    """The gb view's record by the dense route: each basis element unpacked
    by field reads, its points by exponents_dict, its text over the tuple."""
    ring, gb = ideal.ring, ideal.gb
    basis = tuple([Binomial(*[_field_read(gb.layout, t) for t in pair]) for pair in gb.elements])
    assert basis == gb.basis

    def text(mono):
        parts = [f"y_{{{i}{j}}}" + (f"^{e}" if e > 1 else "") for (i, j), e in zip(ring.points, mono) if e]
        return "*".join(parts) if parts else "1"

    def points(mono):
        return sorted([list(pt), e] for pt, e in ring.exponents_dict(mono).items())

    return {"order": ideal.order.name, "quadratic": gb.quadratic, "squarefree": gb.squarefree,
            "spairs": gb.spairs_processed,
            "basis": [{"lead": points(g.lead), "trail": points(g.trail),
                       "text": f"{text(g.lead)} - {text(g.trail)}"} for g in basis]}


def test_gb_view_reads_the_packed_basis_as_the_dense_route_does():
    """On every demo staircase and seed-7 window with at most 16 variables,
    under auto and each order kind, the gb view's record, read off the
    packed ints by their pairs, equals the dense route's, on counted bases
    and on those packed by Buchberger or by interreduction."""
    lattices = [demo_staircase()] + [lat for _, lat in generate_corpus(CorpusSpec(seed=7, count=40, max_m=5, max_n=4))]
    bases = packed = 0
    for lat in lattices:
        for w in all_windows(lat):
            for kinds in ("auto",) + ORDER_KINDS:
                ctx = WindowContext(lat, w, kinds)
                if ctx.ring.nvars > 16:
                    break
                assert _gb(None, ctx, None) == _dense_record(ctx.ideal), (w, kinds)
                bases += 1
                packed += ctx.ideal.gb.led.codes is None
    assert (bases, packed) == (3620, 210)
