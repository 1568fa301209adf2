"""The counting order search against Buchberger under every order.

`buchberger_reference.order_search` runs Buchberger under each candidate
order in turn, as the search did before orders were decided by counting
standard monomials against the semigroup levels.  The package's search must
give the same order, generators, basis, flags, S-pair count and orders
tried, on every seed-7 window under `auto` and under each single kind, on
built cases where counting cannot decide, on built rings where a trail is a
lead and the led generators must be interreduced, and on the windows whose
leads share no variable, which need no semigroup level.  Both searches take
the generators' terms as sparse tuples of variable indices.

`order_search_reference.order_search` is the packed route the search took
before it led and counted on variable indices; the package's WindowIdeal
must equal it in every field on every seed-7, seed-11 and 3x3-box window
and on seeded random generator lists under every order kind.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

import buchberger_reference as ref
import order_search_reference as search_ref
from fiber_reference import degree_monomials, image_of_monomial, plain_sizes, semigroup_points
import hibilab.binomials as binomials_mod
import hibilab.errors as errors_mod
from hibilab.binomials import (
    ORDER_KINDS,
    Binomial,
    Semigroup,
    WindowRing,
    _Layout,
    _lead_graph_counts,
    _oriented,
    _straightening_pairs,
    _width,
    buchberger,
    monomial_order,
    order_search,
    window_ideal,
)
from hibilab.errors import DegreeInfeasible, InvalidParameter, VerificationFailed
from hibilab.reports import CorpusSpec, demo_staircase, full_grid, generate_corpus
from hibilab.windows import all_windows
from window_helpers import ring_for_window, sparse_term

SEARCHES = ("auto",) + ORDER_KINDS


def _answer(found):
    """What a search answers, with the generators and basis unpacked."""
    order, report = found.order, found.gb
    return (order.name, order.sig, tuple(found.generators), report.basis, report.quadratic,
            report.squarefree, report.spairs_processed, found.orders_tried)


def _passes(report):
    return report.quadratic and report.squarefree


@pytest.fixture
def buchberger_calls(monkeypatch):
    """(order kind, generator count) of each buchberger call the package makes."""
    calls = []
    real = binomials_mod.buchberger

    def spy(gens, order):
        gens = tuple(gens)
        calls.append((order.name, len(gens)))
        return real(gens, order)

    monkeypatch.setattr(binomials_mod, "buchberger", spy)
    return calls


def _windows(lattices, max_vars=None):
    for lat in lattices:
        for w in all_windows(lat):
            ring = ring_for_window(lat, w)
            if max_vars is None or ring.nvars <= max_vars:
                yield ring, _straightening_pairs(ring)


def test_counting_search_matches_buchberger_on_every_seed7_window(corpus, buchberger_calls):
    checked = skipped = fallbacks = 0
    for ring, pairs in _windows(lat for _, lat in corpus):
        for kinds in SEARCHES:
            buchberger_calls.clear()
            found = order_search(ring, pairs, kinds)
            assert _answer(found) == _answer(ref.order_search(ring, pairs, kinds))
            gens, report, tried = found.generators, found.gb, found.orders_tried
            multi = [kind for kind, size in buchberger_calls if size > 1]
            if kinds == "auto":
                # no window with two generators or more reaches the S-pair loop
                assert multi == []
                skipped += len(tried) > 1
            else:
                # a single order does only when it fails
                assert len(multi) == (len(gens) > 1 and not _passes(report))
                fallbacks += len(multi)
            checked += 1
    # 17 windows skip a cubic order under auto; 264 single-order runs fail
    assert (checked, skipped, fallbacks) == (5 * 764, 17, 264)


def _square_trail(ring, pairs, kind):
    """pairs with the trail of the first generator under kind replaced by the
    square of the least variable: the lead and so the lead graph stay, and
    the generator is no longer balanced."""
    order = monomial_order(kind, ring)
    first = _oriented(pairs, order)[0]
    lead, trail = sparse_term(first.lead), sparse_term(first.trail)
    least = order.sig[-1]
    return [(lead, (least, least))] + [p for p in pairs if set(p) != {lead, trail}]


def _coprime_leads(ring, pairs, kind):
    """Whether no two leads of the generators led under kind share a variable."""
    supports = [{k for k, e in enumerate(g.lead) if e}
                for g in _oriented(pairs, monomial_order(kind, ring))]
    return sum(map(len, supports)) == len(set().union(*supports))


def test_search_falls_back_where_counting_cannot_decide(corpus, buchberger_calls):
    dropped = unbalanced = grew = coprime = 0
    for ring, pairs in _windows((lat for _, lat in corpus), max_vars=10):
        if len(pairs) < 3:
            continue
        cases = [("dropped", pairs[1:], kinds) for kinds in SEARCHES]
        cases += [("unbalanced", _square_trail(ring, pairs, kind), kinds)
                  for kind in ORDER_KINDS for kinds in ("auto", kind)]
        for name, tampered, kinds in cases:
            buchberger_calls.clear()
            found = order_search(ring, tampered, kinds)
            want = ref.order_search(ring, tampered, kinds)
            assert _answer(found) == _answer(want)
            # no order is decided by counting: Buchberger runs under each one
            # tried, except where the generators are balanced quadrics and no
            # two leads share a variable
            ran = [kind for kind in found.orders_tried
                   if name == "unbalanced" or not _coprime_leads(ring, tampered, kind)]
            assert [kind for kind, _ in buchberger_calls] == ran
            coprime += len(ran) < len(found.orders_tried)
            dropped += name == "dropped"
            if name == "unbalanced":
                unbalanced += 1
                # the lead graph is the original one, but Buchberger adds an
                # element: counts that skipped the balance check would be wrong
                grew += {g.lead for g in want.gb.basis} != {g.lead for g in want.generators}
    assert (dropped, unbalanced) == (490, 784) and grew > 700 and coprime


def _shared_fiber_pairs(rng):
    """A ring whose points may repeat, and pairs of squarefree quadrics with
    one image: a path x - y, y - z through a fiber of three or more, and
    maybe one pair from another fiber.  With distinct points a quadric's
    fiber has at most two monomials, so no trail of a window's generators
    is another generator's lead; a repeated point makes larger fibers, where
    a trail can be a lead."""
    grid = [(i, j) for i in range(3) for j in range(3)]
    while True:
        points = tuple(sorted(rng.choice(grid) for _ in range(rng.randint(4, 8))))
        ring = WindowRing(m=2, n=2, window=None, points=points)
        images = ring.semigroup.images
        fibers = {}
        for a, b in combinations(range(ring.nvars), 2):
            fibers.setdefault(images[a] + images[b], []).append((a, b))
        large = [fiber for fiber in fibers.values() if len(fiber) >= 3]
        if large:
            break
    x, y, z = rng.sample(rng.choice(large), 3)
    pairs = [(x, y), (y, z)]
    for fiber in rng.sample(list(fibers.values()), rng.randint(0, 1)):
        if len(fiber) >= 2:
            pairs.append(tuple(rng.sample(fiber, 2)))
    return ring, pairs


def test_interreduction_runs_where_a_trail_is_a_lead(buchberger_calls, monkeypatch):
    """Built cases decided without Buchberger whose led generators are not
    yet reduced, because a trail is a lead: the search must interreduce
    them.  Where no trail is a lead, it must not."""
    real = binomials_mod._interreduce
    interreduced = []

    def spy(items, layout):
        interreduced.append(items)
        return real(items, layout)

    monkeypatch.setattr(binomials_mod, "_interreduce", spy)
    rng = random.Random(1618)
    counted = trail_is_lead = 0
    for _ in range(1500):
        ring, pairs = _shared_fiber_pairs(rng)
        for kinds in SEARCHES:
            want = ref.order_search(ring, pairs, kinds)  # its Buchberger interreduces too
            interreduced.clear()
            buchberger_calls.clear()
            found = order_search(ring, pairs, kinds)
            assert _answer(found) == _answer(want)
            if buchberger_calls:
                continue
            led = found.elements
            leads = {lead for lead, _ in led}
            if any(trail in leads for _, trail in led):
                assert interreduced and found.gb.elements != led
                trail_is_lead += 1
            else:
                assert interreduced == [] and found.gb.elements == led
            counted += 1
    assert (counted, trail_is_lead) == (964, 491)


def test_coprime_leads_build_no_semigroup_level(corpus, buchberger_calls):
    """Under rank-lex, 45 of the 186 seed-7 windows with at most 12 variables
    and two generators or more have pairwise coprime leads: they are decided
    with 0 S-pairs and no |L_2|, |L_3| build, and the others build them."""
    windows = coprime = 0
    for ring, pairs in _windows((lat for _, lat in corpus), max_vars=12):
        if len(pairs) < 2:
            continue
        buchberger_calls.clear()
        found = order_search(ring, pairs, "rank-lex")
        assert _answer(found) == _answer(ref.order_search(ring, pairs, "rank-lex"))
        windows += 1
        if _coprime_leads(ring, pairs, "rank-lex"):
            assert ring.semigroup.sizes == [ring.nvars] and found.gb.spairs_processed == 0
            assert _passes(found.gb) and buchberger_calls == []
            coprime += 1
        else:
            assert len(ring.semigroup.sizes) == 3
    assert (windows, coprime) == (186, 45)


def test_counted_orders_are_not_held_to_the_spair_budget(monkeypatch, buchberger_calls):
    """The S-pair budget holds for the pairs Buchberger processes: an order
    decided by counting reports its lead pairs sharing a variable and
    answers past the budget, where Buchberger on the same generators stops."""
    monkeypatch.setattr(errors_mod, "SPAIR_LIMIT", 5)
    found = window_ideal(full_grid(3, 3), (0, 6))
    assert buchberger_calls == [] and _passes(found.gb) and found.gb.spairs_processed > 5
    with pytest.raises(DegreeInfeasible) as err:
        buchberger(found.generators, found.order)
    assert err.value.details == {"budget": 5, "spairs": 6}


@pytest.mark.parametrize("lattice, kind, failing", [
    (demo_staircase(), "rank-lex", 8),
    (full_grid(5, 4), "rank-revlex", 21),
])
def test_orders_with_a_cubic_basis_run_buchberger(lattice, kind, failing, buchberger_calls):
    # no candidate certifies, so no order may be skipped: each failing
    # window runs Buchberger, and every passing one is decided by counting
    fails = 0
    for ring, pairs in _windows([lattice]):
        buchberger_calls.clear()
        found = order_search(ring, pairs, kind)
        assert _answer(found) == _answer(ref.order_search(ring, pairs, kind))
        multi = [size for _, size in buchberger_calls if size > 1]
        assert len(multi) == (not _passes(found.gb))
        fails += not _passes(found.gb)
    assert fails == failing


def _ring(nvars):
    return WindowRing(m=nvars, n=0, window=None, points=tuple((k, 0) for k in range(nvars)))


def test_lead_graph_counts_match_enumeration():
    """The counts on the leads' variables, and the reference's on packed
    leads, equal the standard monomials enumerated, and both refuse a
    repeated lead and a square."""
    rng = random.Random(2718)
    for _ in range(400):
        nvars = rng.randint(1, 12)
        order = monomial_order(rng.choice(ORDER_KINDS), _ring(nvars))
        layout = _Layout(order, _width(2))
        density = rng.random()
        edges = [e for e in combinations(range(nvars), 2) if rng.random() < density]
        led = [(layout.pack(tuple(int(k in e) for k in range(nvars))), 0) for e in edges]

        def standard(degree):
            return sum(
                not any(set(e) <= set(combo) for e in edges)
                for combo in combinations_with_replacement(range(nvars), degree)
            )

        overlaps = sum(bool(set(e) & set(f)) for e, f in combinations(edges, 2))
        want = (standard(2), standard(3), overlaps)
        assert _lead_graph_counts(edges, nvars) == search_ref._lead_graph_counts(led, layout) == want
        if edges:
            assert _lead_graph_counts(edges + edges[:1], nvars) is None  # a repeated lead
            assert search_ref._lead_graph_counts(led + led[:1], layout) is None
        assert _lead_graph_counts(edges + [(0, 0)], nvars) is None  # a square
        square = layout.pack(tuple(2 * (k == 0) for k in range(nvars)))
        assert search_ref._lead_graph_counts(led + [(square, 0)], layout) is None


def test_semigroup_levels_match_tuple_images(small_corpus):
    checked = 0
    for ring, _ in _windows((lat for _, lat in small_corpus), max_vars=10):
        levels = semigroup_points(ring.semigroup.images)
        for degree in (1, 2, 3, 4):
            images = {image_of_monomial(ring, m) for m in degree_monomials(ring.nvars, degree, 10**6)}
            assert len(next(levels)) == ring.semigroup.size(degree) == len(images)
        checked += 1
    assert checked == 220


@pytest.mark.parametrize("seed, windows", [(7, 764), (11, 825)])
def test_level_split_by_largest_row_matches_plain_build(seed, windows):
    """The level sizes split by largest row equal the plain build's, every
    point of L_(e-1) plus every whole image, at L_1..L_4 on every window of
    the seed-7 and seed-11 corpora (up to 30 variables)."""
    corpus = generate_corpus(CorpusSpec(seed=seed, count=40, max_m=5, max_n=4))
    checked = 0
    for ring, _ in _windows(lat for _, lat in corpus):
        assert [ring.semigroup.size(e) for e in range(1, 5)] == plain_sizes(ring, 4), ring.points
        checked += 1
    assert checked == windows


def _narrow(ring):
    """A fresh Semigroup of the ring packed for entries up to 3, as if the
    first caller had asked for no more: its first packing holds entries up
    to least, 7 unless lowered, so the helper lowers it to 3 and packs."""
    store = Semigroup(ring.points, ring.rows)
    store.least = 3
    store.wide(3)
    assert store.capacity == 3
    return store


@pytest.mark.parametrize("seed, windows", [(7, 625), (11, 678)])
def test_store_sizes_in_either_order_match_plain_build(seed, windows):
    """On every window with at most 12 variables, the store's |L_1..L_5|
    equal the plain build's when asked in the suite's order, L_1..L_3 (the
    order search) and then L_4, L_5 (the fiber oracle), from a packing of
    entries up to 3 that L_4 must widen, and when asked from L_5 down.  A
    forest is counted in closed form, C(n + e - 1, e), and is never
    repacked."""
    corpus = generate_corpus(CorpusSpec(seed=seed, count=40, max_m=5, max_n=4))
    checked = 0
    for ring, _ in _windows((lat for _, lat in corpus), max_vars=12):
        plain = plain_sizes(ring, 5)
        narrow = _narrow(ring)
        suite_order = [narrow.size(e) for e in (1, 2, 3)]
        suite_order += [narrow.size(e) for e in (4, 5)]
        assert narrow.capacity == (3 if narrow.free == ring.nvars else 7)
        reverse = [ring.semigroup.size(e) for e in (5, 4, 3, 2, 1)][::-1]
        assert suite_order == reverse == plain, ring.points
        checked += 1
    assert checked == windows


def test_too_narrow_packing_is_a_verification_failure():
    """A packing whose fields hold entries up to 3 but claims 7: L_4 carries
    into a guard bit, and the level build raises naming degree 4."""
    ring = ring_for_window(full_grid(2, 2), (1, 3))
    store = _narrow(ring)
    store.capacity = 7
    assert store.size(3) == plain_sizes(ring, 3)[-1]
    with pytest.raises(VerificationFailed) as err:
        store.size(4)
    assert err.value.details == {"degree": 4}


def test_zero_ideal_builds_no_layout(monkeypatch):
    """A single generator, either way round or cancelling, gives the
    reference's packed report with no S-pair; the zero ideal's search and
    report build no layout, no reducer and no Buchberger run."""
    ideal = window_ideal(full_grid(2, 2), (2, 4))
    (g,) = ideal.generators
    for kind in ORDER_KINDS:
        order = monomial_order(kind, ideal.ring)
        for gens in ([g], [Binomial(g.trail, g.lead)], [Binomial(g.lead, g.lead)]):
            report = buchberger(gens, order)
            want = ref.buchberger(gens, order)
            assert (report.elements, report.quadratic, report.squarefree, report.spairs_processed) == (
                want.elements, want.quadratic, want.squarefree, 0)
            assert report.basis == want.basis

    def built(*args):
        raise AssertionError("built for the zero ideal")

    for name in ("_Layout", "Reducer", "_buchberger"):
        monkeypatch.setattr(binomials_mod, name, built)
    zero = window_ideal(full_grid(2, 2), (3, 4))
    assert zero.is_zero and zero.generators == zero.gb.basis == () and zero.gb.lead_supports == ()
    for kind in ORDER_KINDS:
        report = buchberger([], monomial_order(kind, zero.ring))
        assert (report.elements, report.layout, report.spairs_processed) == ((), None, 0)


def _fields(found):
    """Every field of a search's answer, packed generators and basis in order."""
    gb = found.gb
    return (found.order.name, found.order.sig, tuple(found.orders_tried), found.elements,
            gb.elements, gb.quadratic, gb.squarefree, gb.spairs_processed, gb.lead_supports)


def _matches_the_packed_route(ring, pairs, kinds):
    """The index route's WindowIdeal equals the packed reference's in every
    field, and a counted basis shared with the generators is read (flags,
    sizes, lead supports) without being packed.  Whether it was shared."""
    found = order_search(ring, pairs, kinds)
    want = search_ref.order_search(ring, pairs, kinds)
    shared = found.gb.led is found.led
    supports = found.gb.lead_supports
    assert (found.size, found.gb.size) == (len(want.elements), len(want.gb.elements))
    assert found.is_zero == (not want.elements) and found.is_principal == (len(want.elements) == 1)
    if shared and found.size:
        assert "elements" not in vars(found.led)  # nothing read so far packs
    assert _fields(found) == _fields(want), (ring.points, pairs, kinds)
    assert supports == want.gb.lead_supports
    if want.elements:  # generators that all cancel get no layout
        assert found.layout.width == want.layout.width
    return shared


@pytest.mark.parametrize("name", ["seed-7", "seed-11", "box-3x3"])
def test_index_route_matches_the_packed_route_on_every_window(name):
    """Under auto, every window of the seed-7 and seed-11 corpora and of the
    3x3 box: the same order, orders tried, packed generators and basis,
    flags, S-pairs and lead supports as the packed route.  Every window is
    decided without Buchberger, its basis the generators' own _Led."""
    from box_lattices import box_lattices

    if name == "box-3x3":
        lattices = box_lattices(3, 3)
    else:
        seed = int(name.split("-")[1])
        lattices = [lat for _, lat in generate_corpus(CorpusSpec(seed=seed, count=40, max_m=5, max_n=4))]
    windows = shared = 0
    for ring, pairs in _windows(lattices):
        shared += _matches_the_packed_route(ring, pairs, "auto")
        windows += 1
    assert (name, windows) in {("seed-7", 764), ("seed-11", 825), ("box-3x3", 5676)}
    assert shared == windows


def _random_quadric_pairs(rng):
    """A ring of up to 8 points, repeats allowed, and up to 12 pairs of
    quadric terms: balanced pairs from one fiber of the monomial map,
    mostly, and some unbalanced ones, squares and cancelling pairs among
    them; now and then one pair of other degrees."""
    grid = [(i, j) for i in range(3) for j in range(3)]
    points = tuple(sorted(rng.choice(grid) for _ in range(rng.randint(2, 8))))
    ring = WindowRing(m=2, n=2, window=None, points=points)
    images = ring.semigroup.images
    fibers = {}
    for term in combinations_with_replacement(range(ring.nvars), 2):
        fibers.setdefault(images[term[0]] + images[term[1]], []).append(term)
    balanced = [fiber for fiber in fibers.values() if len(fiber) > 1]
    terms = list(combinations_with_replacement(range(ring.nvars), 2))
    pairs = []
    for _ in range(rng.randint(1, 12)):
        if balanced and rng.random() < 0.8:
            fiber = rng.choice(balanced)
            pairs.append((rng.choice(fiber), rng.choice(fiber)))
        else:
            pairs.append((rng.choice(terms), rng.choice(terms)))
    if rng.random() < 0.1:
        pairs.append(tuple(tuple(sorted(rng.choices(range(ring.nvars), k=rng.randint(1, 3))))
                           for _ in range(2)))
    return ring, pairs


def test_index_route_matches_the_packed_route_on_random_quadrics():
    """Seeded random generator lists, under each of the four order kinds
    and auto: the index route answers as the packed route in every field.
    A list with a term that is not a quadric is rejected up front, naming
    that term's degree: 275 of the 3,000 searches.  518 share the
    generators' _Led with the basis; the others run Buchberger or
    interreduce."""
    rng = random.Random(1729)
    shared = rejected = 0
    for _ in range(600):
        ring, pairs = _random_quadric_pairs(rng)
        degree = next((len(t) for pair in pairs for t in pair if len(t) != 2), None)
        for kinds in SEARCHES:
            if degree is None:
                shared += _matches_the_packed_route(ring, pairs, kinds)
                continue
            with pytest.raises(InvalidParameter) as err:
                order_search(ring, pairs, kinds)
            assert err.value.details == {"degree": degree}
            rejected += 1
    assert (shared, rejected) == (518, 275)
