"""The packed reducer and Buchberger against two test-side references.

`_ScanReducer`, `_scan_interreduce` and `_scan_buchberger` below are the
reduction, interreduction and Buchberger loop as they stood before leads were
indexed by variable pair: every lead tried in list order, the first divisor
used, a fresh reducer per element and sweep.  `buchberger_reference` holds
the tuple route that stood before monomials were packed into ints.  Both are
kept here, not in the package, as references the packed route must match
answer for answer.
"""

import heapq
import random
from itertools import combinations_with_replacement, islice
from operator import ge

import pytest

import buchberger_reference as ref
from fiber_reference import standard_monomials
from hibilab.binomials import (
    ORDER_KINDS,
    Reducer,
    WindowRing,
    _Layout,
    _oriented,
    _standard_counts,
    _straightening_pairs,
    _width,
    buchberger,
    monomial_order,
    normal_form,
)
from hibilab.errors import DegreeInfeasible
from hibilab.reports import demo_staircase
from hibilab.windows import all_windows
from window_helpers import ring_for_window


def _div(a, b):
    if any(x < y for x, y in zip(a, b)):
        return None
    return tuple(x - y for x, y in zip(a, b))


def _mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class _ScanReducer:
    def __init__(self, basis=()):
        self.items = [(g.lead, g.trail) for g in basis]

    def append(self, g):
        self.items.append((g.lead, g.trail))

    def reduce(self, mono):
        changed = True
        while changed:
            changed = False
            for lead, trail in self.items:
                u = _div(mono, lead)
                if u is not None:
                    mono = _mul(u, trail)
                    changed = True
                    break
        return mono


def _scan_interreduce(basis, order):
    basis = ref._sorted_binomials(set(basis), order)
    kept = []
    for g in basis:
        if not any(_div(g.lead, h.lead) is not None for h in kept):
            kept.append(g)
    changed = True
    while changed:
        changed = False
        out = []
        for g in kept:
            others = _ScanReducer(h for h in kept if h.lead != g.lead)
            trail = others.reduce(g.trail)
            if trail == g.lead:
                changed = True
                continue
            if trail != g.trail:
                changed = True
                g = ref.make_binomial(g.lead, trail, order)
            out.append(g)
        kept = ref._sorted_binomials(set(out), order)
    return tuple(kept)


def _scan_buchberger(gens, order):
    """(reduced basis, S-pairs processed)."""
    basis = []
    for g in gens:
        h = ref.make_binomial(g.lead, g.trail, order)
        if h is not None and h not in basis:
            basis.append(h)
    reducer = _ScanReducer(basis)
    heap = []

    def push_pairs(j):
        for i in range(j):
            a, b = basis[i].lead, basis[j].lead
            if all(x == 0 or y == 0 for x, y in zip(a, b)):
                continue
            lcm = tuple(max(x, y) for x, y in zip(a, b))
            heapq.heappush(heap, (sum(lcm), order.key(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        f, g = basis[i], basis[j]
        lcm = tuple(max(x, y) for x, y in zip(f.lead, g.lead))
        s = ref.make_binomial(
            _mul(_div(lcm, f.lead), f.trail), _mul(_div(lcm, g.lead), g.trail), order
        )
        if s is None:
            continue
        r = ref.make_binomial(reducer.reduce(s.lead), reducer.reduce(s.trail), order)
        if r is None:
            continue
        basis.append(r)
        reducer.append(r)
        push_pairs(len(basis) - 1)
    return _scan_interreduce(basis, order), processed


def _random_monomial(rng, nvars, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _random_binomials(rng, order, nvars):
    """Binomials with quadratic and cubic leads, squares and repeated leads;
    in general not a Groebner basis, and not sorted."""
    out = []
    for _ in range(rng.randint(1, 7)):
        degree = rng.choice((2, 2, 3))
        a, b = _random_monomial(rng, nvars, degree), _random_monomial(rng, nvars, degree)
        if rng.random() < 0.2:
            a = tuple(2 * x for x in _random_monomial(rng, nvars, 1))  # a square
        g = ref.make_binomial(a, b, order)
        if g is not None:
            out.append(g)
    if out and rng.random() < 0.3:
        g = out[rng.randrange(len(out))]
        other = ref.make_binomial(g.lead, _random_monomial(rng, nvars, sum(g.lead)), order)
        if other is not None:
            out.append(other)  # a repeated lead with another trail
    rng.shuffle(out)
    return out


def _ring(nvars):
    points = tuple((k, 0) for k in range(nvars))
    return WindowRing(m=nvars, n=0, window=None, points=points)


def test_normal_form_matches_linear_scan_on_random_sets():
    rng = random.Random(606)
    checked = 0
    for _ in range(300):
        nvars = rng.randint(1, 6)
        order = monomial_order(rng.choice(ORDER_KINDS), _ring(nvars))
        basis = _random_binomials(rng, order, nvars)
        layout = _Layout(order, _width(5))
        indexed, scan = Reducer(layout), _ScanReducer(basis)
        for g in basis:
            indexed.append(layout.pack(g.lead), layout.pack(g.trail))
        for _ in range(12):
            mono = _random_monomial(rng, nvars, rng.randint(0, 5))
            # one reducer for all twelve, so its memo serves the later ones
            assert layout.unpack(indexed.reduce(layout.pack(mono))) == scan.reduce(mono)
            assert normal_form(mono, basis, order) == scan.reduce(mono)
            checked += 1
        leads = [g.lead for g in basis]
        index = Reducer(layout)
        for lead in leads:
            index.append(layout.pack(lead))
        for combo in combinations_with_replacement(range(nvars), 3):
            mono = tuple(combo.count(k) for k in range(nvars))
            first = next(
                (k for k, lead in enumerate(leads) if _div(mono, lead) is not None), None
            )
            assert index.divisor(layout.pack(mono)) == first
    assert checked == 3600


def test_buchberger_matches_linear_scan_on_random_sets():
    rng = random.Random(1789)
    grew = 0
    for _ in range(120):
        nvars = rng.randint(2, 4)
        order = monomial_order(rng.choice(ORDER_KINDS), _ring(nvars))
        gens = _random_binomials(rng, order, nvars)
        report = buchberger(gens, order)
        basis, spairs = _scan_buchberger(gens, order)
        assert report.basis == basis
        assert report.spairs_processed == spairs
        grew += len(basis) > len(set(gens))
    assert grew  # some sets are not Groebner bases, so Buchberger adds elements


def test_buchberger_matches_linear_scan_on_seed7_windows(corpus):
    checked = 0
    for _, lat in corpus:
        for w in all_windows(lat):
            ring = ring_for_window(lat, w)
            if ring.nvars > 12:
                continue
            pairs = _straightening_pairs(ring)
            for kind in ORDER_KINDS:
                order = monomial_order(kind, ring)
                gens = _oriented(pairs, order)
                report = buchberger(gens, order)
                assert (report.basis, report.spairs_processed) == _scan_buchberger(gens, order)
                checked += 1
    assert checked == 4 * 625


def test_standard_monomials_match_lead_scan():
    """The lead-side count's enumeration route (_standard_counts given no
    supports) against fiber_reference.standard_monomials, which scans every
    lead for each monomial, in degrees 1..4 on random leads of degree 1 to 3
    packed on the fields of degree 4."""
    rng = random.Random(31)
    for _ in range(60):
        nvars = rng.randint(1, 5)
        leads = [_random_monomial(rng, nvars, rng.randint(1, 3)) for _ in range(rng.randint(0, 5))]
        terms = [(sum(lead), sum(e << 4 * k for k, e in enumerate(lead)), 0, True) for lead in leads]
        want = list(map(len, standard_monomials(leads, nvars, 4)))
        assert list(islice(_standard_counts(None, terms, nvars, 4), 4)) == want[1:], leads


def test_spair_budget_error_names_the_count(monkeypatch):
    import hibilab.errors as errors_mod

    monkeypatch.setattr(errors_mod, "SPAIR_LIMIT", 5)
    ring = ring_for_window(demo_staircase(), (3, 7))
    order = monomial_order("rank-lex", ring)
    gens = _oriented(_straightening_pairs(ring), order)
    with pytest.raises(DegreeInfeasible) as info:
        buchberger(gens, order)
    assert info.value.payload() == {
        "code": "degree-infeasible",
        "message": "S-pair budget exhausted",
        "details": {"budget": 5, "spairs": 6},
    }


def _answer(report):
    return report.basis, report.spairs_processed, report.quadratic, report.squarefree


def test_buchberger_matches_tuple_reference_on_every_seed7_window(corpus):
    checked = wide = 0
    for _, lat in corpus:
        for w in all_windows(lat):
            ring = ring_for_window(lat, w)
            wide += ring.nvars > 12
            pairs = _straightening_pairs(ring)
            for kind in ORDER_KINDS:
                order = monomial_order(kind, ring)
                gens = _oriented(pairs, order)
                assert _answer(buchberger(gens, order)) == _answer(ref.buchberger(gens, order))
                checked += 1
    assert (checked, wide) == (4 * 764, 139)


def test_buchberger_matches_tuple_reference_on_random_sets():
    rng = random.Random(4711)
    grew = 0
    for _ in range(1200):
        nvars = rng.randint(2, 6)
        order = monomial_order(rng.choice(ORDER_KINDS), _ring(nvars))
        gens = _random_binomials(rng, order, nvars)
        report = buchberger(gens, order)
        assert _answer(report) == _answer(ref.buchberger(gens, order))
        grew += len(report.basis) > len(set(gens))
    assert grew > 100


def test_packed_key_lcm_and_borrow_test_match_tuples():
    rng = random.Random(12)
    width = _width(12)
    for kind in ORDER_KINDS:
        for _ in range(500):
            nvars = rng.randint(1, 30)
            order = monomial_order(kind, _ring(nvars))
            layout = _Layout(order, width)
            a = _random_monomial(rng, nvars, rng.randint(0, 12))
            if rng.random() < 0.5:
                b = _random_monomial(rng, nvars, rng.randint(0, 12))
            else:  # a divisor of a, quadratic a third of the time
                picks = [k for k, e in enumerate(a) for _ in range(e)]
                size = 2 if rng.random() < 0.3 else rng.randint(0, len(picks))
                b = tuple(map(rng.sample(picks, min(size, len(picks))).count, range(nvars)))
            pa, pb = layout.pack(a), layout.pack(b)
            ka, kb = pa ^ layout.flip, pb ^ layout.flip
            assert (ka < kb, ka == kb) == (order.key(a) < order.key(b), a == b)
            lcm = layout.lcm(pa, pb)
            assert lcm == layout.pack(tuple(map(max, a, b)))
            assert _Layout(order, width).unpack(lcm) == tuple(map(max, a, b))
            reducer = Reducer(layout)
            reducer.append(pb)
            assert (reducer.divisor(pa) == 0) == all(map(ge, a, b))


def test_buchberger_reruns_wider_when_a_basis_degree_outgrows_the_fields(monkeypatch):
    import hibilab.binomials as binomials_mod

    real = binomials_mod._width
    degrees = []

    def spy(degree):
        degrees.append(degree)
        return real(degree)

    monkeypatch.setattr(binomials_mod, "_width", spy)
    rng = random.Random(99)
    widened = 0
    for _ in range(200):
        nvars = rng.randint(2, 5)
        order = monomial_order(rng.choice(ORDER_KINDS), _ring(nvars))
        gens = _random_binomials(rng, order, nvars)
        degrees.clear()
        assert _answer(buchberger(gens, order)) == _answer(ref.buchberger(gens, order))
        if len(degrees) > 1:
            # the rerun was asked for by an element the run itself produced
            assert degrees[1] > max(sum(g.lead) for g in gens)
            widened += 1
    assert widened > 20

    def narrowest_first(degree):
        degrees.append(degree)
        return 2 if len(degrees) == 1 else real(degree)

    monkeypatch.setattr(binomials_mod, "_width", narrowest_first)
    ring = ring_for_window(demo_staircase(), (3, 7))
    for kind in ORDER_KINDS:
        order = monomial_order(kind, ring)
        gens = _oriented(_straightening_pairs(ring), order)
        degrees.clear()
        assert _answer(buchberger(gens, order)) == _answer(ref.buchberger(gens, order))
        assert degrees == [2, 2]
