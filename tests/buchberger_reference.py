"""Test-side reference for hibilab.binomials.buchberger, its Reducer and _interreduce.

This is Buchberger as it stood before monomials were packed into ints: dense
exponent tuples, a Reducer that keys quadratic leads by their variable pair
(a, b) with a per-variable partner mask and scans other leads with a
support-mask prefilter, S-binomials and reductions by `map` passes over the
tuples, and the interreduction by one reducer grown along the sorted list.
It is kept here, not in the package, as the reference the packed route must
match answer for answer; tests/fiber_reference.py reduces with its Reducer.
The code is as it stood, except that the squarefree flag calls
mono_squarefree, defined here since Binomial.is_squarefree and then
mono_squarefree left the package, and that the report packs its basis (packed), as every GroebnerReport holds
it now.

order_search below is the order search as it stood before orders were
decided by counting: generators led and sorted by tuple keys, then the
package's buchberger under each candidate order in turn, bound at import so
that a spy on hibilab.binomials.buchberger sees only the package's calls.
It takes the generators' terms in the package's sparse form, converts them
to dense tuples, and answers with the attributes of a WindowIdeal.
"""

import heapq
from collections import namedtuple
from itertools import compress, count
from operator import add, ge, sub

from hibilab import errors
from hibilab.binomials import (
    ORDER_KINDS,
    Binomial,
    GroebnerReport,
    Monomial,
    MonomialOrder,
    _Layout,
    _Led,
    _width,
    buchberger as packed_buchberger,
    monomial_order,
)
from hibilab.errors import DegreeInfeasible


def mono_squarefree(a: Monomial) -> bool:
    return all(e <= 1 for e in a)


def greater(order: MonomialOrder, a: Monomial, b: Monomial) -> bool:
    """Whether a comes after b in order (MonomialOrder.greater, as it stood)."""
    return order.key(a) > order.key(b)


def make_binomial(a: Monomial, b: Monomial, order: MonomialOrder):
    """Normalized binomial a - b, or None when the terms cancel."""
    if a == b:
        return None
    return Binomial(a, b) if greater(order, a, b) else Binomial(b, a)


def packed(binomials, order: MonomialOrder):
    """The (lead, trail) ints of the Binomials, and the layout of order,
    wide enough for them, that packs them."""
    layout = _Layout(order, _width(max((sum(t) for g in binomials for t in (g.lead, g.trail)), default=0)))
    return tuple([(layout.pack(g.lead), layout.pack(g.trail)) for g in binomials]), layout


def _sorted_binomials(binomials, order: MonomialOrder):
    return sorted(binomials, key=lambda g: (order.key(g.lead), order.key(g.trail)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _support_mask(mono: Monomial) -> int:
    mask = 0
    for k in compress(count(), mono):
        mask |= 1 << k
    return mask


class Reducer:
    """Division against a binomial list, always by the first dividing lead in list order.

    Quadratic leads y_a y_b (a <= b, a square when a == b) sit in a dict
    keyed by (a, b), each with its list position; partners[b] is the mask of
    the a <= b that pair with b.  One pass over a monomial's support then
    looks up only the pairs in it that some lead uses, and none at all for
    most normal monomials.  Leads of any other degree are scanned in list
    order with a support-mask prefilter.
    """

    def __init__(self, basis=()):
        self.items = []  # (lead, trail) in list order
        self.masks = []  # support mask of each lead, in list order
        self._pairs = {}  # (a, b) -> position of the first lead y_a y_b
        self._partners = {}  # b -> mask of the a <= b with a lead y_a y_b
        self._scan = []  # (position, support mask, lead) of the other leads
        for g in basis:
            self.append(g.lead, g.trail)

    def append(self, lead: Monomial, trail: Monomial | None = None):
        """Append lead - trail; a lead alone serves divisor() only."""
        pos = len(self.items)
        mask = _support_mask(lead)
        self.items.append((lead, trail))
        self.masks.append(mask)
        if sum(lead) == 2:
            # lowest and highest support variable; the same one for a square
            a, b = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
            if (a, b) not in self._pairs:
                self._pairs[a, b] = pos
                self._partners[b] = self._partners.get(b, 0) | 1 << a
        else:
            self._scan.append((pos, mask, lead))

    def divisor(self, mono: Monomial):
        """List position of the first lead dividing mono, or None."""
        partners, pairs = self._partners, self._pairs
        best = None
        mm = 0
        for b in compress(count(), mono):
            mm |= 1 << b
            hits = partners.get(b, 0) & mm
            if not hits:
                continue
            if hits >> b & 1 and mono[b] < 2:
                hits ^= 1 << b
            while hits:
                low = hits & -hits
                hits ^= low
                pos = pairs[low.bit_length() - 1, b]
                if best is None or pos < best:
                    best = pos
        for pos, mask, lead in self._scan:
            if best is not None and pos > best:
                break
            if not mask & ~mm and all(map(ge, mono, lead)):
                return pos
        return best

    def reduce(self, mono: Monomial) -> Monomial:
        while (pos := self.divisor(mono)) is not None:
            lead, trail = self.items[pos]
            mono = tuple(map(add, map(sub, mono, lead), trail))
        return mono



def normal_form(x, basis, order: MonomialOrder):
    """Normal form of a monomial (-> monomial) or binomial (-> binomial or None)."""
    reducer = basis if isinstance(basis, Reducer) else Reducer(basis)
    if isinstance(x, Binomial):
        a = reducer.reduce(x.lead)
        b = reducer.reduce(x.trail)
        return make_binomial(a, b, order)
    return reducer.reduce(tuple(x))


def s_binomial(f: Binomial, g: Binomial, lcm: Monomial, order: MonomialOrder):
    """lcm/in(f) * f - lcm/in(g) * g for lcm = lcm(in(f), in(g)), each term in one pass."""
    a = tuple(map(add, map(sub, lcm, f.lead), f.trail))
    b = tuple(map(add, map(sub, lcm, g.lead), g.trail))
    return make_binomial(a, b, order)


def _interreduce(basis, order: MonomialOrder):
    """The reduced basis: minimal leads, every trail in normal form.

    In ascending order a divisor's lead comes first, so one reducer grown
    along the sorted list minimalizes.  Reducing g.trail against all kept
    elements, g included, is reducing it against the others: every monomial
    on the way is at most g.trail < g.lead, so g.lead divides none of them.
    The leads stay put, so one sweep leaves every trail reduced.
    """
    reducer = Reducer()
    for g in _sorted_binomials(set(basis), order):
        if reducer.divisor(g.lead) is None:
            reducer.append(g.lead, g.trail)
    return tuple([Binomial(lead, reducer.reduce(trail)) for lead, trail in reducer.items])


def buchberger(gens, order: MonomialOrder) -> GroebnerReport:
    """Binomial Buchberger: normal pair selection, coprime-lead criterion.

    Pairs are popped smallest-lcm-first from a heap (key computed once per
    pair).  Returns the interreduced basis, which is unique for the given
    order; the quadratic and squarefree flags describe that reduced basis.
    Past errors.SPAIR_LIMIT S-pairs, DegreeInfeasible names the budget and the
    count.
    """
    basis = [make_binomial(g.lead, g.trail, order) for g in gens]
    basis = [h for h in dict.fromkeys(basis) if h is not None]
    reducer = Reducer(basis)
    masks = reducer.masks
    heap = []

    def push_pairs(j):
        lead, mask = basis[j].lead, masks[j]
        for i in range(j):
            # Buchberger's first criterion: coprime leads reduce to zero
            if masks[i] & mask:
                lcm = tuple(map(max, basis[i].lead, lead))
                heapq.heappush(heap, (order.key(lcm), i, j, lcm))

    for j in range(len(basis)):
        push_pairs(j)
    processed = 0
    budget = errors.SPAIR_LIMIT
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        processed += 1
        if processed > budget:
            raise DegreeInfeasible(
                "S-pair budget exhausted", budget=budget, spairs=processed
            )
        s = s_binomial(basis[i], basis[j], lcm, order)
        if s is None:
            continue
        r = normal_form(s, reducer, order)
        if r is None:
            continue
        basis.append(r)
        reducer.append(r.lead, r.trail)
        push_pairs(len(basis) - 1)
    reduced = _interreduce(basis, order)
    elements, layout = packed(reduced, order)
    return GroebnerReport(
        _Led.packed(order, elements, layout),
        quadratic=all(sum(g.lead) == 2 for g in reduced),
        squarefree=all(mono_squarefree(g.lead) and mono_squarefree(g.trail) for g in reduced),
        spairs_processed=processed,
    )


def dense(term, nvars):
    """The dense exponent tuple of a sparse term, a sorted tuple of variable indices."""
    return tuple(map(term.count, range(nvars)))


Search = namedtuple("Search", "order generators gb orders_tried")


def order_search(ring, pairs, kinds="auto"):
    """The answer as a Search, Buchberger under every order tried; pairs are
    sparse terms, as the package's order_search takes them."""
    pairs = [(dense(a, ring.nvars), dense(b, ring.nvars)) for a, b in pairs]
    tried = []
    for kind in ORDER_KINDS if kinds == "auto" else (kinds,):
        order = monomial_order(kind, ring)
        gens = _sorted_binomials({make_binomial(a, b, order) for a, b in pairs} - {None}, order)
        report = packed_buchberger(gens, order)
        tried.append(kind)
        if report.quadratic and report.squarefree:
            break
    return Search(order, tuple(gens), report, tuple(tried))
