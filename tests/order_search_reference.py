"""Test-side reference for hibilab.binomials.order_search: the packed route.

This is the order search as it stood before the counted orders were led
and counted on variable indices.  Each candidate order packs every
generator's terms into ints of its _Layout, one shift per variable,
orients and sorts them by the int keys lead ^ flip (_led_pairs), counts
the lead graph on the guard bits of the packed leads (_lead_graph_counts)
and interreduces a counted basis only when a trail equals a lead
(_reduced).  Its cases (a)-(d) are the package's, as its docstring states
them.  Buchberger, _interreduce and the semigroup levels are the package's.

order_search answers with a Search: the winning order, the orders tried,
the generators packed in their sorted order, their layout and a Report
whose fields are those of a GroebnerReport (the packed basis, its flags,
the S-pairs and the lead supports).  The package's WindowIdeal must match
it field for field.
"""

from collections import namedtuple
from itertools import chain
from math import comb

from hibilab.binomials import (
    ORDER_KINDS,
    Binomial,
    _interreduce,
    _Layout,
    _width,
    buchberger,
    monomial_order,
)

Search = namedtuple("Search", "order orders_tried elements layout gb")
Report = namedtuple("Report", "elements quadratic squarefree spairs_processed lead_supports")


def _led_pairs(pairs, layout):
    """The binomials a - b of the sparse term pairs (a, b) as packed (lead,
    trail) ints, sorted by the order's int keys lead ^ flip, then trail ^
    flip; terms that cancel drop out and a repeated binomial comes once."""
    unit, top, flip = layout.units.__getitem__, layout.top, layout.flip
    keys = set()
    for a, b in pairs:
        ka = (sum(map(unit, a)) + (len(a) << top)) ^ flip
        kb = (sum(map(unit, b)) + (len(b) << top)) ^ flip
        if ka > kb:
            keys.add((ka, kb))
        elif ka != kb:
            keys.add((kb, ka))
    return tuple([(lead ^ flip, trail ^ flip) for lead, trail in sorted(keys)])


def _lead_graph_counts(led, layout):
    """(std_2, std_3, lead pairs sharing a variable) of the packed leads, or
    None unless they are distinct squarefree quadrics."""
    hi, low, twice, top = layout.hi, layout.low, layout.twice, layout.top
    near = {}
    edges = []
    for lead, _ in led:
        if lead >> top != 2 or (lead + twice) & hi:
            return None
        support = (lead + low) & hi
        u = support & -support
        v = support ^ u
        if near.get(u, 0) & v:
            return None  # a repeated lead
        near[u] = near.get(u, 0) | v
        near[v] = near.get(v, 0) | u
        edges.append((u, v))
    nvars = top // layout.width
    overlaps = sum(comb(mask.bit_count(), 2) for mask in near.values())
    triangles = sum((near[u] & near[v]).bit_count() for u, v in edges) // 3
    non_edges = comb(nvars, 2) - len(edges)
    triples = comb(nvars, 3) - len(edges) * (nvars - 2) + overlaps - triangles
    return nvars + non_edges, nvars + 2 * non_edges + triples, overlaps


def _reduced(led, layout):
    """led itself unless a trail equals a lead, and _interreduce's basis then."""
    leads = {lead for lead, _ in led}
    if any(trail in leads for _, trail in led):
        return _interreduce(led, layout)
    return led


def _report(reduced, layout, spairs):
    hi, twice = layout.hi, layout.twice
    squarefree_leads = not any((lead + twice) & hi for lead, _ in reduced)
    return Report(
        elements=tuple(reduced),
        quadratic=all(lead >> layout.top == 2 for lead, _ in reduced),
        squarefree=squarefree_leads and not any((trail + twice) & hi for _, trail in reduced),
        spairs_processed=spairs,
        lead_supports=tuple([layout.variables(lead) for lead, _ in reduced]) if squarefree_leads else None,
    )


def _from_buchberger(report):
    return Report(report.elements, report.quadratic, report.squarefree, report.spairs_processed,
                  report.lead_supports)


def order_search(ring, pairs, kinds="auto"):
    """The packed route's answer as a Search; pairs are sparse terms."""
    kinds = ORDER_KINDS if kinds == "auto" else (kinds,)
    pairs = list(pairs)
    if not pairs:
        order = monomial_order(kinds[0], ring)
        return Search(order, kinds[:1], (), None, _from_buchberger(buchberger([], order)))
    width = _width(max(map(len, chain.from_iterable(pairs))))
    img = ring.semigroup.wide(2) if len(pairs) > 1 else ()
    quadrics = len(pairs) > 1 and all(
        len(a) == 2 == len(b) and img[a[0]] + img[a[1]] == img[b[0]] + img[b[1]] for a, b in pairs)

    candidates = {}

    def candidate(k):
        if k not in candidates:
            order = monomial_order(kinds[k], ring)
            layout = _Layout(order, width)
            led = _led_pairs(pairs, layout)
            candidates[k] = order, layout, led, quadrics and _lead_graph_counts(led, layout)
        return candidates[k]

    def passes_a(counts):
        return counts and counts[:2] == (ring.semigroup.size(2), ring.semigroup.size(3))

    tried = []
    for k, kind in enumerate(kinds):
        order, layout, led, counts = candidate(k)
        tried.append(kind)
        spairs = None
        if len(led) <= 1 or counts and not counts[2]:
            spairs = 0  # (c)
        elif passes_a(counts):
            spairs = counts[2]  # (a)
        elif counts and counts[0] == ring.semigroup.size(2) and any(
            passes_a(candidate(later)[3]) for later in range(k + 1, len(kinds))
        ):
            continue  # (b)
        if spairs is None:
            gens = [Binomial(layout.unpack(lead), layout.unpack(trail)) for lead, trail in led]
            report = _from_buchberger(buchberger(gens, order))
        else:
            report = _report(_reduced(led, layout), layout, spairs)
        if report.quadratic and report.squarefree:
            break
    return Search(order, tuple(tried), led, layout, report)
