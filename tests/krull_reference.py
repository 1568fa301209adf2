"""Test-side reference for the lead supports behind hibilab.betti's Krull search.

minimal_supports is the filter as it stood before supports were bitmasks
read off the packed basis: each dense lead's support as a frozenset of
variable indices, the inclusion-minimal ones kept.  krull_dimension is the
hitting-set branch and bound that krull_dimension_via_initial ran on those
supports before it searched for a largest face of the lead complex: nvars
minus a minimum hitting set, bounded by a greedy packing of disjoint
supports.  Both are kept here, not in the package, as the reference the
mask route and the face search must match.  lead_supports turns dense
leads into the bitmask supports that the package's monomial-ideal
routines take, as GroebnerReport.lead_supports reads them off a basis.
"""


def lead_supports(leads):
    """Each dense lead's support as a bitmask over the variable indices, or
    None when a lead is not squarefree."""
    if any(e > 1 for lead in leads for e in lead):
        return None
    return tuple([sum(1 << k for k, e in enumerate(lead) if e) for lead in leads])


def minimal_supports(leads):
    supports = sorted({frozenset(k for k, e in enumerate(lead) if e) for lead in leads}, key=sorted)
    kept = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in kept):
            kept.append(s)
    return kept


def masks(supports):
    """The supports as bitmasks over the variable indices."""
    return [sum(1 << v for v in s) for s in supports]


def krull_dimension(leads, nvars):
    """nvars minus a minimum hitting set of the minimal supports of the
    squarefree dense leads, by exact branch and bound."""
    assert lead_supports(leads) is not None
    supports = minimal_supports(leads)
    best = len(set().union(*supports))

    def hit(remaining, taken):
        nonlocal best
        if not remaining:
            best = taken
            return
        remaining.sort(key=int.bit_count)
        used = packing = 0
        for m in remaining:
            if not m & used:
                used |= m
                packing += 1
        if taken + packing >= best:
            return
        support, others = remaining[0], remaining[1:]
        excluded = 0
        while support:
            v = support & -support
            support ^= v
            hit([m & ~excluded for m in others if not m & v], taken + 1)
            excluded |= v

    hit(masks(supports), 0)
    return nvars - best
