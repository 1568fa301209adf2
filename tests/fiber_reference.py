"""Test-side reference for hibilab.binomials.toric_fiber_oracle.

This is the fiber oracle as it stood before it counted: every degree-e
monomial gets its image under the monomial map, the fibers are the groups of
equal images, the generation rank is one exact sparse elimination over the
rows u*lead - u*trail, and the Groebner property is checked by reducing every
monomial and asking for one normal form per fiber and distinct normal forms
across fibers.  It handles quadratic generators only, as it always did.  It
is kept here, not in the package, as the reference the counting oracle must
match record for record.
"""

from hibilab.betti import _rank_mod_p
from hibilab.binomials import (
    DEFAULT_FIELD,
    FiberCertificate,
    FiberDegreeRecord,
    Reducer,
    _degree_monomials,
    default_budget,
    mono_mul,
)
from hibilab.errors import DegreeInfeasible


def toric_fiber_oracle(ring, gens, gb=None, degree=4):
    if degree < 2:
        raise DegreeInfeasible("degree bound must be at least 2", degree=degree)
    budget = default_budget()
    mm = ring.monomial_map
    nvars = ring.nvars
    membership_ok = all(mm.balanced(g) for g in gens)
    records = []
    gens = list(gens)
    reducer = Reducer(gb.basis) if gb is not None else None
    for e in range(2, degree + 1):
        monos = list(_degree_monomials(nvars, e, budget))
        index = {m: k for k, m in enumerate(monos)}
        fibers = {}
        for m in monos:
            fibers.setdefault(mm.image_of_monomial(m), []).append(m)
        target = len(monos) - len(fibers)
        rows = []
        for g in gens:
            for u in _degree_monomials(nvars, e - 2, budget):
                row = {}
                row[index[mono_mul(u, g.lead)]] = 1
                col = index[mono_mul(u, g.trail)]
                row[col] = row.get(col, 0) - 1
                if any(row.values()):
                    rows.append(row)
        span = _rank_mod_p(rows, len(monos), DEFAULT_FIELD)
        consistent = True
        if gb is not None:
            seen = {}
            for img, members in fibers.items():
                forms = {reducer.reduce(m) for m in members}
                if len(forms) != 1:
                    consistent = False
                    break
                form = next(iter(forms))
                if form in seen and seen[form] != img:
                    consistent = False
                    break
                seen[form] = img
        records.append(
            FiberDegreeRecord(
                degree=e,
                monomials=len(monos),
                fibers=len(fibers),
                target_dim=target,
                span_rank=span,
                generated=span == target,
                gb_consistent=consistent,
            )
        )
    return FiberCertificate(
        degree_bound=degree,
        membership_ok=membership_ok,
        per_degree=tuple(records),
    )
