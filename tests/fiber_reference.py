"""Test-side reference for hibilab.binomials.toric_fiber_oracle.

This is the fiber oracle as it stood before it counted: every degree-e
monomial gets its image under the monomial map, the fibers are the groups of
equal images, the generation rank is one exact sparse elimination over the
rows u*lead - u*trail, and the Groebner property is checked by reducing every
monomial and asking for one normal form per fiber and distinct normal forms
across fibers.  A generator of degree d gives the rows of the monomials u
of degree e - d, so generators of any degree are handled.  It is kept here,
not in the package, as the reference the counting oracle must match record
for record.

monomial_images, image_of_monomial and balanced are the tuple route to a
monomial's image under the monomial map, as the package's MonomialMap held
it before balance was checked on packed images; tests use them as the
reference for images.  degree_monomials is the package's dense monomial
enumerator as it stood before standard monomials were enumerated on packed
ints, and standard_monomials the filter over it that the package's dense
standard-monomial lists were, before they gave way to the lead-side count
(binomials._standard_counts): every monomial of each degree, kept when no
lead divides it; the count's enumeration route is gated against it.
with_generators and with_basis give a WindowIdeal other generators or
another basis, packed as the ideal's and its report's are; the fiber oracle
and hilbert_function read the ideal alone, so they build their broken
inputs.
semigroup_points is the plain build of the semigroup levels, every point of
L_(e-1) plus every image, as the package built them before it split each
level by largest row and peeled the leaves off (binomials.Semigroup), and
plain_sizes counts its levels over the whole images.  face_counts is the
face walk the oracle used before it walked faces on blocked-neighbour masks
and lifted the cone points (binomials._face_counts): it lists every face of
every size, each grown variable by variable and tested against every
support holding that variable.
"""

from dataclasses import replace
from itertools import combinations_with_replacement, count, islice
from math import comb

from buchberger_reference import Reducer, mono_mul, packed
from hibilab.betti import _rank_mod_p
from hibilab.binomials import (
    DEFAULT_FIELD,
    FiberCertificate,
    FiberDegreeRecord,
    _Led,
)
from hibilab.errors import BudgetExceeded, InvalidParameter, search_budget


def monomial_images(ring):
    """The images e(s_i) + e(t_j) of the window variables in Z^(m+1)+(n+1), as tuples."""
    images = []
    for i, j in ring.points:
        vec = [0] * (ring.m + 1 + ring.n + 1)
        vec[i] += 1
        vec[ring.m + 1 + j] += 1
        images.append(tuple(vec))
    return tuple(images)


def degree_monomials(nvars, degree, budget):
    """The dense monomials of one degree, in the order of combinations_with_replacement."""
    count = comb(nvars + degree - 1, degree)
    if count > budget:
        raise BudgetExceeded(
            f"degree {degree} needs {count} monomials", budget=budget, monomials=count
        )
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for k in combo:
            exps[k] += 1
        yield tuple(exps)


def standard_monomials(leads, nvars, d_max):
    """The dense monomials of degrees 0..d_max that no dense lead divides, per degree."""
    def divides(lead, mono):
        return all(a <= b for a, b in zip(lead, mono))
    return tuple(
        tuple(m for m in degree_monomials(nvars, d, 10**7) if not any(divides(g, m) for g in leads))
        for d in range(d_max + 1)
    )


def _packed_led(binomials, order):
    """The Binomials held packed, in a layout of order wide enough for them."""
    return _Led.packed(order, *packed(binomials, order))


def with_generators(ideal, binomials):
    """ideal with its generators replaced by the Binomials, its basis kept."""
    return replace(ideal, led=_packed_led(binomials, ideal.order))


def with_basis(ideal, basis):
    """ideal with its basis ideal.gb replaced by the Binomials of basis, its
    generators kept."""
    return replace(ideal, gb=replace(ideal.gb, led=_packed_led(basis, ideal.order)))


def image_of_monomial(ring, mono):
    """The image of a dense monomial under the window's monomial map, as a
    tuple: the sum of e times the image of each variable with exponent e."""
    total = [0] * (ring.m + 1 + ring.n + 1)
    for (i, j), e in zip(ring.points, mono):
        total[i] += e
        total[ring.m + 1 + j] += e
    return tuple(total)


def balanced(ring, g):
    return image_of_monomial(ring, g.lead) == image_of_monomial(ring, g.trail)


def semigroup_points(images):
    """The semigroup levels L_1, L_2, ... spanned by the packed images, lazily,
    each the set of sums of that many images.  An entry of a point in L_e is
    at most e, so the fields must hold e."""
    level = set(images)
    while True:
        yield level
        level = {q + img for q in level for img in images}


def plain_sizes(ring, top):
    """|L_1|, ..., |L_top| from the plain build over the whole images, every
    entry of s_i t_j in 4 bits (entries up to 7, no row or column left out)."""
    images = [sum(x << 4 * c for c, x in enumerate(img)) for img in monomial_images(ring)]
    return [len(level) for level in islice(semigroup_points(images), top)]


def _grow_faces(faces, holding):
    """The faces one size above faces, as (mask, last variable) pairs: a face
    of the lead complex is a set of variables, as a bitmask, holding no lead
    support.  Each face F grows by each variable v above its last, and F | v
    holds a support only if one of holding[v], the supports holding v, lies
    in it, since F holds none."""
    out = []
    for face, last in faces:
        for v in range(last + 1, len(holding)):
            grown = face | 1 << v
            for support in holding[v]:
                if support | grown == grown:
                    break
            else:
                out.append((grown, v))
    return out


def face_counts(supports, nvars):
    """The number of degree-e monomials in nvars variables that no squarefree
    lead divides, for e = 1, 2, ..., lazily, from the lead supports
    (bitmasks): sum_k f_k C(e - 1, k - 1), with the faces of size e listed
    when degree e is asked for."""
    holding = [[s for s in supports if s >> v & 1] for v in range(nvars)]
    faces, fvector = [(0, -1)], [1]
    for e in count(1):
        faces = _grow_faces(faces, holding)
        fvector.append(len(faces))
        yield sum(f * comb(e - 1, k - 1) for k, f in enumerate(fvector) if k)


def toric_fiber_oracle(ring, gens, gb=None, degree=4):
    if degree < 2:
        raise InvalidParameter("degree bound must be at least 2", degree=degree)
    budget = search_budget()
    nvars = ring.nvars
    membership_ok = all(balanced(ring, g) for g in gens)
    records = []
    gens = list(gens)
    reducer = Reducer(gb.basis) if gb is not None else None
    for e in range(2, degree + 1):
        monos = list(degree_monomials(nvars, e, budget))
        index = {m: k for k, m in enumerate(monos)}
        fibers = {}
        for m in monos:
            fibers.setdefault(image_of_monomial(ring, m), []).append(m)
        target = len(monos) - len(fibers)
        rows = []
        for g in gens:
            if sum(g.lead) > e:
                continue
            for u in degree_monomials(nvars, e - sum(g.lead), budget):
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
