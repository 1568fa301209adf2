"""Exact binomial-ideal machinery for window subrings.

Monomials are dense exponent tuples over the window's variables (one variable
per band point, canonically sorted by (rank, i)).  Every polynomial handled
here is a pure difference of two monomials, so S-polynomials and reductions
stay binomial and all coefficients stay +1/-1; Buchberger below is specialized
accordingly.  The toric side is the monomial map sending the variable at
(i, j) to s_i t_j; fibers of that map give an independent membership,
generation and Groebner certificate.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement, compress, count
from math import comb, isqrt
from operator import add, ge, itemgetter, neg, sub

from .errors import DegreeInfeasible, InvalidParameter
from .lattice import PlanarLattice
from .windows import RankWindow, as_context

Monomial = tuple

ORDER_KINDS = ("rank-lex", "rank-revlex", "lex", "revlex")

DEFAULT_FIELD = 32003

_SPAIR_BUDGET = 500_000  # S-pairs per Buchberger run


@cache  # the trial division costs a tenth of a small window's certification
def require_field(p: int) -> int:
    """Ranks are taken mod p: p must be a prime below 2**31, the supported
    range, in which the trial division costs at most 46,340 steps."""
    if not 2 <= p < 2**31 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InvalidParameter(f"field must be a prime below 2**31, got {p}", field=p)
    return p


def default_budget() -> int:
    """Per-degree monomial enumeration budget: 200000, or HIBI_LAB_BUDGET when
    set, which must be an integer of at least 1000."""
    raw = os.environ.get("HIBI_LAB_BUDGET")
    if not raw:
        return 200_000
    if not raw.isdecimal() or int(raw) < 1000:
        raise InvalidParameter(f"HIBI_LAB_BUDGET must be an integer of at least 1000, got {raw!r}",
                               HIBI_LAB_BUDGET=raw)
    return int(raw)


@dataclass(frozen=True)
class WindowRing:
    """Polynomial ring with one variable per band point of a window."""

    m: int
    n: int
    window: RankWindow
    points: tuple

    @classmethod
    def for_window(cls, lattice: PlanarLattice, window) -> "WindowRing":
        return as_context(lattice, window).ring

    @property
    def nvars(self) -> int:
        return len(self.points)

    @cached_property
    def index(self):
        return {p: k for k, p in enumerate(self.points)}

    def monomial(self, *points) -> Monomial:
        exps = [0] * self.nvars
        for p in points:
            exps[self.index[tuple(p)]] += 1
        return tuple(exps)

    def exponents_dict(self, mono: Monomial):
        return {self.points[k]: e for k, e in enumerate(mono) if e}

    def format_monomial(self, mono: Monomial) -> str:
        parts = []
        for k, e in enumerate(mono):
            if e:
                i, j = self.points[k]
                parts.append(f"y_{{{i}{j}}}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"

    @cached_property
    def monomial_map(self) -> "MonomialMap":
        images = []
        for i, j in self.points:
            vec = [0] * (self.m + 1 + self.n + 1)
            vec[i] += 1
            vec[self.m + 1 + j] += 1
            images.append(tuple(vec))
        return MonomialMap(m=self.m, n=self.n, images=tuple(images))


@dataclass(frozen=True)
class MonomialMap:
    """Images e(s_i) + e(t_j) of the window variables in Z^(m+1)+(n+1)."""

    m: int
    n: int
    images: tuple

    @cached_property
    def _nonzero(self):
        """Per variable, the (coordinate, entry) pairs where its image is nonzero."""
        return tuple(tuple((c, x) for c, x in enumerate(img) if x) for img in self.images)

    def image_of_monomial(self, mono: Monomial):
        total = [0] * (self.m + 1 + self.n + 1)
        nonzero = self._nonzero
        for k, e in enumerate(mono):
            if e:
                for c, x in nonzero[k]:
                    total[c] += e * x
        return tuple(total)

    def balanced(self, binom: "Binomial") -> bool:
        return self.image_of_monomial(binom.lead) == self.image_of_monomial(binom.trail)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


def mono_squarefree(a: Monomial) -> bool:
    return all(e <= 1 for e in a)


@dataclass(frozen=True)
class MonomialOrder:
    """Graded order: degree first, then (rev)lex over a variable significance list.

    sig lists variable indices from most to least significant.  Both styles
    are total, multiplicative and well-founded.
    """

    name: str
    style: str
    sig: tuple

    @cached_property
    def _exponents(self):
        """Exponents in key order: sig for lex, reversed sig for revlex, as a tuple."""
        sig = self.sig if self.style == "lex" else self.sig[::-1]
        # itemgetter of one index returns a bare item, not a tuple
        return itemgetter(*sig) if len(sig) > 1 else lambda mono: tuple(mono[i] for i in sig)

    def key(self, mono: Monomial):
        if self.style == "lex":
            return (sum(mono), self._exponents(mono))
        return (sum(mono), tuple(map(neg, self._exponents(mono))))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)


def monomial_order(kind: str, ring: WindowRing) -> MonomialOrder:
    if kind not in ORDER_KINDS:
        raise InvalidParameter(f"unknown order kind {kind!r}", kind=kind)
    if kind.startswith("rank-"):
        ranked = sorted(
            range(ring.nvars),
            key=lambda k: (
                -(ring.points[k][0] + ring.points[k][1]),
                -ring.points[k][0],
            ),
        )
    else:
        ranked = sorted(range(ring.nvars), key=lambda k: (-ring.points[k][0], -ring.points[k][1]))
    style = "revlex" if kind.endswith("revlex") else "lex"
    return MonomialOrder(name=kind, style=style, sig=tuple(ranked))


@dataclass(frozen=True)
class Binomial:
    """lead - trail with lead > trail in the ambient order."""

    lead: Monomial
    trail: Monomial

    def degree(self) -> int:
        return mono_deg(self.lead)

    def is_squarefree(self) -> bool:
        return mono_squarefree(self.lead) and mono_squarefree(self.trail)


def make_binomial(a: Monomial, b: Monomial, order: MonomialOrder):
    """Normalized binomial a - b, or None when the terms cancel."""
    if a == b:
        return None
    return Binomial(a, b) if order.greater(a, b) else Binomial(b, a)


def defining_ideal_generators(ring: WindowRing, order: MonomialOrder):
    """One binomial per incomparable band pair whose meet and join ranks stay in band.

    For points (i, j) and (k, l) with i < k, j > l the binomial is
    y_ij y_kl - y_il y_kj; both inner points lie in the lattice by closure.
    """
    return _oriented(_straightening_pairs(ring), order)


def _straightening_pairs(ring: WindowRing):
    """The terms (y_ij y_kl, y_il y_kj) of each defining binomial, unoriented."""
    p, q = ring.window.p, ring.window.q
    out = []
    pts = ring.points
    for a_idx in range(len(pts)):
        i, j = pts[a_idx]
        for b_idx in range(a_idx + 1, len(pts)):
            k, l = pts[b_idx]
            if (i - k) * (j - l) >= 0:
                continue
            if i > k:
                (i2, j2), (k2, l2) = (k, l), (i, j)
            else:
                (i2, j2), (k2, l2) = (i, j), (k, l)
            # now i2 < k2 and j2 > l2; meet (i2, l2), join (k2, j2)
            if not (p <= i2 + l2 and k2 + j2 <= q):
                continue
            out.append((ring.monomial((i2, j2), (k2, l2)), ring.monomial((i2, l2), (k2, j2))))
    return out


def _oriented(pairs, order: MonomialOrder):
    """The binomials a - b of the monomial pairs (a, b), led under order and sorted by it."""
    return _sorted_binomials({make_binomial(a, b, order) for a, b in pairs} - {None}, order)


def _sorted_binomials(binomials, order: MonomialOrder):
    return sorted(binomials, key=lambda g: (order.key(g.lead), order.key(g.trail)))


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


@dataclass(frozen=True)
class GroebnerReport:
    basis: tuple
    quadratic: bool
    squarefree: bool
    spairs_processed: int
    order: MonomialOrder

    @property
    def leads(self):
        return tuple(g.lead for g in self.basis)


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
    Past _SPAIR_BUDGET S-pairs, DegreeInfeasible names the budget and the
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
    budget = _SPAIR_BUDGET
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
    return GroebnerReport(
        basis=reduced,
        quadratic=all(g.degree() == 2 for g in reduced),
        squarefree=all(g.is_squarefree() for g in reduced),
        spairs_processed=processed,
        order=order,
    )


@dataclass(frozen=True)
class WindowIdeal:
    """Generators plus the first candidate order giving a quadratic squarefree basis."""

    ring: WindowRing
    order: MonomialOrder
    generators: tuple
    gb: GroebnerReport
    orders_tried: tuple

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_principal(self) -> bool:
        return len(self.generators) == 1


def order_search(ring: WindowRing, pairs, kinds="auto"):
    """Buchberger under each candidate order until a basis is quadratic and squarefree.

    pairs holds the terms (a, b) of the generators a - b.  kinds is "auto"
    (try rank-lex, rank-revlex, lex, revlex in that order) or a single kind;
    monomial_order rejects any other value.  Returns (order, generators,
    report, kinds tried) for the winning order or, if none qualifies, for the
    last one, with the report's flags down.
    """
    tried = []
    for kind in ORDER_KINDS if kinds == "auto" else (kinds,):
        order = monomial_order(kind, ring)
        gens = _oriented(pairs, order)
        report = buchberger(gens, order)
        tried.append(kind)
        if report.quadratic and report.squarefree:
            break
    return order, gens, report, tuple(tried)


def window_ideal(lattice: PlanarLattice, window, kinds="auto") -> WindowIdeal:
    """Build the defining ideal and search candidate orders for a quadratic basis.

    The search is order_search's; if no order qualifies the last report is
    returned with its flags down, for the caller to treat as a finding.
    window may be a WindowContext, whose ring is then used.
    """
    ring = as_context(lattice, window).ring
    order, gens, report, tried = order_search(ring, _straightening_pairs(ring), kinds)
    return WindowIdeal(
        ring=ring,
        order=order,
        generators=tuple(gens),
        gb=report,
        orders_tried=tried,
    )


def _degree_monomials(nvars: int, degree: int, budget: int):
    count = comb(nvars + degree - 1, degree)
    if count > budget:
        raise DegreeInfeasible(
            f"degree {degree} needs {count} monomials", budget=budget, monomials=count
        )
    for combo in combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for k in combo:
            exps[k] += 1
        yield tuple(exps)


@dataclass(frozen=True)
class FiberDegreeRecord:
    degree: int
    monomials: int
    fibers: int
    target_dim: int
    span_rank: int
    generated: bool
    gb_consistent: bool


@dataclass(frozen=True)
class FiberCertificate:
    degree_bound: int
    membership_ok: bool
    per_degree: tuple

    # Not a field: the span rank is a component count, the same in every
    # characteristic.  Kept only because bench/tracing.py::_observe_fiber
    # reads it for its second-field counter; drop both together.  No program
    # code reads it.
    fields_used = (DEFAULT_FIELD,)

    @property
    def generated(self) -> bool:
        return self.membership_ok and all(d.generated for d in self.per_degree)

    @property
    def gb_certified(self) -> bool:
        return all(d.gb_consistent for d in self.per_degree)


def _extend(level, units, hi, divisors):
    """The packed monomials one degree above level that no lead in divisors divides.

    level lists (monomial, last variable) pairs, and x + y_v comes once, for
    each v from x's last variable on.  A lead divides m when ((m | hi) - lead)
    & hi == hi.  A lead that divides x + y_v but not x holds y_v, so
    divisors[v] need list only the leads holding y_v.
    """
    out = []
    for x, last in level:
        for v in range(last, len(units)):
            m = x + units[v]
            for lead in divisors[v]:
                if ((m | hi) - lead) & hi == hi:
                    break
            else:
                out.append((m, v))
    return out


def toric_fiber_oracle(
    ring: WindowRing,
    gens,
    gb: GroebnerReport | None = None,
    degree: int = 4,
) -> FiberCertificate:
    """Certify membership, generation and the Groebner property degree by degree.

    The oracle counts and neither maps nor reduces a monomial.  The degree-e
    monomials fall into |L_e| fibers, one per point of the semigroup level
    L_e, whose differences span target_dim = #monomials - |L_e| dimensions.
    The moves u*lead - u*trail, deg u = e - deg g, are the edges of a graph
    on the monomials whose incidence matrix has rank #monomials - #components
    in every characteristic; span_rank counts it by union-find, and
    generation holds when it reaches target_dim, when every fiber is
    connected (a Markov basis, Diaconis-Sturmfels, Ann. Statist. 26, 1998).
    With the basis elements of degree <= e balanced, reduction stays in a
    fiber, so the basis is consistent in degree e (one normal form per fiber)
    iff the degree-e monomials that no lead divides number |L_e| (Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 4).  Monomials and semigroup
    points are packed into ints, degree.bit_length() + 1 bits per entry, the
    top one a guard for the borrow test.  Generators must be homogeneous;
    each degree is held to default_budget().
    """
    if degree < 2:
        raise DegreeInfeasible("degree bound must be at least 2", degree=degree)
    if any(sum(g.lead) != sum(g.trail) for g in gens):
        raise InvalidParameter("the fiber oracle needs homogeneous generators")
    budget = default_budget()
    mm = ring.monomial_map
    nvars = ring.nvars
    width = degree.bit_length() + 1
    units = [1 << width * k for k in range(nvars)]
    hi = sum(units) << width - 1

    def pack(mono):
        return sum(e << width * k for k, e in enumerate(mono))

    moves = [(g.degree(), pack(g.lead), pack(g.trail)) for g in gens if g.degree() <= degree]
    start = width * (ring.m + 1)  # s_i at coordinate i, t_j at m + 1 + j
    images = {(1 << width * i) + (1 << start + width * j) for i, j in ring.points}
    basis = gb.basis if gb is not None else ()
    # from the degree of the first unbalanced basis element on, no degree is consistent
    unbalanced = min((g.degree() for g in basis if not mm.balanced(g)), default=degree + 1)
    leads = [pack(g.lead) for g in basis if g.degree() <= degree]
    divisors = [[lead for lead in leads if lead & unit * ((1 << width) - 1)] for unit in units]
    levels = [[(0, 0)]]  # all monomials of each degree below e, (packed, last variable)
    standard, points, records = _extend(levels[0], units, hi, divisors), images, []
    for e in range(2, degree + 1):
        if (count := comb(nvars + e - 1, e)) > budget:
            raise DegreeInfeasible(f"degree {e} needs {count} monomials", budget=budget, monomials=count)
        levels.append(_extend(levels[-1], units, hi, [()] * nvars))
        standard = _extend(standard, units, hi, divisors)
        points = {q + img for q in points for img in images}
        parent = {}  # non-root monomial -> its parent
        span = 0
        for d, lead, trail in moves:
            for u, _ in levels[e - d] if d <= e else ():
                a, b = u + lead, u + trail
                while a in parent:
                    a = parent[a]
                while b in parent:
                    b = parent[b]
                if a != b:
                    parent[a] = b
                    span += 1
        target = count - len(points)
        records.append(FiberDegreeRecord(
            degree=e, monomials=count, fibers=len(points), target_dim=target, span_rank=span,
            generated=span == target,
            gb_consistent=gb is None or (e < unbalanced and len(standard) == len(points)),
        ))
    return FiberCertificate(degree, all(mm.balanced(g) for g in gens), tuple(records))
