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
from itertools import combinations_with_replacement
from math import comb, isqrt

from .errors import DegreeInfeasible, InvalidParameter
from .lattice import PlanarLattice
from .windows import RankWindow, as_context

Monomial = tuple

ORDER_KINDS = ("rank-lex", "rank-revlex", "lex", "revlex")
_ORDER_ALIASES = {"plain-lex": "lex", "plain-revlex": "revlex"}

DEFAULT_FIELD = 32003


@cache  # the trial division costs a tenth of a small window's certification
def require_field(p: int) -> int:
    """Ranks are taken mod p: p must be a prime below 2**31, the supported
    range, in which the trial division costs at most 46,340 steps."""
    if not 2 <= p < 2**31 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InvalidParameter(f"field must be a prime below 2**31, got {p}", field=p)
    return p


def default_budget() -> int:
    """Per-degree monomial enumeration budget; HIBI_LAB_BUDGET overrides."""
    try:
        return max(1000, int(os.environ.get("HIBI_LAB_BUDGET", "")))
    except ValueError:
        return 200_000


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

    def image_of_monomial(self, mono: Monomial):
        total = [0] * (self.m + 1 + self.n + 1)
        for k, e in enumerate(mono):
            if e:
                img = self.images[k]
                for c in range(len(total)):
                    total[c] += e * img[c]
        return tuple(total)

    def balanced(self, binom: "Binomial") -> bool:
        return self.image_of_monomial(binom.lead) == self.image_of_monomial(binom.trail)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Monomial, b: Monomial):
    """a / b, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_deg(a: Monomial) -> int:
    return sum(a)


def mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


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

    def key(self, mono: Monomial):
        if self.style == "lex":
            return (sum(mono), tuple(mono[i] for i in self.sig))
        return (sum(mono), tuple(-mono[i] for i in reversed(self.sig)))

    def greater(self, a: Monomial, b: Monomial) -> bool:
        return self.key(a) > self.key(b)


def monomial_order(kind: str, ring: WindowRing) -> MonomialOrder:
    kind = _ORDER_ALIASES.get(kind, kind)
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
    for k, e in enumerate(mono):
        if e:
            mask |= 1 << k
    return mask


class Reducer:
    """Division against a fixed binomial list, with support-mask prefiltering."""

    def __init__(self, basis=()):
        self.items = [(_support_mask(g.lead), g.lead, g.trail) for g in basis]

    def append(self, g: Binomial):
        self.items.append((_support_mask(g.lead), g.lead, g.trail))

    def reduce(self, mono: Monomial) -> Monomial:
        changed = True
        while changed:
            changed = False
            mm = _support_mask(mono)
            for lead_mask, lead, trail in self.items:
                if lead_mask & ~mm:
                    continue
                u = mono_div(mono, lead)
                if u is not None:
                    mono = mono_mul(u, trail)
                    changed = True
                    break
        return mono


def normal_form(x, basis, order: MonomialOrder):
    """Normal form of a monomial (-> monomial) or binomial (-> binomial or None)."""
    reducer = basis if isinstance(basis, Reducer) else Reducer(basis)
    if isinstance(x, Binomial):
        a = reducer.reduce(x.lead)
        b = reducer.reduce(x.trail)
        return make_binomial(a, b, order)
    return reducer.reduce(tuple(x))


def s_binomial(f: Binomial, g: Binomial, order: MonomialOrder):
    lcm = mono_lcm(f.lead, g.lead)
    a = mono_mul(mono_div(lcm, f.lead), f.trail)
    b = mono_mul(mono_div(lcm, g.lead), g.trail)
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
    basis = _sorted_binomials(set(basis), order)
    # minimalize: ascending graded order guarantees divisor leads come first
    kept = []
    for g in basis:
        if not any(mono_div(g.lead, h.lead) is not None for h in kept):
            kept.append(g)
    # leads of a minimal set are irreducible against each other, so sweeps
    # only rewrite trails; iterate to a fixpoint
    changed = True
    while changed:
        changed = False
        out = []
        for g in kept:
            others = Reducer(h for h in kept if h.lead != g.lead)
            trail = others.reduce(g.trail)
            if trail == g.lead:
                changed = True
                continue
            if trail != g.trail:
                changed = True
                g = make_binomial(g.lead, trail, order)
            out.append(g)
        kept = _sorted_binomials(set(out), order)
    return tuple(kept)


def buchberger(gens, order: MonomialOrder, spair_budget: int | None = None) -> GroebnerReport:
    """Binomial Buchberger: normal pair selection, coprime-lead criterion.

    Pairs are popped smallest-lcm-first from a heap (key computed once per
    pair).  Returns the interreduced basis, which is unique for the given
    order; the quadratic and squarefree flags describe that reduced basis.
    """
    basis = []
    for g in gens:
        h = make_binomial(g.lead, g.trail, order)
        if h is not None and h not in basis:
            basis.append(h)
    reducer = Reducer(basis)
    heap = []

    def push_pairs(j):
        for i in range(j):
            # Buchberger's first criterion: coprime leads reduce to zero
            if mono_coprime(basis[i].lead, basis[j].lead):
                continue
            lcm = mono_lcm(basis[i].lead, basis[j].lead)
            heapq.heappush(heap, (mono_deg(lcm), order.key(lcm), i, j))

    for j in range(len(basis)):
        push_pairs(j)
    processed = 0
    budget = spair_budget or 500_000
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        if processed > budget:
            raise DegreeInfeasible("S-pair budget exhausted", budget=budget)
        s = s_binomial(basis[i], basis[j], order)
        if s is None:
            continue
        r = normal_form(s, reducer, order)
        if r is None:
            continue
        basis.append(r)
        reducer.append(r)
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

    pairs holds the terms (a, b) of the generators a - b.  kinds may be
    "auto" (try rank-lex, rank-revlex, lex, revlex in that order), a single
    kind, or an iterable of kinds.  Returns (order, generators, report,
    kinds tried) for the winning order or, if none qualifies, for the last
    one, with the report's flags down.
    """
    if kinds == "auto":
        kinds = ORDER_KINDS
    elif isinstance(kinds, str):
        kinds = (kinds,)
    kinds = tuple(kinds)
    if not kinds:
        raise InvalidParameter("no candidate order kinds given")
    tried = []
    for kind in kinds:
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


def _rank_mod_p(rows, ncols: int, p: int) -> int:
    """Exact rank over GF(p) by sparse Gaussian elimination; rows are
    {column: coefficient} dicts over ncols columns."""
    if not rows or not ncols:
        return 0
    pivots = {}
    rank = 0
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {cc: vv * inv % p for cc, vv in row.items()}
                rank += 1
                break
            factor = row[c]
            for cc, vv in piv.items():
                nv = (row.get(cc, 0) - factor * vv) % p
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)
    return rank


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

    # Not a field: every span is taken at DEFAULT_FIELD.  Kept only because
    # bench/tracing.py::_observe_fiber reads it for its second-field counter;
    # drop both together.  No program code reads it.
    fields_used = (DEFAULT_FIELD,)

    @property
    def generated(self) -> bool:
        return self.membership_ok and all(d.generated for d in self.per_degree)

    @property
    def gb_certified(self) -> bool:
        return all(d.gb_consistent for d in self.per_degree)


def toric_fiber_oracle(
    ring,
    gens,
    gb: GroebnerReport | None = None,
    degree: int = 4,
    budget: int | None = None,
) -> FiberCertificate:
    """Certify membership, generation and the Groebner property degree by degree.

    For each degree e <= degree, all degree-e monomials are grouped by image
    under the monomial map.  Fiber differences span the degree-e piece of the
    toric ideal; generation holds when monomial multiples of the generators
    reach that dimension, that is when every fiber is connected under the
    degree-e moves.  Each row u*lead - u*trail has one +1 and one -1, so the
    rows form the incidence matrix of the move graph on the monomials, whose
    rank is #monomials - #components in every characteristic: the rank at
    DEFAULT_FIELD is the rank over Q.  A candidate basis is consistent when
    every fiber has a single normal form.  The first argument may be a
    WindowRing or its MonomialMap.
    """
    if degree < 2:
        raise DegreeInfeasible("degree bound must be at least 2", degree=degree)
    budget = budget or default_budget()
    mm = ring if isinstance(ring, MonomialMap) else ring.monomial_map
    nvars = len(mm.images)
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
                forms = {normal_form(m, reducer, gb.order) for m in members}
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
