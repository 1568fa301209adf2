"""Exact binomial-ideal machinery for window subrings.

Monomials at the API edge are dense exponent tuples over the window's
variables (one variable per band point, canonically sorted by (rank, i)).
Inside, the straightening law gives each term as a sparse tuple of variable
indices.  The order search leads and counts them on those indices (_Led);
Buchberger, its reducer and the interreduction pack terms into ints
(_Layout).  A WindowIdeal and a GroebnerReport pack their generators and
basis on first read, and unpack them only when their Binomials are read.
Every polynomial handled here is a pure difference of two monomials, so
S-polynomials and reductions stay binomial and all coefficients stay
+1/-1; Buchberger below is specialized accordingly.  The
toric side is the monomial map sending the variable at (i, j) to s_i t_j;
fibers of that map give an independent membership, generation and Groebner
certificate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, compress, count, islice, repeat, starmap
from math import comb, isqrt
from operator import eq, floordiv, itemgetter, mod, mul, neg, or_

from . import errors
from .errors import (
    BudgetExceeded,
    DegreeInfeasible,
    InvalidParameter,
    PreconditionFailed,
    VerificationFailed,
    search_budget,
)
from .lattice import PlanarLattice, lazy, row_masks
from .windows import RankWindow, as_context

Monomial = tuple

ORDER_KINDS = ("rank-lex", "rank-revlex", "lex", "revlex")

DEFAULT_FIELD = 32003


@cache  # the trial division costs a tenth of a small window's certification
def require_field(p: int) -> int:
    """Ranks are taken mod p: p must be a prime below 2**31, the supported
    range, in which the trial division costs at most 46,340 steps."""
    if not 2 <= p < 2**31 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise InvalidParameter(f"field must be a prime below 2**31, got {p}", field=p)
    return p


def require_degree(degree: int) -> None:
    """The fiber oracle's degree bound must be at least 2."""
    if degree < 2:
        raise InvalidParameter(f"degree bound must be at least 2, got {degree}", degree=degree)


@dataclass(frozen=True)
class WindowRing:
    """Polynomial ring with one variable per band point of a window."""

    m: int
    n: int
    window: RankWindow
    points: tuple

    @property
    def nvars(self) -> int:
        return len(self.points)

    @lazy
    def index(self):
        return {p: k for k, p in enumerate(self.points)}

    @lazy
    def rows(self) -> tuple:
        """The columns of the points in each row i = 0..m as a bitmask; for a
        window's ring, the band's rows (WindowContext.rows)."""
        return row_masks(self.points, self.m)

    def monomial(self, *points) -> Monomial:
        exps = [0] * self.nvars
        for p in points:
            exps[self.index[tuple(p)]] += 1
        return tuple(exps)

    def exponents_dict(self, mono: Monomial):
        return {self.points[k]: mono[k] for k in compress(count(), mono)}

    def format_monomial(self, mono: Monomial) -> str:
        parts = []
        for k in compress(count(), mono):
            (i, j), e = self.points[k], mono[k]
            parts.append(f"y_{{{i}{j}}}" + (f"^{e}" if e > 1 else ""))
        return "*".join(parts) if parts else "1"

    @lazy
    def semigroup(self) -> "Semigroup":
        return Semigroup(self.points, self.rows)


class Semigroup:
    """The semigroup of a window's monomial map, held once per WindowRing
    and read by the order search, the fiber oracle, the balance checks and
    betti_numbers, whose Koszul levels are built over the core's variables
    (core, betti._semigroup_levels) and whose Euler check reads size.

    images[k] packs the image s_i t_j of variable k into an int, a field per
    entry with a guard bit on top: t_j, then s_i, counted from the window's
    least column and row, which get no field, since the t entries and the s
    entries of a level's points (or of an equal-degree binomial's terms)
    each sum to the degree; smaller ints with varied low fields hash faster.
    Entries of L_e and of a degree-e image are at most e; wide(e) repacks,
    dropping the levels built, when e exceeds capacity, 7 at first, so that
    the order search (L_3) and the oracle share one packing.  size(e) is
    |L_e| (|L_0| = 1), and sizes lists |L_1|, |L_2|, ... as far as built.

    The levels are counted over a core.  A point alone in its row (column)
    is a leaf edge of the row-column graph: its exponent in a monomial is
    the image's entry at that row (column), so it lies on no binomial of the
    toric ideal.  Peeling leaves off again and again (_core_rows) leaves a
    core, whose variables core lists, and b = free peeled points; by
    induction I = I_core S, S/I = K[peeled] (x) S_core/I_core and
    |L_e| = sum_i C(b + i - 1, i) |L_(e-i)(core)| (_lift).

    The core's rows fall into classes by column mask: class c has mu_c rows
    and column images T_c.  A point of L_e(core) is a row multiset and a
    column part that sums one column of each chosen row, so the column
    parts reachable with a_c rows of each class c depend only on a, and
    |L_e(core)| = sum_(|a| = e) prod_c C(mu_c + a_c - 1, a_c) |T_1^(+a_1) + ... + T_k^(+a_k)|,
    T^(+a) the a-fold sumset.  A class of one row keeps the row's s field
    in its cells; the cells of a larger class are its column images alone.
    So a level holds, under each key (the counts a_c of the larger classes,
    one field each), the set of the ints that pack a column part with the
    counts of the one-row classes, and the set counts _weight(key) times.
    A level is split by the largest class c of its points: taking a cell of
    class c off a point of L_e leaves one of L_(e-1) with classes <= c, so
    the parts {q + cell : q in L_(e-1) with largest class <= c, cell of
    class c} are disjoint, and q is added only to the cells of classes at
    or above its own.  With every mu_c = 1 every key is 0 and weighs 1, and
    this is the split by largest row with a point per int; a full grid
    window has one class, so its L_e is one column sumset.  L_e overflows
    iff e times the union of the images reaches a guard, and raises
    VerificationFailed naming e.  The object holds the ring's points and
    row masks but not the ring, which holds it.
    """

    def __init__(self, points: tuple, rows: tuple):
        self.points, self.rows, self.capacity = points, rows, 0
        self.wide(7)

    def wide(self, degree: int) -> list:
        """The packed images, in fields that hold entries up to degree."""
        if degree > self.capacity:
            bits = degree.bit_length()
            self.capacity, width = (1 << bits) - 1, bits + 1
            i0, j0 = map(min, zip(*self.points))
            span = max(j for _, j in self.points) - j0  # the t fields
            self.images = [(i > i0 and 1 << width * (span + i - i0 - 1))
                           + (j > j0 and 1 << width * (j - j0 - 1)) for i, j in self.points]
            self._used = reduce(or_, self.images, 0)  # a 1 in each field that an image uses
            self.guard = self._used << bits
            self._columns = (1 << width * span) - 1  # the t fields
            self.sizes = [len(set(self.images))]  # |L_1|, |L_2|, ...
            self._parts = None  # the core's top level by largest class, from the first level built
        return self.images

    @lazy
    def _core_rows(self) -> list:
        """The row masks of the core.  The points alone in their row or
        column are peeled off again and again, a pass's leaves together (no
        two share a leaf end), unless a point repeats: a double edge."""
        rows, core = None, list(self.rows)
        if sum(map(int.bit_count, core)) == len(self.points):
            while core != rows:
                rows, seen, twice = core, 0, 0
                for r in rows:
                    twice |= seen & r
                    seen |= r
                core = [r & ~(seen & ~twice) if r & r - 1 else 0 for r in rows]
        return core

    @lazy
    def free(self) -> int:
        """b, the number of peeled points."""
        return sum(map(int.bit_count, self.rows)) - sum(map(int.bit_count, self._core_rows))

    @lazy
    def core(self) -> tuple:
        """The indices of the core's variables, the points the peel leaves,
        in variable order."""
        core = self._core_rows
        return tuple(k for k, (i, j) in enumerate(self.points) if core[i] >> j & 1)

    def _peel(self):
        """The core's classes and their cells, which are its L_1 by largest class."""
        core = self._core_rows
        mu = {}  # column mask -> the core rows with it, classes in the order of their first row
        for r in filter(None, core):
            mu[r] = mu.get(r, 0) + 1
        cells = {r: set() for r in mu}
        if mu:  # a forest peels to no core
            # a row of its own class keeps its s field, the rows of a larger class drop theirs
            keep = [-1 if mu.get(r) == 1 else self._columns for r in core]
            for (i, j), img in zip(self.points, self.images):
                if core[i] >> j & 1:
                    cells[core[i]].add(img & keep[i])
        self._cells = list(cells.values())
        self._core_sizes = [1, sum(map(mul, mu.values(), map(len, self._cells)))]  # |L_0(core)|, |L_1(core)|, ...
        # a class's unit of key: a field of its own for a class of several rows, 0 for one row
        width, self._mu, self._steps = self.capacity.bit_length() + 1, [], []
        for n in mu.values():
            self._steps.append(n > 1 and 1 << width * len(self._mu))
            if n > 1:
                self._mu.append(n)  # the classes of several rows, in key field order
        self._parts = [{step: part} for step, part in zip(self._steps, self._cells)]

    def _weight(self, key: int) -> int:
        """prod_c C(mu_c + a_c - 1, a_c), the row multisets with the counts
        a_c of the classes of more than one row that key packs."""
        width, weight = self.capacity.bit_length() + 1, 1
        for mu in self._mu:
            a = key & self.capacity
            weight *= comb(mu + a - 1, a)
            key >>= width
        return weight

    def size(self, e: int) -> int:
        if e < 0:
            raise InvalidParameter(f"semigroup degree must be at least 0, got {e}", degree=e)
        self.wide(e)
        if self._parts is None and len(self.sizes) < e:
            self._peel()
        while len(self.sizes) < e:
            degree = len(self.sizes) + 1
            if degree * self._used & self.guard:
                raise VerificationFailed("a semigroup entry overflows", degree=degree)
            # by largest class, then by key: the counts of the classes of several rows
            below, grown = {}, []  # below: the top level's points with largest class <= c, by key
            by_key = {}  # key -> the number of ints under it
            for part, cells, step in zip(self._parts, self._cells, self._steps):
                for key, points in part.items():
                    if key in below:
                        below[key].extend(points)
                    else:
                        below[key] = [*points]
                part = {}
                for key, points in below.items():
                    part[key + step] = top = {q + cell for q in points for cell in cells}
                    by_key[key + step] = by_key.get(key + step, 0) + len(top)
                grown.append(part)
            self._parts = grown
            self._core_sizes.append(sum(map(mul, map(self._weight, by_key), by_key.values())))
            self.sizes.append(_lift(self._core_sizes, self.free))
        return self.sizes[e - 1] if e else 1


def _lift(core: list, free: int) -> int:
    """The degree-e count, e = len(core) - 1, of a core with counts core[0..e]
    (core[0] = 1) and free more variables: a degree-e monomial is one of
    degree i in those times one of the core's, so sum_i C(free + i - 1, i)
    core[e - i]."""
    e = len(core) - 1
    if not free:
        return core[e]
    return sum(comb(free + i - 1, i) * core[e - i] for i in range(e + 1))


@dataclass(frozen=True)
class MonomialOrder:
    """Graded order: degree first, then (rev)lex over a variable significance list.

    sig lists variable indices from most to least significant.  Both styles
    are total, multiplicative and well-founded.
    """

    name: str
    style: str
    sig: tuple

    @lazy
    def _exponents(self):
        """Exponents in key order: sig for lex, reversed sig for revlex, as a tuple."""
        sig = self.sig if self.style == "lex" else self.sig[::-1]
        # itemgetter of one index returns a bare item, not a tuple
        return itemgetter(*sig) if len(sig) > 1 else lambda mono: tuple(mono[i] for i in sig)

    def key(self, mono: Monomial):
        if self.style == "lex":
            return (sum(mono), self._exponents(mono))
        return (sum(mono), tuple(map(neg, self._exponents(mono))))


def monomial_order(kind: str, ring: WindowRing) -> MonomialOrder:
    if kind not in ORDER_KINDS:
        raise InvalidParameter(f"unknown order kind {kind!r}", kind=kind)
    if kind.startswith("rank-"):
        keys = [(-(i + j), -i) for i, j in ring.points]
    else:
        keys = [(-i, -j) for i, j in ring.points]
    ranked = sorted(range(ring.nvars), key=keys.__getitem__)
    style = "revlex" if kind.endswith("revlex") else "lex"
    return MonomialOrder(name=kind, style=style, sig=tuple(ranked))


@dataclass(frozen=True)
class Binomial:
    """lead - trail with lead > trail in the ambient order."""

    lead: Monomial
    trail: Monomial


def defining_ideal_generators(ring: WindowRing, order: MonomialOrder):
    """One binomial per incomparable band pair whose meet and join ranks stay in band.

    For points (i, j) and (k, l) with i < k, j > l the binomial is
    y_ij y_kl - y_il y_kj; both inner points lie in the lattice by closure.
    """
    return _oriented(_straightening_pairs(ring), order)


def _sparse_term(mono: Monomial) -> tuple:
    """The dense monomial as a sorted tuple of variable indices, one per unit
    of exponent: y_0 y_2^2 is (0, 2, 2)."""
    return tuple([k for k, e in enumerate(mono) for _ in range(e)])


def _straightening_pairs(ring: WindowRing):
    """The terms (y_ij y_kl, y_il y_kj) of each defining binomial, unoriented,
    each a sparse term (_sparse_term).

    A binomial is a rectangle of band points, one per pair of rows i1 < i2
    and pair of columns j1 < j2 of ring.rows[i1] & ring.rows[i2].  Its
    incomparable corners (i1, j2) and (i2, j1) give the first term, and its
    meet (i1, j1) and join (i2, j2) the second, whose meet, of lower rank,
    comes first.  The list is sorted by the first terms, the order of a scan
    of the point pairs in (rank, i) order.
    """
    index, rows = ring.index, ring.rows
    out = []
    for i1, r1 in enumerate(rows):
        for i2 in range(i1 + 1, len(rows)):
            common = r1 & rows[i2]
            if common & common - 1:  # two columns or more
                # each column j with the variables of (i1, j) and (i2, j)
                columns = [(index[i1, j], index[i2, j])
                           for j in range(common.bit_length()) if common >> j & 1]
                for k, (meet, b) in enumerate(columns):  # meet: (i1, j1), b: (i2, j1)
                    for a, join in columns[k + 1:]:  # a: (i1, j2), join: (i2, j2)
                        out.append(((a, b) if a < b else (b, a), (meet, join)))
    out.sort()
    return out


def _oriented(pairs, order: MonomialOrder):
    """The binomials a - b of the sparse term pairs (a, b), led under order and sorted by it."""
    led = _Led(order, list(pairs))
    return list(_binomials(led.elements, led.layout))


class _Led:
    """Quadric binomials led under an order and sorted by it, held by
    variable index and packed on first read.

    The rank of a variable is its field in the lex layout of the order
    (_Layout): n - 1 less its place in order.sig.  The quadric y_a y_b has
    the code 2 n^2 + r_1 n + r_2, its ranks r_1, r_2 taken in descending
    order under lex and ascending order under revlex.  Codes compare as the
    order compares the terms: lex leads the term with the smaller ascending
    pair of places in sig, which is the larger descending pair of ranks,
    and revlex the term with the smaller descending pair of places, the
    larger ascending pair of ranks.  A binomial's code is lead * base +
    trail, base = 3 n^2, and codes lists them ascending, which is the order
    of the packed keys (lead ^ flip, trail ^ flip); terms that cancel drop
    out and a repeated binomial comes once.  Each code is read without a
    loop.

    elements packs the binomials into (lead, trail) ints of layout on first
    read, and lead_supports reads the leads by index.  packed() holds
    Buchberger's packed basis instead, with no codes, and lead_supports
    reads its leads off the packing.  size is the count.  With no pair (the
    zero ideal) every read is set up front, with no layout.
    """

    codes, size, base = (), 0, 1  # with no pair

    def __init__(self, order: MonomialOrder, pairs=()):
        self.order = order
        if not pairs:
            self.__dict__.update(elements=(), layout=None, lead_supports=(), lead_pairs=[])
            return
        self.base = 3 * len(order.sig) ** 2
        self.codes = self._lead(pairs)
        self.size = len(self.codes)

    def _lead(self, pairs) -> list:
        """The binomials' codes, ascending, with no call per term."""
        n, base = len(self.order.sig), self.base
        rank = [0] * n
        for r, k in enumerate(reversed(self.order.sig)):
            rank[k] = r
        lex, keys = self.order.style == "lex", set()
        two = 2 * n * n
        for (a0, a1), (b0, b1) in pairs:
            x, y = rank[a0], rank[a1]
            ka = two + (x * n + y if (x > y) == lex else y * n + x)
            x, y = rank[b0], rank[b1]
            kb = two + (x * n + y if (x > y) == lex else y * n + x)
            if ka > kb:
                keys.add(ka * base + kb)
            elif ka != kb:
                keys.add(kb * base + ka)
        return sorted(keys)

    @classmethod
    def packed(cls, order: MonomialOrder, elements, layout: "_Layout") -> "_Led":
        led = cls.__new__(cls)
        led.order, led.codes, led.size = order, None, len(elements)
        led.__dict__.update(elements=tuple(elements), layout=layout)
        return led

    @lazy
    def layout(self):
        """The order's layout for quadrics; None with no binomial."""
        return _Layout(self.order, _width(2)) if self.codes else None

    @lazy
    def elements(self) -> tuple:
        if not self.codes:
            return ()
        p, base, n = self.layout, self.base, len(self.order.sig)
        unit = [1 << p.width * f for f in range(n)]  # by rank: the rank is the lex field
        if self.order.style == "revlex":
            unit.reverse()  # the revlex field of rank r is n - 1 - r
        two, degree, out = 2 * n * n, 2 << p.top, []
        for e in self.codes:
            lead, trail = divmod(e, base)
            u, v = divmod(lead - two, n)
            x, y = divmod(trail - two, n)
            out.append((unit[u] + unit[v] + degree, unit[x] + unit[y] + degree))
        return tuple(out)

    @lazy
    def lead_supports(self):
        """Each lead's support as a bitmask over the variable indices, or None
        when a lead is not squarefree."""
        if self.codes is None:  # Buchberger's packed basis
            p = self.layout
            if any((lead + p.twice) & p.hi for lead, _ in self.elements):
                return None
            return tuple([p.variables(lead) for lead, _ in self.elements])
        if any(starmap(eq, self.lead_pairs)):
            return None
        return tuple([1 << a | 1 << b for a, b in self.lead_pairs])

    @lazy
    def lead_pairs(self) -> list:
        """The variables (a, b) of each quadric lead y_a y_b, in order; a == b
        for a square."""
        n, base = len(self.order.sig), self.base
        two, by_rank = 2 * n * n, self.order.sig[::-1]
        pairs = []
        for e in self.codes:
            u, v = divmod(e // base - two, n)
            pairs.append((by_rank[u], by_rank[v]))
        return pairs


def _binomials(elements, layout: "_Layout | None") -> tuple:
    """The Binomials of the packed (lead, trail) ints of elements (the zero
    ideal's none need no layout)."""
    return tuple([Binomial(layout.unpack(lead), layout.unpack(trail)) for lead, trail in elements])


def _width(degree: int) -> int:
    """Bits per packed field when no basis element has a degree above degree:
    values up to 2 * degree, the largest lcm degree, stay below the guard."""
    return (2 * degree).bit_length() + 1


class _Layout:
    """Monomials packed into ints in the field layout of a monomial order.

    Each variable owns a field of width bits whose top bit is a guard, 0 in
    every packed monomial; the degree sits in one more field on top.  Fields
    follow the order's significance, the most significant variable highest
    for lex and the least significant one highest for revlex, so the order's
    key of m is the int m ^ flip: flip is 0 for lex and every value bit of
    the variable fields for revlex.  With hi the guard bits, a lead l divides
    m iff ((m | hi) - l) & hi == hi, and (m + low) & hi marks the support.
    units[k] is y_k packed without its degree, and variable_at[f] the
    variable of field f.
    """

    def __init__(self, order: MonomialOrder, width: int):
        self.variable_at = lowest_first = order.sig[::-1] if order.style == "lex" else order.sig
        self.units = units = [0] * len(lowest_first)
        for field, k in enumerate(lowest_first):
            units[k] = 1 << width * field
        self.width = width
        self.top = top = width * len(order.sig)
        self.ones = ones = (1 << width) - 1
        self.varmask = (1 << top) - 1  # every variable field, no degree
        rep = self.varmask // ones  # a 1 in every variable field
        self.hi = rep << width - 1
        self.low = self.hi - rep  # every value bit of the variable fields
        self.twice = self.low - rep  # m + twice reaches a guard where a value is >= 2
        self.flip = self.low if order.style == "revlex" else 0

    def lcm(self, a: int, b: int) -> int:
        """The lcm of packed a and b: one borrow test marks the fields where b
        is the larger, and the degree is the field sum mod 2**width - 1."""
        hi, ones = self.hi, self.ones
        a &= self.varmask
        b &= self.varmask
        larger = (((b | hi) - a) & hi) >> self.width - 1  # a 1 in each field where b >= a
        lcm = a ^ (a ^ b) & larger * ones
        return lcm + (lcm % ones << self.top)

    def pack(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self.units)) + (sum(mono) << self.top)

    def unpack(self, packed: int) -> Monomial:
        """The dense tuple of packed, read off the fields of its support."""
        width, ones, variable_at = self.width, self.ones, self.variable_at
        exps = [0] * len(variable_at)
        support = (packed + self.low) & self.hi
        while support:
            guard = support & -support
            support ^= guard
            field = guard.bit_length() // width - 1
            exps[variable_at[field]] = packed >> width * field & ones
        return tuple(exps)

    def variables(self, packed: int) -> int:
        """The support of packed as a bitmask over the variable indices."""
        width, variable_at = self.width, self.variable_at
        mask = 0
        support = (packed + self.low) & self.hi
        while support:
            guard = support & -support
            support ^= guard
            mask |= 1 << variable_at[guard.bit_length() // width - 1]
        return mask


class Reducer:
    """Division of packed monomials against a binomial list, always by the
    first dividing lead in list order.

    A quadratic lead y_a y_b (a square when a == b) sits in a dict keyed by
    its support's guard bits, with its list position; partners[b] holds the
    guard bits of the a at or below b that pair with b.  One pass over a
    monomial's support then looks up only the pairs in it that some lead
    uses, and none at all for most normal monomials.  Leads of any other
    degree are scanned in list order with the borrow test, up to the best
    position found.  Normal forms are memoised, with every monomial met on
    the way; append clears the memo.
    """

    def __init__(self, layout: _Layout):
        self.layout = layout
        self.items = []  # (lead, trail) in list order
        self._pairs = {}  # support of a quadratic lead -> position of the first such lead
        self._partners = {}  # guard bit b -> guard bits of the a <= b with a lead y_a y_b
        self._scan = []  # (position, lead) of the other leads
        self._memo = {}  # monomial -> normal form

    def append(self, lead: int, trail: int | None = None):
        """Append lead - trail; a lead alone serves divisor() only."""
        pos = len(self.items)
        self.items.append((lead, trail))
        self._memo.clear()
        p = self.layout
        if lead >> p.top == 2:
            support = (lead + p.low) & p.hi
            if support not in self._pairs:
                self._pairs[support] = pos
                b = 1 << support.bit_length() - 1
                self._partners[b] = self._partners.get(b, 0) | support & -support
        else:
            self._scan.append((pos, lead))

    def divisor(self, mono: int):
        """List position of the first lead dividing mono, or None."""
        p = self.layout
        hi = p.hi
        best = None
        if partners := self._partners:
            pairs = self._pairs
            support = (mono + p.low) & hi
            seen = 0
            while support:
                b = support & -support
                support ^= b
                seen |= b
                hits = partners.get(b, 0) & seen
                if not hits:
                    continue
                if hits & b and not (mono + p.twice) & b:
                    hits ^= b  # y_b^2 leads but y_b occurs once
                while hits:
                    a = hits & -hits
                    hits ^= a
                    pos = pairs[a | b]
                    if best is None or pos < best:
                        best = pos
        for pos, lead in self._scan:
            if best is not None and pos > best:
                break
            if ((mono | hi) - lead) & hi == hi:
                return pos
        return best

    def reduce(self, mono: int) -> int:
        memo = self._memo
        form = memo.get(mono)
        if form is not None:
            return form
        path = [mono]
        while (pos := self.divisor(mono)) is not None:
            lead, trail = self.items[pos]
            mono = mono - lead + trail
            if (form := memo.get(mono)) is not None:
                break
            path.append(mono)
        else:
            form = mono
        for m in path:
            memo[m] = form
        return form


def _led(a: int, b: int, flip: int):
    """(lead, trail) of the packed binomial a - b, or None when the terms cancel."""
    if a == b:
        return None
    return (a, b) if a ^ flip > b ^ flip else (b, a)


def normal_form(x, basis, order: MonomialOrder):
    """Normal form of a monomial (-> monomial) or binomial (-> binomial or None)
    against basis, binomials led under order."""
    terms = (x.lead, x.trail) if isinstance(x, Binomial) else (tuple(x),)
    if any(sum(g.trail) > sum(g.lead) for g in basis):
        raise InvalidParameter("normal_form needs basis elements led by their higher-degree term")
    degree = max(map(sum, chain(terms, (g.lead for g in basis))))
    layout = _Layout(order, _width(degree))
    reducer = Reducer(layout)
    for g in basis:
        reducer.append(layout.pack(g.lead), layout.pack(g.trail))
    forms = [reducer.reduce(layout.pack(t)) for t in terms]
    if len(forms) == 1:
        return layout.unpack(forms[0])
    led = _led(*forms, layout.flip)
    return led and Binomial(*map(layout.unpack, led))


@dataclass(frozen=True, eq=False)
class GroebnerReport:
    """A reduced basis under led's order, with flags describing it.

    led holds the basis elements (_Led): Buchberger's packed, and those of
    an order decided by counting by variable index, as the WindowIdeal's
    generators when no trail is a lead, in one _Led that both read.
    elements, their (lead, trail) packed into ints of layout, are built on
    first read, and basis unpacks them; the zero ideal's empty basis has no
    layout.  size is the basis size, and lead_supports the leads' supports
    as bitmasks over the variable indices, or None when a lead is not
    squarefree; neither packs a counted basis.
    """

    led: _Led = field(repr=False)
    quadratic: bool
    squarefree: bool
    spairs_processed: int

    order = property(lambda self: self.led.order)
    elements = property(lambda self: self.led.elements)
    layout = property(lambda self: self.led.layout)
    size = property(lambda self: self.led.size)
    lead_supports = property(lambda self: self.led.lead_supports)

    @lazy
    def basis(self) -> tuple:
        return _binomials(self.elements, self.layout)


def _interreduce(items, layout: _Layout):
    """The reduced basis of the packed (lead, trail) items: minimal leads,
    every trail in normal form.

    In ascending order a divisor's lead comes first, so one reducer grown
    along the sorted list minimalizes.  Reducing a trail against all kept
    elements, its own included, is reducing it against the others: every
    monomial on the way is at most the trail < its lead, so that lead
    divides none of them.  The leads stay put, so one sweep leaves every
    trail reduced.
    """
    flip = layout.flip
    reducer = Reducer(layout)
    # sorted by the order's keys, (lead ^ flip, trail ^ flip)
    for lead, trail in sorted({(lead ^ flip, trail ^ flip) for lead, trail in items}):
        if reducer.divisor(lead ^ flip) is None:
            reducer.append(lead ^ flip, trail ^ flip)
    return [(lead, reducer.reduce(trail)) for lead, trail in reducer.items]


def buchberger(gens, order: MonomialOrder) -> GroebnerReport:
    """Binomial Buchberger on packed monomials: normal pair selection,
    coprime-lead criterion.

    Pairs are popped smallest-lcm-first from a heap of int keys, ties by
    position.  An S-pair term and a reduction step are each lcm - lead +
    trail on packed ints, and the lcm is a fieldwise max from one borrow
    test.  The fields are wide enough for twice the largest basis degree;
    a new element past that reruns the whole (deterministic) run wider.
    Returns the interreduced basis, which is unique for the given order; the
    quadratic and squarefree flags describe that reduced basis.  Past
    errors.SPAIR_LIMIT S-pairs, DegreeInfeasible names the budget and the count.
    No generator gives the empty report, with no layout or reducer built.
    """
    gens = tuple(gens)  # a rerun reads them again
    if not gens:
        return GroebnerReport(_Led(order), True, True, 0)
    width = _width(max(max(sum(g.lead), sum(g.trail)) for g in gens))
    while not isinstance(report := _buchberger(gens, order, width), GroebnerReport):
        width = _width(report)
    return report


def _buchberger(gens, order: MonomialOrder, width: int):
    """buchberger at one field width: the report, or the basis degree that
    needs wider fields."""
    p = _Layout(order, width)
    hi, low, flip, top = p.hi, p.low, p.flip, p.top
    limit = 1 << width - 1  # twice every basis degree stays below the guard
    basis = []
    for g in gens:
        basis.append(_led(p.pack(g.lead), p.pack(g.trail), flip))
    basis = [h for h in dict.fromkeys(basis) if h is not None]
    if basis and 2 * (degree := max(basis)[0] >> top) >= limit:
        return degree
    reducer = Reducer(p)
    for lead, trail in basis:
        reducer.append(lead, trail)
    items, reduce, lcm_of = reducer.items, reducer.reduce, p.lcm
    leads = [lead for lead, _ in basis]
    supports = [(lead + low) & hi for lead in leads]
    heap = []

    def push_pairs(j):
        lead, support = leads[j], supports[j]
        for i in range(j):
            # Buchberger's first criterion: coprime leads reduce to zero
            if supports[i] & support:
                heapq.heappush(heap, (lcm_of(leads[i], lead) ^ flip, i, j))

    for j in range(len(leads)):
        push_pairs(j)
    processed = 0
    budget = errors.SPAIR_LIMIT
    while heap:
        key, i, j = heapq.heappop(heap)
        processed += 1
        if processed > budget:
            raise DegreeInfeasible(
                "S-pair budget exhausted", budget=budget, spairs=processed
            )
        lcm = key ^ flip
        (lead_i, trail_i), (lead_j, trail_j) = items[i], items[j]
        r = _led(reduce(lcm - lead_i + trail_i), reduce(lcm - lead_j + trail_j), flip)
        if r is None:
            continue
        lead, trail = r
        if 2 * (lead >> top) >= limit:
            return lead >> top
        reducer.append(lead, trail)
        leads.append(lead)
        supports.append((lead + low) & hi)
        push_pairs(len(leads) - 1)
    return _report(_Led.packed(order, _interreduce(items, p), p), processed)


def _report(led: _Led, spairs: int) -> GroebnerReport:
    """The report on the reduced basis led, its flags read off the packed
    ints; the basis stays packed."""
    p = led.layout
    return GroebnerReport(
        led,
        quadratic=all(lead >> p.top == 2 for lead, _ in led.elements),
        squarefree=not any((lead + p.twice) & p.hi or (trail + p.twice) & p.hi
                           for lead, trail in led.elements),
        spairs_processed=spairs,
    )


def _counted(led: _Led, spairs: int) -> GroebnerReport:
    """The report on the generators led, a Groebner basis by counting or by
    coprime leads (order_search's (a) and (c)): quadrics with distinct
    leads.  The reduced basis is led itself unless a trail equals a lead,
    and _interreduce's basis then.

    No lead divides another (distinct quadrics), and a lead divides a
    quadric trail only when the two are equal, so with no trail among the
    leads every element is already reduced.  That test and the flags run on
    the codes (_Led): the square y_r^2 of the variable of rank r has the
    code 2 n^2 + r (n + 1).
    """
    base, codes = led.base, led.codes
    trails = set(map(mod, codes, repeat(base)))
    if not trails.isdisjoint(map(floordiv, codes, repeat(base))):
        reduced = _interreduce(led.elements, led.layout)
        return _report(_Led.packed(led.order, reduced, led.layout), spairs)
    n = len(led.order.sig)
    squares = range(2 * n * n, 3 * n * n, n + 1)
    squarefree = led.lead_supports is not None and trails.isdisjoint(squares)
    return GroebnerReport(led, True, squarefree, spairs)


@dataclass(frozen=True, eq=False)
class WindowIdeal:
    """Generators plus the first candidate order giving a quadratic squarefree basis.

    led holds the generators led under order (_Led), by variable index,
    and shares them with gb when the order was decided by counting and no
    trail is a lead.  elements, their (lead, trail) packed into ints of
    layout, are built on first read, and generators unpacks them; the zero
    ideal has none and no layout.  size is the generator count, which
    is_zero and is_principal read without packing.  quadratic_gb is the
    quadratic squarefree basis the linear-relatedness oracle reads,
    searched once.
    """

    ring: WindowRing
    order: MonomialOrder
    gb: GroebnerReport
    orders_tried: tuple
    led: _Led = field(repr=False)

    elements = property(lambda self: self.led.elements)
    layout = property(lambda self: self.led.layout)
    size = property(lambda self: self.led.size)

    @lazy
    def generators(self) -> tuple:
        return _binomials(self.elements, self.layout)

    @property
    def is_zero(self) -> bool:
        return not self.led.size

    @property
    def is_principal(self) -> bool:
        return self.led.size == 1

    @lazy
    def quadratic_gb(self) -> GroebnerReport:
        """gb when it is quadratic and squarefree, else the auto order
        search's basis on the generators; PreconditionFailed names the
        orders tried when no candidate order gives one."""
        if self.gb.quadratic and self.gb.squarefree:
            return self.gb
        pairs = [(_sparse_term(g.lead), _sparse_term(g.trail)) for g in self.generators]
        found = order_search(self.ring, pairs)
        if not (found.gb.quadratic and found.gb.squarefree):
            raise PreconditionFailed(
                "no candidate order gives a quadratic squarefree basis",
                orders_tried=list(found.orders_tried),
            )
        return found.gb


def order_search(ring: WindowRing, pairs, kinds="auto") -> WindowIdeal:
    """The first candidate order whose reduced basis is quadratic and squarefree.

    pairs holds the terms (a, b) of the generators a - b, each a sparse
    quadric term (_straightening_pairs, _sparse_term).  kinds is "auto" (try rank-lex,
    rank-revlex, lex, revlex in that order) or a single kind; monomial_order
    rejects any other value.  Returns the WindowIdeal of the winning order
    or, if none qualifies, of the last one, with the report's flags down.
    The answer is buchberger's under each order tried in turn; most orders
    are decided by counting instead.

    Every term must be a quadric; InvalidParameter names the degree of the
    first that is not, before any order is tried.  Each candidate leads the
    generators on variable indices (_Led): a term leads when its pair of
    places in the order's significance list sig is the smaller, ascending
    under lex and descending under revlex, and equal terms drop out.
    Nothing is packed unless buchberger runs ((d)), a trail equals a lead,
    or elements, generators or basis are read, and then in the packed
    route's sorted order.

    Let G be the generators led under an order, I the toric ideal of the
    window (the kernel of its monomial map) and L_d the semigroup level of
    degree d, so dim (S/I)_d = |L_d|.  ring.semigroup counts |L_2| and |L_3|
    by row classes (Semigroup): with mu_c core rows of column mask c,
    |L_d(core)| = sum_(|a| = d) prod_c C(mu_c + a_c - 1, a_c) |T_1^(+a_1) +
    ... + T_k^(+a_k)|, so the full window of a grid, one class, needs one
    column sumset per level.  When every generator is balanced (so G lies
    in I) and its lead is squarefree, the
    distinct leads are the edges of a lead graph on the n variables.  The
    degree-d monomials that no lead divides number std_2 = n + #non-edges
    and std_3 = n + 2 #non-edges + #independent triples, and std_d >= |L_d|
    since in(G) lies in in(I), which has the Hilbert function of I
    (Macaulay; Sturmfels, Groebner Bases and Convex Polytopes, ch. 4).

    (a) If std_2 = |L_2| and std_3 = |L_3|, G is a Groebner basis: an S-pair
        of leads sharing a variable has degree 3 (2 for equal leads, which
        distinct edges exclude) and lies in I, so its remainder lies in I with
        only standard terms of in(I), hence is 0; coprime leads reduce to 0 by
        Buchberger's first criterion.  The report is then G interreduced,
        with the lead pairs sharing a variable as the S-pairs processed,
        which is what buchberger processes when it adds nothing.  They are
        counted, not processed, so errors.SPAIR_LIMIT, which bounds buchberger's
        pairs, does not hold for them.
    (b) An order passing (a) proves (G)_d = I_d for d = 2, 3, which holds for
        every order.  Under an order with std_2 = |L_2| but std_3 != |L_3|,
        in(G)_3 is then smaller than in((G))_3 while in(G)_2 is all of
        in((G))_2, so the reduced basis has a cubic element.  Such an order
        is skipped, with no Buchberger, when a later candidate passes (a);
        later candidates are led and counted only as far as that look-ahead
        needs, and each at most once.
    (c) When no two leads share a variable (a single generator included),
        Buchberger's first criterion alone makes G a Groebner basis, and
        buchberger processes no S-pair: the report is G interreduced with 0
        S-pairs, and |L_2| and |L_3| are not built for it.  The answer is
        the one counting would give, because (b) cannot fire for such an
        order: a later order passing (a) proves (G)_3 = I_3, and G is a
        basis of (G), so std_3 = dim (S/(G))_3 = |L_3| here.
    (d) Everything else runs buchberger: a generator that is unbalanced,
        repeated leads, std_2 != |L_2|, and an order of (b) with no later
        candidate passing (a), such as a single kind.

    In (a) and (c) the leads are distinct and no trail outranks them, so G
    interreduced is G itself, and the report shares the ideal's _Led,
    unless a trail equals a lead (_counted).
    """
    kinds = ORDER_KINDS if kinds == "auto" else (kinds,)
    pairs = list(pairs)
    degree = next(filter((2).__ne__, map(len, chain.from_iterable(pairs))), 2)
    if degree != 2:  # the first term that is not a quadric
        raise InvalidParameter(f"the order search takes quadrics, got a term of degree {degree}",
                               degree=degree)
    if not pairs:  # the zero ideal passes under the first order
        order = monomial_order(kinds[0], ring)
        report = buchberger([], order)
        return WindowIdeal(ring, order, report, kinds[:1], report.led)
    img = ring.semigroup.wide(2) if len(pairs) > 1 else ()
    balanced = len(pairs) > 1 and all(  # two generators or more, terms of one image each
        img[a0] + img[a1] == img[b0] + img[b1] for (a0, a1), (b0, b1) in pairs)

    candidates = {}

    def candidate(k):
        """(led generators, lead-graph counts when every generator is
        balanced)"""
        if k not in candidates:
            led = _Led(monomial_order(kinds[k], ring), pairs)
            candidates[k] = led, balanced and _lead_graph_counts(led.lead_pairs, ring.nvars)
        return candidates[k]

    def passes_a(counts):
        return counts and counts[:2] == (ring.semigroup.size(2), ring.semigroup.size(3))

    tried = []
    for k, kind in enumerate(kinds):
        led, counts = candidate(k)
        tried.append(kind)
        spairs = None  # the S-pairs processed, when the order is decided without buchberger
        if led.size <= 1 or counts and not counts[2]:
            spairs = 0  # (c)
        elif passes_a(counts):
            spairs = counts[2]  # (a)
        elif counts and counts[0] == ring.semigroup.size(2) and any(
            passes_a(candidate(later)[1]) for later in range(k + 1, len(kinds))
        ):
            continue  # (b)
        if spairs is None:
            report = buchberger(_binomials(led.elements, led.layout), led.order)
        else:
            report = _counted(led, spairs)
        if report.quadratic and report.squarefree:
            break
    return WindowIdeal(ring, led.order, report, tuple(tried), led)


def _lead_graph_counts(leads, nvars: int):
    """(std_2, std_3, lead pairs sharing a variable) for the quadric leads
    y_a y_b given as their variables (a, b), or None unless the leads are
    distinct and squarefree.

    near[a] is the mask of a's neighbours in the lead graph.  Of the triples
    of variables, t_k span k edges: the edges meet n - 2 triples each, so
    t_1 + 2 t_2 + 3 t_3 = #edges (n - 2), and the lead pairs sharing a
    variable number t_2 + 3 t_3.  So the independent triples number t_0 =
    C(n, 3) - #edges (n - 2) + #pairs sharing a variable - #triangles, and
    an edge ab closes one triangle per bit of near[a] & near[b].
    """
    near = [0] * nvars
    for a, b in leads:
        if a == b or near[a] >> b & 1:
            return None  # a square or a repeated lead
        near[a] |= 1 << b
        near[b] |= 1 << a
    overlaps = sum(comb(mask.bit_count(), 2) for mask in near)
    triangles = sum((near[a] & near[b]).bit_count() for a, b in leads) // 3
    non_edges = comb(nvars, 2) - len(leads)
    triples = comb(nvars, 3) - len(leads) * (nvars - 2) + overlaps - triangles
    return nvars + non_edges, nvars + 2 * non_edges + triples, overlaps


def window_ideal(lattice: PlanarLattice, window, kinds="auto") -> WindowIdeal:
    """Build the defining ideal and search candidate orders for a quadratic basis.

    The search is order_search's; if no order qualifies the last report is
    returned with its flags down, for the caller to treat as a finding.
    window may be a WindowContext, whose ring is then used.
    """
    ring = as_context(lattice, window).ring
    return order_search(ring, _straightening_pairs(ring), kinds)


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


def _standard_levels(leads, units, hi, ones: int):
    """The packed monomials of degree 0, 1, 2, ... that no packed lead
    divides, lazily, as _extend's (monomial, last variable) pairs, each
    degree enumerated when asked for; ones fills one field.  A degree lists
    its monomials in the order of combinations_with_replacement over the
    variables: x + y_v follows x in x's order, then v's."""
    divisors = [[lead for lead in leads if lead & unit * ones] for unit in units]
    level = [] if 0 in leads else [(0, 0)]  # a constant lead divides everything
    while True:
        yield level
        level = _extend(level, units, hi, divisors)


def _grow_faces(faces, near, holding):
    """The faces one size above faces, as (face, free) pairs of variable
    masks: a face of the lead complex holds no lead support, and free holds
    the variables above its highest that no 2-support joins to it.  F grows
    by each v in free unless F | v holds one of holding[v], the supports of
    other sizes topped by v; F | v keeps the rest of free less near[v]."""
    out = []
    for face, free in faces:
        while free:
            v = free & -free
            free ^= v
            grown = face | v
            if v not in holding or all(s | grown != grown for s in holding[v]):
                out.append((grown, free & ~near[v]))
    return out


def _lead_graph(supports, nvars: int) -> list:
    """Adjacency bitmasks of the lead graph, one edge a-b per support {a, b}:
    the leads' supports as bitmasks over the variable indices, two bits each,
    as GroebnerReport.lead_supports gives them for squarefree quadric leads."""
    adj = [0] * nvars
    for support in supports:
        low = support & -support
        a, b = low.bit_length() - 1, (support ^ low).bit_length() - 1
        adj[a] |= 1 << b
        adj[b] |= low
    return adj


def _face_counts(supports, nvars: int):
    """The number of degree-e monomials in nvars variables that no squarefree
    lead divides, for e = 1, 2, ..., lazily, from the lead supports (bitmasks).

    Such a monomial is standard iff its support is a face of the lead
    complex, and C(e - 1, k - 1) degree-e monomials have a given support of
    size k, so the count is sum_k f_k C(e - 1, k - 1), f_k the k-faces.  A
    variable in no support (a cone point, such as a peeled point no lead
    holds) joins every face: the faces are walked over the others and the
    cone points lifted back (_lift).  For degree e the faces of size e - 1
    are listed (_grow_faces), and f_e, the popcount of their free masks less
    the grown faces that hold another support, is counted without listing a
    face of size e.
    """
    ground = reduce(or_, supports, 0)  # the variables of some support
    graph = _lead_graph([s for s in supports if s.bit_count() == 2], nvars)
    near = {1 << v: mates for v, mates in enumerate(graph)}  # v's 2-support mates, by bit
    holding = {}  # the supports of other sizes, by their highest variable
    for s in filter(lambda s: s.bit_count() != 2, supports):
        holding.setdefault(1 << s.bit_length() - 1, []).append(s)
    faces, fvector, core = [(0, ground)], [1], [1]
    for e in count(1):
        if e > 1:
            faces = _grow_faces(faces, near, holding)
        size = sum(map(int.bit_count, map(itemgetter(1), faces)))
        for v, held in holding.items():
            size -= sum(free & v and any(s | face | v == face | v for s in held) for face, free in faces)
        fvector.append(size)
        core.append(sum(f * comb(e - 1, k - 1) for k, f in enumerate(fvector) if k))
        yield _lift(core, nvars - ground.bit_count())


def _standard_counts(supports, terms, nvars: int, degree: int):
    """The degree-e monomials in nvars variables that no lead divides, counted
    for e = 1, 2, ..., lazily: from the faces of the lead complex
    (_face_counts) given the supports (GroebnerReport.lead_supports), else
    from the standard monomials (_standard_levels) of the leads of terms,
    _fiber_terms on fields of degree.bit_length() + 1 bits, less those above
    degree, which divide no monomial counted and overflow their fields."""
    if supports is not None:
        return _face_counts(supports, nvars)
    width = degree.bit_length() + 1
    units = [1 << width * k for k in range(nvars)]
    leads = [lead for d, lead, _, _ in terms if d <= degree]
    return islice(map(len, _standard_levels(leads, units, sum(units) << width - 1, (1 << width) - 1)), 1, None)


def _fiber_terms(source, ring: WindowRing, units) -> list:
    """Each packed (lead, trail) of source, a WindowIdeal or a
    GroebnerReport, as (degree, lead, trail, balanced): one walk over each
    term's support repacks it on units (the oracle's fields; zeros for
    balance alone) and sums its image from ring.semigroup, and balanced is
    whether the two images agree.  An inhomogeneous binomial raises
    InvalidParameter."""
    elements, layout = source.elements, source.layout
    if not elements:
        return []
    width, ones, low, hi, top = layout.width, layout.ones, layout.low, layout.hi, layout.top
    if any(lead >> top != trail >> top for lead, trail in elements):
        raise InvalidParameter("binomials must be homogeneous")
    images = ring.semigroup.wide(max(lead >> top for lead, _ in elements))
    out = []
    for pair in elements:
        walked = []
        for term in pair:
            mono = image = 0
            support = (term + low) & hi
            while support:
                guard = support & -support
                support ^= guard
                field = guard.bit_length() // width - 1
                e, k = term >> width * field & ones, layout.variable_at[field]
                mono += e * units[k]
                image += e * images[k]
            walked += mono, image
        out.append((pair[0] >> top, walked[0], walked[2], walked[1] == walked[3]))
    return out


def toric_fiber_oracle(ideal: WindowIdeal, degree: int = 4) -> FiberCertificate:
    """Certify membership, generation and the Groebner property degree by degree.

    The ideal's generators and its own basis ideal.gb are read packed; the
    oracle counts and neither maps nor reduces a monomial.  The degree-e
    monomials fall into |L_e| fibers, one per point of the semigroup level
    L_e (ring.semigroup, which the order search has mostly grown to L_3),
    whose differences span target_dim = #monomials - |L_e| dimensions.  The moves u*lead - u*trail,
    deg u = e - deg g, are the edges of a graph on the monomials whose
    incidence matrix has rank #monomials - #components in every
    characteristic; span_rank counts it by union-find, and generation holds
    when it reaches target_dim, when every fiber is connected (a Markov
    basis, Diaconis-Sturmfels, Ann. Statist. 26, 1998).  With the basis
    elements of degree <= e balanced, reduction stays in a fiber, so the
    basis is consistent in degree e (one normal form per fiber) iff the
    degree-e monomials that no lead divides number |L_e| (Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 4), as hilbert_function also
    checks (_standard_counts): for squarefree leads from the faces of the
    lead complex, a route apart from the order search's lead-graph counts,
    else from the standard monomials themselves.  Each generator
    and basis element is walked once (_fiber_terms; a basis that shares the
    generators' _Led, once in all) for its terms on the oracle's fields, with
    degree.bit_length() + 1 bits per variable, and its balance.

    Each count is taken on a core and lifted (_lift): |L_e| from the
    semigroup's, whose peeled leaves lie on no binomial (Semigroup), the
    standard monomials from the lead complex less its cone points
    (_face_counts), and the span from the variables some move holds.  The b
    others take in every peeled point that no generator holds; both ends of
    a move have one part in them, so for each part of degree i the move
    graph is the core's in degree e - i, and span_rank = sum_i C(b + i - 1,
    i) span_core(e - i).  The union-find reads the core's monomials up to
    degree - (least move degree).  Each degree is held to search_budget()
    (BudgetExceeded) on the monomials it enumerates, checked before any work
    on it: those of the larger of the move core, which bounds the union-find
    and the faces, and the semigroup core (Semigroup.free), which bounds the
    levels L_e; a point on a path between two cycles lies on no binomial but
    stays in the semigroup core.  Non-squarefree leads send the standard
    monomials to _standard_levels, which walks every variable.  A degree
    bound below 2 raises InvalidParameter (require_degree).
    """
    require_degree(degree)
    ring, gb = ideal.ring, ideal.gb
    nvars = ring.nvars
    width = degree.bit_length() + 1
    units = [1 << width * k for k in range(nvars)]
    hi = sum(units) << width - 1
    terms = _fiber_terms(ideal, ring, units)
    budget = search_budget()
    moves = [(d, lead, trail) for d, lead, trail, _ in terms if d <= degree]
    held = reduce(or_, (lead | trail for _, lead, trail in moves), 0)
    core = [unit for unit in units if held & unit * ((1 << width) - 1)]  # the variables of some move
    # the variables a degree enumerates monomials on: the move core's and the
    # semigroup core's, or all of them where the standard monomials are enumerated
    supports = gb.lead_supports
    walked = nvars if supports is None else max(len(core), nvars - ring.semigroup.free)
    basis = terms if gb.led is ideal.led else _fiber_terms(gb, ring, units)
    # from the degree of the first unbalanced basis element on, no degree is consistent
    unbalanced = min((d for d, _, _, ok in basis if not ok), default=degree + 1)
    standard = _standard_counts(supports, basis, nvars, degree)  # counts of degree 1, 2, ...
    next(standard)  # degree 1
    least = min((d for d, _, _ in moves), default=degree + 1)
    levels = [[(0, 0)]]  # the core's monomials of degree 0, 1, ..., (packed, last variable)
    spans = []  # the core's span rank in degree 0, 1, ...
    records = []
    for e in range(2, degree + 1):
        if (work := comb(walked + e - 1, e)) > budget:
            raise BudgetExceeded(f"degree {e} needs {work} monomials", budget=budget, monomials=work)
        count = comb(nvars + e - 1, e)
        for k in range(len(spans), e + 1):
            while len(levels) <= k - least:  # a move of degree d reads the monomials of degree k - d
                levels.append(_extend(levels[-1], core, hi, [()] * len(core)))
            parent = {}  # non-root monomial -> its parent
            span = 0
            for d, lead, trail in moves:
                for u, _ in levels[k - d] if d <= k else ():
                    a, b = u + lead, u + trail
                    while a in parent:
                        a = parent[a]
                    while b in parent:
                        b = parent[b]
                    if a != b:
                        parent[a] = b
                        span += 1
            spans.append(span)
        span = _lift(spans, nvars - len(core))
        fibers = ring.semigroup.size(e)
        target = count - fibers
        records.append(FiberDegreeRecord(
            degree=e, monomials=count, fibers=fibers, target_dim=target, span_rank=span,
            generated=span == target,
            # from unbalanced on no degree reads the counts, so they may stop there
            gb_consistent=e < unbalanced and next(standard) == fibers,
        ))
    return FiberCertificate(degree, all(ok for *_, ok in terms), tuple(records))
