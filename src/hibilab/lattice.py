"""Finite posets and planar distributive lattices.

A planar distributive lattice is a finite sublattice of N^2 containing the
origin whose comparabilities are realized by saturated chains of unit rank
steps, where rank(i, j) = i + j.  By the Birkhoff correspondence such a
lattice is the ideal lattice of its poset of join-irreducible elements, and
for planar lattices that poset has width at most two.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    ChainConditionFails,
    LatticeInvalid,
    LatticeNormalization,
    MissingOrigin,
    NotJoinClosed,
    NotMeetClosed,
    WidthExceedsTwo,
)

Point = tuple


class lazy:
    """An attribute computed on first read and stored in the instance's
    __dict__, where later reads find it without calling the descriptor: the
    cached property of Python 3.12, with no lock taken on a first read."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.name, self.func(obj))


def row_masks(points, m: int) -> tuple:
    """For each row i = 0..m, the columns j of the points (i, j) as a bitmask."""
    rows = [0] * (m + 1)
    for i, j in points:
        rows[i] |= 1 << j
    return tuple(rows)


def _label_key(x):
    return (str(type(x).__name__), str(x))


class Poset:
    """Finite poset over hashable labels.

    The relation may be given as covers or as any subrelation of the intended
    order; it is normalized internally to the full reflexive-transitive order.
    Antisymmetry is checked after closure.
    """

    def __init__(self, elements, relations=()):
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("poset labels must be distinct")
        self.elements = tuple(elements)
        self._index = {e: k for k, e in enumerate(self.elements)}
        n = len(self.elements)
        leq = [[False] * n for _ in range(n)]
        for k in range(n):
            leq[k][k] = True
        for a, b in relations:
            if a not in self._index or b not in self._index:
                raise ValueError(f"relation mentions unknown element: {(a, b)!r}")
            leq[self._index[a]][self._index[b]] = True
        for k in range(n):
            lk = leq[k]
            for i in range(n):
                if leq[i][k]:
                    li = leq[i]
                    for j in range(n):
                        if lk[j]:
                            li[j] = True
        for i in range(n):
            for j in range(i + 1, n):
                if leq[i][j] and leq[j][i]:
                    raise ValueError(
                        f"relation is not antisymmetric: {self.elements[i]!r} and {self.elements[j]!r}"
                    )
        self._leq = leq

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self)} elements, {len(self.strict_pairs())} strict relations)"

    def leq(self, a, b):
        return self._leq[self._index[a]][self._index[b]]

    def less(self, a, b):
        return a != b and self.leq(a, b)

    def incomparable(self, a, b):
        return not self.leq(a, b) and not self.leq(b, a)

    def strict_pairs(self):
        return [
            (a, b)
            for a in self.elements
            for b in self.elements
            if self.less(a, b)
        ]

    def is_chain(self, labels=None):
        labels = self.elements if labels is None else list(labels)
        return all(
            not self.incomparable(a, b)
            for k, a in enumerate(labels)
            for b in labels[k + 1 :]
        )

    def sorted_chain(self, labels):
        """Sort a set of pairwise comparable labels in increasing order."""
        return sorted(labels, key=lambda a: (sum(1 for b in labels if self.less(b, a)),))


def posets_isomorphic(p: Poset, q: Poset) -> bool:
    """Backtracking isomorphism test, adequate for a few dozen elements."""
    if len(p) != len(q):
        return False

    def profile(poset):
        prof = {}
        for a in poset.elements:
            down = sum(1 for b in poset.elements if poset.less(b, a))
            up = sum(1 for b in poset.elements if poset.less(a, b))
            prof[a] = (down, up)
        # refine once by multiset of neighbour profiles
        refined = {}
        for a in poset.elements:
            below = sorted(prof[b] for b in poset.elements if poset.less(b, a))
            above = sorted(prof[b] for b in poset.elements if poset.less(a, b))
            refined[a] = (prof[a], tuple(below), tuple(above))
        return refined

    pp, qp = profile(p), profile(q)
    if sorted(pp.values()) != sorted(qp.values()):
        return False

    p_elems = sorted(p.elements, key=lambda a: (pp[a], _label_key(a)))
    by_class = {}
    for b in q.elements:
        by_class.setdefault(qp[b], []).append(b)

    assignment = {}
    used = set()

    def extend(k):
        if k == len(p_elems):
            return True
        a = p_elems[k]
        for b in by_class.get(pp[a], ()):
            if b in used:
                continue
            ok = True
            for a2, b2 in assignment.items():
                if p.leq(a, a2) != q.leq(b, b2) or p.leq(a2, a) != q.leq(b2, b):
                    ok = False
                    break
            if ok:
                assignment[a] = b
                used.add(b)
                if extend(k + 1):
                    return True
                del assignment[a]
                used.discard(b)
        return False

    return extend(0)


@dataclass(frozen=True)
class PlanarLattice:
    """Validated finite sublattice of N^2, anchored at the origin with a tight box."""

    points: frozenset
    m: int
    n: int

    @property
    def rank(self) -> int:
        return self.m + self.n

    def __contains__(self, point) -> bool:
        return tuple(point) in self.points

    def __len__(self):
        return len(self.points)

    def __repr__(self):
        return f"PlanarLattice({len(self.points)} points, box {self.m}x{self.n})"

    @lazy
    def sorted_points(self):
        return tuple(sorted(self.points, key=lambda p: (p[0] + p[1], p[0])))

    @lazy
    def rank_starts(self) -> tuple:
        """rank_starts[r] is the position in sorted_points of the first point
        of rank r or more, for r = 0..rank + 1."""
        starts = [0] * (self.rank + 2)
        for i, j in self.points:
            starts[i + j + 1] += 1
        for r in range(1, self.rank + 2):
            starts[r] += starts[r - 1]
        return tuple(starts)

    @lazy
    def row_masks(self) -> tuple:
        """R[i], the columns j of the points (i, j) as a bitmask, for each row i = 0..m."""
        return row_masks(self.points, self.m)

    @lazy
    def summary(self) -> tuple:
        """(points sorted, simple, violating ranks, join-irreducible count),
        the values of a suite report's lattice section, all immutable.

        The join-irreducibles are the points with exactly one lower cover
        (the origin has none)."""
        simp = is_simple(self)
        pts = self.points
        irreducible = sum(((i - 1, j) in pts) + ((i, j - 1) in pts) == 1 for i, j in pts)
        return tuple(sorted(self.points)), simp.simple, simp.violating_ranks, irreducible

    def lower_covers(self, point):
        i, j = point
        return [c for c in ((i - 1, j), (i, j - 1)) if c in self.points]

    def transpose(self) -> "PlanarLattice":
        return PlanarLattice(frozenset((j, i) for i, j in self.points), self.n, self.m)


def validate_planar_lattice(points) -> PlanarLattice:
    """Check the defining axioms and return a normalized lattice.

    Points must be pairs of ints, not bools.  A set not anchored at the
    origin is translated, with a warning.  An axiom failure raises with the
    first failing pair (a, b) of the sorted points as witness, meet first.

    Ranking the distinct i and the distinct j keeps every meet and join, and
    makes row i's j values a bitmask R[i] no wider than the distinct j.  As
    (i, j) and (k, l) with i < k, j > l have meet (i, l) and join (k, j),
    a = (i, j) heads a failing pair iff j lies above an l of a later row
    that R[i] misses, or above the least l of a later row that misses j.
    One pass up the rows, holding the union of the later rows and of their
    gaps, finds the first such a; one pass over the later rows finds its b.
    Given closure, a <= b are joined by unit steps iff the origin reaches b
    (join a with a path from the origin to b), so the first point b with no
    lower cover fails the chain condition, with witness ((0, 0), b).
    """
    pts = [tuple(p) if isinstance(p, (tuple, list)) else (p,) for p in points]
    if bad := [p for p in pts if len(p) != 2 or {type(x) for x in p} != {int}]:
        raise LatticeInvalid("points must be pairs of ints", points=bad[:3])
    pts = set(pts)
    if not pts:
        raise MissingOrigin("empty point set")
    if any(i < 0 or j < 0 for i, j in pts):
        raise LatticeInvalid("coordinates must be nonnegative", points=sorted(pts)[:3])
    di, dj = min(i for i, _ in pts), min(j for _, j in pts)
    if di or dj:
        warnings.warn(f"lattice translated by ({-di}, {-dj}) to anchor at the origin",
                      LatticeNormalization, stacklevel=2)
        pts = {(i - di, j - dj) for i, j in pts}
    if (0, 0) not in pts:
        raise MissingOrigin("lattice must contain the origin")
    xs, ys = sorted({i for i, _ in pts}), sorted({j for _, j in pts})
    x_rank, y_rank = {i: k for k, i in enumerate(xs)}, {j: k for k, j in enumerate(ys)}
    rows = row_masks(((x_rank[i], y_rank[j]) for i, j in pts), len(xs) - 1)
    full, later, gaps, i = (1 << len(ys)) - 1, 0, 0, None
    for r in range(len(rows) - 1, -1, -1):
        row, missing = rows[r], later & ~rows[r]
        if heads := row & (-((missing & -missing) << 1) | gaps):
            i, j = r, (heads & -heads).bit_length() - 1
        later |= row
        gaps |= (full ^ row) & -((row & -row) << 1)
    if i is not None:
        for k in range(i + 1, len(rows)):  # its l < j that R[i] misses, or all if j is missing
            if below := rows[k] & ((1 << j) - 1) & (~rows[i] if rows[k] >> j & 1 else -1):
                break
        l = (below & -below).bit_length() - 1
        a, b = (xs[i], ys[j]), (xs[k], ys[l])
        if not rows[i] >> l & 1:
            raise NotMeetClosed(f"meet of {a} and {b} is missing", witness=(a, b))
        raise NotJoinClosed(f"join of {a} and {b} is missing", witness=(a, b))
    if stuck := [(i, j) for i, j in pts if (i or j) and not {(i - 1, j), (i, j - 1)} & pts]:
        b = min(stuck)
        raise ChainConditionFails(f"no saturated chain from (0, 0) to {b}", witness=((0, 0), b))
    return PlanarLattice(frozenset(pts), xs[-1], ys[-1])


@dataclass(frozen=True)
class SimplicityReport:
    simple: bool
    violating_ranks: tuple


def is_simple(lattice: PlanarLattice) -> SimplicityReport:
    """A lattice is simple when every rank strictly between 0 and rank L has >= 2 points."""
    starts = lattice.rank_starts
    bad = tuple(r for r in range(1, lattice.rank) if starts[r + 1] - starts[r] < 2)
    return SimplicityReport(simple=not bad, violating_ranks=bad)


def join_irreducibles(lattice: PlanarLattice) -> Poset:
    """Induced subposet of the non-minimal elements with exactly one lower cover."""
    elems = [
        p
        for p in lattice.sorted_points
        if p != (0, 0) and len(lattice.lower_covers(p)) == 1
    ]
    rels = [
        (a, b)
        for a in elems
        for b in elems
        if a != b and a[0] <= b[0] and a[1] <= b[1]
    ]
    return Poset(elems, rels)


def _max_bipartite_matching(elems, less):
    """Kuhn's algorithm on the strict comparability relation, deterministic."""
    succ = {a: [b for b in elems if less(a, b)] for a in elems}
    match_right = {}

    def try_augment(a, seen):
        for b in succ[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_right or try_augment(match_right[b], seen):
                match_right[b] = a
                return True
        return False

    for a in elems:
        try_augment(a, set())
    return {a: b for b, a in match_right.items()}


def chain_partition(poset: Poset):
    """Partition a width-<=2 poset into two chains (second possibly empty).

    Uses a deterministic minimum chain cover (Dilworth via matching); any
    width-2 partition yields the same planar image up to isomorphism.  The
    longer chain comes first; ties break on the smallest first label.
    """
    elems = sorted(poset.elements, key=_label_key)
    if not elems:
        return (), ()
    nxt = _max_bipartite_matching(elems, poset.less)
    starts = [a for a in elems if a not in set(nxt.values())]
    chains = []
    for s in starts:
        chain = [s]
        while chain[-1] in nxt:
            chain.append(nxt[chain[-1]])
        chains.append(chain)
    if len(chains) > 2:
        witness = None
        for k, a in enumerate(elems):
            for l in range(k + 1, len(elems)):
                b = elems[l]
                if not poset.incomparable(a, b):
                    continue
                for c in elems[l + 1 :]:
                    if poset.incomparable(a, c) and poset.incomparable(b, c):
                        witness = (a, b, c)
                        break
                if witness:
                    break
            if witness:
                break
        raise WidthExceedsTwo(
            f"poset does not partition into two chains ({len(chains)} needed)",
            antichain=witness,
        )
    while len(chains) < 2:
        chains.append([])
    chains.sort(key=lambda c: (-len(c), [_label_key(x) for x in c[:1]]))
    c1, c2 = chains
    return tuple(poset.sorted_chain(c1)), tuple(poset.sorted_chain(c2))


def poset_ideals_to_planar(poset: Poset) -> PlanarLattice:
    """Map each poset ideal a to (|a & C1|, |a & C2|) for a fixed chain partition.

    This is the Birkhoff image of the ideal lattice; it raises WidthExceedsTwo
    when the poset has a 3-element antichain (the image is not planar).  With
    C1 = (x_0 < x_1 < ...), the ideals holding x_0..x_{a-1} of C1 take b = lo..hi
    of C2: lo is one past the last element of C2 below x_{a-1} (0 if a = 0), and
    hi the index of the first one above x_a (|C2| if none, or if a = |C1|).
    """
    c1, c2 = chain_partition(poset)
    pts = set()
    for a in range(len(c1) + 1):
        lo = sum(poset.less(y, c1[a - 1]) for y in c2) if a else 0
        hi = next((b for b, y in enumerate(c2) if a < len(c1) and poset.less(c1[a], y)), len(c2))
        pts.update((a, b) for b in range(lo, hi + 1))
    return validate_planar_lattice(pts)
