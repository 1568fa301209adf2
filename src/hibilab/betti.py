"""Independent homological ground truth for window ideals.

The Hilbert function is the semigroup count, held to the standard monomials
of the initial ideal, whose Krull dimension is the ring's; graded Betti
numbers come from exact Koszul homology ranks over a prime field.

The Koszul strand in internal degree j decomposes by the toric multigrading:
every graded piece of the quotient is spanned by the single standard monomial
of its multidegree, so the contraction differential

    e_{a_1} ^ ... ^ e_{a_s} (x) m  |->  sum_k (-1)^(k-1) e_{..no a_k..} (x) nf(y_{a_k} m)

restricted to a multidegree b is the simplicial boundary of the complex of
subsets T with b - sigma(T) still in the semigroup.  Ranks are taken
blockwise; the block sum equals the rank of the full strand matrix because
the blocks are its diagonal after sorting the monomial basis by
multidegree.  The vertex boundary has rank 1, and the edge boundary's rank
is the size of a spanning forest, found by union-find.  The triangle
boundary is ranked by exact Gaussian elimination mod p over the edges off
that forest only: its rows are cycles, and a cycle is fixed by those
entries.  Larger faces are ranked by elimination over all faces one size
smaller.

The walk runs over the variables of the semigroup core (Semigroup.core)
alone.  A point that peels off the row-column graph lies on no binomial of
the toric ideal, so I = I_core S for S = S_core[peeled], a flat extension:
a minimal free resolution of S_core/I_core, tensored with S, resolves S/I,
and every graded Betti number of I is that of I_core.  None lies past degree
n_core, the number of core variables, as the core's initial ideal is
squarefree, so the walk stops there.

Multidegrees are packed into one int each by the ring's semigroup
(binomials.Semigroup, widened to the largest degree walked), a field per
row and column with a guard bit on top, so b - img(v) is one subtraction,
and faces are bitmasks over the variables.  Each semigroup level maps its
multidegrees b to predecessor masks, the variables v with b - img(v) in the
level below, recorded as the images are added.  Almost every block is a
whole simplex or a cone (a vertex v with T | v a face for every face T);
its reduced homology is zero, so it takes no rank.  A simplex takes one
lookup, of b - sigma(mask), with sigma memoised per call, and is counted
by its vertex count: its C(k, s) faces are added once per size.  The
lookup needs no borrow test: a difference that borrows sets the guard bit
of the lowest field that goes negative (its entries are at most the
degree, below the guard), or goes negative as a whole, and no level key
does either.  The least row and column have no field, but their entries
follow from the degree, so a key that matches is the true difference.  Any
other block is walked face by face with one dict lookup each: the faces
over T are T | v for the v in the mask of b - sigma(T) above T's largest
vertex, whose differences lie in the level below by the mask.  The cone
test is folded into the walk: v is a cone vertex when it lies in mask | T
for every face T.

The walk stops at the projective dimension.  The window ring is the edge
ring of the bipartite graph whose vertices are the rows and columns of the
window's points and whose edges are the points.  A bipartite edge ring is
normal, so Cohen-Macaulay by Hochster, and Auslander-Buchsbaum gives
pd(S/I) = nvars - d, where d = rows + columns - components is its
dimension, read off the points (_edge_ring_dimension) independently of the
dimension formula and of the Krull search.  The core has the same
projective dimension, n_core - (d - b) for its b = nvars - n_core peeled
points.  So beta_{i,j}(I) = 0 for i > nvars - d - 1, and a block of degree
j is walked up to faces of min(j, nvars - d + 1) variables, one size past
the largest that carries a Betti number.

Four checks guard this.  The level build raises VerificationFailed when a
level key has a guard bit set: a field that overflows aliases multidegrees,
and because the masks come from the same additions, the face counts would
still add up.  Every walked degree checks the faces: summed over the blocks
of degree j, the faces of size s number C(n_core, s) * |L_{j-s}(core)|, the
dimension of that piece of the core's Koszul complex, for each size s
walked, which a walk that drops or repeats a face breaks.  A degree whose
every Betti number is read checks them against the Euler characteristic of
its Koszul strand, written in the whole ring's terms: -sum_i (-1)^i
beta_{i,j}(I) = sum_s (-1)^s C(nvars, s) |L_{j-s}|, with |L_e| =
Semigroup.size(e), the whole ring's Hilbert function counted by row
classes, not by the walk.  It equals the core's sum, sum_s (-1)^s C(n_core,
s) |L_{j-s}(core)|: the Hilbert series of S/I is the core's over (1 - t)^b,
and (1 - t)^nvars = (1 - t)^n_core (1 - t)^b, so the free variables' factor
cancels.  A d too large (a Betti number cut off) or a wrong homology
dimension breaks it, and so does a walk over too few variables, whose face
counts and core sum would still agree with each other.  A boundary rank that
is wrong inside the walked sizes moves two adjacent entries whose changes
cancel in that sum, so, given the ideal's quadratic squarefree basis, each
entry is held to beta_{i,j}(I) <= beta_{i,j}(in I), the Hochster table of
the initial ideal (upper semicontinuity of the flat Groebner degeneration).

A complete intersection takes no walk.  By Krull's height theorem the r
quadrics generating I number at least its height c = nvars - d, and r = c
makes them a regular sequence, whose Koszul complex is the minimal free
resolution of S/I in every characteristic (Eisenbud, Commutative Algebra,
ch. 17): beta_{i,2i+2}(I) = C(r, i + 1) for 0 <= i < r, and no other entry.
The walk's Euler check, in every degree the walk would take, and its
Hochster bound guard the closed form too (_check_euler, _check_hochster):
a wrong d makes it miss the Euler sum.  Calls with targets always walk.

Betti tables are reported for the ideal I: beta_{i,j}(I) = beta_{i+1,j}(S/I),
so beta_{0,2} counts minimal quadric generators.

The two boolean oracles:

- Linear resolution.  The oracle reads the WindowRing alone, no ideal and
  no Groebner basis.  The window ring R = S/I is a bipartite edge ring, so
  normal (Ohsugi-Hibi, "Normal polytopes arising from finite graphs", J.
  Algebra 207, 1998) and Cohen-Macaulay (Hochster 1972), and then reg R =
  deg h(t) for its h-vector, an O-sequence (Macaulay), so h_2 = 0 forces
  h_i = 0 for every i >= 2.  So I has a linear resolution iff h_2 = 0.
  With n = nvars, d = dim R (_edge_ring_dimension), h_0 = 1 and h_1 = n -
  d, the Hilbert function gives |L_2| = C(d + 1, 2) + (n - d) d + h_2, one
  semigroup count (Semigroup.size).
- Linear relatedness.  This oracle works on the initial ideal in(I) of a
  quadratic squarefree Groebner basis, WindowIdeal.quadratic_gb: the
  ideal's own when it is both, else the order search's on its generators,
  searched once per ideal, and PreconditionFailed naming the orders tried
  when no candidate order gives one (criterion 2 says some order does).
  So in(I) is the edge ideal of the lead graph G: one edge a-b per lead
  y_a y_b.  The Groebner degeneration is flat in the toric
  multigrading, in which both I and in(I) are homogeneous, so by upper
  semicontinuity beta_{1,b}(I) <= beta_{1,b}(in I) for every multidegree b.
  By Hochster's formula on the flag complex of in(I), beta_{1,b}(in I)
  counts the 4-sets W of variables on which G is two disjoint edges (an
  induced 2K2) with sigma(W) = b.  So beta_{1,4}(I) is the sum of the Koszul
  blocks at just those b, and 0 when G has no induced 2K2.  Such a b is a
  multiset of 4 rows with one of 4 columns, and a window monomial of
  multidegree b pairs the rows with an ordering of the columns, so the
  block's faces come from at most 24 pairings, with no semigroup level.  I
  and in(I) share the multigraded Hilbert function, so at |b| = 4, where
  only beta_1 and beta_2 of these quadric-generated ideals can be nonzero,
  beta_{1,b}(I) - beta_{2,b}(I) = beta_{1,b}(in I) - beta_{2,b}(in I), both
  read off G by Hochster; a positive right side settles the block with no
  rank.  The block's complex is the union of the full simplices on the
  supports of those pairings, and most blocks glue: added one support at a
  time, each meets the union so far in a non-empty connected complex, so by
  Mayer-Vietoris the block has H~_1 = 0 over every field and takes no rank
  (_glues).  Only a block that neither glues nor settles by Euler is ranked.

monomial_betti_table reads the full Betti table of a squarefree in(I) off
Hochster's formula (induced subcomplexes of its Stanley-Reisner complex).
By Peeva ("Consecutive cancellations in Betti numbers", Proc. AMS 132, 2004)
the toric table arises from it by cancelling pairs (i, j), (i+1, j) of equal
internal degree, so entries only shrink; _settled names the entries no
cancellation can reach, which are already the toric values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, combinations, permutations
from math import comb
from operator import or_

from . import errors
from .errors import (
    BudgetExceeded,
    CapExceeded,
    InvalidParameter,
    PreconditionFailed,
    VerificationFailed,
    check_var_cap,
    require_var_cap,
    search_budget,
)
from .binomials import (
    DEFAULT_FIELD,
    Semigroup,
    WindowIdeal,
    WindowRing,
    _fiber_terms,
    _lead_graph,
    _standard_counts,
    require_field,
)

# ---------------------------------------------------------------------------
# simplicial homology over GF(p)


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


def _boundary_rank(faces, prev_index, p):
    """Rank mod p of the boundary from faces to the faces one size smaller.

    prev_index numbers the smaller faces; one that maps to None is dropped
    from every row.
    """
    rows = []
    for face in faces:
        row = {}
        sign, rest = 1, face
        while rest:
            low = rest & -rest
            k = prev_index[face ^ low]
            if k is not None:
                row[k] = sign
            sign, rest = -sign, rest ^ low
        rows.append(row)
    return _rank_mod_p(rows, len(prev_index), p)


def _spanning_forest(edges):
    """The edges of a spanning forest of the graph, by union-find over the vertex bits.

    Their number, #vertices - #components, is the rank of the boundary from
    edges to vertices over any field.
    """
    parent = {}

    def root(x):
        while (up := parent.get(x, x)) != x:
            x = up
        return x

    forest = set()
    for edge in edges:
        low = edge & -edge
        a, b = root(low), root(edge ^ low)
        if a != b:
            parent[a] = b
            forest.add(edge)
    return forest


def reduced_homology(faces_by_size, p):
    """dim H~_{s-1} for each face size s present.

    Faces are bitmasks over the vertices and include the empty face 0.  The
    vertex boundary has rank 1 when there is a vertex, and the edge
    boundary's rank is the size of a spanning forest (_spanning_forest).
    Every triangle boundary is a cycle, and a cycle is fixed by its entries
    on the edges off a spanning forest (a nonzero cycle is not supported on
    a forest), so over any field the triangle boundary has the same rank
    over those edges only, where it is ranked by elimination.  Larger faces
    are ranked by elimination over all faces one size smaller.
    """
    sizes = sorted(faces_by_size)
    ranks = {}
    forest = ()
    for s in sizes:
        faces = faces_by_size[s]
        if s == 1:
            ranks[s] = min(len(faces), 1)
        elif s == 2:
            forest = _spanning_forest(faces)
            ranks[s] = len(forest)
        elif s:
            index = {f: k for k, f in enumerate(faces_by_size[s - 1])}
            if s == 3:
                index.update(dict.fromkeys(forest))
            ranks[s] = _boundary_rank(faces, index, p)
    out = {}
    for s in sizes:
        h = len(faces_by_size[s]) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        out[s] = h
    return out


# ---------------------------------------------------------------------------
# Hilbert function, Krull dimension


def hilbert_function(ideal: WindowIdeal, d_max: int) -> list:
    """|L_e| = Semigroup.size(e) for e = 0..d_max, the window ring's Hilbert
    function, held to the degree-e monomials that no lead of ideal.gb
    divides (binomials._standard_counts, the fiber oracle's count): for a
    Groebner basis they are as many (Sturmfels, Groebner Bases and Convex
    Polytopes, ch. 4), so a difference raises VerificationFailed.  Each
    degree d is first held to search_budget() on its C(nvars + d - 1, d)
    monomials, a bound on |L_d|."""
    ring, gb, budget = ideal.ring, ideal.gb, search_budget()
    for d in range(d_max + 1):
        if (count := comb(ring.nvars + d - 1, d)) > budget:
            raise BudgetExceeded(f"degree {d} enumeration exceeds budget", budget=budget, monomials=count)
    sizes = [ring.semigroup.size(e) for e in range(d_max + 1)]
    supports, width = gb.lead_supports, d_max.bit_length() + 1
    units = [1 << width * k for k in range(ring.nvars)]
    # squarefree leads are counted on their supports, with no walk of the basis
    terms = () if supports is not None else _fiber_terms(gb, ring, units)
    counts = chain((1,), _standard_counts(supports, terms, ring.nvars, d_max))
    for e, (size, standard) in enumerate(zip(sizes, counts)):
        if size != standard:
            raise VerificationFailed("standard monomials miss the Hilbert function", degree=e,
                                     hilbert=size, standard=standard)
    return sizes


def krull_dimension_via_initial(supports, nvars: int) -> int:
    """Largest variable subset containing no initial-ideal support.

    Equals the Krull dimension of the quotient when the initial ideal is
    squarefree (Stanley-Reisner): the size of a largest face of the lead
    complex.  The supports are the leads' supports as bitmasks over the
    variable indices (GroebnerReport.lead_supports), None when a lead is not
    squarefree; a support that holds another adds nothing the search does
    not already exclude, so none is filtered out.  A variable in no support
    joins every face, so the answer is nvars - |ground| + the largest face
    within ground, the union of the supports.

    The search grows a face by bitmasks: cand holds the variables that can
    still join it.  A variable with a 1-support never does.  Adding v drops
    v's neighbours in the lead graph of the 2-supports (_lead_graph) from
    cand, and the last free variable of each larger support that face | v
    leaves one short.  The bound splits cand into groups, each of which a
    face meets in few variables: first larger supports inside cand, which
    give |s| - 1 each, then cliques of the lead graph, taken greedily in
    variable order, which give 1 each (the colouring bound of Tomita and
    Seki, DMTCS 2003, on the complement).  Each node branches on the
    variables of its groups, last group first, and a variable is cut once
    size plus the bound of its group and the groups before it is at most
    the best face found.  Without the larger-support groups, disjoint
    3-supports would be bounded by 3 each against their 2.

    On a window the lead y_a y_b of a straightening binomial is the meet
    and the join of a rectangle, apart in both coordinates, and the
    variables are listed in rank order, so a greedy clique mostly runs up a
    diagonal of the window: (i, j), (i + 1, j + 1) and on.  A face takes at
    most one point of each diagonal, and on most windows some face takes
    one of every diagonal, so the root bound is the answer and the first
    descent meets it: on 410 of the 420 seed-7 windows with a lead, the
    search takes no other node.

    Nodes are counted against search_budget(); past it BudgetExceeded
    carries the budget and the node count.
    """
    if supports is None:
        raise PreconditionFailed("initial ideal is not squarefree")
    if not supports:
        return nvars
    masks = sorted(supports, key=int.bit_count)
    ground = reduce(or_, masks, 0)
    two = bisect_left(masks, 2, key=int.bit_count)
    three = bisect_left(masks, 3, lo=two, key=int.bit_count)
    units = reduce(or_, masks[:two], 0)
    graph = _lead_graph(masks[two:three], nvars)
    larger = masks[three:]
    holding = {}  # the larger supports through each variable, by bit
    for s in larger:
        for v in _bits(s):
            holding.setdefault(1 << v, []).append(s)
    budget = search_budget()
    best = nodes = 0

    def grow(face, size, cand):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                "Krull dimension search exceeds budget", budget=budget, nodes=nodes
            )
        if size > best:
            best = size
        groups = []  # (group, bound of it and the groups before it)
        bound, rest = 0, cand
        for s in larger:
            if s & rest == s:
                rest ^= s
                bound += s.bit_count() - 1
                groups.append((s, bound))
        while rest:
            clique = rest & -rest
            common = rest & graph[clique.bit_length() - 1]
            while common:
                v = common & -common
                clique |= v
                common &= graph[v.bit_length() - 1]
            rest ^= clique
            bound += 1
            groups.append((clique, bound))
        for group, bound in reversed(groups):
            while group:
                if size + bound <= best:
                    return
                v = group & -group
                group ^= v
                cand ^= v
                grown = face | v
                nxt = cand & ~graph[v.bit_length() - 1]
                for s in holding.get(v, ()):
                    left = s & ~grown
                    if not left & left - 1:
                        nxt &= ~left
                grow(grown, size + 1, nxt)

    grow(0, 0, ground & ~units)
    # grow refers to itself through its closure; dropping that cycle here
    # frees it at once instead of at a later full garbage collection
    del grow
    return nvars - ground.bit_count() + best


# ---------------------------------------------------------------------------
# Betti numbers of the toric quotient via multidegree blocks


def _semigroup_levels(semigroup: Semigroup, variables, j_max: int):
    """Degrees 0..j_max of the semigroup of the variables' images, with their predecessor masks.

    variables lists variable indices; position k among them is bit k of a
    mask.  The multidegrees are packed as semigroup packs its images,
    widened to hold entries up to j_max (Semigroup.wide).  levels[d] maps
    each packed multidegree b of degree d to the bitmask of the variables v
    with b - img(v) in degree d - 1, recorded as the images are added.  An
    addition that carries out of a field sets that field's guard bit, and a
    level key with a guard bit set raises VerificationFailed naming the
    degree: one test over the level's keys sees it.
    """
    images, guard = semigroup.wide(j_max), semigroup.guard
    steps = [(1 << k, images[v]) for k, v in enumerate(variables)]
    levels = [{0: 0}]
    for d in range(1, j_max + 1):
        level = {}
        get = level.get
        for q in levels[-1]:
            for bit, img in steps:
                b = q + img
                level[b] = get(b, 0) | bit
        if reduce(or_, level, 0) & guard:
            raise VerificationFailed(
                "a multidegree entry overflows its packed field", degree=d
            )
        levels.append(level)
    return levels


def _require_toric(ideal: WindowIdeal) -> int:
    """The number of generators, after checking that each lies in the toric
    ideal; their terms are read as held (by index when counted)."""
    terms = _fiber_terms(ideal, ideal.ring, [0] * ideal.ring.nvars)
    if not all(ok for *_, ok in terms):
        raise InvalidParameter(
            "generator is not in the toric ideal of the window map; "
            "Betti oracle only covers window ideals"
        )
    return len(terms)


def _edge_ring_dimension(ring: WindowRing) -> int:
    """Krull dimension of the window's toric ring, rows + columns - components.

    The ring is the edge ring of the bipartite graph whose vertices are the
    rows and columns of the window's points and whose edges are the points.
    Its dimension is the rank of the images e(s_row) + e(t_column), the
    number of vertices less the number of connected components: the size of
    a spanning forest (_spanning_forest), read off the points alone.
    """
    shift = ring.m + 1
    return len(_spanning_forest(1 << i | 1 << shift + j for i, j in ring.points))


def _cap_block(total, j, cap):
    if total > cap:
        raise CapExceeded(f"multidegree block exceeds {cap} faces", degree=j, faces=total, cap=cap)


def _block_faces(images, b, mask, j, levels, max_size):
    """Face counts by size of the block complex at b, and its faces, or None for a cone.

    The faces are the variable sets T, as bitmasks over the variables, with
    b - sigma(T) in degree j - |T| of the semigroup, up to max_size
    variables; mask is the vertex set, the predecessor mask of b in degree
    j.  When the block is a cone, its homology in every size below
    max_size, the only sizes a caller reads, is zero, and the faces are not
    returned.  (betti_numbers counts the blocks that are whole simplices
    without a walk.)

    The walk lists each face once, from its largest vertex: the faces over
    T are T | v for v in down(T) above that vertex, where down(T) is the
    predecessor mask of b - sigma(T), one dict lookup per face.  v is a cone
    vertex when T | v is a face for every face T below max_size (coning with
    v is then a contracting homotopy in those sizes), that is, when v lies
    in down(T) | T for each of them; the walk folds that into apex.  images
    are the packed images of the variables, as the levels were built.
    """
    cap = errors.BLOCK_FACE_CAP
    # each face below max_size carries its remainder and that remainder's mask
    layers = [[(0, b, mask)]]
    apex = mask
    total = 1
    for s in range(1, max_size):
        level = levels[j - s]
        nxt = []
        for face, rem, down in layers[-1]:
            top = face.bit_length()
            ext = down >> top << top
            while ext:
                low = ext & -ext
                ext ^= low
                r = rem - images[low.bit_length() - 1]
                below = level[r]
                child = face | low
                apex &= below | child
                nxt.append((child, r, below))
        if not nxt:
            break
        layers.append(nxt)
        total += len(nxt)
        _cap_block(total, j, cap)
    counts = [len(layer) for layer in layers]
    if len(layers) == max_size:
        # the faces of size max_size need no lookup: their parents' masks list them
        exts = [down >> (top := face.bit_length()) << top for face, _, down in layers[-1]]
        size = sum(map(int.bit_count, exts))
        if size:
            counts.append(size)
            _cap_block(total + size, j, cap)
    if apex:
        return counts, None
    faces = {s: [face for face, _, _ in layer] for s, layer in enumerate(layers)}
    if len(counts) > len(layers):
        faces[max_size] = [
            face | 1 << v for (face, _, _), ext in zip(layers[-1], exts) for v in _bits(ext)
        ]
    return counts, faces


@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of the ideal over GF(p); zero entries omitted."""

    entries: dict
    i_max: int
    j_max: int
    field: int
    nvars: int

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def format_text(self) -> str:
        if not self.entries:
            return "empty Betti table"
        imax = max(i for i, _ in self.entries)
        shifts = sorted({j - i for i, j in self.entries})
        lines = ["      " + "".join(f"{i:>6}" for i in range(imax + 1))]
        for r in shifts:
            row = [f"{r:>4}: "]
            for i in range(imax + 1):
                v = self.get(i, i + r)
                row.append(f"{v if v else '.':>6}")
            lines.append("".join(row))
        return "\n".join(lines)

    def to_json(self):
        return {
            "entries": [
                {"i": i, "j": j, "value": v}
                for (i, j), v in sorted(self.entries.items())
            ],
            "i_max": self.i_max,
            "j_max": self.j_max,
            "field": self.field,
            "nvars": self.nvars,
        }


def betti_numbers(
    ideal: WindowIdeal,
    field: int = DEFAULT_FIELD,
    j_max: int | None = None,
    var_cap: int | None = errors.VAR_CAP,
    _targets=None,
) -> BettiTable:
    """Exact graded Betti numbers of the window ideal over GF(field).

    The ideal's terms are read as held (_require_toric).  Works blockwise per
    multidegree (see module docstring) over the n_core variables of the
    semigroup core (Semigroup.core), whose Betti numbers are the ring's (a
    flat extension); a window with no generator returns its empty table
    before the core is read.  The semigroup levels carry predecessor masks,
    a block that is a whole simplex is counted by its vertex count with one
    lookup, every other block is walked with one lookup per face and the
    cone test folded in, and a simplex or a cone has no homology and takes
    no rank.  Degrees run up to min(j_max, n_core): past n_core the core's
    squarefree initial ideal, and so the core's ideal and the window ideal,
    has no Betti numbers.  The table reports nvars, i_max and j_max of the
    whole ring.

    Faces are walked up to min(j, nvars - d + 1) variables, where d = rows +
    columns - components of the window's points (_edge_ring_dimension).  The
    window ring is the edge ring of a bipartite graph, which is normal, so
    Cohen-Macaulay by Hochster, and by Auslander-Buchsbaum pd(S/I) = nvars -
    d: beta_{i,j}(I) = 0 for i > nvars - d - 1, and H~ of a block in face
    size nvars - d needs faces one size larger only.

    Four checks raise VerificationFailed.  The level build catches a packed
    field that overflows.  In every walked degree j the faces of size s <=
    the walked size, summed over the blocks, must equal the dimension of
    that piece of the core's Koszul complex, C(n_core, s) *
    |L_{j-s}(core)|, where L_d(core) is degree d of the core's semigroup
    (one standard monomial each); that catches a walk that drops or
    repeats faces.  When every i is read (no _targets), the Euler
    characteristic of the Koszul strand in degree j must match its
    homology, in the whole ring's terms: -sum_i (-1)^i beta_{i,j}(I) =
    sum_s (-1)^s C(nvars, s) * Semigroup.size(j - s).  That equals the
    core's sum, since the free variables' factor cancels (module
    docstring), so a d too large (a Betti number cut off), a wrong homology
    dimension or a core variable missing from the walk breaks it.  When
    the ideal's basis is quadratic and squarefree, every entry must be at
    most the same entry of the initial ideal's Hochster table at the same
    field (monomial_betti_table; upper semicontinuity), which catches a
    boundary rank that is wrong in a way whose changes to two adjacent
    entries cancel in the Euler sum.  The Hochster table raises
    BudgetExceeded as monomial_betti_table does.

    A complete intersection, r generators for an ideal of height r = nvars
    - d, is not walked when every entry is asked for (no _targets): its
    table is the Koszul complex's, beta_{i,2i+2}(I) = C(r, i + 1) up to
    j_max (module docstring), held to the same Euler check in each degree
    2..min(j_max, n_core) and to the same Hochster bound.
    """
    require_field(field)
    require_var_cap(var_cap)
    ngens = _require_toric(ideal)
    ring, nvars = ideal.ring, ideal.ring.nvars
    check_var_cap(nvars, var_cap)
    if j_max is None:
        j_max = nvars
    entries = {}
    if not ngens:
        return BettiTable({}, i_max=nvars, j_max=j_max, field=field, nvars=nvars)
    semigroup = ring.semigroup
    core = semigroup.core  # a peeled point changes no Betti number
    degrees = sorted({j for _, j in _targets} if _targets else range(2, min(j_max, len(core)) + 1))
    if not degrees:
        return BettiTable({}, i_max=nvars, j_max=j_max, field=field, nvars=nvars)
    codim = nvars - _edge_ring_dimension(ring)  # pd(S/I), the height of I
    if not _targets:
        sizes = [semigroup.size(e) for e in range(degrees[-1] + 1)]
        if ngens == codim:
            # a complete intersection: the Koszul complex on the quadrics is minimal
            entries = {(i, 2 * i + 2): comb(ngens, i + 1) for i in range(ngens) if 2 * i + 2 <= j_max}
            for j in degrees:
                _check_euler(entries, j, nvars, sizes)
            _check_hochster(ideal, entries, field, degrees[-1])
            return BettiTable(entries, i_max=nvars, j_max=j_max, field=field, nvars=nvars)
    levels = _semigroup_levels(semigroup, core, max(degrees))
    images = [semigroup.images[v] for v in core]
    sigmas = {}  # a vertex mask's sum of images
    # faces of up to pd(S/I) variables carry Betti numbers, and ranking the
    # largest of them needs faces one size larger
    top = codim + 1
    for j in degrees:
        if _targets:
            wanted_i = sorted(i for i, jj in _targets if jj == j)
            max_size = min(wanted_i[-1] + 2, j, top)
        else:
            max_size = min(j, top)
            wanted_i = range(max_size - 1)
        # beta_{i,j} with i + 2 > max_size is zero: past the pd bound or below j - 1
        wanted_i = [i for i in wanted_i if i + 2 <= max_size]
        face_counts = [0] * (max_size + 1)
        simplices = {}  # the blocks that are whole simplices, by vertex count
        for b, mask in levels[j].items():
            k = mask.bit_count()
            if 0 < k <= j:
                sigma = sigmas.get(mask)
                if sigma is None:
                    sigma = sigmas[mask] = sum(images[v] for v in _bits(mask))
                if b - sigma in levels[j - k]:
                    if k not in simplices:
                        simplices[k] = 0
                        for total in accumulate(comb(k, s) for s in range(min(k, max_size) + 1)):
                            _cap_block(total, j, errors.BLOCK_FACE_CAP)
                    simplices[k] += 1
                    continue
            counts, faces = _block_faces(images, b, mask, j, levels, max_size)
            for s, count in enumerate(counts):
                face_counts[s] += count
            if faces is None:
                continue
            hom = reduced_homology(faces, field)
            for i in wanted_i:
                h = hom.get(i + 1, 0)
                if h:
                    entries[(i, j)] = entries.get((i, j), 0) + h
        for k, blocks in simplices.items():
            for s in range(min(k, max_size) + 1):
                face_counts[s] += blocks * comb(k, s)
        pieces = [comb(len(core), s) * len(levels[j - s]) for s in range(max_size + 1)]
        if face_counts != pieces:
            raise VerificationFailed(
                "Koszul face counts miss the Hilbert function", degree=j,
                faces=face_counts, expected=pieces,
            )
        if not _targets:
            _check_euler(entries, j, nvars, sizes)
    _check_hochster(ideal, entries, field, degrees[-1])
    return BettiTable(entries, i_max=nvars, j_max=j_max, field=field, nvars=nvars)


def _check_euler(entries, j, nvars, sizes):
    """Raise VerificationFailed unless the Betti numbers of degree j match the
    Euler characteristic of its Koszul strand in the whole ring's terms
    (betti_numbers); sizes[e] = |L_e|, by Semigroup.size."""
    euler = sum((-1) ** s * comb(nvars, s) * sizes[j - s] for s in range(j + 1))
    betti = sum((-1) ** i * entries.get((i, j), 0) for i in range(j - 1))
    if euler != -betti:
        raise VerificationFailed(
            "Koszul Euler characteristic misses the Betti numbers", degree=j,
            euler=euler, betti=betti,
        )


def _check_hochster(ideal, entries, field, j_max):
    """Raise VerificationFailed when an entry exceeds the initial ideal's
    Hochster table at the same field, up to degree j_max, if the ideal's
    basis is quadratic and squarefree (betti_numbers)."""
    gb = ideal.gb
    if gb.quadratic and gb.squarefree:
        hochster = monomial_betti_table(gb.lead_supports, ideal.ring.nvars, field=field, j_max=j_max)
        for (i, j), value in sorted(entries.items()):
            if value > hochster.get((i, j), 0):
                raise VerificationFailed(
                    "a Betti number exceeds the initial ideal's", i=i, j=j,
                    toric=value, hochster=hochster.get((i, j), 0),
                )


# ---------------------------------------------------------------------------
# Hochster's formula for the (squarefree) initial ideal


def monomial_betti_table(supports, nvars: int, field: int = DEFAULT_FIELD, j_max: int | None = None):
    """Betti table of a squarefree monomial ideal via induced subcomplex homology.

    supports are its generators' supports as bitmasks over the variable
    indices (GroebnerReport.lead_supports), None when one is not squarefree.

    beta_{i,j}(I) = sum over j-subsets W of dim H~_{j-i-2} of the restricted
    Stanley-Reisner complex.  A W with a vertex outside every contained
    support restricts to a cone, so only W covered by their supports are
    enumerated.  A support that is not minimal changes no entry: a vertex
    of W that only such supports cover is a cone point too.  The loop runs
    over the subsets of the support union with at most j_max elements (all
    of them when j_max is None), and raises BudgetExceeded up front when
    their number exceeds search_budget().
    """
    if supports is None:
        raise PreconditionFailed("monomial Betti table requires squarefree leads")
    union = list(_bits(reduce(or_, supports, 0)))
    top = len(union) if j_max is None else min(j_max, len(union))
    budget = search_budget()
    subsets = sum(comb(len(union), k) for k in range(top + 1))
    if subsets > budget:
        raise BudgetExceeded(
            f"{len(union)} support variables exceed the subset budget",
            budget=budget, masks=subsets,
        )
    back = {v: k for k, v in enumerate(union)}
    masks = [sum(1 << back[v] for v in _bits(m)) for m in supports]
    entries = {}
    sized = (combinations(range(len(union)), k) for k in range(1, top + 1))
    for subset in chain.from_iterable(sized):
        u_mask = sum(1 << k for k in subset)
        cover = 0
        for m in masks:
            if m & u_mask == m:
                cover |= m
        if cover != u_mask:
            continue
        j = len(subset)
        inside = [m for m in masks if m & u_mask == m]
        # faces of the restricted complex: subsets of W containing no support
        faces = {0: [0]}
        cur = [0]
        size = 0
        while cur:
            size += 1
            nxt = []
            for face in cur:
                for k in subset:
                    if k < face.bit_length():
                        continue
                    new = face | 1 << k
                    if not any(m & new == m for m in inside):
                        nxt.append(new)
            if not nxt:
                break
            faces[size] = nxt
            cur = nxt
        hom = reduced_homology(faces, field)
        for s, h in hom.items():
            if h:
                i = j - s - 1
                entries[(i, j)] = entries.get((i, j), 0) + h
    return entries


def _settled(mono_table, i, j):
    """The toric beta_{i,j} where no Peeva cancellation can reach it, else None.

    mono_table is the Hochster table of a squarefree initial ideal at the
    same field (see the module docstring): 0 if its entry is 0, the entry
    itself if (i-1, j) and (i+1, j) are both 0.
    """
    value = mono_table.get((i, j), 0)
    if not value or not (mono_table.get((i - 1, j)) or mono_table.get((i + 1, j))):
        return value
    return None


# ---------------------------------------------------------------------------
# the lead graph of a squarefree quadratic initial ideal


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _induced_2k2(adj):
    """The 4-sets on which the graph is two disjoint edges, as sorted tuples.

    These are the multidegrees of beta_{1,4} of the edge ideal by Hochster's
    formula, one each (the two edges are the graph induced on the set).
    """
    edges = [(a, b) for a in range(len(adj)) for b in _bits(adj[a]) if a < b]
    masks = [1 << a | 1 << b for a, b in edges]
    out = []
    for k, (a, b) in enumerate(edges):
        near = adj[a] | adj[b] | masks[k]
        for c, d in (e for e, m in zip(edges[k + 1 :], masks[k + 1 :]) if not m & near):
            out.append(tuple(sorted((a, b, c, d))))
    return out


def _2k2_multidegrees(points, quads):
    """The induced 2K2s counted by multidegree, a (rows, columns) pair of sorted tuples.

    points[v] is the cell (row, column) of variable v, whose image is
    e(s_row) + e(t_column), so sigma(W) is the multiset of W's rows with
    that of its columns.  The count at b is h1(b) = beta_{1,b}(in I).
    """
    counts = {}
    for quad in quads:
        rows, cols = zip(*sorted(points[v] for v in quad))
        key = (rows, tuple(sorted(cols)))
        counts[key] = counts.get(key, 0) + 1
    return counts


def _pairing_supports(index, rows, cols):
    """The supports, as bitmasks, of the window monomials of multidegree (rows, cols).

    Such a monomial is a multiset of len(rows) cells with these rows and
    columns, so it pairs the rows, in order, with one ordering of the
    columns, and every pair must be a window cell (index maps the cells to
    the variables).
    """
    out = set()
    for order in set(permutations(cols)):
        mask = 0
        for cell in zip(rows, order):
            v = index.get(cell)
            if v is None:
                break
            mask |= 1 << v
        else:
            out.add(mask)
    return out


def _pairing_faces(supports):
    """The faces of at most 3 variables of the Koszul block whose monomials have supports.

    A variable set T is a face of the block at b exactly when b - sigma(T)
    is in the semigroup, that is, when T lies in the support of a monomial
    of multidegree b; so the faces are the subsets of the supports.
    """
    verts = 0
    edges, triangles = set(), set()
    for support in supports:
        verts |= support
        size = support.bit_count()
        if size == 4:
            rest = support
            while rest:
                low = rest & -rest
                triangles.add(support ^ low)
                rest ^= low
        elif size == 3:
            triangles.add(support)
        elif size == 2:
            edges.add(support)
    for triangle in triangles:
        rest = triangle
        while rest:
            low = rest & -rest
            edges.add(triangle ^ low)
            rest ^= low
    return {0: [0], 1: [1 << v for v in _bits(verts)], 2: list(edges), 3: list(triangles)}


def _glues(supports):
    """Whether the full simplices on supports glue one at a time into a complex with H~_1 = 0.

    A support s joins the union of those already glued when its simplex
    meets the union in a non-empty connected complex.  That intersection is
    the union of the simplices on s & d over the glued supports d, and it is
    connected exactly when the vertex reach of one of its vertices, grown by
    every part it touches until nothing changes, is all of s & union.  By
    Mayer-Vietoris a join onto a connected union with H~_1 = 0 keeps both
    (over a non-empty connected intersection the sequence maps H~_0 and
    H~_1 of the two pieces onto those of the new union), so when every
    support joins, the union has H~_0 = H~_1 = 0 over every field.  A
    support that cannot join yet is retried after the others; False when a
    round joins none, which proves nothing about the homology.  The
    supports are taken in ascending order: whether a block glues can depend
    on the order, and a set's iteration order is no fixed one.
    """
    first, *pending = sorted(supports)
    glued, union = [first], first
    while pending:
        waiting = []
        for s in pending:
            meet = s & union
            reach = meet & -meet
            grown = 0
            while grown != reach:
                grown = reach
                for d in glued:
                    if s & d & reach:
                        reach |= s & d
            if meet and reach == meet:
                glued.append(s)
                union |= s
            else:
                waiting.append(s)
        if len(waiting) == len(pending):
            return False
        pending = waiting
    return True


def _complement_components(adj, vertices):
    """The number of components of the complement of the graph on the vertex mask."""
    comps = 0
    while vertices:
        comps += 1
        comp = grow = vertices & -vertices
        while grow:
            low = grow & -grow
            new = vertices & ~adj[low.bit_length() - 1] & ~comp
            comp |= new
            grow = (grow ^ low) | new
        vertices &= ~comp
    return comps


def _hochster_h2(adj, supports):
    """h2(b) = beta_{2,b}(in I) for the edge ideal of the graph adj, from b's supports.

    By Hochster, a 4-set W' adds dim H~_0 of the flag complex of the
    complement on W', its components less one; the 4-sets W' with
    sigma(W') = b are the supports with 4 variables.
    """
    return sum(_complement_components(adj, s) - 1 for s in supports if s.bit_count() == 4)


# ---------------------------------------------------------------------------
# boolean oracles


def has_linear_resolution_oracle(ring: WindowRing) -> bool:
    """True iff the toric ideal I of ring has beta_{i,j}(I) = 0 for j != i+2.

    The window ring is normal, hence Cohen-Macaulay, so reg R = deg h(t),
    and h_2 = 0 forces h_i = 0 for i >= 2 (Macaulay): I is 2-linear iff
    |L_2| = C(d + 1, 2) + (nvars - d) d (module docstring).  The count
    reads the ring alone: no ideal, no basis, no cap, and the same answer
    over every field.
    """
    d = _edge_ring_dimension(ring)
    return ring.semigroup.size(2) == comb(d + 1, 2) + (ring.nvars - d) * d


def is_linearly_related_oracle(
    ideal: WindowIdeal,
    field: int = DEFAULT_FIELD,
    var_cap: int = errors.VAR_CAP,
) -> bool:
    """True iff beta_{1,4}(I) = 0; a zero or principal ideal has no syzygies at all.

    A var_cap below 1 raises InvalidParameter before anything else, a zero
    ideal answers True, and windows over var_cap variables raise
    CapExceeded next.  On the quadratic squarefree basis
    (WindowIdeal.quadratic_gb), beta_{1,4}(I) is the sum of the Koszul
    blocks at the multidegrees b = sigma(W) of the induced 2K2s W of the
    lead graph G (upper semicontinuity and Hochster, see the module
    docstring), and 0 with no block when there is none.  Each block is
    read off the pairings of b's rows with its columns (_pairing_supports):
    its faces of at most 3 variables, all that H~_1 needs, are the subsets
    of the supports of the window monomials of multidegree b
    (_pairing_faces).

    An Euler count can settle a block with no rank.  Let h1(b) be the
    number of induced 2K2s with sigma = b, and h2(b) the sum of
    (components of the complement of G on W') - 1 over the 4-sets W' with
    sigma(W') = b; by Hochster they are beta_{1,b}(in I) and
    beta_{2,b}(in I).  I and in(I) are generated by quadrics, so at |b| = 4
    only beta_1 and beta_2 can be nonzero, and the two ideals share the
    multigraded Hilbert function, so beta_{1,b}(I) = beta_{2,b}(I) + h1 - h2.
    A block with h1 > h2 answers False; the others are ranked once every
    block has been counted.

    Before either, a block whose supports glue (_glues) has H~_1 = 0 and is
    settled with no count and no rank.  A block that does not glue may
    still have H~_1 = 0; it is then settled by Euler or ranked, so the
    answer stays exact.  The hypothesis, measured on the seed corpora, the
    4x4 box and grid windows but not proved, is that no ranked block has
    H~_1 = 0.
    """
    require_field(field)
    require_var_cap(var_cap)
    if ideal.is_zero:
        return True
    ring = ideal.ring
    check_var_cap(ring.nvars, var_cap)
    adj = _lead_graph(ideal.quadratic_gb.lead_supports, ring.nvars)
    index = ring.index
    blocks = []
    for (rows, cols), h1 in _2k2_multidegrees(ring.points, _induced_2k2(adj)).items():
        supports = _pairing_supports(index, rows, cols)
        if _glues(supports):
            continue
        if h1 > _hochster_h2(adj, supports):
            return False
        blocks.append(supports)
    return not any(reduced_homology(_pairing_faces(s), field).get(2) for s in blocks)
