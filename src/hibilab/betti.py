"""Independent homological ground truth for window ideals.

Hilbert functions and Krull dimension come from the initial ideal; graded
Betti numbers come from exact Koszul homology ranks over a prime field.

The Koszul strand in internal degree j decomposes by the toric multigrading:
every graded piece of the quotient is spanned by the single standard monomial
of its multidegree, so the contraction differential

    e_{a_1} ^ ... ^ e_{a_s} (x) m  |->  sum_k (-1)^(k-1) e_{..no a_k..} (x) nf(y_{a_k} m)

restricted to a multidegree b is the simplicial boundary of the complex of
subsets T with b - sigma(T) still in the semigroup.  Ranks are computed by
exact Gaussian elimination mod p, blockwise; the block sum equals the rank of
the full strand matrix because the blocks are its diagonal after sorting the
monomial basis by multidegree.

Multidegrees are packed into one int each (_Packing), with a guard bit per
coordinate, so b - img(v) is one subtraction plus a borrow test, and faces
are bitmasks over the variables.  Almost every block is a whole simplex or
a cone (a vertex v with T | v a face for every face T); its reduced
homology is zero, so it takes no rank.  A full table checks the faces
instead: summed over the blocks of degree j, the faces of size s number
C(nvars, s) * dim (S/I)_{j-s}, the dimension of that Koszul piece.

Betti tables are reported for the ideal I: beta_{i,j}(I) = beta_{i+1,j}(S/I),
so beta_{0,2} counts minimal quadric generators.

The two boolean oracles work on the initial ideal in(I) of a quadratic
squarefree Groebner basis: the given one when it is both, else the order
search's, and PreconditionFailed naming the orders tried when no candidate
order gives one (criterion 2 says some order does).  So in(I) is the edge
ideal of the lead graph G: one edge a-b per lead y_a y_b.

- Linear resolution.  By Conca-Varbaro ("Square-free Groebner
  degenerations", Invent. Math. 221, 2020) a squarefree in(I) has the same
  regularity as I, and by Froeberg (1990) an edge ideal has a linear
  resolution iff the complement of G is chordal.  So I has a linear
  resolution iff the complement of G is chordal, a bitmask graph test with
  no Koszul block.
- Linear relatedness.  The Groebner degeneration is flat in the toric
  multigrading, in which both I and in(I) are homogeneous, so by upper
  semicontinuity beta_{1,b}(I) <= beta_{1,b}(in I) for every multidegree b.
  By Hochster's formula on the flag complex of in(I), beta_{1,b}(in I)
  counts the 4-sets W of variables on which G is two disjoint edges (an
  induced 2K2) with sigma(W) = b.  So beta_{1,4}(I) is the sum of the Koszul
  blocks at just those b, and 0 when G has no induced 2K2.

monomial_betti_table reads the full Betti table of a squarefree in(I) off
Hochster's formula (induced subcomplexes of its Stanley-Reisner complex).
By Peeva ("Consecutive cancellations in Betti numbers", Proc. AMS 132, 2004)
the toric table arises from it by cancelling pairs (i, j), (i+1, j) of equal
internal degree, so entries only shrink; _settled names the entries no
cancellation can reach, which are already the toric values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from math import comb

from .errors import (
    BudgetExceeded,
    CapExceeded,
    InvalidParameter,
    PreconditionFailed,
    VerificationFailed,
)
from .binomials import (
    DEFAULT_FIELD,
    GroebnerReport,
    Reducer,
    WindowRing,
    _degree_monomials,
    default_budget,
    mono_squarefree,
    order_search,
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
    rows = []
    for face in faces:
        row = {}
        sign, rest = 1, face
        while rest:
            low = rest & -rest
            row[prev_index[face ^ low]] = sign
            sign, rest = -sign, rest ^ low
        rows.append(row)
    return _rank_mod_p(rows, len(prev_index), p)


def reduced_homology(faces_by_size, p):
    """dim H~_{s-1} for each face size s present.

    Faces are bitmasks over the vertices and include the empty face 0.
    """
    sizes = sorted(faces_by_size)
    ranks = {}
    index = {s: {f: k for k, f in enumerate(faces_by_size[s])} for s in sizes}
    for s in sizes:
        if s == 0:
            continue
        ranks[s] = _boundary_rank(faces_by_size[s], index[s - 1], p)
    out = {}
    for s in sizes:
        h = len(faces_by_size[s]) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        out[s] = h
    return out


# ---------------------------------------------------------------------------
# standard monomials, Hilbert function, Krull dimension


@dataclass(frozen=True)
class StandardMonomialBasis:
    """Monomials not divisible by any initial-ideal generator, per degree."""

    degrees: tuple  # tuple over d of tuples of monomials

    def hilbert(self):
        return tuple(len(level) for level in self.degrees)


def _leads_of(gb) -> tuple:
    if isinstance(gb, GroebnerReport):
        return gb.leads
    return tuple(gb)


def standard_monomial_basis(gb, nvars: int, d_max: int) -> StandardMonomialBasis:
    reducer = Reducer()
    for lead in _leads_of(gb):
        reducer.append(lead)
    budget = default_budget()
    levels = []
    for d in range(d_max + 1):
        count = comb(nvars + d - 1, d)
        if count > budget:
            raise BudgetExceeded(
                f"degree {d} enumeration exceeds budget", budget=budget, monomials=count
            )
        levels.append(tuple(
            mono for mono in _degree_monomials(nvars, d, budget)
            if reducer.divisor(mono) is None
        ))
    return StandardMonomialBasis(degrees=tuple(levels))


def hilbert_function(gb, d_max: int, nvars: int):
    """Quotient dimensions in degrees 0..d_max via standard monomials."""
    return list(standard_monomial_basis(gb, nvars, d_max).hilbert())


def _minimal_supports(leads):
    supports = sorted({frozenset(k for k, e in enumerate(lead) if e) for lead in leads}, key=sorted)
    kept = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in kept):
            kept.append(s)
    return kept


def krull_dimension_via_initial(gb, nvars: int) -> int:
    """Largest variable subset containing no initial-ideal support.

    Equals the Krull dimension of the quotient when the initial ideal is
    squarefree (Stanley-Reisner); computed as nvars minus a minimum hitting
    set of the minimal lead supports, by exact branch and bound.

    Each node branches on the vertices v1 < v2 < ... of its smallest
    remaining support: branch k takes vk and excludes v1..v(k-1), deleting
    them from every remaining support, so each hitting set is reached along
    exactly one path (by its smallest vertex in that support).  No support
    empties: each has at least as many vertices as the branching support,
    more than the k-1 excluded.  A greedy packing of pairwise disjoint
    remaining supports is a lower bound (each needs its own vertex); a node
    is pruned once taken + packing reaches the best cover found.
    Nodes are counted against default_budget(); past it BudgetExceeded
    carries the budget and the node count.
    """
    leads = _leads_of(gb)
    if not all(mono_squarefree(lead) for lead in leads):
        raise PreconditionFailed("initial ideal is not squarefree")
    supports = _minimal_supports(leads)
    masks = [sum(1 << v for v in s) for s in supports]
    budget = default_budget()
    best = len(set().union(*supports))
    nodes = 0

    def hit(remaining, taken):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                "Krull dimension search exceeds budget", budget=budget, nodes=nodes
            )
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

    hit(masks, 0)
    return nvars - best


# ---------------------------------------------------------------------------
# Betti numbers of the toric quotient via multidegree blocks


class _Packing:
    """Multidegrees with entries at most top, packed into one int each.

    Each of the m + n + 2 coordinates takes w = top.bit_length() + 1 bits,
    the highest of them a guard bit that is set in every packed multidegree.
    Entries stay below the guard, so adding images never carries into the
    next field, and subtracting an image clears a field's guard exactly when
    that coordinate goes negative, with no borrow from the next field.  So
    b - img(v) is one int subtraction and rem & guard == guard its borrow
    test.  A remainder that fails it lies in no level; the test rejects it
    before any lookup.
    Images are packed without the guard, so adding or subtracting one keeps
    it.
    """

    def __init__(self, ring: WindowRing, top: int):
        width = top.bit_length() + 1
        self.shifts = tuple(range(0, width * (ring.m + ring.n + 2), width))
        self.guard = sum(1 << (shift + width - 1) for shift in self.shifts)
        self.images = tuple(self.pack(img) - self.guard for img in ring.monomial_map.images)

    def pack(self, vec) -> int:
        return self.guard + sum(x << shift for x, shift in zip(vec, self.shifts))


def _semigroup_levels(packing: _Packing, j_max: int):
    """Degrees 0..j_max of the window semigroup, as sets of packed multidegrees."""
    levels = [{packing.guard}]
    for _ in range(j_max):
        levels.append({q + img for q in levels[-1] for img in packing.images})
    return levels


def _require_toric(ring: WindowRing, gens):
    mm = ring.monomial_map
    for g in gens:
        if not mm.balanced(g):
            raise InvalidParameter(
                "generator is not in the toric ideal of the window map; "
                "Betti oracle only covers window ideals"
            )


_BLOCK_CAP = 20000  # faces per multidegree block


def _cap_block(total, j):
    if total > _BLOCK_CAP:
        raise CapExceeded(
            f"multidegree block exceeds {_BLOCK_CAP} faces",
            degree=j, faces=total, cap=_BLOCK_CAP,
        )


def _block_faces(packing: _Packing, b, j, levels, max_size):
    """Face counts by size of the block complex at b, and its faces, or None for a cone.

    The faces are the variable sets T, as bitmasks over the variables, with
    b - sigma(T) in degree j - |T| of the semigroup, up to max_size
    variables; the set is closed under subsets.  When it is a whole simplex
    (one subtraction tells) or has a cone vertex (_has_apex), its homology
    in every size below max_size, the only sizes a caller reads, is zero, and
    the faces are not returned.
    """
    guard = packing.guard
    lower = levels[j - 1]
    verts = []
    for v, img in enumerate(packing.images):
        rem = b - img
        if rem & guard == guard and rem in lower:
            verts.append((1 << v, img, rem))
    k = len(verts)
    rem = b - sum(img for _, img, _ in verts)
    if 0 < k <= j and rem in levels[j - k]:
        counts = [comb(k, s) for s in range(min(k, max_size) + 1)]
        for total in accumulate(counts):
            _cap_block(total, j)
        return counts, None
    # each face carries its remainder and the later vertices that may extend
    # it: the siblings that extended its parent (faces are closed under subsets)
    layers = [[(0, b, verts, 0)], [(bit, r, verts, n) for n, (bit, _, r) in enumerate(verts, 1)]]
    total = 1 + k
    _cap_block(total, j)
    for s in range(2, max_size + 1):
        level = levels[j - s]
        nxt = []
        for mask, rem, sibs, start in layers[-1]:
            if start < len(sibs):
                kids = [
                    (bit, img, r) for bit, img, _ in sibs[start:]
                    if (r := rem - img) & guard == guard and r in level
                ]
                nxt += [(mask | bit, r, kids, n) for n, (bit, _, r) in enumerate(kids, 1)]
        if not nxt:
            break
        layers.append(nxt)
        total += len(nxt)
        _cap_block(total, j)
    faces = [[face[0] for face in layer] for layer in layers]
    counts = [len(layer) for layer in faces]
    if _has_apex(faces, max_size):
        return counts, None
    return counts, dict(enumerate(faces))


def _has_apex(faces, max_size):
    """Whether some vertex v has T | v a face for every face T below max_size.

    Then coning with v (T -> T | v) is a contracting homotopy of the chain
    complex in every size below max_size, so its reduced homology there is
    zero.  Removing v maps the faces of size s + 1 with v one-to-one into the
    faces of size s without v, onto them exactly when each of those extends
    by v; so the test only counts faces.  faces[s] lists the faces of size s.
    """
    inside = dict.fromkeys(faces[1], 1)
    for s in range(1, min(max_size, len(faces))):
        upper = faces[s + 1] if s + 1 < len(faces) else ()
        outside = len(faces[s])
        inside = {
            bit: count for bit, before in inside.items()
            if (count := sum(1 for face in upper if face & bit)) == outside - before
        }
        if not inside:
            return False
    return bool(inside)


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
    ring: WindowRing,
    gens,
    field: int = DEFAULT_FIELD,
    j_max: int | None = None,
    var_cap: int | None = 12,
    _targets=None,
) -> BettiTable:
    """Exact graded Betti numbers of the window ideal over GF(field).

    Works blockwise per multidegree (see module docstring); a block that is
    a simplex or a cone has no homology and takes no rank.  Degrees run up to
    min(j_max, nvars): past nvars the squarefree initial ideal, and so the
    window ideal, has no Betti numbers.  With default bounds the faces of
    size s summed over the blocks of degree j must equal
    dim K_s (x) (S/I)_{j-s} = C(nvars, s) * |L_{j-s}|, where L_d is degree d
    of the semigroup (one standard monomial each), else VerificationFailed.
    """
    require_field(field)
    _require_toric(ring, gens)
    nvars = ring.nvars
    if var_cap is not None and nvars > var_cap:
        raise CapExceeded(f"{nvars} variables exceed cap {var_cap}", cap=var_cap, nvars=nvars)
    full = j_max is None and _targets is None
    if j_max is None:
        j_max = nvars
    entries = {}
    degrees = sorted({j for _, j in _targets} if _targets else range(2, min(j_max, nvars) + 1))
    if not (gens and degrees):
        return BettiTable({}, i_max=nvars, j_max=j_max, field=field, nvars=nvars)
    packing = _Packing(ring, max(degrees))
    levels = _semigroup_levels(packing, max(degrees))
    for j in degrees:
        if _targets:
            wanted_i = sorted(i for i, jj in _targets if jj == j)
            max_size = min(max(wanted_i) + 2, j)
        else:
            wanted_i = range(j - 1)
            max_size = j
        face_counts = [0] * (max_size + 1)
        for b in levels[j]:
            counts, faces = _block_faces(packing, b, j, levels, max_size)
            for s, count in enumerate(counts):
                face_counts[s] += count
            if faces is None:
                continue
            hom = reduced_homology(faces, field)
            for i in wanted_i:
                h = hom.get(i + 1, 0)
                if h:
                    entries[(i, j)] = entries.get((i, j), 0) + h
        if full:
            expected = [comb(nvars, s) * len(levels[j - s]) for s in range(j + 1)]
            if face_counts != expected:
                raise VerificationFailed(
                    "Koszul face counts miss the Hilbert function", degree=j,
                    faces=face_counts, expected=expected,
                )
    return BettiTable(entries, i_max=nvars, j_max=j_max, field=field, nvars=nvars)


# ---------------------------------------------------------------------------
# Hochster's formula for the (squarefree) initial ideal


def monomial_betti_table(leads, nvars: int, field: int = DEFAULT_FIELD, j_max: int | None = None):
    """Betti table of a squarefree monomial ideal via induced subcomplex homology.

    beta_{i,j}(I) = sum over j-subsets W of dim H~_{j-i-2} of the restricted
    Stanley-Reisner complex.  A W with a vertex outside every contained
    support restricts to a cone, so only W covered by their supports are
    enumerated; the loop runs over the subsets of the support union with at
    most j_max elements (all of them when j_max is None), and raises
    BudgetExceeded up front when their number exceeds default_budget().
    """
    if not all(mono_squarefree(lead) for lead in leads):
        raise PreconditionFailed("monomial Betti table requires squarefree leads")
    supports = _minimal_supports(leads)
    union = sorted(set().union(*supports))
    top = len(union) if j_max is None else min(j_max, len(union))
    budget = default_budget()
    subsets = sum(comb(len(union), k) for k in range(top + 1))
    if subsets > budget:
        raise BudgetExceeded(
            f"{len(union)} support variables exceed the subset budget",
            budget=budget, masks=subsets,
        )
    back = {v: k for k, v in enumerate(union)}
    masks = [sum(1 << back[v] for v in s) for s in supports]
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


def _lead_graph(leads, nvars):
    """Adjacency bitmasks of the lead graph: one edge a-b per lead y_a y_b.

    leads are squarefree quadrics, as _initial_basis gives them.
    """
    adj = [0] * nvars
    for lead in leads:
        a, b = (k for k, e in enumerate(lead) if e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _complement_chordal(adj):
    """Whether the complement of the graph with adjacency bitmasks adj is chordal.

    A maximum-cardinality search numbers the vertices of the complement.  It
    is chordal iff for every vertex v, the earlier-numbered neighbours of v
    other than the last-numbered one, u, are all neighbours of u (Tarjan and
    Yannakakis, SIAM J. Comput. 13, 1984).
    """
    n = len(adj)
    comp = [((1 << n) - 1) & ~(adj[v] | 1 << v) for v in range(n)]
    weight = [0] * n
    step = [0] * n
    numbered = 0
    for k in range(n):
        v = max((u for u in range(n) if not numbered >> u & 1), key=weight.__getitem__)
        earlier = comp[v] & numbered
        if earlier:
            u = max(_bits(earlier), key=step.__getitem__)
            if (earlier ^ 1 << u) & ~comp[u]:
                return False
        step[v] = k
        numbered |= 1 << v
        for u in _bits(comp[v] & ~numbered):
            weight[u] += 1
    return True


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


# ---------------------------------------------------------------------------
# boolean oracles


def _initial_basis(ring, gens, gb, var_cap):
    """gb when it is quadratic and squarefree, else the order search's basis.

    Windows over var_cap variables raise CapExceeded first, and
    PreconditionFailed names the orders tried when no candidate order gives
    a quadratic squarefree basis.
    """
    if ring.nvars > var_cap:
        raise CapExceeded(
            f"{ring.nvars} variables exceed cap {var_cap}", cap=var_cap, nvars=ring.nvars
        )
    if gb is None or not (gb.quadratic and gb.squarefree):
        _, _, gb, tried = order_search(ring, [(g.lead, g.trail) for g in gens])
        if not (gb.quadratic and gb.squarefree):
            raise PreconditionFailed(
                "no candidate order gives a quadratic squarefree basis",
                orders_tried=list(tried),
            )
    return gb


def has_linear_resolution_oracle(
    ring: WindowRing,
    gens,
    gb: GroebnerReport | None = None,
    var_cap: int = 12,
) -> bool:
    """True iff beta_{i,j}(I) = 0 for all j != i+2.

    The lead-graph test of the module docstring, on _initial_basis: reg I =
    reg in(I) (Conca-Varbaro), and the edge ideal in(I) is 2-linear iff the
    complement of the lead graph is chordal (Froeberg).  The answer is the
    same over every field.
    """
    gens = list(gens)
    if not gens:
        return True
    gb = _initial_basis(ring, gens, gb, var_cap)
    return _complement_chordal(_lead_graph(gb.leads, ring.nvars))


def is_linearly_related_oracle(
    ring: WindowRing,
    gens,
    field: int = DEFAULT_FIELD,
    gb: GroebnerReport | None = None,
    var_cap: int = 16,
) -> bool:
    """True iff beta_{1,4}(I) = 0; a zero or principal ideal has no syzygies at all.

    On _initial_basis, beta_{1,4}(I) is the sum of the Koszul blocks at the
    multidegrees sigma(W) of the induced 2K2s W of the lead graph (upper
    semicontinuity and Hochster, see the module docstring), and 0 with no
    block when there is none.
    """
    require_field(field)
    gens = list(gens)
    if not gens:
        return True
    gb = _initial_basis(ring, gens, gb, var_cap)
    quads = _induced_2k2(_lead_graph(gb.leads, ring.nvars))
    if not quads:
        return True
    packing = _Packing(ring, 4)
    imgs = packing.images
    degrees = {packing.guard + sum(imgs[v] for v in w) for w in quads}
    # blocks at degree 4 with faces of at most 3 variables read levels 0..3
    levels = _semigroup_levels(packing, 3)
    for b in degrees:
        _, faces = _block_faces(packing, b, 4, levels, 3)
        if faces is not None and reduced_homology(faces, field).get(2, 0):
            return False
    return True
