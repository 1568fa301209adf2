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

Betti tables are reported for the ideal I: beta_{i,j}(I) = beta_{i+1,j}(S/I),
so beta_{0,2} counts minimal quadric generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import BudgetExceeded, CapExceeded, PreconditionFailed, VerificationFailed
from .binomials import (
    DEFAULT_FIELD,
    GroebnerReport,
    WindowRing,
    _degree_monomials,
    _rank_mod_p,
    default_budget,
    mono_div,
    mono_squarefree,
    order_search,
    require_field,
)

# ---------------------------------------------------------------------------
# simplicial homology over GF(p)


def _boundary_rank(faces, prev_index, p):
    rows = []
    for face in faces:
        row = {}
        for k in range(len(face)):
            sub = face[:k] + face[k + 1 :]
            col = prev_index[sub]
            row[col] = row.get(col, 0) + (1 if k % 2 == 0 else -1)
        rows.append(row)
    return _rank_mod_p(rows, len(prev_index), p)


def reduced_homology(faces_by_size, p):
    """dim H~_{s-1} for each face size s present; faces include the empty face."""
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


def standard_monomial_basis(gb, nvars: int, d_max: int, budget: int | None = None) -> StandardMonomialBasis:
    leads = _leads_of(gb)
    budget = budget or default_budget()
    levels = []
    for d in range(d_max + 1):
        count = comb(nvars + d - 1, d)
        if count > budget:
            raise BudgetExceeded(
                f"degree {d} enumeration exceeds budget", budget=budget, monomials=count
            )
        levels.append(tuple(
            mono for mono in _degree_monomials(nvars, d, budget)
            if not any(mono_div(mono, lead) is not None for lead in leads)
        ))
    return StandardMonomialBasis(degrees=tuple(levels))


def hilbert_function(gb, d_max: int, nvars: int | None = None, budget: int | None = None):
    """Quotient dimensions in degrees 0..d_max via standard monomials."""
    leads = _leads_of(gb)
    if nvars is None:
        if not leads:
            raise ValueError("nvars is required for a zero ideal")
        nvars = len(leads[0])
    return list(standard_monomial_basis(leads, nvars, d_max, budget).hilbert())


def _minimal_supports(leads):
    supports = sorted({frozenset(k for k, e in enumerate(lead) if e) for lead in leads}, key=sorted)
    kept = []
    for s in sorted(supports, key=len):
        if not any(t <= s for t in kept):
            kept.append(s)
    return kept


def krull_dimension_via_initial(gb, nvars: int | None = None) -> int:
    """Largest variable subset containing no initial-ideal support.

    Equals the Krull dimension of the quotient when the initial ideal is
    squarefree (Stanley-Reisner); computed as nvars minus a minimum hitting
    set, by branch and bound.
    """
    leads = _leads_of(gb)
    if nvars is None:
        if not leads:
            raise ValueError("nvars is required for a zero ideal")
        nvars = len(leads[0])
    if not leads:
        return nvars
    if not all(mono_squarefree(lead) for lead in leads):
        raise PreconditionFailed("initial ideal is not squarefree")
    supports = _minimal_supports(leads)

    best = [len(set().union(*supports))]

    def hit(remaining, count):
        if count >= best[0]:
            return
        if not remaining:
            best[0] = count
            return
        support = min(remaining, key=len)
        for v in sorted(support):
            rest = [s for s in remaining if v not in s]
            hit(rest, count + 1)

    hit(supports, 0)
    return nvars - best[0]


# ---------------------------------------------------------------------------
# Betti numbers of the toric quotient via multidegree blocks


def _vec_sub(a, b):
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def _semigroup_levels(ring: WindowRing, j_max: int):
    imgs = ring.monomial_map.images
    levels = [set() for _ in range(j_max + 1)]
    levels[0].add(tuple([0] * (ring.m + 1 + ring.n + 1)))
    for e in range(1, j_max + 1):
        prev = levels[e - 1]
        cur = levels[e]
        for q in prev:
            for img in imgs:
                cur.add(tuple(x + y for x, y in zip(q, img)))
    return levels


def _require_toric(ring: WindowRing, gens):
    mm = ring.monomial_map
    for g in gens:
        if not mm.balanced(g):
            raise ValueError(
                "generator is not in the toric ideal of the window map; "
                "Betti oracle only covers window ideals"
            )


def _block_faces(ring, b, j, levels, max_size, block_cap):
    imgs = ring.monomial_map.images
    verts = []
    for v in range(ring.nvars):
        rem = _vec_sub(b, imgs[v])
        if rem is not None and rem in levels[j - 1]:
            verts.append(v)
    faces = {0: [()]}
    rems = {(): b}
    total = 1
    cur = [()]
    for s in range(1, max_size + 1):
        nxt = []
        for face in cur:
            start = verts.index(face[-1]) + 1 if face else 0
            base = rems[face]
            for vi in range(start, len(verts)):
                v = verts[vi]
                rem = _vec_sub(base, imgs[v])
                if rem is not None and rem in levels[j - s]:
                    new = face + (v,)
                    nxt.append(new)
                    rems[new] = rem
        if not nxt:
            break
        faces[s] = nxt
        total += len(nxt)
        if total > block_cap:
            raise CapExceeded(
                f"multidegree block exceeds {block_cap} faces",
                degree=j, faces=total, cap=block_cap,
            )
        cur = nxt
    return faces


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

    def off_linear(self):
        return {k: v for k, v in self.entries.items() if k[1] != k[0] + 2}

    def is_linear(self) -> bool:
        return not self.off_linear()

    def format_text(self) -> str:
        if not self.entries:
            return "zero ideal: empty Betti table"
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
    i_max: int | None = None,
    j_max: int | None = None,
    block_cap: int = 20000,
    var_cap: int | None = 12,
    _targets=None,
) -> BettiTable:
    """Exact graded Betti numbers of the window ideal over GF(field).

    Works blockwise per multidegree (see module docstring); with default
    bounds every block's Euler characteristic is checked against its
    homology, which pins the contraction differential's consistency.
    """
    require_field(field)
    _require_toric(ring, gens)
    nvars = ring.nvars
    if var_cap is not None and nvars > var_cap:
        raise CapExceeded(f"{nvars} variables exceed cap {var_cap}", cap=var_cap, nvars=nvars)
    full = i_max is None and j_max is None and _targets is None
    if i_max is None:
        i_max = nvars
    if j_max is None:
        j_max = nvars
    if not gens:
        return BettiTable({}, i_max=i_max, j_max=j_max, field=field, nvars=nvars)
    entries = {}
    degrees = sorted({j for _, j in _targets} if _targets else range(2, j_max + 1))
    if not degrees:
        return BettiTable({}, i_max=i_max, j_max=j_max, field=field, nvars=nvars)
    levels = _semigroup_levels(ring, max(degrees))
    for j in degrees:
        if _targets:
            wanted_i = sorted(i for i, jj in _targets if jj == j)
            max_size = min(max(wanted_i) + 2, j)
        else:
            wanted_i = list(range(0, min(i_max, j - 2) + 1))
            max_size = min(i_max + 2, j)
        for b in sorted(levels[j]):
            faces = _block_faces(ring, b, j, levels, max_size, block_cap)
            hom = reduced_homology(faces, field)
            if full:
                euler_faces = sum(
                    (-1) ** s * len(fs) for s, fs in faces.items()
                )
                euler_hom = sum((-1) ** s * h for s, h in hom.items())
                if euler_faces != euler_hom:
                    raise VerificationFailed(
                        "block Euler characteristic mismatch", degree=j,
                        faces=euler_faces, homology=euler_hom,
                    )
            for i in wanted_i:
                h = hom.get(i + 1, 0)
                if h:
                    entries[(i, j)] = entries.get((i, j), 0) + h
    return BettiTable(entries, i_max=i_max, j_max=j_max, field=field, nvars=nvars)


# ---------------------------------------------------------------------------
# Hochster's formula for the (squarefree) initial ideal


def monomial_betti_table(leads, nvars: int, field: int = DEFAULT_FIELD, j_max: int | None = None):
    """Betti table of a squarefree monomial ideal via induced subcomplex homology.

    beta_{i,j}(I) = sum over j-subsets W of dim H~_{j-i-2} of the restricted
    Stanley-Reisner complex.  A W with a vertex outside every contained
    support restricts to a cone, so only W covered by their supports are
    enumerated; the loop runs over subsets of the support union only.
    """
    if not leads:
        return {}
    if not all(mono_squarefree(lead) for lead in leads):
        raise PreconditionFailed("monomial Betti table requires squarefree leads")
    supports = _minimal_supports(leads)
    if j_max is None:
        j_max = nvars
    union = sorted(set().union(*supports))
    back = {v: k for k, v in enumerate(union)}
    masks = [sum(1 << back[v] for v in s) for s in supports]
    entries = {}
    for u_mask in range(1, 1 << len(union)):
        cover = 0
        for m in masks:
            if m & u_mask == m:
                cover |= m
        if cover != u_mask:
            continue
        w = [union[k] for k in range(len(union)) if u_mask >> k & 1]
        j = len(w)
        if j > j_max:
            continue
        # supports restricted to W, reindexed over w
        pos = {v: k for k, v in enumerate(w)}
        local_supports = [
            frozenset(pos[v] for v in s) for s in supports if all(v in pos for v in s)
        ]
        faces = {0: [()]}
        cur = [()]
        size = 0
        while cur:
            size += 1
            nxt = []
            for face in cur:
                start = face[-1] + 1 if face else 0
                fset = set(face)
                for v in range(start, j):
                    if any(s <= fset | {v} for s in local_supports):
                        continue
                    nxt.append(face + (v,))
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


# ---------------------------------------------------------------------------
# boolean oracles


def has_linear_resolution_oracle(
    ring: WindowRing,
    gens,
    field: int = DEFAULT_FIELD,
    gb: GroebnerReport | None = None,
    var_cap: int = 12,
    block_cap: int = 20000,
) -> bool:
    """True iff beta_{i,j}(I) = 0 for all j != i+2 up to the squarefree bound j <= nvars.

    The initial ideal bounds the toric table entrywise (Groebner
    semicontinuity), so only positions where the monomial table is nonzero
    off the linear strand need an exact Koszul rank check.  The order
    search runs only when gb is missing or not squarefree.
    """
    gens = list(gens)
    if not gens:
        return True
    if ring.nvars > var_cap:
        raise CapExceeded(
            f"{ring.nvars} variables exceed cap {var_cap}", cap=var_cap, nvars=ring.nvars
        )
    if gb is None or not gb.squarefree:
        _, _, gb, _ = order_search(ring, [(g.lead, g.trail) for g in gens])
    if not gb.squarefree:
        table = betti_numbers(
            ring, gens, field=field, var_cap=var_cap, block_cap=block_cap
        )
        return table.is_linear()
    mono_table = monomial_betti_table(gb.leads, ring.nvars, field=field)
    candidates = sorted(
        ((i, j) for (i, j), v in mono_table.items() if v and j != i + 2),
        key=lambda t: (t[1], t[0]),
    )
    for target in candidates:
        toric = betti_numbers(
            ring,
            gens,
            field=field,
            var_cap=var_cap,
            block_cap=block_cap,
            _targets=[target],
        )
        if toric.get(*target):
            return False
    return True


def is_linearly_related_oracle(
    ring: WindowRing,
    gens,
    field: int = DEFAULT_FIELD,
    var_cap: int = 16,
    block_cap: int = 20000,
    deep: bool = False,
) -> bool:
    """True iff beta_{1,4}(I) = 0; a zero or principal ideal has no syzygies at all.

    With deep=True the degrees 5 and 6 of the first syzygy strand are also
    computed; a nonzero value there contradicts the quadratic-basis S-pair
    bound and is raised as a hard inconsistency rather than folded into the
    verdict.
    """
    gens = list(gens)
    if not gens:
        return True
    if ring.nvars > var_cap:
        raise CapExceeded(
            f"{ring.nvars} variables exceed cap {var_cap}", cap=var_cap, nvars=ring.nvars
        )
    targets = [(1, 4)]
    if deep:
        targets += [(1, 5), (1, 6)]
    table = betti_numbers(
        ring,
        gens,
        field=field,
        var_cap=var_cap,
        block_cap=block_cap,
        _targets=targets,
    )
    if deep:
        bad = {t: table.get(*t) for t in ((1, 5), (1, 6)) if table.get(*t)}
        if bad:
            raise VerificationFailed(
                "first syzygies above degree 4 contradict the quadratic basis bound",
                entries={str(k): v for k, v in bad.items()},
            )
    return table.get(1, 4) == 0
