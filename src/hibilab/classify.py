"""Combinatorial decision procedures for window ideals.

Two predicates are decided per window: whether the defining ideal has a
linear resolution, and whether it is linearly related (first syzygies in
degree 3 only, equivalently beta_{1,4} = 0).  Connected convex polyominoes
are decided by shape: a linear resolution happens exactly for a single row
or column of cells, and linear relatedness is governed by which bounding-box
corners the vertex set misses and, with three corners gone, by staircase
notch inequalities.  Each predicate has one route per window: a shape
theorem's answer, or its Betti oracle's where no theorem applies.
Verification (verify_window) asks the oracles about the predicates the
theorems decided and raises when they disagree (a linearly-related
disagreement is retried at a second prime first).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    VAR_CAP,
    Disconnected,
    InvalidParameter,
    NotConvex,
    PreconditionFailed,
    RankTooSmall,
    VerificationFailed,
    require_var_cap,
)
from .lattice import PlanarLattice, Poset, is_simple, join_irreducibles, posets_isomorphic
from .windows import (
    Polyomino,
    RankWindow,
    all_windows,
    as_context,
)
from .binomials import DEFAULT_FIELD, require_field
from .betti import has_linear_resolution_oracle, is_linearly_related_oracle

# verify_window's fallback prime: Betti numbers can depend on the characteristic.
SECOND_FIELD = 65537

CLASSIFY_MODES = ("shape-first", "oracle-only")


@dataclass(frozen=True)
class ShapeProfile:
    """Boundary description of a polyomino vertex set in its tight box.

    bottom/top hold the x-span of the rows y=0 and y=n, left/right the y-span
    of the columns x=0 and x=m.  staircase is True when the vertex set is the
    full box minus one L-shaped cut per absent corner, the only shape the
    corner criteria apply to.
    """

    m: int
    n: int
    bottom: tuple
    top: tuple
    left: tuple
    right: tuple
    corners_present: tuple  # ((0,0), (m,0), (0,n), (m,n)) membership flags
    staircase: bool


def _normalized_vertices(vertices):
    xs = [x for x, _ in vertices]
    ys = [y for _, y in vertices]
    dx, dy = min(xs), min(ys)
    return frozenset((x - dx, y - dy) for x, y in vertices)


def shape_profile(poly: Polyomino) -> ShapeProfile:
    if not poly.vertices:
        raise InvalidParameter("shape profile needs a nonempty polyomino")
    return _profile(_normalized_vertices(poly.vertices))


def _profile(v) -> ShapeProfile:
    """The profile of a nonempty vertex set whose least x and least y are 0."""
    m = max(x for x, _ in v)
    n = max(y for _, y in v)
    bottom_xs = sorted(x for x, y in v if y == 0)
    top_xs = sorted(x for x, y in v if y == n)
    left_ys = sorted(y for x, y in v if x == 0)
    right_ys = sorted(y for x, y in v if x == m)
    bottom = (bottom_xs[0], bottom_xs[-1])
    top = (top_xs[0], top_xs[-1])
    left = (left_ys[0], left_ys[-1])
    right = (right_ys[0], right_ys[-1])
    rebuilt = set()
    for x in range(1, m):
        for y in range(1, n):
            rebuilt.add((x, y))
    rebuilt.update((x, 0) for x in range(bottom[0], bottom[1] + 1))
    rebuilt.update((x, n) for x in range(top[0], top[1] + 1))
    rebuilt.update((0, y) for y in range(left[0], left[1] + 1))
    rebuilt.update((m, y) for y in range(right[0], right[1] + 1))
    corners = (
        (0, 0) in v,
        (m, 0) in v,
        (0, n) in v,
        (m, n) in v,
    )
    return ShapeProfile(
        m=m,
        n=n,
        bottom=bottom,
        top=top,
        left=left,
        right=right,
        corners_present=corners,
        staircase=rebuilt == set(v),
    )


def has_linear_resolution_shape(poly: Polyomino):
    """True / False for connected polyominoes, None (undecided) for disconnected ones.

    A connected convex polyomino's ideal has a linear resolution exactly when
    the cells form a single row or a single column.
    """
    if len(poly.cells) <= 1:
        return True
    if not poly.connected:
        return None
    rows = {j for _, j in poly.cells}
    cols = {i for i, _ in poly.cells}
    return len(rows) == 1 or len(cols) == 1


def is_linearly_related_polyomino(poly: Polyomino) -> bool:
    """Corner criteria on the vertex-set staircase shape.

    True when the shape is a box with one L-shaped cut per absent corner and
    at most one corner is absent; or exactly two absent but not opposite; or
    exactly three absent and, after reflecting the present corner onto the
    origin, either the bottom row ends at m-1 with the right column's top not
    above the left column's, or symmetrically with the roles of the two axes
    swapped.
    """
    if not poly.cells:
        return True
    if not poly.convex:
        raise NotConvex("corner criteria need a convex polyomino")
    if not poly.connected:
        raise Disconnected("corner criteria need a connected polyomino")
    v = _normalized_vertices(poly.vertices)
    prof = _profile(v)
    if not prof.staircase:
        return False
    missing = 4 - sum(prof.corners_present)
    if missing <= 1:
        return True
    if missing == 2:
        c00, cm0, c0n, cmn = prof.corners_present
        opposite = (not c00 and not cmn) or (not cm0 and not c0n)
        return not opposite
    if missing == 4:
        return False
    # three corners missing: reflect the present one onto (0, 0)
    present = prof.corners_present.index(True)
    m, n = prof.m, prof.n
    flip_x, flip_y = present in (1, 3), present in (2, 3)
    prof = _profile({(m - x if flip_x else x, n - y if flip_y else y) for x, y in v})
    i2 = prof.bottom[1]
    j2 = prof.left[1]
    i4 = prof.top[1]
    j4 = prof.right[1]
    return (i2 == prof.m - 1 and j4 <= j2) or (j2 == prof.n - 1 and i4 <= i2)


def is_linearly_related_lattice(lattice: PlanarLattice) -> bool:
    """Full-window criterion: at most one far corner absent and both inner
    near-corner points present.  Requires m, n >= 2.

    It holds for simple lattices (every rank strictly between 0 and rank L
    has two points or more, is_simple): it agrees with the oracle
    on all 330 simple lattices of the 4x4 box and all 940 of the 5x4 box
    (tests/box_lattices.py).  On a lattice that is not simple it can answer
    False where the oracle calls the full window linearly related, as on
    the points (0..4, 0), (3, 1), (3, 2), (4, 1), (4, 2).
    """
    m, n = lattice.m, lattice.n
    if m < 2 or n < 2:
        raise RankTooSmall(
            f"criterion needs box at least 2x2, got {m}x{n}; use the oracle"
        )
    missing = sum(1 for c in ((m, 0), (0, n)) if c not in lattice.points)
    return missing <= 1 and (1, n - 1) in lattice.points and (m - 1, 1) in lattice.points


def enumerate_linrel_windows(lattice: PlanarLattice):
    """All windows whose ideal stays linearly related, given that the full one is.

    With both far corners present the lattice is the full grid and the window
    list is fixed.  With one far corner absent the staircase extents at that
    corner gate two extra windows.
    """
    if not is_linearly_related_lattice(lattice):
        raise PreconditionFailed("full-window ideal is not linearly related")
    r = lattice.rank
    m, n = lattice.m, lattice.n
    has_right = (m, 0) in lattice.points
    has_top = (0, n) in lattice.points
    if has_right and has_top:
        wins = [(0, r - 2), (0, r - 1), (0, r), (1, r), (2, r)]
        return [RankWindow(*w) for w in sorted(wins)]
    work = lattice if not has_top else lattice.transpose()
    mm, nn = work.m, work.n
    i1 = min(x for x, y in work.points if y == nn)
    j1 = max(y for x, y in work.points if x == 0)
    wins = {(0, r), (1, r), (2, r), (0, r - 1), (0, r - 2), (1, r - 1)}
    if j1 < nn - 1:
        wins.add((1, r - 2))
    if i1 > 1:
        wins.add((2, r - 1))
    return [RankWindow(*w) for w in sorted(wins)]


@dataclass(frozen=True)
class WindowVerdict:
    window: RankWindow
    linear_resolution: bool
    linearly_related: bool
    linear_basis: str
    linrel_basis: str

    def to_json(self):
        return {
            "window": [self.window.p, self.window.q],
            "linear_resolution": self.linear_resolution,
            "linearly_related": self.linearly_related,
            "basis": {
                "linear_resolution": self.linear_basis,
                "linearly_related": self.linrel_basis,
            },
        }


def classify_window(
    lattice: PlanarLattice,
    window,
    mode: str = "shape-first",
    field: int = DEFAULT_FIELD,
    var_cap: int = VAR_CAP,
) -> WindowVerdict:
    """Decide both predicates, by shape theorems where they apply, else oracle.

    window may be a WindowContext, whose ideal and polyomino are then used.
    Shape-first takes the linear resolution from the row-or-column theorem
    and, on a connected convex polyomino, linear relatedness from the corner
    criteria; a predicate no theorem decides (None), and both in oracle-only
    mode, is asked of its oracle.  field, mode and var_cap (at least 1, or
    None for no cap) are checked first, whatever route the window then
    takes.  var_cap caps the linear-relatedness oracle; the
    linear-resolution oracle is a count with no cap.
    """
    require_field(field)
    if mode not in CLASSIFY_MODES:
        raise InvalidParameter(f"unknown classify mode {mode!r}", mode=mode)
    require_var_cap(var_cap)
    ctx = as_context(lattice, window)
    ideal = ctx.ideal
    if ideal.is_zero or ideal.is_principal:
        return WindowVerdict(ctx.window, True, True, "degenerate", "degenerate")
    lr = ll = None
    if mode == "shape-first":
        poly = ctx.polyomino
        lr = has_linear_resolution_shape(poly)
        if poly.connected and poly.convex:
            ll = is_linearly_related_polyomino(poly)
    lr_basis, ll_basis = "shape:row-or-column", "shape:corners"
    if lr is None:
        lr, lr_basis = has_linear_resolution_oracle(ideal.ring), "oracle"
    if ll is None:
        ll, ll_basis = is_linearly_related_oracle(ideal, field=field, var_cap=var_cap), "oracle"
    return WindowVerdict(ctx.window, lr, ll, lr_basis, ll_basis)


def verify_window(
    lattice: PlanarLattice,
    window,
    field: int = DEFAULT_FIELD,
    var_cap: int = VAR_CAP,
) -> WindowVerdict:
    """The shape-first verdict, checked against the oracles; raise if they disagree.

    Each oracle is asked only about a predicate a shape theorem decided: one
    the oracle decided checks itself, so each predicate costs one oracle
    call.  The linear-resolution oracle is a count of the Hilbert function,
    the same over every field, so a disagreement there raises at once.  A
    linearly-related disagreement is retried with the oracle-only verdict at
    the fallback prime, so a characteristic artifact never surfaces as a
    finding by itself.
    """
    ctx = as_context(lattice, window)
    shape = classify_window(lattice, ctx, field=field, var_cap=var_cap)
    if shape.linear_basis == "degenerate":
        return shape
    ideal = ctx.ideal
    lr = (shape.linear_resolution if shape.linear_basis == "oracle"
          else has_linear_resolution_oracle(ideal.ring))
    ll = (shape.linearly_related if shape.linrel_basis == "oracle"
          else is_linearly_related_oracle(ideal, field=field, var_cap=var_cap))
    oracle = WindowVerdict(ctx.window, lr, ll, "oracle", "oracle")
    if lr == shape.linear_resolution:
        if ll == shape.linearly_related:
            return shape
        oracle = classify_window(
            lattice, ctx, mode="oracle-only", field=SECOND_FIELD, var_cap=var_cap
        )
        if oracle.linearly_related == shape.linearly_related:
            return shape
    raise VerificationFailed(
        f"shape and oracle verdicts disagree on window ({ctx.window.p}, {ctx.window.q})",
        shape=shape.to_json(),
        oracle=oracle.to_json(),
    )


_CROSS_LINKED = Poset(
    ("a", "b", "c", "d"), (("a", "b"), ("c", "d"), ("c", "b"))
)


def _is_chain_plus_point(poset: Poset) -> bool:
    if len(poset) < 2:
        return False
    for x in poset.elements:
        if all(poset.incomparable(x, y) for y in poset.elements if y != x):
            rest = [y for y in poset.elements if y != x]
            if poset.is_chain(rest):
                return True
    return False


def _is_cross_linked_pair(poset: Poset) -> bool:
    return len(poset) == 4 and posets_isomorphic(poset, _CROSS_LINKED)


def all_proper_windows_linear(lattice: PlanarLattice):
    """Decide whether every proper window ideal has a linear resolution.

    Structural route: the join-irreducible poset is a chain plus an isolated
    element, or the cross-linked pair of two-chains (either orientation).
    Extensional route: sweep every proper window with the linear-resolution
    oracle, an h-vector count on the window's ring with no cap and no ideal
    built.  For simple lattices the two routes must agree; the extensional
    answer and a failing window (if any) are returned.
    """
    if lattice.rank < 2:
        raise RankTooSmall("need rank at least 2")
    ji = join_irreducibles(lattice)
    structural = _is_chain_plus_point(ji) or _is_cross_linked_pair(ji)
    witness = None
    for w in all_windows(lattice, proper_only=True):
        if not has_linear_resolution_oracle(as_context(lattice, w).ring):
            witness = w
            break
    extensional = witness is None
    if is_simple(lattice).simple and structural != extensional:
        raise VerificationFailed(
            "structural and extensional linear-resolution routes disagree",
            structural=structural,
            extensional=extensional,
            witness=None if witness is None else (witness.p, witness.q),
        )
    return extensional, witness
