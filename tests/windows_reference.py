"""Test-side reference for hibilab.windows and the straightening law.

These are the routes as they stood before the window layer read the
lattice's row bitmasks: generators filtered from the lattice's points by
rank, polyomino cells found by a scan over the points with three set
lookups each, convexity from sorted runs of cells, the bisimplicial test on
adjacency sets, the elimination that copies those sets, and the defining
binomials from a scan over all pairs of band points.  They are kept here,
not in the package, as the reference the mask routes must match.
"""

import window_helpers as helpers
from hibilab.windows import (
    ChordalityCertificate,
    GeneratorSet,
    Polyomino,
    _chordless_cycle_bruteforce,
    as_window,
)


def generators(lattice, window):
    """Lattice points in the rank band, sorted by (rank, i)."""
    w = as_window(window).validate(lattice.rank)
    pts = tuple(p for p in lattice.sorted_points if w.p <= p[0] + p[1] <= w.q)
    return GeneratorSet(window=w, points=pts)


def polyomino(lattice, window):
    """Cells [a, a+(1,1)] whose four corners lie in L with ranks inside the band."""
    w = as_window(window).validate(lattice.rank)
    cells = set()
    for i, j in lattice.sorted_points:
        if not (w.p <= i + j and i + j + 2 <= w.q):
            continue
        if (
            (i + 1, j) in lattice.points
            and (i, j + 1) in lattice.points
            and (i + 1, j + 1) in lattice.points
        ):
            cells.add((i, j))
    return Polyomino(cells=frozenset(cells))


def check_convexity(poly):
    """Row and column runs of cells must be contiguous."""
    rows, columns = {}, {}
    for i, j in poly.cells:
        rows.setdefault(j, []).append(i)
        columns.setdefault(i, []).append(j)
    for run in map(sorted, list(rows.values()) + list(columns.values())):
        if run[-1] - run[0] + 1 != len(run):
            return False
    return True


def dimension(lattice, window):
    """Number of band points minus the number of band cells."""
    return len(generators(lattice, window)) - len(polyomino(lattice, window))


def bisimplicial(edges, left_adj, right_adj, edge):
    i, j = edge
    for u in right_adj[j]:
        if u == i:
            continue
        for v in left_adj[i]:
            if v == j:
                continue
            if (u, v) not in edges:
                return False
    return True


def is_chordal_bipartite(graph):
    """Bisimplicial edge elimination on adjacency sets, least edge first."""
    edges = set(graph.edges)
    remaining = sorted(edges)
    left_adj, right_adj = helpers.left_adj(graph), helpers.right_adj(graph)
    order = []
    while remaining:
        for k, pick in enumerate(remaining):
            if bisimplicial(edges, left_adj, right_adj, pick):
                del remaining[k]
                break
        else:
            return ChordalityCertificate(
                False, chordless_cycle=_chordless_cycle_bruteforce(graph.edges)
            )
        edges.discard(pick)
        left_adj[pick[0]].discard(pick[1])
        right_adj[pick[1]].discard(pick[0])
        order.append(pick)
    return ChordalityCertificate(True, elimination_order=tuple(order))


def resorting_elimination(graph):
    """The elimination as it stood before the edges were sorted once: the
    remaining edges sorted again at every step, the least bisimplicial one
    eliminated; None when it sticks."""
    edges = set(graph.edges)
    left_adj, right_adj = helpers.left_adj(graph), helpers.right_adj(graph)
    order = []
    while edges:
        pick = next((e for e in sorted(edges) if bisimplicial(edges, left_adj, right_adj, e)), None)
        if pick is None:
            return None
        edges.discard(pick)
        left_adj[pick[0]].discard(pick[1])
        right_adj[pick[1]].discard(pick[0])
        order.append(pick)
    return tuple(order)


def straightening_pairs(ring):
    """The terms (y_ij y_kl, y_il y_kj) of each defining binomial, unoriented,
    each a sparse term, from every pair of band points.

    The points are sorted by (rank, i), so the pair's own indices come in
    order, and the meet, of lower rank than the join, comes first.
    """
    p, q = ring.window.p, ring.window.q
    index = ring.index
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
            out.append(((a_idx, b_idx), (index[i2, l2], index[k2, j2])))
    return out
