"""Rank windows on a planar lattice: generators, bipartite graph, polyomino.

A window (p, q) with 0 <= p < q <= rank L selects the lattice points whose
rank lies in [p, q].  Those points are the algebra generators; they are also
the edges s_i t_j of a bipartite graph and, through the unit cells fully
contained in the band, a row- and column-convex polyomino.  A WindowContext
validates a window once and builds each of these objects, and the window's
ring and ideal, at most once.

Each object is read off tables that the lattice builds once: the generators
are a slice of its points in (rank, i) order, and the cells come from the
band's rows rows[i] = R[i] & columns(p - i .. q - i), with R[i] the columns
of row i as a bitmask.  Convexity and the chordality test work on bitmasks
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import BudgetExceeded, InvalidWindow, VerificationFailed, search_budget
from .lattice import PlanarLattice, lazy


@dataclass(frozen=True, order=True)
class RankWindow:
    p: int
    q: int

    def is_proper(self, lattice_rank: int) -> bool:
        return (self.p, self.q) != (0, lattice_rank)

    def validate(self, lattice_rank: int) -> "RankWindow":
        if not 0 <= self.p < self.q <= lattice_rank:
            raise InvalidWindow(
                f"window ({self.p}, {self.q}) invalid for rank {lattice_rank}"
            )
        return self


def as_window(w) -> RankWindow:
    return w if isinstance(w, RankWindow) else RankWindow(*w)


def all_windows(lattice: PlanarLattice, proper_only: bool = False):
    r = lattice.rank
    out = [
        RankWindow(p, q)
        for p in range(r + 1)
        for q in range(p + 1, r + 1)
    ]
    if proper_only:
        out = [w for w in out if w.is_proper(r)]
    return out


def select_windows(lattice: PlanarLattice, windows=None, all_windows_flag: bool = False,
                   proper_only: bool = False):
    """Every window, else the given ones, else the full window.

    proper_only drops the full window from the first two choices; the
    default full window is kept.
    """
    if all_windows_flag:
        return all_windows(lattice, proper_only=proper_only)
    if not windows:
        return [RankWindow(0, lattice.rank)]
    wins = [as_window(w).validate(lattice.rank) for w in windows]
    return [w for w in wins if w.is_proper(lattice.rank)] if proper_only else wins


@dataclass(frozen=True)
class GeneratorSet:
    window: RankWindow
    points: tuple

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def generators(lattice: PlanarLattice, window) -> GeneratorSet:
    """Lattice points in the rank band, sorted by (rank, i): a slice of the
    lattice's points in that order."""
    w = as_window(window).validate(lattice.rank)
    starts = lattice.rank_starts
    return GeneratorSet(window=w, points=lattice.sorted_points[starts[w.p]:starts[w.q + 1]])


@dataclass(frozen=True)
class BipartiteGraph:
    """Left vertices s_0..s_m, right vertices t_0..t_n, one edge per generator."""

    m: int
    n: int
    edges: tuple


def bipartite_graph(lattice: PlanarLattice, window) -> BipartiteGraph:
    gens = as_context(lattice, window).generators
    return BipartiteGraph(m=lattice.m, n=lattice.n, edges=tuple(gens.points))


@dataclass(frozen=True)
class ChordalityCertificate:
    chordal: bool
    elimination_order: tuple = ()
    chordless_cycle: tuple = ()

    def __bool__(self):
        return self.chordal


def _chordless_cycle_bruteforce(edges):
    """Search the original graph for an induced cycle of length >= 6.

    Vertices are ('s', i) / ('t', j); the graph is bipartite so induced
    cycles alternate sides.  Only called on small stuck instances.  extend
    calls are counted against search_budget(); past it BudgetExceeded
    carries the budget and the node count.
    """
    adj = {}
    for i, j in edges:
        adj.setdefault(("s", i), set()).add(("t", j))
        adj.setdefault(("t", j), set()).add(("s", i))
    verts = sorted(adj)
    budget = search_budget()
    nodes = 0

    def extend(path, members):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(
                "chordless cycle search exceeds budget", budget=budget, nodes=nodes
            )
        start = path[0]
        last = path[-1]
        for nxt in sorted(adj[last]):
            if nxt in members:
                continue
            # induced: the new vertex may only touch the path at its end,
            # plus the start when it closes a long enough cycle.
            touches = adj[nxt] & members
            closes = start in touches and len(path) >= 2
            allowed = {last, start} if closes else {last}
            if touches - allowed:
                continue
            if closes:
                if len(path) >= 5:
                    return list(path) + [nxt]
                continue
            path.append(nxt)
            members.add(nxt)
            found = extend(path, members)
            if found:
                return found
            path.pop()
            members.discard(nxt)
        return None

    for v in verts:
        found = extend([v], {v})
        if found:
            return tuple(found)
    return None


def is_chordal_bipartite(graph: BipartiteGraph) -> ChordalityCertificate:
    """Bisimplicial edge elimination with a certificate either way.

    True comes with the edge elimination order; False comes with a chordless
    cycle of length >= 6 found in the input graph.  Each step eliminates the
    least bisimplicial edge; the edges are sorted once, and an eliminated
    edge is deleted from the sorted list.  Edge (i, j) is bisimplicial when
    rows[i] & ~rows[u] == 0 for each other neighbour s_u of t_j, rows[i]
    being the neighbours of s_i left as a bitmask.
    """
    rows, columns = [0] * (graph.m + 1), [0] * (graph.n + 1)  # the neighbours as bitmasks
    for i, j in graph.edges:
        rows[i] |= 1 << j
        columns[j] |= 1 << i
    remaining = sorted(set(graph.edges))
    order = []
    while remaining:
        for k, (i, j) in enumerate(remaining):
            need, others = rows[i], columns[j] ^ 1 << i
            while others:
                u = others & -others
                if need & ~rows[u.bit_length() - 1]:
                    break
                others ^= u
            else:
                break
        else:
            cycle = _chordless_cycle_bruteforce(graph.edges)
            if cycle is None:
                raise VerificationFailed(
                    "elimination stuck but no chordless cycle found",
                    edges=remaining,
                )
            return ChordalityCertificate(False, chordless_cycle=cycle)
        del remaining[k]
        rows[i] ^= 1 << j
        columns[j] ^= 1 << i
        order.append((i, j))
    return ChordalityCertificate(True, elimination_order=tuple(order))


@dataclass(frozen=True)
class Polyomino:
    """Unit cells named by lower-left corner; vertices are all cell corners."""

    cells: frozenset

    def __len__(self):
        return len(self.cells)

    @lazy
    def vertices(self):
        vs = set()
        for i, j in self.cells:
            vs.update(((i, j), (i + 1, j), (i, j + 1), (i + 1, j + 1)))
        return frozenset(vs)

    @lazy
    def connected(self) -> bool:
        """Edge adjacency of cells; corner contact does not connect."""
        if not self.cells:
            return True
        todo = [next(iter(self.cells))]
        seen = {todo[0]}
        while todo:
            i, j = todo.pop()
            for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if nb in self.cells and nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
        return len(seen) == len(self.cells)

    @lazy
    def convex(self) -> bool:
        """Row and column runs of cells are contiguous: adding the lowest
        bit of a run's mask clears all of it.  Read once per polyomino by
        classify_window and the corner criteria alike."""
        columns, rows = {}, {}
        for i, j in self.cells:
            columns[i] = columns.get(i, 0) | 1 << j
            rows[j] = rows.get(j, 0) | 1 << i
        return not any(run + (run & -run) & run for run in chain(columns.values(), rows.values()))


def polyomino(lattice: PlanarLattice, window) -> Polyomino:
    """Cells [a, a+(1,1)] whose four corners lie in L with ranks inside the band:
    the cells (i, j) with j and j + 1 in both band rows i and i + 1."""
    rows = as_context(lattice, window).rows
    cells = []
    for i in range(len(rows) - 1):
        both = rows[i] & rows[i + 1]
        corners = both & both >> 1
        while corners:
            low = corners & -corners
            cells.append((i, low.bit_length() - 1))
            corners ^= low
    return Polyomino(cells=frozenset(cells))


def check_convexity(poly: Polyomino) -> bool:
    """Row and column runs of cells must be contiguous (Polyomino.convex)."""
    return poly.convex


def dimension(lattice: PlanarLattice, window) -> int:
    """Number of band points minus the number of band cells."""
    return as_context(lattice, window).dimension


@dataclass(frozen=True)
class WindowContext:
    """One validated window of a lattice; each per-window object is built once.

    order_kinds is the order search of the window's ideal (see window_ideal).
    """

    lattice: PlanarLattice
    window: RankWindow
    order_kinds: str = "auto"

    @lazy
    def generators(self) -> GeneratorSet:
        return generators(self.lattice, self.window)

    @lazy
    def rows(self) -> tuple:
        """The band's columns in each row i = 0..m as a bitmask: R[i] &
        columns(p - i .. q - i), the ranks p..q shifted down by i."""
        w = as_window(self.window)
        band = (1 << w.q + 1) - (1 << w.p)  # the ranks p..q
        return tuple([columns & band >> i for i, columns in enumerate(self.lattice.row_masks)])

    @lazy
    def polyomino(self) -> Polyomino:
        return polyomino(self.lattice, self)

    @lazy
    def dimension(self) -> int:
        return len(self.generators) - len(self.polyomino)

    @lazy
    def ring(self):
        # imported here: binomials builds on this module
        from .binomials import WindowRing

        return WindowRing(m=self.lattice.m, n=self.lattice.n, window=self.window,
                          points=self.generators.points)

    @lazy
    def ideal(self):
        from .binomials import window_ideal

        return window_ideal(self.lattice, self, kinds=self.order_kinds)


def as_context(lattice: PlanarLattice, window) -> WindowContext:
    """The window as a WindowContext of lattice; a context is passed through."""
    if isinstance(window, WindowContext):
        if window.lattice is not lattice and window.lattice != lattice:
            raise InvalidWindow("window context belongs to another lattice")
        return window
    return WindowContext(lattice, as_window(window).validate(lattice.rank))
