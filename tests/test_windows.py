import pytest

from hibilab.errors import BudgetExceeded, InvalidWindow, VerificationFailed
from hibilab.lattice import validate_planar_lattice
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from hibilab.windows import (
    BipartiteGraph,
    Polyomino,
    RankWindow,
    all_windows,
    as_context,
    bipartite_graph,
    check_convexity,
    dimension,
    generators,
    is_chordal_bipartite,
    polyomino,
)

STAIRCASE_BAND_3_7 = {
    (3, 0), (2, 1), (1, 2),
    (3, 1), (2, 2), (1, 3),
    (3, 2), (2, 3),
    (4, 2), (3, 3), (2, 4),
    (5, 2), (4, 3), (3, 4),
}


class TestGenerators:
    def test_staircase_window_has_14(self):
        gens = generators(demo_staircase(), (3, 7))
        assert len(gens) == 14
        assert set(gens.points) == STAIRCASE_BAND_3_7

    def test_sorted_by_rank_then_i(self):
        gens = generators(demo_staircase(), (3, 7))
        keys = [(i + j, i) for i, j in gens.points]
        assert keys == sorted(keys)

    def test_square_full_window(self):
        assert len(generators(full_grid(1, 1), (0, 2))) == 4

    def test_grid_band(self):
        gens = generators(full_grid(2, 2), (2, 4))
        assert set(gens.points) == {(2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (2, 2)}

    @pytest.mark.parametrize("window", [(2, 2), (3, 1), (0, 10), (-1, 2)])
    def test_invalid_window(self, window):
        with pytest.raises(InvalidWindow):
            generators(demo_staircase(), window)


class TestBipartiteGraph:
    def test_square_is_four_cycle(self):
        g = bipartite_graph(full_grid(1, 1), (0, 2))
        assert sorted(g.edges) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_staircase_window_edges(self):
        g = bipartite_graph(demo_staircase(), (3, 7))
        assert len(g.edges) == 14

    def test_grid_window_edges(self):
        g = bipartite_graph(full_grid(2, 2), (1, 3))
        assert len(g.edges) == 7

    def test_isolated_vertices_retained(self):
        g = bipartite_graph(demo_staircase(), (3, 7))
        assert set(g.left_adj) == set(range(6))
        assert set(g.right_adj) == set(range(5))
        assert g.left_adj[0] == set()


class TestChordality:
    def test_four_cycle(self):
        cert = is_chordal_bipartite(bipartite_graph(full_grid(1, 1), (0, 2)))
        assert cert.chordal
        assert len(cert.elimination_order) == 4

    def test_six_cycle_without_chords(self):
        g = BipartiteGraph(m=2, n=2, edges=((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)))
        cert = is_chordal_bipartite(g)
        assert not cert.chordal
        assert len(cert.chordless_cycle) == 6

    def test_six_cycle_with_chord(self):
        g = BipartiteGraph(
            m=2, n=2,
            edges=((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (0, 1)),
        )
        assert is_chordal_bipartite(g).chordal

    def test_eight_cycle_witness(self):
        edges = tuple((i, i) for i in range(4)) + tuple(((i + 1) % 4, i) for i in range(4))
        cert = is_chordal_bipartite(BipartiteGraph(m=3, n=3, edges=edges))
        assert not cert.chordal
        assert len(cert.chordless_cycle) >= 6

    def test_cycle_search_budget(self, monkeypatch):
        # an induced 40-cycle on s_100.., t_100.. with a 20-edge path hanging
        # off t_100; the path's vertices sort first, so each search started
        # on it walks the cycle both ways before failing
        k, tail = 20, 20
        edges = {(100 + i, 100 + i) for i in range(k)}
        edges |= {(100 + (i + 1) % k, 100 + i) for i in range(k)}
        edges |= {(i, i) for i in range(tail)} | {(i + 1, i) for i in range(tail)}
        edges.add((tail, 100))
        graph = BipartiteGraph(m=100 + k, n=100 + k, edges=tuple(sorted(edges)))
        monkeypatch.delenv("HIBI_LAB_BUDGET", raising=False)
        cert = is_chordal_bipartite(graph)
        assert not cert.chordal and len(cert.chordless_cycle) == 2 * k
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        with pytest.raises(BudgetExceeded) as err:
            is_chordal_bipartite(graph)
        assert err.value.details == {"budget": 1000, "nodes": 1001}

    def test_every_window_of_named_lattices(self):
        for lat in (demo_staircase(), ell_lattice(), full_grid(3, 3)):
            for w in all_windows(lat):
                cert = is_chordal_bipartite(bipartite_graph(lat, w))
                assert cert.chordal, (lat, w)


def brute_force_has_long_chordless_cycle(graph):
    """Independent O(2^V)-ish check used to cross-validate the elimination."""
    from hibilab.windows import _chordless_cycle_bruteforce

    return _chordless_cycle_bruteforce(graph.edges) is not None


def test_elimination_agrees_with_bruteforce_on_windows():
    for lat in (full_grid(2, 2), ell_lattice(), full_grid(3, 1)):
        for w in all_windows(lat):
            g = bipartite_graph(lat, w)
            assert is_chordal_bipartite(g).chordal == (
                not brute_force_has_long_chordless_cycle(g)
            )


def _resorting_elimination(graph):
    """The elimination as it stood before the edges were sorted once: the
    remaining edges sorted again at every step, the least bisimplicial one
    eliminated; None when it sticks."""
    from hibilab.windows import _bisimplicial

    edges = set(graph.edges)
    left_adj = {i: set(v) for i, v in graph.left_adj.items()}
    right_adj = {j: set(v) for j, v in graph.right_adj.items()}
    order = []
    while edges:
        pick = next((e for e in sorted(edges) if _bisimplicial(edges, left_adj, right_adj, e)), None)
        if pick is None:
            return None
        edges.discard(pick)
        left_adj[pick[0]].discard(pick[1])
        right_adj[pick[1]].discard(pick[0])
        order.append(pick)
    return tuple(order)


def test_elimination_order_matches_resorting_on_every_seed7_window(corpus):
    checked = 0
    for _, lat in corpus:
        for w in all_windows(lat):
            graph = bipartite_graph(lat, w)
            assert is_chordal_bipartite(graph).elimination_order == _resorting_elimination(graph)
            checked += 1
    assert checked == 764


class TestPolyomino:
    def test_ell_single_cell(self):
        poly = polyomino(ell_lattice(), (1, 3))
        assert poly.cells == {(0, 1)}

    def test_grid_corner_touching_cells(self):
        poly = polyomino(full_grid(2, 2), (1, 3))
        assert poly.cells == {(1, 0), (0, 1)}
        assert not poly.connected

    def test_staircase_window_cells(self):
        poly = polyomino(demo_staircase(), (3, 7))
        assert poly.cells == {(2, 1), (1, 2), (2, 2), (3, 2), (2, 3)}
        assert poly.connected

    def test_vertices_subset_of_generators(self):
        lat = demo_staircase()
        for w in all_windows(lat):
            assert polyomino(lat, w).vertices <= set(generators(lat, w).points)

    def test_empty_window(self):
        poly = polyomino(full_grid(2, 2), (3, 4))
        assert len(poly) == 0
        assert poly.connected


class TestConvexity:
    def test_window_polyominoes_convex(self):
        for lat in (demo_staircase(), full_grid(3, 3), ell_lattice()):
            for w in all_windows(lat):
                assert check_convexity(polyomino(lat, w))

    def test_artificial_gap_rejected(self):
        assert not check_convexity(Polyomino.from_cells({(0, 0), (2, 0)}))

    def test_empty_is_convex(self):
        assert check_convexity(Polyomino.from_cells(set()))


class TestDimension:
    def test_full_grid_full_window(self):
        assert dimension(full_grid(5, 4), (0, 9)) == 10

    def test_staircase_window(self):
        # 14 band points minus 5 band cells
        assert dimension(demo_staircase(), (3, 7)) == 9

    def test_square_hypersurface(self):
        assert dimension(full_grid(1, 1), (0, 2)) == 3

    @pytest.mark.parametrize(
        "lat",
        [full_grid(2, 2), full_grid(3, 2), ell_lattice(), demo_staircase()],
        ids=["grid22", "grid32", "ell", "staircase"],
    )
    def test_full_window_is_rank_plus_one(self, lat):
        assert dimension(lat, (0, lat.rank)) == lat.rank + 1


class TestWindowContext:
    def test_objects_built_once_and_shared(self):
        ctx = as_context(demo_staircase(), (3, 7))
        assert ctx.window == RankWindow(3, 7)
        assert ctx.generators is ctx.generators
        assert ctx.ring.points == ctx.generators.points
        assert ctx.dimension == dimension(demo_staircase(), ctx) == 9
        assert ctx.ideal is ctx.ideal and ctx.ideal.ring is ctx.ring

    def test_context_passes_through_and_checks_its_lattice(self):
        lat = full_grid(2, 2)
        ctx = as_context(lat, (1, 3))
        assert as_context(lat, ctx) is ctx
        with pytest.raises(InvalidWindow):
            as_context(full_grid(2, 3), ctx)

    def test_window_validated_once_up_front(self):
        with pytest.raises(InvalidWindow):
            as_context(full_grid(1, 1), (2, 1))


def test_stuck_elimination_without_cycle_is_a_verification_failure(monkeypatch):
    import hibilab.windows as windows_mod

    # a 6-cycle s0 t0 s2 t2 s1 t1: no edge is bisimplicial
    six_cycle = BipartiteGraph(
        m=2, n=2, edges=((0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0))
    )
    assert not is_chordal_bipartite(six_cycle)
    monkeypatch.setattr(windows_mod, "_chordless_cycle_bruteforce", lambda edges: None)
    with pytest.raises(VerificationFailed):
        is_chordal_bipartite(six_cycle)
