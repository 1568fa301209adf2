import pytest
import windows_reference as ref

from hibilab.binomials import _straightening_pairs
from hibilab.errors import BudgetExceeded, InvalidWindow, VerificationFailed
from hibilab.lattice import validate_planar_lattice
from hibilab.reports import CorpusSpec, demo_staircase, ell_lattice, full_grid, generate_corpus
from hibilab.windows import (
    BipartiteGraph,
    RankWindow,
    WindowContext,
    all_windows,
    as_context,
    bipartite_graph,
    check_convexity,
    dimension,
    generators,
    is_chordal_bipartite,
    polyomino,
)
from window_helpers import left_adj, polyomino_from_cells, right_adj

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
        assert set(left_adj(g)) == set(range(6))
        assert set(right_adj(g)) == set(range(5))
        assert left_adj(g)[0] == set()


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


def test_elimination_order_matches_resorting_on_every_seed7_window(corpus):
    checked = 0
    for _, lat in corpus:
        for w in all_windows(lat):
            graph = bipartite_graph(lat, w)
            assert is_chordal_bipartite(graph).elimination_order == ref.resorting_elimination(graph)
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
        assert not check_convexity(polyomino_from_cells({(0, 0), (2, 0)}))

    def test_empty_is_convex(self):
        assert check_convexity(polyomino_from_cells(set()))


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

    def test_context_of_a_window_pair_reads_the_band(self):
        lat = demo_staircase()
        ctx = WindowContext(lat, (3, 7))
        assert ctx.polyomino == polyomino(lat, RankWindow(3, 7))
        assert ctx.dimension == 9

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


def test_mask_routes_match_the_reference_on_every_seed7_and_seed11_window(corpus):
    """Gate for the window layer on row bitmasks against the routes it replaced.

    On every window of the seed-7 and seed-11 corpora and of their
    transposes: the generators in order, the polyomino cells, convexity, the
    chordality certificate (elimination order or witness), the dimension
    and the straightening pairs in order equal tests/windows_reference.py's.
    """
    seed11 = generate_corpus(CorpusSpec(seed=11, count=40, max_m=5, max_n=4))
    lattices = [lat for _, lat in corpus + seed11]
    checked = 0
    for lat in lattices + [lat.transpose() for lat in lattices]:
        for w in all_windows(lat):
            ctx = as_context(lat, w)
            assert ctx.generators == ref.generators(lat, w), (lat, w)
            poly = ctx.polyomino
            assert poly == ref.polyomino(lat, w), (lat, w)
            assert check_convexity(poly) == ref.check_convexity(poly), (lat, w)
            graph = bipartite_graph(lat, ctx)
            assert is_chordal_bipartite(graph) == ref.is_chordal_bipartite(graph), (lat, w)
            assert ctx.dimension == ref.dimension(lat, w), (lat, w)
            assert ctx.ring.rows == ctx.rows, (lat, w)
            assert _straightening_pairs(ctx.ring) == ref.straightening_pairs(ctx.ring), (lat, w)
            checked += 1
    assert checked == 2 * (764 + 825), checked


@pytest.mark.parametrize("edges", [
    ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)),  # a chordless 6-cycle
    tuple((i, i) for i in range(4)) + tuple(((i + 1) % 4, i) for i in range(4)),  # an 8-cycle
    ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (3, 0), (3, 3)),  # a 6-cycle with a tail
])
def test_mask_chordality_matches_the_reference_witness(edges):
    graph = BipartiteGraph(m=3, n=3, edges=edges)
    cert = is_chordal_bipartite(graph)
    assert not cert.chordal and cert == ref.is_chordal_bipartite(graph)


@pytest.mark.parametrize("cells, convex", [
    ({(0, 0), (2, 0)}, False),  # a gap in a row
    ({(0, 0), (0, 2), (1, 1)}, False),  # a gap in a column
    ({(0, 0), (1, 0), (1, 1), (2, 1)}, True),
    ({(0, 0), (1, 1)}, True),  # corner contact: convex, not connected
])
def test_mask_convexity_matches_the_reference(cells, convex):
    poly = polyomino_from_cells(cells)
    assert check_convexity(poly) == ref.check_convexity(poly) == convex
