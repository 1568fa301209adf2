"""Randomized property suites with fixed seeds.

The four families line up with the determinism and symmetry claims the rest
of the test suite leans on: Birkhoff round trip, reduced-basis determinism,
normal-form idempotence, and transposition symmetry of verdicts.  Case counts
are exported so the acceptance suite can assert the total.
"""

import random
from itertools import islice
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import krull_reference
from buchberger_reference import make_binomial, mono_mul
from fiber_reference import image_of_monomial
from hibilab.binomials import (
    WindowRing,
    buchberger,
    defining_ideal_generators,
    monomial_order,
    normal_form,
    window_ideal,
)
from hibilab.classify import classify_window
from hibilab.lattice import (
    Poset,
    join_irreducibles,
    poset_ideals_to_planar,
    posets_isomorphic,
)
from hibilab.reports import CorpusSpec, _random_staircase, generate_corpus
from hibilab.windows import all_windows, check_convexity, generators, polyomino
from window_helpers import ring_for_window

CASES = {}


def lattice_poset(lat):
    pts = sorted(lat.points)
    rels = [
        (a, b) for a in pts for b in pts if a != b and a[0] <= b[0] and a[1] <= b[1]
    ]
    return Poset(pts, rels)


def test_birkhoff_round_trip_random():
    rng = random.Random(2024)
    checked = 0
    while checked < 320:
        lat = _random_staircase(rng, 5, 4)
        ji = join_irreducibles(lat)
        assert len(ji) == lat.rank
        back = poset_ideals_to_planar(ji)
        if back.points not in (lat.points, lat.transpose().points):
            assert posets_isomorphic(lattice_poset(back), lattice_poset(lat))
        checked += 1
    CASES["round-trip"] = checked


def test_reduced_basis_determinism_random():
    rng = random.Random(77)
    checked = 0
    while checked < 200:
        lat = _random_staircase(rng, 4, 4)
        wins = all_windows(lat)
        w = wins[rng.randrange(len(wins))]
        ring = ring_for_window(lat, w)
        if ring.nvars > 14:
            continue
        kind = rng.choice(("rank-lex", "rank-revlex", "lex", "revlex"))
        order = monomial_order(kind, ring)
        gens = defining_ideal_generators(ring, order)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        a = buchberger(gens, order)
        b = buchberger(shuffled, order)
        assert a.basis == b.basis
        # recomputing the basis from itself is a fixpoint
        assert buchberger(list(a.basis), order).basis == a.basis
        checked += 1
    CASES["gb-determinism"] = checked


def test_normal_form_idempotent_random():
    rng = random.Random(4242)
    checked = 0
    while checked < 300:
        lat = _random_staircase(rng, 4, 4)
        wins = all_windows(lat)
        w = wins[rng.randrange(len(wins))]
        ideal = window_ideal(lat, w)
        ring = ideal.ring
        if not ideal.generators:
            continue
        monomial = ring.monomial()
        for _ in range(rng.randrange(1, 4)):
            monomial = mono_mul(
                monomial, ring.monomial(ring.points[rng.randrange(ring.nvars)])
            )
        nf = normal_form(monomial, ideal.gb.basis, ideal.order)
        assert normal_form(nf, ideal.gb.basis, ideal.order) == nf
        assert image_of_monomial(ring, nf) == image_of_monomial(ring, monomial)
        checked += 1
    CASES["nf-idempotence"] = checked


def test_transposition_symmetry_random():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        lat = _random_staircase(rng, 4, 3)
        t = lat.transpose()
        wins = all_windows(lat)
        w = wins[rng.randrange(len(wins))]
        if len(generators(lat, w)) > 12:
            continue
        v1 = classify_window(lat, w)
        v2 = classify_window(t, w)
        assert (v1.linear_resolution, v1.linearly_related) == (
            v2.linear_resolution,
            v2.linearly_related,
        )
        checked += 1
    CASES["transposition"] = checked


def test_window_invariants_random():
    from hibilab.windows import bipartite_graph, is_chordal_bipartite

    rng = random.Random(555)
    checked = 0
    while checked < 150:
        lat = _random_staircase(rng, 5, 4)
        wins = all_windows(lat)
        w = wins[rng.randrange(len(wins))]
        assert is_chordal_bipartite(bipartite_graph(lat, w)).chordal
        poly = polyomino(lat, w)
        assert check_convexity(poly)
        assert poly.vertices <= set(generators(lat, w).points)
        checked += 1
    CASES["window-invariants"] = checked


def test_chordality_matches_bruteforce_on_random_graphs():
    from hibilab.windows import (
        BipartiteGraph,
        _chordless_cycle_bruteforce,
        is_chordal_bipartite,
    )

    rng = random.Random(31337)
    checked = 0
    seen_nonchordal = 0
    while checked < 150:
        m = rng.randint(2, 4)
        n = rng.randint(2, 4)
        edges = tuple(
            sorted(
                {
                    (rng.randint(0, m), rng.randint(0, n))
                    for _ in range(rng.randint(4, (m + 1) * (n + 1)))
                }
            )
        )
        graph = BipartiteGraph(m=m, n=n, edges=edges)
        cert = is_chordal_bipartite(graph)
        assert cert.chordal == (_chordless_cycle_bruteforce(edges) is None)
        seen_nonchordal += 0 if cert.chordal else 1
        checked += 1
    assert seen_nonchordal > 0
    CASES["chordality-bruteforce"] = checked


def test_krull_dimension_matches_exhaustive_search():
    from itertools import combinations

    from hibilab.betti import krull_dimension_via_initial

    rng = random.Random(808)
    checked = 0
    while checked < 80:
        lat = _random_staircase(rng, 4, 3)
        wins = all_windows(lat)
        w = wins[rng.randrange(len(wins))]
        ideal = window_ideal(lat, w)
        n = ideal.ring.nvars
        if n > 10:
            continue
        supports = [
            {k for k, e in enumerate(g.lead) if e} for g in ideal.gb.basis
        ]
        best = 0
        for size in range(n, 0, -1):
            if any(
                not any(s <= set(sub) for s in supports)
                for sub in combinations(range(n), size)
            ):
                best = size
                break
        assert krull_dimension_via_initial(ideal.gb.lead_supports, nvars=n) == best
        checked += 1
    CASES["krull-exhaustive"] = checked


def test_krull_search_matches_exhaustive_on_random_hypergraphs():
    """The face search on supports of 1 to 5 variables: 1-supports are
    never candidates, 2-supports are the lead graph, and larger ones are
    completed and bounded apart from it."""
    from itertools import combinations

    from hibilab.betti import krull_dimension_via_initial

    from hibilab.betti import _minimal_masks

    rng = random.Random(909)
    checked = nested = 0
    sizes = set()
    while checked < 300:
        n = rng.randint(3, 12)
        supports = {
            frozenset(rng.sample(range(n), min(n, rng.choice((1, 2, 2, 3, 3, 4, 5)))))
            for _ in range(rng.randint(1, 2 * n))
        }
        leads = [tuple(int(v in s) for v in range(n)) for s in supports]
        masks = krull_reference.lead_supports(leads)
        best = next(
            size
            for size in range(n, -1, -1)
            if any(
                not any(s <= set(sub) for s in supports)
                for sub in combinations(range(n), size)
            )
        )
        assert krull_dimension_via_initial(masks, nvars=n) == best, sorted(map(sorted, supports))
        # the mask filter against the frozenset reference, with nested supports
        want = sorted(krull_reference.masks(krull_reference.minimal_supports(leads)))
        assert sorted(_minimal_masks(masks)) == want
        nested += len(want) < len(supports)
        sizes.update(map(len, supports))
        checked += 1
    assert nested > 100 and sizes == {1, 2, 3, 4, 5}
    CASES["krull-hypergraph-exhaustive"] = checked


def test_krull_on_masks_matches_minimal_supports_reference(corpus):
    """The lead supports read off the packed basis, their minimal filter and
    the Krull face search on them, against the frozenset route and the
    hitting-set search on dense leads, on every seed-7 and seed-11 window."""
    from hibilab.betti import _minimal_masks, krull_dimension_via_initial

    seed11 = generate_corpus(CorpusSpec(seed=11, count=40, max_m=5, max_n=4))
    checked = 0
    for name, lat in corpus + seed11:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            gb, nvars = ideal.gb, ideal.ring.nvars
            leads = [g.lead for g in gb.basis]
            supports = krull_reference.masks({k for k, e in enumerate(lead) if e} for lead in leads)
            assert gb.lead_supports == tuple(supports), (name, w)
            want = krull_reference.masks(krull_reference.minimal_supports(leads))
            assert sorted(_minimal_masks(gb.lead_supports)) == sorted(want), (name, w)
            krull = krull_dimension_via_initial(gb.lead_supports, nvars=nvars)
            assert krull == krull_reference.krull_dimension(leads, nvars), (name, w)
            checked += 1
    assert checked == 764 + 825


def test_linear_resolution_oracle_matches_full_table():
    from hibilab.betti import betti_numbers, has_linear_resolution_oracle

    rng = random.Random(616)
    checked = 0
    while checked < 60:
        lat = _random_staircase(rng, 4, 3)
        wins = all_windows(lat)
        w = wins[rng.randrange(len(wins))]
        ideal = window_ideal(lat, w)
        if not ideal.generators or ideal.ring.nvars > 8:
            continue
        fast = has_linear_resolution_oracle(ideal.ring)
        table = betti_numbers(ideal)
        full = not any(j != i + 2 for i, j in table.entries)
        assert fast == full, w
        checked += 1
    CASES["linear-oracle-vs-full-table"] = checked


def test_linear_resolution_count_matches_the_lead_graph_reference(corpus):
    """Gate for the linear-resolution oracle's h-vector count.

    has_linear_resolution_oracle equals koszul_reference.lead_graph_linear,
    Froeberg's test on the lead graph of the quadratic squarefree basis with
    no cap, on every window of the seed-7 and seed-11 corpora and of the 3x3
    box (box_lattices), all of which have such a basis.  CI runs the same
    check on the 4x4 box.
    """
    import koszul_reference as ref
    from box_lattices import box_lattices

    seed11 = generate_corpus(CorpusSpec(seed=11, count=40, max_m=5, max_n=4))
    checked = 0
    for lattices, total in (
        ([lat for _, lat in corpus], 764),
        ([lat for _, lat in seed11], 825),
        (box_lattices(3, 3), 5676),
    ):
        windows, linear, disagreements = ref.linear_resolution_disagreements(lattices)
        assert disagreements == []
        assert windows == total and 0 < linear < windows, (windows, linear)
        checked += windows
    CASES["linear-count-vs-lead-graph"] = checked


def test_settled_oracles_match_direct_koszul(corpus):
    """Gate for settling Betti entries from the Hochster table.

    The reference is the direct route: a targeted Koszul block on every
    off-linear candidate of the initial ideal's table and on (1, 4).  Both
    oracles answer as it on the window's ideal and, where its rank-revlex
    basis is not quadratic and squarefree, on that ideal too, whose basis
    the oracles replace by the order search's.
    """
    from hibilab.betti import (
        _settled,
        betti_numbers,
        has_linear_resolution_oracle,
        is_linearly_related_oracle,
        monomial_betti_table,
    )

    checked = settled = searched = 0
    for name, lat in corpus:
        for w in all_windows(lat):
            if len(generators(lat, w)) > 9:
                continue
            ideal = window_ideal(lat, w)
            ring, gb = ideal.ring, ideal.gb
            if ideal.is_zero:
                continue
            assert gb.squarefree, (name, w)
            cubic = window_ideal(lat, w, "rank-revlex")
            ideals = [ideal]
            if not (cubic.gb.quadratic and cubic.gb.squarefree):
                ideals.append(cubic)
                searched += 1
            for field in (32003, 65537):
                mono = monomial_betti_table(gb.lead_supports, ring.nvars, field=field)
                candidates = [(i, j) for (i, j), v in mono.items() if v and j != i + 2]
                koszul = {
                    t: betti_numbers(ideal, field=field, _targets=[t]).get(*t)
                    for t in candidates + [(1, 4)]
                }
                linear = not any(koszul[t] for t in candidates)
                linrel = koszul[(1, 4)] == 0
                assert has_linear_resolution_oracle(ring) == linear, (name, w, field)
                for given in ideals:
                    assert is_linearly_related_oracle(given, field=field) == linrel, (name, w, field)
                for t, value in koszul.items():
                    entry = _settled(mono, *t)
                    if entry is not None:
                        assert entry == value, (name, w, field, t)
                        settled += 1
                checked += 1
    assert settled > 0 and searched > 0, (settled, searched)
    CASES["settled-oracles-vs-koszul"] = checked


def test_oracles_on_non_quadratic_bases_match_koszul(corpus):
    """Gate for the oracles given a basis with a cubic lead.

    On every seed-7 window with at most 12 variables whose rank-revlex basis
    is not quadratic, both oracles answer as with the order search's basis
    and as the Koszul strands: (1, 4), and the off-linear candidates of the
    Hochster table of the quadratic basis, cheapest degree first until one
    is nonzero.
    """
    from hibilab.betti import (
        betti_numbers,
        has_linear_resolution_oracle,
        is_linearly_related_oracle,
        monomial_betti_table,
    )

    checked = 0
    for name, lat in corpus:
        for w in all_windows(lat):
            if len(generators(lat, w)) > 12:
                continue
            cubic = window_ideal(lat, w, "rank-revlex")
            if cubic.gb.quadratic:
                continue
            auto = window_ideal(lat, w)
            mono = monomial_betti_table(auto.gb.lead_supports, cubic.ring.nvars)
            candidates = sorted((j, i) for (i, j), v in mono.items() if v and j != i + 2)
            linear = not any(
                betti_numbers(cubic, _targets=[(i, j)]).get(i, j) for j, i in candidates
            )
            linrel = betti_numbers(cubic, _targets=[(1, 4)]).get(1, 4) == 0
            assert has_linear_resolution_oracle(cubic.ring) == linear, (name, w)
            for given in (cubic, auto):
                assert is_linearly_related_oracle(given) == linrel, (name, w)
            checked += 1
    assert checked == 59


def test_lead_graph_matches_hochster_on_random_graphs():
    from hibilab.betti import _induced_2k2, monomial_betti_table
    from koszul_reference import complement_chordal

    rng = random.Random(4711)
    checked = nonlinear = with_2k2 = 0
    while checked < 150:
        nvars = rng.randint(2, 8)
        pairs = [(a, b) for a in range(nvars) for b in range(a + 1, nvars)]
        edges = rng.sample(pairs, rng.randint(1, len(pairs)))
        adj = [0] * nvars
        for a, b in edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        table = monomial_betti_table([1 << a | 1 << b for a, b in edges], nvars)
        linear = not any(j != i + 2 for i, j in table)
        assert complement_chordal(adj) == linear, edges
        assert len(_induced_2k2(adj)) == table.get((1, 4), 0), edges
        nonlinear += not linear
        with_2k2 += (1, 4) in table
        checked += 1
    assert nonlinear > 0 and with_2k2 > 0
    CASES["lead-graph-random"] = checked


def test_lead_graph_matches_hochster_table(corpus):
    """Froeberg's test and the induced-2K2 count against Hochster's formula."""
    from hibilab.betti import _induced_2k2, _lead_graph, monomial_betti_table
    from koszul_reference import complement_chordal

    checked = nonlinear = with_2k2 = 0
    for name, lat in corpus:
        for w in all_windows(lat):
            if len(generators(lat, w)) > 12:
                continue
            ideal = window_ideal(lat, w)
            if not ideal.generators:
                continue
            supports, nvars = ideal.gb.lead_supports, ideal.ring.nvars
            assert ideal.gb.quadratic and ideal.gb.squarefree, (name, w)
            adj = _lead_graph(supports, nvars)
            full = monomial_betti_table(supports, nvars)
            linear = not any(j != i + 2 for i, j in full)
            assert complement_chordal(adj) == linear, (name, w)
            low = monomial_betti_table(supports, nvars, j_max=4)
            assert len(_induced_2k2(adj)) == low.get((1, 4), 0), (name, w)
            nonlinear += not linear
            with_2k2 += (1, 4) in low
            checked += 1
    assert nonlinear > 0 and with_2k2 > 0
    CASES["lead-graph-vs-hochster"] = checked


def test_induced_2k2_blocks_sum_to_koszul_strand(corpus):
    """Gate for beta_{1,4} from the Koszul blocks at the induced-2K2 multidegrees.

    The reference is the whole (1, 4) Koszul strand, at both primes.
    """
    from hibilab.betti import (
        _block_faces,
        _induced_2k2,
        _lead_graph,
        _semigroup_levels,
        betti_numbers,
        is_linearly_related_oracle,
        reduced_homology,
    )

    checked = nonzero = 0
    for name, lat in corpus:
        for w in all_windows(lat):
            if len(generators(lat, w)) > 10:
                continue
            ideal = window_ideal(lat, w)
            ring, gb = ideal.ring, ideal.gb
            if ideal.is_zero:
                continue
            levels = _semigroup_levels(ring.semigroup, range(ring.nvars), 4)
            images = ring.semigroup.images
            degrees = {
                sum(images[v] for v in quad)
                for quad in _induced_2k2(_lead_graph(gb.lead_supports, ring.nvars))
            }
            block_faces = [_block_faces(images, b, levels[4][b], 4, levels, 3)[1] for b in degrees]
            for field in (32003, 65537):
                blocks = sum(
                    reduced_homology(faces, field).get(2, 0)
                    for faces in block_faces if faces is not None
                )
                strand = betti_numbers(ideal, field=field, _targets=[(1, 4)]).get(1, 4)
                assert blocks == strand, (name, w, field)
                assert is_linearly_related_oracle(ideal, field=field) == (strand == 0), (name, w, field)
                nonzero += strand > 0
            checked += 1
    assert nonzero > 0
    CASES["2k2-blocks-vs-koszul"] = checked


def test_packed_block_kernel_matches_tuple_reference(corpus, monkeypatch):
    """Gate for the packed Koszul block kernel against the tuple kernel it replaced.

    On every seed-7 window with at most 7 variables that is no complete
    intersection (koszul_reference.complete_intersection: those take the
    Koszul complex on the generators, with no walk), and on the grid-2x2
    full window (9 variables).  betti_numbers walks the blocks of the semigroup
    core alone, in the degrees up to its size, so the reference's blocks
    are enumerated on the core's points: every block betti_numbers walks has the reference's face counts
    up to the size it walks the block to, every block it counts without a
    walk is a whole simplex in the reference, every block it skips as a
    simplex or a cone has zero reference homology below its top size (past
    the walked size by the projective dimension bound), and it walks no
    other block.  The tables equal the reference's over every variable, at
    32003 and 65537.  Reference homology is cached by face set, since blocks
    repeat.
    """
    import koszul_reference as ref

    import hibilab.betti as betti_mod
    from hibilab.reports import full_grid

    exact = betti_mod._block_faces
    visited = {}

    def record(images, b, mask, j, levels, max_size):
        counts, faces = exact(images, b, mask, j, levels, max_size)
        visited[j, b] = counts, faces, max_size  # the packing leaves the degree out
        return counts, faces

    monkeypatch.setattr(betti_mod, "_block_faces", record)
    fields = (32003, 65537)
    ideals = [window_ideal(lat, w) for _, lat in corpus for w in all_windows(lat)]
    ideals = [ideal for ideal in ideals if ideal.ring.nvars <= 7 and ideal.generators]
    ideals = [ideal for ideal in ideals if not ref.complete_intersection(ideal)]
    ideals.append(window_ideal(full_grid(2, 2), (0, 4)))
    assert len(ideals) == 24
    homology = {}
    skipped = kept = simplices = peeled = 0
    for ideal in ideals:
        ring = ideal.ring
        visited.clear()
        tables = {
            field: betti_mod.betti_numbers(ideal, field=field, var_cap=None)
            for field in fields
        }
        core = WindowRing(ring.m, ring.n, ring.window, tuple(ring.points[v] for v in ring.semigroup.core))
        peeled += core.nvars < ring.nvars

        def blocks(walked):
            """(j, b, faces, homology by field) for each reference block on
            walked's points, in the degrees 2..|walked's points|."""
            levels = ref.semigroup_levels(walked, walked.nvars)
            for j in range(2, walked.nvars + 1):
                for b in levels[j]:
                    faces = ref.block_faces(walked, b, j, levels, j)
                    key = tuple(map(tuple, faces.values()))
                    for field in fields:
                        if (key, field) not in homology:
                            homology[key, field] = ref.reduced_homology(faces, field)
                    yield j, b, faces, {field: homology[key, field] for field in fields}

        expected = {field: {} for field in fields}
        for j, _, _, hom in blocks(ring):
            for field in fields:
                for i in range(j - 1):
                    if hom[field].get(i + 1):
                        expected[field][i, j] = expected[field].get((i, j), 0) + hom[field][i + 1]
        for j, b, faces, hom in blocks(core):
            key = (j, ref.semigroup_pack(ring, b))
            if key in visited:
                counts, kept_faces, max_size = visited.pop(key)
                assert counts == [len(faces[s]) for s in sorted(faces) if s <= max_size], (
                    ring.window, b)
            else:  # counted as a whole simplex, with no walk
                k, kept_faces = len(faces[1]), None
                assert [len(faces[s]) for s in sorted(faces)] == [
                    comb(k, s) for s in range(k + 1)], (ring.window, b)
                simplices += 1
            if kept_faces is None:
                for field in fields:
                    assert not any(hom[field].get(s) for s in range(j)), (ring.window, b, field)
            skipped += kept_faces is None
            kept += kept_faces is not None
        assert not visited, ring.window  # every walked block is a block of the reference
        for field in fields:
            assert tables[field].entries == expected[field], (ring.window, field)
    assert skipped > simplices > 0 and kept > 0
    assert peeled == 20, peeled
    CASES["packed-kernel-vs-tuple"] = len(ideals)


def test_pd_bounded_tables_match_unbounded_walk(corpus):
    """Gate for the walk bounded by the projective dimension, with its Euler check.

    koszul_reference.betti_table walks every block up to faces of j
    variables over every variable, as the table did before the bound and
    the semigroup core.  On every seed-7 and seed-11 window with at most 7
    variables and on every demo staircase window with at most 9,
    betti_numbers gives its table at 32003 and 65537.  Most windows with a
    generator have peeled points, which the walk leaves out; their number
    is pinned, so that the gate keeps them.
    """
    import koszul_reference as ref

    from hibilab.betti import betti_numbers
    from hibilab.reports import CorpusSpec, demo_staircase, generate_corpus

    seed11 = generate_corpus(CorpusSpec(seed=11, count=40, max_m=5, max_n=4))
    cases = [(lat, 7) for _, lat in corpus + seed11] + [(demo_staircase(), 9)]
    checked = with_gens = peeled = 0
    for lat, max_vars in cases:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            ring = ideal.ring
            if ring.nvars > max_vars:
                continue
            for field in (32003, 65537):
                want = ref.betti_table(ring, ideal.generators, field)
                got = betti_numbers(ideal, field=field, var_cap=None).entries
                assert got == want, (ring.points, w, field)
            checked += 1
            with_gens += bool(ideal.generators)
            peeled += bool(ideal.generators) and ring.semigroup.free > 0
    assert checked == 447 + 501 + 19, checked
    assert (with_gens, peeled) == (271, 242), (with_gens, peeled)
    CASES["pd-bounded-vs-unbounded-walk"] = checked


def test_mask_walk_matches_candidate_scan(corpus):
    """Gate for the predecessor-mask block walk against the kernel it replaced.

    koszul_reference.packed_block_faces tries every candidate vertex with a
    subtraction and a level lookup and counts the faces again for the cone
    test.  On every seed-7 window with at most 8 variables and a generator,
    at every degree 2 <= j <= nvars, with faces up to j and up to 3
    variables, and at every b in L_j, both kernels give the same face
    counts, the same verdict (simplex or cone, else the faces) and the same
    faces per size.  The mask walk runs on the semigroup's packing, and the
    reference on its own (koszul_reference.Packing).
    """
    import koszul_reference as ref
    from hibilab.betti import _block_faces, _semigroup_levels

    windows = blocks = ranked = 0
    for name, lat in corpus:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            ring = ideal.ring
            if ring.nvars > 8 or not ideal.generators:
                continue
            levels = _semigroup_levels(ring.semigroup, range(ring.nvars), ring.nvars)
            images = ring.semigroup.images
            packing = ref.Packing(ring, ring.nvars)
            ref_levels = ref.packed_levels(packing, ring.nvars)
            for j in range(2, ring.nvars + 1):
                for max_size in {j, 3}:
                    for b, mask in levels[j].items():
                        got = _block_faces(images, b, mask, j, levels, max_size)
                        old = packing.pack(ref.semigroup_vector(ring, b, j))
                        expected = ref.packed_block_faces(packing, old, j, ref_levels, max_size)
                        assert got == expected, (name, w, j, max_size, b)
                        ranked += got[1] is not None
                    blocks += len(levels[j])
            windows += 1
    assert 0 < ranked < blocks, (ranked, blocks)
    CASES["mask-walk-vs-candidate-scan"] = windows


@pytest.fixture(scope="module")
def linrel_blocks(corpus):
    """The induced-2K2 blocks of every seed-7 window the linear-relatedness oracle answers on.

    Those are the windows with at most 30 variables, a generator and a
    quadratic squarefree basis (WindowIdeal.quadratic_gb); a lead graph with no
    induced 2K2 gives no block.  Each record holds the window, its ring, its
    WindowIdeal, basis and lead graph, and per 2K2 multidegree (rows, columns): h1, the
    pairing supports, the level walk's faces of at most 3 and of at most 4
    variables (koszul_reference.level_2k2_blocks), and, per field, the
    whole block's reduced homology by elimination.
    """
    import koszul_reference as ref
    from hibilab.betti import (
        _2k2_multidegrees,
        _induced_2k2,
        _lead_graph,
        _pairing_supports,
    )
    from hibilab.errors import PreconditionFailed

    records = []
    for name, lat in corpus:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            ring = ideal.ring
            if ring.nvars > 30 or ideal.is_zero:
                continue
            try:
                gb = ideal.quadratic_gb
            except PreconditionFailed:
                continue
            adj = _lead_graph(gb.lead_supports, ring.nvars)
            counts = _2k2_multidegrees(ring.points, _induced_2k2(adj))
            walks = {size: ref.level_2k2_blocks(ring, counts, size) for size in (3, 4) if counts}
            blocks = {}
            for key, h1 in counts.items():
                whole = walks[4][key]
                homology = {
                    field: ref.eliminated_homology(whole, field) if whole else {}
                    for field in (32003, 65537)
                }
                blocks[key] = (h1, _pairing_supports(ring.index, *key), walks[3][key], homology)
            records.append(((name, w), ring, ideal, gb, adj, blocks))
    return records


def test_pairing_faces_match_level_walk(linrel_blocks):
    """Gate for the 2K2 blocks read off row-column pairings.

    At every induced-2K2 multidegree of the windows of linrel_blocks, the
    faces of at most 3 variables that _pairing_faces gives are the faces of
    the level walk of koszul_reference, size by size.  No such block is a
    simplex or a cone.
    """
    from hibilab.betti import _pairing_faces

    blocks = 0
    for where, _, _, _, _, window_blocks in linrel_blocks:
        for key, (_, supports, walked, _) in window_blocks.items():
            assert walked is not None, (where, key)
            faces = _pairing_faces(supports)
            for s in range(4):
                assert sorted(faces[s]) == sorted(walked.get(s, ())), (where, key, s)
            blocks += 1
    assert blocks > 0
    CASES["pairing-faces-vs-level-walk"] = blocks


def test_euler_settle_matches_block_homology(linrel_blocks):
    """Gate for the Euler settle of is_linearly_related_oracle.

    At every induced-2K2 multidegree b of the windows of linrel_blocks, at
    32003 and 65537, the whole block's H~_1 - H~_2 by elimination, that is
    beta_{1,b}(I) - beta_{2,b}(I), equals h1 - h2; and wherever h1 > h2,
    the block's H~_1 is at least h1 - h2.
    """
    from hibilab.betti import _hochster_h2

    blocks = settled = 0
    for where, _, _, _, adj, window_blocks in linrel_blocks:
        for key, (h1, supports, _, homology) in window_blocks.items():
            h2 = _hochster_h2(adj, supports)
            for field, hom in homology.items():
                assert hom.get(2, 0) - hom.get(3, 0) == h1 - h2, (where, key, field)
                if h1 > h2:
                    assert hom.get(2, 0) >= h1 - h2, (where, key, field)
            blocks += 1
            settled += h1 > h2
    assert 0 < settled < blocks, (settled, blocks)
    CASES["euler-settle-vs-elimination"] = blocks


@pytest.fixture(scope="module")
def ranked_blocks(corpus, linrel_blocks):
    """The faces of every block reduced_homology ranks on the seed-7 windows.

    "full": the non-cone blocks of the mask walk over every variable of
    the windows with at most 7 variables and a generator; "2k2": the pairing
    faces of every block of linrel_blocks, with the whole block's homology
    by elimination per field.
    """
    from hibilab.betti import _block_faces, _pairing_faces, _semigroup_levels

    blocks = {"full": [], "2k2": []}
    for _, lat in corpus:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            ring = ideal.ring
            if ring.nvars > 7 or not ideal.generators:
                continue
            levels = _semigroup_levels(ring.semigroup, range(ring.nvars), ring.nvars)
            for j in range(2, ring.nvars + 1):
                for b, mask in levels[j].items():
                    faces = _block_faces(ring.semigroup.images, b, mask, j, levels, j)[1]
                    if faces is not None:
                        blocks["full"].append((faces, None))
    for *_, window_blocks in linrel_blocks:
        blocks["2k2"] += [
            (_pairing_faces(supports), homology)
            for _, supports, _, homology in window_blocks.values()
        ]
    return blocks


def test_edge_rank_matches_elimination(ranked_blocks):
    """Gate for the union-find rank of the edge boundary in reduced_homology.

    The spanning forest's size (#vertices - #components) must equal the
    rank by elimination mod p, at 32003 and 65537, on every non-cone block
    of the walk over every variable of the seed-7 windows with at most 7
    variables, and on
    every induced-2K2 block that is_linearly_related_oracle would rank on
    the seed-7 windows with at most 30 variables.
    """
    from hibilab.betti import _boundary_rank, _spanning_forest

    checked = {"full": 0, "2k2": 0}
    for kind, blocks in ranked_blocks.items():
        for faces, _ in blocks:
            edges = faces.get(2, [])
            index = {face: k for k, face in enumerate(faces[1])}
            rank = len(_spanning_forest(edges))
            for field in (32003, 65537):
                assert rank == _boundary_rank(edges, index, field), (kind, faces)
            checked[kind] += 1
    assert all(checked.values()), checked
    CASES["edge-rank-vs-elimination"] = sum(checked.values())


def test_triangle_rank_off_forest_matches_elimination(ranked_blocks):
    """Gate for ranking the triangle boundary over the edges off a spanning forest.

    On the blocks of test_edge_rank_matches_elimination, at 32003 and
    65537, reduced_homology equals koszul_reference.eliminated_homology,
    which ranks every boundary by elimination over all faces one size
    smaller.  A 2K2 block's faces stop at 3 variables, so there its H~_1
    and below are compared with the whole block's, by elimination.
    """
    import koszul_reference as ref
    from hibilab.betti import reduced_homology

    checked = with_triangles = 0
    for kind, blocks in ranked_blocks.items():
        for faces, whole in blocks:
            for field in (32003, 65537):
                got = reduced_homology(faces, field)
                if whole is None:
                    assert got == ref.eliminated_homology(faces, field), (kind, faces, field)
                else:
                    for s in range(3):
                        assert got[s] == whole[field].get(s, 0), (kind, faces, field, s)
            checked += 1
            with_triangles += bool(faces.get(3))
    assert with_triangles > 0
    CASES["forest-triangle-rank-vs-elimination"] = checked


def test_linear_relatedness_oracle_matches_level_reference(corpus, linrel_blocks):
    """Gate for is_linearly_related_oracle against the level route with full elimination.

    On every window of linrel_blocks, at 32003 and 65537, the oracle
    answers True exactly when every induced-2K2 block of the level walk has
    no H~_1 by elimination: on the window's ideal, and, where its
    rank-revlex basis is not quadratic and squarefree, on that ideal too,
    whose basis the oracle replaces by the order search's.
    """
    from hibilab.betti import is_linearly_related_oracle

    lattices = dict(corpus)
    related = unrelated = searched = 0
    for (name, w), _, ideal, _, _, window_blocks in linrel_blocks:
        cubic = window_ideal(lattices[name], w, "rank-revlex")
        ideals = [ideal]
        if not (cubic.gb.quadratic and cubic.gb.squarefree):
            ideals.append(cubic)
            searched += 1
        for field in (32003, 65537):
            want = not any(homology[field].get(2) for *_, homology in window_blocks.values())
            for given in ideals:
                got = is_linearly_related_oracle(given, field=field, var_cap=30)
                assert got == want, (name, w, field)
            related += want
            unrelated += not want
    assert related > 0 and unrelated > 0 and searched > 0
    CASES["linrel-oracle-vs-level-reference"] = len(linrel_blocks)


def test_gluing_is_sound_on_random_families_of_simplices():
    """Gate for the gluing test of is_linearly_related_oracle.

    On seeded random families of supports of 1 to 4 variables drawn from at
    most 10 vertices, _glues accepts only families whose complex, the union
    of the full simplices on the supports, has H~_0 = H~_1 = 0 by
    reduced_homology at 32003 and at 65537.  Both kinds of refusal occur:
    families with a cycle (H~_1 > 0) and disconnected ones (H~_0 > 0).
    """
    from hibilab.betti import _glues, _pairing_faces, reduced_homology

    rng = random.Random(4317)
    accepted = cyclic = disconnected = 0
    for _ in range(3000):
        nverts = rng.randint(2, 10)
        supports = {
            sum(1 << v for v in rng.sample(range(nverts), rng.randint(1, min(4, nverts))))
            for _ in range(rng.randint(1, 8))
        }
        homology = {
            field: reduced_homology(_pairing_faces(supports), field) for field in (32003, 65537)
        }
        h0, h1 = (max(hom.get(s, 0) for hom in homology.values()) for s in (1, 2))
        if _glues(supports):
            assert h0 == h1 == 0, supports
            accepted += 1
        cyclic += h1 > 0
        disconnected += h0 > 0
    assert accepted and cyclic and disconnected, (accepted, cyclic, disconnected)
    CASES["gluing-soundness"] = 3000


def test_linear_relatedness_oracle_matches_the_ranked_reference(corpus):
    """Gate for the gluing test against the route that ranks every block.

    is_linearly_related_oracle equals koszul_reference.ranked_linearly_related
    (the Euler settle, then a rank mod p for every other block) at var_cap=30,
    at 32003 and 65537, on every window of the seed-7 and seed-11 corpora
    and of the 3x3 box (box_lattices): the same answer, or the same error
    for a window over the cap or with no quadratic squarefree basis.
    """
    import koszul_reference as ref
    from box_lattices import box_lattices
    from hibilab.betti import is_linearly_related_oracle
    from hibilab.errors import HibiLabError

    def answer(oracle, ideal, field):
        try:
            return oracle(ideal, field=field, var_cap=30)
        except HibiLabError as err:
            return type(err)

    seed11 = generate_corpus(CorpusSpec(seed=11, count=40, max_m=5, max_n=4))
    lattices = [lat for _, lat in corpus + seed11] + box_lattices(3, 3)
    windows = related = unrelated = 0
    for lat in lattices:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            for field in (32003, 65537):
                want = answer(ref.ranked_linearly_related, ideal, field)
                assert answer(is_linearly_related_oracle, ideal, field) == want, (lat.points, w)
                related += want is True
                unrelated += want is False
            windows += 1
    assert related and unrelated, (related, unrelated)
    CASES["linrel-oracle-vs-ranked-reference"] = windows


def test_standard_monomials_match_the_degree_filter(corpus):
    """Gate for the lead-side count's enumeration route, _standard_counts
    given no supports, which the fiber oracle and hilbert_function take for
    leads that are not squarefree.

    fiber_reference.standard_monomials is the route it replaced: every dense
    monomial of each degree, kept when no lead divides it.  The counts agree
    in degrees 1..d_max on every seed-7 window with at most 9 variables at
    d_max 0, 1, 3 and 4, from the basis's leads as _fiber_terms packs them,
    where hilbert_function answers the filter's counts too, and on random
    lead sets with squares, higher powers, leads above d_max and the
    constant lead.
    """
    from fiber_reference import standard_monomials
    from hibilab.betti import hilbert_function
    from hibilab.binomials import _fiber_terms, _standard_counts

    def units(nvars, d_max):  # the fields of d_max
        return [1 << (d_max.bit_length() + 1) * k for k in range(nvars)]

    def counted(terms, nvars, d_max):  # degrees 1..d_max
        return list(islice(_standard_counts(None, terms, nvars, d_max), d_max))

    windows = 0
    for _, lat in corpus:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            nvars, leads = ideal.ring.nvars, [g.lead for g in ideal.gb.basis]
            if nvars > 9:
                continue
            for d_max in (0, 1, 3, 4):
                want = list(map(len, standard_monomials(leads, nvars, d_max)))
                terms = _fiber_terms(ideal.gb, ideal.ring, units(nvars, d_max))
                assert counted(terms, nvars, d_max) == want[1:], (w, d_max)
                assert hilbert_function(ideal, d_max) == want, (w, d_max)
            windows += 1
    rng = random.Random(2207)
    squares = 0
    for _ in range(300):
        nvars = rng.randint(1, 5)
        leads = [tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(nvars))
                 for _ in range(rng.randint(0, 4))]
        d_max = rng.randint(0, 5)
        want = list(map(len, standard_monomials(leads, nvars, d_max)))
        terms = [(sum(lead), sum(map(mul, lead, units(nvars, d_max))), 0, True) for lead in leads]
        assert counted(terms, nvars, d_max) == want[1:], (leads, d_max)
        squares += any(e > 1 for lead in leads for e in lead)
    assert windows == 543 and squares > 200, (windows, squares)
    CASES["standard-monomials-vs-degree-filter"] = windows + 300


def test_case_total_meets_budget():
    assert sum(CASES.values()) >= 1000, CASES


# ---------------------------------------------------------------------------
# value-level order laws, hypothesis-driven

_RING = ring_for_window(
    poset_ideals_to_planar(Poset("abcd", [("a", "b"), ("c", "d")])), (0, 4)
)
_EXPS = st.tuples(*[st.integers(min_value=0, max_value=4)] * _RING.nvars)


@settings(max_examples=120, derandomize=True)
@given(a=_EXPS, b=_EXPS, c=_EXPS)
def test_orders_are_total_and_multiplicative(a, b, c):
    for kind in ("rank-lex", "rank-revlex", "lex", "revlex"):
        order = monomial_order(kind, _RING)
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        if ka > kb:
            assert order.key(mono_mul(a, c)) > order.key(mono_mul(b, c))


@settings(max_examples=120, derandomize=True)
@given(a=_EXPS)
def test_orders_refine_degree(a):
    one = tuple([0] * _RING.nvars)
    for kind in ("rank-lex", "rank-revlex", "lex", "revlex"):
        order = monomial_order(kind, _RING)
        if a != one:
            assert order.key(a) > order.key(one)


@settings(max_examples=80, derandomize=True)
@given(a=_EXPS, b=_EXPS)
def test_binomial_normalization(a, b):
    order = monomial_order("rank-lex", _RING)
    binom = make_binomial(a, b, order)
    if a == b:
        assert binom is None
    else:
        assert order.key(binom.lead) > order.key(binom.trail)
