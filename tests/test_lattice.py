import random
import warnings
from collections import Counter

import lattice_reference as ref
import pytest
from box_lattices import box_lattices

from hibilab.errors import (
    ChainConditionFails,
    LatticeInvalid,
    LatticeNormalization,
    MissingOrigin,
    NotJoinClosed,
    NotMeetClosed,
    WidthExceedsTwo,
)
from hibilab.lattice import (
    Poset,
    chain_partition,
    is_simple,
    join_irreducibles,
    poset_ideals_to_planar,
    posets_isomorphic,
    validate_planar_lattice,
)
from hibilab.reports import _random_width2_poset, demo_staircase, ell_lattice, full_grid


def grid_points(m, n):
    return {(i, j) for i in range(m + 1) for j in range(n + 1)}


class TestValidation:
    def test_staircase_box_and_rank(self):
        lat = demo_staircase()
        assert (lat.m, lat.n) == (5, 4)
        assert lat.rank == 9
        assert len(lat.points) == 23

    def test_full_grid_valid(self):
        lat = validate_planar_lattice(grid_points(3, 2))
        assert lat.rank == 5
        assert len(lat.points) == 12

    def test_join_closure_witness(self):
        with pytest.raises(NotJoinClosed) as err:
            validate_planar_lattice({(0, 0), (1, 0), (0, 1)})
        assert err.value.details["witness"] == ((0, 1), (1, 0))

    def test_meet_closure_witness(self):
        with pytest.raises(NotMeetClosed) as err:
            validate_planar_lattice({(0, 0), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)})
        assert err.value.details["witness"] == ((1, 2), (2, 1))

    def test_missing_origin(self):
        with pytest.raises(MissingOrigin):
            validate_planar_lattice({(1, 0), (0, 1), (1, 1)})

    def test_chain_condition_witness(self):
        # (0,0) < (1,1) with no unit-rank step through (1,0) or (0,1)
        with pytest.raises(ChainConditionFails) as err:
            validate_planar_lattice({(0, 0), (1, 1)})
        assert err.value.details["witness"] == ((0, 0), (1, 1))

    def test_reanchoring_warns(self):
        with pytest.warns(LatticeNormalization):
            lat = validate_planar_lattice({(1, 1), (2, 1), (1, 2), (2, 2)})
        assert (0, 0) in lat.points
        assert (lat.m, lat.n) == (1, 1)

    def test_negative_coordinates_rejected(self):
        with pytest.raises(LatticeInvalid):
            validate_planar_lattice({(0, 0), (-1, 0)})

    def test_empty_rejected(self):
        with pytest.raises(MissingOrigin):
            validate_planar_lattice(set())

    @pytest.mark.parametrize("points", [
        [(0, 0, 0)], [("a", 0)], [(False, False), (True, False)], [(0.0, 0.0), (1.0, 0.0)], [0],
    ])
    def test_points_that_are_not_pairs_of_ints_rejected(self, points):
        with pytest.raises(LatticeInvalid) as err:
            validate_planar_lattice(points)
        assert type(err.value) is LatticeInvalid
        assert str(err.value) == "points must be pairs of ints"

    def test_sparse_coordinates_take_no_box_sized_work(self):
        # a mask as wide as the span of j would be 10**9 bits
        with pytest.raises(ChainConditionFails) as err:
            validate_planar_lattice({(0, 0), (0, 10**9)})
        assert err.value.details["witness"] == ((0, 0), (0, 10**9))
        assert str(err.value) == "no saturated chain from (0, 0) to (0, 1000000000)"


def _outcome(validate, pts):
    """The lattice or the error's class, message and details, with the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = validate(pts)
        except LatticeInvalid as exc:
            result = type(exc), str(exc), exc.details
    return result, [str(w.message) for w in caught]


class TestAgainstTheReference:
    """The row rule of validate_planar_lattice and the span rule of
    poset_ideals_to_planar against the all-pairs references."""

    def test_random_point_sets_raise_as_the_pair_scan_does(self):
        rng = random.Random(16)
        seen = Counter()
        for _ in range(6000):
            m, n, density = rng.randint(0, 6), rng.randint(0, 6), rng.random()
            pts = {(i, j) for i in range(m + 1) for j in range(n + 1) if rng.random() < density}
            if rng.random() < 0.5:
                pts.add((0, 0))
            if rng.random() < 0.25:
                di, dj = rng.randint(0, 3), rng.randint(0, 3)
                pts = {(i + di, j + dj) for i, j in pts}
            got = _outcome(validate_planar_lattice, pts)
            assert got == _outcome(ref.validate, pts), sorted(pts)
            seen[got[0][0] if isinstance(got[0], tuple) else "accepted"] += 1
        assert set(seen) == {
            "accepted", MissingOrigin, NotMeetClosed, NotJoinClosed, ChainConditionFails}, seen
        assert min(seen.values()) > 300, seen

    def test_every_lattice_of_the_4x4_box_accepted_unchanged(self):
        lattices = box_lattices(4, 4)
        assert len(lattices) == 3323
        for lat in lattices:
            assert validate_planar_lattice(lat.points) == lat

    def test_span_map_equals_the_ideal_enumeration(self):
        rng = random.Random(16)
        posets = [_random_width2_poset(rng, 6, 6) for _ in range(200)]
        posets += [join_irreducibles(lat) for lat in box_lattices(3, 3)]
        for poset in posets:
            assert poset_ideals_to_planar(poset).points == ref.ideal_points(poset), poset.elements


class TestSimplicity:
    def test_full_grid_simple(self):
        assert is_simple(full_grid(2, 2)).simple

    def test_chain_not_simple(self):
        lat = validate_planar_lattice({(0, 0), (1, 0), (1, 1)})
        rep = is_simple(lat)
        assert not rep.simple
        assert rep.violating_ranks == (1,)

    def test_staircase_simple(self):
        rep = is_simple(demo_staircase())
        assert rep.simple and rep.violating_ranks == ()


class TestJoinIrreducibles:
    def test_square(self):
        ji = join_irreducibles(full_grid(1, 1))
        assert set(ji.elements) == {(1, 0), (0, 1)}
        assert ji.incomparable((1, 0), (0, 1))

    def test_chain(self):
        lat = validate_planar_lattice({(i, 0) for i in range(4)})
        ji = join_irreducibles(lat)
        assert len(ji) == 3
        assert ji.is_chain()

    def test_ell_gives_cross_linked_pair(self):
        ji = join_irreducibles(ell_lattice())
        assert set(ji.elements) == {(1, 0), (0, 1), (0, 2), (2, 1)}
        assert ji.less((1, 0), (2, 1))
        assert ji.less((0, 1), (0, 2))
        assert ji.less((0, 1), (2, 1))
        assert ji.incomparable((1, 0), (0, 2))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (5, 4)])
    def test_count_equals_rank_on_grids(self, m, n):
        lat = full_grid(m, n)
        assert len(join_irreducibles(lat)) == lat.rank

    def test_count_equals_rank_on_staircase(self):
        lat = demo_staircase()
        assert len(join_irreducibles(lat)) == lat.rank

    def test_suite_record_counts_them_directly(self, corpus):
        from hibilab.reports import lattice_record

        for name, lat in corpus:
            assert lattice_record(lat)["join_irreducibles"] == len(join_irreducibles(lat)), name


class TestLatticeTables:
    def test_built_on_first_read_and_not_in_validation(self):
        lat = validate_planar_lattice(demo_staircase().points)
        tables = ("sorted_points", "rank_starts", "row_masks", "summary")
        assert not set(tables) & set(vars(lat))
        assert lat.row_masks == (0b111, 0b1111, 0b11111, 0b11111, 0b11100, 0b11100)
        starts = lat.rank_starts
        assert starts[0] == 0 and starts[-1] == len(lat)
        for r in range(lat.rank + 1):
            assert {i + j for i, j in lat.sorted_points[starts[r]:starts[r + 1]]} == {r}
        assert lat.summary is lat.summary
        assert set(tables) <= set(vars(lat))

    def test_reports_share_no_mutable_lattice_section(self):
        from hibilab.reports import lattice_record, run_suite

        lat = demo_staircase()
        first, second = (run_suite(lat, windows=[(3, 7)]).stable["lattice"] for _ in range(2))
        assert first == second == lattice_record(lat)
        first["points"][0].append(99)
        first["violating_ranks"].append(99)
        assert second == lattice_record(lat) and second["points"][0] == [0, 0]
        assert second["violating_ranks"] == []


class TestBirkhoff:
    def test_chain_plus_point(self):
        p = Poset(["a", "b", "c", "x"], [("a", "b"), ("b", "c")])
        lat = poset_ideals_to_planar(p)
        assert lat.points == full_grid(3, 1).points

    def test_cross_linked_pair(self):
        p = Poset(["p1", "p2", "q1", "q2"], [("p1", "p2"), ("q1", "q2"), ("q1", "p2")])
        lat = poset_ideals_to_planar(p)
        ell = ell_lattice()
        assert lat.points in (ell.points, ell.transpose().points)

    def test_three_antichain_rejected(self):
        with pytest.raises(WidthExceedsTwo) as err:
            poset_ideals_to_planar(Poset(["a", "b", "c"], []))
        assert len(err.value.details["antichain"]) == 3

    def test_single_chain(self):
        p = Poset([1, 2, 3], [(1, 2), (2, 3)])
        lat = poset_ideals_to_planar(p)
        assert len(lat.points) == 4
        assert lat.n == 0

    def test_partition_handles_bad_greedy_tiebreak(self):
        # the lexicographically first longest chain (a, d) has an antichain
        # complement; the cover must still be found
        p = Poset(["a", "b", "c", "d"], [("a", "d"), ("c", "d"), ("c", "b")])
        c1, c2 = chain_partition(p)
        assert sorted(map(len, (c1, c2))) == [2, 2]
        assert poset_ideals_to_planar(p) is not None


class TestIsomorphism:
    def test_reflexive(self):
        p = Poset("abc", [("a", "b")])
        assert posets_isomorphic(p, p)

    def test_relabelled(self):
        p = Poset("ab", [("a", "b")])
        q = Poset("xy", [("y", "x")])
        assert posets_isomorphic(p, q)

    def test_distinguishes(self):
        p = Poset("abc", [("a", "b"), ("b", "c")])
        q = Poset("abc", [("a", "b")])
        assert not posets_isomorphic(p, q)

    def test_cross_linked_orientations_isomorphic(self):
        a = Poset("abcd", [("a", "b"), ("c", "d"), ("c", "b")])
        b = Poset("abcd", [("a", "b"), ("c", "d"), ("a", "d")])
        assert posets_isomorphic(a, b)


def test_round_trip_on_named_lattices():
    for lat in (demo_staircase(), ell_lattice(), full_grid(2, 3), full_grid(1, 1)):
        ji = join_irreducibles(lat)
        back = poset_ideals_to_planar(ji)
        assert back.points in (lat.points, lat.transpose().points) or posets_isomorphic(
            _lattice_poset(back), _lattice_poset(lat)
        )


def _lattice_poset(lat):
    pts = sorted(lat.points)
    rels = [(a, b) for a in pts for b in pts if a != b and a[0] <= b[0] and a[1] <= b[1]]
    return Poset(pts, rels)
