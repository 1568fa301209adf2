import pytest

from hibilab.classify import (
    all_proper_windows_linear,
    classify_window,
    enumerate_linrel_windows,
    has_linear_resolution_shape,
    is_linearly_related_lattice,
    is_linearly_related_polyomino,
    shape_profile,
    verify_window,
)
from hibilab.errors import Disconnected, InvalidParameter, PreconditionFailed, RankTooSmall
from hibilab.lattice import validate_planar_lattice
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from hibilab.windows import Polyomino, all_windows, generators, polyomino


def rect_cells(m, n):
    return {(i, j) for i in range(m) for j in range(n)}


class TestShapeProfile:
    def test_full_rectangle(self):
        prof = shape_profile(Polyomino.from_cells(rect_cells(3, 2)))
        assert (prof.m, prof.n) == (3, 2)
        assert prof.staircase
        assert all(prof.corners_present)

    def test_gamma_shape_missing_far_corner(self):
        poly = polyomino(full_grid(2, 2), (0, 3))
        prof = shape_profile(poly)
        assert prof.corners_present == (True, True, True, False)
        assert prof.staircase

    def test_empty_polyomino_is_a_typed_error(self):
        with pytest.raises(InvalidParameter):
            shape_profile(Polyomino.from_cells(()))

    def test_translated_vertices_normalized(self):
        poly = polyomino(demo_staircase(), (3, 7))
        prof = shape_profile(poly)
        assert (prof.m, prof.n) == (3, 3)


class TestLinearResolutionShape:
    def test_single_cell(self):
        assert has_linear_resolution_shape(polyomino(ell_lattice(), (1, 3))) is True

    def test_staircase_window_false(self):
        assert has_linear_resolution_shape(polyomino(demo_staircase(), (3, 7))) is False

    def test_disconnected_undecided(self):
        assert has_linear_resolution_shape(polyomino(full_grid(2, 2), (1, 3))) is None

    def test_row_and_column(self):
        assert has_linear_resolution_shape(Polyomino.from_cells(rect_cells(4, 1))) is True
        assert has_linear_resolution_shape(Polyomino.from_cells(rect_cells(1, 3))) is True

    def test_empty(self):
        assert has_linear_resolution_shape(Polyomino.from_cells(set())) is True


class TestLinrelPolyomino:
    def test_full_rectangle_true(self):
        assert is_linearly_related_polyomino(Polyomino.from_cells(rect_cells(3, 2)))

    def test_opposite_corners_missing_false(self):
        poly = polyomino(full_grid(2, 2), (1, 3))
        with pytest.raises(Disconnected):
            is_linearly_related_polyomino(poly)

    def test_staircase_band_opposite_missing(self):
        # ranks 1..4 of the 3x3-point grid: both extreme corners absent
        poly = polyomino(full_grid(3, 3), (1, 5))
        assert poly.connected
        assert not is_linearly_related_polyomino(poly)

    def test_one_missing_corner_true(self):
        poly = polyomino(full_grid(2, 2), (0, 3))
        assert is_linearly_related_polyomino(poly)

    def test_near_corner_missing_true(self):
        # cells {(1,0),(0,1),(1,1)}: missing corner (0,0) only
        poly = polyomino(full_grid(2, 2), (1, 4))
        assert poly.cells == {(1, 0), (0, 1), (1, 1)}
        assert is_linearly_related_polyomino(poly)

    def test_three_missing_notch_conditions_hold(self):
        # 3x3 box, present corner (0,0); bottom row ends at m-1 and the right
        # column top equals the left column top
        cells = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}
        poly = Polyomino.from_cells(cells)
        prof = shape_profile(poly)
        assert prof.corners_present == (True, False, False, False)
        assert is_linearly_related_polyomino(poly)

    def test_three_missing_notch_conditions_fail(self):
        # same but the left column stops lower, breaking both inequalities
        cells = {(0, 0), (1, 0), (1, 1), (2, 1), (1, 2)}
        poly = Polyomino.from_cells(cells)
        prof = shape_profile(poly)
        assert prof.corners_present == (True, False, False, False)
        assert not is_linearly_related_polyomino(poly)

    def test_staircase_window_shape(self):
        poly = polyomino(demo_staircase(), (3, 7))
        assert not is_linearly_related_polyomino(poly)

    def test_accepts_precomputed_profile(self):
        poly = polyomino(full_grid(2, 2), (0, 3))
        assert is_linearly_related_polyomino(poly) is True


class TestLinrelLattice:
    def test_full_grids_true(self):
        assert is_linearly_related_lattice(full_grid(2, 2))
        assert is_linearly_related_lattice(full_grid(5, 4))

    def test_missing_both_far_corners_false(self):
        pts = {(i, j) for i in range(3) for j in range(3)} - {(2, 0), (0, 2)}
        lat = validate_planar_lattice(pts)
        assert not is_linearly_related_lattice(lat)

    def test_one_missing_corner_true(self):
        assert is_linearly_related_lattice(ell_lattice())

    def test_inner_point_required(self):
        # (1, n-1) = (1, 2) removed breaks the criterion on a 3x3 box
        pts = {(i, j) for i in range(4) for j in range(4)} - {(0, 3), (0, 2), (1, 3), (1, 2)}
        lat = validate_planar_lattice(pts)
        assert (1, lat.n - 1) not in lat.points
        assert not is_linearly_related_lattice(lat)

    def test_small_box_rejected(self):
        with pytest.raises(RankTooSmall):
            is_linearly_related_lattice(full_grid(3, 1))


class TestEnumerate:
    def test_grid_2x2(self):
        wins = enumerate_linrel_windows(full_grid(2, 2))
        assert [(w.p, w.q) for w in wins] == [(0, 2), (0, 3), (0, 4), (1, 4), (2, 4)]

    def test_grid_5x4(self):
        wins = enumerate_linrel_windows(full_grid(5, 4))
        assert [(w.p, w.q) for w in wins] == [(0, 7), (0, 8), (0, 9), (1, 9), (2, 9)]

    def test_internal_window_excluded_and_oracle_agrees(self):
        from hibilab.betti import is_linearly_related_oracle
        from hibilab.binomials import window_ideal

        lat = full_grid(2, 2)
        wins = {(w.p, w.q) for w in enumerate_linrel_windows(lat)}
        assert (1, 3) not in wins
        ideal = window_ideal(lat, (1, 3))
        assert not is_linearly_related_oracle(ideal.ring, ideal.generators)

    def test_missing_corner_gates(self):
        # ell 3x3 misses (2,0); transpose form misses (0,2)
        lat = ell_lattice(transposed=True)
        wins = {(w.p, w.q) for w in enumerate_linrel_windows(lat)}
        assert (0, 4) in wins and (1, 3) in wins

    def test_precondition(self):
        pts = {(i, j) for i in range(3) for j in range(3)} - {(2, 0), (0, 2)}
        with pytest.raises(PreconditionFailed):
            enumerate_linrel_windows(validate_planar_lattice(pts))


class TestClassifyWindow:
    def test_principal_window(self):
        v = classify_window(full_grid(2, 2), (2, 4))
        assert v.linear_resolution and v.linearly_related
        assert v.linear_basis == "degenerate"

    def test_koszul_pair_window(self):
        v = classify_window(full_grid(2, 2), (1, 3))
        assert not v.linearly_related
        assert v.linrel_basis == "oracle"

    def test_staircase_window(self):
        v = classify_window(demo_staircase(), (3, 7))
        assert not v.linear_resolution
        assert not v.linearly_related
        assert v.linear_basis.startswith("shape")

    def test_oracle_only_mode(self):
        v = classify_window(full_grid(2, 2), (0, 3), mode="oracle-only")
        assert not v.linear_resolution
        assert v.linearly_related
        assert v.linear_basis == "oracle"

    @pytest.mark.parametrize("call", [
        # a window the shape theorems decide, and the principal window
        lambda: classify_window(full_grid(2, 2), (0, 4), field=4),
        lambda: classify_window(full_grid(2, 2), (0, 4), mode="bogus"),
        lambda: classify_window(full_grid(2, 2), (2, 4), mode="oracle-only", field=4),
        lambda: verify_window(full_grid(2, 2), (2, 4), field=4),
    ], ids=["shape-field", "mode", "principal-field", "verify-principal-field"])
    def test_field_and_mode_checked_on_every_route(self, call):
        with pytest.raises(InvalidParameter):
            call()

    def test_verify_window_agreement(self):
        for w in ((0, 3), (1, 3), (1, 4), (0, 4)):
            verify_window(full_grid(2, 2), w)

    def test_verify_window_beyond_default_cap(self, corpus):
        # the oracles run on the lead graph, so windows of 13-30 variables
        # check both shape theorems too
        checked = 0
        for name, lat in corpus:
            for w in all_windows(lat):
                if 13 <= len(generators(lat, w)) <= 30:
                    verify_window(lat, w, var_cap=30)
                    checked += 1
        assert checked == 139


class TestAllProperWindows:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_band_family_true(self, m):
        ok, witness = all_proper_windows_linear(full_grid(m, 1))
        assert ok and witness is None

    def test_ell_families_true(self):
        for lat in (ell_lattice(), ell_lattice(transposed=True)):
            ok, witness = all_proper_windows_linear(lat)
            assert ok and witness is None

    def test_full_grid_false_with_witness(self):
        ok, witness = all_proper_windows_linear(full_grid(2, 2))
        assert not ok
        assert witness is not None
        v = classify_window(full_grid(2, 2), witness)
        assert not v.linear_resolution

    def test_bigger_staircase_false(self):
        ok, witness = all_proper_windows_linear(demo_staircase())
        assert not ok


class TestTransposition:
    def test_verdicts_transpose(self):
        lat = ell_lattice()
        t = lat.transpose()
        for w in all_windows(lat):
            v1 = classify_window(lat, w)
            v2 = classify_window(t, w)
            assert (v1.linear_resolution, v1.linearly_related) == (
                v2.linear_resolution,
                v2.linearly_related,
            )

    def test_enumerate_transposes(self):
        lat = ell_lattice()
        a = {(w.p, w.q) for w in enumerate_linrel_windows(lat)}
        b = {(w.p, w.q) for w in enumerate_linrel_windows(lat.transpose())}
        assert a == b
