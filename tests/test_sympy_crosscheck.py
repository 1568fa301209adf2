"""Reduced-basis cross-checks against an independent CAS implementation."""

import pytest

sympy = pytest.importorskip("sympy")

from hibilab.binomials import (
    buchberger,
    defining_ideal_generators,
    monomial_order,
)
from hibilab.reports import demo_staircase, ell_lattice, full_grid
from window_helpers import ring_for_window


def sympy_reduced_gb(ring, order, gens, sympy_order):
    sig_points = [ring.points[k] for k in order.sig]
    syms = sympy.symbols([f"y_{i}_{j}" for i, j in sig_points])
    sym_of = dict(zip(sig_points, syms))

    def lift(mono):
        expr = sympy.Integer(1)
        for pt, e in ring.exponents_dict(mono).items():
            expr *= sym_of[pt] ** e
        return expr

    polys = [lift(g.lead) - lift(g.trail) for g in gens]
    gb = sympy.groebner(polys, *syms, order=sympy_order)
    return sorted(str(e.expand()) for e in gb.exprs), lift


CASES = [
    (demo_staircase(), (3, 7), "lex", "lex"),
    (demo_staircase(), (3, 7), "rank-revlex", "grevlex"),
    (full_grid(2, 2), (0, 4), "rank-revlex", "grevlex"),
    (ell_lattice(), (0, 4), "lex", "lex"),
    (full_grid(2, 1), (0, 3), "rank-lex", "lex"),
]


@pytest.mark.parametrize("lattice,window,kind,sympy_order", CASES)
def test_reduced_basis_matches_sympy(lattice, window, kind, sympy_order):
    # the ideals are homogeneous, so graded and ungraded lex give the same
    # reduced basis and sympy's grevlex matches the graded reverse order
    ring = ring_for_window(lattice, window)
    order = monomial_order(kind, ring)
    gens = defining_ideal_generators(ring, order)
    report = buchberger(gens, order)
    theirs, lift = sympy_reduced_gb(ring, order, gens, sympy_order)
    mine = sorted(
        str((lift(g.lead) - lift(g.trail)).expand()) for g in report.basis
    )
    assert mine == theirs
