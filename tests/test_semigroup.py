"""The semigroup levels counted by row classes against the row-split build.

binomials.Semigroup groups the core's rows by column mask and counts each
level from the pairs (class counts, column part), weighing a pair by the
row multisets it stands for; semigroup_reference.RowSplitSemigroup holds
every point of every level, split by largest row.  The two must give the
same |L_0|, ..., |L_6| (|L_4| past 16 variables) on every window of the
seed corpora, of the 3x3 box and of the full grids, and on random point
sets that no lattice gives: rows repeated, rows whose columns are not an
interval, a point repeated.
"""

import random
from math import comb

import pytest

from box_lattices import box_lattices
from hibilab.binomials import Semigroup
from hibilab.lattice import row_masks
from hibilab.reports import CorpusSpec, full_grid, generate_corpus
from hibilab.windows import WindowContext, all_windows
from semigroup_reference import row_split_sizes


def _sizes(points, rows):
    """(|L_0..L_top| of the class build, of the reference, whether a class has several rows)."""
    top = 6 if len(points) <= 16 else 4
    semigroup = Semigroup(points, rows)
    sizes = [semigroup.size(e) for e in range(top + 1)]
    return sizes, row_split_sizes(points, top), bool(semigroup._mu)


def _gapped(mask: int) -> bool:
    """Whether the columns of mask are not an interval."""
    low = mask // (mask & -mask)
    return bool(low & low + 1)


def _windows(lattices):
    for lat in lattices:
        for w in all_windows(lat):
            yield w, WindowContext(lat, w).ring


CASES = {
    # name: (lattices, windows, windows with a class of several core rows)
    "seed-7": (lambda: [lat for _, lat in generate_corpus(CorpusSpec(seed=7, count=40, max_m=5, max_n=4))],
               764, 334),
    "seed-11": (lambda: [lat for _, lat in generate_corpus(CorpusSpec(seed=11, count=40, max_m=5, max_n=4))],
                825, 364),
    "box-3x3": (lambda: box_lattices(3, 3), 5676, 2352),
}


@pytest.mark.parametrize("case", CASES)
def test_class_counts_match_the_row_split_build(case):
    lattices, windows, heavy = CASES[case]
    seen = classes = 0
    for w, ring in _windows(lattices()):
        got, want, several = _sizes(ring.points, ring.rows)
        assert got == want, (case, w)
        seen += 1
        classes += several
    assert (seen, classes) == (windows, heavy)


@pytest.mark.parametrize("k", range(1, 8))
def test_full_grid_levels_are_one_column_sumset(k):
    """The full window of the k x k grid is one class of k + 1 rows: |L_e| =
    C(k + e, e)^2, the row multisets times the column ones."""
    lat = full_grid(k, k)
    ring = WindowContext(lat, (0, 2 * k)).ring
    got, want, several = _sizes(ring.points, ring.rows)
    assert several and got == want == [comb(k + e, e) ** 2 for e in range(len(got))]


def test_class_counts_match_on_random_point_sets():
    """Rows drawn as random column sets, some copied from an earlier row,
    and now and then a point given twice (which keeps the peel off)."""
    rng = random.Random(2025)
    seen = {"repeated row": 0, "not an interval": 0, "repeated point": 0}
    for _ in range(400):
        masks = []
        for _ in range(rng.randint(2, 5)):
            if masks and rng.random() < 0.4:
                masks.append(rng.choice(masks))
            else:
                masks.append(rng.randrange(1, 1 << rng.randint(1, 5)))
        points = [(i, j) for i, r in enumerate(masks) for j in range(r.bit_length()) if r >> j & 1]
        if len(points) > 12:
            continue
        if rng.random() < 0.2:
            points.append(rng.choice(points))
        rng.shuffle(points)
        points = tuple(points)
        got, want, _ = _sizes(points, row_masks(points, len(masks) - 1))
        assert got == want, points
        seen["repeated row"] += len(set(masks)) < len(masks)
        seen["not an interval"] += any(_gapped(r) for r in masks)
        seen["repeated point"] += len(set(points)) < len(points)
    assert min(seen.values()) >= 50, seen
