"""Every planar distributive lattice in a box, as an exhaustive test corpus.

box_lattices(max_m, max_n) builds the lattices whose points lie in columns
0..max_m and rows 0..max_n from column spans {i: (lo_i, hi_i)}: lo and hi
nondecreasing, lo_i <= hi_i, lo_0 = 0 and lo_i <= hi_{i-1}, so consecutive
columns overlap.  Distinct span lists give distinct point sets.
"""

from hibilab.reports import lattice_from_columns


def _spans(max_m, max_n, prefix):
    if prefix:
        yield dict(enumerate(prefix))
    if len(prefix) > max_m:
        return
    lo_min, hi_min = prefix[-1] if prefix else (0, 0)
    for lo in range(lo_min, hi_min + 1):
        for hi in range(max(lo, hi_min), max_n + 1):
            yield from _spans(max_m, max_n, prefix + [(lo, hi)])


def box_lattices(max_m, max_n):
    """The lattices of the box, in the order of their span lists."""
    return [lattice_from_columns(spans) for spans in _spans(max_m, max_n, [])]
