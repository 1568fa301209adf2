"""Test-side reference for the level build of hibilab.binomials.Semigroup.

RowSplitSemigroup is the level build as it stood before the core's rows
were grouped into classes by column mask: each level of the core is the
set of its points, split by the largest row r of a point, and a point q of
L_(e-1) is added to the cells of every row at or above its own largest
row.  Every point is held, so |L_e(core)| is the number of points.  The
packing, the leaf peel and the lift from the core are the package's.  It
has no budget.  Semigroup.size must equal RowSplitSemigroup.size at every
degree.
"""

from hibilab.binomials import Semigroup, _lift
from hibilab.errors import InvalidParameter, VerificationFailed
from hibilab.lattice import row_masks


class RowSplitSemigroup(Semigroup):
    def _peel(self):
        """The core's L_1 by largest row."""
        cells, core = {}, self._core_rows
        for (i, j), img in zip(self.points, self.images):
            if core[i] >> j & 1:
                cells.setdefault(i, set()).add(img)
        self._cells = self._parts = [cells[i] for i in sorted(cells)]
        self._core_sizes = [1, sum(map(len, self._cells))]  # |L_0(core)|, |L_1(core)|, ...

    def size(self, e: int) -> int:
        if e < 0:
            raise InvalidParameter(f"semigroup degree must be at least 0, got {e}", degree=e)
        self.wide(e)
        if self._parts is None and len(self.sizes) < e:
            self._peel()
        while len(self.sizes) < e:
            if (len(self.sizes) + 1) * self._used & self.guard:
                raise VerificationFailed("a semigroup entry overflows", degree=len(self.sizes) + 1)
            below, grown = [], []  # below: the points of the top level with largest row <= r
            for part, images in zip(self._parts, self._cells):
                below.extend(part)
                grown.append({q + img for q in below for img in images})
            self._parts = grown
            self._core_sizes.append(sum(map(len, grown)))
            self.sizes.append(_lift(self._core_sizes, self.free))
        return self.sizes[e - 1] if e else 1


def row_split_sizes(points, top: int) -> list:
    """|L_0|, ..., |L_top| of the points by the row-split build."""
    points = tuple(points)
    semigroup = RowSplitSemigroup(points, row_masks(points, max(i for i, _ in points)))
    return [semigroup.size(e) for e in range(top + 1)]
