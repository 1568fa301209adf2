"""All-pairs lattice checks and the ideal-enumeration Birkhoff map, as test references.

validate(points) checks the planar-lattice axioms by scanning every pair of
points and by the reach set of every point, O(N^2) in time and memory.  It
raises the same error classes, witnesses and messages as
`hibilab.lattice.validate_planar_lattice`, which reads the set by its lines
instead; the property tests compare the two.  ideal_points(poset) is the
Birkhoff image by enumeration: every pair (a, b) whose ideal
C1[:a] | C2[:b] is down-closed, tested against every element.
"""

import warnings

from hibilab.errors import (
    ChainConditionFails,
    LatticeInvalid,
    LatticeNormalization,
    MissingOrigin,
    NotJoinClosed,
    NotMeetClosed,
)
from hibilab.lattice import PlanarLattice, chain_partition


def validate(points) -> PlanarLattice:
    """The checks of validate_planar_lattice by pair scans, for integer pairs."""
    pts = {tuple(p) for p in points}
    if not pts:
        raise MissingOrigin("empty point set")
    if any(i < 0 or j < 0 for i, j in pts):
        raise LatticeInvalid("coordinates must be nonnegative", points=sorted(pts)[:3])
    di = min(i for i, _ in pts)
    dj = min(j for _, j in pts)
    if di or dj:
        warnings.warn(
            f"lattice translated by ({-di}, {-dj}) to anchor at the origin",
            LatticeNormalization,
            stacklevel=2,
        )
        pts = {(i - di, j - dj) for i, j in pts}
    if (0, 0) not in pts:
        raise MissingOrigin("lattice must contain the origin")
    ordered = sorted(pts)
    for k, a in enumerate(ordered):
        for b in ordered[k + 1 :]:
            meet = (min(a[0], b[0]), min(a[1], b[1]))
            join = (max(a[0], b[0]), max(a[1], b[1]))
            if meet != a and meet != b and meet not in pts:
                raise NotMeetClosed(
                    f"meet of {a} and {b} is missing", witness=(a, b)
                )
            if join != a and join != b and join not in pts:
                raise NotJoinClosed(
                    f"join of {a} and {b} is missing", witness=(a, b)
                )
    # Chain condition as reachability in the unit-step digraph.
    reach = {}
    for a in sorted(pts, key=lambda p: (-(p[0] + p[1]), p)):
        r = {a}
        for step in ((a[0] + 1, a[1]), (a[0], a[1] + 1)):
            if step in pts:
                r |= reach[step]
        reach[a] = r
    for k, a in enumerate(ordered):
        for b in ordered[k + 1 :]:
            if a[0] <= b[0] and a[1] <= b[1] and b not in reach[a]:
                raise ChainConditionFails(
                    f"no saturated chain from {a} to {b}", witness=(a, b)
                )
    m = max(i for i, _ in pts)
    n = max(j for _, j in pts)
    return PlanarLattice(frozenset(pts), m, n)


def ideal_points(poset) -> set:
    """(|a & C1|, |a & C2|) for each ideal a, found by testing every candidate."""
    c1, c2 = chain_partition(poset)
    pts = set()
    for a in range(len(c1) + 1):
        for b in range(len(c2) + 1):
            ideal = set(c1[:a]) | set(c2[:b])
            closed = all(
                not poset.leq(y, x) or y in ideal
                for x in ideal
                for y in poset.elements
            )
            if closed:
                pts.add((a, b))
    return pts
