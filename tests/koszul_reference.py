"""Test-side reference for the Koszul block kernel of hibilab.betti.

The functions below are the block code as it stood before multidegrees were
packed into ints and faces into bitmasks: multidegrees are tuples,
remainders come from a coordinatewise subtraction that answers None on a
negative entry, and faces are sorted tuples of variables.  Every block is
listed in full and its homology taken by rank, with no cone or simplex
shortcut.  They are kept here, not in the package, as the reference the
packed kernel must match block for block.

packed_block_faces and has_apex are the packed kernel as it stood before
levels carried predecessor masks: each face tries every later vertex that
extended its parent, with one subtraction and one level lookup per
candidate, and the cone test counts the listed faces again.  They take
levels as packed_levels gives them (only membership is read) and are
the reference the mask walk must match block for block.

level_2k2_blocks is the linear-relatedness oracle's block route as it stood
before blocks were read off row-column pairings: semigroup levels 0..3 with
predecessor masks, and a mask walk at each induced-2K2 multidegree.
eliminated_homology ranks every boundary by elimination over all faces one
size smaller, with no union-find and no spanning forest.  Together they
are the reference for the pairing faces, the Euler settle and the triangle
ranks off a spanning forest.

mask_block_faces and betti_table are the full-table walk as it stood
before faces were bounded by the projective dimension: every block of
degree j is walked up to faces of j variables, a simplex is told by k
subtractions, and the only check is the face count per degree.  They are
the reference the pd-bounded table, with its Euler check, must equal.

ranked_linearly_related is is_linearly_related_oracle as it stood before
blocks were settled by gluing: the Euler settle, then every other
induced-2K2 block ranked mod p over its pairing faces.  It is the reference
the gluing test must agree with.

complement_chordal and lead_graph_linear are has_linear_resolution_oracle
as it stood before it answered by the h-vector count: Froeberg's test (the
edge ideal of a graph has a linear resolution iff the complement of the
graph is chordal) on the lead graph of the quadratic squarefree basis,
whose initial ideal has the ideal's regularity (Conca-Varbaro).  They are
the reference the count must agree with.

complete_intersection names the windows betti_numbers answers by the
Koszul complex on the generators, with no walk, and
complete_intersection_disagreements holds those tables to betti_table.

Packing and packed_levels are the Koszul levels' own packing as it stood
before they were built on the ring's semigroup (binomials.Semigroup): a
field for every row and column, each with a guard bit set in every packed
multidegree and cleared by a borrow.  The references above run on them.
semigroup_pack and semigroup_vector translate tuple multidegrees to and
from the semigroup's packing, which leaves out the least row and column.
"""

from functools import reduce
from itertools import accumulate
from math import comb
from operator import and_

from fiber_reference import monomial_images
from hibilab import errors
from hibilab.betti import (
    _2k2_multidegrees,
    _bits,
    _block_faces,
    _boundary_rank,
    _cap_block,
    _hochster_h2,
    _induced_2k2,
    _pairing_faces,
    _pairing_supports,
    _edge_ring_dimension,
    _rank_mod_p,
    betti_numbers,
    has_linear_resolution_oracle,
    reduced_homology as mask_homology,
)
from hibilab.binomials import _lead_graph, require_field, window_ideal
from hibilab.errors import VerificationFailed, check_var_cap, require_var_cap
from hibilab.windows import all_windows


class Packing:
    """Multidegrees with entries at most top, packed into one int each.

    Each of the m + n + 2 coordinates takes w = top.bit_length() + 1 bits,
    the highest of them a guard bit that is set in every packed multidegree.
    Entries stay below the guard, so adding images never carries into the
    next field (packed_levels checks this), and subtracting an image clears
    a field's guard exactly when that coordinate goes negative, with no
    borrow from the next field.  So b - img(v) is one int subtraction and
    rem & guard == guard its borrow test.  Images are packed without the
    guard, so adding or subtracting one keeps it.
    """

    def __init__(self, ring, top):
        width = top.bit_length() + 1
        self.shifts = tuple(range(0, width * (ring.m + ring.n + 2), width))
        self.guard = sum(1 << (shift + width - 1) for shift in self.shifts)
        self.images = tuple(self.pack(img) - self.guard for img in monomial_images(ring))

    def pack(self, vec):
        return self.guard + sum(x << shift for x, shift in zip(vec, self.shifts))


def packed_levels(packing, j_max):
    """Degrees 0..j_max of the window semigroup on packing, with their
    predecessor masks; an addition that clears a guard bit raises
    VerificationFailed naming the degree."""
    guard = packing.guard
    steps = [(1 << v, img) for v, img in enumerate(packing.images)]
    levels = [{guard: 0}]
    for d in range(1, j_max + 1):
        level = {}
        for q in levels[-1]:
            for bit, img in steps:
                b = q + img
                level[b] = level.get(b, 0) | bit
        if reduce(and_, level, guard) != guard:
            raise VerificationFailed("a multidegree entry overflows its packed field", degree=d)
        levels.append(level)
    return levels


def _semigroup_fields(ring):
    """The field width of ring.semigroup's packing, the coordinates of the
    least row and column of a tuple multidegree, which have no field, and
    (coordinate, shift) for each coordinate that has one: every column but
    the least, then every row but the least (binomials.Semigroup).  A
    Semigroup packs on first use, so wide(0) packs one not packed yet."""
    ring.semigroup.wide(0)
    width = ring.semigroup.capacity.bit_length() + 1
    rows, cols = zip(*ring.points)
    i0, j0, span = min(rows), min(cols), max(cols) - min(cols)
    fields = [(ring.m + 1 + j, width * (j - j0 - 1)) for j in range(j0 + 1, max(cols) + 1)]
    fields += [(i, width * (span + i - i0 - 1)) for i in range(i0 + 1, max(rows) + 1)]
    return width, (i0, ring.m + 1 + j0), fields


def semigroup_pack(ring, vec):
    """The tuple multidegree vec in ring.semigroup's current packing, or
    None when it has an entry outside the window's rows and columns."""
    _, least, fields = _semigroup_fields(ring)
    held = {c for c, _ in fields}.union(least)
    if any(x for c, x in enumerate(vec) if c not in held):
        return None
    return sum(vec[c] << shift for c, shift in fields)


def semigroup_vector(ring, b, degree):
    """The tuple multidegree of degree degree that ring.semigroup packs as b."""
    width, (i0, j0), fields = _semigroup_fields(ring)
    vec = [0] * (ring.m + ring.n + 2)
    for c, shift in fields:
        vec[c] = b >> shift & (1 << width) - 1
    vec[i0] = degree - sum(vec[: ring.m + 1])
    vec[j0] = degree - sum(vec[ring.m + 1:])
    return tuple(vec)


def vec_sub(a, b):
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def semigroup_levels(ring, j_max):
    imgs = monomial_images(ring)
    levels = [set() for _ in range(j_max + 1)]
    levels[0].add(tuple([0] * (ring.m + 1 + ring.n + 1)))
    for e in range(1, j_max + 1):
        for q in levels[e - 1]:
            for img in imgs:
                levels[e].add(tuple(x + y for x, y in zip(q, img)))
    return levels


def block_faces(ring, b, j, levels, max_size):
    """Faces by size of the block at the tuple multidegree b, as sorted tuples."""
    imgs = monomial_images(ring)
    verts = []
    for v in range(ring.nvars):
        rem = vec_sub(b, imgs[v])
        if rem is not None and rem in levels[j - 1]:
            verts.append(v)
    faces = {0: [()]}
    rems = {(): b}
    cur = [()]
    for s in range(1, max_size + 1):
        nxt = []
        for face in cur:
            start = verts.index(face[-1]) + 1 if face else 0
            base = rems[face]
            for vi in range(start, len(verts)):
                v = verts[vi]
                rem = vec_sub(base, imgs[v])
                if rem is not None and rem in levels[j - s]:
                    new = face + (v,)
                    nxt.append(new)
                    rems[new] = rem
        if not nxt:
            break
        faces[s] = nxt
        cur = nxt
    return faces


def reduced_homology(faces_by_size, p):
    """dim H~_{s-1} for each face size s present, faces as sorted tuples."""
    index = {s: {f: k for k, f in enumerate(fs)} for s, fs in faces_by_size.items()}
    ranks = {}
    for s, fs in faces_by_size.items():
        if s == 0:
            continue
        rows = []
        for face in fs:
            rows.append({
                index[s - 1][face[:k] + face[k + 1:]]: 1 if k % 2 == 0 else -1
                for k in range(len(face))
            })
        ranks[s] = _rank_mod_p(rows, len(index[s - 1]), p)
    return {
        s: len(fs) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        for s, fs in faces_by_size.items()
    }


def packed_block_faces(packing, b, j, levels, max_size):
    """Face counts by size of the block complex at b, and its faces, or None for a cone.

    The faces are the variable sets T, as bitmasks over the variables, with
    b - sigma(T) in degree j - |T| of the semigroup, up to max_size
    variables; the set is closed under subsets.  When it is a whole simplex
    (one subtraction tells) or has a cone vertex (has_apex), its homology
    in every size below max_size, the only sizes a caller reads, is zero, and
    the faces are not returned.
    """
    guard, cap = packing.guard, errors.BLOCK_FACE_CAP
    lower = levels[j - 1]
    verts = []
    for v, img in enumerate(packing.images):
        rem = b - img
        if rem & guard == guard and rem in lower:
            verts.append((1 << v, img, rem))
    k = len(verts)
    rem = b - sum(img for _, img, _ in verts)
    if 0 < k <= j and rem in levels[j - k]:
        counts = [comb(k, s) for s in range(min(k, max_size) + 1)]
        for total in accumulate(counts):
            _cap_block(total, j, cap)
        return counts, None
    # each face carries its remainder and the later vertices that may extend
    # it: the siblings that extended its parent (faces are closed under subsets)
    layers = [[(0, b, verts, 0)], [(bit, r, verts, n) for n, (bit, _, r) in enumerate(verts, 1)]]
    total = 1 + k
    _cap_block(total, j, cap)
    for s in range(2, max_size + 1):
        level = levels[j - s]
        nxt = []
        for mask, rem, sibs, start in layers[-1]:
            if start < len(sibs):
                kids = [
                    (bit, img, r) for bit, img, _ in sibs[start:]
                    if (r := rem - img) & guard == guard and r in level
                ]
                nxt += [(mask | bit, r, kids, n) for n, (bit, _, r) in enumerate(kids, 1)]
        if not nxt:
            break
        layers.append(nxt)
        total += len(nxt)
        _cap_block(total, j, cap)
    faces = [[face[0] for face in layer] for layer in layers]
    counts = [len(layer) for layer in faces]
    if has_apex(faces, max_size):
        return counts, None
    return counts, dict(enumerate(faces))


def has_apex(faces, max_size):
    """Whether some vertex v has T | v a face for every face T below max_size.

    Then coning with v (T -> T | v) is a contracting homotopy of the chain
    complex in every size below max_size, so its reduced homology there is
    zero.  Removing v maps the faces of size s + 1 with v one-to-one into the
    faces of size s without v, onto them exactly when each of those extends
    by v; so the test only counts faces.  faces[s] lists the faces of size s.
    """
    inside = dict.fromkeys(faces[1], 1)
    for s in range(1, min(max_size, len(faces))):
        upper = faces[s + 1] if s + 1 < len(faces) else ()
        outside = len(faces[s])
        inside = {
            bit: count for bit, before in inside.items()
            if (count := sum(1 for face in upper if face & bit)) == outside - before
        }
        if not inside:
            return False
    return bool(inside)


def level_2k2_blocks(ring, multidegrees, max_size=3):
    """The degree-4 Koszul blocks at multidegrees, faces up to max_size variables, by the level walk.

    multidegrees are (rows, columns) pairs of sorted tuples, as
    _2k2_multidegrees keys them.  The vertex mask of each b comes from one
    borrow test per variable against level 3.  Returns {(rows, columns):
    faces by size, or None for a simplex or a cone}.
    """
    packing = Packing(ring, 4)
    imgs, guard = packing.images, packing.guard
    levels = packed_levels(packing, 3)
    out = {}
    for rows, cols in multidegrees:
        vec = [0] * (ring.m + ring.n + 2)
        for r in rows:
            vec[r] += 1
        for c in cols:
            vec[ring.m + 1 + c] += 1
        b = packing.pack(vec)
        mask = sum(1 << v for v, img in enumerate(imgs)
                   if (r := b - img) & guard == guard and r in levels[3])
        out[rows, cols] = _block_faces(imgs, b, mask, 4, levels, max_size)[1]
    return out


def eliminated_homology(faces_by_size, p):
    """dim H~_{s-1} for each face size s present, every boundary ranked by elimination.

    Faces are bitmasks and include the empty face 0, as for
    hibilab.betti.reduced_homology.
    """
    ranks = {
        s: _boundary_rank(faces, {f: k for k, f in enumerate(faces_by_size[s - 1])}, p)
        for s, faces in faces_by_size.items() if s
    }
    return {
        s: len(faces) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        for s, faces in faces_by_size.items()
    }


def mask_block_faces(packing, b, mask, j, levels, max_size):
    """Face counts by size of the block complex at b, and its faces, or None for a simplex or a cone.

    The mask walk of hibilab.betti._block_faces with no memo: the simplex
    test subtracts the image of each vertex in turn, and no cap is applied.
    """
    images = packing.images
    k = mask.bit_count()
    rem, rest = b, mask
    while rest:
        low = rest & -rest
        rem -= images[low.bit_length() - 1]
        rest ^= low
    if 0 < k <= j and rem in levels[j - k]:
        return [comb(k, s) for s in range(min(k, max_size) + 1)], None
    layers = [[(0, b, mask)]]
    apex = mask
    for s in range(1, max_size):
        level = levels[j - s]
        nxt = []
        for face, rem, down in layers[-1]:
            top = face.bit_length()
            ext = down >> top << top
            while ext:
                low = ext & -ext
                ext ^= low
                r = rem - images[low.bit_length() - 1]
                below = level[r]
                child = face | low
                apex &= below | child
                nxt.append((child, r, below))
        if not nxt:
            break
        layers.append(nxt)
    counts = [len(layer) for layer in layers]
    last = []
    if len(layers) == max_size:
        last = [(face, down >> (top := face.bit_length()) << top) for face, _, down in layers[-1]]
        size = sum(ext.bit_count() for _, ext in last)
        if size:
            counts.append(size)
    if apex:
        return counts, None
    faces = {s: [face for face, _, _ in layer] for s, layer in enumerate(layers)}
    if len(counts) > len(layers):
        faces[max_size] = [face | 1 << v for face, ext in last for v in _bits(ext)]
    return counts, faces


def betti_table(ring, gens, field):
    """The full Betti table of the window ideal, {(i, j): beta_{i,j}(I)}, by the unbounded walk.

    Every degree 2 <= j <= nvars, every block walked up to faces of j
    variables with mask_block_faces, and VerificationFailed when the face
    counts of a degree miss C(nvars, s) * |L_{j-s}|.
    """
    nvars = ring.nvars
    if not gens:
        return {}
    packing = Packing(ring, nvars)
    levels = packed_levels(packing, nvars)
    entries = {}
    for j in range(2, nvars + 1):
        face_counts = [0] * (j + 1)
        for b, mask in levels[j].items():
            counts, faces = mask_block_faces(packing, b, mask, j, levels, j)
            for s, count in enumerate(counts):
                face_counts[s] += count
            if faces is None:
                continue
            hom = mask_homology(faces, field)
            for i in range(j - 1):
                if hom.get(i + 1):
                    entries[i, j] = entries.get((i, j), 0) + hom[i + 1]
        if face_counts != [comb(nvars, s) * len(levels[j - s]) for s in range(j + 1)]:
            raise VerificationFailed("reference face counts miss the Hilbert function", degree=j)
    return entries


def ranked_linearly_related(ideal, field, var_cap=16):
    """True iff beta_{1,4}(I) = 0, every block not settled by Euler ranked.

    The arguments and answers are those of is_linearly_related_oracle.
    """
    require_field(field)
    require_var_cap(var_cap)
    if ideal.is_zero:
        return True
    ring = ideal.ring
    check_var_cap(ring.nvars, var_cap)
    adj = _lead_graph(ideal.quadratic_gb.lead_supports, ring.nvars)
    blocks = []
    for (rows, cols), h1 in _2k2_multidegrees(ring.points, _induced_2k2(adj)).items():
        supports = _pairing_supports(ring.index, rows, cols)
        if h1 > _hochster_h2(adj, supports):
            return False
        blocks.append(supports)
    return not any(mask_homology(_pairing_faces(s), field).get(2) for s in blocks)


def complement_chordal(adj):
    """Whether the complement of the graph with adjacency bitmasks adj is chordal.

    A maximum-cardinality search numbers the vertices of the complement.  It
    is chordal iff for every vertex v, the earlier-numbered neighbours of v
    other than the last-numbered one, u, are all neighbours of u (Tarjan and
    Yannakakis, SIAM J. Comput. 13, 1984).
    """
    n = len(adj)
    comp = [((1 << n) - 1) & ~(adj[v] | 1 << v) for v in range(n)]
    weight = [0] * n
    step = [0] * n
    numbered = 0
    for k in range(n):
        v = max((u for u in range(n) if not numbered >> u & 1), key=weight.__getitem__)
        earlier = comp[v] & numbered
        if earlier:
            u = max(_bits(earlier), key=step.__getitem__)
            if (earlier ^ 1 << u) & ~comp[u]:
                return False
        step[v] = k
        numbered |= 1 << v
        for u in _bits(comp[v] & ~numbered):
            weight[u] += 1
    return True


def lead_graph_linear(ideal):
    """True iff the window ideal has a linear resolution, by Froeberg on its lead graph.

    The zero ideal answers True; any other reads ideal.quadratic_gb, with
    no cap, and raises PreconditionFailed as it does.
    """
    if ideal.is_zero:
        return True
    return complement_chordal(_lead_graph(ideal.quadratic_gb.lead_supports, ideal.ring.nvars))


def linear_resolution_disagreements(lattices):
    """has_linear_resolution_oracle against lead_graph_linear on every window of the lattices.

    Returns the windows checked, how many of them lead_graph_linear calls
    linear, and a (points, window, count's answer, reference's answer)
    record for each window where the two differ.
    """
    windows, linear, disagreements = 0, 0, []
    for lat in lattices:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            count, froeberg = has_linear_resolution_oracle(ideal.ring), lead_graph_linear(ideal)
            if count != froeberg:
                disagreements.append((sorted(lat.points), (w.p, w.q), count, froeberg))
            windows += 1
            linear += froeberg
    return windows, linear, disagreements


def complete_intersection(ideal):
    """True iff the window ideal's generators number its height nvars - d:
    betti_numbers then answers a call without targets by the Koszul complex
    on the generators, with no walk."""
    return len(ideal.generators) == ideal.ring.nvars - _edge_ring_dimension(ideal.ring)


def complete_intersection_disagreements(lattices, max_vars, fields=(32003, 65537)):
    """betti_numbers against betti_table on every complete-intersection window
    with a generator and at most max_vars variables, at each field.

    Returns the windows checked and a (points, window, field) record for
    each table where the two differ.
    """
    windows, disagreements = 0, []
    for lat in lattices:
        for w in all_windows(lat):
            ideal = window_ideal(lat, w)
            if ideal.ring.nvars > max_vars or ideal.is_zero or not complete_intersection(ideal):
                continue
            windows += 1
            for field in fields:
                table = betti_numbers(ideal, field=field, var_cap=None).entries
                if table != betti_table(ideal.ring, ideal.generators, field):
                    disagreements.append((sorted(lat.points), (w.p, w.q), field))
    return windows, disagreements
