"""Test-side reference for the Koszul block kernel of hibilab.betti.

The functions below are the block code as it stood before multidegrees were
packed into ints and faces into bitmasks: multidegrees are tuples,
remainders come from a coordinatewise subtraction that answers None on a
negative entry, and faces are sorted tuples of variables.  Every block is
listed in full and its homology taken by rank, with no cone or simplex
shortcut.  They are kept here, not in the package, as the reference the
packed kernel must match block for block.
"""

from hibilab.betti import _rank_mod_p


def vec_sub(a, b):
    out = []
    for x, y in zip(a, b):
        d = x - y
        if d < 0:
            return None
        out.append(d)
    return tuple(out)


def semigroup_levels(ring, j_max):
    imgs = ring.monomial_map.images
    levels = [set() for _ in range(j_max + 1)]
    levels[0].add(tuple([0] * (ring.m + 1 + ring.n + 1)))
    for e in range(1, j_max + 1):
        for q in levels[e - 1]:
            for img in imgs:
                levels[e].add(tuple(x + y for x, y in zip(q, img)))
    return levels


def block_faces(ring, b, j, levels, max_size):
    """Faces by size of the block at the tuple multidegree b, as sorted tuples."""
    imgs = ring.monomial_map.images
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
