"""ASCII and SVG pictures of a lattice with a window band and its cells."""

from __future__ import annotations

from .lattice import PlanarLattice
from .windows import as_context


def render_ascii(lattice: PlanarLattice, window=None) -> str:
    """Rows print top j first; 'o' lattice point, '*' generator, '#' shaded cell."""
    gens = set()
    cells = set()
    caption = ""
    if window is not None:
        ctx = as_context(lattice, window)
        w = ctx.window
        gens = set(ctx.generators.points)
        cells = ctx.polyomino.cells
        caption = f"window ranks {w.p}..{w.q}"
    lines = []
    for j in range(lattice.n, -1, -1):
        row = []
        for i in range(lattice.m + 1):
            p = (i, j)
            row.append("*" if p in gens else "o" if p in lattice.points else ".")
            if i < lattice.m:
                row.append(" ")
        lines.append("".join(row).rstrip())
        if j > 0:
            shade = []
            for i in range(lattice.m + 1):
                shade.append(" ")
                if i < lattice.m:
                    shade.append("#" if (i, j - 1) in cells else " ")
            lines.append("".join(shade).rstrip())
    if caption:
        lines.append(caption)
    return "\n".join(lines) + "\n"


def render_svg(lattice: PlanarLattice, window=None, unit: int = 40) -> str:
    pad = unit
    width = lattice.m * unit + 2 * pad
    height = lattice.n * unit + 2 * pad

    def xy(i, j):
        return pad + i * unit, height - pad - j * unit

    gens = set()
    cells = set()
    band = None
    if window is not None:
        ctx = as_context(lattice, window)
        gens = set(ctx.generators.points)
        cells = ctx.polyomino.cells
        band = ctx.window
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, j in sorted(cells):
        x, y = xy(i, j + 1)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{unit}" height="{unit}" fill="#d8d8d8"/>'
        )
    for i, j in sorted(lattice.points):
        for di, dj in ((1, 0), (0, 1)):
            nb = (i + di, j + dj)
            if nb in lattice.points:
                x1, y1 = xy(i, j)
                x2, y2 = xy(*nb)
                parts.append(
                    f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                    f'stroke="#808080" stroke-width="1"/>'
                )
    if band is not None:
        for r in (band.p, band.q):
            i1, j1 = max(0, r - lattice.n), min(r, lattice.n)
            i2, j2 = min(r, lattice.m), max(0, r - lattice.m)
            x1, y1 = xy(i1 - 0.25, j1 + 0.25)
            x2, y2 = xy(i2 + 0.25, j2 - 0.25)
            parts.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="black" stroke-width="1" stroke-dasharray="6,4"/>'
            )
    for i, j in sorted(lattice.points):
        x, y = xy(i, j)
        if (i, j) in gens:
            parts.append(f'<circle cx="{x}" cy="{y}" r="6" fill="black"/>')
        else:
            parts.append(
                f'<circle cx="{x}" cy="{y}" r="3" fill="white" stroke="black"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_figure(lattice: PlanarLattice, window=None, fmt: str = "ascii") -> str:
    if fmt == "svg":
        return render_svg(lattice, window)
    if fmt == "ascii":
        return render_ascii(lattice, window)
    raise ValueError(f"unknown format {fmt!r}")
