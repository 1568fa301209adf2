"""Input parsing, corpus generation and the cross-checking suite runner."""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from ._version import __version__
from .errors import CapExceeded, DegreeInfeasible, ParseError, VerificationFailed
from .lattice import (
    PlanarLattice,
    Poset,
    is_simple,
    join_irreducibles,
    poset_ideals_to_planar,
    validate_planar_lattice,
)
from .windows import (
    WindowContext,
    bipartite_graph,
    check_convexity,
    is_chordal_bipartite,
    select_windows,
)
from .binomials import DEFAULT_FIELD, require_field, toric_fiber_oracle
from .betti import betti_numbers, krull_dimension_via_initial
from .classify import classify_window, verify_window


def lattice_from_columns(spans) -> PlanarLattice:
    """Build a lattice from per-column inclusive j-ranges {i: (lo, hi)}."""
    pts = set()
    for i, (lo, hi) in spans.items():
        for j in range(lo, hi + 1):
            pts.add((int(i), j))
    return validate_planar_lattice(pts)


def full_grid(m: int, n: int) -> PlanarLattice:
    return lattice_from_columns({i: (0, n) for i in range(m + 1)})


def demo_staircase() -> PlanarLattice:
    """Rank-9 staircase used as the running example throughout docs and tests.

    Its window (3, 7) has 14 generators.
    """
    return lattice_from_columns(
        {0: (0, 2), 1: (0, 3), 2: (0, 4), 3: (0, 4), 4: (2, 4), 5: (2, 4)}
    )


def ell_lattice(transposed: bool = False) -> PlanarLattice:
    """3x3 grid of points minus one far corner; both orientations."""
    pts = {(i, j) for i in range(3) for j in range(3)}
    pts.discard((0, 2) if transposed else (2, 0))
    return validate_planar_lattice(pts)


def named_lattices():
    out = {
        "staircase-5x4": demo_staircase(),
        "ell-3x3": ell_lattice(),
        "ell-3x3-t": ell_lattice(transposed=True),
    }
    for m, n in ((1, 1), (2, 2), (2, 3), (3, 3), (5, 4)):
        out[f"grid-{m}x{n}"] = full_grid(m, n)
    for m in range(1, 6):
        out[f"band-{m}x1"] = full_grid(m, 1)
    return out


def parse_input(source) -> PlanarLattice:
    """Lattice from JSON: {"points": [[i,j],...]} or {"poset": {"elements", "relations"}}."""
    if isinstance(source, (dict, list)):
        data = source
    else:
        text = source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(
                f"malformed JSON: {exc.msg}", position=exc.pos, line=exc.lineno
            ) from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    if "points" in data:
        pts = data["points"]
        if not isinstance(pts, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(isinstance(c, int) for c in p)
            for p in pts
        ):
            raise ParseError('"points" must be a list of [i, j] integer pairs')
        return validate_planar_lattice(tuple(map(tuple, pts)))
    if "poset" in data:
        spec = data["poset"]
        try:
            elements = spec["elements"]
            relations = [tuple(r) for r in spec.get("relations", [])]
        except (TypeError, KeyError) as exc:
            raise ParseError('"poset" needs "elements" and "relations"') from exc
        try:
            poset = Poset(elements, relations)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return poset_ideals_to_planar(poset)
    raise ParseError('expected a "points" or "poset" key')


@dataclass(frozen=True)
class CorpusSpec:
    seed: int = 0
    count: int = 20
    max_m: int = 4
    max_n: int = 4
    families: tuple = ("named", "full-grid", "band", "poset", "staircase")


def _random_width2_poset(rng: random.Random, max_m: int, max_n: int) -> Poset:
    """Two chains with random order-preserving cross relations."""
    a = rng.randint(1, max_m)
    b = rng.randint(0, max_n)
    elements = [f"p{k}" for k in range(a)] + [f"q{k}" for k in range(b)]
    relations = [(f"p{k}", f"p{k+1}") for k in range(a - 1)]
    relations += [(f"q{k}", f"q{k+1}") for k in range(b - 1)]
    for i in range(a):
        for j in range(b):
            if rng.random() < 0.2:
                if rng.random() < 0.5:
                    relations.append((f"p{i}", f"q{j}"))
                else:
                    relations.append((f"q{j}", f"p{i}"))
    try:
        return Poset(elements, relations)
    except ValueError:
        # random cross relations may break antisymmetry; fall back to no crossings
        return Poset(elements, relations[: a + b - 2])


def _random_staircase(rng: random.Random, max_m: int, max_n: int) -> PlanarLattice:
    m = rng.randint(1, max_m)
    n = rng.randint(1, max_n)
    hi = sorted(rng.randint(0, n) for _ in range(m))
    hi.append(n)
    lo = [0]
    for i in range(1, m + 1):
        # hi is nondecreasing, so min(hi[i], hi[i-1]) >= lo[i-1] always holds
        lo.append(rng.randint(lo[-1], min(hi[i], hi[i - 1])))
    spans = {i: (lo[i], hi[i]) for i in range(m + 1)}
    return lattice_from_columns(spans)


def generate_corpus(spec: CorpusSpec):
    """Deterministic list of (name, lattice); every entry passes validation."""
    rng = random.Random(spec.seed)
    out = []
    seen = set()

    def push(name, lat):
        if lat.points not in seen:
            seen.add(lat.points)
            out.append((name, lat))

    fams = set(spec.families)
    if "named" in fams:
        for name, lat in named_lattices().items():
            push(name, lat)
    if "full-grid" in fams:
        for m in range(2, spec.max_m + 1):
            for n in range(2, spec.max_n + 1):
                push(f"grid-{m}x{n}", full_grid(m, n))
    if "band" in fams:
        for m in range(1, spec.max_m + 1):
            push(f"band-{m}x1", full_grid(m, 1))
    if "poset" in fams:
        quota = min(max(spec.count // 4, 2), max(spec.count - len(out), 0))
        for _ in range(quota):
            poset = _random_width2_poset(rng, spec.max_m, spec.max_n)
            push(f"poset-{len(out):03d}", poset_ideals_to_planar(poset))
    if "staircase" in fams:
        attempts = 0
        while len(out) < spec.count and attempts < 50 * max(spec.count, 1):
            attempts += 1
            lat = _random_staircase(rng, spec.max_m, spec.max_n)
            push(f"staircase-{len(out):03d}", lat)
    return out


@dataclass
class RunReport:
    stable: dict
    timings: dict = field(default_factory=dict)

    @property
    def findings(self):
        return self.stable.get("findings", [])

    def to_json(self, include_timings: bool = True) -> str:
        doc = dict(self.stable)
        if include_timings:
            doc = {"stable": self.stable, "timings": self.timings}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def lattice_record(lattice: PlanarLattice) -> dict:
    """The lattice section of a suite report, also printed by `hibilab validate`."""
    simp = is_simple(lattice)
    return {
        "points": sorted(map(list, lattice.points)),
        "m": lattice.m,
        "n": lattice.n,
        "rank": lattice.rank,
        "simple": simp.simple,
        "violating_ranks": list(simp.violating_ranks),
        "join_irreducibles": len(join_irreducibles(lattice)),
    }


def run_suite(
    lattice: PlanarLattice,
    windows=None,
    all_windows_flag: bool = False,
    proper_only: bool = False,
    with_gb: bool = True,
    with_fiber: bool = False,
    with_betti: bool = False,
    with_classify: bool = True,
    verify: bool = False,
    order_kinds="auto",
    field: int = DEFAULT_FIELD,
    var_cap: int = 12,
    fiber_degree: int = 4,
    name: str = "lattice",
) -> RunReport:
    """Run every module on the lattice and cross-check the bridging invariants.

    Per window: chordal bipartite graph, convex polyomino, dimension formula
    against the initial-ideal Krull dimension, quadratic squarefree basis
    under some candidate order, optional fiber certificates, and classifier
    verdicts (verified against the oracle when verify=True).  Inconsistencies
    are collected as findings; the caller decides the exit status.
    """
    t0 = time.perf_counter()
    timings = {}
    findings = []
    require_field(field)
    lattice_doc = lattice_record(lattice)
    if lattice_doc["join_irreducibles"] != lattice.rank:
        findings.append(
            {"check": "join-irreducible-count", "got": lattice_doc["join_irreducibles"],
             "want": lattice.rank}
        )
    wins = select_windows(lattice, windows, all_windows_flag, proper_only)
    window_records = []
    for w in wins:
        ctx = WindowContext(lattice, w, order_kinds)
        rec = {"window": [w.p, w.q], "skipped": []}
        gens = ctx.generators
        rec["generators"] = len(gens)
        cert = is_chordal_bipartite(bipartite_graph(lattice, ctx))
        rec["chordal"] = cert.chordal
        if not cert.chordal:
            findings.append(
                {"check": "chordal-bipartite", "window": [w.p, w.q],
                 "witness": list(map(list, cert.chordless_cycle))}
            )
        poly = ctx.polyomino
        rec["cells"] = len(poly)
        rec["connected"] = poly.connected
        convex = check_convexity(poly)
        rec["convex"] = convex
        if not convex:
            findings.append({"check": "convexity", "window": [w.p, w.q]})
        if not poly.vertices <= set(gens.points):
            findings.append({"check": "vertices-in-generators", "window": [w.p, w.q]})
        dim = ctx.dimension
        rec["dimension"] = dim
        if with_gb:
            ideal = ctx.ideal
            rec["gb"] = {
                "order": ideal.order.name,
                "generators": len(ideal.generators),
                "size": len(ideal.gb.basis),
                "quadratic": ideal.gb.quadratic,
                "squarefree": ideal.gb.squarefree,
                "spairs": ideal.gb.spairs_processed,
            }
            if not (ideal.gb.quadratic and ideal.gb.squarefree):
                findings.append(
                    {"check": "quadratic-squarefree-gb", "window": [w.p, w.q],
                     "orders_tried": list(ideal.orders_tried)}
                )
            krull = krull_dimension_via_initial(ideal.gb, nvars=ideal.ring.nvars)
            rec["krull"] = krull
            if krull != dim:
                findings.append(
                    {"check": "dimension-formula", "window": [w.p, w.q],
                     "dimension": dim, "krull": krull}
                )
            if with_fiber:
                try:
                    cert = toric_fiber_oracle(
                        ideal.ring, ideal.generators, gb=ideal.gb,
                        degree=fiber_degree,
                    )
                    rec["fiber"] = {
                        "generated": cert.generated,
                        "gb_certified": cert.gb_certified,
                        "degrees": [d.degree for d in cert.per_degree],
                    }
                    if not (cert.generated and cert.gb_certified):
                        findings.append(
                            {"check": "fiber-certificate", "window": [w.p, w.q]}
                        )
                except DegreeInfeasible as exc:
                    rec["skipped"].append({"fiber": exc.payload()})
            if with_betti:
                try:
                    table = betti_numbers(
                        ideal.ring, ideal.generators, field=field, var_cap=var_cap
                    )
                    rec["betti"] = table.to_json()
                except CapExceeded as exc:
                    rec["skipped"].append({"betti": exc.payload()})
            if with_classify:
                try:
                    verdict = (
                        verify_window(lattice, ctx, field=field, var_cap=var_cap)
                        if verify
                        else classify_window(lattice, ctx, field=field, var_cap=var_cap)
                    )
                    rec["verdict"] = verdict.to_json()
                except CapExceeded as exc:
                    rec["skipped"].append({"classify": exc.payload()})
                except VerificationFailed as exc:
                    findings.append(
                        {"check": "classifier-oracle-agreement", "window": [w.p, w.q],
                         "detail": exc.payload()}
                    )
        window_records.append(rec)
    timings["total_s"] = round(time.perf_counter() - t0, 6)
    stable = {
        "schema": 1,
        "version": __version__,
        "name": name,
        "config": {
            "windows": [[w.p, w.q] for w in wins],
            "proper_only": proper_only,
            "field": field,
            "var_cap": var_cap,
            "fiber_degree": fiber_degree if with_fiber else None,
            "order_kinds": order_kinds if isinstance(order_kinds, str) else list(order_kinds),
            "verify": verify,
        },
        "lattice": lattice_doc,
        "windows": window_records,
        "findings": findings,
    }
    return RunReport(stable=stable, timings=timings)
