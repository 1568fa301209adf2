"""Command-line surface: one binary, scriptable subcommands, JSON on stdout.

The eight windowed subcommands share one loop: per window of select_windows,
a WindowContext and the command's view of it (_VIEWS), its record less
"window".  One skip rule: a SKIPS[command] error from the view's own check,
the call it makes through check, records {"window": [p, q], "skipped":
{command: payload}}; any other error stops the run.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from .errors import VAR_CAP, HibiLabError, InvalidParameter, ParseError, VerificationFailed
from .windows import WindowContext, bipartite_graph, check_convexity, is_chordal_bipartite, select_windows
from .binomials import DEFAULT_FIELD, ORDER_KINDS, require_field, toric_fiber_oracle
from .betti import betti_numbers, hilbert_function, krull_dimension_via_initial
from .classify import CLASSIFY_MODES, classify_window, enumerate_linrel_windows, verify_window
from .render import render_figure
from .reports import SKIPS, CorpusSpec, generate_corpus, lattice_record, parse_input, run_suite

_INPUT_ERRORS = ("parse-error", "lattice-invalid", "missing-origin", "not-meet-closed",
                 "not-join-closed", "chain-condition-fails", "width-exceeds-two",
                 "invalid-window", "rank-too-small", "precondition-failed",
                 "invalid-parameter", "not-convex", "disconnected")


def _read_lattice(args):
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
    return parse_input(text)


def _emit(doc):
    print(json.dumps(doc, sort_keys=True))


def _parse_window(text):
    try:
        p, q = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected --window p,q") from exc
    return (p, q)


def _parse_field(text):
    try:
        return require_field(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _at_least(least, what):
    def parse(text):
        if (value := int(text)) < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its error for a non-integer
    return parse


def _add_common(sub, window=True):
    sub.add_argument("--input", "-i", default="-", help="lattice JSON file, or - for stdin")
    if window:
        sub.add_argument("--window", type=_parse_window, default=None)
        sub.add_argument("--all-windows", action="store_true")
        sub.add_argument("--proper-only", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(prog="hibilab")
    sp = ap.add_subparsers(dest="command", required=True)

    _add_common(sp.add_parser("validate", help="validate a lattice"), window=False)
    _add_common(sp.add_parser("generators", help="band points of a window"))
    _add_common(sp.add_parser("graph", help="bipartite graph and chordality"))
    _add_common(sp.add_parser("polyomino", help="band cells and convexity"))
    _add_common(sp.add_parser("dim", help="dimension of the window subring"))

    gb = sp.add_parser("gb", help="Groebner basis of the window ideal")
    _add_common(gb)
    gb.add_argument("--order", choices=ORDER_KINDS + ("auto",), default="auto")

    fib = sp.add_parser("fiber", help="toric fiber certificate")
    _add_common(fib)
    fib.add_argument("--degree", type=_at_least(2, "degree bound"), default=4)

    bt = sp.add_parser("betti", help="graded Betti numbers of the window ideal")
    _add_common(bt)
    bt.add_argument("--field", type=_parse_field, default=DEFAULT_FIELD)
    bt.add_argument("--jmax", type=_at_least(2, "degree bound"), default=None)
    bt.add_argument("--cap-vars", type=_at_least(1, "variable cap"), default=VAR_CAP)
    bt.add_argument("--hilbert", type=_at_least(0, "degree"), default=None, metavar="DMAX")

    cl = sp.add_parser("classify", help="linear resolution / linearly related verdicts")
    _add_common(cl)
    cl.add_argument("--mode", choices=CLASSIFY_MODES, default="shape-first")
    cl.add_argument("--field", type=_parse_field, default=DEFAULT_FIELD)
    cl.add_argument("--cap-vars", type=_at_least(1, "variable cap"), default=VAR_CAP)
    cl.add_argument("--expect-theorem", action="store_true",
                    help="verify shape verdicts against the oracle; exit 1 on disagreement")

    _add_common(sp.add_parser("enumerate-windows", help="windows keeping the ideal linearly related"),
                window=False)

    rd = sp.add_parser("render", help="ASCII or SVG picture")
    _add_common(rd, window=False)
    rd.add_argument("--window", type=_parse_window, default=None)
    rd.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    rd.add_argument("--out", default=None)

    cp = sp.add_parser("corpus", help="deterministic lattice corpus")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--count", type=int, default=20)
    cp.add_argument("--max-m", type=int, default=4)
    cp.add_argument("--max-n", type=int, default=4)
    cp.add_argument("--families", default="named,full-grid,band,staircase")

    st = sp.add_parser("suite", help="full cross-checked report")
    _add_common(st)
    st.add_argument("--order", choices=ORDER_KINDS + ("auto",), default="auto")
    st.add_argument("--field", type=_parse_field, default=DEFAULT_FIELD)
    st.add_argument("--cap-vars", type=_at_least(1, "variable cap"), default=VAR_CAP)
    st.add_argument("--fiber", action="store_true")
    st.add_argument("--betti", action="store_true")
    st.add_argument("--expect-theorem", action="store_true")
    st.add_argument("--name", default="lattice")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except VerificationFailed as exc:
        print(json.dumps({"error": exc.payload()}), file=sys.stderr)
        return 1
    except HibiLabError as exc:
        print(json.dumps({"error": exc.payload()}), file=sys.stderr)
        return 2 if exc.code in _INPUT_ERRORS else 3


class _Skipped(Exception):
    """The payload of a SKIPS error that a command's own check raised."""


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "corpus":
        spec = CorpusSpec(
            seed=args.seed,
            count=args.count,
            max_m=args.max_m,
            max_n=args.max_n,
            families=tuple(args.families.split(",")),
        )
        _emit(
            [
                {"name": name, "points": sorted(map(list, lat.points))}
                for name, lat in generate_corpus(spec)
            ]
        )
        return 0

    lattice = _read_lattice(args)

    if cmd == "validate":
        _emit(lattice_record(lattice))
        return 0

    if cmd == "enumerate-windows":
        wins = enumerate_linrel_windows(lattice)
        _emit({"windows": [[w.p, w.q] for w in wins]})
        return 0

    if cmd == "render":
        doc = render_figure(lattice, args.window, fmt=args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(doc)
            except OSError as exc:
                raise InvalidParameter(f"cannot write {args.out}: {exc}", out=args.out) from exc
        else:
            sys.stdout.write(doc)
        return 0

    if cmd == "suite":
        report = run_suite(
            lattice,
            windows=[args.window] if args.window else None,
            all_windows_flag=args.all_windows,
            proper_only=args.proper_only,
            with_fiber=args.fiber,
            with_betti=args.betti,
            verify=args.expect_theorem,
            order_kinds=args.order,
            field=args.field,
            var_cap=args.cap_vars,
            name=args.name,
        )
        print(report.to_json())
        return 1 if report.findings else 0

    # the windowed commands (module docstring): only a view's check may skip a window
    def check(fn, *fn_args, **kwargs):
        try:
            return fn(*fn_args, **kwargs)
        except SKIPS.get(cmd, ()) as exc:
            raise _Skipped(exc.payload()) from exc

    out = []
    for w in select_windows(lattice, [args.window] if args.window else None,
                            args.all_windows, args.proper_only):
        try:
            rec = _VIEWS[cmd](args, WindowContext(lattice, w, getattr(args, "order", "auto")), check)
        except _Skipped as skipped:
            rec = {"skipped": {cmd: skipped.args[0]}}
        out.append({**rec, "window": [w.p, w.q]})
    _emit(out)
    return 0


def _generators(args, ctx, check):
    return {"count": len(ctx.generators), "points": [list(p) for p in ctx.generators.points]}


def _graph(args, ctx, check):
    graph = bipartite_graph(ctx.lattice, ctx)
    cert = is_chordal_bipartite(graph)
    return {"edges": [list(e) for e in graph.edges], "chordal": cert.chordal,
            "witness": [list(v) for v in cert.chordless_cycle]}


def _polyomino(args, ctx, check):
    poly = ctx.polyomino
    return {"cells": sorted(map(list, poly.cells)), "vertices": sorted(map(list, poly.vertices)),
            "connected": poly.connected, "convex": check_convexity(poly)}


def _dim(args, ctx, check):
    return {"dimension": ctx.dimension}


def _gb(args, ctx, check):
    ideal = ctx.ideal
    gb, points = ideal.gb, ideal.ring.points

    def term(packed):
        pairs = [(points[k], e) for k, e in sorted(gb.layout.exponents(packed))]  # by variable
        text = "*".join([f"y_{{{i}{j}}}" + (f"^{e}" if e > 1 else "") for (i, j), e in pairs])
        return sorted([[list(pt), e] for pt, e in pairs]), text or "1"

    basis = []
    for lead, trail in gb.elements:  # the packed ints, read with no dense tuple
        (lead, lead_text), (trail, trail_text) = term(lead), term(trail)
        basis.append({"lead": lead, "trail": trail, "text": f"{lead_text} - {trail_text}"})
    return {"order": ideal.order.name, "quadratic": gb.quadratic, "squarefree": gb.squarefree,
            "spairs": gb.spairs_processed, "basis": basis}


def _fiber(args, ctx, check):
    cert = check(toric_fiber_oracle, ctx.ideal, degree=args.degree)
    return {"membership": cert.membership_ok, "generated": cert.generated,
            "gb_certified": cert.gb_certified,
            "per_degree": [{"degree": d.degree, "monomials": d.monomials, "fibers": d.fibers,
                            "target": d.target_dim, "rank": d.span_rank} for d in cert.per_degree]}


def _betti(args, ctx, check):
    ideal = ctx.ideal
    table = check(betti_numbers, ideal, field=args.field, j_max=args.jmax, var_cap=args.cap_vars)
    # after the check: the Krull search's budget stops the run
    rec = {"betti": table.to_json(),
           "krull": krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars)}
    if args.hilbert is not None:
        try:
            rec["hilbert"] = hilbert_function(ideal, args.hilbert)
        except SKIPS["hilbert"] as exc:
            rec["skipped"] = {"hilbert": exc.payload()}
    print(table.format_text(), file=sys.stderr)
    return rec


def _classify(args, ctx, check):
    route = verify_window if args.expect_theorem else partial(classify_window, mode=args.mode)
    return check(route, ctx.lattice, ctx, field=args.field, var_cap=args.cap_vars).to_json()


_VIEWS = {"generators": _generators, "graph": _graph, "polyomino": _polyomino, "dim": _dim,
          "gb": _gb, "fiber": _fiber, "betti": _betti, "classify": _classify}


if __name__ == "__main__":
    sys.exit(main())
