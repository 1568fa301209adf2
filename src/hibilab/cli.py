"""Command-line surface: one binary, scriptable subcommands, JSON on stdout."""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, HibiLabError, ParseError, VerificationFailed
from .windows import (
    WindowContext,
    bipartite_graph,
    check_convexity,
    is_chordal_bipartite,
    select_windows,
)
from .binomials import DEFAULT_FIELD, ORDER_KINDS, require_field, toric_fiber_oracle
from .betti import betti_numbers, hilbert_function, krull_dimension_via_initial
from .classify import classify_window, enumerate_linrel_windows, verify_window
from .render import render_figure
from .reports import CorpusSpec, generate_corpus, lattice_record, parse_input, run_suite

_INPUT_ERRORS = ("parse-error", "lattice-invalid", "missing-origin", "not-meet-closed",
                 "not-join-closed", "chain-condition-fails", "width-exceeds-two",
                 "invalid-window", "rank-too-small", "precondition-failed",
                 "invalid-parameter")


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


def _parse_degree(text):
    degree = int(text)
    if degree < 2:
        raise argparse.ArgumentTypeError(f"degree bound must be at least 2, got {degree}")
    return degree


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
    fib.add_argument("--degree", type=_parse_degree, default=4)

    bt = sp.add_parser("betti", help="graded Betti numbers of the window ideal")
    _add_common(bt)
    bt.add_argument("--field", type=_parse_field, default=DEFAULT_FIELD)
    bt.add_argument("--jmax", type=int, default=None)
    bt.add_argument("--cap-vars", type=int, default=12)
    bt.add_argument("--hilbert", type=int, default=None, metavar="DMAX")

    cl = sp.add_parser("classify", help="linear resolution / linearly related verdicts")
    _add_common(cl)
    cl.add_argument("--mode", choices=("shape-first", "oracle-only"), default="shape-first")
    cl.add_argument("--field", type=_parse_field, default=DEFAULT_FIELD)
    cl.add_argument("--cap-vars", type=int, default=12)
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
    st.add_argument("--cap-vars", type=int, default=12)
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
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc)
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

    ctxs = [
        WindowContext(lattice, w, getattr(args, "order", "auto"))
        for w in select_windows(lattice, [args.window] if args.window else None,
                                args.all_windows, args.proper_only)
    ]

    if cmd == "generators":
        _emit(
            [
                {"window": [ctx.window.p, ctx.window.q], "count": len(ctx.generators),
                 "points": [list(p) for p in ctx.generators.points]}
                for ctx in ctxs
            ]
        )
        return 0

    if cmd == "graph":
        out = []
        for ctx in ctxs:
            graph = bipartite_graph(lattice, ctx)
            cert = is_chordal_bipartite(graph)
            out.append(
                {"window": [ctx.window.p, ctx.window.q],
                 "edges": [list(e) for e in graph.edges],
                 "chordal": cert.chordal,
                 "witness": [list(v) for v in cert.chordless_cycle]}
            )
        _emit(out)
        return 0

    if cmd == "polyomino":
        out = []
        for ctx in ctxs:
            poly = ctx.polyomino
            out.append(
                {"window": [ctx.window.p, ctx.window.q],
                 "cells": sorted(map(list, poly.cells)),
                 "vertices": sorted(map(list, poly.vertices)),
                 "connected": poly.connected,
                 "convex": check_convexity(poly)}
            )
        _emit(out)
        return 0

    if cmd == "dim":
        _emit([{"window": [ctx.window.p, ctx.window.q], "dimension": ctx.dimension}
               for ctx in ctxs])
        return 0

    if cmd == "gb":
        out = []
        for ctx in ctxs:
            ideal = ctx.ideal
            basis = []
            for g in ideal.gb.basis:
                basis.append(
                    {
                        "lead": sorted([list(pt), e] for pt, e in ideal.ring.exponents_dict(g.lead).items()),
                        "trail": sorted([list(pt), e] for pt, e in ideal.ring.exponents_dict(g.trail).items()),
                        "text": f"{ideal.ring.format_monomial(g.lead)} - {ideal.ring.format_monomial(g.trail)}",
                    }
                )
            out.append(
                {"window": [ctx.window.p, ctx.window.q], "order": ideal.order.name,
                 "quadratic": ideal.gb.quadratic, "squarefree": ideal.gb.squarefree,
                 "spairs": ideal.gb.spairs_processed, "basis": basis}
            )
        _emit(out)
        return 0

    if cmd == "fiber":
        out = []
        for ctx in ctxs:
            ideal = ctx.ideal
            cert = toric_fiber_oracle(
                ideal.ring, ideal.generators, gb=ideal.gb, degree=args.degree
            )
            out.append(
                {"window": [ctx.window.p, ctx.window.q], "membership": cert.membership_ok,
                 "generated": cert.generated, "gb_certified": cert.gb_certified,
                 "per_degree": [
                     {"degree": d.degree, "monomials": d.monomials, "fibers": d.fibers,
                      "target": d.target_dim, "rank": d.span_rank}
                     for d in cert.per_degree
                 ]}
            )
        _emit(out)
        return 0

    if cmd == "betti":
        out = []
        for ctx in ctxs:
            ideal = ctx.ideal
            table = betti_numbers(
                ideal.ring, ideal.generators, field=args.field,
                j_max=args.jmax, var_cap=args.cap_vars,
            )
            entry = {"window": [ctx.window.p, ctx.window.q], "betti": table.to_json(),
                     "krull": krull_dimension_via_initial(ideal.gb, nvars=ideal.ring.nvars)}
            if args.hilbert is not None:
                entry["hilbert"] = hilbert_function(
                    ideal.gb, args.hilbert, nvars=ideal.ring.nvars
                )
            out.append(entry)
            print(table.format_text(), file=sys.stderr)
        _emit(out)
        return 0

    if cmd == "classify":
        out = []
        for ctx in ctxs:
            try:
                if args.expect_theorem:
                    verdict = verify_window(lattice, ctx, field=args.field, var_cap=args.cap_vars)
                else:
                    verdict = classify_window(
                        lattice, ctx, mode=args.mode, field=args.field, var_cap=args.cap_vars
                    )
            except CapExceeded as exc:
                out.append({"window": [ctx.window.p, ctx.window.q],
                            "skipped": {"classify": exc.payload()}})
                continue
            out.append(verdict.to_json())
        _emit(out)
        return 0

    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
