import json
import pathlib
from collections import Counter
from math import comb

import pytest

import hibilab.cli as cli
from hibilab.errors import (
    BudgetExceeded,
    DegreeInfeasible,
    Disconnected,
    InvalidParameter,
    NotConvex,
    ParseError,
)
from hibilab.lattice import validate_planar_lattice
from hibilab.render import render_ascii, render_figure, render_svg
from hibilab.reports import (
    CorpusSpec,
    demo_staircase,
    full_grid,
    generate_corpus,
    parse_input,
    run_suite,
)


class TestParseInput:
    def test_points(self):
        lat = parse_input('{"points": [[0,0],[1,0],[0,1],[1,1]]}')
        assert lat.points == full_grid(1, 1).points

    def test_poset(self):
        doc = {
            "poset": {
                "elements": ["a", "b", "c", "x"],
                "relations": [["a", "b"], ["b", "c"]],
            }
        }
        lat = parse_input(json.dumps(doc))
        assert lat.points == full_grid(3, 1).points

    def test_malformed_json_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_input("{not json")
        assert "position" in err.value.details

    @pytest.mark.parametrize("doc", [
        pytest.param('{"points": [[0, 0], [1]]}', id="short-point"),
        pytest.param('{"points": [[0, 0], [true, 0], [0, 1], [1, 1]]}', id="bool-coordinate"),
        pytest.param('{"points": [[0, 0], [1.0, 0]]}', id="float-coordinate"),
        pytest.param('{"poset": ["a"]}', id="poset-not-an-object"),
        pytest.param('{"poset": {"relations": []}}', id="no-elements"),
        pytest.param('{"poset": {"elements": "ab"}}', id="string-elements"),
        pytest.param('{"poset": {"elements": 5}}', id="int-elements"),
        pytest.param('{"poset": {"elements": [true]}}', id="bool-element"),
        pytest.param('{"poset": {"elements": [[1]], "relations": []}}', id="unhashable-element"),
        pytest.param('{"poset": {"elements": ["a", "b"], "relations": [[["a"], "b"]]}}',
                     id="unhashable-relation-label"),
        pytest.param('{"poset": {"elements": ["a", "b"], "relations": ["ab"]}}', id="string-relation"),
        pytest.param('{"poset": {"elements": ["a", "b"], "relations": [["a", "b", "a"]]}}',
                     id="relation-of-three"),
        pytest.param('{"poset": {"elements": ["a", "b"], "relations": {"a": "b"}}}',
                     id="relations-not-a-list"),
    ])
    def test_bad_points_schema(self, doc):
        """A document whose points or poset is not of the documented shape
        raises ParseError, never a TypeError or a lattice of bools."""
        with pytest.raises(ParseError):
            parse_input(doc)

    def test_poset_of_int_labels(self):
        lat = parse_input('{"poset": {"elements": [0, 1, "x"], "relations": [[0, 1]]}}')
        assert lat.points == full_grid(2, 1).points

    def test_validation_errors_pass_through(self):
        from hibilab.errors import NotJoinClosed

        with pytest.raises(NotJoinClosed):
            parse_input('{"points": [[0,0],[1,0],[0,1]]}')


class TestCorpus:
    def test_deterministic(self):
        a = generate_corpus(CorpusSpec(seed=7, count=15))
        b = generate_corpus(CorpusSpec(seed=7, count=15))
        assert [(n, sorted(l.points)) for n, l in a] == [
            (n, sorted(l.points)) for n, l in b
        ]

    def test_all_validate(self):
        for name, lat in generate_corpus(CorpusSpec(seed=11, count=30, max_m=5, max_n=5)):
            revalidated = validate_planar_lattice(lat.points)
            assert revalidated.points == lat.points, name

    def test_named_members_present(self):
        names = {n for n, _ in generate_corpus(CorpusSpec(seed=0, count=10))}
        assert "staircase-5x4" in names
        assert "ell-3x3" in names

    def test_single_grid_family(self):
        got = generate_corpus(
            CorpusSpec(seed=0, count=1, max_m=2, max_n=2, families=("full-grid",))
        )
        assert got[0][1].points == full_grid(2, 2).points

    @pytest.mark.parametrize("spec, details", [
        (CorpusSpec(max_m=0), {"max_m": 0}),
        (CorpusSpec(max_n=0), {"max_n": 0}),
        (CorpusSpec(max_n=-1), {"max_n": -1}),
        (CorpusSpec(count=-5, families=("staircase",)), {"count": -5}),
        (CorpusSpec(families=("named", "bogus")), {"family": "bogus"}),
    ])
    def test_out_of_range_spec_rejected(self, spec, details):
        with pytest.raises(InvalidParameter) as err:
            generate_corpus(spec)
        assert err.value.details == details


class TestRender:
    def test_ascii_marks_generators_and_cells(self):
        doc = render_ascii(demo_staircase(), (3, 7))
        assert doc.count("*") == 14
        assert doc.count("#") == 5
        assert "window ranks 3..7" in doc

    def test_ascii_plain_lattice(self):
        doc = render_ascii(full_grid(1, 1))
        assert doc.count("o") == 4

    def test_svg_deterministic_and_marks_generators(self):
        a = render_svg(demo_staircase(), (3, 7))
        b = render_svg(demo_staircase(), (3, 7))
        assert a == b
        assert a.count('r="6"') == 14
        assert a.count("<rect") == 5 + 1  # cells plus background
        assert a.count("stroke-dasharray") == 2

    def test_render_figure_dispatch(self):
        assert render_figure(full_grid(1, 1), fmt="ascii").startswith("o")
        assert render_figure(full_grid(1, 1), fmt="svg").startswith("<svg")
        with pytest.raises(ValueError):
            render_figure(full_grid(1, 1), fmt="png")


class TestRunSuite:
    def test_grid_full_checks_clean(self):
        rep = run_suite(full_grid(2, 2), all_windows_flag=True, with_fiber=True, verify=True)
        assert rep.findings == []
        assert len(rep.stable["windows"]) == 10

    def test_staircase_report_contents(self):
        rep = run_suite(demo_staircase(), windows=[(3, 7)], with_fiber=True)
        rec = rep.stable["windows"][0]
        assert rec["generators"] == 14
        assert rec["cells"] == 5
        assert rec["dimension"] == 9
        assert rec["krull"] == 9
        assert rec["gb"]["quadratic"] and rec["gb"]["squarefree"]
        assert rec["fiber"]["generated"] and rec["fiber"]["gb_certified"]

    def test_byte_identical_stable_section(self):
        a = run_suite(full_grid(2, 2), all_windows_flag=True)
        b = run_suite(full_grid(2, 2), all_windows_flag=True)
        assert a.to_json(include_timings=False) == b.to_json(include_timings=False)
        assert a.stable["schema"] == 1

    def test_full_12x12_grid_answers(self):
        # the Krull search met its budget here before its bound took the
        # greedy cliques of the lead graph, which run up the grid's diagonals
        rep = run_suite(full_grid(12, 12), windows=[(0, 24)])
        rec = rep.stable["windows"][0]
        assert rep.findings == [] and rec["skipped"] == []
        assert rec["krull"] == rec["dimension"] == 25

    def test_full_20x20_grid_is_certified_by_counting(self):
        # rank-lex is decided by counting |L_2| and |L_3|, one column sumset
        # each on the grid's one class of rows; its lead pairs sharing a
        # variable, reported as S-pairs, are far past the S-pair budget,
        # which holds only for pairs that Buchberger processes
        from hibilab.errors import SPAIR_LIMIT

        rep = run_suite(full_grid(20, 20), windows=[(0, 40)])
        rec = rep.stable["windows"][0]
        assert rep.findings == [] and rec["skipped"] == []
        assert rec["krull"] == rec["dimension"] == 41
        gb = rec["gb"]
        assert (gb["order"], gb["quadratic"], gb["squarefree"]) == ("rank-lex", True, True)
        assert gb["spairs"] == 9_961_700 > SPAIR_LIMIT

    def test_shape_route_covers_oversize_connected_window(self):
        rep = run_suite(demo_staircase(), windows=[(0, 9)])
        rec = rep.stable["windows"][0]
        assert rep.findings == []
        assert rec["verdict"]["basis"]["linear_resolution"].startswith("shape")

    def test_oversize_verification_skipped_not_failed(self):
        rep = run_suite(demo_staircase(), windows=[(0, 9)], verify=True)
        rec = rep.stable["windows"][0]
        assert rep.findings == []
        assert any("classify" in s for s in rec["skipped"])

    def test_no_qualifying_order_skips_classify_and_keeps_the_finding(
        self, no_qualifying_order
    ):
        from hibilab.binomials import ORDER_KINDS

        rep = run_suite(
            demo_staircase(), all_windows_flag=True, verify=True, order_kinds="rank-revlex"
        )
        cubic = {tuple(f["window"]) for f in rep.findings}
        assert {f["check"] for f in rep.findings} == {"quadratic-squarefree-gb"}
        assert len(cubic) == 8
        for rec in rep.stable["windows"]:
            failed = [s["classify"] for s in rec["skipped"]
                      if s["classify"]["code"] == "precondition-failed"]
            if tuple(rec["window"]) in cubic:
                assert failed == [{
                    "code": "precondition-failed",
                    "message": "no candidate order gives a quadratic squarefree basis",
                    "details": {"orders_tried": list(ORDER_KINDS)},
                }]
                assert "verdict" not in rec
            else:
                assert failed == []

    def test_the_oracles_search_once_per_cubic_window(self, monkeypatch):
        """Under rank-lex 8 of the 45 demo staircase windows have a cubic
        basis.  verify asks both oracles on each, once per predicate; the
        linear-relatedness oracle reads the quadratic
        squarefree basis, WindowIdeal.quadratic_gb, searched under auto once
        per window, next to the 45 searches of the windows' own order.  Read
        twice on one ideal, at both primes, the basis is searched once."""
        import hibilab.binomials as binomials_mod
        from hibilab.betti import is_linearly_related_oracle
        from hibilab.binomials import window_ideal

        real, searched = binomials_mod.order_search, Counter()

        def spy(ring, pairs, kinds="auto"):
            searched[kinds] += 1
            return real(ring, pairs, kinds)

        monkeypatch.setattr(binomials_mod, "order_search", spy)
        rep = run_suite(
            demo_staircase(), all_windows_flag=True, order_kinds="rank-lex", verify=True, var_cap=30
        )
        assert [f["check"] for f in rep.findings] == ["quadratic-squarefree-gb"] * 8
        assert all("verdict" in rec and not rec["skipped"] for rec in rep.stable["windows"])
        assert searched == {"rank-lex": 45, "auto": 8}
        cubic = window_ideal(demo_staircase(), tuple(rep.findings[0]["window"]), "rank-lex")
        assert not cubic.gb.quadratic
        answers = {is_linearly_related_oracle(cubic, field=p, var_cap=30) for p in (32003, 65537)}
        assert len(answers) == 1 and searched["auto"] == 9

    @pytest.mark.parametrize("check", [
        "join-irreducible-count", "chordal-bipartite", "convexity",
        "vertices-in-generators", "dimension-formula", "fiber-certificate",
    ])
    def test_each_cross_check_fires(self, capsys, monkeypatch, check):
        """Each cross-check of run_suite, its source made to lie through the
        reports binding, records its finding on the 2x2 grid's full window,
        and `hibilab suite` reports the same and exits 1."""
        import dataclasses

        import hibilab.reports as reports_mod
        from hibilab.windows import WindowContext
        from window_helpers import polyomino_from_cells

        class FarCells(WindowContext):
            @property
            def polyomino(self):  # the window's cells, moved off its points
                return polyomino_from_cells((i + 100, j) for i, j in super().polyomino.cells)

        real = {name: getattr(reports_mod, name) for name in (
            "lattice_record", "is_chordal_bipartite", "toric_fiber_oracle")}
        name, lie, keys = {
            "join-irreducible-count": (
                "lattice_record",
                lambda lat: {**real["lattice_record"](lat), "join_irreducibles": lat.rank + 1},
                {"got", "want"}),
            "chordal-bipartite": (
                "is_chordal_bipartite",
                lambda graph: dataclasses.replace(real["is_chordal_bipartite"](graph), chordal=False),
                {"window", "witness"}),
            "convexity": ("check_convexity", lambda poly: False, {"window"}),
            "vertices-in-generators": ("WindowContext", FarCells, {"window"}),
            "dimension-formula": (
                "krull_dimension_via_initial", lambda supports, nvars: -1,
                {"window", "dimension", "krull"}),
            "fiber-certificate": (
                "toric_fiber_oracle",
                lambda ideal, degree: dataclasses.replace(
                    real["toric_fiber_oracle"](ideal, degree=degree), membership_ok=False),
                {"window"}),
        }[check]
        monkeypatch.setattr(reports_mod, name, lie)
        findings = run_suite(full_grid(2, 2), with_fiber=True).findings
        assert [(f["check"], set(f) - {"check"}) for f in findings] == [(check, keys)]
        grid = json.dumps({"points": sorted(map(list, full_grid(2, 2).points))})
        code, out, _ = run_cli(capsys, ["suite", "--fiber"], grid, monkeypatch)
        assert code == 1 and json.loads(out)["stable"]["findings"] == findings

    def test_var_cap_none_caps_no_oracle(self):
        """None is no cap for the linear-relatedness oracle (the
        linear-resolution oracle, a count, has none): on every demo
        staircase window (at most 23 variables) the verdicts are those of a
        cap of 30."""
        from hibilab.classify import classify_window

        grid = full_grid(2, 2)
        assert classify_window(grid, (1, 3), mode="oracle-only", var_cap=None) == (
            classify_window(grid, (1, 3), mode="oracle-only"))

        def verdicts(var_cap):
            rep = run_suite(demo_staircase(), all_windows_flag=True, verify=True, var_cap=var_cap)
            return {tuple(rec["window"]): (rec.get("verdict"), rec["skipped"])
                    for rec in rep.stable["windows"]}

        uncapped = verdicts(None)
        assert len(uncapped) == 45 and uncapped == verdicts(30)
        assert all(verdict and not skipped for verdict, skipped in uncapped.values())


def run_cli(capsys, argv, stdin_doc=None, monkeypatch=None):
    import io
    import sys

    if stdin_doc is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_doc))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


SQUARE = '{"points": [[0,0],[1,0],[0,1],[1,1]]}'
STAIRCASE = json.dumps({"points": sorted(map(list, demo_staircase().points))})
GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestCli:
    def test_validate(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["validate"], SQUARE, monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == 2 and doc["simple"]

    def test_generators(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["generators", "--window", "0,2"], SQUARE, monkeypatch
        )
        assert code == 0
        assert json.loads(out)[0]["count"] == 4

    def test_gb(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["gb", "--window", "0,2"], SQUARE, monkeypatch)
        doc = json.loads(out)[0]
        assert code == 0 and doc["quadratic"] and len(doc["basis"]) == 1

    def test_betti(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["betti", "--window", "0,2"], SQUARE, monkeypatch)
        doc = json.loads(out)[0]
        assert code == 0
        assert doc["betti"]["entries"] == [{"i": 0, "j": 2, "value": 1}]
        assert doc["krull"] == 3

    def test_classify_all_windows(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["classify", "--all-windows", "--expect-theorem"],
            SQUARE,
            monkeypatch,
        )
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_classify_reproduces_window_list(self, capsys, monkeypatch):
        # linearly related verdicts over all windows = enumerated list plus
        # the degenerate (zero-ideal) windows
        grid = json.dumps({"points": sorted(map(list, full_grid(2, 2).points))})
        code, out, _ = run_cli(
            capsys, ["classify", "--all-windows"], grid, monkeypatch
        )
        assert code == 0
        verdicts = json.loads(out)
        related = {tuple(v["window"]) for v in verdicts if v["linearly_related"]}
        degenerate = {
            tuple(v["window"])
            for v in verdicts
            if v["basis"]["linearly_related"] == "degenerate"
        }
        listed = {(0, 2), (0, 3), (0, 4), (1, 4), (2, 4)}
        assert listed <= related
        assert related - listed <= degenerate

    def test_classify_skips_over_cap_windows_like_suite(self, capsys, monkeypatch):
        grid = json.dumps({"points": sorted(map(list, full_grid(2, 2).points))})
        code, out, _ = run_cli(
            capsys, ["classify", "--all-windows", "--expect-theorem", "--cap-vars", "7"],
            grid, monkeypatch,
        )
        assert code == 0
        records = json.loads(out)
        skipped = {tuple(r["window"]): r["skipped"] for r in records if "skipped" in r}
        rep = run_suite(full_grid(2, 2), all_windows_flag=True, verify=True, var_cap=7)
        want = {tuple(r["window"]): r["skipped"][0] for r in rep.stable["windows"]
                if r["skipped"]}
        assert skipped == want and set(want) == {(0, 3), (0, 4), (1, 4)}
        assert len(records) == len(rep.stable["windows"])

    def test_betti_skips_over_cap_windows_like_suite(self, capsys, monkeypatch):
        grid = json.dumps({"points": sorted(map(list, full_grid(2, 2).points))})
        code, out, _ = run_cli(
            capsys, ["betti", "--all-windows", "--cap-vars", "7"], grid, monkeypatch
        )
        assert code == 0
        records = json.loads(out)
        rep = run_suite(full_grid(2, 2), all_windows_flag=True, with_betti=True, var_cap=7)
        assert [r["window"] for r in records] == [r["window"] for r in rep.stable["windows"]]
        for got, want in zip(records, rep.stable["windows"]):
            if want["skipped"]:
                assert got == {"window": want["window"], "skipped": want["skipped"][0]}
            else:
                assert got["betti"] == want["betti"]
        skipped = {tuple(r["window"]) for r in records if "skipped" in r}
        assert skipped == {(0, 3), (0, 4), (1, 4)}

    @pytest.mark.parametrize("degree", [4, 5])
    def test_fiber_all_windows_matches_golden(self, capsys, monkeypatch, degree):
        """`hibilab fiber --all-windows` on the demo staircase prints, byte
        for byte, what it printed before the oracle read packed terms."""
        argv = ["fiber", "--all-windows", "--degree", str(degree)]
        code, out, _ = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        golden = GOLDEN / f"staircase_fiber_all_d{degree}.json"
        assert code == 0 and out == golden.read_text()

    @pytest.mark.parametrize("argv, golden", [
        (["generators", "--all-windows"], "staircase_generators_all.json"),
        (["graph", "--all-windows"], "staircase_graph_all.json"),
        (["polyomino", "--all-windows"], "staircase_polyomino_all.json"),
        (["dim", "--all-windows"], "staircase_dim_all.json"),
        (["classify", "--all-windows", "--expect-theorem"], "staircase_classify_all_expect.json"),
        # a cubic basis by Buchberger, and a quadratic one by counting
        (["gb", "--window", "1,7", "--order", "rank-lex"], "staircase_gb_w17_ranklex.json"),
        (["gb", "--window", "3,7"], "staircase_gb_w37.json"),
    ])
    def test_windowed_command_matches_golden(self, capsys, monkeypatch, argv, golden):
        """Each windowed subcommand on the demo staircase prints, byte for
        byte, what it printed when each had its own window loop."""
        code, out, _ = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        assert code == 0 and out == (GOLDEN / golden).read_text()

    def test_s_pair_limit_of_the_ideal_stops_the_fiber_run(self, capsys, monkeypatch):
        """Only the fiber oracle's budget skips a fiber window: the S-pair
        limit of the window's ideal build stops the run with exit 3, and no
        window is recorded."""
        import hibilab.binomials as binomials_mod

        def exhausted(*args, **kwargs):
            raise DegreeInfeasible("S-pair budget exhausted", budget=500_000, spairs=500_001)

        monkeypatch.setattr(binomials_mod, "window_ideal", exhausted)
        code, out, err = run_cli(capsys, ["fiber", "--all-windows"], STAIRCASE, monkeypatch)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {"code": "degree-infeasible",
                                             "message": "S-pair budget exhausted",
                                             "details": {"budget": 500_000, "spairs": 500_001}}}

    def test_s_pair_limit_in_the_fiber_oracle_stops_the_run(self, capsys, monkeypatch):
        """The fiber skip names the oracle's monomial budget alone: an S-pair
        limit raised inside the fiber oracle stops `hibilab fiber` with exit
        3 and no window recorded, and run_suite raises it."""
        import hibilab.reports as reports_mod

        def exhausted(ideal, degree):
            raise DegreeInfeasible("S-pair budget exhausted", budget=500_000, spairs=500_001)

        monkeypatch.setattr(cli, "toric_fiber_oracle", exhausted)
        monkeypatch.setattr(reports_mod, "toric_fiber_oracle", exhausted)
        code, out, err = run_cli(capsys, ["fiber", "--all-windows"], STAIRCASE, monkeypatch)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"]["code"] == "degree-infeasible"
        with pytest.raises(DegreeInfeasible):
            run_suite(demo_staircase(), all_windows_flag=True, with_fiber=True, with_classify=False)

    def test_krull_budget_stops_the_betti_run(self, capsys, monkeypatch):
        """Only betti_numbers' limits skip a betti window: the Krull search's
        budget stops the run with exit 3, and no window is recorded."""
        def tripped(supports, nvars):
            raise BudgetExceeded("Krull dimension search exceeds budget", budget=1000, nodes=1001)

        monkeypatch.setattr(cli, "krull_dimension_via_initial", tripped)
        argv = ["betti", "--all-windows", "--cap-vars", "7"]
        code, out, err = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {"code": "budget-exceeded",
                                             "message": "Krull dimension search exceeds budget",
                                             "details": {"budget": 1000, "nodes": 1001}}}

    def test_fiber_budget_skips_the_window_not_the_run(self, capsys, monkeypatch):
        """A window whose fiber oracle trips the budget records the skip, as
        the suite does; the other windows answer as in the golden file, and
        the run exits 0."""
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        code, out, _ = run_cli(capsys, ["fiber", "--all-windows"], STAIRCASE, monkeypatch)
        assert code == 0
        golden = GOLDEN / "staircase_fiber_all_d4.json"
        suite = run_suite(demo_staircase(), all_windows_flag=True, with_fiber=True, with_classify=False)
        skipped = 0
        for got, want, rec in zip(json.loads(out), json.loads(golden.read_text()),
                                  suite.stable["windows"], strict=True):
            assert got["window"] == want["window"] == rec["window"]
            if "skipped" in got:
                assert got["skipped"] == rec["skipped"][0]
                assert got["skipped"]["fiber"]["code"] == "budget-exceeded"
                assert got["skipped"]["fiber"]["details"]["budget"] == 1000
                skipped += 1
            else:
                assert got == want and rec["skipped"] == []
        assert skipped == 21

    def test_betti_all_windows_matches_golden(self, capsys, monkeypatch):
        """`hibilab betti --all-windows --cap-vars 9` on the demo staircase
        prints, byte for byte, what it printed before faces were bounded by
        the projective dimension."""
        argv = ["betti", "--all-windows", "--cap-vars", "9"]
        code, out, _ = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        golden = GOLDEN / "staircase_betti_all_cap9.txt"
        assert code == 0 and out == golden.read_text()

    def test_betti_hilbert_matches_golden(self, capsys, monkeypatch):
        """`hibilab betti --all-windows --cap-vars 9 --hilbert 4` on the demo
        staircase prints, byte for byte, what it printed before the standard
        monomials were enumerated on packed ints."""
        argv = ["betti", "--all-windows", "--cap-vars", "9", "--hilbert", "4"]
        code, out, _ = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        golden = GOLDEN / "staircase_betti_hilbert4_cap9.json"
        assert code == 0 and out == golden.read_text()

    def test_betti_hilbert_budget_skips_the_window_not_the_run(self, capsys, monkeypatch):
        """A window whose Hilbert function trips the budget records the skip
        and keeps its table and krull; the other windows answer, and the run
        exits 0."""
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        argv = ["betti", "--all-windows", "--cap-vars", "9", "--hilbert", "6"]
        code, out, _ = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        assert code == 0
        golden = GOLDEN / "staircase_betti_hilbert4_cap9.json"
        answered = skipped = 0
        for got, want in zip(json.loads(out), json.loads(golden.read_text()), strict=True):
            if "betti" not in want:  # over the cap: no table, no Hilbert function
                assert got == want
                continue
            assert (got["window"], got["betti"], got["krull"]) == (want["window"], want["betti"], want["krull"])
            nvars = got["betti"]["nvars"]
            tripped = [(d, comb(nvars + d - 1, d)) for d in range(7) if comb(nvars + d - 1, d) > 1000]
            if tripped:
                degree, count = tripped[0]
                assert "hilbert" not in got and got["skipped"] == {"hilbert": {
                    "code": "budget-exceeded", "message": f"degree {degree} enumeration exceeds budget",
                    "details": {"budget": 1000, "monomials": count}}}, got["window"]
                skipped += 1
            else:
                assert "skipped" not in got and got["hilbert"][:5] == want["hilbert"], got["window"]
                answered += 1
        assert answered > 0 and skipped > 0, (answered, skipped)

    def test_betti_degree_bound_past_nvars_finishes(self, capsys, monkeypatch):
        argv = ["betti", "--all-windows", "--cap-vars", "7"]
        code, out, _ = run_cli(capsys, argv + ["--jmax", "40"], STAIRCASE, monkeypatch)
        assert code == 0
        bounded = json.loads(out)
        code, out, _ = run_cli(capsys, argv, STAIRCASE, monkeypatch)
        default = json.loads(out)
        assert [r["window"] for r in bounded] == [r["window"] for r in default]
        for got, want in zip(bounded, default):
            if "betti" in want:
                assert got["betti"]["j_max"] == 40
                assert got["betti"]["entries"] == want["betti"]["entries"]
        assert any("betti" in r for r in default)

    def test_classify_skips_windows_with_no_qualifying_order(
        self, capsys, monkeypatch, no_qualifying_order
    ):
        from hibilab.binomials import ORDER_KINDS

        # the window's own search, under auto, fails too, so the oracles search again
        grid = json.dumps({"points": sorted(map(list, full_grid(2, 2).points))})
        code, out, _ = run_cli(
            capsys, ["classify", "--window", "1,3", "--expect-theorem"], grid, monkeypatch
        )
        assert code == 0
        skip = {"classify": {
            "code": "precondition-failed",
            "message": "no candidate order gives a quadratic squarefree basis",
            "details": {"orders_tried": list(ORDER_KINDS)},
        }}
        assert json.loads(out) == [{"window": [1, 3], "skipped": skip}]

    def test_classify_skips_budget_tripped_windows_like_suite(self, capsys, monkeypatch):
        # an oracle that trips its budget, under the smallest budget for the rest
        import hibilab.classify as classify_mod

        def tripped(*args, **kwargs):
            raise BudgetExceeded(
                "10 support variables exceed the subset budget", budget=1000, masks=1024
            )

        monkeypatch.setattr(classify_mod, "has_linear_resolution_oracle", tripped)
        monkeypatch.setenv("HIBI_LAB_BUDGET", "1000")
        grid = json.dumps({"points": sorted(map(list, full_grid(3, 2).points))})
        code, out, _ = run_cli(
            capsys, ["classify", "--window", "0,5", "--expect-theorem"], grid, monkeypatch
        )
        assert code == 0
        skip = {"classify": {
            "code": "budget-exceeded",
            "message": "10 support variables exceed the subset budget",
            "details": {"budget": 1000, "masks": 1024},
        }}
        assert json.loads(out) == [{"window": [0, 5], "skipped": skip}]
        rep = run_suite(full_grid(3, 2), windows=[(0, 5)], verify=True)
        rec = rep.stable["windows"][0]
        assert rep.findings == [] and rec["krull"] == rec["dimension"]
        assert rec["skipped"] == [skip]

    def test_enumerate_windows(self, capsys, monkeypatch):
        grid = json.dumps(
            {"points": sorted(map(list, full_grid(2, 2).points))}
        )
        code, out, _ = run_cli(capsys, ["enumerate-windows"], grid, monkeypatch)
        assert code == 0
        assert json.loads(out)["windows"] == [[0, 2], [0, 3], [0, 4], [1, 4], [2, 4]]

    def test_corpus(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["corpus", "--count", "5"], None, monkeypatch)
        assert code == 0
        assert len(json.loads(out)) >= 5

    def test_render_svg_to_file(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "fig.svg"
        code, out, _ = run_cli(
            capsys,
            ["render", "--window", "0,2", "--format", "svg", "--out", str(target)],
            SQUARE,
            monkeypatch,
        )
        assert code == 0
        assert target.read_text().startswith("<svg")

    def test_render_into_a_missing_directory_exits_2(self, capsys, monkeypatch, tmp_path):
        target = str(tmp_path / "missing" / "fig.txt")
        code, out, err = run_cli(capsys, ["render", "--window", "0,2", "--out", target], SQUARE, monkeypatch)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-parameter" and error["details"] == {"out": target}

    def test_render_takes_no_window_selection_flags(self, capsys, monkeypatch):
        for flag in ("--all-windows", "--proper-only"):
            with pytest.raises(SystemExit) as exc:
                run_cli(capsys, ["render", flag], SQUARE, monkeypatch)
            assert exc.value.code == 2

    def test_parse_error_exit_code(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["validate"], "oops", monkeypatch)
        assert code == 2
        assert json.loads(err)["error"]["code"] == "parse-error"

    def test_invalid_window_exit_code(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["generators", "--window", "5,1"], SQUARE, monkeypatch
        )
        assert code == 2
        assert json.loads(err)["error"]["code"] == "invalid-window"

    def test_suite_ok(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys, ["suite", "--all-windows", "--expect-theorem"], SQUARE, monkeypatch
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["stable"]["findings"] == []

    def test_suite_detects_corrupted_classifier(self, capsys, monkeypatch):
        # harness self-test: a classifier forced to lie must flip the exit code
        import hibilab.classify as classify_mod

        def broken(poly):
            return True

        monkeypatch.setattr(classify_mod, "has_linear_resolution_shape", broken)
        grid = json.dumps({"points": sorted(map(list, full_grid(2, 2).points))})
        code, out, _ = run_cli(
            capsys,
            ["suite", "--window", "0,3", "--expect-theorem"],
            grid,
            monkeypatch,
        )
        assert code == 1
        doc = json.loads(out)
        assert any(
            f["check"] == "classifier-oracle-agreement" for f in doc["stable"]["findings"]
        )


class TestInputErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--field", "4", "--fiber"],
            ["betti", "--window", "0,2", "--field", "4"],
            ["classify", "--field", "4294967311"],
            ["fiber", "--window", "0,2", "--degree", "1"],
            ["betti", "--window", "0,2", "--jmax", "1"],
            ["betti", "--window", "0,2", "--hilbert", "-2"],
            ["betti", "--window", "0,2", "--cap-vars", "-3"],
            ["classify", "--cap-vars", "0"],
            ["suite", "--cap-vars", "0"],
        ],
    )
    def test_bad_parameter_exits_2(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, argv, SQUARE, monkeypatch)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["abc", "5"])
    def test_bad_budget_exits_2(self, capsys, monkeypatch, budget):
        monkeypatch.setenv("HIBI_LAB_BUDGET", budget)
        code, out, err = run_cli(capsys, ["fiber", "--window", "0,2"], SQUARE, monkeypatch)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "invalid-parameter"
        assert error["details"] == {"HIBI_LAB_BUDGET": budget}

    @pytest.mark.parametrize("argv", [
        ["--max-m", "0"],
        ["--max-n", "0"],
        ["--max-n", "-1"],
        ["--families", "bogus"],
        ["--count", "-5", "--families", "staircase"],
    ])
    def test_bad_corpus_spec_exits_2(self, capsys, monkeypatch, argv):
        code, out, err = run_cli(capsys, ["corpus", *argv], None, monkeypatch)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["code"] == "invalid-parameter"

    @pytest.mark.parametrize("error", [NotConvex, Disconnected])
    def test_shape_precondition_exits_2(self, capsys, monkeypatch, error):
        def raising(args):
            raise error("corner criteria need a convex connected polyomino")

        monkeypatch.setattr(cli, "_dispatch", raising)
        assert cli.main(["validate"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["code"] == error.code

    def test_suite_rejects_field_up_front(self):
        with pytest.raises(InvalidParameter):
            run_suite(full_grid(1, 1), with_fiber=True, field=4)

    @pytest.mark.parametrize("var_cap", [0, -3])
    def test_suite_rejects_var_cap_up_front(self, monkeypatch, var_cap):
        import hibilab.reports as reports_mod

        def unreached(*args, **kwargs):
            raise AssertionError("a window was run")

        monkeypatch.setattr(reports_mod, "WindowContext", unreached)
        with pytest.raises(InvalidParameter) as err:
            run_suite(demo_staircase(), windows=[(3, 7)], var_cap=var_cap)
        assert err.value.details == {"var_cap": var_cap}

    @pytest.mark.parametrize("degree", [1, 0, -3])
    def test_fiber_degree_below_two_is_an_input_error(self, monkeypatch, degree):
        """The oracle rejects the degree bound as a parameter, and run_suite
        up front, before any window, not as a skip on every window."""
        import hibilab.reports as reports_mod
        from hibilab.binomials import toric_fiber_oracle, window_ideal

        ideal = window_ideal(demo_staircase(), (3, 7))
        with pytest.raises(InvalidParameter) as err:
            toric_fiber_oracle(ideal, degree=degree)
        assert err.value.details == {"degree": degree}

        def unreached(*args, **kwargs):
            raise AssertionError("a window was run")

        monkeypatch.setattr(reports_mod, "toric_fiber_oracle", unreached)
        monkeypatch.setattr(reports_mod, "WindowContext", unreached)
        with pytest.raises(InvalidParameter) as err:
            run_suite(demo_staircase(), windows=[(3, 7)], with_fiber=True, fiber_degree=degree)
        assert err.value.details == {"degree": degree}


def test_proper_only_same_rule_for_every_subcommand(capsys, monkeypatch):
    argv = ["--window", "0,2", "--proper-only"]
    code, out, _ = run_cli(capsys, ["classify", *argv], SQUARE, monkeypatch)
    assert code == 0 and json.loads(out) == []
    code, out, _ = run_cli(capsys, ["suite", *argv], SQUARE, monkeypatch)
    assert code == 0 and json.loads(out)["stable"]["windows"] == []
    code, out, _ = run_cli(capsys, ["dim", "--window", "0,1", "--proper-only"], SQUARE,
                           monkeypatch)
    assert code == 0 and json.loads(out) == [{"window": [0, 1], "dimension": 3}]


def test_one_build_per_window(monkeypatch):
    import sys

    calls = {}
    for module_name, fn_name in (("binomials", "buchberger"), ("binomials", "window_ideal"),
                                 ("windows", "generators"), ("windows", "polyomino")):
        original = getattr(sys.modules[f"hibilab.{module_name}"], fn_name)

        def counting(*args, _name=fn_name, _fn=original, **kwargs):
            result = _fn(*args, **kwargs)
            calls[_name] = calls.get(_name, 0) + 1
            if _name == "window_ideal":
                calls["orders_tried"] = calls.get("orders_tried", 0) + len(result.orders_tried)
            return result

        for name, module in list(sys.modules.items()):
            if name.startswith("hibilab.") and getattr(module, fn_name, None) is original:
                monkeypatch.setattr(module, fn_name, counting)
    rep = run_suite(demo_staircase(), all_windows_flag=True, verify=True)
    windows = len(rep.stable["windows"])
    assert windows == 45 and rep.findings == []
    assert calls["window_ideal"] == windows
    assert calls["polyomino"] == windows
    assert calls["generators"] == windows
    assert calls["buchberger"] <= calls["orders_tried"]


def test_cli_import_leaves_numpy_out():
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = "import sys, hibilab.cli; sys.exit('numpy' in sys.modules)"
    env = {"PYTHONPATH": str(src)}
    # a bytecode cache written here would change later import timings
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
