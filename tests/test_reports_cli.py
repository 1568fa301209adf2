import json

import pytest

import hibilab.cli as cli
from hibilab.errors import BudgetExceeded, Disconnected, InvalidParameter, NotConvex, ParseError
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

    def test_bad_points_schema(self):
        with pytest.raises(ParseError):
            parse_input('{"points": [[0, 0], [1]]}')

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


def run_cli(capsys, argv, stdin_doc=None, monkeypatch=None):
    import io
    import sys

    if stdin_doc is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_doc))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


SQUARE = '{"points": [[0,0],[1,0],[0,1],[1,1]]}'


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

    def test_betti_degree_bound_past_nvars_finishes(self, capsys, monkeypatch):
        staircase = json.dumps({"points": sorted(map(list, demo_staircase().points))})
        argv = ["betti", "--all-windows", "--cap-vars", "7"]
        code, out, _ = run_cli(capsys, argv + ["--jmax", "40"], staircase, monkeypatch)
        assert code == 0
        bounded = json.loads(out)
        code, out, _ = run_cli(capsys, argv, staircase, monkeypatch)
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
        import hibilab.betti as betti_mod
        import hibilab.binomials as binomials_mod
        from hibilab.binomials import ORDER_KINDS

        # the window's own search fails too, so the oracles search again
        monkeypatch.setattr(binomials_mod, "order_search", betti_mod.order_search)
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
