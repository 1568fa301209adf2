"""Mutation gate: each recorded mutant of the package must fail its gate.

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

A mutant is one exact text replacement in a file of src/hibilab, with the
tests named as its gate.  The runner copies src/ and tests/ into a
temporary directory, runs every gate there once unmutated (they must pass,
so that a mutant is not killed by an unrelated failure), then, for each
mutant in its own copy, two mutants at a time, applies the replacement and
runs only its gate.
The run fails when a mutant's old text does not occur exactly once in its
file (a rewrite must re-aim its mutants), when a gate does not pass
unmutated, or when a mutant's gate still passes (the mutant survives).
The checkout itself is only read.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/hibilab
    old: str
    new: str
    gate: tuple  # pytest node ids, relative to the checkout's root


MUTANTS = (
    # the independent triples of the lead graph, counted without its triangles
    Mutant(
        "lead-graph-triangles", "binomials.py",
        "triples = comb(nvars, 3) - len(leads) * (nvars - 2) + overlaps - triangles",
        "triples = comb(nvars, 3) - len(leads) * (nvars - 2) + overlaps",
        ("tests/test_order_search.py::test_lead_graph_counts_match_enumeration",),
    ),
    # the index route's orientation, revlex leading as lex does
    Mutant(
        "revlex-leads-as-lex", "binomials.py",
        'lex, keys = self.order.style == "lex", set()',
        "lex, keys = True, set()",
        ("tests/test_order_search.py::test_index_route_matches_the_packed_route_on_random_quadrics",),
    ),
    # the order search, a term that is not a quadric let through to the quadric codes
    Mutant(
        "order-search-any-degree", "binomials.py",
        "if degree != 2:  # the first term that is not a quadric",
        "if False:  # the first term that is not a quadric",
        ("tests/test_order_search.py::test_index_route_matches_the_packed_route_on_random_quadrics",),
    ),
    # a semigroup level whose additions overflow a field, let through
    Mutant(
        "level-guard", "betti.py",
        "if reduce(or_, level, 0) & guard:",
        "if False:",
        ("tests/test_betti.py::test_level_build_catches_fields_without_a_spare_bit",
         "tests/test_betti.py::test_betti_numbers_on_fields_without_a_spare_bit_fail_in_the_level_build"),
    ),
    # the bisimplicial test of the chordality elimination, subset flipped
    Mutant(
        "chordality-subset", "windows.py",
        "if need & ~rows[u.bit_length() - 1]:",
        "if rows[u.bit_length() - 1] & ~need:",
        ("tests/test_windows.py::test_mask_routes_match_the_reference_on_every_seed7_and_seed11_window",),
    ),
    # the straightening rectangles, the last column pair of each row pair dropped
    Mutant(
        "rectangle-last-pair", "binomials.py",
        "for k, (meet, b) in enumerate(columns):",
        "for k, (meet, b) in enumerate(columns[:-2]):",
        ("tests/test_windows.py::test_mask_routes_match_the_reference_on_every_seed7_and_seed11_window",),
    ),
    # the leaf peel of the semigroup, taking a row of two points for a leaf
    Mutant(
        "peel-degree-two", "binomials.py",
        "if r & r - 1 else 0",
        "if r.bit_count() > 2 else 0",
        ("tests/test_peeled_core.py::test_core_route_matches_the_references",),
    ),
    # the lift from the core, its b free variables dropped
    Mutant(
        "lift-without-free", "binomials.py",
        "return sum(comb(free + i - 1, i) * core[e - i] for i in range(e + 1))",
        "return core[e]",
        ("tests/test_peeled_core.py::test_core_route_matches_the_references",),
    ),
    # the semigroup's free count taken while the peel leaves a core, in the two lowest rows
    Mutant(
        "free-count-with-a-core", "binomials.py",
        "if not any(self._core_rows):  # a forest: every point is free",
        "if not any(self._core_rows[2:]):  # a forest: every point is free",
        ("tests/test_semigroup.py::test_class_counts_match_the_row_split_build",),
    ),
    # the semigroup level counted by row classes, each pair weighed as one row multiset
    Mutant(
        "class-weight-dropped", "binomials.py",
        "weight *= comb(mu + a - 1, a)",
        "weight *= 1",
        ("tests/test_semigroup.py::test_class_counts_match_the_row_split_build",),
    ),
    # the Koszul levels built on the semigroup's images as packed, not widened
    Mutant(
        "levels-not-widened", "betti.py",
        "images, guard = semigroup.wide(j_max), semigroup.guard",
        "images, guard = semigroup.images, semigroup.guard",
        ("tests/test_betti.py::TestBettiInternals::test_packed_levels_match_tuple_levels",
         "tests/test_betti.py::TestBettiInternals::test_two_primes_agree"),
    ),
    # the Koszul walk over the semigroup core, one core variable dropped
    Mutant(
        "core-drops-a-variable", "betti.py",
        "core = semigroup.core  # a peeled point changes no Betti number",
        "core = semigroup.core[1:]",
        ("tests/test_betti.py::test_euler_check_ties_the_core_walk_to_the_whole_ring",),
    ),
    # the lead-side count, leads above the degree bound kept and packed past their fields
    Mutant(
        "standard-high-leads", "binomials.py",
        "leads = [lead for d, lead, _, _ in terms if d <= degree]",
        "leads = [lead for d, lead, _, _ in terms]",
        ("tests/test_properties.py::test_standard_monomials_match_the_degree_filter",),
    ),
    # the standard monomials, each variable's divisor list that of the next
    Mutant(
        "standard-divisor-shift", "binomials.py",
        "divisors = [[lead for lead in leads if lead & unit * ones] for unit in units]",
        "divisors = [[lead for lead in leads if lead & unit * ones] for unit in units[1:] + units[:1]]",
        ("tests/test_properties.py::test_standard_monomials_match_the_degree_filter",),
    ),
    # the Hilbert function's check against the lead-side count, turned off
    Mutant(
        "hilbert-check-off", "betti.py",
        "if size != standard:",
        "if False:",
        ("tests/test_betti.py::TestHilbert::test_a_basis_whose_leads_miss_it_raises",),
    ),
    # the Krull face search, cutting a branch that could still beat the best by one
    Mutant(
        "krull-bound-early", "betti.py",
        "if size + bound <= best:",
        "if size + bound <= best + 1:",
        ("tests/test_betti.py::TestKrull::test_staircase_window",
         "tests/test_betti.py::TestKrull::test_search_budget"),
    ),
    # the Krull face search, a larger support let complete inside the face
    Mutant(
        "krull-completion-dropped", "betti.py",
        "nxt &= ~left",
        "pass",
        ("tests/test_betti.py::TestKrull::test_disjoint_triples_are_bounded_by_their_supports",
         "tests/test_properties.py::test_krull_search_matches_exhaustive_on_random_hypergraphs"),
    ),
    # the linear-resolution oracle's h-vector count, shifted by one
    Mutant(
        "linear-count-shifted", "betti.py",
        "return ring.semigroup.size(2) == comb(d + 1, 2) + (ring.nvars - d) * d",
        "return ring.semigroup.size(2) == comb(d + 1, 2) + (ring.nvars - d) * d + 1",
        ("tests/test_properties.py::test_linear_resolution_count_matches_the_lead_graph_reference",),
    ),
    # the gluing test of the linear-relatedness oracle, joining a support
    # whose intersection with the union is disconnected
    Mutant(
        "glue-disconnected", "betti.py",
        "if meet and reach == meet:",
        "if meet:",
        ("tests/test_properties.py::test_gluing_is_sound_on_random_families_of_simplices",
         "tests/test_betti.py::TestOracles::test_a_cycle_of_simplices_does_not_glue"),
    ),
    # the gluing test, joining a support that misses the union
    Mutant(
        "glue-empty", "betti.py",
        "if meet and reach == meet:",
        "if reach == meet:",
        ("tests/test_properties.py::test_gluing_is_sound_on_random_families_of_simplices",),
    ),
    # the entrywise Hochster bound of betti_numbers, turned off
    Mutant(
        "hochster-bound", "betti.py",
        "if gb.quadratic and gb.squarefree:",
        "if False:",
        ("tests/test_betti.py::test_hochster_bound_catches_rank_errors_that_cancel_in_euler",),
    ),
    # the complete intersection's Koszul numbers, C(r, i) for C(r, i + 1)
    Mutant(
        "koszul-off-by-one", "betti.py",
        "comb(ngens, i + 1) for i in range(ngens)",
        "comb(ngens, i) for i in range(ngens)",
        ("tests/test_betti.py::test_the_two_non_linear_betti_windows_are_complete_intersections",),
    ),
    # the complete-intersection route, its Euler check turned off
    Mutant(
        "koszul-without-euler", "betti.py",
        "            for j in degrees:\n                _check_euler(entries, j, nvars, sizes)\n",
        "",
        ("tests/test_betti.py::test_euler_check_guards_the_complete_intersection_route",),
    ),
    # the variable-cap check, a cap of 0 let through
    Mutant(
        "var-cap-zero", "errors.py",
        "if var_cap is not None and var_cap < 1:",
        "if var_cap is not None and var_cap < 0:",
        ("tests/test_betti.py::TestBettiInternals::test_var_cap_below_one_is_rejected_up_front",),
    ),
    # the fiber oracle walking the generators as the basis, whatever ideal.gb holds
    Mutant(
        "fiber-basis-is-generators", "binomials.py",
        "basis = terms if gb.led is ideal.led else _fiber_terms(gb, ring, units)",
        "basis = terms",
        ("tests/test_binomials.py::TestFiberOracle::test_counting_equals_reference_on_negative_cases",),
    ),
    # the fiber oracle, with no move, taking every monomial for a fiber: the generators trusted, not the peel
    Mutant(
        "fibers-trust-no-move", "binomials.py",
        "fibers = ring.semigroup.size(e)",
        "fibers = ring.semigroup.size(e) if moves else count",
        ("tests/test_binomials.py::TestFiberOracle::test_counting_equals_reference_on_negative_cases",),
    ),
    # the oracles' quadratic squarefree basis searched again on every read, not held
    Mutant(
        "quadratic-gb-not-held", "binomials.py",
        "    @lazy\n    def quadratic_gb(",
        "    @property\n    def quadratic_gb(",
        ("tests/test_reports_cli.py::TestRunSuite::test_the_oracles_search_once_per_cubic_window",),
    ),
    # the CLI's betti view, the Krull search run under the skip rule of its check
    Mutant(
        "krull-under-betti-skip", "cli.py",
        '"krull": krull_dimension_via_initial(ideal.gb.lead_supports, nvars=ideal.ring.nvars)}',
        '"krull": check(krull_dimension_via_initial, ideal.gb.lead_supports, nvars=ideal.ring.nvars)}',
        ("tests/test_reports_cli.py::TestCli::test_krull_budget_stops_the_betti_run",),
    ),
    # the fiber skip, Buchberger's S-pair limit taken for the oracle's monomial budget
    Mutant(
        "fiber-skips-the-s-pair-limit", "reports.py",
        '"fiber": (BudgetExceeded,),',
        '"fiber": (BudgetExceeded, __import__("hibilab.errors").errors.DegreeInfeasible),',
        ("tests/test_reports_cli.py::TestCli::test_s_pair_limit_in_the_fiber_oracle_stops_the_run",),
    ),
    # the suite's dimension formula against the Krull dimension, not compared
    Mutant(
        "dimension-formula-off", "reports.py",
        "if krull != dim:",
        "if False:",
        ("tests/test_reports_cli.py::TestRunSuite::test_each_cross_check_fires[dimension-formula]",),
    ),
    # the three-corner rule, the present corner reflected across the wrong axes
    Mutant(
        "reflection-axes-swapped", "classify.py",
        "flip_x, flip_y = present in (1, 3), present in (2, 3)",
        "flip_x, flip_y = present in (2, 3), present in (1, 3)",
        ("tests/test_classify.py::test_the_shape_rules_are_symmetric_under_the_square",),
    ),
    # verify_window, the corner criteria's answer trusted, not asked of the oracle
    Mutant(
        "verify-trusts-the-corners", "classify.py",
        'shape.linrel_basis == "oracle"',
        'shape.linrel_basis != "degenerate"',
        ("tests/test_classify.py::TestClassifyWindow::test_verify_window_retries_a_linearly_related_disagreement",),
    ),
    # the search budget, HIBI_LAB_BUDGET ignored
    Mutant(
        "budget-env-ignored", "errors.py",
        'raw = os.environ.get("HIBI_LAB_BUDGET")',
        "raw = None",
        ("tests/test_betti.py::TestKrull::test_search_budget",
         "tests/test_windows.py::TestChordality::test_cycle_search_budget"),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, gate):
    """pytest's exit code on the gate, and its first FAILED line."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider", *gate],
        cwd=where, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    return proc.returncode, failed[0] if failed else ""


def run(mutants) -> list:
    """The problems found, one line each; empty when every mutant is killed."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="hibilab-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        gates = sorted({node for mutant in mutants for node in mutant.gate})
        code, failed = _pytest(base, gates)
        if code != 0:
            return [f"the gates do not pass unmutated (pytest exit {code}): {failed}"]
        with ThreadPoolExecutor(max_workers=2) as pool:
            for line, problem in pool.map(lambda mutant: _kill(mutant, Path(tmp)), mutants):
                if line:
                    print(line)
                if problem:
                    problems.append(problem)
    return problems


def _kill(mutant, tmp: Path):
    """The mutant's report line and its problem, or None for either."""
    start = time.perf_counter()
    copy = tmp / mutant.name
    _copy(copy)
    target = copy / "src" / "hibilab" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return None, (f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
                      f"times in src/hibilab/{mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    code, failed = _pytest(copy, mutant.gate)
    verdict = "killed" if code == 1 else "survived" if code == 0 else f"pytest exit {code}"
    line = f"{mutant.name:<22} {verdict:<10} {time.perf_counter() - start:5.1f} s  {failed}"
    return line, None if code == 1 else f"{mutant.name}: {verdict} under {' '.join(mutant.gate)}"


def main(argv) -> int:
    names = set(argv)
    unknown = names - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    problems = run([m for m in MUTANTS if not names or m.name in names])
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
