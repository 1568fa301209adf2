"""Mutation gate: each recorded mutant of the package must fail its gate.

    python tests/mutants.py           # every mutant
    python tests/mutants.py NAME ...  # the named ones

A mutant is one exact text replacement in a file of src/hibilab, with the
tests named as its gate.  The runner copies src/ and tests/ once for each
of its two workers into a temporary directory.  First it runs every gate
unmutated, the gates shared between the two copies: they must pass, so
that a mutant is not killed by an unrelated failure.  Then each worker
takes the mutants in turn: it applies a mutant's replacement in place in
its copy, runs only that mutant's gate, one pytest process per mutant,
and restores the file.  Bytecode is never written, so a restored file is
read afresh.  The gates run without the hypothesis and benchmark pytest
plugins, whose imports cost more than most gates; a gate module that
uses hypothesis imports it itself.
The run fails when a mutant's old text does not occur exactly once in its
file (a rewrite must re-aim its mutants), when a gate does not pass
unmutated, or when a mutant's gate still passes (the mutant survives).
The checkout itself is only read.
"""

from __future__ import annotations

import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # under src/hibilab
    old: str
    new: str
    gate: tuple  # pytest node ids, relative to the checkout's root


MUTANTS = (
    # lattice validation, the join half of the closure test dropped
    Mutant(
        "closure-without-join", "lattice.py",
        "if heads := row & (-((missing & -missing) << 1) | gaps):",
        "if heads := row & -((missing & -missing) << 1):",
        ("tests/test_lattice.py::TestAgainstTheReference::test_random_point_sets_raise_as_the_pair_scan_does",),
    ),
    # lattice validation, the chain pass accepting every point
    Mutant(
        "chain-pass-accepts-all", "lattice.py",
        "if stuck := [(i, j) for i, j in pts if (i or j) and not {(i - 1, j), (i, j - 1)} & pts]:",
        "if stuck := []:",
        ("tests/test_lattice.py::TestAgainstTheReference::test_random_point_sets_raise_as_the_pair_scan_does",),
    ),
    # the Birkhoff map, each span's least b one too high
    Mutant(
        "birkhoff-lo-off-by-one", "lattice.py",
        "lo = sum(poset.less(y, c1[a - 1]) for y in c2) if a else 0",
        "lo = sum(poset.less(y, c1[a - 1]) for y in c2) + 1 if a else 0",
        ("tests/test_lattice.py::TestAgainstTheReference::test_span_map_equals_the_ideal_enumeration",),
    ),
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
        'lex, keys = self.order.style == "lex", {}',
        "lex, keys = True, {}",
        ("tests/test_order_search.py::test_index_route_matches_the_packed_route_on_random_quadrics",),
    ),
    # the one walk of the packed fields, each exponent read off the field above its own
    Mutant(
        "exponents-next-field", "binomials.py",
        "pairs.append((variable_at[field], packed >> width * field & ones))",
        "pairs.append((variable_at[field], packed >> width * (field + 1) & ones))",
        ("tests/test_packing.py::test_unpack_and_variables_round_trip_through_pack",),
    ),
    # the one walk of the packed fields, every exponent capped at 1
    Mutant(
        "exponents-capped-at-1", "binomials.py",
        "pairs.append((variable_at[field], packed >> width * field & ones))",
        "pairs.append((variable_at[field], min(packed >> width * field & ones, 1)))",
        ("tests/test_packing.py::test_unpack_and_variables_round_trip_through_pack",),
    ),
    # the order search, a term that is not a quadric let through to the quadric codes
    Mutant(
        "order-search-any-degree", "binomials.py",
        "if not {*map(len, chain.from_iterable(pairs))} <= {2}:  # a term that is not a quadric",
        "if False:  # a term that is not a quadric",
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
        "return sum(map(mul, _multisets(free, len(core) - 1), core)) if free else core[-1]",
        "return core[-1]",
        ("tests/test_peeled_core.py::test_core_route_matches_the_references",),
    ),
    # the first packing only as wide as its first caller asks: the order
    # search's wide(2) packs for entries up to 3 and the oracle repacks
    Mutant(
        "first-packing-narrow", "binomials.py",
        "bits = max(degree, self.least).bit_length()",
        "bits = degree.bit_length()",
        ("tests/test_packing.py::test_the_order_search_and_the_oracle_share_one_packing",),
    ),
    # the fiber oracle's index route, a counted binomial's lead and trail swapped
    Mutant(
        "index-route-lead-trail-swapped", "binomials.py",
        "units[a] + units[b], units[c] + units[d], img",
        "units[c] + units[d], units[a] + units[b], img",
        ("tests/test_packing.py::test_index_route_matches_the_packed_walk_on_every_counted_basis",),
    ),
    # the fiber oracle's index route, balance read from the lead alone
    Mutant(
        "index-route-balance-from-lead", "binomials.py",
        "img[a] + img[b] == img[c] + img[d]",
        "img[a] + img[b] == img[a] + img[b]",
        ("tests/test_packing.py::test_index_route_matches_the_packed_walk_on_random_quadrics",),
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
    plugins = ("-p", "no:cacheprovider", "-p", "no:hypothesispytest", "-p", "no:benchmark")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", *plugins, *gate],
        cwd=where, env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED")]
    return proc.returncode, failed[0] if failed else ""


def run(mutants) -> list:
    """The problems found, one line each; empty when every mutant is killed."""
    problems = []
    with tempfile.TemporaryDirectory(prefix="hibilab-mutants-") as tmp, \
            ThreadPoolExecutor(max_workers=WORKERS) as pool:
        workers = [Path(tmp) / f"worker-{k}" for k in range(WORKERS)]
        copies = queue.SimpleQueue()  # the workers' copies not in use
        for copy in workers:
            _copy(copy)
            copies.put(copy)
        gates = sorted({node for mutant in mutants for node in mutant.gate})
        shares = [(copy, gates[k::WORKERS]) for k, copy in enumerate(workers) if gates[k::WORKERS]]
        for code, failed in pool.map(lambda share: _pytest(*share), shares):
            if code != 0:
                return [f"the gates do not pass unmutated (pytest exit {code}): {failed}"]

        def kill(mutant):
            copy = copies.get()
            try:
                return _kill(mutant, copy)
            finally:
                copies.put(copy)

        for line, problem in pool.map(kill, mutants):
            if line:
                print(line)
            if problem:
                problems.append(problem)
    return problems


def _kill(mutant, copy: Path):
    """The mutant's report line and its problem, or None for either; the
    mutant is applied in place in copy and the file restored after."""
    start = time.perf_counter()
    target = copy / "src" / "hibilab" / mutant.path
    text = target.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return None, (f"{mutant.name}: its old text occurs {text.count(mutant.old)} "
                      f"times in src/hibilab/{mutant.path}, not once")
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    try:
        code, failed = _pytest(copy, mutant.gate)
    finally:
        target.write_text(text, encoding="utf-8")
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
