"""Window-certification benchmark for hibilab.

One workload runs as a closed loop: a single caller in a single process
certifies one rank window per step with
``reports.run_suite(lattice, windows=[w], ...)``, the call that
``hibilab suite --window p,q`` makes, and checks each answer against the
committed reference digests.  A run makes whole passes over the workload's
windows, each pass in an order drawn from ``--seed``, until ``--seconds``
have gone by.

    python3 bench/run.py --workload dimension --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it makes an untraced phase and a traced phase and reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any window fails.
bench/README.md lists the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from hashlib import sha256
from pathlib import Path

import speed

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
INHERITED = "BENCH_INHERITED_ENV"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_REFERENCE = BENCH_DIR / "reference_seed7.json"

# Every option run_suite reads is set here, so that a change of a default in
# the program shows up as a different workload and not as a gain.
COMMON_OPTIONS = {
    "all_windows_flag": False,
    "proper_only": False,
    "with_gb": True,
    "with_fiber": False,
    "with_betti": False,
    "with_classify": False,
    "verify": False,
    "order_kinds": "auto",
    "field": 32003,
    "var_cap": 12,
    "fiber_degree": 4,
}


@dataclass(frozen=True)
class Workload:
    max_vars: int | None  # largest window variable count; None takes every window
    options: dict  # on top of COMMON_OPTIONS
    min_passes: int = 1


WORKLOADS = {
    # Half of a dimension pass is spent in three grid-5x4 windows, so one
    # pass samples the machine's speed at few instants; two passes steady it.
    "dimension": Workload(None, {}, min_passes=2),
    "fiber": Workload(12, {"with_fiber": True}),
    "classify": Workload(12, {"with_classify": True, "verify": True}),
    "betti": Workload(7, {"with_betti": True, "var_cap": 7}),
}

SETUP_REPEATS = 7
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "window_ms.p50": "ms",
    "window_ms.tail": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def pin_environment():
    """Record what the caller set, pin it and restart the interpreter once.

    The pins: one BLAS thread (a single caller on a machine of few cores),
    string hashing fixed so that set iteration order and hence the work done
    repeats, and no HIBI_LAB_BUDGET, which changes the fiber and Hilbert
    budgets.  They must be in place before numpy is imported, and
    PYTHONHASHSEED only acts at interpreter start, hence the restart.
    """
    if INHERITED in os.environ:
        return
    os.environ[INHERITED] = json.dumps(
        {k: os.environ.get(k) for k in ("PYTHONHASHSEED", "HIBI_LAB_BUDGET") + BLAS_THREAD_VARS}
    )
    os.environ.pop("HIBI_LAB_BUDGET", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)


def workload_options(workload: str) -> dict:
    return {**COMMON_OPTIONS, **WORKLOADS[workload].options}


def import_hibilab():
    """Import the package from this checkout's src/, never from elsewhere."""
    init = SRC / "hibilab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no hibilab sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import hibilab

    if Path(hibilab.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported hibilab from {hibilab.__file__}, not from src/")
    return hibilab


def corpus_spec(args) -> dict:
    return {
        "seed": args.corpus_seed,
        "count": args.count,
        "max_m": args.max_m,
        "max_n": args.max_n,
        "families": list(args.families),
    }


def make_corpus(hibilab, spec: dict):
    return hibilab.generate_corpus(
        hibilab.CorpusSpec(**{**spec, "families": tuple(spec["families"])})
    )


def select_windows(hibilab, corpus, workload: str):
    """(key, lattice name, lattice, window) for every window of the workload."""
    max_vars = WORKLOADS[workload].max_vars
    items = []
    for name, lat in corpus:
        for w in hibilab.all_windows(lat):
            if max_vars is None or len(hibilab.generators(lat, w)) <= max_vars:
                items.append((f"{name}@{w.p},{w.q}", name, lat, w))
    return items


def load_reference(path: Path, spec: dict, workload: str):
    """Digests for this corpus and workload, or None when the reference does not cover them."""
    if not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("corpus") != spec:
        return None
    entry = doc["workloads"].get(workload)
    if entry is None:
        return None
    if entry["options"] != workload_options(workload):
        raise SystemExit(
            f"bench: reference {path.name} was made with other {workload} options; regenerate it"
        )
    return entry["digests"]


def setup(args):
    """Import hibilab, generate the corpus, select windows and load the reference."""
    t0 = time.perf_counter()
    hibilab = import_hibilab()
    spec = corpus_spec(args)
    items = select_windows(hibilab, make_corpus(hibilab, spec), args.workload)
    reference = load_reference(args.reference, spec, args.workload)
    return time.perf_counter() - t0, hibilab, items, reference


class ColdSetups:
    """Set-up times of fresh interpreters, as a user pays them.

    The interpreters run one at a time between windows, spread over the
    timed loop, so that like the windows they sample the machine at several
    moments; the loop does not count the time they take.  Each records
    (start, end, seconds); the probe is paused while one runs.
    """

    def __init__(self, argv, interval: float, probe):
        self.argv = argv
        self.interval = interval
        self.probe = probe
        self.times = []
        self.due = 0.0

    def run_one(self):
        self.probe.pause()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *self.argv, "--setup-only"],
            capture_output=True, text=True, timeout=120, check=False,
        )
        end = time.perf_counter()
        self.probe.resume()
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up child failed:\n{proc.stderr}")
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        self.times.append((start, end, seconds))

    def between_windows(self):
        if len(self.times) < SETUP_REPEATS and time.perf_counter() >= self.due:
            self.run_one()
            self.due = time.perf_counter() + self.interval

    def finish(self):
        while len(self.times) < SETUP_REPEATS:
            self.run_one()
        return self.times


def answer_digest(record: dict) -> str:
    """Digest of a window record's answers.

    The S-pair count is left out: it is work done, not an answer, and a
    Buchberger change that skips useless pairs must not read as a wrong
    answer.  It is measured as binomials.buchberger.spairs instead.
    """
    rec = dict(record)
    if "gb" in rec:
        rec["gb"] = {k: v for k, v in rec["gb"].items() if k != "spairs"}
    text = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return sha256(text.encode()).hexdigest()[:16]


class Loop:
    """Closed-loop certification of a window list with per-window checking."""

    def __init__(self, hibilab, items, options, reference, seed, probe=None):
        self.reports = hibilab.reports
        self.items = items
        self.options = options
        self.reference = reference
        self.rng = random.Random(seed)
        self.probe = probe or speed.SpeedProbe()  # one never entered takes no time
        self.timed = []  # (window index, start, end, seconds less probe time)
        self.attempted = 0
        self.failures = []

    def certify(self, k):
        """Certify and check window k; returns run_suite's seconds less probe time."""
        key, name, lat, w = self.items[k]
        self.attempted += 1
        probed = self.probe.spent
        start = time.perf_counter()
        try:
            report = self.reports.run_suite(lat, windows=[w], name=name, **self.options)
        except Exception as exc:  # a raising window is a failed window, not a dead run
            report = None
            self.failures.append({"window": key, "error": repr(exc),
                                  "traceback": traceback.format_exc(limit=4)})
        end = time.perf_counter()
        seconds = end - start - (self.probe.spent - probed)
        self.timed.append((k, start, end, seconds))
        if report is not None:
            self.check(key, report)
        return seconds

    def check(self, key, report):
        if report.findings:
            self.failures.append({"window": key, "findings": report.findings})
        elif self.reference is not None:
            got = answer_digest(report.stable["windows"][0])
            want = self.reference.get(key)
            if got != want:
                self.failures.append({"window": key, "digest": got, "reference": want})

    def run(self, seconds: float, min_passes: int = 1, between=None):
        """Whole passes in seeded orders until `seconds` have gone by; returns (passes, wall).

        `wall` sums the time spent inside run_suite.  `between` is called
        before each window and is not timed.
        """
        order = list(range(len(self.items)))
        passes = 0
        wall = 0.0
        while passes < min_passes or wall < seconds:
            self.rng.shuffle(order)
            for k in order:
                if between is not None:
                    between()
                wall += self.certify(k)
            passes += 1
        return passes, wall

    def per_window_seconds(self, slowdown):
        """Each window's timings, each divided by slowdown(start, end)."""
        out = [[] for _ in self.items]
        for k, start, end, seconds in self.timed:
            out[k].append(seconds / slowdown(start, end))
        return out


def tail_percentile(values):
    """(percentile, value): the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end_metrics(loop, passes, setups, probe):
    """Timings at the reference machine's speed (see speed.py), and their raw values."""
    values = {}
    for label, slowdown in (("raw", lambda t0, t1: 1.0), ("scaled", probe.slowdown)):
        per_window = loop.per_window_seconds(slowdown)
        per_window_ms = [1000.0 * statistics.median(ts) for ts in per_window]
        pct, tail = tail_percentile(per_window_ms)
        values[label] = {
            "setup_s": statistics.median(s / slowdown(t0, t1) for t0, t1, s in setups),
            "windows_per_s": loop.attempted / sum(map(sum, per_window)),
            "window_ms.p50": statistics.median(per_window_ms),
            "window_ms.tail": tail,
        }
    values["scaled"]["ok_share"] = (loop.attempted - len(loop.failures)) / loop.attempted
    values["scaled"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = values["raw"]
    notes = {
        "setup_s": f"raw {raw['setup_s']:.4f}; median of {len(setups)} fresh interpreters",
        "windows_per_s": f"raw {raw['windows_per_s']:.4f}; {loop.attempted} windows, {passes} pass(es)",
        "window_ms.p50": f"raw {raw['window_ms.p50']:.4f}; median of {len(per_window_ms)} windows",
        "window_ms.tail": f"raw {raw['window_ms.tail']:.4f}; p{pct:.2f}, "
                          f"{TAIL_BEYOND} of {len(per_window_ms)} windows are slower",
        "slowdown": f"median {probe.slowdown(-math.inf, math.inf):.4f} "
                    f"over {len(probe.seconds)} samples",
    }
    return values["scaled"], raw, notes


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """Digest of src/, which names the program when the checkout is not a git repository."""
    h = sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment_record(args, hibilab):
    import numpy

    inherited = json.loads(os.environ.get(INHERITED, "null"))
    return {
        "git_revision": git_revision(),
        "src_digest": source_digest(),
        "hibilab_version": hibilab.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "inherited": inherited,
        "pinned": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "HIBI_LAB_BUDGET": os.environ.get("HIBI_LAB_BUDGET"),
        "corpus": corpus_spec(args),
        "workload": args.workload,
        "options": workload_options(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_reference(args):
    """Certify every window of every workload once and store the answer digests."""
    hibilab = import_hibilab()
    spec = corpus_spec(args)
    corpus = make_corpus(hibilab, spec)
    doc = {"corpus": spec, "workloads": {}}
    for workload in WORKLOADS:
        options = workload_options(workload)
        digests = {}
        for key, name, lat, w in select_windows(hibilab, corpus, workload):
            report = hibilab.reports.run_suite(lat, windows=[w], name=name, **options)
            if report.findings:
                raise SystemExit(f"bench: {workload} {key} has findings {report.findings}")
            digests[key] = answer_digest(report.stable["windows"][0])
        doc["workloads"][workload] = {"options": options, "digests": digests}
        print(f"{workload}: {len(digests)} windows", file=sys.stderr)
    with open(args.write_reference, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="dimension")
    ap.add_argument("--seed", type=int, default=1, help="seed of the window visiting order")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=7)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--max-m", type=int, default=5)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--families", type=lambda s: s.split(","),
                    default=["named", "full-grid", "band", "poset", "staircase"])
    ap.add_argument("--reference", type=Path, default=DEFAULT_REFERENCE)
    ap.add_argument("--write-reference", type=Path, default=None, metavar="PATH",
                    help="certify every workload once and write answer digests to PATH")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def print_result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.write_reference is not None:
        return write_reference(args)
    if args.setup_only:
        setup_s = setup(args)[0]
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_s, hibilab, items, reference = setup(args)
    if not items:
        raise SystemExit("bench: the corpus has no window for this workload")
    options = workload_options(args.workload)
    env = environment_record(args, hibilab)
    result = {"environment": env, "setup_in_process_s": setup_s,
              "reference": "digests" if reference is not None else "zero findings",
              "windows": len(items)}

    if args.trace:
        import tracing

        untraced = Loop(hibilab, items, options, reference, args.seed)  # raw timings
        u_passes, u_wall = untraced.run(args.seconds / 2)
        traced = Loop(hibilab, items, options, reference, args.seed)
        with tracing.Tracer() as tracer:
            with tracer.phase("setup"):  # replayed for its per-layer spans
                select_windows(hibilab, make_corpus(hibilab, corpus_spec(args)), args.workload)
            with tracer.phase("loop"):
                t_passes, t_wall = traced.run(args.seconds / 2)
            with tracer.phase("cli"):
                cli_ok = tracing.run_cli(hibilab)
        values = tracer.per_layer_metrics(
            windows=traced.attempted, passes=t_passes, loop_s=t_wall,
            untraced_wps=untraced.attempted / u_wall, traced_wps=traced.attempted / t_wall,
        )
        metrics = {name: {"value": v, "unit": tracing.PER_LAYER_UNITS[name]}
                   for name, v in values.items()}
        attempted = untraced.attempted + traced.attempted
        failures = untraced.failures + traced.failures
        if not cli_ok:
            failures.append({"window": "cli suite demo staircase (3,7)", "error": "exit code"})
        result.update(passes={"untraced": u_passes, "traced": t_passes},
                      spans=len(tracer.spans))
    else:
        with speed.SpeedProbe() as probe:
            cold = ColdSetups(argv, args.seconds / SETUP_REPEATS, probe)
            loop = Loop(hibilab, items, options, reference, args.seed, probe)
            passes, wall = loop.run(args.seconds, WORKLOADS[args.workload].min_passes,
                                    between=cold.between_windows)
            setups = cold.finish()
        values, raw, notes = end_to_end_metrics(loop, passes, setups, probe)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        attempted, failures = loop.attempted, loop.failures
        result.update(passes=passes, raw=raw, notes=notes, setups=setups,
                      probe_seconds=probe.seconds)
        for name, m in metrics.items():
            note = notes.get(name, "")
            print(f"{args.workload:<10} {name:<16} {m['value']:>12.4f} {m['unit']:<6} {note}")
        print(f"{args.workload:<10} machine slowdown {notes['slowdown']}")

    result.update(metrics=metrics, attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    for failure in failures[:5]:
        print(f"FAILED {json.dumps(failure)}", file=sys.stderr)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print_result(not failures, attempted, len(failures), metrics)
    return 1 if failures else 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
