"""Benchmark for the tautres library and CLI.

Usage (paths are found from this file's location):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in README.md):

  nodal      30 fresh CLI calls: severi --r 1|2 --d D and the two shipped
             configs; checked against the plane node counts
  punctual   in-process assemble_punctual + evaluate over fixed filtration
             vectors with phi = a*c2 + b*c1^2; checked against golden values
  hilb       two fresh `ghilb --k 6 --phi ... --evaluate` CLI calls; every
             term's residue checked against golden values
  template3  in-process assemble_severi(3), build only; term count and exact
             value at a seeded point checked against the defining factors

The seed picks the inputs (degrees D, phi coefficients, the check point)
and never the amount of work.  A run sets up several times and keeps the
median, then runs whole passes over its fixed input set: as many as fit in
--seconds, at least one.  Times are CPU seconds of the process doing the
work (the benchmark process, or the CLI child), scaled to a core of fixed
speed by a reference kernel timed as the work runs (speed.py); the raw CPU
and wall times are printed beside them.  Each pass's outputs are checked
after it ends, outside the timer, and dropped before the next pass.  With
--trace 1 the same number of passes is run again with every layer
patched to record spans, the per-layer metrics are printed, and the spans
are written to .bench_out/.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
import warnings
from fractions import Fraction

import checks
import tracer
from cli_child import REPORT_MARKER
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_MIN_REPS = 7
SETUP_MIN_S = 2.0
# during set-up, one reference-kernel run this often
SETUP_SAMPLE_S = 0.25
CLI_TIMEOUT_S = 150
# str hashes are salted per process unless PYTHONHASHSEED is set, and the
# salt alone moves nodal set-up time by half; the run re-executes itself
# with this value, which its CLI children inherit
HASH_SEED = "0"
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SPANS_DIR = os.path.join(ROOT, ".bench_out")


def seeded_phi(rng: random.Random) -> dict:
    """phi = a*c2 + b*c1^2 with distinct a, b in 1..9.

    At a = b some numerators lose terms to cancellation, which would let
    the seed change the amount of work.
    """
    a, b = rng.sample(range(1, 10), 2)
    return {"a": a, "b": b, "phi": "%d*c2 + %d*c1^2" % (a, b)}


class Nodal:
    """The headline user path: a_1, a_2 and plane node counts from the CLI."""

    cli = True

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        # 26 of the 30 calls are r=2, so that the median item is near the
        # middle of the r=2 calls rather than in their fast tail
        items = [{"r": 2, "d": rng.randint(3, 30)} for _ in range(26)]
        items += [{"r": 1, "d": rng.randint(3, 30)} for _ in range(2)]
        items += [
            {"r": 1, "config": "configs/one_node.cfg"},
            {"r": 2, "config": "configs/two_node.cfg"},
        ]
        rng.shuffle(items)
        return items

    def argv(self, item: dict) -> list:
        if "config" in item:
            return ["eval", item["config"]]
        return ["severi", "--r", str(item["r"]), "--d", str(item["d"])]

    def check(self, item, output, lib) -> list:
        return checks.check_nodal(item, *output[:2])


HILB_K = 6


def ghilb_argv(phi: str) -> list:
    return ["ghilb", "--k", str(HILB_K), "--phi", phi, "--evaluate"]


class Hilb:
    """Many small problems: 203 set-partition terms per call, ~210 KB of text."""

    cli = True

    def __init__(self, golden: dict):
        self.golden = golden["hilb"]

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [seeded_phi(rng) for _ in range(2)]

    def argv(self, item: dict) -> list:
        return ghilb_argv(item["phi"])

    def check(self, item, output, lib) -> list:
        return checks.check_hilb(*output[:2], item["a"], item["b"], self.golden)


# 5- to 7-box algebras; (2,3) has nonzero values, (2,2,2) and (2,3,1)
# have the largest prefactor folds.  (2,2,1) runs 21 times, with
# different phi, so the median item is the middle of 21 equal problems
# rather than one problem on the boundary between two.  Its copies are
# spread over the pass, so that the median samples the machine over the
# whole pass: the speed of a shared core swings by a quarter from one
# second to the next, which a single short item would catch.
_P = (2, 2, 1)
PUNCTUAL_FILTRATIONS = sum(
    ((_P, _P, _P, f) for f in ((2, 2), (2, 2, 2), (2, 1, 1), (2, 3, 1), (1, 2, 1), (3, 2), (2, 3))), ()
)


def filtration_key(f) -> str:
    return ",".join(str(x) for x in f)


def punctual_selection(lib, filtration, phi: str):
    asm = lib.assemble
    surface = lib.chern.generic_surface()
    problem = asm.assemble_punctual(
        asm.AlgebraSpec(sum(filtration) + 1, filtration), asm.severi_bundle(), surface, phi
    )
    return asm.evaluate(problem, surface)


class Punctual:
    """The Laurent prefactor fold at scale, in-process."""

    cli = False

    def __init__(self, golden: dict):
        self.golden = golden["punctual"]

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        return [dict(seeded_phi(rng), filtration=f) for f in PUNCTUAL_FILTRATIONS]

    def run(self, lib, item):
        return punctual_selection(lib, item["filtration"], item["phi"])

    def check(self, item, sel, lib) -> list:
        golden = self.golden[filtration_key(item["filtration"])]
        remainder = lib.poly.format_poly(sel.remainder)
        return checks.check_punctual(sel.coefficients, remainder, item["a"], item["b"], golden)


class Template3:
    """The multiplication kernel in assembly: the r=3 Severi template numerator."""

    cli = False
    r = 3
    terms = 120_960

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        names = checks.severi_box_names(self.r)
        q = rng.randint(2, 9)
        nums = rng.sample([n for n in range(-40, 41) if n], len(names))
        return [{"point": {n: Fraction(x, q) for n, x in zip(names, nums)}}]

    def run(self, lib, item):
        return lib.assemble.assemble_severi(self.r)

    def check(self, item, problem, lib) -> list:
        text = lib.poly.format_poly(problem.numerator)
        return checks.check_template(text, self.r, item["point"], self.terms)


WORKLOADS = ("nodal", "punctual", "hilb", "template3")


def make_workload(name: str, golden: dict):
    return {
        "nodal": Nodal,
        "punctual": lambda: Punctual(golden),
        "hilb": lambda: Hilb(golden),
        "template3": Template3,
    }[name]()


# -- running ------------------------------------------------------------------


def load_library():
    """Fresh import of the library modules the in-process workloads call."""
    for name in [m for m in sys.modules if m == "tautres" or m.startswith("tautres.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        assemble=importlib.import_module("tautres.assemble"),
        chern=importlib.import_module("tautres.chern"),
        poly=importlib.import_module("tautres.poly"),
    )


def cpu_now(cli: bool) -> float:
    """CPU seconds (user + system) used so far by the process doing the work.

    For CLI workloads that is the sum over the finished CLI children; the
    items run one at a time, so the change across one call is that call's.
    The kernel leaves out time the hypervisor gave the core to another
    guest (steal), which a wall clock counts.
    """
    if cli:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        return ru.ru_utime + ru.ru_stime
    return time.process_time()


def setup(wl, seed: int, speed: Speed):
    """Median set-up CPU time: import the library afresh and make the inputs.

    The import is done only for in-process workloads: a CLI user pays it
    on every call, inside the items.  Repeats at least SETUP_MIN_REPS
    times and for at least SETUP_MIN_S, sampling the core's speed between
    repetitions.
    """
    times = []
    lib = items = None
    start = next_sample = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or time.perf_counter() - start < SETUP_MIN_S:
        if time.perf_counter() >= next_sample:
            speed.sample()
            next_sample = time.perf_counter() + SETUP_SAMPLE_S
        t0 = time.process_time()
        if not wl.cli:
            lib = load_library()
        items = wl.inputs(seed)
        times.append(time.process_time() - t0)
    return statistics.median(times), lib, items


def call_cli(argv: list, env: dict, tr, item_id: str, parent, speed):
    """One CLI call in a fresh interpreter; returns (returncode, stdout, peak KB).

    The call runs through cli_child.py, which reports the child's own peak
    memory; when traced, its spans join tr under parent, and otherwise its
    reference-kernel samples join speed.
    """
    cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), "-" if tr is None else item_id]
    proc = subprocess.Popen(
        cmd + argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return -9, out, None
    peak_kb = None
    for line in err.splitlines():
        if line.startswith(REPORT_MARKER):
            report = json.loads(line[len(REPORT_MARKER):])
            peak_kb = report["peak_rss_kb"]
            if tr is not None:
                tr.adopt(report["spans"], parent)
            if report["ref"] is not None:
                speed.add(report["ref"])
        elif line.strip():
            sys.stderr.write(line + "\n")
    return proc.returncode, out, peak_kb


def run_item(wl, item, lib, env, tr, item_id, speed):
    """Time one item; returns (wall seconds, CPU seconds, output, error text or None, samples).

    Untraced items run the reference kernel as they go (speed.py); its CPU
    time is taken out of the item's, and `samples` is the (lo, hi) range
    of speed.samples it took.  The wall time includes it.
    """
    span = None
    if tr is not None:
        tr.item = item_id
        span = tr.open("item")
    c0, spent0, n0 = cpu_now(wl.cli), speed.spent, len(speed.samples)
    t0 = time.perf_counter()
    output = error = None
    try:
        if wl.cli:
            output = call_cli(wl.argv(item), env, tr, item_id, span, speed)
        elif tr is None:
            with speed.probing():
                output = wl.run(lib, item)
        else:
            output = wl.run(lib, item)
    except Exception:
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0
    cpu = cpu_now(wl.cli) - c0 - (speed.spent - spent0)
    if span is not None:
        tr.close(span)
    return seconds, cpu, output, error, (n0, len(speed.samples))


def run_pass(wl, items, lib, env, tr, tag, speed):
    """One timed pass over items; returns (wall, rows of (item, wall, CPU, output, error, samples))."""
    t0 = time.perf_counter()
    rows = [(item,) + run_item(wl, item, lib, env, tr, "%s.%d" % (tag, i), speed) for i, item in enumerate(items)]
    return time.perf_counter() - t0, rows


def pin_to_one_core() -> None:
    """Keep this process and its CLI children on one core of those allowed.

    The reference kernel then runs on the core the work runs on; the
    cores of a shared VM do not slow down together.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def check_rows(wl, rows, lib):
    """Check every output of one pass; returns the number that failed."""
    failed = 0
    for item, _, _, output, error, _ in rows:
        if error is not None:
            fails = [error]
        else:
            try:
                fails = wl.check(item, output, lib)
            except Exception:
                fails = ["checker raised:\n" + traceback.format_exc()]
        if fails:
            failed += 1
            sys.stderr.write("FAILED %r: %s\n" % (item, "; ".join(fails)[:2000]))
    return failed


def measure(wl, items, lib, env, seconds: float, speed, passes=None, tr=None, tag="u"):
    """Whole passes over items: `passes` of them, or as many as fit in `seconds`.

    Each pass's outputs are checked as soon as it ends, outside its timer
    (and, when traced, outside the patches), and are dropped before the
    next pass starts, so no pass runs beside another's outputs.  For
    in-process workloads the peak memory is read after the first pass and
    before its check, so it is one pass's working set whatever the pass
    count; for CLI workloads it is the largest child's.
    """
    walls, item_s, item_cpu, item_samples = [], [], [], []
    peak_kb = failed = 0
    while True:
        ptag = "%s%d" % (tag, len(walls))
        if tr is not None and not wl.cli:
            with tracer.installed(tr):
                wall, rows = run_pass(wl, items, lib, env, tr, ptag, speed)
        else:
            wall, rows = run_pass(wl, items, lib, env, tr, ptag, speed)
        if wl.cli:
            peak_kb = max([peak_kb] + [row[3][2] or 0 for row in rows if row[3]])
        elif not walls:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        walls.append(wall)
        item_s += [row[1] for row in rows]
        item_cpu += [row[2] for row in rows]
        item_samples += [row[5] for row in rows]
        failed += check_rows(wl, rows, lib)
        del rows
        if passes is not None:
            if len(walls) >= passes:
                break
        elif sum(walls) + wall > seconds:
            break
    return types.SimpleNamespace(
        walls=walls, item_s=item_s, item_cpu=item_cpu, item_samples=item_samples, peak_kb=peak_kb,
        attempted=len(item_s), failed=failed,
    )


def per_pass(values: list, n: int) -> list:
    """Sums of consecutive runs of n item values: one per pass."""
    return [sum(values[i:i + n]) for i in range(0, len(values), n)]


def tail(values: list):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def unit(metric: str) -> str:
    if metric.endswith(("_s", ".s")) or metric.startswith(("item_s.", "item_cpu_s.")):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "B"
    if metric in ("poly.mul_yield", "trace.overhead"):
        return "ratio"
    return "count"


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    wl = make_workload(name, golden)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    warnings.filterwarnings("ignore", message="Severi conventions beyond r=2")

    # byte-compile once, untimed, as an install would; otherwise the first
    # timed item would pay it
    if not compileall.compile_dir(os.path.join(SRC, "tautres"), quiet=1):
        raise RuntimeError("byte-compiling %s failed" % SRC)
    speed = Speed()
    setup_s, lib, items = setup(wl, seed, speed)
    untraced = measure(wl, items, lib, env, seconds, speed)
    attempted, failed = untraced.attempted, untraced.failed
    scaled = [c * f for c, f in zip(untraced.item_cpu, speed.local_scales(untraced.item_samples))]
    raw_cpu_s = statistics.median(per_pass(untraced.item_cpu, len(items)))
    print("workload %s  seed %d  passes %d  items %d" % (name, seed, len(untraced.walls), attempted))
    metrics = {
        "setup_s": setup_s * speed.scale(),
        "cpu_s": statistics.median(per_pass(scaled, len(items))),
        "item_cpu_s.p50": statistics.median(scaled),
        "peak_rss_mb": untraced.peak_kb / 1024.0,
    }
    for m, v in metrics.items():
        print("  %-18s %.6g %s" % (m, v, unit(m)))
    print("    (item_cpu_s.p50 over n=%d items; %d reference-kernel runs, run-wide scale %.4f)"
          % (attempted, len(speed.samples), speed.scale()))
    t = tail(scaled)
    if t is not None:
        print("  %-18s %.6g s  (p%.1f, n=%d)" % ("item_cpu_s.tail", t[0], t[1], attempted))
    print("  unscaled:")
    print("  %-18s %.6g s" % ("raw_setup_s", setup_s))
    print("  %-18s %.6g s" % ("raw_cpu_s", raw_cpu_s))
    print("  %-18s %.6g s" % ("raw_item_cpu_s.p50", statistics.median(untraced.item_cpu)))
    print("  %-18s %.6g s" % ("wall_s", statistics.median(untraced.walls)))
    print("  %-18s %.6g s" % ("item_s.p50", statistics.median(untraced.item_s)))
    t = tail(untraced.item_s)
    if t is not None:
        print("  %-18s %.6g s  (p%.1f, n=%d)" % ("item_s.tail", t[0], t[1], attempted))
    print("  %-18s %.6g  (%d/%d)" % ("fail_ratio", failed / attempted, failed, attempted))

    if trace:
        tr = tracer.Tracer()
        traced = measure(wl, items, lib, env, seconds, Speed(), passes=len(untraced.walls), tr=tr, tag="t")
        attempted, failed = attempted + traced.attempted, failed + traced.failed
        metrics = tracer.layer_metrics(tr.spans)
        traced_cpu_s = statistics.median(per_pass(traced.item_cpu, len(items)))
        metrics["trace.overhead"] = traced_cpu_s / raw_cpu_s - 1.0
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, "spans-%s-seed%d.jsonl" % (name, seed))
        tr.write(spans_path)
        print("per-layer metrics (traced passes: %d, spans: %d -> %s)" % (len(traced.walls), len(tr.spans), os.path.relpath(spans_path, ROOT)))
        for m, v in metrics.items():
            print("  %-26s %.6g %s" % (m, v, unit(m)))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tautres", "cli.py")):
        sys.stderr.write("error: no tautres source under %s; run from a full checkout\n" % SRC)
        return 2
    if args.workload != "all":
        pin_to_one_core()
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # one fresh interpreter per workload, so no in-process cache carries over
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.exit(main())
