"""toricstab benchmark: closed-loop workloads, end to end and per layer.

Usage (from the repository root):

    python3 toricbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 toricbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: certify, membership, fanscan, cli (see NOTES.md), or ``all``,
which runs each in its own process.  With ``--trace 0`` the end-to-end
metrics are measured untraced; with ``--trace 1`` alternating untraced and
traced passes give the per-layer metrics and the tracing overhead.  The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record (environment,
input digest, raw and normalised timings, failures) goes to
.toricbench/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".toricbench")
WORKLOADS = ("certify", "membership", "fanscan", "cli")

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
STARTUP_REPEATS = 7
# a run may overrun --seconds only to finish its current pass; past this
# multiple it stops mid-pass so that a slow commit still exits in time
HARD_STOP_FACTOR = 3.0
# speed calibration: at most this often; the kernel time that defines
# reference speed (about its best time on a 2-CPU Xeon, CPython 3.11); and
# the exponent fitted to how workload time follows kernel time there
# (log-log slopes of 0.57 to 0.78 across certify, membership and fanscan)
CAL_INTERVAL_S = 0.25
CAL_REF_S = 0.006
CAL_REPEATS = 3
CAL_EXPONENT = 0.7

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import {module}; print(time.perf_counter() - t)"
)


def die(message):
    print(f"toricbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="toricstab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    """Import the layer modules from this checkout's src/, and only from there."""
    if not os.path.isfile(os.path.join(SRC, "toricstab", "__init__.py")):
        die(f"no toricstab package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracer
    import workloads

    mods = tracer.load_layers()
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(SRC, "toricstab"):
        die(f"toricstab imported from {origin}, not from {SRC}")
    return tracer, workloads, mods


def environment(seed):
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy absent or without metadata
        numpy_version = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


# -- machine speed -------------------------------------------------------------

def _calibration_kernel():
    acc = Fraction(0)
    for i in range(1, 1200):
        acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(3, i % 5 + 2)
    return acc


class Speed:
    """How fast this machine runs the interpreter at the moment.

    On shared hosts the speed of a vCPU alternates between regimes about 2x
    apart that last 10-20 s, longer than a run, so medians within a run
    cannot absorb them.  ``calibrate`` times a fixed stdlib kernel (best of
    CAL_REPEATS).  Reported times are raw times multiplied by ``factor`` =
    (CAL_REF_S / kernel time) ** CAL_EXPONENT: seconds at reference speed.
    The kernel slows more than the workloads do in a slow spell, hence the
    exponent below 1.
    """

    def __init__(self):
        self.factor = 1.0
        self.when = float("-inf")
        self.kernel_s = []

    def calibrate(self):
        best = float("inf")
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            _calibration_kernel()
            best = min(best, time.perf_counter() - start)
        self.kernel_s.append(best)
        self.factor = (CAL_REF_S / best) ** CAL_EXPONENT
        self.when = time.perf_counter()
        return self.factor

    def summary(self):
        ks = self.kernel_s
        return {"calibrations": len(ks), "kernel_min_s": min(ks), "kernel_median_s":
                statistics.median(ks), "kernel_max_s": max(ks)} if ks else {}


# -- subprocess probes ----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env.pop("TORICCTL_SEED", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def subprocess_wall(argv):
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - start


def import_seconds(module, speed):
    """Median in-process import time of a module, each in a fresh interpreter."""
    code = IMPORT_PROBE.format(module=module)
    samples = []
    for _ in range(IMPORT_REPEATS):
        factor = speed.calibrate()
        proc = subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, check=True, timeout=120)
        samples.append(factor * float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def cli_startup(speed):
    """Median time of a bare interpreter, and what importing the CLI adds.

    The two probes alternate so that a slow spell of the machine hits both."""
    bare, loaded = [], []
    for _ in range(STARTUP_REPEATS):
        bare.append(speed.calibrate() * subprocess_wall([sys.executable, "-c", "pass"]))
        loaded.append(speed.calibrate()
                      * subprocess_wall([sys.executable, "-c", "import toricstab.cli"]))
    interp = statistics.median(bare)
    return interp, statistics.median(loaded) - interp


# -- workloads and passes ----------------------------------------------------------

def make_workload(workloads, name, mods, seed, workdir):
    cls = workloads.WORKLOADS[name]
    if name == "cli":
        return cls(mods, seed, ROOT, workdir)
    return cls(mods, seed)


def warmup(wl):
    """Run each of the workload's warm-up items once.

    The warm-up items are fixed before the pool is shuffled (the first item
    of each kind, or of each stratum), so their cost does not depend on the
    seed's order."""
    for item in wl.warm_items:
        try:
            wl.check(item, wl.run(item))
        except Exception:  # a failing item is counted by the timed loop
            pass


def setup(workloads, name, mods, seed, workdir, speed):
    """Build inputs and warm up SETUP_REPEATS times; report import + median."""
    imported = import_seconds("toricstab.cli" if name == "cli" else "toricstab", speed)
    times = []
    wl = None
    for _ in range(SETUP_REPEATS):
        factor = speed.calibrate()
        start = time.perf_counter()
        wl = make_workload(workloads, name, mods, seed, workdir)
        warmup(wl)
        times.append(factor * (time.perf_counter() - start))
    return wl, imported + statistics.median(times), {"import_s": imported, "build_warm_s": times}


class Pass:
    """One pass over the pool: normalised and raw timings, and failures."""

    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.failures = []
        self.time = 0.0
        self.raw_time = 0.0
        self.completed = True

    def add(self, ops, factor):
        for latency, total in ops:
            self.raw_latencies.append(latency)
            self.latencies.append(factor * latency)
            self.raw_time += total
            self.time += factor * total


def run_pass(wl, speed, deadline, run=None):
    """Run each item once, then check its answer.

    An operation's latency covers ``run`` only; the pass time covers run
    and check but not the speed calibrations.  The speed is calibrated
    whenever CAL_INTERVAL_S has passed, and the operations in between are
    scaled by the mean factor of the calibrations on either side."""
    run = run or wl.run
    clock = time.perf_counter
    p = Pass()
    pending = []
    factor = speed.calibrate() if clock() - speed.when >= CAL_INTERVAL_S else speed.factor
    for idx, item in enumerate(wl.items):
        if clock() - speed.when >= CAL_INTERVAL_S:
            fresh = speed.calibrate()
            p.add(pending, (factor + fresh) / 2)
            pending, factor = [], fresh
        t0 = clock()
        try:
            out = run(item)
            problem = None
        except Exception as exc:  # every exception is a failed operation
            out, problem = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if problem is None:
            try:
                problem = wl.check(item, out)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        pending.append((t1 - t0, clock() - t0))
        if problem:
            p.failures.append({"item": idx, "kind": str(item[0]), "problem": problem})
        if clock() > deadline:
            p.completed = idx == len(wl.items) - 1
            break
    p.add(pending, (factor + speed.calibrate()) / 2)
    return p


def percentile(sorted_values, q):
    """Nearest-rank percentile of pre-sorted samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workloads, name, mods, seed, seconds, workdir):
    """Untraced run: setup, then whole passes until --seconds elapse."""
    speed = Speed()
    wl, setup_s, setup_detail = setup(workloads, name, mods, seed, workdir, speed)
    passes = []
    start = time.perf_counter()
    deadline = start + HARD_STOP_FACTOR * seconds
    while True:
        p = run_pass(wl, speed, deadline)
        passes.append(p)
        if not p.completed or time.perf_counter() - start >= seconds:
            break
    loop_wall = time.perf_counter() - start
    complete = [p for p in passes if p.completed] or passes
    ordered = sorted(x for p in passes for x in p.latencies)
    raw = sorted(x for p in passes for x in p.raw_latencies)
    attempted = len(ordered)
    failures = [f for p in passes for f in p.failures]
    p95 = percentile(ordered, 95)
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": statistics.median(len(p.latencies) / p.time for p in complete),
        "op_p50_ms": 1000.0 * statistics.median(ordered),
        "op_p95_ms": 1000.0 * p95,
        "ok_frac": (attempted - len(failures)) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "samples": attempted,
        "beyond_p95": sum(1 for x in ordered if x > p95),
        "passes": len(complete),
        "items_per_pass": len(wl.items),
        "loop_wall_s": loop_wall,
        "raw": {
            "throughput_ops_s": statistics.median(len(p.latencies) / p.raw_time for p in complete),
            "op_p50_ms": 1000.0 * statistics.median(raw),
            "op_p95_ms": 1000.0 * percentile(raw, 95),
            "pass_s": [p.raw_time for p in passes],
        },
        "pass_s": [p.time for p in passes],
        "speed": speed.summary(),
        "setup": setup_detail,
    }
    return wl, attempted, failures, metrics, record


# -- traced run ------------------------------------------------------------------

def read_spans(path):
    snapshots = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            doc["sizes"] = {int(k): v for k, v in doc["sizes"].items()}
            doc["spans"] = [tuple(s) for s in doc["spans"]]
            snapshots.append(doc)
    os.remove(path)
    return snapshots


def traced_pass(tr, wl, speed, deadline, workdir):
    """One pass under the tracer; returns (pass, span snapshots).

    In-process workloads install the tracer around the pass; the cli
    workload runs every toricctl child under cli_child.py instead."""
    if wl.name != "cli":
        tr.reset()
        tr.install()
        try:
            p = run_pass(wl, speed, deadline)
        finally:
            tr.uninstall()
        snapshots = [tr.snapshot()]
        tr.reset()
        return p, snapshots
    child = os.path.join(HERE, "cli_child.py")
    paths = [os.path.join(workdir, f"spans-{idx}.jsonl") for idx in range(len(wl.items))]
    path_of = {id(item): path for item, path in zip(wl.items, paths)}
    p = run_pass(wl, speed, deadline,
                 run=lambda item: wl.run(item, [sys.executable, child, path_of[id(item)]]))
    snapshots = [s for path in paths if os.path.exists(path) for s in read_spans(path)]
    return p, snapshots


def measure_traced(tracer, workloads, name, mods, seed, seconds, workdir):
    """Alternate untraced and traced passes; per-layer metrics from the traced."""
    speed = Speed()
    tr = tracer.Tracer(mods)
    # one traced build gives the set-up layer times (from_roots_s)
    factor = speed.calibrate()
    tr.install()
    try:
        start = time.perf_counter()
        wl = make_workload(workloads, name, mods, seed, workdir)
        setup_summary = tracer.summarize([tr.snapshot()], time.perf_counter() - start)
    finally:
        tr.uninstall()
        tr.reset()
    warmup(wl)

    untraced, traced, kept = [], [], []
    start = time.perf_counter()
    deadline = start + HARD_STOP_FACTOR * seconds
    while True:
        plain = run_pass(wl, speed, deadline)
        untraced.append(plain)
        p, snapshots = traced_pass(tr, wl, speed, deadline, workdir)
        if p.completed:
            traced.append((p, tracer.summarize(snapshots, p.raw_time)))
            kept.extend(snapshots)
        if not (plain.completed and p.completed) or time.perf_counter() - start >= seconds:
            break
    complete = [p for p in untraced if p.completed]
    if not traced or not complete:
        die("no complete traced pass within the time limit")

    os.makedirs(os.path.join(OUT_DIR, "traces"), exist_ok=True)
    tracer.write_spans(os.path.join(OUT_DIR, "traces", f"{name}-seed{seed}.jsonl"), kept)

    metrics = layer_metrics(tracer, traced, complete, setup_summary, factor, len(wl.items))
    for key in ("cli.interp_s", "cli.import_s", "cli.startup_frac"):
        metrics[key] = 0.0
    for command in workloads.Cli.COMMANDS:
        metrics[f"cli.{command}.p50_ms"] = 0.0
    if name == "cli":
        interp, imported = cli_startup(speed)
        call_p50 = statistics.median(x for p in complete for x in p.latencies)
        metrics["cli.interp_s"] = interp
        metrics["cli.import_s"] = imported
        metrics["cli.startup_frac"] = (interp + imported) / call_p50
        for idx, (command, _, _) in enumerate(wl.items):
            metrics[f"cli.{command}.p50_ms"] = 1000.0 * statistics.median(
                p.latencies[idx] for p in complete)
    passes = untraced + [p for p, _ in traced]
    failures = [f for p in passes for f in p.failures]
    attempted = sum(len(p.latencies) for p in passes)
    record = {
        "untraced_pass_s": [p.time for p in complete],
        "traced_pass_s": [p.time for p, _ in traced],
        "items_per_pass": len(wl.items),
        "calls_first_traced_pass": traced[0][1]["calls"],
        "speed": speed.summary(),
    }
    return wl, attempted, failures, metrics, record


def layer_metrics(tracer, traced, untraced, setup_summary, setup_factor, ops_per_pass):
    """Per-layer metrics.  Times are medians over traced passes, scaled to
    reference speed by each pass's mean speed factor; counts come from the
    first traced pass (they repeat exactly for a seed)."""
    first = traced[0][1]
    calls = first["calls"]

    def med(fn):
        return statistics.median(fn(p.time / p.raw_time, s) for p, s in traced)

    def inclusive(name):
        return med(lambda f, s: f * s["inclusive_s"].get(name, 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for layer in tracer.LAYERS:
        out[f"{layer}.self_s"] = med(lambda f, s: f * s["self_s"][layer])
    for layer in tracer.LAYERS + ("bench",):
        out[f"{layer}.self_frac"] = statistics.median(
            s["self_s"][layer] / p.raw_time for p, s in traced)
    certs = calls.get("hermite.verify_rank_claim", 0)
    face_tests = calls.get("complexes.SimplicialComplex.is_face", 0)
    validations = calls.get("fans.validate_fan", 0)
    out.update({
        "exactla.elim_calls": calls.get("exactla.rref", 0) + calls.get("exactla.bareiss_rank", 0),
        "exactla.lp_calls": calls.get("exactla.lp_feasible", 0),
        "exactla.snf_calls": calls.get("exactla.smith_normal_form", 0),
        "hermite.elims_per_cert": ratio(first["elims_in_hermite"], certs),
        "polynomials.gcd_calls": calls.get("polynomials.gcd_monic", 0),
        "polynomials.mult_part_calls": calls.get("polynomials.mult_part", 0),
        "polynomials.divmod_calls": calls.get("polynomials.RationalPoly.divmod", 0),
        "polynomials.from_roots_s": setup_factor * setup_summary["inclusive_s"].get(
            "polynomials.RationalPoly.from_roots", 0.0),
        "complexes.face_tests": face_tests,
        "complexes.nonface_yield": ratio(first["nonfaces_found"], face_tests),
        "complexes.mnf_calls_per_op": ratio(calls.get("complexes.minimal_non_faces", 0),
                                            ops_per_pass),
        "complexes.power_s": inclusive("complexes.complex_power"),
        "fans.validate_s": inclusive("fans.validate_fan"),
        "fans.lp_per_validate": ratio(first["lps_in_validate"], validations),
        "fans.degree_vector_s": inclusive("fans.find_degree_vector"),
        "trace.overhead_frac": (statistics.median(p.time for p, _ in traced)
                                / statistics.median(p.time for p in untraced) - 1.0),
        "trace.spans_per_pass": first["span_count"],
    })
    return out


# -- output ------------------------------------------------------------------------

UNITS_BY_SUFFIX = (
    ("_frac", "frac"), ("_s", "s"), ("_ms", "ms"), ("_calls", "count"), ("_tests", "count"),
    ("_per_pass", "count"), ("_per_op", "count/op"), ("_per_cert", "count/op"),
    ("_per_validate", "count/call"), ("_yield", "ratio"),
)


def unit_of(metric):
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    for suffix, unit in UNITS_BY_SUFFIX:
        if metric.endswith(suffix):
            return unit
    return "count"


def digest(wl):
    data = json.dumps(wl.describe(), sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The two vCPUs of a shared host change speed independently; the speed
    calibration tracks only the CPU it runs on, so the work must stay there
    too.  A toricctl child runs while this process waits, so they never
    compete for the CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args):
    pin_to_one_cpu()
    tracer, workloads, mods = load_package()
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            wl, attempted, failures, metrics, record = measure_traced(
                tracer, workloads, args.workload, mods, args.seed, args.seconds, workdir)
        else:
            wl, attempted, failures, metrics, record = measure(
                workloads, args.workload, mods, args.seed, args.seconds, workdir)
        inputs = digest(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.seed)
    print(f"toricbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs sha256={inputs} items_per_pass={record['items_per_pass']}")
    for key, value in metrics.items():
        print(f"metric {args.workload} {key} {value:.6g} {unit_of(key)}")
    for key, value in record.get("raw", {}).items():
        if not isinstance(value, list):
            print(f"raw {args.workload} {key} {value:.6g} {unit_of(key)}")
    extras = {k: record[k] for k in ("samples", "beyond_p95", "passes") if k in record}
    print(" ".join(f"{k}={v}" for k, v in extras.items())
          + f" attempted={attempted} failed={len(failures)}"
          + f" failed_frac={len(failures) / attempted:.6g}")
    for f in failures[:10]:
        print(f"FAILED {f}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    out_path = os.path.join(OUT_DIR, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "env": env, "inputs_sha256": inputs, "record": record,
                   "failures": failures[:100], "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            die(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
