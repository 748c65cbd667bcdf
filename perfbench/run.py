"""randsym benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload mc-serial --seed 1 --seconds 28 --trace 0

Ops run in the workload's fixed rotation (see workloads.py), in this
process, until --seconds have passed and at least MIN_OPS ops are done;
a run always ends on a whole rotation.  Every op's exit code must be in
its expected verdict set and its rows must reproduce bit for bit: across
repeats of the same op, through the process pool (--workers 2) for
mc-serial, and, for the slots keyed by the default seed (half of them in
every run), against the digests committed in reference.json.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms,
setup_s (median of this run's set-up and four more in fresh processes) and
peak_rss_mb; error_rate and the sample count are printed with them.

--trace 1 alternates untraced rotations with rotations in which every
layer function is wrapped (tracer.py) and prints the per-layer metrics,
per rotation of ops, with the tracing overhead.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

The times in the end-to-end metrics are scaled to a reference host speed.
On a shared host (a few cores of a machine whose other tenants come and
go) the speed of the same code can drop by a third to a half for minutes
at a time, so plain wall-clock times differ by that much from run to run.
Before each rotation, and after the last, the runner times a fixed
pure-Python task that uses neither numpy nor randsym (calibration_task);
each time measured in a rotation is multiplied by REFERENCE_CALIBRATION_S
over the mean of the task's times before and after it.  The set-up time is
scaled by a calibration made right after set-up.  The unscaled wall-clock
values are printed as wall_* lines, and the calibration time as
host_calibration_ms, on the lines before the result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import Tracer, layer_names  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
MIN_OPS = 100           # leaves ten samples above the 90th percentile
SETUP_SAMPLES = 5
# calibration_task's time on an idle 2-vCPU Intel Xeon host (Python 3.11):
# scaled times are the times that host would show
REFERENCE_CALIBRATION_S = 0.0135
# BLAS worker threads spin for up to ~0.1 s after a call and slow the task
SETTLE_S = 0.1


def calibration_task() -> float:
    """Seconds a fixed pure-Python task takes: the host's current speed.
    It calls neither numpy nor randsym, so no change to the program moves it."""
    t0 = time.perf_counter()
    table, x = {}, 1
    for i in range(40000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 0xFFFF] = i
    sorted(table)
    return time.perf_counter() - t0


def host_calibration() -> float:
    """The calibration task's time now, best of three, after BLAS threads
    left spinning by the last op have stopped."""
    time.sleep(SETTLE_S)
    return min(calibration_task() for _ in range(3))


def load_program() -> types.SimpleNamespace:
    """Import randsym from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "randsym"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no randsym sources in {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import randsym
    import randsym.cli
    import randsym.ensembles
    if Path(randsym.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported randsym from {randsym.__file__}, not {pkg}")
    return types.SimpleNamespace(cli=randsym.cli, ensembles=randsym.ensembles)


class Bench:
    """Inputs and op state of one workload run."""

    def __init__(self, program, workload: wl.Workload, seed: int, workdir: str):
        self.program = program
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = wl.make_inputs(workload, seed, workdir)
        self.uses: Counter = Counter()
        self.ops_started = 0

    def op(self, key: str, tracer: Tracer = None) -> wl.OpResult:
        kind = self.workload.kind(key)
        slot = self.uses[key] % wl.SLOTS
        self.uses[key] += 1
        args = (self.program, kind, wl.op_seed(self.seed, key, slot), self.inputs[key][slot],
                os.path.join(self.workdir, f"op{self.ops_started}"))
        self.ops_started += 1
        if tracer is None:
            latency, code, output, error = wl.run_op(*args)
        else:
            tracer.op_id = self.ops_started - 1
            latency, code, output, error = tracer.call(f"op.{key}", wl.run_op, *args)
        return wl.OpResult(key, slot, latency, code, output, error)

    def warm_up(self):
        return [self.op(kind.key) for kind in self.workload.kinds]

    def rotation(self, tracer: Tracer = None):
        """One pass over the rotation: (results, seconds)."""
        t0 = time.perf_counter()
        results = [self.op(key, tracer) for key in self.workload.rotation]
        return results, time.perf_counter() - t0

    def rate(self, times) -> float:
        """Ops per second from the median rotation time, so a burst of load
        from outside the benchmark does not move it."""
        return len(self.workload.rotation) / statistics.median(times)

    def phase(self, seconds: float, min_ops: int):
        """Whole rotations until `seconds` pass and min_ops ops are done
        (or 2 * seconds pass), each between two host calibrations:
        [(results, seconds, calibration seconds)] per rotation."""
        rotations, ops = [], 0
        before = host_calibration()
        start = time.perf_counter()
        while True:
            done, t = self.rotation()
            after = host_calibration()
            rotations.append((done, t, (before + after) / 2))
            before, ops = after, ops + len(done)
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (ops >= min_ops or elapsed >= 2 * seconds):
                return rotations

    def traced_phase(self, seconds: float, tracer: Tracer):
        """Untraced and traced rotations in turn until `seconds` pass, so a
        drift in machine speed hits both alike; each traced rotation replays
        the ops of the untraced one before it, whose rows it must reproduce.
        Returns [(results, ops per second) untraced, the same traced]."""
        phases = [([], []), ([], [])]
        start = time.perf_counter()
        while True:
            uses = Counter(self.uses)
            for traced, (results, times) in enumerate(phases):
                if traced:
                    self.uses = uses
                    tracer.install()
                try:
                    done, t = self.rotation(tracer if traced else None)
                finally:
                    tracer.uninstall()
                results += done
                times.append(t)
            if time.perf_counter() - start >= seconds:
                return [(results, self.rate(times)) for results, times in phases]


class Checker:
    """Decides which ops failed; one digest per (kind, slot) across phases."""

    def __init__(self, bench: Bench, reference):
        self.bench = bench
        self.reference = reference
        self.canonical = {}
        self.library_checked = {}

    def check(self, results) -> list:
        """Failure reason (or None) for each result."""
        reasons = []
        for r in results:
            kind = self.bench.workload.kind(r.key)
            digest = wl.row_digest(kind, r.output)
            first = self.canonical.setdefault((r.key, r.slot), digest)
            reason = None
            if r.code not in kind.verdicts:
                reason = f"exit code {r.code} not in {sorted(kind.verdicts)} {r.error}"
            elif digest is None:
                reason = "no rows"
            elif digest != first:
                reason = "rows differ from an earlier run of the same op"
            elif wl.slot_seed(self.bench.seed, r.slot) == self.reference["seed"] and \
                    digest != self.reference["digests"].get(r.key, [None] * wl.SLOTS)[r.slot]:
                reason = "rows differ from the committed reference"
            elif kind.call is not None and not self.library_ok(r):
                reason = "exact answer fails the independent check"
            reasons.append(reason)
        return reasons

    def library_ok(self, r: wl.OpResult) -> bool:
        slot = (r.key, r.slot)
        if slot not in self.library_checked:
            self.library_checked[slot] = wl.check_library_output(
                r.key, self.bench.inputs[r.key][r.slot], r.output)
        return self.library_checked[slot]

    def cross_check_parallel(self):
        """Rerun slot 0 of each kind through the process pool; its rows must
        equal the serial rows bit for bit.  Returns (results, reasons)."""
        workers = self.bench.workload.parallel_workers
        results, reasons = [], []
        for kind in self.bench.workload.kinds:
            parallel = wl.with_workers(kind, workers)
            out = wl.run_op(self.bench.program, parallel, wl.op_seed(self.bench.seed, kind.key, 0),
                            self.bench.inputs[kind.key][0],
                            os.path.join(self.bench.workdir, "parallel"))
            results.append(wl.OpResult(kind.key, 0, *out))
            same = wl.row_digest(parallel, out[2]) == self.canonical[(kind.key, 0)]
            reasons.append(None if same and out[1] in kind.verdicts
                           else f"rows or exit code differ with --workers {workers} {out[3]}")
        return results, reasons


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": None, "version": None}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "num_threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "start_method": multiprocessing.get_start_method(),
    }


def load_reference() -> dict:
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    if ref["seed"] != wl.DEFAULT_SEED or ref["slots"] != wl.SLOTS:
        raise SystemExit("error: reference.json does not match the workload slots")
    return ref


def setup(workload: wl.Workload, seed: int):
    """Import randsym, write inputs, warm up: (bench, warm-up results, seconds)."""
    program = load_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    bench = Bench(program, workload, seed, workdir)
    warm = bench.warm_up()
    return bench, warm, time.perf_counter() - _T0


def setup_in_fresh_process(workload: str, seed: int) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def quantile_ms(latencies, q: int) -> float:
    """q-th percentile (q in 10, 20, ... 90) of latencies in ms."""
    return statistics.quantiles([x * 1e3 for x in latencies], n=10,
                                method="inclusive")[q // 10 - 1]


def timing_metrics(rotations, rotation_len: int, scaled: bool) -> dict:
    """ops_per_s (rotation length / median rotation time), op_p50_ms and
    op_p90_ms of a timed phase; scaled to the reference host speed or not."""
    def scale(calibration_s):
        return REFERENCE_CALIBRATION_S / calibration_s if scaled else 1.0
    times = [t * scale(c) for _, t, c in rotations]
    lat = [r.latency_s * scale(c) for results, _, c in rotations for r in results]
    return {
        "ops_per_s": (rotation_len / statistics.median(times), "op/s"),
        "op_p50_ms": (quantile_ms(lat, 50), "ms"),
        "op_p90_ms": (quantile_ms(lat, 90), "ms"),
    }


def per_layer_metrics(tracer: Tracer, rotation_len: int, untraced, traced) -> dict:
    """Per-layer numbers of the traced phase, per rotation of ops, with the
    per-kind median latency and the rate from the untraced phase."""
    ops = len(traced[0])
    rotations = ops / rotation_len
    totals = tracer.layer_totals()
    m = {}
    for name in layer_names():
        calls, self_s, errors = totals.get(name, (0, 0.0, 0))
        m[f"{name}.calls"] = (calls / rotations, "count/rotation")
        m[f"{name}.self_ms"] = (self_s * 1e3 / rotations, "ms/rotation")
        m[f"{name}.errors"] = (errors / rotations, "count/rotation")
    c = tracer.counters
    calls = {name: totals.get(name, (0,))[0] for name in
             ("ensembles.spectral_summary", "structure.decoupling_scan", "streams.substream")}
    m["ensembles.spectral_summary.exact_corank_share"] = (
        c["ensembles.spectral_summary.exact_corank"] / max(calls["ensembles.spectral_summary"], 1),
        "fraction")
    m["structure.decoupling_scan.checks_per_call"] = (
        c["structure.decoupling_scan.checks"] / max(calls["structure.decoupling_scan"], 1),
        "count")
    m["streams.substream.calls_per_op"] = (calls["streams.substream"] / ops, "count")
    m["cli.record_bytes"] = (c["cli.record_bytes"] / rotations, "bytes/rotation")
    keys = sorted({k.key for w in wl.WORKLOADS.values() for k in w.kinds})
    for key in keys:
        lat = [r.latency_s for r in untraced[0] if r.key == key]
        m[f"op.{key}.p50_ms"] = (statistics.median(lat) * 1e3 if lat else 0.0, "ms")
    un_rate, tr_rate = untraced[1], traced[1]
    m["trace.untraced_ops_per_s"] = (un_rate, "op/s")
    m["trace.traced_ops_per_s"] = (tr_rate, "op/s")
    m["trace.overhead_ops_per_s"] = (un_rate - tr_rate, "op/s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (one set-up sample)")
    args = p.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    bench, warm, setup_s = setup(workload, args.seed)
    try:
        wall_setup_s = setup_s
        setup_s *= REFERENCE_CALIBRATION_S / host_calibration()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checker = Checker(bench, load_reference())
        warm_reasons = checker.check(warm)
        if args.trace:
            tracer = Tracer()
            untraced, traced = bench.traced_phase(args.seconds, tracer)
            tracer.write(str(OUT_DIR / f"{workload.name}.spans.csv"))
            results = untraced[0] + traced[0]
            metrics = per_layer_metrics(tracer, len(workload.rotation), untraced, traced)
        else:
            rotations = bench.phase(args.seconds, MIN_OPS)
            # read before the pool check below forks workers
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + \
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            results = [r for done, _, _ in rotations for r in done]
            metrics = timing_metrics(rotations, len(workload.rotation), scaled=True)
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
            wall = timing_metrics(rotations, len(workload.rotation), scaled=False)
            for name, (value, unit) in wall.items():
                print(f"wall_{name} {value} {unit}")
            calibration = statistics.median(c for _, _, c in rotations)
            print(f"host_calibration_ms {calibration * 1e3} ms")
        # the warm-up ops and the pool reruns are checked and counted too
        checked, reasons = warm + results, warm_reasons + checker.check(results)
        if workload.parallel_workers:
            extra, extra_reasons = checker.cross_check_parallel()
            checked, reasons = checked + extra, reasons + extra_reasons
        failed = sum(r is not None for r in reasons)
        for r, why in zip(checked, reasons):
            if why:
                print(f"failed op {r.key} slot {r.slot}: {why}", file=sys.stderr)
        if not args.trace:
            samples = [setup_s] + [setup_in_fresh_process(workload.name, args.seed)
                                   for _ in range(SETUP_SAMPLES - 1)]
            metrics["setup_s"] = (statistics.median(samples), "s")
            print(f"wall_setup_s {wall_setup_s} s")
            print(f"error_rate {failed / len(checked)} fraction")
            print(f"op_samples {len(results)} count")
        print("env " + json.dumps(environment(), sort_keys=True))
        for name, (value, unit) in metrics.items():
            print(f"{name} {value} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(checked),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
