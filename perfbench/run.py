"""Run one polybox benchmark workload and print its metrics.

    python3 perfbench/run.py --workload square-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: polybox is imported from `src/` next
to this directory, never from an installed copy. The run sets up (one
seeded round of inputs, input files, one checked warm-up item), then
runs whole rounds of items until `--seconds` of wall time have passed,
checking every item. The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the lines before it
repeat the metrics for a reader, with the scalar backend, the Python
version and the core count.

Times are reported in reference seconds: each item's wall-clock time is
scaled by 1 ms over the mean time of `probe()`, a fixed loop timed just
before and just after it, and the set-up time by 1 ms over the median
of the probes taken during set-up, because the host's speed swings by up
to 1.8x for seconds to minutes at a time (see README.md).

With `--trace 0` the metrics are the end-to-end ones. `setup_s` is the
median of three set-ups: this process's own and two fresh processes
that stop after the warm-up item. With `--trace 1` every item runs
twice, untraced and with every traced function wrapped (see spans.py),
for `--seconds` in all; the run prints the per-layer metrics and the
tracing overhead, and writes the spans to
`perfbench/out/trace-<workload>.npz`.
"""
import time

PROBE_LOOPS = 10_000
PROBE_REF_S = 1e-3


def probe():
    """Seconds the host now takes for a fixed pure-Python loop (the faster
    of two tries). It calls no polybox code, so no change to polybox can
    move it; it tracks only the host's speed."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += (i * 7919) % 104729
        best = min(best, time.perf_counter() - start)
    return best


T0 = time.perf_counter()
SETUP_PROBES = [probe()]

import os  # noqa: E402

# One process, one thread: numpy's BLAS threads are pinned before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3


def import_polybox():
    """Import polybox from this checkout's src/, or exit with an error."""
    sys.path.insert(0, SRC)
    try:
        import polybox
    except ImportError as e:
        sys.exit(f"error: cannot import polybox from {SRC}: {e}")
    where = os.path.dirname(os.path.abspath(polybox.__file__))
    if where != os.path.join(SRC, "polybox"):
        sys.exit(f"error: polybox was imported from {where}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up and print its time (used for the set-up samples)")
    p.add_argument("--workdir", help="directory for input files (default: a new one in out/)")
    return p.parse_args(argv)


class Runner:
    """Runs items of one workload instance, checking each one."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.wall = []              # wall-clock seconds per item
        self.times = []             # reference seconds per item

    def run_item(self, item, tracer=None):
        """Time one item (traced when a tracer is given), then check it.
        Returns False when it failed."""
        before = probe()
        if tracer is not None:
            tracer.item = self.attempted
            tracer.install()
        start = time.perf_counter()
        try:
            out = self.w.run(item)
        except Exception:  # a raising item counts as failed; keep running
            out = None
            err = traceback.format_exc(limit=3)
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        self.wall.append(elapsed)
        # scaled by the host's speed just before and just after the item
        self.times.append(elapsed * PROBE_REF_S * 2 / (before + probe()))
        if out is None:
            bad = [err]
        else:
            bad = self.w.check(item, out)
        if bad:
            self.failed += 1
            print(f"FAILED {self.w.name} item {self.attempted - 1} ({item['kind']}): "
                  + "; ".join(bad), file=sys.stderr)
        return not bad

    def run_rounds(self, first_round, seconds, each=None):
        """Whole rounds until `seconds` of wall time have passed; `each`
        replaces run_item. Returns the number of rounds."""
        each = each or self.run_item
        start = time.perf_counter()
        rounds = 0
        batch = first_round
        while True:
            for item in batch:
                each(item)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                return rounds
            batch = self.w.round()


def setup(args, workloads):
    """Seeded inputs, input files, one checked warm-up item. Returns the
    workload, its first round, the work directory and whether the
    warm-up item passed its checks."""
    workdir = args.workdir or os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    SETUP_PROBES.append(probe())
    first = w.round()
    SETUP_PROBES.append(probe())
    warm_ok = Runner(w).run_item(w.warmup())
    return w, first, workdir, warm_ok


def setup_samples(args, workdir):
    """Set-up times of fresh processes that stop after the warm-up item;
    their input files go below `workdir`."""
    samples = []
    for i in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
             "--workdir", os.path.join(workdir, f"setup-{i}")],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: set-up sample failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def header(name):
    from polybox import exact
    backend = "gmpy2" if exact.HAVE_GMPY2 else "fractions"
    print(f"workload {name} | backend {backend} | python {platform.python_version()} | "
          f"cpu_count {os.cpu_count()} | blas threads 1")


def untraced(args, w, first, setup_s):
    runner = Runner(w)
    rounds = runner.run_rounds(first, args.seconds)
    times, wall = runner.times, runner.wall
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"wall clock: items_per_s {len(wall) / sum(wall):.6g} 1/s, item_p50_ms "
          f"{statistics.median(wall) * 1e3:.6g} ms")
    if len(times) >= 100:
        # not in BENCHMARK.json: the other workloads run too few items for a tail
        p90 = statistics.quantiles(times, n=10)[-1] * 1e3
        print(f"item_p90_ms {p90:.6g} ms (ungated; {len(times)} items)")
    print(f"attempted {runner.attempted} failed {runner.failed} rounds {rounds}")
    return runner.attempted, runner.failed, metrics


def traced(args, w, first):
    """Each item runs twice, untraced and traced, in alternating order so
    that neither side always gets the warmer caches."""
    from spans import Tracer, per_layer_metrics
    tracer = Tracer()
    plain, traced_runs = Runner(w), Runner(w)

    def pair(item):
        if plain.attempted % 2:
            traced_runs.run_item(item, tracer)
            plain.run_item(item)
        else:
            plain.run_item(item)
            traced_runs.run_item(item, tracer)
    rounds = plain.run_rounds(first, args.seconds / 2, each=pair)
    path = os.path.join(OUT, f"trace-{args.workload}.npz")
    tracer.save(path)
    wall = sum(traced_runs.wall)
    ips_plain = len(plain.times) / sum(plain.times)
    ips_traced = len(traced_runs.times) / sum(traced_runs.times)
    layer = tracer.metrics()
    layer.update({"trace.items": len(traced_runs.times), "trace.wall_s": wall,
                  "trace.self_s_sum": tracer.self_time_total(),
                  "trace.items_per_s": ips_traced,
                  "trace.overhead_pct": (ips_plain - ips_traced) / ips_plain * 100})
    metrics = {name: (layer[name], unit) for name, unit, _better in per_layer_metrics()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"untraced items_per_s {ips_plain:.6g} 1/s on the same {len(plain.times)} items; "
          f"{len(tracer.sp_start)} spans written to {os.path.relpath(path, ROOT)}")
    attempted = plain.attempted + traced_runs.attempted
    failed = plain.failed + traced_runs.failed
    print(f"attempted {attempted} failed {failed} rounds {rounds} (each item untraced and traced)")
    return attempted, failed, metrics


def main(argv=None):
    # on SIGTERM, unwind so that the work directory and set-up processes are cleaned up
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    import_polybox()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    w, first, workdir, warm_ok = setup(args, workloads)
    setup_wall = time.perf_counter() - T0
    setup_s = setup_wall * PROBE_REF_S / statistics.median(SETUP_PROBES + [probe()])
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if warm_ok else 1
        header(args.workload)
        if args.trace:
            attempted, failed, metrics = traced(args, w, first)
        else:
            setup_s = statistics.median([setup_s] + setup_samples(args, workdir))
            attempted, failed, metrics = untraced(args, w, first, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": warm_ok and failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
