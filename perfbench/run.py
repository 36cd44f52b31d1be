"""bqrnet benchmark: one workload per invocation, closed loop, in process.

    python3 perfbench/run.py --workload train-d1 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
Workloads are described in ``workloads.py`` and the layer-to-metric mapping
in ``layers.py``.

With ``--trace 0`` the run times set-up and ``--seconds`` of operations with
no tracing and reports the end-to-end metrics:

- ``setup_s``: seconds from interpreter start-up to a ready workload (imports,
  data generation, model or checkpoint), the median of SETUP_SAMPLES fresh
  processes: this one and SETUP_SAMPLES - 1 probes started one at a time.
- ``ms_per_op``: median wall time of one operation (an epoch, or one CLI
  command at the workload's stated row count).
- ``rows_per_s``: rows per operation over the median operation time.
- ``peak_rss_mb``: peak resident memory of this process after the timed
  loop, before the output checks.

With ``--trace 1`` the run alternates untraced and traced operations for
``--seconds`` and reports the per-layer metrics of ``layers.py``. Failed operations
and output checks are counted in ``attempted`` and ``failed`` either way. The
last line of standard output is the result as JSON; an environment record is
printed above it and saved with the result under ``perfbench/out/results``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: on a 2-core machine shared with other processes, a second
# thread made forward_cached on 1024 rows read 16 ms against 6 ms.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
MIN_OPS = 3
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import bqrnet from this checkout's src/, or exit 2."""
    if not (SRC / "bqrnet" / "__init__.py").is_file():
        sys.exit(f"error: no bqrnet package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import bqrnet
    if Path(bqrnet.__file__).resolve().parent != SRC / "bqrnet":
        sys.exit(f"error: bqrnet imported from {bqrnet.__file__}, not {SRC}")


def environment(seed):
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "seed": seed}


def timed_loop(wl, st, seconds, tracer=None, targets=()):
    """Run operations until ``seconds`` have passed (at least MIN_OPS each
    way).

    With a tracer, every second call runs with ``targets`` wrapped and inside
    an "op" span, so traced and untraced calls meet the same machine and
    training state. Returns (untraced per-op ms, traced per-op ms, traced
    units, calls made, calls failed); a call may run several units, and its
    time is split evenly among them.
    """
    ms = ([], [])
    traced_units = calls = failed = 0
    min_calls = MIN_OPS * (1 if tracer is None else 2)
    deadline = time.perf_counter() + seconds
    while calls < min_calls or time.perf_counter() < deadline:
        traced = tracer is not None and calls % 2 == 1
        if traced:
            tracer.install(targets)
            t0 = time.perf_counter_ns()
            with tracer.span("op"):
                n, ok = wl.run_op(st)
            elapsed = time.perf_counter_ns() - t0
            tracer.uninstall()
            traced_units += n
        else:
            t0 = time.perf_counter_ns()
            n, ok = wl.run_op(st)
            elapsed = time.perf_counter_ns() - t0
        ms[traced].extend([elapsed / 1e6 / n] * n)
        calls += 1
        failed += not ok
    return ms[0], ms[1], traced_units, calls, failed


def warm_up(wl, st):
    """One untimed operation; returns (attempted, failed)."""
    _, ok = wl.run_op(st)
    return 1, int(not ok)


def wrap_up(wl, st):
    """Untimed: run on to the workload's check length, then check the
    outputs; returns (attempted, failed)."""
    calls, failed = wl.finish(st)
    results = wl.checks(st)
    for label, ok in results:
        print(f"  check {'ok  ' if ok else 'FAIL'} {label}")
    return calls + len(results), failed + sum(not ok for _, ok in results)


def tail(ms):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for q in (99, 90, 75):
        if len(ms) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(ms, n=100)[q - 1]
    return None


def setup_probe(args, workdir):
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    wl.setup(args.seed, workdir)
    print(json.dumps({"setup_s": time.perf_counter() - PROCESS_START}))


def probe_setups(args, n):
    """Set-up seconds of n fresh processes, run one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(args, wl, workdir):
    st = wl.setup(args.seed, workdir)
    setup_s = time.perf_counter() - PROCESS_START
    counts = [warm_up(wl, st)]
    ms, _, _, calls, bad = timed_loop(wl, st, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts += [(calls, bad), wrap_up(wl, st)]
    setups = [setup_s] + probe_setups(args, SETUP_SAMPLES - 1)

    op_ms = statistics.median(ms)
    high = tail(ms)
    print(f"  {len(ms)} x {wl.op_unit} in {sum(ms) / 1e3:.2f} s; median "
          f"{op_ms:.3f} ms" + (f"; p{high[0]} {high[1]:.3f} ms" if high else ""))
    print(f"  set-up samples (s): {' '.join(f'{s:.3f}' for s in setups)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ms_per_op": (op_ms, "ms"),
        "rows_per_s": (wl.rows_per_op / (op_ms / 1e3), "rows/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, counts


def per_layer(args, wl, workdir):
    import layers
    from tracing import Tracer

    st = wl.setup(args.seed, workdir / "untraced")
    # both timed set-ups are repeats, so neither pays first-call costs
    t0 = time.perf_counter()
    wl.setup(args.seed, workdir / "repeat")
    setup_untraced = time.perf_counter() - t0
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed(layers.SETUP_TARGETS):
        wl.setup(args.seed, workdir / "traced")
    setup_traced = time.perf_counter() - t0
    setup_spans, tracer.spans = tracer.spans, []

    counts = [warm_up(wl, st)]
    plain, traced, units, calls, bad = timed_loop(
        wl, st, args.seconds, tracer, layers.LOOP_TARGETS)
    counts += [(calls, bad), wrap_up(wl, st)]

    info = wl.layer_info(st, units)
    info["overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    info["setup_overhead_ratio"] = setup_traced / setup_untraced
    print(f"  traced {units} x {wl.op_unit}, {len(tracer.spans)} spans")
    return layers.per_layer_metrics(tracer.spans, setup_spans, info), counts


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            setup_probe(args, workdir)
            return 0
        wl = workloads.WORKLOADS[args.workload]
        env = environment(args.seed)
        print(f"workload {wl.name} seed {args.seed} trace {args.trace} "
              f"seconds {args.seconds:g}")
        print("env " + json.dumps(env, sort_keys=True))
        run = per_layer if args.trace else end_to_end
        metrics, counts = run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = (sum(c) for c in zip(*counts))
    print(f"  fail_ratio {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, "result": result}, indent=1)
                      + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
