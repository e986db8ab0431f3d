"""ccplan benchmark: time to a certified plan, Monte Carlo throughput and
cold certification.

Run from the repository root:

    python3 perfbench/run.py --workload pickplace3d --seed 1 --seconds 50 \\
        --trace 0

Workloads: pickplace3d, certify-random (see workloads.py). One
caller runs the workload's operation cycle in a closed loop until
``--seconds`` have passed, at least one whole cycle has run and 1000
certificates are done; every output is checked. Operations are timed in
CPU seconds scaled to a reference machine speed (see speed.py).
``--trace 1`` instead runs one cycle with the layer trace of layertrace.py
installed, between two untraced runs of the same cycle, writes the spans
under ``.bench_out/`` and reports the per-layer metrics.

Human-readable lines come first. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. BLAS is pinned
to one thread before NumPy loads.
"""

import os

BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Set-up is timed in this many fresh child processes, each scaled by a
# machine-speed sample taken when it ends; setup_s is the median at the
# reference speed.
SETUP_PROBES = 5


def import_program():
    """Import ccplan from this checkout's src/ and fail without it."""
    if not (SRC / "ccplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no ccplan sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ccplan
    if Path(ccplan.__file__).resolve().parent != SRC / "ccplan":
        raise SystemExit(f"error: imported ccplan from {ccplan.__file__}, "
                         f"not from {SRC}")


def set_up(workload, seed, size=None, sample_speed=True):
    """Import ccplan, parse the inputs and build the workload. Returns
    (workload, CPU seconds taken)."""
    t0 = time.process_time()
    import_program()
    import workloads
    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; expected "
                         f"one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.Workload(workload, seed, size or workloads.FULL,
                           sample_speed)
    return w, time.process_time() - t0


def _probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, measured inside it, at the
    reference speed."""
    from speed import Stopwatch
    with Stopwatch() as watch:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1]) * watch.scale()


def _no_span(name):
    return contextlib.nullcontext()


def run_cycles(w, seconds, span=_no_span):
    """Run operations in cycle order until ``seconds`` of wall time have
    passed, at least one whole cycle has run and the workload has its
    minimum number of certificates. Returns the CPU seconds taken."""
    from speed import cpu_seconds
    cycle = w.cycle()
    start, cpu = time.perf_counter(), cpu_seconds()
    i = 0
    while (i < len(cycle) or w.needs_certs()
           or time.perf_counter() - start < seconds):
        cycle[i % len(cycle)](span)
        i += 1
    return cpu_seconds() - cpu


def machine_record():
    import numpy
    import scipy
    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def measure(workload, seed, seconds, trace, size=None):
    """One benchmark run. Returns (result dict, workload objects)."""
    w, _ = set_up(workload, seed, size, sample_speed=not trace)
    if not trace:
        setups = [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
        run_cycles(w, seconds)
        import workloads
        metrics = workloads.end_to_end(w)
        print(f"machine speed: reference kernel {1e3 * min(w.kernel_s):.3f}"
              f" to {1e3 * max(w.kernel_s):.3f} ms, median "
              f"{1e3 * statistics.median(w.kernel_s):.3f} ms over "
              f"{len(w.kernel_s)} samples")
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        runs = [w]
    else:
        # One cycle untraced, the same cycle traced, and again untraced, each
        # on freshly built inputs so every certificate stays cold; the
        # overhead is the traced cycle's CPU time minus the mean of the
        # untraced ones, which cancels a steady drift in machine speed.
        import layertrace
        import workloads
        untraced_s = [run_cycles(w, 0)]
        tracer = layertrace.Tracer()
        sites = tracer.install()
        try:
            with tracer.span("setup"):
                traced = workloads.Workload(workload, seed, w.size, False)
            traced_s = run_cycles(traced, 0, tracer.span)
        finally:
            tracer.uninstall()
        again = workloads.Workload(workload, seed, w.size, False)
        untraced_s.append(run_cycles(again, 0))
        print(f"trace: {sites} import sites wrapped, {len(tracer.spans)} "
              f"spans, traced cycle {traced_s:.3f} s, untraced cycles "
              f"{untraced_s[0]:.3f} s and {untraced_s[1]:.3f} s")
        tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.json")
        metrics = tracer.metrics(traced_s - statistics.fmean(untraced_s))
        runs = [w, traced, again]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    return result, runs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed)[1]))
        return 0
    result, runs = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print("machine:", json.dumps(machine_record(), sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}")
    print(f"{args.workload} failed_share = "
          f"{result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    for r in runs:
        for failure in r.failures:
            print("FAILED", failure, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
