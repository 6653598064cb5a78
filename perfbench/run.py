"""liqcov benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload forecast --seed 1 --seconds 22 --trace 0

Run from the root of a liqcov checkout; the program is imported from its
``src`` directory.  After set-up the workload repeats identical rounds
until the timed rounds add up to ``--seconds``; each round's output is
checked outside the timed region.  With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of the traced
rounds, which alternate with untraced ones to measure the tracing overhead.
The last line of standard output is the JSON result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def process_age() -> float:
    """Seconds since this process started, to clock-tick resolution."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T0


STARTUP_S = process_age() - (time.perf_counter() - T0)


def blas_threads() -> int:
    """Threads of the OpenBLAS that numpy loaded, read from the library."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed(workload):
    t0 = time.perf_counter()
    out = workload.run_round()
    return out, time.perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "liqcov", "__init__.py")):
        print(f"no liqcov sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import liqcov

    if not os.path.abspath(liqcov.__file__).startswith(SRC + os.sep):
        print(f"liqcov imported from {liqcov.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work_dir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        workload.setup(args.seed, work_dir)
        setup_s = STARTUP_S + time.perf_counter() - T0
        if tracer:
            tracer.uninstall()
            synth_s = tracer.self_s["synthetic.write_synthetic_csv"]
            tracer.reset()

        plain, traced = [], []
        attempted = failed = 0
        cpu_s = 0.0
        peak_mb = None      # set-up and first round, before any check allocates
        error = None
        while error is None:
            for use_trace in ((False, True) if tracer else (False,)):
                if use_trace:
                    tracer.round += 1
                    tracer.install()
                    cpu0 = time.process_time()
                out, dt = timed(workload)
                if use_trace:
                    cpu_s += time.process_time() - cpu0
                    tracer.uninstall()
                (traced if use_trace else plain).append(dt)
                if peak_mb is None:
                    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                try:
                    n_ops, n_failed = workload.evaluate(out)
                except checks.CheckError as exc:
                    error = str(exc)
                    break
                attempted += n_ops
                failed += n_failed
            if sum(plain) + sum(traced) >= args.seconds:
                break

        run_s = statistics.median(plain)
        info = {"workload": args.workload, "seed": args.seed, "blas_threads": blas_threads(),
                "round_s": [round(t, 4) for t in plain]}
        if tracer:
            info["traced_round_s"] = [round(t, 4) for t in traced]
            metrics = {name: {"value": v, "unit": u}
                       for name, (v, u) in tracer.layer_metrics(len(traced)).items()}
            extra = {
                "synthetic.write_synthetic_csv.s": (synth_s, "s"),
                "trace.overhead_s": (statistics.median(traced) - run_s, "s"),
                "process.cpu_s": (cpu_s / len(traced), "s"),
                "process.blas_threads": (info["blas_threads"], "count"),
            }
            metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
            os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
            tracer.write(os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.csv"))
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "run_s": {"value": run_s, "unit": "s"},
                "throughput_per_s": {"value": workload.units() / run_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
        if error:
            info["check_failed"] = error
            print(f"check failed: {error}", file=sys.stderr)
        print("# " + json.dumps(info))
        print(json.dumps({"correct": error is None, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if error is None else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
