"""gyroproxy benchmark driver: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload step-sh03b --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
Each op starts only after the previous one has finished and been
checked.  ``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced op cycles and reports the
per-layer metrics from the traced ones.  After an op, at most every
50 ms, a fixed host probe is timed; op times divided by the probe times
around them give the reference-speed metrics (``ref_*``), which move far
less than wall time when the shared host's speed drifts.  The run prints
a table of every metric it measured (name, value, unit), a host
fingerprint line, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  It also writes that result, and
in a traced run every span, to ``perfbench/out/``.  See
perfbench/README.md for what each metric means and which workload should
move it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: name -> (case, worker threads, with the nonlinear kernel); None marks
#: the planner sweep.
WORKLOADS = {
    "step-sh03b": ("sh03b-desk", 1, True),
    "step-em04b-t2": ("em04b-desk", 2, True),
    "linear-em04b": ("em04b-desk", 1, False),
    "plan-sweep": None,
}

# setup_s is the median of SETUP_SAMPLES set-ups spread evenly over the
# timed loop (each on a fresh workload object, between op cycles), so it
# samples the host over the same stretch of time as the op metrics do.
SETUP_SAMPLES = 20
SETUP_MIN = 5
MIN_OPS = 100       # untraced ops per run, so 10 samples lie beyond p90
MAX_STRETCH = 4     # never measure longer than this many times --seconds
NONLINEAR_T1_REPS = 3
BLAS_THREADS = 1

# The host's speed drifts by up to 2x over seconds to minutes (a shared
# 2-core x86-64 VM: a fixed loop's 2 s medians ran 57-102 ms), far more
# than any bound a regression check could use.  So the driver runs
# host_probe() after an op whenever PROBE_EVERY_S has passed since the
# last probe, and divides each op time by the median of the PROBE_WINDOW
# probe times around it.  The probe is a pure-Python loop, which tracked
# the single-threaded steps' slowdowns, then a SHA-256, which tracked the
# 2-thread step's better.  Over ten 20 s runs per workload the p50
# spread (IQR / median) was 0.03-0.05, against 0.03-0.16 for wall time.
# REF_PROBE_S turns the ratio back into seconds: ref_* metrics are the
# seconds an op would take on a host where the probe takes 1 ms.
PROBE_LOOPS = 3000
PROBE_HASH_BYTES = 1 << 19
PROBE_WINDOW = 9
PROBE_EVERY_S = 0.05
REF_PROBE_S = 1e-3
PROBE_DATA = bytes(range(256)) * (PROBE_HASH_BYTES // 256)

UNITS = {"ref_op_s.p50": "s", "ref_op_s.p90": "s", "ref_ops_per_s": "1/s", "setup_s": "s",
         "peak_rss_mb": "MB", "failed_frac": "frac"}
END_TO_END = ("ref_op_s.p50", "ref_op_s.p90", "ref_ops_per_s", "setup_s", "peak_rss_mb")


def host_probe() -> float:
    """Fixed work that gauges the host's speed; returns its wall seconds.

    PROBE_LOOPS rounds of interpreter work, then a SHA-256 of PROBE_DATA;
    about 1 ms on a 2-core x86-64 host.  Uses nothing from the package
    and runs on the calling thread: probe threads kept alive between ops
    held on to malloc arenas and raised the step-em04b-t2 peak RSS from
    311 MB to 350-430 MB, and threads started afresh for each probe made
    it too noisy to correct by.
    """
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFF
        table[i & 127] = acc
    hashlib.sha256(PROBE_DATA).digest()
    return time.perf_counter() - start


def host_speed(probes: list) -> list:
    """Median probe time in a window of PROBE_WINDOW probes centred on each one."""
    half = PROBE_WINDOW // 2
    return [statistics.median(probes[max(0, j - half): j + half + 1]) for j in range(len(probes))]


def op_stats(samples: list, speed: list, prefix: str) -> dict:
    """p50, p90 and throughput of (elapsed, index of the next probe) samples.

    prefix "wall." gives wall seconds; "ref_" rescales each op by
    REF_PROBE_S / (host speed at that op).
    """
    if prefix == "wall.":
        times = [e for e, _ in samples]
    else:
        times = [e * REF_PROBE_S / speed[min(j, len(speed) - 1)] for e, j in samples]
    return {
        f"{prefix}op_s.p50": statistics.median(times),
        f"{prefix}op_s.p90": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
        f"{prefix}ops_per_s": len(times) / sum(times),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        p.error("--seconds must be > 0 and --seed >= 0")
    return args


def load_package():
    """Import gyroproxy from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gyroproxy" / "__init__.py").is_file():
        raise SystemExit(f"error: no gyroproxy package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import gyroproxy

    if Path(gyroproxy.__file__).resolve().parent != (src / "gyroproxy").resolve():
        raise SystemExit(f"error: imported gyroproxy from {gyroproxy.__file__}, not {src}")


def fingerprint(seed: int, threads: int) -> dict:
    import ctypes

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    try:
        l3 = ctypes.CDLL(None).sysconf(194)  # glibc _SC_LEVEL3_CACHE_SIZE
    except (OSError, AttributeError):
        l3 = -1
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "worker_threads": threads,
        "l3_bytes": l3,
        "seed": seed,
    }


def make_workload(name: str):
    import workloads

    spec = WORKLOADS[name]
    return workloads.PlanSweep() if spec is None else workloads.StepWorkload(*spec)


def trace_targets():
    from gyroproxy import commsim, grid, kernels, spectral

    return [
        (grid, "random_state", "grid.random_state"),
        (kernels, "make_kernel_inputs", "kernels.make_kernel_inputs"),
        (spectral, "plan_padded_size", "padding.plan_padded_size"),
        (kernels, "run_kernel", lambda args: f"kernels.{args[0]}"),
        (kernels, "bracket", "spectral.bracket"),
        (spectral, "to_real", "spectral.to_real"),
        (spectral, "to_spectrum", "spectral.to_spectrum"),
        (commsim, "plan_decomposition", "commsim.plan_decomposition"),
        (commsim, "collective_time", "commsim.collective_time"),
        (commsim, "predict_report", "commsim.predict_report"),
    ]


def run(args) -> tuple[dict, dict, list]:
    """Set up, validate and measure one workload; returns (result, table, spans)."""
    setup_times = []

    def timed_setup():
        fresh = make_workload(args.workload)
        start = time.perf_counter()
        fresh.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
        return fresh

    wl = timed_setup()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(trace_targets())
        tracer.install()
        try:
            with tracer.span("setup"):
                wl.setup(args.seed)
        finally:
            tracer.uninstall()

    validation = wl.validate(args.seed)
    for msg in validation:
        print(f"validation failed: {msg}", file=sys.stderr)

    untraced, traced, probes = [], [], []
    last_probe = 0.0
    attempted = failed = cycles = 0
    measured = 0.0
    min_ops = 1 if args.trace else MIN_OPS
    first_failure = None
    while (measured < args.seconds or len(untraced) < min_ops) and measured < MAX_STRETCH * args.seconds:
        if measured >= len(setup_times) * args.seconds / SETUP_SAMPLES:
            timed_setup()
        with_trace = tracer is not None and cycles % 2 == 1
        wl.start_cycle()
        for i in range(wl.cycle):
            if with_trace:
                tracer.install()
            start = time.perf_counter()
            try:
                with tracer.span("op") if with_trace else contextlib.nullcontext():
                    out = wl.op(i)
                error = None
            except Exception:  # an op that raises is a failed op; keep measuring
                error = traceback.format_exc()
            elapsed = time.perf_counter() - start
            if with_trace:
                tracer.uninstall()
            attempted += 1
            measured += elapsed
            if error is None and not validation and not wl.check(i, out):
                error = f"op {i}: output outside tolerance of the validated reference"
            # Drop the outputs before the next op: holding them while it
            # allocates its own made every other op pay fresh page faults
            # (a two-mode op time whose median flipped between the modes).
            out = None
            next_probe = len(probes)
            if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                probes.append(host_probe())
                last_probe = time.perf_counter()
            if error is not None:
                failed += 1
                first_failure = first_failure or error
                continue
            (traced if with_trace else untraced).append((elapsed, next_probe))
        cycles += 1
    if first_failure:
        print(f"{failed} of {attempted} ops failed; first: {first_failure}", file=sys.stderr)
    while len(setup_times) < SETUP_MIN:
        timed_setup()

    speed = host_speed(probes)
    table = op_stats(untraced, speed, "ref_") if untraced else {}
    table["setup_s"] = statistics.median(setup_times)
    table["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    table["failed_frac"] = failed / attempted
    table = {k: (v, UNITS[k]) for k, v in table.items()}
    if untraced:
        wall = op_stats(untraced, speed, "wall.")
        table.update({k: (v, UNITS["ref_" + k[len("wall."):]]) for k, v in wall.items()})
        table["host.probe_s"] = (statistics.median(probes), "s")

    spans = []
    if tracer is not None:
        import layers

        t1 = None
        if "nonlinear" in wl.kernel_names:
            from gyroproxy import kernels

            ones = []
            for _ in range(NONLINEAR_T1_REPS):
                start = time.perf_counter()
                kernels.run_kernel("nonlinear", wl.h, wl.inputs, threads=1)
                ones.append(time.perf_counter() - start)
            t1 = statistics.median(ones)
        overhead = 0.0
        if traced and untraced:
            overhead = op_stats(traced, speed, "ref_")["ref_op_s.p50"] / table["ref_op_s.p50"][0] - 1
        spans = tracer.spans
        table.update(layers.per_layer(spans, wl, {
            "overhead_frac": overhead, "nonlinear_t1_s": t1, "cycles": cycles}))
        metrics = {k: v for k, v in table.items() if k not in UNITS}
    else:
        metrics = {k: table[k] for k in END_TO_END if k in table}

    result = {
        "correct": not validation and failed == 0 and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, table, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    threads = 1 if spec is None else spec[1]
    # Pin BLAS to one thread before numpy loads.  The collision matvec is a
    # BLAS matmul; with as many BLAS threads as workers, the BLAS threads
    # left spinning after it take a core from the nonlinear kernel's pool
    # (em04b-desk, 2 workers, 2-core x86-64 host: step p50 0.25 s against
    # 0.19 s, and twice the run-to-run spread).
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    load_package()
    host = fingerprint(args.seed, threads)

    result, table, spans = run(args)

    for name, (value, unit) in table.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print("host " + json.dumps(host, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "host": host,
              "result": result, "spans": [list(s) for s in spans]}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
