"""stokestab benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload coeffs --seed 1 --seconds 20 --trace 0

Runs blocks of seeded items until --seconds have passed, checks every
item's outputs, writes the full result (environment, per-item outputs and
times, metrics with sample counts) to perfbench/out/, and prints one JSON
object as the last line of stdout: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def load_library():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (ROOT / "src" / "stokestab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no stokestab sources under {ROOT / 'src'}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import tracing
    import workloads
    # the first eigensolve pays OpenBLAS start-up; keep it out of item times
    np.linalg.eigvals(np.random.default_rng(0).standard_normal((82, 82)))
    return workloads, tracing


def blas_record():
    """Name, version, configuration and thread count of the loaded BLAS."""
    import ctypes
    import numpy as np
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {"name": cfg.get("name"), "version": cfg.get("version"),
           "threads": None, "config": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _openblas_export(lib, "get_num_threads", ctypes.c_int)
        config = _openblas_export(lib, "get_config", ctypes.c_char_p)
        if threads is not None:
            rec["threads"] = threads()
        if config is not None:
            rec["config"] = config().decode()
    return rec


def _openblas_export(lib, stem, restype):
    """The OpenBLAS entry point `stem` under its known export names."""
    for name in (f"scipy_openblas_{stem}64_", f"openblas_{stem}64_",
                 f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn
    return None


def environment():
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def measure(workload, seed, seconds, trace, tracing, bins=None):
    """Run whole blocks until `seconds` pass; alternate untraced/traced.

    Returns the items (input, seconds, output, failures, traced), the blocks
    (traced, item count, wall s), the tracer, the timed wall time and the
    peak RSS after the first block.
    """
    rng = random.Random(seed)
    bins = bins or workload.bins
    tracer = tracing.Tracer() if trace else None
    items, blocks = [], []
    inputs = workload.make_block(rng, bins)
    t0 = time.perf_counter()
    while True:
        traced = trace and len(blocks) % 2 == 1
        with tracer.installed() if traced else nullcontext():
            tb = time.perf_counter()
            with tracer.span("bench.block") if traced else nullcontext():
                records = workload.run_block(inputs)
            wall = time.perf_counter() - tb
        if not blocks:
            # the cascade-tree cache grows with every depth run, so the peak
            # is taken after a fixed amount of work
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        blocks.append((traced, len(records), wall))
        for x, secs, out, err in records:
            failures = [err] if err else workload.check(x, out)
            items.append({"input": x, "seconds": secs, "output": out,
                          "failures": failures, "traced": traced})
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and (not trace or len(blocks) >= 2):
            return items, blocks, tracer, elapsed, rss_mb
        inputs = workload.make_block(rng, bins)


def setup_probe_s(workload, seed):
    """Median wall time of fresh processes that only do the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t)
    return statistics.median(times), times


def run(workload_name, seed, seconds, trace, bins=None):
    """One benchmark run: (last-line summary, full result, tracer or None)."""
    workloads, tracing = load_library()
    if workload_name not in workloads.WORKLOADS:
        sys.exit(f"benchmark: unknown workload {workload_name!r}, choose "
                 f"from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[workload_name]
    setup_main = time.perf_counter() - T_START
    items, blocks, tracer, elapsed, rss_mb = measure(
        workload, seed, seconds, trace, tracing, bins)
    attempted = len(items)
    failed = sum(1 for it in items if it["failures"])
    result = {
        "workload": workload_name, "seed": seed,
        "seconds": seconds, "trace": trace,
        "environment": environment(),
        "setup_main_s": setup_main, "timed_s": elapsed,
        "fail_ratio": failed / attempted,
        "blocks": [{"traced": t, "items": c, "wall_s": w}
                   for t, c, w in blocks],
        "items": items,
    }
    if trace:
        def throughput(traced):
            return (sum(c for t, c, _ in blocks if t == traced)
                    / sum(w for t, _, w in blocks if t == traced))
        traced_items = sum(c for t, c, _ in blocks if t)
        metrics = tracer.layer_metrics(traced_items, throughput(False))
        samples = dict.fromkeys(metrics, traced_items)
    else:
        setup_s, result["setup_probe_s"] = setup_probe_s(workload_name, seed)
        values = {
            "setup_s": setup_s,
            "throughput_per_s": (attempted - failed) / elapsed,
            "latency_p50_s": statistics.median(it["seconds"] for it in items),
            "peak_rss_mb": rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        samples = {"setup_s": SETUP_PROBES, "throughput_per_s": attempted,
                   "latency_p50_s": attempted, "peak_rss_mb": 1,
                   "ok_ratio": attempted}
    result["metrics"] = {name: dict(m, samples=samples[name])
                         for name, m in metrics.items()}
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed, "metrics": metrics}
    return summary, result, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        workloads, _ = load_library()
        workload = workloads.WORKLOADS[args.workload]
        workload.make_block(random.Random(args.seed), workload.bins)
        return 0
    summary, result, tracer = run(args.workload, args.seed, args.seconds,
                                  args.trace)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(result, fh, sort_keys=True, indent=1)
    if tracer is not None:
        with open(OUT_DIR / f"{stem}.spans.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    for item in result["items"]:
        for failure in item["failures"]:
            print(f"FAILED {args.workload} {item['input']!r}: {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
