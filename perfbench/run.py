"""apinc benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload phase-cert --seed 0 --seconds 20 --trace 0

Runs rounds of the workload until --seconds have passed (at least one),
checks every output, prints a report, and prints as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones, from rounds run under the span
tracer, with untraced rounds in between to give the tracing overhead.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

SETUP_REPS = 5

# end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "wall_s": "s", "build_s": "s", "peak_rss_mb": "MB"}

# cold import of apinc in a fresh interpreter, timed from the inside
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import apinc, apinc.cli; print(time.perf_counter() - t)"
)


def setup(name, seed, reps=SETUP_REPS, **sizes):
    """The workload, and `reps` samples of set-up time: a cold import of
    apinc plus generating the workload's inputs."""
    from workloads import SRC, WORKLOADS

    samples = []
    for _ in range(reps):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        t = time.perf_counter()
        workload = WORKLOADS[name](seed, **sizes)
        samples.append(float(probe.stdout) + time.perf_counter() - t)
    return workload, samples


def measure(workload, seconds, trace):
    """Untraced rounds, and with `trace` traced rounds between them,
    until `seconds` have passed; returns (untraced, traced, tracer)."""
    from spans import Tracer

    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        plain.append(workload.round())
        if tracer is not None:
            tracer.run_id = len(traced)
            gc.collect()
            with tracer:
                traced.append(workload.round())
        if time.perf_counter() - start >= seconds:
            return plain, traced, tracer


def _fastest(rounds, key):
    # On a shared host a core can run up to 1.7x slower for tens of seconds
    # whatever this process does; the fastest round is the estimate such
    # slow spells disturb least.  The report prints the median beside it.
    return min(r[key] for r in rounds)


def _timing(rounds, key, what="untraced rounds"):
    times = [r[key] for r in rounds]
    return f"{key} {min(times)} s (fastest of {len(times)} {what}; median {statistics.median(times)})"


def summarize(seed, setup_samples, plain, traced, tracer):
    """(metrics printed in the JSON line, report lines, attempted, failed)."""
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    lines = [
        f"seed {seed}",
        f"machine nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={_version('numpy')} scipy={_version('scipy')}",
        f"setup_s {statistics.median(setup_samples)} s (median of {len(setup_samples)})",
        _timing(plain, "wall_s"),
        _timing(plain, "build_s"),
    ]
    if "verify_s" in plain[0]:
        lines.append(_timing(plain, "verify_s"))
    if "latencies" in plain[0]:
        lat = [t * 1e3 for r in plain for t in r["latencies"]]
        q = statistics.quantiles(lat, n=10, method="inclusive")
        lines.append(f"search_p50_ms {statistics.median(lat)} ms (of {len(lat)} searches)")
        lines.append(f"search_p90_ms {q[8]} ms (of {len(lat)} searches, {sum(x > q[8] for x in lat)} beyond)")
    last = rounds[-1]
    if "parts" in last:
        lines += [
            f"parts {last['parts']} count",
            f"min_len {last['min_len']} count",
            f"singleton_frac {last['singletons'] / last['parts']} ({last['singletons']}/{last['parts']})",
            f"cert_bytes {last['cert_bytes']} bytes",
        ]
    if "increments" in last:
        lines.append(f"increments {last['increments']} count")
    lines.append(f"failed_frac {failed / attempted} ({failed}/{attempted})")
    lines += [f"problem: {p}" for r in rounds for p in r["problems"][:3]]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": _fastest(plain, "wall_s"),
            "build_s": _fastest(plain, "build_s"),
            "peak_rss_mb": peak_rss_mb,
        }
        lines.append(f"peak_rss_mb {peak_rss_mb} MB")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        return metrics, lines, attempted, failed

    from spans import UNITS

    per_round = []
    for run_id, r in enumerate(traced):
        m, (built, calls) = tracer.layer_metrics(run_id)
        m["cli.cert_bytes"] = r.get("cert_bytes", 0)
        per_round.append(m)
    metrics = {
        k: {"value": statistics.median(m[k] for m in per_round), "unit": unit}
        for k, unit in {**UNITS, "cli.cert_bytes": "bytes"}.items()
    }
    overhead = _fastest(traced, "wall_s") - _fastest(plain, "wall_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines += [
        f"trace.overhead_s {overhead} s (fastest traced minus fastest untraced wall_s)",
        _timing(traced, "wall_s", "traced rounds"),
        f"engine.partitions_per_increment {built}/{calls} (last traced round)",
        f"spans recorded {len(tracer.start)}",
    ]
    return metrics, lines, attempted, failed


def _version(module):
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one thread per workload, also inside numpy, which workloads imports
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import apinc from this checkout: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    workloads.WORK.mkdir(exist_ok=True)
    try:
        workload, setup_samples = setup(args.workload, args.seed)
        plain, traced, tracer = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    metrics, lines, attempted, failed = summarize(args.seed, setup_samples, plain, traced, tracer)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("  " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
