"""hnnembed benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload complete --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  A run
is one single-threaded process working through the workload's seeded pass
of inputs, one op at a time (a closed loop with one client), pass after
pass until the tail percentile has enough samples, ending on the whole
pass nearest to ``--seconds``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, ending on a traced one, and prints the
per-layer metrics from the traced passes (see README.md).  The last stdout
line is the result object; the line before it is the run record (output
digest, host-speed probe, setup samples, tail percentile).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES_BEFORE = 2
SETUP_PROBES_AFTER = 3
CHILD_TIMEOUT_S = 120


def _import_package():
    """Import hnnembed from this checkout's src/, or nowhere."""
    sys.path.insert(0, SRC)
    import hnnembed

    if os.path.dirname(os.path.dirname(os.path.abspath(hnnembed.__file__))) != SRC:
        raise ImportError(f"hnnembed imported from {hnnembed.__file__}, not from {SRC}")


def host_probe(samples: int = 5) -> float:
    """Median seconds of a fixed pure-Python loop: host speed, not a metric."""
    times = []
    for _ in range(samples):
        t = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def setup(workload: str, seed: int, workdir: str):
    """Inputs, one-time state and one untimed warm-up op."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    wl.collect(wl.op(wl.fresh_state(), 0))
    return wl


def setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _checked(wl, i: int, out) -> bool:
    try:
        return wl.check(i, out)
    except Exception:
        traceback.print_exc()
        return False


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns {"record": ..., "result": ...}."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        return _run(workload, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, seed, seconds, trace, workdir):
    # set-up time is an end-to-end metric, so traced runs skip the probes
    samples = []
    if not trace:
        samples += [setup_sample(workload, seed) for _ in range(SETUP_PROBES_BEFORE)]
    wl = setup(workload, seed, workdir)
    size = len(wl.inputs)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    first = [None] * size
    mismatches = [0] * size
    op_times: list[float] = []
    wall = {False: 0.0, True: 0.0}
    pass_seconds: list[float] = []
    passes = {False: 0, True: 0}
    count_ops = None
    seq = 0
    errors = 0
    host_before = host_probe()
    t_start = time.perf_counter()
    while True:
        traced = trace and passes[False] > passes[True]
        if traced:
            tracer.install()
            tracer.current_op = -1
        try:
            state = wl.fresh_state()
            if traced and count_ops is None:
                count_ops = range(seq, seq + size)
            p0 = time.perf_counter()
            for i in range(size):
                if traced:
                    tracer.current_op = seq
                t0 = time.perf_counter()
                try:
                    raw = wl.op(state, i)
                    t1 = time.perf_counter()
                    out = wl.collect(raw)
                except Exception:
                    t1 = time.perf_counter()
                    out = None
                    errors += 1
                    if errors <= 3:
                        traceback.print_exc()
                if not traced:
                    op_times.append(t1 - t0)
                if passes[False] + passes[True] == 0:
                    first[i] = out
                elif out is None or out != first[i]:
                    mismatches[i] += 1
                seq += 1
            pass_seconds.append(time.perf_counter() - p0)
            wall[traced] += pass_seconds[-1]
        finally:
            if traced:
                tracer.uninstall()
        passes[traced] += 1
        state = None
        elapsed = time.perf_counter() - t_start
        # end on the whole pass nearest to --seconds, so a run whose passes
        # are long does not overshoot by up to a pass
        if elapsed + elapsed / (passes[False] + passes[True]) / 2 < seconds:
            continue
        if trace and passes[True] == passes[False]:
            break
        if not trace and len(op_times) >= wl.min_ops:
            break
    host_after = host_probe()
    if not trace:
        samples += [setup_sample(workload, seed) for _ in range(SETUP_PROBES_AFTER)]

    runs_per_input = passes[False] + passes[True]
    bad = [out is None or not _checked(wl, i, out) for i, out in enumerate(first)]
    failed = sum(runs_per_input if bad[i] else mismatches[i] for i in range(size))
    attempted = runs_per_input * size
    digest = hashlib.sha256()
    for out in first:
        digest.update(b"<failed>" if out is None else wl.digest_bytes(out))

    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": runs_per_input,
        "ops_per_pass": size,
        "digest": digest.hexdigest(),
        "host_probe_s": {"before": host_before, "after": host_after},
        "pass_seconds": pass_seconds,
    }
    if trace:
        from tracing import layer_metrics

        overhead = (wall[True] / passes[True]) / (wall[False] / passes[False]) - 1
        values = layer_metrics(tracer, count_ops, passes[True] * size, overhead)
        spans = os.path.join(OUT, f"spans-{workload}-seed{seed}-pid{os.getpid()}.npz")
        tracer.dump(spans)
        record["spans_file"] = os.path.relpath(spans, ROOT)
        metrics = values
    else:
        ordered = sorted(op_times)
        n = len(ordered)
        rank = max(math.ceil(wl.tail_q * n), 1)
        record.update(
            tail_percentile=wl.tail_q * 100,
            tail_samples_beyond=n - rank,
            ops=n,
            setup_samples_s=samples,
        )
        metrics = {
            "ops_per_s": n / wall[False],
            "op_p50_s": statistics.median(ordered),
            "op_tail_s": ordered[rank - 1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": (attempted - failed) / attempted,
            "setup_s": statistics.median(samples),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_package()
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"error: cannot import hnnembed from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
        try:
            setup(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    units = _units()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps({"record": out["record"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
