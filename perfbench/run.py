"""Closed-loop benchmark of the glnlab CLI.

    python3 perfbench/run.py --workload finite-rings --seed 1 \
        --seconds 15 --trace 0

One process per run, one client, no threads: the client sends each
request of the workload's seeded stream to ``glnlab.cli.run(argv)`` in
this process only after the previous one returned, captures the JSON
report from stdout and checks it.  With ``--trace 0`` the last line of
stdout holds the end-to-end metrics; with ``--trace 1`` the stream is
sent once with layer tracing and once without, and the last line holds
the per-layer metrics.  The line before it records the host, the
source revision, the seed and the details behind each figure.  Run it
from the repository root; it builds nothing and writes no files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# set-up imports every layer, so import-time work of any layer shows in
# setup_s and no request in the stream pays a module import
IMPORTS = ("glnlab.cli", "glnlab.rings", "glnlab.roots", "glnlab.lang",
           "glnlab.building", "glnlab.hecke", "glnlab.lfactor", "sympy")

sys.dont_write_bytecode = True  # the run writes no files
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from hostspeed import HostSpeed, burst_factor  # noqa: E402


class BenchError(Exception):
    pass


def load_glnlab():
    """Import the checkout's glnlab (every layer) and sympy."""
    if not (SRC / "glnlab" / "cli.py").is_file():
        raise BenchError(f"no glnlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in IMPORTS:
        importlib.import_module(name)
    import glnlab.cli
    if Path(glnlab.__file__).resolve().parent != SRC / "glnlab":
        raise BenchError(f"imported glnlab from {glnlab.__file__}")
    # the set-up heap (sympy, glnlab) outlives every request; frozen, it is
    # not rescanned by each collection, as in a process that ran one request
    gc.collect()
    gc.freeze()
    return glnlab.cli


def setup_seconds():
    """Median time from spawning a fresh interpreter until it has
    imported IMPORTS, scaled to the reference host by kernel bursts just
    before and after; each sample is waited for before the next starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    code = f"import time, {', '.join(IMPORTS)}; print(repr(time.time()))"
    samples = []
    before = burst_factor()
    for _ in range(SETUP_SAMPLES):
        t0 = time.time()
        try:
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 cwd=ROOT, capture_output=True, text=True,
                                 timeout=120)
        except subprocess.TimeoutExpired:
            raise BenchError("setup probe did not finish in 120 s")
        if out.returncode != 0:
            raise BenchError(f"setup probe failed: {out.stderr.strip()}")
        samples.append(float(out.stdout.strip()) - t0)
    factor = (before + burst_factor()) / 2
    return statistics.median(samples) * factor, samples


def send(cli, argv):
    """One request: (exit code, stdout, stderr, start, end)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(list(argv))
        except Exception as exc:  # a traceback breaks the CLI contract
            rc = f"raised {exc!r}"
    return rc, out.getvalue(), err.getvalue(), start, time.perf_counter()


def run_stream(cli, requests, tracer=None):
    """Send the stream in a closed loop; returns each request's (start,
    end) and the failures.  The client's own checking between requests
    falls outside every request, so it is not charged to the program."""
    spans, failures, over_wall = [], [], []
    for argv, check_fn, check_args in requests:
        # each request starts on a clean heap, as a fresh CLI process does
        gc.collect()
        if tracer is None:
            rc, text, err, start, end = send(cli, argv)
        else:
            (rc, text, err, start, end), wall, inside = tracer.request(
                send, cli, argv)
            if inside > wall:
                over_wall.append(" ".join(argv))
        spans.append((start, end))
        problem = workloads.check(text, rc, err, check_fn, check_args)
        if problem:
            failures.append({"argv": argv, "problem": problem})
    return spans, failures, over_wall


def tail(latencies):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when that percentile would not lie
    above the median (fewer than 21 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "glnlab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(args):
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "git_commit": git_commit(),
            "source_sha256": source_digest(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def measure_plain(cli, workload, requests):
    """End-to-end metrics of one untraced pass over the stream, with each
    latency scaled to the reference host's speed (hostspeed.py)."""
    with HostSpeed() as speed:
        spans, failures, _ = run_stream(cli, requests)
    latencies = speed.scale(spans)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_ms, pct = tail(latencies)
    metrics = {
        "run_s": (sum(latencies), "s"),
        "req_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "req_tail_ms": (1000 * tail_ms, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {"req_tail_percentile": pct, "failures": failures,
              "wall_run_s": sum(end - start for start, end in spans),
              "speed_samples": len(speed.seconds),
              "kernel_mean_s": statistics.fmean(speed.seconds or [0.0])}
    probe_fail = []
    req_total = len(requests)
    if workload == "finite-rings":
        # untimed and after the stream, so a later fix lowers fail_frac
        # without being charged as a run_s change.  These failures are
        # reported here, not in the result line's "failed", which counts
        # the timed stream only.
        _, probe_fail, _ = run_stream(cli, workloads.known_defect_probe())
        req_total += len(workloads.KNOWN_DEFECTS)
        detail["known_defects"] = probe_fail
    detail.update(req_total=req_total,
                  fail_frac=(len(failures) + len(probe_fail)) / req_total)
    return metrics, len(requests), failures, detail


def measure_traced(cli, requests):
    """Per-layer metrics: a traced pass, then an untraced pass of the same
    stream for the tracing overhead, both scaled to the reference host.
    The traced pass goes first so the layer figures come from a cold
    process, as users see it; any cache the library keeps across
    requests would speed the second pass and overstate the overhead."""
    from tracer import Tracer, installed_wrappers
    tracer = Tracer()
    tracer.install()
    try:
        with HostSpeed(on_sample=tracer.exclude) as speed:
            spans, failures, over_wall = run_stream(cli, requests, tracer)
    finally:
        tracer.uninstall()
    if installed_wrappers():
        raise BenchError("tracing wrappers left installed")
    traced = speed.scale(spans)
    traced_factor = speed.mean_factor()
    with HostSpeed() as speed:
        spans, plain_fail, _ = run_stream(cli, requests)
    plain = speed.scale(spans)
    failures += plain_fail
    failures += [{"argv": argv, "problem": "layer self time exceeds the "
                  "request's wall time"} for argv in over_wall]
    layer = {name: value * traced_factor if unit_of(name) == "s" else value
             for name, value in tracer.layer_metrics().items()}
    layer["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    detail = {"traced_run_s": sum(traced), "untraced_run_s": sum(plain),
              "spans": tracer.spans, "counts": tracer.counts,
              "failures": failures}
    return metrics, 2 * len(requests), failures, detail


def unit_of(name):
    if name.endswith((".calls", ".pairs_tested")):
        return "count"
    if name.endswith((".kept_ratio", ".hit_ratio", ".overhead_frac")):
        return "ratio"
    return "s"


def one_run(cli, workload, seed, seconds, trace):
    """One run of a workload: (result line object, detail record)."""
    requests = workloads.stream(workload, seed, seconds)
    if trace:
        metrics, attempted, failures, detail = measure_traced(cli, requests)
    else:
        setup_s, samples = setup_seconds()
        metrics, attempted, failures, detail = measure_plain(
            cli, workload, requests)
        metrics["setup_s"] = (setup_s, "s")
        detail["setup_samples_s"] = samples
    detail["requests"] = len(requests)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(
        workloads.POOLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        cli = load_glnlab()
        result, detail = one_run(cli, args.workload, args.seed, args.seconds,
                                 args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    detail["meta"] = metadata(args)
    print(json.dumps(detail, default=str, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
