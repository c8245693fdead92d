"""Alternated benchmark pairs of two revisions of the repository.

Usage, from anywhere inside the repository:

    python tests/bench_pairs.py BASE CHANGE [--workloads W,W] [--seeds 1-5]
    python tests/bench_pairs.py TREE [--workloads W,W] [--seeds 1-12]

BASE, CHANGE and TREE are anything ``git archive`` takes.  To time uncommitted
work, stage it and pass the commit that ``git stash create`` prints,
which moves no branch.  Each revision is unpacked into a temporary
directory, and each seed runs ``perfbench/run.py --workload W --seed S
--seconds 15 --trace 0`` once in each tree, one run at a time, with the
base first at odd pairs and the change first at even ones.  For each
workload it prints every run's ``speed_samples`` and ``kernel_mean_s``
(0 samples means the host-speed factor was 1.0, so that run is not
scaled like the others), then, per
end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles and the pairs in which the change is better.  Only the
standard library is used, and nothing is written into the repository;
pytest does not collect it.

Given one revision, it runs that tree once per seed and prints, per
workload and end-to-end metric, the median and the spread IQR/median
(the distance between the quartiles over the median) beside the
metric's bound: a bound that is not well above the spread cannot tell a
change from noise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile


def unpack(rev, root, into):
    """The tree of rev, unpacked by git archive into the directory into."""
    archive = subprocess.run(["git", "-C", root, "archive", rev],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=archive, check=True)
    return into


def one_run(tree, workload, seed, seconds):
    """(metric values, detail record) of one run of the harness in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} in {tree}: {proc.stderr}")
    detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
    values = {k: m["value"] for k, m in result["metrics"].items()}
    return values, dict(detail, correct=result["correct"],
                        failed=result["failed"])


def spread(xs):
    """(median, lower quartile, upper quartile)."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q2, q1, q3


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change", nargs="?",
                    help="omitted: time the one tree base, once per seed")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"),
                    help="a seed or a range a-b; default 1-5")
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args()
    root = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                          capture_output=True, text=True,
                          check=True).stdout.strip()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    sides = (("base", args.base),) + (
        (("change", args.change),) if args.change else ())
    print(f"python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} cpus; "
          + ", ".join(f"{side} {rev}" for side, rev in sides)
          + f"; seeds {args.seeds[0]}-{args.seeds[-1]}")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: unpack(rev, root, tempfile.mkdtemp(dir=tmp))
                 for side, rev in sides}
        for workload in workloads:
            if not args.change:
                runs = [one_run(trees["base"], workload, seed, args.seconds)
                        for seed in args.seeds]
                report_one(workload, args.seeds, runs, bench["end_to_end"])
                continue
            runs = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                               "base")
                for side in order:
                    runs[side].append(one_run(trees[side], workload, seed,
                                              args.seconds))
            report(workload, args.seeds, runs, bench["end_to_end"])


# the unscaled sum of the request spans, from the detail record: a run
# that takes no host-speed sample is not scaled, so read it beside run_s
WALL = {"name": "wall_run_s", "better": "lower", "bound": None}


def values(runs, name):
    """The metric name of each run, from its metrics or its detail."""
    return [v[name] if name in v else d[name] for v, d in runs]


def speed_cells(seed_list, runs):
    return ", ".join(
        f"{seed}: {d['speed_samples']} ({1000 * d['kernel_mean_s']:.2f})"
        + ("" if d["correct"] else f", {d['failed']} failed")
        for seed, (_, d) in zip(seed_list, runs))


def bound_text(m):
    return "none" if m["bound"] is None else f"{m['bound']:.0%}"


def report_one(workload, seed_list, runs, metrics):
    print(f"\n## {workload}")
    print(f"seed: speed_samples (kernel_mean ms): "
          f"{speed_cells(seed_list, runs)}")
    print("| metric | median [q1, q3] | IQR / median | bound |")
    print("| --- | --- | --- | --- |")
    for m in metrics + [WALL]:
        mid, q1, q3 = spread(values(runs, m["name"]))
        print(f"| {m['name']} | {mid:.4g} [{q1:.4g}, {q3:.4g}] "
              f"| {(q3 - q1) / mid if mid else 0:.1%} | {bound_text(m)} |",
              flush=True)


def report(workload, seed_list, runs, metrics):
    print(f"\n## {workload}")
    for side in ("base", "change"):
        print(f"seed: speed_samples (kernel_mean ms), {side}: "
              f"{speed_cells(seed_list, runs[side])}")
    print("| metric | base median [q1, q3] | change median [q1, q3] "
          "| change | change better |")
    print("| --- | --- | --- | --- | --- |")
    for m in metrics + [WALL]:
        name, lower = m["name"], m["better"] == "lower"
        base, change = values(runs["base"], name), values(runs["change"], name)
        (bm, b1, b3), (cm, c1, c3) = spread(base), spread(change)
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        print(f"| {name} | {bm:.4g} [{b1:.4g}, {b3:.4g}] "
              f"| {cm:.4g} [{c1:.4g}, {c3:.4g}] "
              f"| {100 * (cm - bm) / bm if bm else 0:+.1f}% "
              f"(bound {bound_text(m)}) "
              f"| {wins} of {len(base)} |", flush=True)

if __name__ == "__main__":
    main()
