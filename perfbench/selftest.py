"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs short prefixes of the three fast workloads (paper-audit is one
half-minute request, so only its stream is inspected) and checks that

1. every metric named in BENCHMARK.json is emitted with its unit;
2. traced layer self times never sum past their request's wall time;
3. a planted wrong expected value is counted as a failure, and the run
   goes on to the end of its stream;
4. untraced runs install no tracing wrappers.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import sys

import run
import tracer
import workloads

SMOKE_SECONDS = 1.0
FAST = ("finite-rings", "hecke-algebra", "padic-iwasawa")


def check_metric_names(cli, spec):
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in FAST:
            result, _ = run.one_run(cli, workload, 1, SMOKE_SECONDS, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: emitted "
                                f"{sorted(set(got.items()) ^ set(want.items()))}")
            if not result["correct"]:
                problems.append(f"{workload} trace={trace}: "
                                f"{result['failed']} failed")
    stream = workloads.stream("paper-audit", 1, 60)
    if [argv[2:] for argv, _, _ in stream] != [["suite", "paper-audit"]]:
        problems.append(f"paper-audit stream is {stream}")
    return problems


def check_self_time(cli):
    problems = []
    for workload in FAST:
        t = tracer.Tracer()
        t.install()
        try:
            for argv, _, _ in workloads.stream(workload, 2, SMOKE_SECONDS):
                _, wall, inside = t.request(run.send, cli, argv)
                if inside > wall:
                    problems.append(f"{argv}: self {inside} > wall {wall}")
        finally:
            t.uninstall()
        layer = t.layer_metrics()
        total = sum(v for k, v in layer.items() if k.endswith("self_s"))
        if not total > 0:
            problems.append(f"{workload}: no self time recorded")
    return problems


def check_planted_failure(cli):
    requests = [r for r in workloads.stream("finite-rings", 3, 60)
                if r[0][0] == "lang"]
    original = workloads.gl_order
    workloads.gl_order = lambda q, s, level=1: original(q, s, level) + 1
    try:
        spans, failures, _ = run.run_stream(cli, requests)
    finally:
        workloads.gl_order = original
    if len(failures) != len(requests) or len(spans) != len(requests):
        return [f"planted mismatch: {len(failures)} failures counted over "
                f"{len(spans)} of {len(requests)} requests"]
    return []


def check_no_wrappers(cli):
    seen = []
    original = workloads.check

    def spy(*args):
        seen.append(tracer.installed_wrappers())
        return original(*args)

    workloads.check = spy
    try:
        run.one_run(cli, "padic-iwasawa", 4, SMOKE_SECONDS, 0)
        untraced = [w for w in seen if w]
        seen.clear()
        run.one_run(cli, "padic-iwasawa", 4, SMOKE_SECONDS, 1)
    finally:
        workloads.check = original
    problems = [f"untraced run saw wrappers {w[:3]}" for w in untraced[:1]]
    if not any(seen):
        problems.append("traced run installed no wrappers")
    if tracer.installed_wrappers():
        problems.append("wrappers left installed after the traced run")
    return problems


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cli = run.load_glnlab()
    checks = [("metrics emitted with their units",
               lambda: check_metric_names(cli, spec)),
              ("self time within wall time", lambda: check_self_time(cli)),
              ("planted wrong value counted", lambda: check_planted_failure(cli)),
              ("untraced runs install no wrappers",
               lambda: check_no_wrappers(cli))]
    failed = 0
    for name, fn in checks:
        try:
            problems = fn()
        except Exception as exc:  # report the check as failed, run the rest
            problems = [f"raised {exc!r}"]
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
