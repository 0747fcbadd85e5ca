#!/usr/bin/env python3
"""Repeat-run tool: run one workload N times and summarise each metric.

    python3 perfbench/repeat.py --workload serve_tick --runs 10 [--seed-base 1]
                                [--seconds S] [--trace] [--out set.json]
    python3 perfbench/repeat.py --compare first.json second.json

Run i uses seed seed-base + i (train_eval ignores the seed, so its runs
repeat one fixed input). For every metric the tool prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median against the metric's bound from BENCHMARK.json.
--compare takes two saved sets of the same workload and checks that every
run of both was correct, that the two medians of each bounded metric lie
within the bound of each other (|m2 - m1| / m1, either direction), and
that both sets failed the same share of operations. Exit code 1 when a
check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads whose input does not depend on --seed (see src/train_eval.cpp).
FIXED_INPUT = {"train_eval"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (seed {seed}, exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(results, metrics):
    """Per metric: (median, q1, q3, spread, bound or None, unit)."""
    names = sorted({n for r in results for n in r["metrics"]})
    rows = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        q1, q2, q3 = quartiles(values)
        spread = (q3 - q1) / abs(q2) if q2 else float("inf")
        spec = metrics.get(name, {})
        rows[name] = (q2, q1, q3, spread, spec.get("bound"), results[0]["metrics"][name]["unit"])
    return rows


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def print_set(workload, results, metrics):
    ok = all(r["correct"] for r in results)
    note = " (fixed input: the seeds only label repeats)" if workload in FIXED_INPUT else ""
    print(f"{workload}: {len(results)} runs{note}, all correct: {ok}, "
          f"failed share {failed_share(results):.6g}")
    print(f"{'metric':26s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s} "
          f"{'bound':>6s}  verdict")
    for name, (med, q1, q3, spread, bound, unit) in summarise(results, metrics).items():
        if bound is None:
            verdict = ""
        elif spread <= bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "SPREAD EXCEEDS BOUND"
            ok = False
        print(f"{name:26s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.2%} "
              f"{'' if bound is None else format(bound, '.2f'):>6s}  {verdict}  [{unit}]")
    return ok


def compare(first_path, second_path, metrics):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    a = summarise(first["results"], metrics)
    b = summarise(second["results"], metrics)
    ok = all(r["correct"] for r in first["results"] + second["results"])
    print(f"compare {first['workload']}: {first_path} -> {second_path}, "
          f"all runs correct: {ok}")
    print(f"{'metric':26s} {'median 1':>14s} {'median 2':>14s} {'worse by':>9s} {'bound':>6s}  verdict")
    for name in sorted(set(a) & set(b)):
        bound = metrics.get(name, {}).get("bound")
        if bound is None:
            continue
        m1, m2 = a[name][0], b[name][0]
        higher = metrics[name]["better"] == "higher"
        worse = (m1 - m2) / m1 if higher else (m2 - m1) / m1
        within = abs(m2 - m1) / m1 <= bound
        verdict = "ok" if within else "MEDIANS APART BY MORE THAN BOUND"
        ok &= within
        print(f"{name:26s} {m1:14.6g} {m2:14.6g} {worse:9.2%} {bound:6.2f}  {verdict}")
    s1, s2 = failed_share(first["results"]), failed_share(second["results"])
    print(f"failed share {s1:.6g} vs {s2:.6g}: {'same' if s1 == s2 else 'DIFFERENT'}")
    return ok and s1 == s2


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec, metrics = load_spec()

    if args.compare:
        return 0 if compare(*args.compare, metrics) else 1
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.seed_base + i
        results.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"  run {i + 1}/{args.runs} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in results[-1]["metrics"].items()), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seed_base": args.seed_base,
                       "seconds": seconds, "trace": args.trace, "results": results}, f, indent=1)
    return 0 if print_set(args.workload, results, metrics) else 1


if __name__ == "__main__":
    sys.exit(main())
