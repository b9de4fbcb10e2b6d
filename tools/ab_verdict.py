#!/usr/bin/env python3
"""A/B verdict over saved perfbench runs of a parent and a change.

    python3 tools/ab_verdict.py --parent par/*.log --change chg/*.log \
        [--claim WORKLOAD:METRIC]

Each LOG is the saved stdout of one `python3 perfbench/run.py --trace 0`
run. From its `env` line the tool takes the workload, the seed and the
event digest; from its last line, the `correct` flag, `failed` and the
metrics. Runs pair by (workload, seed), one parent and one change run per
pair. For each workload and each end-to-end metric of BENCHMARK.json (the
one next to this directory) it prints the pair count, the pairs the change
won, each side's median with its quartiles [q1, q3], the parent's
interquartile range (IQR) and a verdict:

  claim met         at least 10 pairs, the change wins at least 9 of 10,
                    and its median beats the parent's by more than the
                    parent's IQR;
  worse than bound  the change's median is worse than the parent's by more
                    than the metric's bound, a fraction of the parent's
                    median;
  unresolved        the parent's IQR is wider than the bound, and not every
                    change run beats every parent run;
  within bound      every other case.

A tie is not a win. Quartiles interpolate linearly between order
statistics (numpy's default). Exit status: 0 when every verdict is
`claim met`, `unresolved` or `within bound`; 1 on a `worse than bound`
verdict, an event digest or `utility_mean` that differs within a pair, a
change run with more `failed` arrivals than its parent run, or a run that
did not check out, or a --claim whose row does not read `claim met`; 2 on
logs that cannot be read, traced (`--trace 1`) logs, runs without a
partner, or a --claim that names no row of the table.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


class InputError(Exception):
    pass


def read_run(path):
    """Returns (workload, seed, digest, correct, failed, metrics) of a log."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as error:
        raise InputError(f"{path}: {error.strerror}") from error
    env = [line for line in lines if line.startswith("env {")]
    if len(env) != 1:
        raise InputError(f"{path}: expected one 'env' line of perfbench/run.py")
    try:
        stamp = json.loads(env[0][len("env "):])
        result = json.loads(lines[-1])
        metrics = {name: entry["value"]
                   for name, entry in result["metrics"].items()}
        run = (stamp["workload"], stamp["seed"], stamp["event_digest"],
               result["correct"], result["failed"], metrics)
        trace = stamp["trace"]
    except (ValueError, KeyError, TypeError) as error:
        raise InputError(f"{path}: not a perfbench/run.py log ({error})")
    if trace != 0:
        raise InputError(f"{path}: a --trace {trace} run; the verdict needs "
                         "--trace 0 runs")
    return run


def read_side(paths, side):
    runs = {}
    for path in paths:
        workload, seed, *rest = read_run(path)
        if (workload, seed) in runs:
            raise InputError(f"{path}: a second {side} run of {workload} "
                             f"seed {seed}")
        runs[(workload, seed)] = (path, *rest)
    return runs


def summary(values):
    """Returns (q1, median, q3) of `values`."""
    median = statistics.median(values)
    if len(values) == 1:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better, bound):
    """Returns (wins, parent summary, change summary, parent IQR, verdict);
    a summary is (q1, median, q3)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_sum = summary(parent)
    c_sum = summary(change)
    p_med = p_sum[1]
    c_med = c_sum[1]
    iqr = p_sum[2] - p_sum[0]
    gain = sign * (c_med - p_med)
    allowance = bound * abs(p_med)
    if (len(parent) >= MIN_PAIRS and 10 * wins >= 9 * len(parent)
            and gain > iqr):
        label = "claim met"
    elif -gain > allowance:
        label = "worse than bound"
    elif iqr > allowance and not all(sign * (c - p) > 0
                                     for c in change for p in parent):
        label = "unresolved"
    else:
        label = "within bound"
    return wins, p_sum, c_sum, iqr, label


def parse_claim(text, workloads, metrics):
    """Returns (workload, metric) of a WORKLOAD:METRIC claim."""
    workload, _, metric = text.partition(":")
    if workload not in workloads or metric not in metrics:
        raise InputError(f"--claim {text}: no such row (workloads: "
                         f"{', '.join(sorted(workloads))}; metrics: "
                         f"{', '.join(metrics)})")
    return workload, metric


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, metavar="LOG")
    parser.add_argument("--change", nargs="+", required=True, metavar="LOG")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="exit 1 unless this row reads `claim met`")
    args = parser.parse_args()
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]

    try:
        parent = read_side(args.parent, "parent")
        change = read_side(args.change, "change")
        unpaired = sorted(set(parent) ^ set(change))
        if unpaired:
            raise InputError("runs without a partner: " + ", ".join(
                f"{w} seed {s}" for w, s in unpaired))
        for runs in (parent, change):
            for path, _, _, _, metrics in runs.values():
                missing = [m["name"] for m in end_to_end
                           if m["name"] not in metrics]
                if missing:
                    raise InputError(f"{path}: no {', '.join(missing)}")
        claim = args.claim and parse_claim(
            args.claim, {w for w, _ in parent},
            [m["name"] for m in end_to_end])
    except InputError as error:
        print(f"ab_verdict: {error}", file=sys.stderr)
        return 2

    faults = []
    for key in sorted(parent):
        workload, seed = key
        p_path, p_digest, p_ok, p_failed, p_metrics = parent[key]
        c_path, c_digest, c_ok, c_failed, c_metrics = change[key]
        where = f"{workload} seed {seed}"
        if p_digest != c_digest:
            faults.append(f"{where}: event digest {p_digest} -> {c_digest}")
        if p_metrics["utility_mean"] != c_metrics["utility_mean"]:
            faults.append(f"{where}: utility_mean {p_metrics['utility_mean']}"
                          f" -> {c_metrics['utility_mean']}")
        if c_failed > p_failed:
            faults.append(f"{where}: failed {p_failed} -> {c_failed}")
        for path, ok in ((p_path, p_ok), (c_path, c_ok)):
            if not ok:
                faults.append(f"{where}: {path} did not check out")

    def cell(q1, median, q3):
        return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

    print("| workload | metric | pairs | change wins | parent median [q1, q3] "
          "| change median [q1, q3] | parent IQR | verdict |")
    print("|---|---|---|---|---|---|---|---|")
    worse = False
    labels = {}
    for workload in sorted({w for w, _ in parent}):
        keys = sorted(k for k in parent if k[0] == workload)
        for metric in end_to_end:
            name = metric["name"]
            p_values = [parent[k][4][name] for k in keys]
            c_values = [change[k][4][name] for k in keys]
            wins, p_sum, c_sum, iqr, label = verdict(
                p_values, c_values, metric["better"], metric["bound"])
            worse = worse or label == "worse than bound"
            labels[(workload, name)] = label
            print(f"| {workload} | {name} | {len(keys)} | {wins}/{len(keys)} "
                  f"| {cell(*p_sum)} | {cell(*c_sum)} | {iqr:.4g} "
                  f"| {label} |")
    for fault in faults:
        print(f"FAULT {fault}")
    same = all(parent[key][1] == change[key][1] for key in parent)
    print(f"{len(parent)} pairs; event digests {'equal' if same else 'DIFFER'}")
    unmet = False
    if claim:
        label = labels[claim]
        unmet = label != "claim met"
        print(f"claim {args.claim}: {'NOT met' if unmet else 'met'} "
              f"({label})")
    return 1 if worse or faults or unmet else 0


if __name__ == "__main__":
    sys.exit(main())
