"""Run the benchmark in pairs on two checkouts and compare them.

    python3 tools/pairs.py PARENT CHANGE --workload W --pairs N [--seed S] [--seconds T]

PARENT and CHANGE are roots of two shiftflow checkouts.  Each pair runs
`perfbench/run.py --trace 0` once in each checkout, one after the other;
the order flips every pair, so a drift of the host's speed does not
favour one side.  For every run it prints `correct`, `failed`, the
number of rounds and `peak_rss_mib`, so memory can be read against the
round count pair by pair; then, per end-to-end metric, each side's
median and quartiles.  Last, for each `end_to_end` metric of the
`BENCHMARK.json` next to this tool, it prints the change/parent ratio of
the medians and how much worse the change is in that metric's bad
direction, flagged `beyond bound` when that exceeds the metric's bound,
and in how many pairs the change was better in that metric's good
direction (ties count for neither side).
Then it separates memory from round count: `peak_rss_mib` is fitted
against `rounds` over the runs of both sides, each side centred on its
own means, so a difference between the sides that does not depend on the
round count is not read as a slope.  It prints the slope in MiB per 100
rounds, and the change's peak RSS moved along that slope to the parent's
median round count (the median over the change's runs), with its ratio
to the parent's median.  Last comes the RSS ceiling: the throughput gain
at which the extra rounds alone, along that slope, would lift the
parent's median peak RSS by the `peak_rss_mib` bound, that is (parent
median rounds + bound x parent median RSS / slope) / parent median
rounds.
Nothing in either checkout is written except what a benchmark run
writes itself.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = re.compile(r"^\d+ operations x (\d+) rounds", re.MULTILINE)
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in the checkout at root: its result line, with
    the round count the run printed added as `rounds`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: benchmark run exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    rounds = ROUNDS.search(proc.stdout)
    result["rounds"] = int(rounds.group(1)) if rounds else None
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            runs[side].append(result)
            metrics = result["metrics"]
            print(f"pair {i + 1} {side}: correct {str(result['correct']).lower()}, failed {result['failed']}, "
                  f"rounds {result['rounds']}, peak_rss_mib {metrics['peak_rss_mib']['value']:.6g}, "
                  f"throughput_ops_s {metrics['throughput_ops_s']['value']:.6g}", flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs: median [q1, q3]")
    for name, metric in runs["parent"][0]["metrics"].items():
        cells = []
        for side in sides:
            q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in runs[side]])
            cells.append(f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{name} ({metric['unit']}): " + "; ".join(cells))
    print("\nchange / parent of the medians, against the end-to-end bounds, and the pairs the change won")
    for spec in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        parent, change = (statistics.median(r["metrics"][name]["value"] for r in runs[side]) for side in sides)
        ratio = change / parent
        worse = 1 - ratio if spec["better"] == "higher" else ratio - 1
        flag = ", beyond bound" if worse > spec["bound"] else ""
        wins = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                   for p, c in zip(runs["parent"], runs["change"]))
        print(f"{name}: ratio {ratio:.4f}, worse by {worse:+.1%} (bound {spec['bound']:.0%}){flag}; "
              f"change wins {wins} of {args.pairs} pairs")
    print("\npeak_rss_mib against rounds")
    print(rss_at_parent_rounds(runs["parent"], runs["change"]))
    return 0


def rss_at_parent_rounds(parent: list[dict], change: list[dict]) -> str:
    """The within-side slope of peak RSS over rounds, the change's peak
    RSS predicted at the parent's median round count, and the RSS ceiling."""
    xs: list[float] = []
    ys: list[float] = []
    for side in (parent, change):
        rounds = [r["rounds"] for r in side]
        rss = [r["metrics"]["peak_rss_mib"]["value"] for r in side]
        xs += [x - statistics.fmean(rounds) for x in rounds]
        ys += [y - statistics.fmean(rss) for y in rss]
    try:
        slope = statistics.linear_regression(xs, ys).slope
    except statistics.StatisticsError:
        return "slope: the round count does not vary within a side, so no slope can be fitted"
    at = statistics.median(r["rounds"] for r in parent)
    predicted = statistics.median(
        r["metrics"]["peak_rss_mib"]["value"] + slope * (at - r["rounds"]) for r in change
    )
    base = statistics.median(r["metrics"]["peak_rss_mib"]["value"] for r in parent)
    bound = next(m["bound"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
                 if m["name"] == "peak_rss_mib")
    ceiling = (f"{(at + bound * base / slope) / at:.3g}x throughput" if slope > 0
               else "none, peak RSS does not grow with rounds")
    return (f"slope {100 * slope:.4g} MiB per 100 rounds; change at the parent's median of {at:g} rounds: "
            f"{predicted:.4g} MiB, ratio {predicted / base:.4f} to the parent's {base:.4g} MiB\n"
            f"RSS ceiling (rounds alone reach the {bound:.0%} peak_rss_mib bound): {ceiling}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
