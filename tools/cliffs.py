"""Time the known slow cases ("cliffs") of shiftflow, each in a child process under caps.

    python3 tools/cliffs.py [ROOT ...] [--only NAME ...] [--seconds S] [--mib M]

ROOT is a shiftflow checkout (default: the one holding this tool); give
two, for example a parent commit unpacked with `git archive` and the
working tree, to compare them row by row.  Each cliff runs in its own
`python3 -c` child with ROOT/src first on the path.  The child's address
space is capped with `resource.setrlimit(RLIMIT_AS)` before it starts,
so a cliff that needs more raises `MemoryError`, and the child is killed
past the wall-time cap.  Set-up (imports, building the input) is not
timed.  Each cliff runs three times per root, the roots taking turns,
so a drift in the machine's speed reaches every root alike.  Per cliff
and root it prints the median and the min-max of the seconds of the
timed call and the largest peak RSS of the three children, or, at the
first run that fails, `timeout` or the error's type and message (a root
that fails is not run again).  Nothing is written.  Stdlib only; needs a
Unix `resource` module.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
REPEATS = 3

# name -> (set-up, timed statement); both run with `shiftflow` importable.
CLIFFS = {
    # Six vertices, three labels: the result's subset automaton has 2,883
    # states, and certifying it once took 7.7 s.
    "mrr_seed_2499": (
        "import random\n"
        "from shiftflow import labeled_graph, minimal_right_resolving\n"
        "rng = random.Random(2499)\n"
        "names = [str(i) for i in range(6)]\n"
        "arcs = [(names[i], names[(i + 1) % 6], rng.choice('abc')) for i in range(6)]\n"
        "arcs += [(rng.choice(names), rng.choice(names), rng.choice('abc')) for _ in range(rng.randint(1, 14))]\n"
        "lg = labeled_graph(names, arcs)\n",
        "minimal_right_resolving(lg)",
    ),
    # The edge-shift build is timed too: 3^11 = 177,147 vertices, 531,440 edges.
    "language_count_c12": (
        "from shiftflow import language_count, sft\n"
        "x = sft('abc', ['c' * 12])\n",
        "language_count(x, 21)",
    ),
    # A second graph output on the same shift: the edge shift keeps no
    # (m+1)-words and no graph, so the 3^10 - 1 words of this step-9
    # shift are grown again for the edge ids and labels.
    "presentation_c10_warm": (
        "from shiftflow import sft, sft_presentation\n"
        "x = sft('abc', ['c' * 10])\n"
        "sft_presentation(x)\n",
        "sft_presentation(x)",
    ),
    # The target-1 boost past an 8-symbol forbidden word: the precondition
    # reads the step-7 automaton (3^8 - 1 words), then two word contractions.
    "boost_c8_target1": (
        "from shiftflow import boost_entropy_pipeline, sft\n"
        "x = sft('abc', ['c' * 8])\n",
        "boost_entropy_pipeline(x, 'a', 'b', 1)",
    ),
    # A 20,000-vertex dead chain feeding a 2-cycle: one round per chain
    # vertex for a trim that recounts every edge in each round.
    "dead_chain_trim": (
        "from shiftflow import DirectedGraph\n"
        "names = [f'd{i}' for i in range(20_000)] + ['c0', 'c1']\n"
        "g = DirectedGraph.build(names, list(zip(names, names[1:])) + [('c1', 'c0')])\n",
        "g.essential_part()",
    ),
    # Two exact gap sets whose offsets 100,000 and 100,001 differ by a
    # translation: scanning every translation up to the span took 9 s.
    "fe_equal_far_100000": (
        "from shiftflow import EventuallyPeriodicGaps, fe_equal\n"
        "a = EventuallyPeriodicGaps((), (100_000,), 2)\n"
        "b = EventuallyPeriodicGaps((), (100_001,), 2)\n",
        "fe_equal(a, b)",
    ),
    # Perron root of [[2]] with every edge a path of 200 edges.
    "scale_200_perron": (
        "from shiftflow import perron_entropy, scale_entropy_construction\n"
        "g = scale_entropy_construction([[2]], 200)\n",
        "perron_entropy(g)",
    ),
}

CHILD = """\
import resource, sys, time
sys.path.insert(0, {src!r})
{setup}
start = time.perf_counter()
{stmt}
elapsed = time.perf_counter() - start
print(elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def run_cliff(root: Path, name: str, seconds: float, mib: int) -> tuple[float, float] | str:
    """One cliff in a fresh child under the caps: (seconds, peak MiB), or why it failed."""
    setup, stmt = CLIFFS[name]
    code = CHILD.format(src=str(root / "src"), setup=setup, stmt=stmt)
    cap = mib * 1024 * 1024

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    try:
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
                              timeout=seconds, preexec_fn=limit)
    except subprocess.TimeoutExpired:
        return f"timeout (> {seconds:g} s)"
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        return lines[-1] if lines else f"exit {proc.returncode}"
    elapsed, peak = proc.stdout.split()[-2:]
    return float(elapsed), float(peak)


def report(runs: list[tuple[float, float] | str]) -> str:
    """Median and min-max seconds and the largest peak of a root's runs, or its failure."""
    if isinstance(runs[-1], str):
        return runs[-1]
    times = [t for t, _ in runs]
    peak = max(p for _, p in runs)
    return f"{statistics.median(times):.3f} s ({min(times):.3f}-{max(times):.3f}), peak {peak:.0f} MiB"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="*", type=Path, default=[HERE], help="shiftflow checkouts")
    parser.add_argument("--only", nargs="+", choices=sorted(CLIFFS), help="run only these cliffs")
    parser.add_argument("--seconds", type=float, default=60.0, help="wall-time cap per cliff")
    parser.add_argument("--mib", type=int, default=2048, help="address-space cap per cliff, MiB")
    args = parser.parse_args(argv)
    for name in args.only or CLIFFS:
        runs: list[tuple[Path, list]] = [(root, []) for root in args.roots]
        for _ in range(REPEATS):
            for root, results in runs:
                if not results or not isinstance(results[-1], str):
                    results.append(run_cliff(root.resolve(), name, args.seconds, args.mib))
        for root, results in runs:
            where = f"  {root}" if len(args.roots) > 1 else ""
            print(f"{name:20} {report(results)}{where}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
