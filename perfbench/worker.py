"""One workload run in a fresh interpreter; started by run.py.

The timed run is a closed loop with one client: it repeats the
workload's round of operations, each operation timed on its own, until
--seconds of operation time have been spent and at least three rounds
are done.  Checks run outside the timed region, once per operation;
later rounds must reproduce the first round's output digest.

The host is shared, and the speed it gives this process drifts up to
twofold over seconds to minutes, alike for all pure-Python work.  So a
fixed reference loop is timed after every REF_EVERY_S of operation
time, each operation time is divided by the median of the REF_WINDOW
reference times nearest to it, and times are reported in reference
milliseconds: milliseconds on a host where the reference loop takes
REF_MS.  An operation's latency is the median of its scaled repeats.
Set-up (import, input generation, pre-built objects) is timed in this
interpreter and in four more fresh ones, started one at a time at even
steps of the timed run, scaled the same way; the median is reported.

With --trace 1 the round runs once untraced and once under the span
tracer, and the per-layer metrics are printed instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("build", "query", "spectral", "decide")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
# Stop starting rounds after this much wall time, whatever --seconds says,
# so a slow program still finishes well inside the 180 s run limit.
WALL_LIMIT_S = 120.0
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE.parent / ".bench_out"
# Defects present when this benchmark was written, by failure code.  Their
# failures still count in `failed`; only failures outside this list make
# the run incorrect.
KNOWN_DEFECTS = {
    "word_image_outside_language": "pipeline_apply_word keeps the left boundary of a word contraction, "
    "so an image can fall outside the result language",
    "apply_word:PartialBlockMapError": "the same boundary symbol reaches a later recode, "
    "whose block table does not cover it",
    "sampled_translate_not_equivalent": "fe_equal calls sampled primes and a translate of them "
    "not_equivalent_up_to for some windows and shifts",
}


REF_EVERY_S = 0.02
REF_WINDOW = 15
REF_MS = 1.0


def _reference() -> float:
    """Seconds for a fixed piece of pure-Python work like the library's
    own (tuples, dicts, strings, a sort), with the collector off."""
    gc.disable()
    start = time.perf_counter()
    counts: dict = {}
    for i in range(1500):
        key = (i % 97, i % 13, str(i % 7))
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


class Clock:
    """Reference timings taken through a run, and times scaled by them."""

    def __init__(self) -> None:
        self.refs = [_reference() for _ in range(REF_WINDOW)]
        self.since = 0.0

    def tick(self, elapsed: float) -> int:
        """Count `elapsed` seconds of operation time, timing the reference
        when due; returns the mark that `scale` takes for this moment."""
        mark = len(self.refs)
        self.since += elapsed
        if self.since >= REF_EVERY_S:
            self.refs.append(_reference())
            self.since = 0.0
        return mark

    def scale(self, seconds: float, mark: int) -> float:
        """`seconds` at `mark` in reference milliseconds."""
        lo = max(0, min(mark - REF_WINDOW // 2, len(self.refs) - REF_WINDOW))
        return seconds / statistics.median(self.refs[lo : lo + REF_WINDOW]) * REF_MS


def _failure_code(op, exc: BaseException) -> str:
    code = getattr(exc, "code", None)
    return code if code else f"{op.kind}:{type(exc).__name__}"


class Run:
    """Results of one pass over the round: timings, outputs and failures."""

    def __init__(self, ops, cache, cold: bool, clock: Clock | None = None) -> None:
        self.ops = ops
        self.cache = cache
        self.cold = cold
        self.clock = clock
        self.samples: list[list[float]] = [[] for _ in ops]
        self.marks: list[list[int]] = [[] for _ in ops]
        self.digests: list[str | None] = [None] * len(ops)
        self.failures: dict[int, tuple[str, str]] = {}
        self.rounds = 0

    def execute(self, i: int, clear: bool = True):
        """Run operation i once; returns (output, exception, seconds)."""
        op = self.ops[i]
        if self.cold and clear:
            self.cache.cache_clear()
        start = time.perf_counter()
        try:
            out, exc = op.run(), None
        except Exception as e:  # a failed operation is a result, not a crash
            out, exc = None, e
        elapsed = time.perf_counter() - start
        self.samples[i].append(elapsed)
        if self.clock is not None:
            self.marks[i].append(self.clock.tick(elapsed))
        return out, exc, elapsed

    def verify(self, i: int, out, exc) -> None:
        """Check the first output of operation i; later outputs must match it."""
        from common import digest  # not at the top: it imports shiftflow, whose import is timed

        op = self.ops[i]
        if i in self.failures:
            return
        try:
            if exc is not None:
                raise exc
            d = digest(out)
            if self.digests[i] is None:
                op.check(out)
                self.digests[i] = d
            elif d != self.digests[i]:
                self.failures[i] = ("nondeterministic_output", "output differs between rounds")
        except Exception as e:
            self.failures[i] = (_failure_code(op, e), f"{type(e).__name__}: {e}"[:300])


def _setup(workload: str, seed: int):
    """Import the workload (and shiftflow) and build its operations;
    returns the operations and the seconds this took."""
    start = time.perf_counter()
    wl = importlib.import_module(workload)
    ops = wl.setup(seed)
    return wl, ops, time.perf_counter() - start


def _setup_probe(workload: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, which is awaited."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def _timed(run: Run, seconds: float, probe) -> None:
    """Repeat the round for `seconds` of operation time; call `probe`
    SETUP_SAMPLES - 1 times at even steps of it, outside the timing."""
    wall0 = time.perf_counter()
    spent = 0.0
    probes = 0
    while True:
        for i in range(len(run.ops)):
            out, exc, elapsed = run.execute(i)
            spent += elapsed
            run.verify(i, out, exc)
            if probes < SETUP_SAMPLES - 1 and spent >= probes * seconds / (SETUP_SAMPLES - 1):
                probe()
                probes += 1
        run.rounds += 1
        per_round = spent / run.rounds
        if run.rounds >= MIN_ROUNDS and spent + per_round > seconds:
            break
        if time.perf_counter() - wall0 + per_round > WALL_LIMIT_S:
            break
    for _ in range(probes, SETUP_SAMPLES - 1):
        probe()


def _digest_check(run: Run, workload: str, seed: int) -> None:
    """On the default seed, every output must match the recorded digest."""
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload)
    if recorded is None:
        return
    if len(recorded) != len(run.ops):
        run.failures[-1] = ("digest_mismatch", f"{len(run.ops)} operations, {len(recorded)} digests recorded")
        return
    for i, (got, want) in enumerate(zip(run.digests, recorded)):
        if None not in (got, want) and got != want and i not in run.failures:
            run.failures[i] = ("digest_mismatch", f"output digest {got} != recorded {want}")


def _report_failures(run: Run) -> bool:
    """Print every failure; True when all are known defects."""
    by_code: dict[str, int] = {}
    for i, (code, message) in sorted(run.failures.items()):
        by_code[code] = by_code.get(code, 0) + 1
        kind = run.ops[i].kind if i >= 0 else "-"
        print(f"  failed op {i} ({kind}): [{code}] {message}", file=sys.stderr)
    for code, n in sorted(by_code.items()):
        note = f"known defect: {KNOWN_DEFECTS[code]}" if code in KNOWN_DEFECTS else "NEW FAILURE"
        print(f"failures: {n} x {code} ({note})")
    return all(code in KNOWN_DEFECTS for code in by_code)


def _latencies(samples: list[list[float]]) -> tuple[float, float, float]:
    """Throughput, p50 and p95 of per-operation median latencies."""
    lat = sorted(statistics.median(s) for s in samples)
    p95 = statistics.quantiles(lat, n=20, method="inclusive")[-1]
    # One client in a closed loop: throughput is the inverse of the mean latency.
    return len(lat) / sum(lat), statistics.median(lat), p95


def _e2e_metrics(run: Run, setup_s: list[tuple[float, int]]) -> dict:
    clock = run.clock
    scaled = [[clock.scale(t, m) for t, m in zip(ts, ms)] for ts, ms in zip(run.samples, run.marks)]
    tput, p50, p95 = _latencies(scaled)
    raw_tput, raw_p50, raw_p95 = _latencies(run.samples)
    refs = [r * 1e3 for r in clock.refs]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    beyond = sum(1 for s in scaled if statistics.median(s) > p95)
    print(
        f"{len(scaled)} operations x {run.rounds} rounds; latency = median of each operation's scaled repeats; "
        f"{beyond} samples beyond p95; error_rate {len(run.failures) / len(scaled):.4f} "
        f"({len(run.failures)}/{len(scaled)})"
    )
    print(
        f"unscaled: throughput {raw_tput:.4g} 1/s, p50 {raw_p50 * 1e3:.4g} ms, p95 {raw_p95 * 1e3:.4g} ms, "
        f"set-up {statistics.median(t for t, _ in setup_s):.4g} s; "
        f"{len(refs)} reference times: median {statistics.median(refs):.4g} ms, "
        f"least {min(refs):.4g} ms, most {max(refs):.4g} ms"
    )
    return {
        "throughput_ops_s": {"value": tput * 1e3, "unit": "1/s"},
        "latency_p50_ms": {"value": p50, "unit": "ms"},
        "latency_p95_ms": {"value": p95, "unit": "ms"},
        "setup_s": {"value": statistics.median(clock.scale(t, m) for t, m in setup_s) / 1e3, "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _traced(run: Run, workload: str, seed: int) -> dict:
    """A checked warm-up pass, then each operation untraced and traced back
    to back, so slow phases of the machine hit both sides alike."""
    from tracer import LAYERS, Tracer

    for i in range(len(run.ops)):
        out, exc, _ = run.execute(i)
        run.verify(i, out, exc)

    tracer = Tracer()
    counts: dict[str, list[float]] = {}
    hits = misses = 0
    wall = untraced = 0.0
    try:
        for i, op in enumerate(run.ops):
            untraced += run.execute(i)[2]
            if run.cold:
                run.cache.cache_clear()
            before = run.cache.cache_info()
            tracer.install()
            tracer.recording = True
            out, exc, elapsed = run.execute(i, clear=False)
            tracer.recording = False
            tracer.uninstall()
            after = run.cache.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
            wall += elapsed
            if exc is None and op.count is not None:
                for key, value in op.count(out).items():
                    counts.setdefault(key, []).append(value)
    finally:
        tracer.recording = False
        tracer.uninstall()
    run.rounds = 1
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-{seed}.csv")

    metrics: dict[str, dict] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": tracer.calls[layer], "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": tracer.self_s[layer], "unit": "s"}
        metrics[f"{layer}.self_share"] = {"value": tracer.self_s[layer] / wall, "unit": "ratio"}
    bench_s = wall - tracer.top_s
    metrics["bench.self_s"] = {"value": bench_s, "unit": "s"}
    metrics["bench.self_share"] = {"value": bench_s / wall, "unit": "ratio"}

    def mean(key: str, unit: str) -> dict:
        return {"value": _mean(counts.get(key, [])), "unit": unit}

    def total(key: str, unit: str) -> dict:
        return {"value": sum(counts.get(key, [])), "unit": unit}

    metrics.update(
        {
            "sft.edge_shift_vertices": mean("sft.edge_shift_vertices", "count"),
            "sft.edge_shift_edges": mean("sft.edge_shift_edges", "count"),
            "sft.forbidden_words": mean("sft.forbidden_words", "count"),
            "sft.language_words": {"value": tracer.language_words, "unit": "count"},
            "sft.edge_shift_cache_hit_ratio": {"value": hits / (hits + misses) if hits + misses else 0.0, "unit": "ratio"},
            "moves.moves_applied": total("moves.moves_applied", "count"),
            "moves.elementary_stages": mean("moves.elementary_stages", "count"),
            "moves.deciding_length": mean("moves.deciding_length", "count"),
            "moves.image_symbols": mean("moves.image_symbols", "count"),
            "moves.build_success_ratio": mean("moves.build_success", "ratio"),
            "entropy.graph_vertices": mean("entropy.graph_vertices", "count"),
            "entropy.graph_edges": mean("entropy.graph_edges", "count"),
            "presentations.states": mean("presentations.states", "count"),
            "invariants.matrix_dim": mean("invariants.matrix_dim", "count"),
            "sgap.window": mean("sgap.window", "count"),
            "sgap.definite_ratio": mean("sgap.definite", "ratio"),
            "jsonio.bytes_in": total("jsonio.bytes_in", "B"),
            "jsonio.bytes_out": total("jsonio.bytes_out", "B"),
            "trace.overhead_ratio": {"value": wall / untraced, "unit": "ratio"},
        }
    )
    shares = " ".join(f"{k.split('.')[0]}={v['value']:.3f}" for k, v in metrics.items() if k.endswith(".self_share"))
    print(f"traced {len(run.ops)} operations in {wall:.3f} s (untraced {untraced:.3f} s); self shares: {shares}")
    if tracer.dropped:
        print(f"span buffer full: {tracer.dropped} spans counted but not written")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="store the default seed's output digests")
    parser.add_argument("--setup-only", action="store_true", help="print the set-up time and exit")
    args = parser.parse_args(argv)

    wl, ops, setup_s = _setup(args.workload, args.seed)
    if args.setup_only:
        print(setup_s)
        return 0
    cache = sys.modules["shiftflow.sft"]._edge_shift
    cache.cache_clear()
    gc.collect()
    gc.freeze()

    cold = getattr(wl, "COLD_CACHE", True)
    if args.trace:
        run = Run(ops, cache, cold)
        metrics = _traced(run, args.workload, args.seed)
    else:
        run = Run(ops, cache, cold, Clock())
        setup_times = [(setup_s, 0)]
        _timed(run, args.seconds, lambda: setup_times.append((_setup_probe(args.workload, args.seed), run.clock.tick(0.0))))
        metrics = _e2e_metrics(run, setup_times)
    if args.record_digests:
        if args.seed != DEFAULT_SEED or run.failures and any(c not in KNOWN_DEFECTS for c, _ in run.failures.values()):
            print("digests are recorded only from a default-seed run without new failures", file=sys.stderr)
            return 1
        table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        table[args.workload] = run.digests
        DIGESTS.write_text(json.dumps(table, indent=0) + "\n", encoding="utf-8")
    _digest_check(run, args.workload, args.seed)
    correct = _report_failures(run)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": correct, "attempted": len(ops), "failed": len(run.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
