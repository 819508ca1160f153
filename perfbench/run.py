"""Benchmark entry point: one workload, one seed, one fresh interpreter.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Runs from the root of a shiftflow checkout.  The workload runs in a
child interpreter with PYTHONHASHSEED fixed and `src` on the path, so
every run starts from the same state.  The child's last stdout line is
one JSON object: with --trace 0 the end-to-end metrics, with --trace 1
the per-layer metrics.  Workloads and metrics are described in
perfbench/NOTES.md.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170


def main() -> int:
    package = ROOT / "src" / "shiftflow" / "__init__.py"
    if not package.is_file():
        print(f"error: no shiftflow sources at {package.parent}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "worker.py"), *sys.argv[1:]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"error: workload run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        print(f"error: workload run exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
