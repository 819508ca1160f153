"""`decide`: many millisecond-scale decisions.

Operations compute Bowen-Franks data and Franks' flow-equivalence
decision on random irreducible matrices of size 4 to 16 and on pairs
made equivalent by `expansion_move` or as R·S / S·R, Smith normal forms
of signed random matrices, `classify_type` / `fe_equal` on exact gap
sets and on sampled windows of 200 to 800 (primes, shifted primes,
squares), and every README command-line example through
`shiftflow.cli.main` in-process.  This is the only workload that loads
`invariants`, `sgap`, `jsonio` and `cli`; its p50 reflects per-call
overhead.  The `_edge_shift` cache is cleared before every operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

import shiftflow as sf
from shiftflow import cli

from common import Op, expect

COLD_CACHE = True
README_EXAMPLES = Path(__file__).with_name("readme_cli.json")
# Sampled windows and the translation of the primes each is compared
# with.  They are the same for every seed: fe_equal's cost on them moves
# a hundredfold with the translation, and they take a third of the
# round, so a seeded translation would move throughput by a tenth.
# Windows 300 (by 8) and 600 (by 2) show the known fe_equal defect.
SAMPLED = ((200, 4), (300, 8), (400, 6), (600, 2), (800, 9))


def det(a) -> int:
    """Exact determinant by fraction-free elimination (Bareiss)."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _i_minus(a):
    return [[(i == j) - v for j, v in enumerate(row)] for i, row in enumerate(a)]


def _irreducible(rng: random.Random, n: int) -> list[list[int]]:
    """A random nonnegative matrix with a full cycle, so it is irreducible;
    the extra entries make it more than a single orbit."""
    a = [[1 if rng.random() < 0.25 else 0 for _ in range(n)] for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    for i in range(n):
        a[perm[i]][perm[(i + 1) % n]] = 1
    a[perm[0]][perm[0]] += 1
    return a


def _positive(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.randint(1, 2) for _ in range(cols)] for _ in range(rows)]


def _bf_op(a) -> Op:
    def check(group) -> None:
        d = det(_i_minus(a))
        expect(group.sign == (d > 0) - (d < 0), f"sign {group.sign} but det(I - A) = {d}")
        product = 1
        for x in group.divisors:
            product *= x
        expect(product == abs(d), f"divisors {group.divisors} do not multiply to |det(I - A)| = {abs(d)}")

    return Op("bowen_franks", lambda: sf.bowen_franks(a), check, lambda _: {"invariants.matrix_dim": float(len(a))})


def _decide_op(a, b, equivalent: bool) -> Op:
    def check(same) -> None:
        if equivalent:
            expect(same is True, "an equivalent-by-construction pair was not decided equivalent")
        elif same:
            da, db = det(_i_minus(a)), det(_i_minus(b))
            expect(da == db, f"equivalent verdict with det(I - A) = {da} and det(I - B) = {db}")

    dim = (len(a) + len(b)) / 2
    return Op("franks_decide", lambda: sf.franks_decide(a, b), check, lambda _: {"invariants.matrix_dim": dim})


def _snf_op(a) -> Op:
    def check(snf) -> None:
        expect(matmul(matmul(snf.U, a), snf.V) == [list(r) for r in snf.D], "U·A·V != D")
        expect(abs(det(snf.U)) == 1 and abs(det(snf.V)) == 1, "U or V is not unimodular")
        d = snf.diagonal
        off = [snf.D[i][j] for i in range(len(a)) for j in range(len(a[0])) if i != j]
        expect(not any(off), "D is not diagonal")
        expect(all(x >= 0 for x in d), "negative diagonal entry")
        expect(all(y % x == 0 if x else y == 0 for x, y in zip(d, d[1:])), f"diagonal {d} is not a divisor chain")

    return Op("smith_normal_form", lambda: sf.smith_normal_form(a), check, lambda _: {"invariants.matrix_dim": float(len(a))})


def _exact_gaps(rng: random.Random):
    if rng.random() < 0.4:
        return sf.FiniteGaps(tuple(rng.sample(range(12), rng.randint(1, 5))))
    n = rng.randint(1, 6)
    return sf.EventuallyPeriodicGaps(
        tuple(rng.sample(range(10), rng.randint(0, 3))), tuple(rng.sample(range(12), rng.randint(1, 3))), n
    )


def _expected_kind(s) -> str:
    """Finite or cofinite gap sets give SFTs; other eventually periodic ones
    are strictly sofic."""
    if isinstance(s, sf.FiniteGaps):
        return "finite_type"
    residues = {t % s.N for t in s.T}
    return "finite_type" if len(residues) == s.N else "strictly_sofic"


def _window_counts(verdict, window: int | None) -> dict[str, float]:
    out = {"sgap.definite": float(verdict.bound is None)}
    if window is not None:
        out["sgap.window"] = float(window)
    return out


def _classify_op(s, expected: str | None, window: int | None) -> Op:
    def check(c) -> None:
        if expected is not None:
            expect(c.kind == expected and c.bound is None, f"classified {c.kind}, expected {expected}")
        else:
            expect(c.bound == window, f"sampled verdict bound {c.bound} != window {window}")

    return Op("classify_type", lambda: sf.classify_type(s), check, lambda c: _window_counts(c, window))


def _fe_op(s1, s2, expected: str | None, window: int | None, witness=None, code=None) -> Op:
    """`witness`, when given, is the one translation the verdict may name;
    a verdict may also name none."""

    def check(v) -> None:
        if expected is None:
            expect(v.outcome in ("equivalent", "not_equivalent") and v.bound is None, f"exact pair gave {v.outcome}")
        else:
            expect(v.outcome == expected, f"fe_equal gave {v.outcome}, expected {expected}", code)
            expect(witness is None or v.witness in (None, witness), f"witness {v.witness}, expected {witness}")
            expect(window is None or v.outcome == "equivalent" or v.bound == window, f"bound {v.bound} != {window}")

    return Op("fe_equal", lambda: sf.fe_equal(s1, s2), check, lambda v: _window_counts(v, window))


def _primes(limit: int) -> tuple[int, ...]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(flags[p * p :: p])
    return tuple(i for i in range(limit + 1) if flags[i])


def _sampled_ops(window: int, shift: int) -> list[Op]:
    primes = sf.SampledGaps(_primes(window), window)
    shifted = sf.SampledGaps(tuple(p + shift for p in _primes(window - shift)), window)
    squares = sf.SampledGaps(tuple(k * k for k in range(int(window**0.5) + 1)), window)
    return [
        _classify_op(primes, None, window),
        _classify_op(squares, None, window),
        _fe_op(primes, shifted, "equivalent", window, (0, shift), "sampled_translate_not_equivalent"),
        _fe_op(primes, squares, "not_equivalent_up_to", window),
    ]


def _cli_op(example: dict) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(example["argv"]))
        return code, out.getvalue(), err.getvalue()

    def check(result) -> None:
        expect(result == (example["exit"], example["stdout"], example["stderr"]), f"`{' '.join(example['argv'][:2])}` differs from the README")

    def count(result) -> dict[str, float]:
        return {
            "jsonio.bytes_in": float(sum(len(a.encode()) for a in example["argv"] if a.lstrip()[:1] in "[{")),
            "jsonio.bytes_out": float(len(result[1].encode())),
        }

    return Op("cli", run, check, count)


def setup(seed: int) -> list[Op]:
    """Matrix sizes and windows follow fixed schedules; the seed draws the
    entries, the gap sets and the translations."""
    rng = random.Random(f"decide/{seed}")
    ops: list[Op] = []
    for k in range(180):
        ops.append(_bf_op(_irreducible(rng, 4 + k % 13)))
    for k in range(90):
        a = _irreducible(rng, 4 + k % 9)
        i, j = rng.choice([(i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v])
        ops.append(_decide_op(a, [list(r) for r in sf.expansion_move(a, i, j)], True))
    for k in range(90):
        n, m = 2 + k % 5, 2 + k // 5 % 5
        r, s = _positive(rng, n, m), _positive(rng, m, n)
        ops.append(_decide_op(matmul(r, s), matmul(s, r), True))
    for k in range(60):
        ops.append(_decide_op(_irreducible(rng, 4 + k % 7), _irreducible(rng, 4 + k // 7 % 7), False))
    for k in range(120):
        rows, cols = 3 + k % 8, 3 + k // 8 % 8
        ops.append(_snf_op([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]))
    for _ in range(20):
        s = _exact_gaps(rng)
        ops.append(_classify_op(s, _expected_kind(s), None))
    for _ in range(20):
        s = _exact_gaps(rng)
        ops.append(_fe_op(s, sf.shift_set(s, rng.randint(0, 6)), "equivalent", None))
        ops.append(_fe_op(s, _exact_gaps(rng), None, None))
    for window, shift in SAMPLED:
        ops += _sampled_ops(window, shift)
    ops += [_cli_op(ex) for ex in json.loads(README_EXAMPLES.read_text(encoding="utf-8"))]
    rng.shuffle(ops)
    return ops
