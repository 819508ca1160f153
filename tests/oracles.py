"""Independent brute-force oracles the tests compare library output against.

Everything here works on plain strings and ints, recomputes from first
principles, and never calls into shiftflow.  Deliberately slow.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd


def _has_factor(word: str, forbidden: list[str]) -> bool:
    return any(f in word for f in forbidden)


def language_by_pruning(symbols: list[str], forbidden: list[str], n: int) -> list[str]:
    """All length-n words occurring in bi-infinite forbidden-free sequences.

    Blocks of length M (M+1 = longest forbidden word) are pruned until each
    remaining block has a predecessor and a successor; a word belongs to the
    language iff it is forbidden-free and every M-window survives pruning.
    Single-character symbols only.
    """
    assert all(len(s) == 1 for s in symbols)
    if not forbidden:
        return ["".join(p) for p in itertools.product(symbols, repeat=n)]
    m = max(len(f) for f in forbidden) - 1
    if m == 0:
        alive = [s for s in symbols if s not in forbidden]
        return ["".join(p) for p in itertools.product(alive, repeat=n)]

    blocks = {
        "".join(p)
        for p in itertools.product(symbols, repeat=m)
        if not _has_factor("".join(p), forbidden)
    }
    while True:
        with_out = {
            b for b in blocks
            if any(b[1:] + s in blocks and not _has_factor(b + s, forbidden) for s in symbols)
        }
        with_in = {
            b for b in with_out
            if any(s + b[:-1] in with_out and not _has_factor(s + b, forbidden) for s in symbols)
        }
        if with_in == blocks:
            break
        blocks = with_in
    if not blocks:
        return []

    if n < m:
        seen = {b[i:i + n] for b in blocks for i in range(m - n + 1)}
        return sorted(seen)

    out: list[str] = []

    def grow(w: str) -> None:
        if len(w) == n:
            out.append(w)
            return
        for s in symbols:
            if w[len(w) - m + 1:] + s in blocks and not _has_factor(w + s, forbidden):
                grow(w + s)

    for b in sorted(blocks):
        if n == m:
            out.append(b)
        else:
            grow(b)
    return sorted(out)


def language_by_padding(symbols: list[str], forbidden: list[str], n: int) -> list[str]:
    """Literal definition: w is kept iff some padding u w v with |u| = |v| =
    M+1 is forbidden-free and the padded word's end blocks still extend.
    Only usable for tiny alphabets; cross-checks language_by_pruning.
    """
    full = language_by_pruning(symbols, forbidden, n + 2 * (max((len(f) for f in forbidden), default=1)))
    pad = max((len(f) for f in forbidden), default=1)
    return sorted({w[pad:pad + n] for w in full})


def sgap_language(member, sup_bound, n: int) -> list[str]:
    """Words of length n over {0,1} readable in the S-gap shift.

    member(k) answers k in S; sup_bound is max(S) for finite S and None
    when S is unbounded.  A word is readable iff every complete 0-run
    between two 1s has its length in S and the two boundary runs fit
    under some element of S.
    """
    def fits(run: int) -> bool:
        if sup_bound is None:
            return True
        return run <= sup_bound

    out = []
    for bits in itertools.product("01", repeat=n):
        w = "".join(bits)
        ones = [i for i, c in enumerate(w) if c == "1"]
        if not ones:
            if fits(n):
                out.append(w)
            continue
        left = ones[0]
        right = n - 1 - ones[-1]
        inner = [b - a - 1 for a, b in zip(ones, ones[1:])]
        if all(member(g) for g in inner) and fits(left) and fits(right):
            out.append(w)
    return out


def finite_gap_member(elements: tuple[int, ...]):
    els = set(elements)
    return lambda k: k in els


def periodic_gap_member(r: tuple[int, ...], t: tuple[int, ...], n: int):
    rs = set(r)

    def member(k: int) -> bool:
        return k in rs or any(k >= t0 and (k - t0) % n == 0 for t0 in t)

    return member


def det_by_permutations(a: list[list[int]]) -> int:
    """Leibniz formula; fine through dimension 6."""
    n = len(a)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def minor_gcd(a: list[list[int]], k: int) -> int:
    """gcd of all k-by-k minors; 0 when every minor vanishes."""
    n_rows = len(a)
    n_cols = len(a[0])
    g = 0
    for rows in itertools.combinations(range(n_rows), k):
        for cols in itertools.combinations(range(n_cols), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = gcd(g, det_by_permutations(sub))
    return g


def spectral_radius_by_iteration(a: list[list[int]], steps: int = 2000) -> float:
    """Rayleigh-style estimate using exact rational arithmetic on A acting on
    the all-ones vector; returns lim (v_k . 1)^(1/k) via a long power.
    """
    n = len(a)
    v = [Fraction(1) for _ in range(n)]
    prev = Fraction(1)
    for _ in range(steps):
        w = [sum(Fraction(a[i][j]) * v[j] for j in range(n)) for i in range(n)]
        s = sum(w)
        if s == 0:
            return 0.0
        prev = s
        v = [x / s for x in w]
    return float(prev)


def power_iteration_rho_dense(a: list[list[int]], tol: float, max_iterations: int) -> float:
    """Spectral radius of an irreducible nonnegative matrix by power
    iteration on the dense A + I, stopped on the Collatz-Wielandt bracket;
    the dense form of the library's sparse loop, float for float."""
    n = len(a)
    b = [[a[i][j] + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    vec = [1.0] * n
    for _ in range(max_iterations):
        nxt = [sum(b[i][j] * vec[j] for j in range(n)) for i in range(n)]
        ratios = [w / v for w, v in zip(nxt, vec)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * max(1.0, hi):
            return (lo + hi) / 2.0 - 1.0
        top = max(nxt)
        vec = [v / top for v in nxt]
    raise ArithmeticError(f"power iteration did not settle within {max_iterations} iterations")


def path_count_dense(a: list[list[int]], length: int) -> int:
    """ones^T A^length ones by dense matrix-vector products."""
    n = len(a)
    vec = [1] * n
    for _ in range(length):
        vec = [sum(a[i][j] * vec[j] for j in range(n)) for i in range(n)]
    return sum(vec)


def counts_from_dense(a: list[list[int]], seed: int, upto: int) -> list[int]:
    """Sums of e_seed A^n for n = 1 .. upto, by dense vector-matrix products."""
    n = len(a)
    vec = [0] * n
    vec[seed] = 1
    counts = []
    for _ in range(upto):
        vec = [sum(vec[i] * a[i][j] for i in range(n)) for j in range(n)]
        counts.append(sum(vec))
    return counts
