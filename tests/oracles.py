"""Independent brute-force oracles the tests compare library output against.

Everything here works on plain strings and ints, recomputes from first
principles, and never calls into shiftflow, except the library's earlier
implementations kept as references for the ones that replaced them:
`minimize_by_counting`; the Word-based finite-word paths
`move_word_by_slices`, `contains_word_by_factors` and
`apply_block_map_by_factors`, which index and slice `Word`s symbol by
symbol; the Word-based language core that built every slice, extension
and window as a `Word`, from `admissible_words_by_words` to
`image_by_words`; the sliding-window move rules `image_by_windows` and
`apply_periodic_by_rotation`; and the gap-set decisions that read a
window one position at a time through membership callables, from
`_member_fn` to `fe_equal`, kept verbatim under their library names;
and the matrix invariants that kept both Smith transforms, took the sign
from a Bareiss determinant and read irreducibility from a multigraph with
one edge per unit of each entry, from `smith_normal_form_by_closures` to
`franks_decide_by_graphs`; the Bareiss determinant, the dense
reachability search for irreducibility and the cycle walk for single
orbits, `determinant_by_bareiss` to `single_orbit_by_cycle_walk`; and
the Perron power loop that built one
generator per row on every iteration, `power_iteration_rho_by_generators`,
and its gather-pass successor that read every ratio of the bracket on
every iteration, `power_iteration_rho_full_read`;
and the Tarjan search on vertex-keyed dicts, `components_by_vertex`;
and the essential trim that recounted every edge in each round,
`essential_part_by_rescanning`, which the edge-shift and presentation
oracles trim with; and the gap-shift presentation `gap_shift_presentation`;
and the language reads that hashed every window, `contains_word_by_windows`
and `short_words_by_windows`, with the path-count loop that built one
generator per row on every step, `walks_by_generators`;
and the presentation algorithms that built a labeled graph for every
intermediate automaton, from `_subset_automaton` to
`minimal_right_resolving`, and the walkers that read a labeled graph by
vertex name through its edges, `out_labeled` to `extend_to_synchronizing`,
with the boost precondition that counted
paths on a subgraph of the edge shift, `_full_pair_subshift_present`,
kept verbatim under their library names.
Deliberately slow.
"""
from __future__ import annotations

import functools
import itertools
from collections import deque
from fractions import Fraction
from itertools import groupby, islice, repeat
from math import gcd
from operator import add, mul, truediv
from typing import Callable, Iterator, Mapping, Sequence

from shiftflow.errors import InvalidInput, NonConvergenceError, PartialBlockMapError, PreconditionError
from shiftflow.graphs import DirectedGraph, Edge, Vertex, _essential, _gather, _walks, from_adjacency, path_count
from shiftflow.invariants import (
    Matrix,
    SignedBFGroup,
    SmithDecomposition,
    _check_adjacency,
    as_matrix,
    identity,
    mat_sub,
)
from shiftflow.moves import (
    Move,
    MovePipeline,
    Recode,
    SymbolContraction,
    SymbolExpansion,
    WordContraction,
    _memory_weight,
    _move_word,
    _transducer,
)
from shiftflow.presentations import LabeledGraph, labeled_graph
from shiftflow.sft import (
    EdgeShiftData,
    ForbiddenSetSFT,
    _admissible_words,
    _edge_shift,
    _short_words,
    _slices_below,
    _unambiguous_word,
    contains_word,
    language_count,
    minimize_from_language,
    sft_to_edge_shift,
)
from shiftflow.words import EMPTY_WORD, Alphabet, PeriodicOrbit, Word, _windows, _word
from shiftflow.sgap import (
    Classification,
    EventuallyPeriodicGaps,
    FEVerdict,
    FiniteGaps,
    FullShift,
    SampledGaps,
    SGapSet,
    _signed_range,
    fe_invariant,
)

# Candidate-graph enumeration is skipped when the raw word cube would
# exceed this; callers then keep the unminimized description.
_CUBE_BUDGET = 300_000


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


def power_iteration_rho_by_generators(
    rows: Sequence[Sequence[tuple[int, int]]], tol: float, max_iterations: int
) -> float:
    """Spectral radius of an irreducible nonnegative matrix, given as the
    rows of `DirectedGraph.sparse_adjacency`.

    Iterates on A + I, which is primitive, so convergence is assured;
    the +1 is subtracted at the end.  Convergence is judged by the
    Collatz-Wielandt bracket min_i (Bv)_i/v_i <= rho <= max_i (Bv)_i/v_i,
    which cannot close before v is the eigenvector; the raw eigenvalue
    estimate can plateau while the vector is still moving.  Each row sum
    adds its nonzero terms in increasing j, so every float equals the
    one the dense product gives: adding 0.0 changes no float.
    """
    n = len(rows)
    b = []
    for i, row in enumerate(rows):
        merged = dict(row)
        merged[i] = merged.get(i, 0) + 1
        b.append(sorted(merged.items()))
    vec = [1.0] * n
    for _ in range(max_iterations):
        nxt = [sum(k * vec[j] for j, k in row) for row in b]
        ratios = [w / v for w, v in zip(nxt, vec)]
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * max(1.0, hi):
            return (lo + hi) / 2.0 - 1.0
        top = max(nxt)
        vec = [v / top for v in nxt]
    raise NonConvergenceError(
        f"power iteration did not settle within {max_iterations} iterations", max_iterations
    )


def power_iteration_rho_full_read(
    rows: Sequence[Sequence[tuple[int, int]]], tol: float, max_iterations: int
) -> tuple[float, int]:
    """The gather-pass Perron loop as it was before it learned to skip
    bracket reads: every iteration divides every entry and takes the min
    and max of the ratios.  Returns the root and the number of iterations
    it took; raises as `power_iteration_rho_by_generators` does."""
    n = len(rows)
    b = []
    for i, row in enumerate(rows):
        merged = dict(row)
        merged[i] = merged.get(i, 0) + 1
        b.append(sorted(merged.items()))
    order = sorted(range(n), key=[len(row) for row in b].__getitem__)
    at = [0] * n
    for p, i in enumerate(order):
        at[i] = p
    groups = []
    for _, members in groupby([b[i] for i in order], len):
        terms = []
        for column in zip(*list(members)):
            ks = [k for _, k in column]
            terms.append(([at[j] for j, _ in column], ks if max(ks) > 1 else None))
        groups.append(terms)
    vec = [1.0] * n
    for done in range(max_iterations):
        get = vec.__getitem__
        nxt: list[float] = []
        for terms in groups:
            acc = None
            for cols, ks in terms:
                term = map(get, cols) if ks is None else map(mul, ks, map(get, cols))
                acc = term if acc is None else map(add, acc, term)
            nxt += acc
        ratios = list(map(truediv, nxt, vec))
        lo, hi = min(ratios), max(ratios)
        if hi - lo <= tol * max(1.0, hi):
            return (lo + hi) / 2.0 - 1.0, done + 1
        vec = list(map(truediv, nxt, repeat(max(nxt), n)))
    raise NonConvergenceError(
        f"power iteration did not settle within {max_iterations} iterations", max_iterations
    )


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


def _seed_automaton(arcs: list[tuple]) -> tuple[dict, frozenset]:
    """Subset automaton of the essential part of a labeled graph given as
    (src, dst, label) triples, seeded with every essential vertex."""
    while True:
        alive = {s for s, _, _ in arcs} & {d for _, d, _ in arcs}
        kept = [a for a in arcs if a[0] in alive and a[1] in alive]
        if len(kept) == len(arcs):
            break
        arcs = kept
    seed = frozenset(alive)
    delta: dict[frozenset, dict[str, frozenset]] = {}
    todo = [seed] if seed else []
    while todo:
        state = todo.pop()
        if state in delta:
            continue
        step: dict[str, set] = {}
        for s, d, lab in arcs:
            if s in state:
                step.setdefault(lab, set()).add(d)
        delta[state] = {lab: frozenset(ts) for lab, ts in step.items()}
        todo.extend(delta[state].values())
    return delta, seed


def _seed_counts(delta: Mapping, seed, horizon: int) -> list[int]:
    """Paths of length 1 .. horizon from `seed` (none when it is None)
    in a deterministic automaton given as {state: {label: next}}."""
    vec = {} if seed is None else {seed: 1}
    counts = []
    for _ in range(horizon):
        nxt: dict = {}
        for state, c in vec.items():
            for t in delta[state].values():
                nxt[t] = nxt.get(t, 0) + c
        vec = nxt
        counts.append(sum(vec.values()))
    return counts


def same_language_by_counting(p: list[tuple], q: list[tuple]) -> bool:
    """Whether two labeled graphs, as (src, dst, label) triples, present
    shifts with equal word counts |B_n| for every n up to the horizon
    |A_p| + |A_q| + 2, A being the subset automaton of the essential part.

    Equal counts mean equal shifts only when q's language is contained in
    p's, as for a sub-presentation or a minimized presentation of p.
    """
    autos = [_seed_automaton(list(arcs)) for arcs in (p, q)]
    horizon = len(autos[0][0]) + len(autos[1][0]) + 2
    return _seed_counts(autos[0][0], autos[0][1] or None, horizon) == _seed_counts(
        autos[1][0], autos[1][1] or None, horizon
    )


def same_automata_by_counting(first: list[dict[str, int]], second: list[dict[str, int]]) -> bool:
    """`same_language_by_counting` for two deterministic automata given as
    `{label: next index}` rows, each read from its state 0."""
    horizon = len(first) + len(second) + 2
    return _seed_counts(dict(enumerate(first)), 0, horizon) == _seed_counts(dict(enumerate(second)), 0, horizon)


def slices_by_all_factors(top, jmax: int) -> dict:
    """Slices 1 .. jmax - 1 of a language from its length-jmax words `top`:
    every length-j factor of every top word.  Works on any sliceable
    words (str, tuple) and returns factors of the same type."""
    return {j: {w[k : k + j] for w in top for k in range(jmax - j + 1)} for j in range(1, jmax)}


def word_contraction_language(symbols: list[str], forbidden: list[str], w: str, fresh: str, n: int) -> list[str]:
    """Length-n words of the image of the SFT under collapsing every
    occurrence of w (no two may overlap) to the one-character `fresh`.

    An image word v comes from a language word s psi(v) t, psi putting w
    back for `fresh` and |s| = |t| = len(w) - 1.  Each such word is
    contracted; image positions that come from its first and last
    len(w) - 1 symbols are dropped, as their fate depends on symbols
    outside it, and the length-n factors of the rest are collected.
    Enumerating every language word long enough for n fresh symbols
    would take 2^23 words on the full 2-shift for |w| = 4, n = 5.
    Single-character symbols only.
    """
    k = len(w)
    m = max((len(f) for f in forbidden), default=1) - 1
    blocks = set(language_by_pruning(symbols, forbidden, m))
    contexts = language_by_pruning(symbols, forbidden, k - 1)
    found: set[str] = set()
    for v in itertools.product(list(symbols) + [fresh], repeat=n):
        middle = "".join(w if c == fresh else c for c in v)
        if _has_factor(middle, forbidden):
            continue
        for s in contexts:
            for t in contexts:
                u = s + middle + t
                if _has_factor(u, forbidden) or any(u[i : i + m] not in blocks for i in range(len(u) - m + 1)):
                    continue
                starts = [i for i in range(len(u) - k + 1) if u.startswith(w, i)]
                inside = {i + j for i in starts for j in range(1, k)}
                image = "".join(
                    fresh if i in starts else u[i] for i in range(k - 1, len(u) - k + 1) if i not in inside
                )
                found |= {image[i : i + n] for i in range(len(image) - n + 1)}
    return sorted(found)


def minimize_by_counting(alphabet: Alphabet, bsets: Mapping[int, set[Word]], k: int) -> ForbiddenSetSFT:
    """Reconstruct a minimal forbidden set from language slices B_0 .. B_{k+1}.

    The language must be that of a k-step shift; equality of candidate
    and target is certified by counting words of length k + 1, which
    suffices since containment holds by construction.
    """
    fmin: list[Word] = []
    for n in range(1, k + 2):
        prev, cur = bsets[n - 1], bsets[n]
        for u in sorted(prev):
            for s in alphabet:
                w = u + _word((s,))
                if w in cur:
                    continue
                if w[1:] in prev:
                    fmin.append(w)
    target = len(bsets[k + 1])
    for m2 in range(k + 1):
        if len(alphabet) ** (m2 + 1) > _CUBE_BUDGET:
            break
        f2 = frozenset(w for w in fmin if len(w) <= m2 + 1)
        candidate = ForbiddenSetSFT(alphabet, f2)
        if language_count(candidate, k + 1) == target:
            return candidate
    return ForbiddenSetSFT(alphabet, frozenset(fmin))


def move_word_by_slices(move: Move, v: Word) -> Word:
    """Image of a finite word under one move, on Word slices."""
    if isinstance(move, SymbolExpansion):
        out: list[str] = []
        for s in v:
            out.append(s)
            if s == move.symbol:
                out.append(move.fresh)
        return Word(out)
    if isinstance(move, SymbolContraction):
        return Word(s for s in v if s != move.removed)
    if isinstance(move, WordContraction):
        w, n = move.word, len(move.word)
        out = []
        i = 0
        limit = len(v) - n + 1
        while i < limit:
            if v[i : i + n] == w:
                out.append(move.fresh)
                i += n
            else:
                out.append(v[i])
                i += 1
        return Word(out)
    if isinstance(move, Recode):
        return apply_block_map_by_factors(move.forward_map, v, move.window)
    raise InvalidInput(f"unknown move {move!r}")


def contains_word_by_factors(x: ForbiddenSetSFT, word: Word | str) -> bool:
    """Membership of a finite word in the language, on Word factors."""
    w = _unambiguous_word(word, x.alphabet)
    if len(w) == 0:
        return True
    if any(s not in x.alphabet for s in w):
        return False
    data = _edge_shift(x)
    m = x.step
    if len(w) <= m:
        return w in _short_words(data, len(w))
    return all(f in live_words(x) for f in w.factors(m + 1))


def apply_block_map_by_factors(code: Mapping[Word, str], word: Word, window: int | None = None) -> Word:
    """A sliding block map over a finite word, on Word factors."""
    w = Word(word)
    if window is None:
        widths = {len(k) for k in code}
        if len(widths) != 1:
            raise InvalidInput("block map keys must share one length")
        window = widths.pop()
    if window < 1:
        raise InvalidInput("window must be at least 1")
    out: list[str] = []
    for f in w.factors(window):
        if f not in code:
            raise PartialBlockMapError(f"block map undefined on {f!r}", window=tuple(f))
        out.append(code[f])
    return Word(out)


def _window_rule(move: Move):
    """(rule, window) of a move read as a sliding block code whose output
    is one symbol or nothing (None for a deleted position)."""
    if isinstance(move, SymbolContraction):
        return (lambda u: None if u[0] == move.removed else u[0]), 1
    if isinstance(move, WordContraction):
        w, n = move.word, len(move.word)

        def rule(u: Word) -> str | None:
            if u[n - 1 :] == w:
                return move.fresh
            if any(u[n - 1 - j : 2 * n - 1 - j] == w for j in range(1, n)):
                return None
            return u[n - 1]

        return rule, 2 * n - 1
    if isinstance(move, Recode):
        return move.forward_map.__getitem__, move.window
    raise InvalidInput(f"no window rule for {move!r}")


def image_by_windows(x: ForbiddenSetSFT, move: Move, k: int, alphabet: Alphabet) -> ForbiddenSetSFT:
    """Image of x under a move, as a k-step SFT over the symbols of
    `alphabet` that occur, by a sliding window over the edge shift.

    The window rule sees the last `window` symbols of a live edge of the
    edge shift at step max(step, window - 1), where a word contraction of
    a length-n word has window 2n - 1.  A walk from every vertex,
    deduplicated on (vertex, image so far), collects the image words of
    length k + 1.
    """
    rule, window = _window_rule(move)
    m = max(x.step, window - 1)
    words = _admissible_words(x.alphabet, x.forbidden, m + 1)
    vertices = sorted({w[:m] for w in words} | {w[1:] for w in words})
    graph = DirectedGraph(tuple(vertices), tuple(Edge(w[:m], w[1:], i) for i, w in enumerate(words)))
    graph = essential_part_by_rescanning(graph)
    out = {e.eid: rule(words[e.eid][-window:]) for e in graph.edges}
    jmax = k + 1
    found: set[Word] = set()
    stack: list[tuple[Word, tuple[str, ...]]] = [(v, ()) for v in graph.vertices]
    seen = set(stack)
    while stack:
        vtx, image = stack.pop()
        if len(image) == jmax:
            found.add(_word(image))
            continue
        for e in graph.out_edges(vtx):
            s = out[e.eid]
            state = (e.dst, image if s is None else image + (s,))
            if state not in seen:
                seen.add(state)
                stack.append(state)
    live = {s for w in found for s in w}
    alpha = Alphabet(tuple(s for s in alphabet if s in live))
    return minimize_from_language(alpha, _slices_below(found, jmax), k)


@functools.lru_cache(maxsize=512)
def live_words(x: ForbiddenSetSFT) -> frozenset[Word]:
    """The (m+1)-words on the edges of the essential edge shift of x."""
    return frozenset(sft_to_edge_shift(x)[1].values())


def _forbidden_by_length(forbidden: frozenset[Word]) -> dict[int, set[Word]]:
    table: dict[int, set[Word]] = {}
    for w in forbidden:
        table.setdefault(len(w), set()).add(w)
    return table


def admissible_words_by_words(alphabet: Alphabet, forbidden: frozenset[Word], n: int) -> list[Word]:
    """All length-n words with no forbidden factor, lexicographic order,
    grown as Words one length at a time."""
    by_len = _forbidden_by_length(forbidden)
    words = [EMPTY_WORD]
    for k in range(1, n + 1):
        longer = (u + _word((s,)) for u in words for s in alphabet)
        words = [w for w in longer if not any(ln <= k and w[k - ln :] in bad for ln, bad in by_len.items())]
    return words


def edge_shift_by_words(x: ForbiddenSetSFT) -> tuple[EdgeShiftData, DirectedGraph, tuple[Word, ...]]:
    """The edge-shift presentation of x at its step, on Word slices: the
    automaton read off the essential graph trimmed by rescanning, that
    graph, and the admissible (m+1)-words as Words, an edge's id its
    word's position among them."""
    m = x.step
    words = admissible_words_by_words(x.alphabet, x.forbidden, m + 1)
    vertices = sorted({w[:m] for w in words} | {w[1:] for w in words})
    edges = tuple([Edge(w[:m], w[1:], i) for i, w in enumerate(words)])
    graph = essential_part_by_rescanning(DirectedGraph(tuple(vertices), edges))
    index = {v: i for i, v in enumerate(graph.vertices)}
    delta: list[dict[str, int]] = [{} for _ in index]
    for e in graph.edges:
        delta[index[e.src]][words[e.eid][-1]] = index[e.dst]
    return EdgeShiftData(tuple(map(tuple, graph.vertices)), delta), graph, tuple(words)


def short_words_by_words(data: EdgeShiftData, n: int) -> set[Word]:
    """The length-n language words for n at most the step, as Word factors
    of the vertex words."""
    return {f for v in data.vertices for f in Word(v).factors(n)}


def slices_below_by_words(top: set[Word], jmax: int) -> dict[int, set[Word]]:
    """Language slices B_0 .. B_jmax from the length-jmax slice, on Word slices."""
    bsets: dict[int, set[Word]] = {jmax: top, 0: {EMPTY_WORD}}
    for j in range(jmax - 1, 0, -1):
        above = bsets[j + 1]
        bsets[j] = {w[:-1] for w in above} | {w[1:] for w in above}
    return bsets


def minimize_from_language_by_words(alphabet: Alphabet, bsets: Mapping[int, set[Word]], k: int) -> ForbiddenSetSFT:
    """The minimal forbidden set of a k-step shift from its language
    slices, extending Words symbol by symbol."""
    fmin: set[Word] = set()
    for n in range(1, k + 2):
        prev, cur = bsets[n - 1], bsets[n]
        for u in prev:
            for s in alphabet:
                w = u + _word((s,))
                if w not in cur and w[1:] in prev:
                    fmin.add(w)
    return ForbiddenSetSFT(alphabet, frozenset(fmin))


def image_by_words(x: ForbiddenSetSFT, move: Move, k: int, alphabet: Alphabet) -> ForbiddenSetSFT:
    """Image of x under a move as a k-step SFT, by the transducer walk of
    `moves._image` collecting its windows as Words."""
    step, start, burn = _transducer(move)
    _, graph, edge_words = edge_shift_by_words(x)
    succ = {v: [(e.dst, edge_words[e.eid][-1]) for e in graph.out_edges(v)] for v in graph.vertices}
    runs = {(v, start) for v in succ}
    for _ in range(burn):
        runs = {(dst, step(q, s)[0]) for v, q in runs for dst, s in succ[v]}
    found: set[Word] = set()
    stack = [(v, q, ()) for v, q in runs]
    seen = set(stack)
    while stack:
        vtx, q, tail = stack.pop()
        for dst, s in succ[vtx]:
            q2, chunk = step(q, s)
            written = tail + chunk
            found.update(_word(written[i : i + k + 1]) for i in range(len(written) - k))
            state = (dst, q2, written[max(len(written) - k, 0) :])
            if state not in seen:
                seen.add(state)
                stack.append(state)
    live = {s for w in found for s in w}
    alpha = Alphabet(tuple(s for s in alphabet if s in live))
    return minimize_from_language_by_words(alpha, slices_below_by_words(found, k + 1), k)


def _wrap(cycle: Word, extra: int) -> Word:
    """The cycle followed by its first `extra` symbols, read cyclically."""
    return (cycle * (1 + -(-extra // len(cycle))))[: len(cycle) + extra]


def apply_periodic_by_rotation(pipe: MovePipeline, orbit: PeriodicOrbit | Word | str) -> PeriodicOrbit:
    """Image of a periodic orbit under the pipeline, one move at a time
    on the cycle word.

    Expansions and symbol contractions act on the cycle as it is.  A
    recode slides its window over the cycle extended cyclically by
    window - 1 symbols.  A word contraction first rotates the cycle to
    start at an occurrence of the word, if the cyclic word has one, and
    then acts as a recode with the word's length as window; occurrences
    never overlap, so none wraps past the rotation point.
    """
    src = pipe.source
    if isinstance(orbit, PeriodicOrbit):
        cycle = orbit.cycle
    else:
        cycle = PeriodicOrbit(_unambiguous_word(orbit, src.alphabet)).cycle
    reps = -(-(src.step + 1) // len(cycle)) + 1
    if not contains_word(src, cycle * reps):
        raise PreconditionError(f"the periodic point of {cycle!r} is not in the source shift")
    for mv in pipe.moves:
        extra = max(_memory_weight(mv) - 1, 0)
        if isinstance(mv, WordContraction):
            wrapped = _wrap(cycle, extra)
            at = next((i for i in range(len(cycle)) if wrapped[i : i + extra + 1] == mv.word), 0)
            cycle = cycle[at:] + cycle[:at]
        cycle = _move_word(mv, _wrap(cycle, extra))
    return PeriodicOrbit(cycle)


def _exact(s: FiniteGaps | EventuallyPeriodicGaps) -> EventuallyPeriodicGaps:
    """The one form every exact gap set is read in: its minimal form, a
    finite set E being EventuallyPeriodicGaps(E, (), 1)."""
    if isinstance(s, FiniteGaps):
        return EventuallyPeriodicGaps(s.elements, (), 1)
    return minimal_form(s)


def _member_fn(s: EventuallyPeriodicGaps) -> Callable[[int], bool]:
    sporadic = frozenset(s.R)
    offsets = s.T
    period = s.N

    def member(x: int) -> bool:
        if x in sporadic:
            return True
        return any(x >= t and (x - t) % period == 0 for t in offsets)

    return member


def forbidden_words(s: SGapSet, max_len: int) -> set[Word]:
    """Forbidden set of the gap shift, as words over {0, 1}.

    Finite sets get their full (finite) forbidden set regardless of
    max_len; infinite sets get every gap word of length <= max_len.
    """
    if isinstance(s, SampledGaps) and max_len > s.bound + 2:
        raise PreconditionError(
            f"max_len {max_len} exceeds the verified window {s.bound} + 2"
        )
    out: set[Word] = set()
    if isinstance(s, SampledGaps):
        mem = set(s.members)
        member = lambda x: x in mem
    else:
        m = _exact(s)
        if not m.T:
            if not m.R:
                raise InvalidInput("empty gap set")
            allowed = set(m.R)
            top = m.R[-1]
            for k in range(top):
                if k not in allowed:
                    out.add(Word("1" + "0" * k + "1"))
            out.add(Word("0" * (top + 1)))
            return out
        member = _member_fn(m)
    for k in range(max(max_len - 1, 0)):
        if not member(k):
            out.add(Word("1" + "0" * k + "1"))
    return out


def minimal_form(s: EventuallyPeriodicGaps) -> EventuallyPeriodicGaps:
    """Equivalent description with the least period, tail offsets packed
    into one period window, and sporadic elements outside the tail.

    Idempotent; the described set is unchanged.
    """
    if not isinstance(s, EventuallyPeriodicGaps):
        raise InvalidInput("minimal form applies to eventually periodic sets")
    if not s.T:
        return EventuallyPeriodicGaps(s.R, (), 1)
    period = s.N
    threshold: dict[int, int] = {}
    for t in s.T:
        rho = t % period
        if rho not in threshold or t < threshold[rho]:
            threshold[rho] = t
    residues = set(threshold)
    new_period = next(
        d
        for d in range(1, period + 1)
        if period % d == 0 and all((rho + d) % period in residues for rho in residues)
    )
    base = max(threshold.values()) - new_period + 1

    def in_tail(x: int) -> bool:
        rho = x % period
        return rho in residues and x >= threshold[rho]

    offsets = tuple(x for x in range(max(base, 0), base + new_period) if in_tail(x))

    def in_new_tail(x: int) -> bool:
        return any(x >= t and (x - t) % new_period == 0 for t in offsets)

    leftovers = [x for x in range(max(base, 0)) if in_tail(x) and not in_new_tail(x)]
    sporadic = tuple(sorted({x for x in s.R + tuple(leftovers) if not in_new_tail(x)}))
    return EventuallyPeriodicGaps(sporadic, offsets, new_period)


def classify_type(s: SGapSet) -> Classification:
    """finite_type / strictly_sofic, bound-qualified for sampled input;
    the empty exact set raises `InvalidInput`, as in `fe_invariant`."""
    if isinstance(s, (FiniteGaps, EventuallyPeriodicGaps)):
        m, bound = _as_exact(s), None
    else:
        m, bound = detect_eventual_periodicity(s), s.bound
        if m is None:
            return Classification("not_eventually_periodic_up_to_bound", bound=bound)
    if not m.T or m.N == 1:
        return Classification("finite_type", bound=bound)
    return Classification("strictly_sofic", bound=bound)


def detect_eventual_periodicity(s: SampledGaps) -> EventuallyPeriodicGaps | None:
    """Eventually periodic description fitting the samples, if one is
    visible for at least three full periods; None otherwise."""
    bound = s.bound
    chi = [0] * (bound + 1)
    for m in s.members:
        chi[m] = 1
    for period in range(1, bound // 3 + 1):
        breaks = [x for x in range(bound - period + 1) if chi[x] != chi[x + period]]
        start = breaks[-1] + 1 if breaks else 0
        if bound - start < 3 * period:
            continue
        offsets = tuple(x for x in range(start, start + period) if chi[x])
        sporadic = tuple(m for m in s.members if m < start)
        return minimal_form(EventuallyPeriodicGaps(sporadic, offsets, period))
    return None


def _as_exact(s: SGapSet) -> EventuallyPeriodicGaps | None:
    """The exact form of s; for sampled input, the detected description,
    or None when there is none.  Only exact input can be the empty set:
    a sampled window with no members says nothing past its bound, so it
    gets None (and `fe_equal` answers it unknown up to its bound)."""
    if isinstance(s, SampledGaps):
        m = detect_eventual_periodicity(s)
        return m if m is not None and (m.T or m.R) else None
    m = _exact(s)
    if not m.T and not m.R:
        raise InvalidInput("empty gap set")
    return m


def _fe_equal_exact(
    a: EventuallyPeriodicGaps, b: EventuallyPeriodicGaps, bound: int
) -> FEVerdict:
    tag_a = fe_invariant(a)
    tag_b = fe_invariant(b)
    if isinstance(tag_a, FullShift) or isinstance(tag_b, FullShift):
        if isinstance(tag_a, FullShift) and isinstance(tag_b, FullShift):
            if tag_a.symbols == tag_b.symbols:
                return FEVerdict(
                    "equivalent",
                    reason=f"both flow equivalent to the full {tag_a.symbols}-shift",
                )
            return FEVerdict(
                "not_equivalent",
                reason="full shifts on different symbol counts",
            )
        return FEVerdict(
            "not_equivalent",
            reason="finite type is never flow equivalent to strictly sofic",
        )
    if tag_a != tag_b:
        return FEVerdict("not_equivalent", reason="sofic gap invariants differ")

    # Same tag: hunt for a cofinite translation witness.  Offsets must
    # realign mod N, so only one residue class of r can work.
    period = a.N
    want = {t % period for t in b.T}
    m1 = _member_fn(a)
    m2 = _member_fn(b)
    span = max(a.R + a.T + b.R + b.T) + period
    best: tuple[tuple[int, int, int], int] | None = None
    for r in _signed_range(span + (bound + 2) * period):
        # beyond the span, |r| alone forces at least one removal per period
        if best is not None and (abs(r) - span) // period > best[0][0]:
            break
        if {(t + r) % period for t in a.T} != want:
            continue
        # With this window, a is counted up to span + 2N + |r| - max(r, 0)
        # and b up to span + 2N + |r| + min(r, 0).  Past span both sets
        # are periodic and the residue filter aligns them, so a member x
        # of a can be forced only if x <= span + max(-r, 0), and a member
        # y of b only if y <= span + max(r, 0): both ranges cover them.
        forced_a, forced_b = _forced_removals(m1, m2, r, span + abs(r) + 2 * period)
        n = max(len(forced_a), len(forced_b))
        if n <= bound:
            key = (n, abs(r), 0 if r >= 0 else 1)
            if best is None or key < best[0]:
                best = (key, r)
    if best is None:
        return FEVerdict("unknown_up_to", bound=bound)
    (n, _, _), r = best
    return FEVerdict("equivalent", witness=(n, r))


def _window_membership(s: SGapSet) -> tuple[Callable[[int], bool], int | None]:
    if isinstance(s, SampledGaps):
        mem = frozenset(s.members)
        return (lambda x: x in mem), s.bound
    return _member_fn(_exact(s)), None


def _forced_removals(
    f1: Callable[[int], bool], f2: Callable[[int], bool], r: int, window: int
) -> tuple[list[int], list[int]]:
    hi_a = window - max(r, 0)
    hi_b = window + min(r, 0)
    forced_a = [x for x in range(hi_a + 1) if f1(x) and not (x + r >= 0 and f2(x + r))]
    forced_b = [y for y in range(hi_b + 1) if f2(y) and not (y - r >= 0 and f1(y - r))]
    return forced_a, forced_b


def _window_consistent(s1: SGapSet, s2: SGapSet, witness: tuple[int, int]) -> bool:
    f1, b1 = _window_membership(s1)
    f2, b2 = _window_membership(s2)
    limits = [b for b in (b1, b2) if b is not None]
    if not limits:
        return True
    n, r = witness
    forced_a, forced_b = _forced_removals(f1, f2, r, min(limits))
    return max(len(forced_a), len(forced_b)) <= n


def _fe_equal_window(s1: SGapSet, s2: SGapSet, bound: int) -> FEVerdict:
    """Translation search on the common verified window.

    A witness is accepted only when every forced removal sits in the
    lower half of the window: the upper half must match exactly under
    the translation, otherwise wholesale removals could fake a match.
    """
    f1, b1 = _window_membership(s1)
    f2, b2 = _window_membership(s2)
    limits = [b for b in (b1, b2) if b is not None]
    window = min(limits)
    half = window // 2
    if window < 4:
        return FEVerdict("unknown_up_to", bound=window)
    best: tuple[tuple[int, int, int], int] | None = None
    for r in _signed_range(min(bound, window - half)):
        forced_a, forced_b = _forced_removals(f1, f2, r, window)
        if forced_a and max(forced_a) > half:
            continue
        if forced_b and max(forced_b) > half:
            continue
        n = max(len(forced_a), len(forced_b))
        if n <= bound:
            key = (n, abs(r), 0 if r >= 0 else 1)
            if best is None or key < best[0]:
                best = (key, r)
    if best is not None:
        (n, _, _), r = best
        return FEVerdict("equivalent", witness=(n, r))
    return FEVerdict("not_equivalent_up_to", bound=window)


def fe_equal(s1: SGapSet, s2: SGapSet, search_bound: int = 200) -> FEVerdict:
    """Decide flow equivalence of two gap shifts.

    Exact descriptions give exact verdicts.  Any sampled input caps what
    can be concluded: a negative answer degrades to not_equivalent_up_to,
    and a positive answer needs a witness the window itself confirms.
    """
    if search_bound < 1:
        raise InvalidInput("search bound must be at least 1")
    sampled = isinstance(s1, SampledGaps) or isinstance(s2, SampledGaps)
    e1 = _as_exact(s1)
    e2 = _as_exact(s2)
    if not sampled:
        assert e1 is not None and e2 is not None
        return _fe_equal_exact(e1, e2, search_bound)
    window = min(s.bound for s in (s1, s2) if isinstance(s, SampledGaps))
    if any(isinstance(s, SampledGaps) and not s.members for s in (s1, s2)):
        # no member to translate: any partner matches it by removals alone
        return FEVerdict("unknown_up_to", bound=window)
    if e1 is not None and e2 is not None:
        verdict = _fe_equal_exact(e1, e2, search_bound)
        if verdict.outcome == "equivalent":
            if verdict.witness is None or _window_consistent(s1, s2, verdict.witness):
                return verdict
            return FEVerdict("unknown_up_to", bound=window)
        if verdict.outcome == "not_equivalent":
            return FEVerdict("not_equivalent_up_to", reason=verdict.reason, bound=window)
        return verdict
    return _fe_equal_window(s1, s2, search_bound)


def smith_normal_form_by_closures(a: Matrix) -> SmithDecomposition:
    """Smith normal form over the integers with recorded transforms.

    Pivot choice is the least |entry| in the working submatrix with
    row-major ties, so the decomposition is reproducible.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) for r in a]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src: int, dst: int, c: int) -> None:
        for j in range(cols):
            m[dst][j] += c * m[src][j]
        for j in range(rows):
            u[dst][j] += c * u[src][j]

    def add_col(src: int, dst: int, c: int) -> None:
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def pivot_at(t: int) -> tuple[int, int] | None:
        best: tuple[int, int] | None = None
        for i in range(t, rows):
            for j in range(t, cols):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        pos = pivot_at(t)
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            # Clear column t, restarting whenever a smaller remainder shows up.
            restart = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    add_row(t, i, -q)
                    if m[i][t] != 0:
                        swap_rows(t, i)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    add_col(t, j, -q)
                    if m[t][j] != 0:
                        swap_cols(t, j)
                        restart = True
                        break
            if restart:
                continue
            # Pivot must divide the rest of the submatrix; pull a bad row up.
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if m[t][t] < 0:
            for j in range(cols):
                m[t][j] = -m[t][j]
            for j in range(rows):
                u[t][j] = -u[t][j]
        t += 1

    return SmithDecomposition(
        tuple(tuple(r) for r in u),
        tuple(tuple(r) for r in m),
        tuple(tuple(r) for r in v),
    )


def bowen_franks_by_determinant(a: Sequence[Sequence[int]]) -> SignedBFGroup:
    """Signed Bowen-Franks data of an adjacency matrix."""
    mat = as_matrix(a, square=True)
    n = len(mat)
    b = mat_sub(identity(n), mat)
    det = determinant_by_bareiss(b)
    sign = 0 if det == 0 else (1 if det > 0 else -1)
    diag = smith_normal_form_by_closures(b).diagonal
    return SignedBFGroup(sign, tuple(d for d in diag if d != 1))


def components_by_vertex(graph: DirectedGraph) -> list[DirectedGraph]:
    """SCC subgraphs that contain at least one edge, as separate graphs.

    Iterative Tarjan on vertex-keyed dicts; component order is
    deterministic given vertex order.
    """
    index: dict = {}
    low: dict = {}
    on_stack: dict = {}
    stack: list = []
    components: list[list] = []
    counter = 0
    succ = {v: graph.out_edges(v) for v in graph.vertices}

    for root in graph.vertices:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for e in it:
                w = e.dst
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                elif on_stack.get(w, False):
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(comp)

    comp_of = {v: c for c, comp in enumerate(components) for v in comp}
    comp_edges: list[list[Edge]] = [[] for _ in components]
    for e in graph.edges:
        if comp_of[e.src] == comp_of[e.dst]:
            comp_edges[comp_of[e.src]].append(e)
    out: list[DirectedGraph] = []
    order = {v: i for i, v in enumerate(graph.vertices)}
    for comp, edges in zip(components, comp_edges):
        if not edges:
            continue
        comp_sorted = tuple(sorted(comp, key=order.__getitem__))
        out.append(DirectedGraph(comp_sorted, tuple(edges)))
    out.sort(key=lambda g: order[g.vertices[0]])
    return out


def gap_shift_presentation(s: FiniteGaps | EventuallyPeriodicGaps) -> LabeledGraph:
    """Right-resolving presentation of the gap shift of R + (T + N*n) on
    states 0..K-1, K = max(max R + 1, max T) + N: state k counts the 0's
    since the last 1, goes to k + 1 on `0` (K - 1 goes back to K - N) and
    to 0 on `1` when k is a member.  The cycle starts past every sporadic
    element and every offset, so each cycle state stands for one residue
    class of the tail, all of whose members it holds.  T must not be
    empty; a finite set goes to `finite_gap_shift_presentation`."""
    if isinstance(s, FiniteGaps):
        return finite_gap_shift_presentation(s)
    top = max(max(s.R, default=-1) + 1, max(s.T)) + s.N
    member = [k in s.R or any(k >= t and (k - t) % s.N == 0 for t in s.T) for k in range(top)]
    arcs = [(k, k + 1 if k + 1 < top else top - s.N, "0") for k in range(top)]
    arcs += [(k, 0, "1") for k in range(top) if member[k]]
    return labeled_graph(range(top), arcs)


def finite_gap_shift_presentation(s: FiniteGaps) -> LabeledGraph:
    """Right-resolving presentation of the gap shift of a finite set S on
    states 0..max S with no cycle: state k counts the 0's since the last
    1, goes to k + 1 on `0` below max S and to 0 on `1` when k is in S."""
    top = max(s.elements)
    arcs = [(k, k + 1, "0") for k in range(top)] + [(k, 0, "1") for k in s.elements]
    return labeled_graph(range(top + 1), arcs)


def has_finite_memory(lg: LabeledGraph) -> bool:
    """Whether a right-resolving presentation has finite memory: the
    graph on pairs (p, q), p != q, of its states, joined when both read
    the same label to distinct states, has an empty essential part."""
    n = len(lg._rows)
    pairs = [(p, q) for p in range(n) for q in range(n) if p != q]
    at = {pq: i for i, pq in enumerate(pairs)}
    src, dst = [], []
    for i, (p, q) in enumerate(pairs):
        for a, p2 in lg._rows[p]:
            for b, q2 in lg._rows[q]:
                if a == b and p2 != q2:
                    src.append(i)
                    dst.append(at[p2, q2])
    return not _essential(len(pairs), src, dst)


def essential_part_by_rescanning(graph: DirectedGraph) -> DirectedGraph:
    """`DirectedGraph.essential_part` by rounds: each round recounts the
    in- and out-edges of every vertex left and drops those missing one,
    O(rounds x E), the rounds as many as the longest dead chain."""
    vertices = list(graph.vertices)
    edges = list(graph.edges)
    while True:
        outs = {v: 0 for v in vertices}
        ins = {v: 0 for v in vertices}
        for e in edges:
            outs[e.src] += 1
            ins[e.dst] += 1
        keep = [v for v in vertices if outs[v] > 0 and ins[v] > 0]
        if len(keep) == len(vertices):
            return DirectedGraph(tuple(vertices), tuple(edges))
        kept = set(keep)
        vertices = keep
        edges = [e for e in edges if e.src in kept and e.dst in kept]


def is_strongly_connected_by_vertex(graph: DirectedGraph) -> bool:
    if not graph.vertices:
        return False
    comps = components_by_vertex(graph)
    return len(comps) == 1 and len(comps[0].vertices) == len(graph.vertices)


def is_irreducible_by_tarjan(a: Sequence[Sequence[int]]) -> bool:
    """Every index reaches every index through positive powers."""
    return is_strongly_connected_by_vertex(from_adjacency(_check_adjacency(a)))


def franks_decide_by_graphs(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Flow equivalence of two irreducible edge shifts by invariant match.

    Only meaningful for irreducible matrices that are not single
    orbits; anything else is rejected rather than misclassified.
    """
    for name, mat in (("first", a), ("second", b)):
        if not is_irreducible_by_tarjan(mat):
            raise PreconditionError(f"{name} matrix is not irreducible")
        if single_orbit_by_cycle_walk(_check_adjacency(mat)):
            raise PreconditionError(f"{name} matrix presents a single periodic orbit")
    return bowen_franks_by_determinant(a) == bowen_franks_by_determinant(b)


def determinant_by_bareiss(a: Matrix) -> int:
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise InvalidInput("determinant needs a square matrix")
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def irreducible_by_reachability(mat: Matrix) -> bool:
    return bool(mat) and _reaches_all(mat) and _reaches_all(list(zip(*mat)))


def _reaches_all(mat: Sequence[Sequence[int]]) -> bool:
    """Index 0 reaches every index, itself included, in one or more steps."""
    seen = [False] * len(mat)
    stack = [0]
    while stack:
        for j, x in enumerate(mat[stack.pop()]):
            if x and not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def single_orbit_by_cycle_walk(mat: Matrix) -> bool:
    n = len(mat)
    if n == 0:
        return False
    succ: list[int] = []
    for row in mat:
        if sum(row) != 1 or any(v not in (0, 1) for v in row):
            return False
        succ.append(row.index(1))
    if sorted(succ) != list(range(n)):
        return False
    seen = {0}
    j = succ[0]
    while j not in seen:
        seen.add(j)
        j = succ[j]
    return len(seen) == n


def short_words_by_windows(data: EdgeShiftData, n: int) -> set[tuple[str, ...]]:
    """The length-n words of the language for 1 <= n <= the step, as tuples:
    the length-n factors of the vertex words, its step-length words."""
    return {f for v in data.vertices for f in _windows(v, n)}


def contains_word_by_windows(x: ForbiddenSetSFT, word: Word | str) -> bool:
    """Membership of a finite word in the language, hashing each of its
    (m+1)-windows against the live edge words."""
    w = _unambiguous_word(word, x.alphabet)
    if len(w) == 0:
        return True
    if not set(w).issubset(x.alphabet.symbols):
        return False
    data = _edge_shift(x)
    m = x.step
    if len(w) <= m:
        return w in short_words_by_windows(data, len(w))
    return all(f in live_words(x) for f in _windows(w, m + 1))


def walks_by_generators(rows: Sequence[Sequence[tuple[int, int]]]) -> Iterator[list[int]]:
    """A^k 1 for k = 0, 1, 2, ..., A the matrix with these index rows,
    one generator per row on every step."""
    vec = [1] * len(rows)
    while True:
        yield vec
        vec = [sum(k * vec[j] for j, k in row) for row in rows]


def out_labeled(lg: LabeledGraph, v: Vertex) -> list[tuple[str, Vertex]]:
    """(label, target) of each out-edge of v, read from the graph's edges."""
    return [(lg.labels[e.eid], e.dst) for e in lg.graph.out_edges(v)]


def _subset_automaton(
    lg: LabeledGraph, include_singletons: bool = False
) -> tuple[DirectedGraph, tuple[str, ...], Vertex]:
    """Deterministic automaton of subsets reachable from the full vertex set.

    Vertex names are tuples of original vertices in graph order.  Words
    readable in `lg` correspond exactly to paths from the seed state.
    With `include_singletons` every one-vertex subset is seeded too.
    """
    if not lg.graph.vertices:
        raise PreconditionError("empty presentation")
    order = {v: i for i, v in enumerate(lg.graph.vertices)}

    def name(state: frozenset) -> tuple:
        return tuple(sorted(state, key=order.__getitem__))

    seed = frozenset(lg.graph.vertices)
    seeds = [seed]
    if include_singletons:
        seeds.extend(frozenset([v]) for v in lg.graph.vertices)
    queue: deque[frozenset] = deque()
    seen: dict[frozenset, tuple] = {}
    for s in seeds:
        if s not in seen:
            seen[s] = name(s)
            queue.append(s)
    states: list[frozenset] = []
    arcs: list[tuple[tuple, tuple, str]] = []
    while queue:
        s = queue.popleft()
        states.append(s)
        follow: dict[str, set[Vertex]] = {}
        for v in s:
            for a, t in out_labeled(lg, v):
                follow.setdefault(a, set()).add(t)
        for a in sorted(follow):
            nxt = frozenset(follow[a])
            if nxt not in seen:
                seen[nxt] = name(nxt)
                queue.append(nxt)
            arcs.append((seen[s], seen[nxt], a))
    vertices = [seen[s] for s in states]
    g = DirectedGraph.build(vertices, [(s, d) for s, d, _ in arcs])
    return g, tuple([a for _, _, a in arcs]), seen[seed]


def determinize(lg: LabeledGraph) -> LabeledGraph:
    """Right-resolving presentation of the same sofic shift, essential part.

    Subsets are seeded from the full vertex set and from every singleton,
    so reachable one-vertex follower states show up even when the full
    seed never narrows down to them.
    """
    g, labels, _ = _subset_automaton(lg, include_singletons=True)
    return LabeledGraph(essential_part_by_rescanning(g), labels)


def _moore_classes(lg: LabeledGraph) -> dict[Vertex, int]:
    """Coarsest partition where vertices agree on label -> class of target.

    Assumes right-resolving input.  Absent labels distinguish states on
    their own, since they vanish from the signature.
    """
    classes = {v: 0 for v in lg.graph.vertices}
    step = {v: sorted(dict(out_labeled(lg, v)).items()) for v in lg.graph.vertices}
    while True:
        renumber: dict[tuple, int] = {}
        new = {
            v: renumber.setdefault((classes[v], tuple([(a, classes[t]) for a, t in out])), len(renumber))
            for v, out in step.items()
        }
        if new == classes:
            return classes
        classes = new


def _quotient(lg: LabeledGraph, classes: dict[Vertex, int]) -> LabeledGraph:
    reps: dict[int, Vertex] = {}
    for v in lg.graph.vertices:
        reps.setdefault(classes[v], v)
    order = sorted(reps)
    rename = {c: str(i) for i, c in enumerate(order)}
    arcs: list[tuple[str, str, str]] = []
    for c in order:
        v = reps[c]
        for a, t in sorted(out_labeled(lg, v)):
            arcs.append((rename[c], rename[classes[t]], a))
    return labeled_graph([rename[c] for c in order], arcs)


def _sofic_word_counts(lg: LabeledGraph, upto: int) -> list[int]:
    """|B_n| for n = 1 .. upto: paths of length n from the seed of the
    subset automaton of the essential part, the seed's entry of A^n 1.

    Counting must run on the essential part: a label path that dead-ends
    is readable but belongs to no point.
    """
    ess = LabeledGraph(essential_part_by_rescanning(lg.graph), lg.labels)
    if not ess.graph.vertices:
        return [0] * upto
    g, _, seed = _subset_automaton(ess)
    at = g.vertices.index(seed)
    return [vec[at] for vec in islice(_walks(_gather(g.sparse_adjacency())), 1, upto + 1)]


def _same_shift(p: LabeledGraph, q: LabeledGraph) -> bool:
    """Whether p and q present the same shift: Moore's partition of their
    subset automata (essential parts, both nonempty), joined side by side,
    puts the two seeds in one class."""
    vertices: list[tuple[int, Vertex]] = []
    arcs: list[tuple[tuple, tuple, str]] = []
    seeds = []
    for tag, lg in enumerate((p, q)):
        g, labels, seed = _subset_automaton(LabeledGraph(essential_part_by_rescanning(lg.graph), lg.labels))
        vertices += [(tag, v) for v in g.vertices]
        arcs += [((tag, e.src), (tag, e.dst), labels[e.eid]) for e in g.edges]
        seeds.append((tag, seed))
    classes = _moore_classes(labeled_graph(vertices, arcs))
    return classes[seeds[0]] == classes[seeds[1]]


def minimal_right_resolving(lg: LabeledGraph) -> LabeledGraph:
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Determinize from the full vertex set, merge states with equal
    follower sets, then keep the unique sink component, the one no edge
    leaves.  Its language is contained in the input's; `_same_shift`
    certifies equality.  Both subset automata are deterministic and every
    state accepts, so Moore classes of their join are classes of equal
    follower sets: the seeds share a class exactly when the languages are
    equal.  Inputs presenting a reducible shift are rejected.
    """
    g, labels, _ = _subset_automaton(lg)
    det = LabeledGraph(essential_part_by_rescanning(g), labels)
    if not det.graph.vertices:
        raise PreconditionError("presentation has no bi-infinite points")
    merged = _quotient(det, _moore_classes(det))
    sinks = []
    for comp in merged.graph.strongly_connected_components():
        inside = set(comp.vertices)
        if all(e.dst in inside for v in comp.vertices for e in merged.graph.out_edges(v)):
            sinks.append(comp)
    if len(sinks) == 1:
        sink = sinks[0]
        result = _quotient(LabeledGraph(sink, merged.labels), {v: i for i, v in enumerate(sink.vertices)})
        if _same_shift(lg, result):
            return result
    raise PreconditionError(
        "presentation is not an irreducible sofic shift; "
        "minimize each strongly connected component separately"
    )


def is_right_resolving(lg: LabeledGraph) -> bool:
    for v in lg.graph.vertices:
        labs = [lg.labels[e.eid] for e in lg.graph.out_edges(v)]
        if len(labs) != len(set(labs)):
            return False
    return True


def follower_table(lg: LabeledGraph, depth: int) -> dict[Vertex, frozenset[Word]]:
    """Words of length <= depth readable from each vertex."""
    table: dict[Vertex, set[Word]] = {v: {EMPTY_WORD} for v in lg.graph.vertices}
    layer: dict[Vertex, set[Word]] = {v: {EMPTY_WORD} for v in lg.graph.vertices}
    for _ in range(depth):
        nxt: dict[Vertex, set[Word]] = {v: set() for v in lg.graph.vertices}
        for v in lg.graph.vertices:
            for a, t in out_labeled(lg, v):
                for w in layer[t]:
                    nxt[v].add(Word([a]) + w)
        for v in lg.graph.vertices:
            table[v] |= nxt[v]
        layer = nxt
    return {v: frozenset(ws) for v, ws in table.items()}


def focus_set(lg: LabeledGraph, word: Word | str) -> frozenset:
    """Terminal vertices of paths labeled by the word, from any start.

    Raises when no path presents the word.  A plain string is refused
    when a label has more than one character.
    """
    w = _unambiguous_word(word, lg.label_alphabet())
    current = set(lg.graph.vertices)
    for a in w:
        current = {t for v in current for b, t in out_labeled(lg, v) if b == a}
    if not current:
        raise PreconditionError(f"{w!r} is not readable in the presentation")
    return frozenset(current)


def _separating_word(lg: LabeledGraph, focus: frozenset) -> Word | None:
    """Shortest word killing exactly one of a tracked pair of threads.

    Pairs are tried in vertex order; label order breaks ties, so the
    answer is reproducible.
    """
    order = {v: i for i, v in enumerate(lg.graph.vertices)}
    step = {v: dict(out_labeled(lg, v)) for v in lg.graph.vertices}
    alphabet = lg.label_alphabet()
    members = sorted(focus, key=order.__getitem__)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            start = (members[i], members[j])
            queue = deque([(start, EMPTY_WORD)])
            seen = {start}
            while queue:
                (x, y), w = queue.popleft()
                for a in alphabet:
                    nx = step[x].get(a) if x is not None else None
                    ny = step[y].get(a) if y is not None else None
                    if nx is None and ny is None:
                        continue
                    nw = w + Word([a])
                    if (nx is None) != (ny is None):
                        return nw
                    state = (nx, ny)
                    if state not in seen:
                        seen.add(state)
                        queue.append((state, nw))
    return None


def extend_to_synchronizing(lg: LabeledGraph, word: Word | str) -> Word:
    """Extend a language word until its focus set is a single vertex.

    Requires a right-resolving presentation; each appended block kills
    at least one surviving thread, so the loop terminates.
    """
    if not is_right_resolving(lg):
        raise PreconditionError("presentation must be right-resolving")
    w = _unambiguous_word(word, lg.label_alphabet())
    focus = focus_set(lg, w)
    while len(focus) > 1:
        z = _separating_word(lg, focus)
        if z is None:
            raise PreconditionError("focus threads cannot be separated; presentation is not follower-separated")
        w = w + z
        focus = focus_set(lg, w)
    return w


def _full_pair_subshift_present(x: ForbiddenSetSFT, a: str, b: str, length: int) -> bool:
    """Whether every {a, b}-word of the given length is in the language."""
    data = _edge_shift(x)
    m = x.step
    pair = {a, b}
    if length <= m:
        pair_words = [w for w in _short_words(data, length) if all(s in pair for s in w)]
        return len(pair_words) == 2**length
    graph, edge_words = sft_to_edge_shift(x)
    sub_edges = [e for e in graph.edges if all(s in pair for s in edge_words[e.eid])]
    endpoints = sorted({e.src for e in sub_edges} | {e.dst for e in sub_edges})
    sub = DirectedGraph(tuple(endpoints), tuple(sub_edges))
    return path_count(sub, length - m) == 2**length
