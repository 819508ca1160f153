"""Entropy of shift spaces, and two constructions that move it around."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby, islice, repeat
from math import log2
from operator import add, mul, truediv
from typing import Sequence

from .errors import InvalidInput, NonConvergenceError, PreconditionError
from .graphs import DirectedGraph, _adjacency_rows, _components, _gather, _getter, _index_rows, _walks, from_adjacency
from .moves import MovePipeline
from .presentations import LabeledGraph, _sofic_word_counts, _subset_automaton
from .sft import MAX_CANDIDATES, ForbiddenSetSFT, _edge_graph, _edge_shift, enumerate_language, language_count
from .words import Word


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    method: str
    n_used: int | None = None
    empty: bool = False


def _as_graph(obj) -> DirectedGraph:
    if isinstance(obj, ForbiddenSetSFT):
        return _edge_graph(obj)[0]
    if isinstance(obj, DirectedGraph):
        return obj
    if isinstance(obj, LabeledGraph):
        return obj.graph
    return from_adjacency(obj)


def _rows(obj) -> Sequence[Sequence[tuple[int, int]]]:
    """Index rows of a shift, graph or matrix: for a shift those of its
    edge-shift automaton, for a graph its `sparse_adjacency`, and for a
    matrix the rows of its own entries, so the work is bounded by the
    matrix size, not by its entries."""
    if isinstance(obj, ForbiddenSetSFT):
        return _index_rows(_edge_shift(obj).delta)
    if isinstance(obj, (DirectedGraph, LabeledGraph)):
        return _as_graph(obj).sparse_adjacency()
    return _adjacency_rows(obj)


def entropy_word_count(obj, n: int) -> EntropyEstimate:
    """Entropy estimate log2(|B_n|) / n from one exact word count.

    Accepts an SFT, a labeled graph (counting distinct label words), or
    a bare graph (counting paths).  The empty shift reports 0 with the
    `empty` flag set.
    """
    if n < 1:
        raise InvalidInput("need n >= 1")
    if isinstance(obj, ForbiddenSetSFT):
        count = language_count(obj, n)
    elif isinstance(obj, LabeledGraph):
        count = _sofic_word_counts(obj, n)[-1]
    else:
        count = sum(next(islice(_walks(_gather(_rows(obj))), n, None)))
    if count == 0:
        return EntropyEstimate(0.0, "word_count", n, empty=True)
    return EntropyEstimate(log2(count) / n, "word_count", n)


def _power_iteration_rho(rows: Sequence[Sequence[tuple[int, int]]], tol: float, max_iterations: int) -> float:
    """Spectral radius of an irreducible nonnegative matrix, given as the
    rows of `DirectedGraph.sparse_adjacency`.

    Iterates on A + I, which is primitive, so convergence is assured;
    the +1 is subtracted at the end.  Convergence is judged by the
    Collatz-Wielandt bracket min_i (Bv)_i/v_i <= rho <= max_i (Bv)_i/v_i,
    which cannot close before v is the eigenvector; the raw eigenvalue
    estimate can plateau while the vector is still moving.

    Set-up groups the rows of A + I by term count and renumbers the
    positions so each group is one run; per group and term position it
    keeps one `graphs._getter` over the columns, and the multiplicities
    unless all are 1.  An iteration is then a few C-level passes.  Each
    row sum still starts from its term of least column and adds the rest
    in increasing column order, and 1 * x is x, so every float equals the
    one the dense product gives (adding 0.0 changes no float), as long as
    `sum` adds floats left to right (CPython before 3.12).

    The whole bracket is read only when it can close.  Each iteration
    first computes ra and rb, the ratios at the positions where the last
    full read found hi and lo, and B = max(Bv) / min(v).  When
    |ra - rb| > tol * max(1, B), it only rescales, and a full read could
    not have stopped: ra and rb are among its ratios, so hi - lo >=
    |ra - rb| before rounding; every ratio (Bv)_i / v_i is at most
    max(Bv) / min(v) before rounding, so hi <= B; and rounding is
    monotone, so the rounded hi - lo is at least the rounded |ra - rb|,
    and tol * max(1, hi) is at most tol * max(1, B).  A NaN fails the
    comparison and gets the full read.  The ratios, min, max and the
    rescaling do not depend on the order of positions, so the iterates,
    the iteration count and the result are those of a loop that sums
    each row with `sum` and reads every ratio of every iteration.  An
    entry of v that underflows to 0.0 would make its ratio divide by
    zero, and raises `NonConvergenceError` instead.
    """
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
        # A list, not the iterator, so the argument tuple is not grown
        # from a generator (see `invariants.as_matrix`).
        for column in zip(*list(members)):
            ks = [k for _, k in column]
            terms.append((_getter(tuple([at[j] for j, _ in column])), ks if max(ks) > 1 else None))
        groups.append(terms)
    vec = [1.0] * n
    hi_at = lo_at = 0
    for done in range(max_iterations):
        nxt: list[float] = []
        for terms in groups:
            acc = None
            for get, ks in terms:
                term = get(vec) if ks is None else map(mul, ks, get(vec))
                acc = term if acc is None else map(add, acc, term)
            nxt += acc
        top, least = max(nxt), min(vec)
        if least == 0.0:
            raise NonConvergenceError(
                f"power iteration underflowed after {done} iterations: "
                "an entry of the Perron vector fell below the smallest float", done
            )
        if abs(nxt[hi_at] / vec[hi_at] - nxt[lo_at] / vec[lo_at]) <= tol * max(1.0, top / least):
            ratios = list(map(truediv, nxt, vec))
            lo, hi = min(ratios), max(ratios)
            if hi - lo <= tol * max(1.0, hi):
                return (lo + hi) / 2.0 - 1.0
            hi_at, lo_at = ratios.index(hi), ratios.index(lo)
        vec = list(map(truediv, nxt, repeat(top, n)))
    raise NonConvergenceError(
        f"power iteration did not settle within {max_iterations} iterations", max_iterations
    )


def _perron(rows: Sequence[Sequence[tuple[int, int]]], tol: float, max_iterations: int) -> EntropyEstimate:
    """Entropy as log2 of the largest spectral radius over the strongly
    connected components that have an edge, of the graph with these index
    rows; each component's rows are renumbered in increasing order, the
    rows of `sparse_adjacency` of that component's subgraph."""
    rho = 1.0
    for comp in _components(rows):
        at = {i: p for p, i in enumerate(comp)}
        sub = [[(at[j], k) for j, k in rows[i] if j in at] for i in comp]
        rho = max(rho, _power_iteration_rho(sub, tol, max_iterations))
    return EntropyEstimate(log2(rho) if rho > 1.0 else 0.0, "perron")


def perron_entropy(obj, tol: float = 1e-12, max_iterations: int = 100_000) -> EntropyEstimate:
    """Entropy as log2 of the largest spectral radius over the strongly
    connected components.  A graph with no cycles has entropy 0."""
    return _perron(_rows(obj), tol, max_iterations)


def sofic_entropy(lg: LabeledGraph, tol: float = 1e-12, max_iterations: int = 100_000) -> EntropyEstimate:
    """Entropy of the sofic shift a labeled graph presents.

    Perron runs on the index rows of `determinize`'s subset automaton,
    parallel transitions merged into counts, so label collisions on
    multiple paths are not double counted, and no graph is built.  The
    components that have an edge lie in the automaton's essential part,
    so no trim is needed, and each one's rows are those of
    `determinize(lg).graph`: the floats are that graph's Perron entropy.
    A presentation with no vertices has entropy 0, as in `perron_entropy`.
    """
    _, delta = _subset_automaton(lg._rows, include_singletons=True)
    return _perron(_index_rows(delta), tol, max_iterations)


def scale_entropy_construction(obj, n: int) -> DirectedGraph:
    """Replace every edge by a path of n edges; entropy divides by n.

    The result has V + E (n - 1) vertices; more than `MAX_CANDIDATES` is
    refused with `PreconditionError` before any graph is built."""
    if n < 1:
        raise InvalidInput("need n >= 1")
    rows = _rows(obj)
    count = len(rows) + sum(c for row in rows for _, c in row) * (n - 1)
    if count > MAX_CANDIDATES:
        raise PreconditionError(f"scaling by {n} gives {count} vertices, above the limit {MAX_CANDIDATES}")
    graph = _as_graph(obj)
    if n == 1:
        return graph
    taken = set(graph.vertices)
    vertices = list(graph.vertices)
    arcs: list[tuple] = []
    for e in graph.edges:
        chain = [e.src]
        for i in range(1, n):
            name = f"e{e.eid}.{i}"
            while name in taken:
                name = "+" + name
            taken.add(name)
            vertices.append(name)
            chain.append(name)
        chain.append(e.dst)
        arcs.extend((chain[i], chain[i + 1]) for i in range(n))
    return DirectedGraph.build(vertices, arcs)


def _full_pair_subshift_present(x: ForbiddenSetSFT, a: str, b: str, length: int) -> bool:
    """Whether every {a, b}-word of the given length is in the language.

    Read from the forbidden set (Lind and Marcus, section 2.1):
    1. No forbidden word is an {a, b}-word: every bi-infinite {a, b}-string
       avoids them all, so it is a point of x and every {a, b}-word of
       every length occurs.
    2. A forbidden {a, b}-word f has len(f) <= length: the {a, b}-word
       f a^(length - len(f)) has the forbidden factor f, so it does not.
    3. Otherwise every forbidden {a, b}-word is longer than the length
       (and at most the step m + 1 long): the {a, b}-words among the
       language's words of that length are counted.
    """
    shortest = min((len(f) for f in x.forbidden if {a, b}.issuperset(f)), default=None)
    if shortest is None or shortest <= length:
        return shortest is None
    return sum({a, b}.issuperset(w) for w in enumerate_language(x, length)) == 2**length


def boost_entropy_pipeline(x: ForbiddenSetSFT, a: str, b: str, target: int) -> MovePipeline:
    """Pipeline of word contractions raising entropy to at least `target`.

    Needs a free pair of symbols: every {a, b}-word of length
    2 * 2**target + 2 must be in the language.  Contracting b a^i for
    i = 2**target down to 1 packs those words into single symbols.
    """
    if target < 1:
        raise InvalidInput("target must be a positive integer")
    if target > 2:
        raise InvalidInput("targets above 2 would need enumerations past the supported budget")
    if a not in x.alphabet or b not in x.alphabet or a == b:
        raise InvalidInput("need two distinct alphabet symbols")
    m = 2**target
    if not _full_pair_subshift_present(x, a, b, 2 * m + 2):
        raise InvalidInput(f"not every {{{a!r}, {b!r}}}-word of length {2 * m + 2} occurs")
    pipe = MovePipeline.start(x)
    for i in range(m, 0, -1):
        pipe = pipe.word_contract(Word([b] + [a] * i))
    return pipe


def boost_entropy_construction(x: ForbiddenSetSFT, a: str, b: str, target: int) -> ForbiddenSetSFT:
    return boost_entropy_pipeline(x, a, b, target).result
