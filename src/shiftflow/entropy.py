"""Entropy of shift spaces, and two constructions that move it around."""

from __future__ import annotations

from dataclasses import dataclass
from math import log2
from typing import Sequence

from .errors import InvalidInput, NonConvergenceError
from .graphs import DirectedGraph, from_adjacency, path_count
from .moves import MovePipeline
from .presentations import LabeledGraph, _sofic_word_counts, determinize
from .sft import ForbiddenSetSFT, _natural_edge_shift, contains_word, language_count
from .words import Word


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    method: str
    n_used: int | None = None
    empty: bool = False


def _as_graph(obj) -> DirectedGraph:
    if isinstance(obj, ForbiddenSetSFT):
        return _natural_edge_shift(obj).graph
    if isinstance(obj, DirectedGraph):
        return obj
    if isinstance(obj, LabeledGraph):
        return obj.graph
    return from_adjacency(obj)


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
        count = path_count(_as_graph(obj), n)
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


def perron_entropy(obj, tol: float = 1e-12, max_iterations: int = 100_000) -> EntropyEstimate:
    """Entropy as log2 of the largest spectral radius over the strongly
    connected components.  A graph with no cycles has entropy 0."""
    graph = _as_graph(obj)
    rho = 1.0
    for comp in graph.strongly_connected_components():
        rho = max(rho, _power_iteration_rho(comp.sparse_adjacency(), tol, max_iterations))
    return EntropyEstimate(log2(rho) if rho > 1.0 else 0.0, "perron")


def sofic_entropy(lg: LabeledGraph, tol: float = 1e-12, max_iterations: int = 100_000) -> EntropyEstimate:
    """Entropy of the sofic shift a labeled graph presents.

    The graph is determinized first, so label collisions on multiple
    paths are not double counted.
    """
    return perron_entropy(determinize(lg).graph, tol=tol, max_iterations=max_iterations)


def scale_entropy_construction(obj, n: int) -> DirectedGraph:
    """Replace every edge by a path of n edges; entropy divides by n."""
    if n < 1:
        raise InvalidInput("need n >= 1")
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
    """Whether every {a, b}-word of the given length is in the language."""
    data = _natural_edge_shift(x)
    m = data.step
    if m >= length:
        from itertools import product

        return all(contains_word(x, Word(p)) for p in product((a, b), repeat=length))
    pair = {a, b}
    sub_edges = [e for e in data.graph.edges if all(s in pair for s in data.edge_words[e.eid])]
    if not sub_edges and length > m:
        return False
    endpoints = sorted({e.src for e in sub_edges} | {e.dst for e in sub_edges})
    sub = DirectedGraph(tuple(endpoints), tuple(sub_edges))
    return path_count(sub, length - m) == 2**length


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
