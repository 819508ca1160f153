"""`spectral`: Perron roots, word counts and presentations.

Operations take the Perron entropy of `scale_entropy_construction(base,
n)` (n up to 32 on one-vertex bases, n up to 8 on edge-shift bases of up
to ~50 edges), word-count entropy of SFTs, `sofic_entropy` of SFT
presentations, and `determinize` / `minimal_right_resolving` of random
strongly connected labeled graphs with 3 to 5 vertices and 2 labels.
Dense loops in `entropy`, `graphs` and `presentations` do the work;
`moves` is idle.  The `_edge_shift` cache is cleared before every
operation.
"""

from __future__ import annotations

import random

import shiftflow as sf

from build import _bases, build_pipeline, random_plan
from common import Op, Rejected, expect

COLD_CACHE = True
TOL = 1e-9


def _graph_counts(g: sf.DirectedGraph) -> dict[str, float]:
    return {"entropy.graph_vertices": float(len(g.vertices)), "entropy.graph_edges": float(len(g.edges))}


def _scale_op(base, n: int, base_h: float) -> Op:
    def run():
        return sf.perron_entropy(sf.scale_entropy_construction(base, n))

    def check(est) -> None:
        expect(abs(est.value - base_h / n) < TOL, f"scale by {n}: {est.value} != {base_h}/{n}")

    return Op("scale_perron", run, check, lambda _: _graph_counts(sf.scale_entropy_construction(base, n)))


def _word_count_op(x: sf.ForbiddenSetSFT, n: int, h: float) -> Op:
    def check(est) -> None:
        # log|B_n| / n is subadditive with limit h, so it never drops below h.
        expect(est.value >= h - TOL, f"word-count entropy {est.value} below the Perron value {h}")

    return Op("word_count", lambda: sf.entropy_word_count(x, n), check)


def _sofic_op(x: sf.ForbiddenSetSFT, h: float) -> Op:
    def check(est) -> None:
        expect(abs(est.value - h) < TOL, f"sofic entropy {est.value} != Perron entropy {h}")

    def count(_est) -> dict[str, float]:
        return {"presentations.states": float(len(sf.determinize(sf.sft_presentation(x)).graph.vertices))}

    return Op("sofic_entropy", lambda: sf.sofic_entropy(sf.sft_presentation(x)), check, count)


def _label_words(lg: sf.LabeledGraph, n: int) -> set[tuple[str, ...]]:
    """Label sequences of all paths with n edges, by brute force."""
    out = {e.src: [] for e in lg.graph.edges}
    for e in lg.graph.edges:
        out[e.src].append(e)
    layer = {(v, ()) for v in lg.graph.vertices}
    for _ in range(n):
        layer = {(e.dst, w + (lg.labels[e.eid],)) for v, w in layer for e in out.get(v, ())}
    return {w for _, w in layer}


def _presentation_op(kind: str, lg: sf.LabeledGraph) -> Op:
    fn = sf.determinize if kind == "determinize" else sf.minimal_right_resolving

    def check(result) -> None:
        expect(sf.is_right_resolving(result), f"{kind} result is not right-resolving")
        for n in range(1, 7):
            expect(_label_words(result, n) == _label_words(lg, n), f"{kind} changed the length-{n} words")

    return Op(kind, lambda: fn(lg), check, lambda r: {"presentations.states": float(len(r.graph.vertices))})


def _labeled_graph(k: int, extra: int, rng: random.Random) -> sf.LabeledGraph:
    """A strongly connected graph on k vertices: a Hamiltonian cycle plus
    `extra` random edges, with random labels a and b."""
    names = [str(i) for i in range(k)]
    arcs = [(names[i], names[(i + 1) % k], rng.choice("ab")) for i in range(k)]
    for _ in range(extra):
        arcs.append((rng.choice(names), rng.choice(names), rng.choice("ab")))
    return sf.labeled_graph(names, arcs)


def setup(seed: int) -> list[Op]:
    rng = random.Random(f"spectral/{seed}")
    # The bases, their expansions at every symbol, and two seeded word
    # contractions of each base.
    shifts = list(_bases())
    for base in _bases():
        shifts += [sf.symbol_expand(base, s)[0] for s in base.alphabet]
        for _ in range(2):
            pipe = build_pipeline(base, random_plan("WC2", rng))
            if not isinstance(pipe, Rejected):
                shifts.append(pipe.result)
    graphs = [sf.sft_to_edge_shift(sf.to_m_step(x))[0] for x in shifts]
    graphs = [g for g in graphs if 2 <= len(g.edges) <= 50]
    h_of = {id(x): sf.perron_entropy(x).value for x in shifts}
    h_graph = {id(g): sf.perron_entropy(g).value for g in graphs}
    h_one = {k: sf.perron_entropy([[k]]).value for k in (2, 3, 4)}

    # One-vertex bases are the same for every seed: they are the top of the
    # latency distribution, and their cost grows steeply with n.  About 20
    # of them cost more than the seeded operations, so p95 falls inside
    # this fixed ladder.
    ops: list[Op] = [_scale_op([[2]], 32, h_one[2])]
    ops += [_scale_op([[2]], n, h_one[2]) for n in range(12, 21)]
    ops += [_scale_op([[3]], n, h_one[3]) for n in range(12, 17)]
    ops += [_scale_op([[4]], n, h_one[4]) for n in range(9, 13)]
    ops += [_scale_op([[k]], n, h_one[k]) for k in (2, 3, 4) for n in range(2, 9)]
    # The seeded rest cycles through fixed sizes; the seed draws the shifts'
    # moves and the graphs' edges and labels.
    for g in graphs[:12]:
        # n keeps the scaled graph near 16 edges, well below the ladder.
        ops.append(_scale_op(g, max(1, min(8, 16 // len(g.edges))), h_graph[id(g)]))
    for k in range(40):
        x = shifts[k % len(shifts)]
        ops.append(_word_count_op(x, 8 + k % 33, h_of[id(x)]))
    # Counts balance the classes below and above the sofic-entropy
    # operations, so p50 falls in the middle of them.
    for k in range(80):
        x = shifts[k % len(shifts)]
        ops.append(_sofic_op(x, h_of[id(x)]))
    for kind, count in (("determinize", 40), ("minimal_right_resolving", 56)):
        ops += [_presentation_op(kind, _labeled_graph(3 + k % 3, 1 + k % 4, rng)) for k in range(count)]
    rng.shuffle(ops)
    return ops
