from __future__ import annotations

import random
import time

import pytest

from shiftflow import (
    DirectedGraph,
    InvalidInput,
    essentialize,
    from_adjacency,
    full_shift,
    language_count,
    path_count,
    scc_decompose,
    sft,
    sft_to_edge_shift,
    to_m_step,
)
from shiftflow.graphs import _essential
from shiftflow.presentations import LabeledGraph

from . import oracles


def _random_graph(rng: random.Random, n: int, p: float) -> DirectedGraph:
    names = [f"v{i}" for i in range(n)]
    arcs = [(a, b) for a in names for b in names if rng.random() < p]
    return DirectedGraph.build(names, arcs)


def test_essentialize_removes_stranded_vertices():
    g = DirectedGraph.build(["a", "b", "c"], [("a", "a"), ("a", "b")])
    e = essentialize(g)
    assert [v for v in e.vertices] == ["a"]
    assert len(e.edges) == 1


def test_essentialize_idempotent_on_random_graphs():
    rng = random.Random(11)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 7), 0.3)
        once = essentialize(g)
        twice = essentialize(once)
        assert set(once.vertices) == set(twice.vertices)
        assert len(once.edges) == len(twice.edges)


def test_essentialize_order_independent():
    """Kill order cannot matter: compare against a one-at-a-time removal
    loop driven in randomized vertex order."""
    rng = random.Random(23)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(2, 6), 0.35)
        expect = set(essentialize(g).vertices)

        alive = set(g.vertices)
        changed = True
        while changed:
            changed = False
            order = sorted(alive, key=lambda v: rng.random())
            for v in order:
                outs = any(e.dst in alive for e in g.out_edges(v))
                ins = any(e.src in alive for e in g.edges if e.dst == v)
                if not (outs and ins):
                    alive.discard(v)
                    changed = True
        assert alive == expect


def test_scc_decompose_keeps_only_cyclic_parts():
    g = DirectedGraph.build(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d"), ("d", "d")],
    )
    comps = scc_decompose(g)
    vertex_sets = sorted(sorted(c.vertices) for c in comps)
    assert vertex_sets == [["a", "b"], ["d"]]


def test_from_adjacency_builds_parallel_edges():
    g = from_adjacency([[2, 1], [0, 1]])
    assert len(g.vertices) == 2
    assert len(g.edges) == 4


def test_from_adjacency_rejects_negative_entries():
    with pytest.raises(InvalidInput):
        from_adjacency([[1, -1], [0, 1]])


def test_adjacency_roundtrip():
    m = [[2, 1], [1, 0]]
    got = from_adjacency(m).adjacency_matrix()
    assert [list(row) for row in got] == m


def test_path_count_matches_language_count_with_index_shift():
    """Edge paths of length n correspond to words of length n + step."""
    for forbidden in (["11"], ["11", "000"], []):
        x = to_m_step(sft(["0", "1"], forbidden))
        g, _ = sft_to_edge_shift(x)
        for n in range(1, 7):
            assert path_count(g, n) == language_count(x, n + x.step)


def test_sparse_adjacency_is_built_once_per_graph():
    g, _ = sft_to_edge_shift(sft(["a", "b", "c"], ["cc", "aba"]))
    rows = g.sparse_adjacency()
    assert rows is g.sparse_adjacency()
    assert rows == tuple(tuple((j, k) for j, k in enumerate(row) if k) for row in g.adjacency_matrix())


def test_path_count_on_full_shift_is_power():
    g, _ = sft_to_edge_shift(full_shift(["a", "b", "c"]))
    assert path_count(g, 5) == 3**5


def test_strong_connectivity_flag():
    cyc = DirectedGraph.build(["a", "b"], [("a", "b"), ("b", "a")])
    assert cyc.is_strongly_connected()
    line = DirectedGraph.build(["a", "b"], [("a", "b")])
    assert not line.is_strongly_connected()


def _trim_case(seed: int) -> DirectedGraph:
    """A seeded multigraph on 0 to 9 vertices: random edges, with loops
    and parallel edges, and on odd seeds a dead chain feeding into it or
    fed from it."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(0, 9))]
    arcs = [(rng.choice(names), rng.choice(names)) for _ in range(rng.randint(0, 2 * len(names)))] if names else []
    if seed % 2 and names:
        chain = [f"d{i}" for i in range(rng.randint(1, 4))]
        ends = [rng.choice(names), *chain] if rng.random() < 0.5 else [*chain, rng.choice(names)]
        arcs += list(zip(ends, ends[1:]))
        names += chain
    rng.shuffle(names)
    return DirectedGraph.build(names, arcs)


def test_queue_trim_matches_the_rescanning_trim():
    """The queue trim keeps the vertices, edges and ids the trim that
    recounted every edge in each round kept, on 2,000 seeded graphs, the
    empty graph among them; so do `_essential` on edge lists and the
    labeled trim."""
    kinds = {"empty": 0, "trimmed": 0, "whole": 0, "parallel": 0, "loop": 0}
    for seed in range(2000):
        g = _trim_case(seed)
        want = oracles.essential_part_by_rescanning(g)
        got = g.essential_part()
        assert (got.vertices, got.edges) == (want.vertices, want.edges), seed
        at = {v: i for i, v in enumerate(g.vertices)}
        src, dst = [at[e.src] for e in g.edges], [at[e.dst] for e in g.edges]
        assert _essential(len(at), src, dst) == [at[v] for v in want.vertices]
        labels = tuple(f"l{e.eid}" for e in g.edges)
        assert LabeledGraph(g, labels).essential_part() == LabeledGraph(want, labels)
        kinds["empty"] += not g.vertices
        kinds["trimmed" if len(want.vertices) < len(g.vertices) else "whole"] += 1
        pairs = [(e.src, e.dst) for e in g.edges]
        kinds["parallel"] += len(set(pairs)) < len(pairs)
        kinds["loop"] += any(s == d for s, d in pairs)
    assert min(kinds.values()) > 100, kinds


def test_essential_part_of_a_long_dead_chain_within_budget():
    """A 20,000-vertex dead chain feeding a 2-cycle: the trim that
    recounted every edge in each round needed 20,000 rounds (0.76 s at
    2,000 vertices, quadratic); the queue trim touches each edge once,
    32 ms on a 2-core VM, so 0.5 s leaves room for a slow host."""
    names = [f"d{i}" for i in range(20_000)] + ["c0", "c1"]
    g = DirectedGraph.build(names, list(zip(names, names[1:])) + [("c1", "c0")])
    start = time.perf_counter()
    ess = g.essential_part()
    elapsed = time.perf_counter() - start
    assert ess.vertices == ("c0", "c1")
    assert [e.eid for e in ess.edges] == [20_000, 20_001]
    assert elapsed < 0.5, elapsed
