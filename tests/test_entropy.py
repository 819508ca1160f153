from __future__ import annotations

import math
import random
from itertools import permutations, product

import pytest

from shiftflow import (
    DirectedGraph,
    EntropyEstimate,
    InvalidInput,
    NonConvergenceError,
    PreconditionError,
    ShiftSpaceError,
    Word,
    boost_entropy_construction,
    boost_entropy_pipeline,
    contains_word,
    determinize,
    entropy_word_count,
    from_adjacency,
    full_shift,
    labeled_graph,
    minimal_right_resolving,
    path_count,
    perron_entropy,
    scale_entropy_construction,
    sft,
    sft_to_edge_shift,
    sofic_entropy,
    symbol_expand,
    to_m_step,
)

from shiftflow.entropy import _full_pair_subshift_present, _power_iteration_rho
from shiftflow.presentations import _sofic_word_counts

from . import oracles
from .oracles import counts_from_dense, path_count_dense, power_iteration_rho_dense, spectral_radius_by_iteration

LOG2_PHI = math.log2((1 + math.sqrt(5)) / 2)
GOLDEN_MEAN = sft(["0", "1"], ["11"])


def _graph_of(x):
    g, _ = sft_to_edge_shift(to_m_step(x))
    return g


def test_perron_entropy_of_full_shifts():
    assert perron_entropy([[2]]).value == 1.0
    for r in range(2, 9):
        assert abs(perron_entropy([[r]]).value - math.log2(r)) < 1e-12


def test_perron_entropy_of_golden_mean_matrix():
    est = perron_entropy([[1, 1], [1, 0]])
    assert est.method == "perron"
    assert abs(est.value - LOG2_PHI) < 1e-9


def test_perron_accepts_sfts_graphs_and_matrices():
    from_matrix = perron_entropy([[1, 1], [1, 0]]).value
    from_sft = perron_entropy(GOLDEN_MEAN).value
    from_graph = perron_entropy(_graph_of(GOLDEN_MEAN)).value
    assert abs(from_matrix - from_sft) < 1e-12
    assert abs(from_matrix - from_graph) < 1e-12


def test_perron_matches_independent_rational_iteration():
    for m in ([[2]], [[1, 1], [1, 0]], [[2, 1], [1, 1]]):
        assert abs(perron_entropy(m).value - math.log2(spectral_radius_by_iteration(m))) < 1e-9


def test_perron_entropy_acyclic_graph_is_zero():
    est = perron_entropy([[0, 1], [0, 0]])
    assert est.value == 0.0


def test_word_count_estimate_on_golden_mean():
    est = entropy_word_count(GOLDEN_MEAN, 24)
    assert est.method == "word_count"
    assert est.n_used == 24
    assert abs(est.value - LOG2_PHI) < 0.05


def test_word_count_converges_from_above():
    target = perron_entropy(GOLDEN_MEAN).value
    vals = [entropy_word_count(GOLDEN_MEAN, n).value for n in (8, 16, 24)]
    assert vals[0] >= vals[1] >= vals[2] >= target - 1e-12


def test_word_count_exact_and_flat_on_full_shifts():
    for r in (2, 3):
        x = full_shift([str(i) for i in range(r)])
        vals = [entropy_word_count(x, n).value for n in (8, 16, 24)]
        assert all(abs(v - math.log2(r)) < 1e-12 for v in vals)


def test_word_count_flags_empty_shift():
    est = entropy_word_count(sft(["0", "1"], ["0", "1"]), 4)
    assert est.empty
    assert est.value == 0.0


def test_word_count_rejects_nonpositive_n():
    with pytest.raises(InvalidInput):
        entropy_word_count(GOLDEN_MEAN, 0)


def test_scale_entropy_divides_by_n():
    for n in range(2, 7):
        g = scale_entropy_construction([[2]], n)
        assert abs(perron_entropy(g).value - 1.0 / n) < 1e-9


def test_scale_entropy_on_golden_mean():
    base = perron_entropy(GOLDEN_MEAN).value
    for n in (2, 3, 4):
        g = scale_entropy_construction(_graph_of(GOLDEN_MEAN), n)
        assert abs(perron_entropy(g).value - base / n) < 1e-9


def test_scale_names_dodge_the_vertices_already_taken():
    """A path vertex whose name `e<id>.<i>` is taken gets `+` prepended
    until it is free."""
    g = DirectedGraph.build(["e0.1", "+e0.1"], [("e0.1", "+e0.1"), ("+e0.1", "e0.1")])
    got = scale_entropy_construction(g, 3)
    assert got.vertices == ("e0.1", "+e0.1", "++e0.1", "e0.2", "e1.1", "e1.2")
    assert [(e.src, e.dst) for e in got.edges] == [
        ("e0.1", "++e0.1"), ("++e0.1", "e0.2"), ("e0.2", "+e0.1"),
        ("+e0.1", "e1.1"), ("e1.1", "e1.2"), ("e1.2", "e0.1"),
    ]


def test_scale_by_one_is_identity():
    g = _graph_of(GOLDEN_MEAN)
    assert scale_entropy_construction(g, 1) is g


def test_sofic_entropy_counts_labels_not_paths():
    # two parallel paths read the same period-2 label stream: the sofic
    # shift is a single orbit (entropy 0) even though raw path counting
    # on the graph would report sqrt(2) growth
    lg = labeled_graph(
        ["u", "v", "w"],
        [("u", "v", "0"), ("u", "w", "0"), ("v", "u", "1"), ("w", "u", "1")],
    )
    assert sofic_entropy(lg).value == 0.0
    assert abs(perron_entropy(lg.graph).value - 0.5) < 1e-9


def test_sofic_entropy_of_the_empty_presentation_is_that_of_perron():
    """No vertices: entropy 0, as `perron_entropy` gives and as the empty
    word count says; determinize and minimize still refuse it."""
    lg = labeled_graph([], [])
    assert sofic_entropy(lg) == perron_entropy(lg) == EntropyEstimate(0.0, "perron")
    assert entropy_word_count(lg, 3) == EntropyEstimate(0.0, "word_count", 3, empty=True)
    for f in (determinize, minimal_right_resolving):
        with pytest.raises(PreconditionError, match="empty presentation"):
            f(lg)


def test_one_block_factor_and_embedding_monotonicity():
    """Embeddings cannot raise entropy past the ambient shift; 1-block
    factors cannot exceed the domain."""
    pairs = [
        (GOLDEN_MEAN, full_shift(["0", "1"])),
        (sft(["0", "1"], ["11", "000"]), full_shift(["0", "1"])),
        (sft(["0", "1"], ["11", "000"]), sft(["0", "1"], ["11"])),
    ]
    for sub, ambient in pairs:
        assert perron_entropy(sub).value <= perron_entropy(ambient).value + 1e-12

    # factor of the full 3-shift under the 1-block merge 2 -> 1
    dom = full_shift(["0", "1", "2"])
    img = full_shift(["0", "1"])
    assert perron_entropy(img).value <= perron_entropy(dom).value + 1e-12


def test_expansion_sandwich_on_random_sfts():
    """h(X) >= h(expanded) >= h(X)/2, and zero entropy is preserved."""
    rng = random.Random(13)
    done = 0
    while done < 20:
        symbols = ["0", "1"] if rng.random() < 0.6 else ["0", "1", "2"]
        forbidden = sorted({
            "".join(rng.choice(symbols) for _ in range(rng.randint(2, 3)))
            for _ in range(rng.randint(0, 3))
        })
        x = sft(symbols, forbidden)
        a = rng.choice(symbols)
        try:
            y, _ = symbol_expand(x, a)
        except ShiftSpaceError as exc:
            if "empty" in str(exc):
                continue
            raise
        hx = perron_entropy(x).value
        hy = perron_entropy(y).value
        assert hx + 1e-9 >= hy >= hx / 2 - 1e-9, (forbidden, a, hx, hy)
        assert (hx == 0.0) == (hy == 0.0)
        done += 1


def test_power_iteration_budget_is_enforced():
    with pytest.raises(NonConvergenceError) as exc:
        perron_entropy([[1, 1], [1, 0]], tol=0.0, max_iterations=3)
    assert exc.value.iterations == 3


def test_perron_is_exact_on_subdivided_graphs():
    """The eigenvalue estimate plateaus on this graph; the bracket
    criterion must push through to sqrt(phi)."""
    import math

    g = scale_entropy_construction([[1, 1], [1, 0]], 2)
    expect = math.log2((1 + math.sqrt(5)) / 2) / 2
    assert abs(perron_entropy(g).value - expect) < 1e-9


def _dense(g: DirectedGraph) -> list[list[int]]:
    return [list(row) for row in g.adjacency_matrix()]


def test_sparse_graph_core_matches_dense_oracles():
    """Components equal the vertex-keyed Tarjan's, vertex and edge tuples
    alike; Perron roots equal the dense loop's float for float, per
    component, and a matrix gives the float its `from_adjacency` graph
    gives; path and sofic word counts equal the dense products exactly.
    Reducible graphs, isolated vertices, self-loops, shuffled vertex
    orders, the empty graph and matrix inputs included."""
    rng = random.Random(41)
    matrices = []
    for _ in range(40):
        n = rng.randint(1, 7)
        m = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][(i + 1) % n] = max(m[i][(i + 1) % n], rng.randint(1, 2))
        matrices.append(m)
    for _ in range(60):
        n = rng.randint(1, 8)
        matrices.append([[rng.choice((0, 0, 0, 0, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
    matrices += [[], [[0]], [[1]], [[0, 1], [0, 0]], [[1, 0], [0, 0]], [[0, 0, 0], [0, 2, 0], [1, 0, 0]]]
    graphs = [from_adjacency(m) for m in matrices]
    for _ in range(40):
        vertices = rng.sample("abcdefgh", rng.randint(1, 8))
        arcs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 12))]
        graphs.append(DirectedGraph.build(vertices, arcs))
    graphs.append(DirectedGraph((), ()))
    for base in ([[2]], [[3]], [[1, 1], [1, 0]]):
        graphs += [scale_entropy_construction(base, n) for n in range(1, 13)]
    assert any(k > 1 for m in matrices for row in m for k in row)
    connected = [g.is_strongly_connected() for g in graphs]
    assert 100 < sum(connected) < len(graphs) - 60
    assert any(any(not g.out_edges(v) for v in g.vertices) for g in graphs)
    assert any(e.src == e.dst for g in graphs if not g.is_strongly_connected() for e in g.edges)
    for g, strongly in zip(graphs, connected):
        expected = oracles.components_by_vertex(g)
        got = g.strongly_connected_components()
        assert [(c.vertices, c.edges) for c in got] == [(c.vertices, c.edges) for c in expected]
        assert strongly == oracles.is_strongly_connected_by_vertex(g)
        a = _dense(g)
        if strongly:
            assert _power_iteration_rho(g.sparse_adjacency(), 1e-12, 100_000) == power_iteration_rho_dense(a, 1e-12, 100_000)
        rho = max([1.0] + [power_iteration_rho_dense(_dense(c), 1e-12, 100_000) for c in expected])
        assert perron_entropy(g).value == (math.log2(rho) if rho > 1.0 else 0.0)
        for length in (0, 1, 2, 7):
            assert path_count(g, length) == path_count_dense(a, length)
    for m in matrices:
        assert perron_entropy(m) == perron_entropy(from_adjacency(m))
        for n in (1, 3):
            assert entropy_word_count(m, n) == entropy_word_count(from_adjacency(m), n)

    for k in range(80):
        n = rng.randint(1, 6)
        arcs = [(i, (i + 1) % n, rng.choice("abc")) for i in range(n)] if k % 2 else []
        arcs += [(rng.randrange(n), rng.randrange(n), rng.choice("abc")) for _ in range(rng.randint(0, 2 * n))]
        lg = labeled_graph(range(n), arcs)
        delta, seed = oracles._seed_automaton(arcs)
        states = {s: i for i, s in enumerate(delta)}
        aut = [[0] * len(states) for _ in states]
        for s, row in delta.items():
            for t in row.values():
                aut[states[s]][states[t]] += 1
        expected = counts_from_dense(aut, states[seed], 12) if seed else [0] * 12
        assert _sofic_word_counts(lg, 12) == expected


def test_matrix_entropy_builds_no_graph(monkeypatch):
    """Perron roots and word counts of a matrix are read from its entries,
    never from a multigraph with one edge per unit of each entry."""
    built = []
    post_init = DirectedGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DirectedGraph, "__post_init__", counting)
    a = [[3, 1, 0], [0, 0, 2], [1, 1, 0]]
    perron_entropy(a)
    perron_entropy([[2, 1], [0, 1]])
    entropy_word_count(a, 4)
    assert not built
    perron_entropy(from_adjacency(a))
    assert built  # the counter does see graphs being built


def test_boost_precondition_on_words_shorter_than_the_step():
    """Target 1 needs every {a, b}-word of length 6; with c^8 forbidden
    the step is 7, and no forbidden word is an {a, b}-word, so the
    precondition holds from the forbidden set alone.  `cc` is forbidden
    too: it leaves the step and the {a, b}-words as they are and keeps
    the two contractions on the step-7 edge shift near 1 s."""
    x = sft(["a", "b", "c"], ["cc", "c" * 8])
    assert x.step == 7
    assert all(contains_word(x, Word(p)) for p in product("ab", repeat=6))
    pipe = boost_entropy_pipeline(x, "a", "b", 1)
    assert [mv.word for mv in pipe.moves] == [Word("baa"), Word("ba")]
    y = sft(["a", "b", "c"], ["cc", "c" * 8, "ab"])
    assert y.step == 7
    assert not all(contains_word(y, Word(p)) for p in product("ab", repeat=6))
    with pytest.raises(InvalidInput, match="not every"):
        boost_entropy_pipeline(y, "a", "b", 1)


def test_boost_construction_is_the_pipeline_result():
    x = full_shift(["a", "b"])
    assert boost_entropy_construction(x, "a", "b", 1) == boost_entropy_pipeline(x, "a", "b", 1).result


def test_boost_precondition_reads_the_automaton():
    """The free-pair precondition reads the forbidden set, and the
    language only when every forbidden {a, b}-word is longer than the
    length, and answers as the path count on a subgraph of the edge shift
    did: 250 seeded SFTs over 2-4 symbols, every ordered pair of symbols,
    lengths 1-10, below and above the step."""
    rng = random.Random(20261019)
    symbol_sets = (("a", "b"), ("a", "◇2", "b"), ("a", "b", "c"), ("a", "b", "c", "d"))
    verdicts = []
    for _ in range(250):
        symbols = rng.choice(symbol_sets)
        forbidden = [[rng.choice(symbols) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(0, 3))]
        x = sft(symbols, forbidden)
        for a, b in permutations(symbols, 2):
            for length in range(1, 11):
                verdict = _full_pair_subshift_present(x, a, b, length)
                assert verdict == oracles._full_pair_subshift_present(x, a, b, length), (x, a, b, length)
                verdicts.append((verdict, length > x.step))
    assert all(verdicts.count((v, above)) > 500 for v in (True, False) for above in (True, False))
