from __future__ import annotations

import math
import random

import pytest

from shiftflow import (
    DirectedGraph,
    InvalidInput,
    NonConvergenceError,
    ShiftSpaceError,
    entropy_word_count,
    from_adjacency,
    full_shift,
    labeled_graph,
    path_count,
    perron_entropy,
    scale_entropy_construction,
    sft,
    sft_to_edge_shift,
    sofic_entropy,
    symbol_expand,
    to_m_step,
)

from shiftflow.entropy import _power_iteration_rho
from shiftflow.presentations import _count_automaton, _sofic_word_counts

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
    """Perron roots equal the dense loop's float for float; path and
    sofic word counts equal the dense products exactly."""
    rng = random.Random(41)
    graphs = []
    for _ in range(40):
        n = rng.randint(1, 7)
        m = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][(i + 1) % n] = max(m[i][(i + 1) % n], rng.randint(1, 2))
        graphs.append(from_adjacency(m))
    assert any(k > 1 for g in graphs for row in g.adjacency_matrix() for k in row)
    for base in ([[2]], [[3]], [[1, 1], [1, 0]]):
        graphs += [scale_entropy_construction(base, n) for n in range(1, 13)]
    for g in graphs:
        assert g.is_strongly_connected()
        a = _dense(g)
        assert _power_iteration_rho(g.sparse_adjacency(), 1e-12, 100_000) == power_iteration_rho_dense(a, 1e-12, 100_000)
        for length in (0, 1, 2, 7):
            assert path_count(g, length) == path_count_dense(a, length)

    for _ in range(40):
        n = rng.randint(1, 6)
        arcs = [(i, (i + 1) % n, rng.choice("abc")) for i in range(n)]
        arcs += [(rng.randrange(n), rng.randrange(n), rng.choice("abc")) for _ in range(rng.randint(0, 2 * n))]
        lg = labeled_graph(range(n), arcs)
        aut, seed = _count_automaton(lg)
        expected = counts_from_dense(_dense(aut), aut.vertices.index(seed), 12)
        assert _sofic_word_counts(lg, 12) == expected
