"""The Perron power loop as gather passes against the per-row generator
loop it replaced (kept in `oracles`), its skipped bracket reads against
the loop that read every ratio, Perron roots of matrices read straight
from their entries, and the allocations of repeated presentation work."""

from __future__ import annotations

import gc
import math
import random
import re
import sys
import time

import pytest

from shiftflow import (
    NonConvergenceError,
    entropy_word_count,
    from_adjacency,
    labeled_graph,
    minimal_right_resolving,
    perron_entropy,
    scale_entropy_construction,
    sofic_entropy,
)
from shiftflow.cli import main
from shiftflow.entropy import _power_iteration_rho

from .oracles import power_iteration_rho_by_generators, power_iteration_rho_full_read


def _irreducible_matrices() -> list[list[list[int]]]:
    """420 seeded random matrices up to 9 x 9 with entries 0-3; a cycle
    through every index makes each one irreducible."""
    rng = random.Random(14)
    out = []
    for _ in range(420):
        n = rng.randint(1, 9)
        m = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            m[i][(i + 1) % n] = max(m[i][(i + 1) % n], rng.randint(1, 3))
        out.append(m)
    return out


def _graphs() -> list:
    """The matrices, the subdivisions of the first 30 with n = 2..6 (the
    oracle is slow on them), the one-vertex ladders of the `spectral`
    benchmark and the golden mean."""
    matrices = _irreducible_matrices()
    graphs = [from_adjacency(m) for m in matrices]
    graphs += [scale_entropy_construction(m, n) for m in matrices[:30] for n in range(2, 7)]
    for k, top in ((2, 32), (3, 16), (4, 12)):
        graphs += [scale_entropy_construction([[k]], n) for n in range(1, top + 1)]
    graphs.append(from_adjacency([[1, 1], [1, 0]]))
    return graphs


def test_gather_passes_match_the_generator_loop():
    """Identical floats on every graph; with tol 0 both loops give up
    after the same number of iterations."""
    graphs = _graphs()
    assert len(graphs) >= 600
    for g in graphs:
        assert g.is_strongly_connected()
        rows = g.sparse_adjacency()
        assert _power_iteration_rho(rows, 1e-12, 100_000) == power_iteration_rho_by_generators(rows, 1e-12, 100_000)
    gave_up = 0
    for g in graphs[::5]:
        rows = g.sparse_adjacency()
        for budget in range(1, 6):
            outcomes = []
            for fn in (_power_iteration_rho, power_iteration_rho_by_generators):
                try:
                    outcomes.append(fn(rows, 0.0, budget))
                except NonConvergenceError as exc:
                    outcomes.append((str(exc), exc.iterations))
            assert outcomes[0] == outcomes[1]
            gave_up += outcomes[0] == (f"power iteration did not settle within {budget} iterations", budget)
    assert gave_up > 500


def test_skipped_bracket_reads_keep_the_iteration_count():
    """On the `spectral` ladders and 50 matrices with multiplicities, the
    kernel stops at the iteration K where the loop that reads every ratio
    stops, with its float, and with a budget of K - 1 gives up with the
    same message and count."""
    ladders = [scale_entropy_construction([[k]], n) for k, top in ((2, 32), (3, 16), (4, 12)) for n in range(1, top + 1)]
    matrices = [m for m in _irreducible_matrices() if max(map(max, m)) > 1][:50]
    assert len(matrices) == 50
    for g in ladders + [from_adjacency(m) for m in matrices]:
        rows = g.sparse_adjacency()
        rho, k = power_iteration_rho_full_read(rows, 1e-12, 100_000)
        assert _power_iteration_rho(rows, 1e-12, k) == rho
        with pytest.raises(NonConvergenceError) as exc:
            _power_iteration_rho(rows, 1e-12, k - 1)
        assert (str(exc.value), exc.value.iterations) == (f"power iteration did not settle within {k - 1} iterations", k - 1)


def _underflowing_cycle(length: int) -> list[list[int]]:
    """A cycle through `length` indices with 1000 on the diagonal at 0: the
    Perron vector's entry at index i is about 1000^(i - length) times its
    entry at 0, for i from 1 on."""
    m = [[0] * length for _ in range(length)]
    m[0][0] = 1000
    for i in range(length):
        m[i][(i + 1) % length] = 1
    return m


def test_an_underflowing_perron_vector_raises_non_convergence():
    """At 121 indices the entry at 1 (about 1e-360) falls below the
    smallest float, and its ratio would divide by zero; at 50 the root is
    found."""
    assert abs(perron_entropy(_underflowing_cycle(50)).value - math.log2(1000)) < 1e-9
    with pytest.raises(NonConvergenceError, match="^power iteration underflowed after 120 iterations: ") as exc:
        perron_entropy(_underflowing_cycle(121))
    assert exc.value.iterations == 120


def test_perron_of_a_matrix_matches_the_unit_edge_graph():
    """Rows read straight from a matrix give the float its multigraph
    (one edge per unit of each entry) gives, reducible matrices too."""
    rng = random.Random(15)
    matrices = _irreducible_matrices()[:90]
    for _ in range(60):
        n = rng.randint(1, 7)
        matrices.append([[rng.choice((0, 0, 0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(n)])
    matrices += [[], [[0]], [[0, 1], [0, 0]]]
    for m in matrices:
        assert perron_entropy(m) == perron_entropy(from_adjacency(m))


@pytest.mark.parametrize(
    "bad",
    [[[1, 2]], [[1, 0], [0]], [[1, -1], [0, 1]], [[1, 0.5], [1, 1]], [[1, 1], [1, "1"]], [[-1], [1, 2]], [[True]]],
)
def test_perron_of_a_matrix_rejects_what_from_adjacency_rejects(bad):
    with pytest.raises(Exception) as expected:
        from_adjacency(bad)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        perron_entropy(bad)
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        entropy_word_count(bad, 3)


def test_perron_of_a_matrix_is_bounded_by_the_matrix_size(capsys):
    """The work is bounded by the matrix size, not by its entries: one
    edge per unit of each entry would take seconds at 10**6 and could not
    finish at 10**12."""
    start = time.perf_counter()
    est = perron_entropy([[10**12, 1], [1, 0]])
    assert time.perf_counter() - start < 1.0
    assert abs(est.value - math.log2(10**12)) < 1e-9
    start = time.perf_counter()
    assert main(["entropy", "[[1000000]]"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == '{"value":19.931568569324174,"method":"perron"}\n'


def _labeled_graph(k: int, extra: int, rng: random.Random):
    """A strongly connected graph on k vertices: a Hamiltonian cycle plus
    `extra` random edges, labeled a or b at random."""
    arcs = [(i, (i + 1) % k, rng.choice("ab")) for i in range(k)]
    arcs += [(rng.randrange(k), rng.randrange(k), rng.choice("ab")) for _ in range(extra)]
    return labeled_graph(range(k), arcs)


def test_presentation_rounds_do_not_grow_allocated_blocks():
    """Repeating the same work must not leave memory behind.  Tuples
    built from generators are resized after allocation and then fill
    CPython's per-size free lists when freed; with the collector off,
    that shows as growth of the allocated block count."""
    rng = random.Random(16)
    graphs = [_labeled_graph(3 + k % 3, 1 + k % 4, rng) for k in range(56)]

    def one_round() -> None:
        for lg in graphs:
            minimal_right_resolving(lg)
            sofic_entropy(lg)

    one_round()
    one_round()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(20):
            one_round()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 4_000
