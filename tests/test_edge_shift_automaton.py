"""The edge shift as an index automaton (`sft.EdgeShiftData`) against the
Word-based construction kept in `oracles`: sorted essential vertices,
moves and rows, and the graphs of `sft_to_edge_shift` and
`sft_presentation` with their edge ends, ids, words and labels.  Also
the suffix-table growth of admissible words, and clock-free counts of
the `DirectedGraph`s that library calls build and of the word lengths
they grow."""

from __future__ import annotations

import importlib
import random
from functools import cache

import pytest

from shiftflow import (
    DirectedGraph,
    PreconditionError,
    Word,
    boost_entropy_pipeline,
    contains_word,
    enumerate_language,
    full_shift,
    is_empty,
    is_irreducible,
    language_count,
    perron_entropy,
    recode,
    sft,
    sft_presentation,
    sft_to_edge_shift,
    simplify,
    symbol_contract,
    symbol_expand,
    word_contract,
)
from shiftflow.entropy import _full_pair_subshift_present
from shiftflow.sft import MAX_CANDIDATES, ForbiddenSetSFT, _admissible_words, _edge_shift

from .oracles import admissible_words_by_words, edge_shift_by_words

sft_module = importlib.import_module("shiftflow.sft")

SYMBOL_SETS = (("0",), ("0", "1"), ("0", "0.1"), ("a", "◇2", "b"), ("a", "b", "c"))


@cache
def _shifts() -> list[ForbiddenSetSFT]:
    """400 seeded SFTs over 1-3 symbols with forbidden words of length
    1-5, then full shifts (step 0), empty shifts and shifts whose edge
    shift loses vertices to the trim."""
    rng = random.Random(20261022)
    shifts = []
    for _ in range(400):
        symbols = rng.choice(SYMBOL_SETS)
        forbidden = [[rng.choice(symbols) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(0, 4))]
        shifts.append(sft(symbols, forbidden))
    shifts += [
        full_shift(["0"]),
        full_shift(["a", "b", "c"]),
        full_shift(["a", "◇2", "b"]),
        sft(["0", "1"], ["0", "1"]),
        sft(["0"], ["00"]),
        sft(["a", "b"], ["ab", "ba", "aa", "bb"]),
        # ◇3 only leads to ◇2, which leads nowhere: a two-round dead chain.
        sft(["a", "◇2", "◇3"], [["◇2", "a"], ["◇2", "◇2"], ["◇2", "◇3"], ["◇3", "a"],
                                ["◇3", "◇3"]]),
    ]
    return shifts


def test_edge_shift_automaton_matches_the_word_based_graph():
    """Admissible words of every length up to m + 2, the automaton, and
    the graphs of the graph outputs equal the oracle's; its rows equal
    the graph's `sparse_adjacency`, so Perron floats are the same."""
    steps, trimmed, empty = set(), 0, 0
    for x in _shifts():
        for n in range(x.step + 3):
            grown = admissible_words_by_words(x.alphabet, x.forbidden, n)
            assert _admissible_words(x.alphabet, x.forbidden, n) == grown, (x, n)
        _edge_shift.cache_clear()
        got, (want, graph, words) = _edge_shift(x), edge_shift_by_words(x)
        assert got == want, x
        assert all(type(v) is tuple for v in got.vertices)
        assert tuple(map(tuple, got.rows)) == graph.sparse_adjacency(), x
        got_graph, edge_words = sft_to_edge_shift(x)
        assert got_graph.vertices == graph.vertices
        assert all(type(v) is Word for v in got_graph.vertices)
        assert got_graph.edges == graph.edges
        assert edge_words == {e.eid: words[e.eid] for e in graph.edges}
        assert all(type(w) is Word for w in edge_words.values())
        lg = sft_presentation(x)
        assert lg.graph.vertices == graph.vertices and lg.graph.edges == graph.edges
        assert lg.labels == tuple(w[-1] for w in words)
        steps.add(x.step)
        trimmed += len(graph.edges) < len(words)
        empty += not got.vertices
    assert {0, 1, 2, 3, 4} <= steps
    assert trimmed > 10 and empty > 10, (trimmed, empty)


def test_admissible_words_refuse_the_same_candidate_count():
    x = sft("abc", ["c" * 13])
    want = f"words of length 13 have 1594323 candidates, above the limit {MAX_CANDIDATES}"
    with pytest.raises(PreconditionError, match=want):
        _admissible_words(x.alphabet, x.forbidden, 13)
    assert len(_admissible_words(x.alphabet, x.forbidden, 2)) == 9


def test_only_graph_outputs_build_a_directed_graph(monkeypatch):
    """Counted without a clock, each call from a cold edge-shift cache:
    moves, language reads and the boost precondition read the automaton
    and build no `DirectedGraph`, and they and the automaton ask
    `_admissible_words` for words of the step m only.  `sft_to_edge_shift`
    and `sft_presentation` build exactly one graph and grow the
    (m+1)-words once on each call, the automaton cached or not."""
    calls = [0]
    asked: list[tuple[int, int]] = []
    real, words = DirectedGraph.__post_init__, sft_module._admissible_words

    def counted(self):
        calls[0] += 1
        real(self)

    def spy(alphabet, forbidden, n):
        asked.append((max((len(w) for w in forbidden), default=1) - 1, n))
        return words(alphabet, forbidden, n)

    monkeypatch.setattr(DirectedGraph, "__post_init__", counted)
    monkeypatch.setattr(sft_module, "_admissible_words", spy)
    x = sft(["a", "b", "c"], ["ba", "bb", "ac", "cc", "aaa"])
    free = sft(["a", "b", "c"], ["ccc"])
    table = {u: "|".join(u) for u in enumerate_language(x, 3)}
    assert x.step == 2

    def built(fn, *args):
        _edge_shift.cache_clear()
        calls[0] = 0
        asked.clear()
        fn(*args)
        return calls[0]

    reads = [
        (word_contract, x, Word("ab")),
        (symbol_contract, x, "b", "c"),
        (recode, x, table, 3),
        (symbol_expand, x, "a"),
        (contains_word, x, Word("aabc" * 30)),
        (language_count, x, 9),
        (enumerate_language, x, 5),
        (simplify, x),
        (is_irreducible, x),
        (is_empty, x),
        (perron_entropy, x),
        (_full_pair_subshift_present, free, "a", "b", 6),
        (boost_entropy_pipeline, free, "a", "b", 1),
    ]
    grown = 0
    for fn, *args in reads:
        assert built(fn, *args) == 0, fn.__name__
        assert all(m == n for m, n in asked), (fn.__name__, asked)
        grown += len(asked)
    assert grown >= len(reads)
    for fn in (sft_to_edge_shift, sft_presentation):
        assert built(fn, x) == 1 and asked == [(2, 2), (2, 3)], fn.__name__
        calls[0] = 0
        asked.clear()
        fn(x)
        assert calls[0] == 1 and asked == [(2, 3)], fn.__name__
