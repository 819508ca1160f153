"""The edge shift as an index automaton (`sft.EdgeShiftData`) against the
Word-based construction kept in `oracles`: words, sorted essential
vertices, rows, and the `graph` and `edge_words` views with their edge
ends and ids.  Also the suffix-table growth of admissible words, and a
clock-free count of the `DirectedGraph`s that library calls build."""

from __future__ import annotations

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
    """Admissible words of every length up to m + 2, and the automaton
    with its views, equal the oracle's; its rows equal the graph's
    `sparse_adjacency`, so Perron floats are the same."""
    steps, trimmed, empty = set(), 0, 0
    for x in _shifts():
        for n in range(x.step + 3):
            grown = admissible_words_by_words(x.alphabet, x.forbidden, n)
            assert _admissible_words(x.alphabet, x.forbidden, n) == grown, (x, n)
        _edge_shift.cache_clear()
        got, want = _edge_shift(x), edge_shift_by_words(x)
        assert got == want, x
        assert got.delta == want.delta, x
        assert all(type(w) is tuple for w in got.words + got.vertices)
        assert tuple(map(tuple, got.rows)) == got.graph.sparse_adjacency() == want.graph.sparse_adjacency(), x
        assert got.graph.vertices == want.graph.vertices
        assert all(type(v) is Word for v in got.graph.vertices)
        assert got.graph.edges == want.graph.edges
        assert got.edge_words == want.edge_words
        assert all(type(w) is Word for w in got.edge_words)
        labels = {e.eid: want.edge_words[e.eid] for e in want.graph.edges}
        assert sft_to_edge_shift(x) == (want.graph, labels)
        steps.add(x.step)
        trimmed += len(want.graph.edges) < len(want.edge_words)
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
    and build no `DirectedGraph`; `sft_to_edge_shift` builds exactly one,
    and keeps it for the next call."""
    calls = [0]
    real = DirectedGraph.__post_init__

    def counted(self):
        calls[0] += 1
        real(self)

    monkeypatch.setattr(DirectedGraph, "__post_init__", counted)
    x = sft(["a", "b", "c"], ["ba", "bb", "ac", "cc", "aaa"])
    free = sft(["a", "b", "c"], ["ccc"])
    table = {u: "|".join(u) for u in enumerate_language(x, 3)}
    assert x.step == 2

    def built(fn, *args):
        _edge_shift.cache_clear()
        calls[0] = 0
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
    for fn, *args in reads:
        assert built(fn, *args) == 0, fn.__name__
    assert built(sft_to_edge_shift, x) == 1
    assert built(sft_presentation, x) == 1
    calls[0] = 0
    sft_to_edge_shift(x)
    sft_presentation(x)
    assert calls[0] == 0
