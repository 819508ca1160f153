"""One-pass language reads against the bodies they replaced (kept in
`oracles`): membership walked through the edge shift's automaton, short
words from vertex prefixes, and path counts as gather passes over index
rows.  Also the bound on `enumerate_language` and the cached step."""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import time
from functools import cache
from itertools import islice, product

import pytest

from shiftflow import (
    PreconditionError,
    Word,
    contains_word,
    enumerate_language,
    full_shift,
    is_empty,
    language_count,
    sft,
    sft_to_edge_shift,
)
from shiftflow.cli import main
from shiftflow.graphs import _adjacency_rows, _gather, _index_rows, _walks
from shiftflow.sft import MAX_CANDIDATES, EdgeShiftData, ForbiddenSetSFT, _edge_shift, _short_words

from .oracles import contains_word_by_windows, edge_shift_by_words, short_words_by_windows, walks_by_generators

sft_module = importlib.import_module("shiftflow.sft")

SYMBOL_SETS = (("0",), ("0", "1"), ("0", "0.1"), ("a", "◇2", "b"), ("a", "b", "c"))
FOREIGN = ("z", "◇9")


@cache
def _shifts() -> list[ForbiddenSetSFT]:
    """400 seeded SFTs over 1-3 symbols, then step-0 shifts and empty ones."""
    rng = random.Random(20261020)
    shifts = []
    for _ in range(400):
        symbols = rng.choice(SYMBOL_SETS)
        forbidden = [[rng.choice(symbols) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 3))]
        shifts.append(sft(symbols, forbidden))
    shifts += [
        full_shift(["0"]),
        full_shift(["a", "◇2", "b"]),
        sft(["0", "0.1"], [["0.1"]]),
        sft(["0", "1"], ["0", "1"]),
        sft(["0"], ["00"]),
        sft(["a", "b"], ["ab", "ba", "aa", "bb"]),
    ]
    return shifts


def _walk(x: ForbiddenSetSFT, length: int, rng: random.Random) -> Word:
    """A word of the language read off a random path of the edge shift."""
    graph, edge_words = sft_to_edge_shift(x)
    v = rng.choice(graph.vertices)
    symbols = list(v)
    while len(symbols) < length:
        e = rng.choice(graph.out_edges(v))
        symbols.append(edge_words[e.eid][-1])
        v = e.dst
    return Word(symbols[:length])


def _words(x: ForbiddenSetSFT, rng: random.Random) -> list[Word]:
    """Every word of length 0 .. m + 1 over the alphabet when there are few,
    walks of length 1 .. m + 1 and 1,000, one-symbol flips of the walks,
    and the walks with a foreign symbol put in."""
    m, symbols = x.step, x.alphabet.symbols
    out = []
    for n in range(m + 2):
        if len(symbols) ** n <= 256:
            out += [Word(w) for w in product(symbols, repeat=n)]
    walks = [] if is_empty(x) else [_walk(x, n, rng) for n in [*range(1, m + 2), 1000]]
    for w in walks:
        i = rng.randrange(len(w))
        out += [
            w,
            Word([*w[:i], rng.choice(symbols), *w[i + 1 :]]),
            Word([*w[:i], rng.choice(FOREIGN), *w[i:]]),
        ]
    return out


def test_membership_matches_the_window_oracle():
    rng = random.Random(7)
    shifts = _shifts()
    steps, answers, longest = set(), {True: 0, False: 0}, 0
    for x in shifts:
        steps.add(x.step)
        for w in _words(x, rng):
            got = contains_word(x, w)
            assert got == contains_word_by_windows(x, w), (x, w)
            answers[got] += 1
            longest = max(longest, len(w))
    assert {0, 1, 2, 3} <= steps
    assert min(answers.values()) > 1000
    assert longest == 1001
    assert any(is_empty(x) for x in shifts)


def test_short_words_and_counts_match_the_oracles():
    for x in _shifts():
        data = _edge_shift(x)
        for n in range(1, x.step + 1):
            assert _short_words(data, n) == short_words_by_windows(data, n)
            assert language_count(x, n) == len(short_words_by_windows(data, n))
        rows = sft_to_edge_shift(x)[0].sparse_adjacency()
        for k, (got, want) in enumerate(zip(_walks(_gather(rows)), islice(walks_by_generators(rows), 13))):
            assert got == want
            if k:
                assert language_count(x, x.step + k) == sum(want)


def test_walks_match_the_generator_oracle_on_matrices():
    rng = random.Random(11)
    # One term, of multiplicity 1 and above, no term, and a row with none.
    matrices = [[[10**12, 1], [1, 0]], [[0]], [], [[1]], [[5]], [[2, 1, 0], [0, 0, 0], [1, 3, 1]]]
    for _ in range(300):
        n = rng.randint(1, 6)
        matrices.append([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
    for a in matrices:
        rows = _adjacency_rows(a)
        got = list(islice(_walks(_gather(rows)), 13))
        assert got == list(islice(walks_by_generators(rows), 13))
        assert all(type(v) is int for vec in got for v in vec)
    fib = list(islice(_walks(_gather(_adjacency_rows([[10**12, 1], [1, 0]]))), 3))
    assert fib[2] == [10**24 + 10**12 + 1, 10**12 + 1]


def test_edge_shift_data_equality_reads_vertices_and_delta():
    """The automaton's only fields are its vertices and `delta`.  Equality
    reads both, not the `index` and `gather` derived from them on first
    use; the hash reads the vertices."""
    assert [f.name for f in dataclasses.fields(EdgeShiftData)] == ["vertices", "delta"]
    x = sft(["a", "b", "c"], ["cc", "aba"])
    _edge_shift.cache_clear()
    data, (want, graph, _) = _edge_shift(x), edge_shift_by_words(x)
    assert data == want and hash(data) == hash(want)
    index, rows = data.index, _index_rows(data.delta)
    assert "index" in vars(data) and "index" not in vars(want)
    assert data == want and hash(data) == hash(want)
    assert "gather" not in vars(data)
    assert language_count(x, x.step + 8) == sum(next(islice(walks_by_generators(rows), 8, None)))
    assert "gather" in vars(data) and "gather" not in vars(want)
    assert data == want and hash(data) == hash(want)
    assert len(index) == len(data.delta) == len(rows) == len(graph.vertices)
    assert sum(map(len, data.delta)) == len(graph.edges)
    other = sft(["a", "b", "c"], ["cc", "abb"])
    assert _edge_shift(other).vertices == data.vertices and _edge_shift(other) != data


def test_step_is_computed_once_and_leaves_equality_alone():
    x, y = sft("01", ["11", "101"]), sft("01", ["101", "11"])
    assert x.step == 2
    assert "step" in vars(x) and "step" not in vars(y)
    assert x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_long_word_membership_takes_no_windows(monkeypatch):
    """Counted without a clock: membership of a word longer than the step
    builds no window tuples.  The window-hashing body made one `_windows`
    call per word, which yields one tuple per window."""
    x = sft(["a", "b", "c"], ["ba", "bb", "ac", "cc", "aaa"])
    assert x.step == 2
    word = Word("aabc" * 30)
    assert contains_word_by_windows(x, word)
    calls = [0]
    real = sft_module._windows

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(sft_module, "_windows", counted)
    assert contains_word(x, word)
    assert not contains_word(x, Word("aabc" * 30 + "c"))
    assert calls[0] == 0


def test_enumeration_past_the_limit_raises_before_growing_words():
    with pytest.raises(PreconditionError, match=f"words of length 30 number at least 2097152, above the limit {MAX_CANDIDATES}"):
        enumerate_language(full_shift(["a", "b"]), 30)
    # The bound |V| d^(n - m) = 2 * 2^39 is above the limit, the exact count 41 is not.
    assert enumerate_language(sft("01", ["10"]), 40)[-1] == Word("1" * 40)


FULL2 = json.dumps({"alphabet": ["a", "b"], "forbidden": []})


@pytest.mark.parametrize("n", [30, 40])
def test_language_enum_past_the_word_limit_exits_2_at_once(capsys, n):
    """The full 2-shift has 2^n words of length n; before the limit the
    enumeration listed all of them."""
    start = time.perf_counter()
    code = main(["language", "enum", "--n", str(n), FULL2])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: words of length {n} number at least 2097152, above the limit 1048576\n"
