"""The finite-word paths on plain tuples against the Word-based bodies
they replaced (kept in `oracles`): move images, membership and block
maps give equal results, always as `Word`s, and raise the same
`PartialBlockMapError` with the same window."""

from __future__ import annotations

import importlib
import random

from shiftflow import (
    MovePipeline,
    PartialBlockMapError,
    PreconditionError,
    Word,
    apply_block_map,
    contains_word,
    enumerate_language,
    language_count,
    pipeline_apply_word,
    sft,
    sft_to_edge_shift,
)
from shiftflow import moves, words

from .oracles import (
    apply_block_map_by_factors,
    contains_word_by_factors,
    move_word_by_slices,
)

SYMBOL_SETS = (("0", "1"), ("0", "0.1"), ("a", "◇2", "b"))
LENGTHS = (1, 2, 3, 5, 10, 100, 1000, 10_000)


def _walk(x, length: int, rng: random.Random) -> Word:
    """A random word of the language of x: a walk on its edge shift."""
    graph, edge_words = sft_to_edge_shift(x)
    out: dict = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.src].append(e)
    edge = rng.choice(graph.edges)
    symbols = list(edge_words[edge.eid])
    while len(symbols) < length:
        edge = rng.choice(out[edge.dst])
        symbols.append(edge_words[edge.eid][-1])
    return Word(symbols[:length])


def _block_table(x, window: int) -> dict[Word, str]:
    """An invertible recode: each occurring block becomes one symbol
    naming it, so its first symbol is read back from one image symbol."""
    return {u: "|".join(u) for u in enumerate_language(x, window)}


def _random_pipeline(rng: random.Random) -> MovePipeline:
    """Two to four moves of every kind from a small random base; a move
    whose precondition fails is skipped."""
    symbols = rng.choice(SYMBOL_SETS)
    forbidden = [[rng.choice(symbols) for _ in range(rng.randint(2, 3))] for _ in range(rng.randint(0, 2))]
    pipe = MovePipeline.start(sft(symbols, forbidden))
    for _ in range(rng.randint(2, 4)):
        x = pipe.result
        if language_count(x, 2) == 0:
            break
        live = sorted({s for u in enumerate_language(x, 1) for s in u})
        kind = rng.choice(("expand", "contract", "word", "recode"))
        try:
            if kind == "expand":
                pipe = pipe.expand(rng.choice(live))
            elif kind == "contract":
                pairs = [(a, r) for a in live for r in live if a != r]
                rng.shuffle(pairs)
                for a, r in pairs:
                    try:
                        pipe = pipe.contract(a, r)
                        break
                    except PreconditionError:
                        continue
            elif kind == "word" and x.step <= 2:
                pipe = pipe.word_contract(rng.choice(enumerate_language(x, 2)))
            elif kind == "recode" and x.step <= 3:
                window = rng.randint(1, 2)
                pipe = pipe.recode(_block_table(x, window), window)
        except PreconditionError:
            continue
    return pipe


def _reference_apply_word(pipe: MovePipeline, v: Word) -> Word:
    if not contains_word_by_factors(pipe.source, v):
        raise PreconditionError(f"{v!r} is not in the source language")
    for mv in pipe.moves:
        v = move_word_by_slices(mv, v)
    return v


def _outcome(f, *args):
    """(result, None) or (None, (message, window)) of a PartialBlockMapError."""
    try:
        result = f(*args)
    except PartialBlockMapError as exc:
        return None, (str(exc), exc.window)
    assert type(result) is Word
    return result, None


def test_pipelines_match_the_word_based_reference():
    rng = random.Random(20261018)
    kinds: set[str] = set()
    refused = 0
    for _ in range(60):
        pipe = _random_pipeline(rng)
        kinds |= {type(mv).__name__ for mv in pipe.moves}
        if language_count(pipe.source, 2) == 0:
            continue
        for n in LENGTHS[: rng.randint(4, len(LENGTHS))]:
            v = _walk(pipe.source, n, rng)
            got = _outcome(pipeline_apply_word, pipe, v)
            assert got == _outcome(_reference_apply_word, pipe, v), (pipe.moves, n)
            refused += got[1] is not None
            for mv in pipe.moves:
                step = _outcome(moves._move_word, mv, v)
                assert step == _outcome(move_word_by_slices, mv, v), (mv, n)
                if step[0] is None:
                    break
                v = step[0]
    assert kinds == {"SymbolExpansion", "SymbolContraction", "WordContraction", "Recode"}
    assert refused > 0


def test_recode_after_a_word_contraction_refuses_the_same_window():
    """Every 1 of the golden mean shift lies in an occurrence of 01, so a
    word starting with 1 keeps a boundary 1 that the recode table, built
    from the image language, does not cover."""
    pipe = MovePipeline.start(sft(["0", "1"], ["11"])).word_contract("01")
    pipe = pipe.recode(_block_table(pipe.result, 2), 2)
    v = Word("10010")
    got = _outcome(pipeline_apply_word, pipe, v)
    assert got[1] is not None and got[1][1] == ("1", "0")
    assert got == _outcome(_reference_apply_word, pipe, v)


def test_membership_matches_the_word_based_reference():
    rng = random.Random(7)
    for _ in range(30):
        symbols = rng.choice(SYMBOL_SETS)
        forbidden = [[rng.choice(symbols) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 3))]
        x = sft(symbols, forbidden)
        if language_count(x, 1) == 0:
            continue
        for n in LENGTHS:
            v = _walk(x, n, rng)
            i = rng.randrange(n)
            flipped = Word(v[:i] + Word([rng.choice(symbols)]) + v[i + 1 :])
            foreign = Word(v[:i] + Word(["z"]) + v[i + 1 :])
            for w in (v, flipped, foreign):
                assert contains_word(x, w) == contains_word_by_factors(x, w)


def test_block_maps_match_the_word_based_reference():
    rng = random.Random(11)
    for _ in range(25):
        symbols = rng.choice(SYMBOL_SETS)
        forbidden = [[rng.choice(symbols) for _ in range(rng.randint(2, 3))] for _ in range(rng.randint(0, 2))]
        x = sft(symbols, forbidden)
        if language_count(x, 3) == 0:
            continue
        window = rng.randint(1, 3)
        code = _block_table(x, window)
        partial = dict(code)
        del partial[rng.choice(sorted(code))]
        for n in LENGTHS:
            v = _walk(x, n, rng)
            for table, width in ((code, window), (code, None), (partial, window)):
                got = _outcome(apply_block_map, table, v, width)
                assert got == _outcome(apply_block_map_by_factors, table, v, width)


def test_word_contraction_chain_makes_no_per_symbol_word_calls(monkeypatch):
    """Pushing a word through a pipeline costs a number of Word method
    calls that does not grow with the word's length: the loops run on
    plain tuples."""
    pipe = MovePipeline.start(sft(["0", "1"], []))
    for _ in range(4):
        for w in enumerate_language(pipe.result, 2):
            try:
                pipe = pipe.word_contract(w)
                break
            except PreconditionError:
                continue
    assert [type(mv).__name__ for mv in pipe.moves] == ["WordContraction"] * 4
    calls = {"getitem": 0, "add": 0, "word": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(Word, "__getitem__", counted("getitem", Word.__getitem__))
    monkeypatch.setattr(Word, "__add__", counted("add", Word.__add__))
    counted_word = counted("word", words._word)
    for module in (words, importlib.import_module("shiftflow.sft"), moves):
        monkeypatch.setattr(module, "_word", counted_word)

    rng = random.Random(3)
    counts = []
    for n in (1000, 10_000):
        v = Word(rng.choice("01") for _ in range(n))
        for key in calls:
            calls[key] = 0
        image = pipeline_apply_word(pipe, v)
        assert len(image) > n // 10
        counts.append(dict(calls))
    assert counts[0] == counts[1]
