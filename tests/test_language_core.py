"""The language core on plain tuples against the Word-based bodies it
replaced (kept in `oracles`): admissible words, edge shifts, short
language words, language slices, minimal forbidden sets and move images
are equal, every word the core hands out is a `Word`, and building an
edge shift or a move image slices and concatenates no `Word`."""

from __future__ import annotations

import random
from functools import cache

from shiftflow import (
    PreconditionError,
    Word,
    enumerate_language,
    language_count,
    recode,
    sft,
    sft_to_edge_shift,
    simplify,
    symbol_contract,
    symbol_expand,
    to_m_step,
    word_contract,
)
from shiftflow import moves
from shiftflow.moves import Recode, WordContraction
from shiftflow.sft import _admissible_words, _edge_shift, _short_words, _slices_below

from .oracles import (
    admissible_words_by_words,
    edge_shift_by_words,
    image_by_words,
    minimize_from_language_by_words,
    short_words_by_words,
    slices_below_by_words,
)

SYMBOL_SETS = (("0",), ("0", "1"), ("0", "0.1"), ("a", "◇2", "b"), ("a", "b", "c"))


def _images(x, rng: random.Random) -> list:
    """(image, move) of x under each move kind whose precondition holds:
    an expansion, the contraction undoing it, a word contraction and a
    recode naming each block of width 1 or 2."""
    if language_count(x, 2) == 0:
        return []
    live = sorted({u[0] for u in enumerate_language(x, 1)})
    y, expansion = symbol_expand(x, rng.choice(live))
    out = [(y, expansion), symbol_contract(y, expansion.symbol, expansion.fresh)]
    words = enumerate_language(x, 2)
    rng.shuffle(words)
    for w in words:
        try:
            out.append(word_contract(x, w))
            break
        except PreconditionError:
            continue
    window = rng.randint(1, 2)
    try:
        out.append(recode(x, {u: "|".join(u) for u in enumerate_language(x, window)}, window))
    except PreconditionError:
        pass
    return out


@cache
def _seeded() -> tuple[list, list, list]:
    """400 seeded SFTs over 1-3 symbols with their move images, every
    (image, move) pair, and every `moves._image` call the moves made as
    (arguments, result)."""
    calls = []
    real = moves._image

    def recording(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    rng = random.Random(20261019)
    bases = []
    for _ in range(400):
        symbols = rng.choice(SYMBOL_SETS)
        forbidden = [[rng.choice(symbols) for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(0, 3))]
        bases.append(sft(symbols, forbidden))
    moves._image = recording
    try:
        images = [pair for x in bases for pair in _images(x, rng)]
    finally:
        moves._image = real
    return bases + [y for y, _ in images], images, calls


def test_language_core_matches_the_word_based_bodies():
    shifts, images, _ = _seeded()
    assert len(shifts) > 1000
    assert any(len(s) > 1 for x in shifts for s in x.alphabet.symbols)
    kinds = {type(mv).__name__ for _, mv in images}
    assert kinds == {"SymbolExpansion", "SymbolContraction", "WordContraction", "Recode"}
    for x in shifts:
        m = x.step
        for n in range(m + 2):
            want_words = admissible_words_by_words(x.alphabet, x.forbidden, n)
            assert _admissible_words(x.alphabet, x.forbidden, n) == want_words
        _edge_shift.cache_clear()
        got, want = _edge_shift(x), edge_shift_by_words(x)
        assert got == want
        assert got.graph.vertices == want.graph.vertices
        assert got.graph.edges == want.graph.edges
        assert got.edge_words == want.edge_words
        for n in range(1, m + 1):
            assert _short_words(got, n) == short_words_by_words(want, n)
        top = {want.edge_words[e.eid] for e in want.graph.edges}
        assert _slices_below(set(map(tuple, top)), m + 1) == slices_below_by_words(top, m + 1)
        fmin = minimize_from_language_by_words(x.alphabet, slices_below_by_words(top, m + 1), m)
        assert simplify(x) == fmin


def test_move_images_match_the_word_based_image():
    _, _, calls = _seeded()
    assert {type(args[1]).__name__ for args, _ in calls} == {"SymbolContraction", "WordContraction", "Recode"}
    for args, result in calls:
        assert result == image_by_words(*args), args[1]


def test_words_leaving_the_core_are_words():
    """A plain tuple equals the Word with its symbols, so only a type check
    sees one leaking out of the core."""
    shifts, images, _ = _seeded()
    stepped = 0
    for x in shifts:
        for n in range(x.step + 2):
            assert all(type(w) is Word for w in enumerate_language(x, n))
        graph, edge_words = sft_to_edge_shift(x)
        assert all(type(v) is Word for v in graph.vertices)
        assert all(type(e.src) is Word and type(e.dst) is Word for e in graph.edges)
        assert all(type(w) is Word for w in edge_words.values())
        assert all(type(w) is Word for w in simplify(x).forbidden)
        if len(x.alphabet) ** (x.step + 2) <= 256:
            stepped += 1
            assert all(type(w) is Word for w in to_m_step(x, x.step + 1).forbidden)
    for y, mv in images:
        assert all(type(w) is Word for w in y.forbidden)
        if isinstance(mv, WordContraction):
            assert type(mv.word) is Word
        if isinstance(mv, Recode):
            assert all(type(u) is Word for u, _ in mv.table + mv.inverse)
    assert stepped > 1000


def test_edge_shifts_and_move_images_slice_and_concatenate_no_words(monkeypatch):
    """Counted without a clock: building an edge shift, and the image of a
    word contraction, a recode and a symbol contraction from a cold
    edge-shift cache, add no Words and take no Word slices.  The Word-based
    core made 1,327 such calls here."""
    x = sft(["a", "b", "c"], ["ba", "bb", "ac", "cc", "aaa"])
    assert x.step == 2
    calls = {"add": 0, "slice": 0}
    counting = [False]
    add, getitem, image = Word.__add__, Word.__getitem__, moves._image

    def counted_add(self, other):
        calls["add"] += counting[0]
        return add(self, other)

    def counted_getitem(self, index):
        calls["slice"] += counting[0] and isinstance(index, slice)
        return getitem(self, index)

    def counted_image(*args):
        _edge_shift.cache_clear()
        counting[0] = True
        try:
            return image(*args)
        finally:
            counting[0] = False

    monkeypatch.setattr(Word, "__add__", counted_add)
    monkeypatch.setattr(Word, "__getitem__", counted_getitem)
    monkeypatch.setattr(moves, "_image", counted_image)
    _edge_shift.cache_clear()
    counting[0] = True
    data = _edge_shift(x)
    counting[0] = False
    assert len(data.edge_words) > 5
    assert calls == {"add": 0, "slice": 0}
    kinds = []
    for y, mv in (
        word_contract(x, Word("ab")),
        recode(x, {u: "|".join(u) for u in enumerate_language(x, 3)}, 3),
        symbol_contract(x, "b", "c"),
    ):
        kinds.append(type(mv).__name__)
        assert y.forbidden
    assert kinds == ["WordContraction", "Recode", "SymbolContraction"]
    assert calls == {"add": 0, "slice": 0}
