"""Each move is one left-to-right rule (`moves._transducer`) that serves
both its shift image and its orbit transport.  These tests hold the rule
against the sliding-window code it replaced: the window rules over an
edge shift of step max(step, window - 1) (`oracles.image_by_windows`)
and the rotate-then-slide transport (`oracles.apply_periodic_by_rotation`).
Outputs and refusals must be identical.
"""
from __future__ import annotations

import itertools
import random
import sys

from shiftflow import (
    Alphabet,
    ForbiddenSetSFT,
    MovePipeline,
    PeriodicOrbit,
    ShiftSpaceError,
    Word,
    enumerate_language,
    full_shift,
    is_empty,
    pipeline_apply_periodic,
    recode,
    sft,
    symbol_contract,
    symbol_expand,
    word_contract,
)
from shiftflow import moves

from .oracles import apply_periodic_by_rotation, image_by_windows

ALPHABETS = (("a",), ("a", "b"), ("a", "b", "c"), ("a", "◇2", "b"))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ShiftSpaceError as err:
        return type(err).__name__, str(err)


def _by_rule_and_by_windows(monkeypatch, fn, *args):
    """(outcome of fn, outcome of fn with `moves._image` read by windows)."""
    new = _outcome(fn, *args)
    with monkeypatch.context() as patched:
        patched.setattr(moves, "_image", image_by_windows)
        old = _outcome(fn, *args)
    return new, old


def _random_sft(rng: random.Random) -> ForbiddenSetSFT:
    symbols = rng.choice(ALPHABETS)
    forbidden = {
        Word(rng.choice(symbols) for _ in range(rng.choice((1, 2, 2, 3, 3, 4)))) for _ in range(rng.randint(0, 3))
    }
    return ForbiddenSetSFT(Alphabet(symbols), frozenset(forbidden))


def _random_word(rng: random.Random, x: ForbiddenSetSFT, n: int) -> Word:
    """A language word of length n, or now and then any word (a refusal)."""
    words = enumerate_language(x, n)
    if words and rng.random() < 0.9:
        return rng.choice(words)
    return Word(rng.choice(x.alphabet.symbols) for _ in range(n))


def _random_move(rng: random.Random, x: ForbiddenSetSFT):
    """(move function, its arguments): a word contraction of length 2-5,
    a symbol contraction after 1-2 expansions, or a recode of window 1-3."""
    kind = rng.choice(("word", "symbol", "recode"))
    if kind == "word":
        return word_contract, (x, _random_word(rng, x, rng.randint(2, 5 if len(x.alphabet) < 3 else 4)))
    if kind == "symbol":
        y, pair = x, None
        for _ in range(rng.randint(1, 2)):
            live = enumerate_language(y, 1)
            if not live:
                break
            y, mv = symbol_expand(y, rng.choice(live)[0])
            pair = (mv.symbol, mv.fresh)
        if pair is None or rng.random() < 0.1:
            pair = (rng.choice(y.alphabet.symbols), rng.choice(y.alphabet.symbols))
        return symbol_contract, (y, *pair)
    return recode, (x, _random_table(rng, x, window := rng.randint(1, 3)), window)


def _random_table(rng: random.Random, x: ForbiddenSetSFT, window: int) -> dict[Word, str]:
    """A block map on the length-`window` words of x: one naming each
    block (always invertible), a random one, or one missing a block."""
    blocks = enumerate_language(x, window)
    style = rng.random()
    if style < 0.6:
        return {u: ".".join(u) for u in blocks}
    if style < 0.9:
        return {u: rng.choice(("p", "q", "r")) for u in blocks}
    return {u: "p" for u in blocks[1:]}


def test_move_images_match_the_window_rules(monkeypatch):
    rng = random.Random(20261018)
    kinds: dict[str, int] = {}
    refused = multi = 0
    for _ in range(420):
        x = _random_sft(rng)
        fn, args = _random_move(rng, x)
        new, old = _by_rule_and_by_windows(monkeypatch, fn, *args)
        assert new == old, (fn.__name__, args)
        kinds[fn.__name__] = kinds.get(fn.__name__, 0) + 1
        refused += isinstance(new[0], str)
        multi += "◇2" in x.alphabet
    assert min(kinds.values()) > 100 and 40 < refused < 250 and multi > 80, (kinds, refused, multi)


def _self_overlapping_case(rng: random.Random) -> tuple[ForbiddenSetSFT, Word]:
    """A self-overlapping word w of length 3-4 (3 on three symbols) and a
    shift that forbids every overlap of two occurrences of w, so w may be
    contracted."""
    symbols = rng.choice((("a", "b"), ("a", "b", "c")))
    while True:
        w = Word(rng.choice(symbols) for _ in range(rng.randint(3, 6 - len(symbols))))
        shifts = [s for s in range(1, len(w)) if w[s:] == w[: len(w) - s]]
        if shifts:
            break
    forbidden = {w[:s] + w for s in shifts}
    forbidden |= {Word(rng.choice(symbols) for _ in range(rng.randint(2, 5))) for _ in range(rng.randint(0, 4))}
    return ForbiddenSetSFT(Alphabet(symbols), frozenset(forbidden)), w


def test_contractions_of_self_overlapping_words_match_the_window_rules(monkeypatch):
    """Where the partial match of a self-overlapping word can run back
    into the occurrence before it, the rule's burn-in decides the image."""
    rng = random.Random(17)
    contracted = 0
    for _ in range(60):
        x, w = _self_overlapping_case(rng)
        new, old = _by_rule_and_by_windows(monkeypatch, word_contract, x, w)
        assert new == old, (x, w)
        contracted += not isinstance(new[0], str)
    assert contracted >= 40


def _random_pipeline(rng: random.Random, x: ForbiddenSetSFT) -> MovePipeline:
    """One to four moves from x: expansions, symbol contractions (mostly
    undoing the expansion before), word contractions of length 2-4 and
    recodes of window 1-3.  Refused moves are skipped."""
    pipe = MovePipeline.start(x)
    for _ in range(rng.randint(1, 4)):
        y = pipe.result
        if is_empty(y):
            break
        kind = rng.choice(("expand", "contract", "word", "recode"))
        try:
            if kind == "expand":
                pipe = pipe.expand(rng.choice(y.alphabet.symbols))
            elif kind == "contract":
                last = pipe.moves[-1] if pipe.moves else None
                if isinstance(last, moves.SymbolExpansion) and rng.random() < 0.8:
                    pipe = pipe.contract(last.symbol, last.fresh)
                else:
                    pipe = pipe.contract(rng.choice(y.alphabet.symbols), rng.choice(y.alphabet.symbols))
            elif kind == "word":
                pipe = pipe.word_contract(_random_word(rng, y, rng.randint(2, 4)))
            else:
                window = rng.randint(1, 3)
                pipe = pipe.recode(_random_table(rng, y, window), window)
        except ShiftSpaceError:
            pass
    return pipe


def test_periodic_transport_matches_rotation():
    """Every primitive cycle of length 1-3 over the source alphabet, in
    the source shift or not, on random pipelines."""
    rng = random.Random(1510)
    transported = refused = 0
    kinds: set[type] = set()
    for _ in range(150):
        pipe = _random_pipeline(rng, _random_sft(rng))
        kinds |= {type(mv) for mv in pipe.moves}
        symbols = pipe.source.alphabet.symbols
        cycles = {PeriodicOrbit(Word(c)).cycle for n in (1, 2, 3) for c in itertools.product(symbols, repeat=n)}
        for u in sorted(cycles):
            new = _outcome(pipeline_apply_periodic, pipe, u)
            assert new == _outcome(apply_periodic_by_rotation, pipe, u), (pipe.moves, u)
            if isinstance(new, PeriodicOrbit):
                transported += len(pipe.moves) > 0
            else:
                refused += 1
    assert len(kinds) == 4 and transported > 500 and refused > 100, (kinds, transported, refused)


def test_contracting_b_a8_walks_only_the_shifts_own_edge_shift():
    """The rule runs on the step-0 edge shift of the full 2-shift; the
    window rule of width 2n - 1 needed the step-16 one (2^17 edges)."""
    edge_shift = sys.modules["shiftflow.sft"]._edge_shift
    edge_shift.cache_clear()
    y, _ = word_contract(full_shift(["a", "b"]), "b" + "a" * 8)
    assert y == sft(["a", "b", "◇"], ["baaaaaaaa"])
    assert edge_shift.cache_info().currsize == 1
