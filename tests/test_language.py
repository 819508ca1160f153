from __future__ import annotations

import itertools
import random

import pytest

from shiftflow import (
    InvalidInput,
    PreconditionError,
    Word,
    contains_word,
    enumerate_language,
    full_shift,
    is_empty,
    is_irreducible,
    language_count,
    sft,
    sft_to_edge_shift,
    simplify,
    to_m_step,
)
from shiftflow.jsonio import dumps, sft_json
from shiftflow.sft import minimize_from_language

from .oracles import language_by_padding, language_by_pruning, minimize_by_counting

GOLDEN_MEAN = sft(["0", "1"], ["11"])


def test_sft_rejects_unknown_symbols_in_forbidden_words():
    with pytest.raises(InvalidInput):
        sft(["0", "1"], ["12"])


def test_step_is_longest_forbidden_minus_one():
    assert GOLDEN_MEAN.step == 1
    assert sft(["0", "1"], ["000", "11"]).step == 2
    assert full_shift(["a"]).step == 0


def test_golden_mean_counts_follow_fibonacci():
    counts = [language_count(GOLDEN_MEAN, n) for n in range(1, 8)]
    assert counts == [2, 3, 5, 8, 13, 21, 34]


def test_enumerate_agrees_with_count():
    for n in range(7):
        assert len(enumerate_language(GOLDEN_MEAN, n)) == language_count(GOLDEN_MEAN, n)


def test_enumerate_language_sorted_and_distinct():
    words = enumerate_language(GOLDEN_MEAN, 5)
    assert words == sorted(set(words))


def test_language_matches_pruning_oracle():
    cases = [
        (["0", "1"], []),
        (["0", "1"], ["11"]),
        (["0", "1"], ["11", "000"]),
        (["0", "1"], ["010"]),
        (["a", "b", "c"], ["ab", "bc"]),
        (["a", "b", "c"], ["aa", "bb", "cc"]),
        (["0", "1"], ["0"]),
    ]
    for symbols, forbidden in cases:
        x = sft(symbols, forbidden)
        for n in range(1, 9):
            expect = language_by_pruning(symbols, forbidden, n)
            got = [w.text() for w in enumerate_language(x, n)]
            assert got == expect, (symbols, forbidden, n)


def test_language_matches_random_systems():
    """Forbidden words up to length 5 put n at or below the step in some
    cases, where all three queries read the vertex words."""
    rng = random.Random(7)
    short = 0
    for _ in range(30):
        symbols = ["0", "1"] if rng.random() < 0.7 else ["0", "1", "2"]
        forbidden = sorted({
            "".join(rng.choice(symbols) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(0, 3))
        })
        x = sft(symbols, forbidden)
        n = rng.randint(1, 6)
        expected = language_by_pruning(symbols, forbidden, n)
        assert [w.text() for w in enumerate_language(x, n)] == expected
        assert language_count(x, n) == len(expected)
        for w in itertools.product(symbols, repeat=n):
            assert contains_word(x, Word(w)) == ("".join(w) in expected)
        short += n <= x.step
    assert short >= 5


def test_padding_and_pruning_oracles_agree():
    """The two brute-force formulations must coincide before we trust either."""
    for forbidden in ([], ["11"], ["11", "000"]):
        for n in range(1, 7):
            assert language_by_padding(["0", "1"], forbidden, n) == language_by_pruning(["0", "1"], forbidden, n)


def test_to_m_step_preserves_language():
    x = sft(["0", "1"], ["11", "000"])
    y = to_m_step(x, 3)
    assert y.step == 3
    for n in range(1, 2 * (x.step + 1) + 1):
        assert enumerate_language(x, n) == enumerate_language(y, n)


def test_to_m_step_below_step_rejected():
    x = sft(["0", "1"], ["000"])
    with pytest.raises(PreconditionError):
        to_m_step(x, 1)


def test_to_m_step_past_the_candidate_limit_raises():
    """Six symbols at step 8 would list the 6^9 words of length 9."""
    x = sft([str(i) for i in range(6)], ["0" * 9, "11"])
    with pytest.raises(PreconditionError, match="above the limit"):
        to_m_step(x)


def test_contains_word_factorial_closure():
    rng = random.Random(3)
    x = sft(["0", "1"], ["11", "000"])
    words = enumerate_language(x, 7)
    for w in rng.sample(words, 10):
        i = rng.randint(1, 6)
        assert contains_word(x, w[:i])
        assert contains_word(x, w[i:])


def test_contains_word_is_false_on_foreign_symbols():
    assert not contains_word(GOLDEN_MEAN, "02")
    assert contains_word(GOLDEN_MEAN, "")


def test_irreducibility():
    assert is_irreducible(GOLDEN_MEAN)
    assert is_irreducible(full_shift(["0", "1"]))
    # two non-communicating full shifts glued on a shared alphabet
    assert not is_irreducible(sft(["0", "1"], ["01", "10"]))


def test_irreducible_gluing_words_exist():
    """Any two language words join through some connector word."""
    x = sft(["0", "1"], ["11", "000"])
    g, _ = sft_to_edge_shift(to_m_step(x))
    limit = len(g.vertices) * (x.step + 1)
    for k in (1, 2, 3, 4):
        for u in enumerate_language(x, k):
            for v in enumerate_language(x, k):
                assert _glues(x, u, v, limit), (u, v)


def _glues(x, u, v, limit: int) -> bool:
    for m in range(limit + 1):
        for w in enumerate_language(x, m):
            if contains_word(x, u + w + v):
                return True
    return False


def test_empty_shift_detected():
    assert is_empty(sft(["0", "1"], ["0", "1"]))
    assert is_empty(sft(["0"], ["00"]))
    assert not is_empty(GOLDEN_MEAN)


def test_simplify_drops_subsumed_words():
    """simplify keeps the minimal forbidden words, which is what the
    count-certified minimizer finds, on random SFTs too."""
    x = sft(["0", "1"], ["11", "110"])
    y = simplify(x)
    assert y.sorted_forbidden() == [Word("11")]
    for n in range(1, 7):
        assert enumerate_language(x, n) == enumerate_language(y, n)
    rng = random.Random(13)
    for _ in range(300):
        symbols = ["0", "1", "2"][: rng.randint(2, 3)]
        forbidden = sorted({"".join(rng.choices(symbols, k=rng.randint(1, 4))) for _ in range(rng.randint(0, 5))})
        x = sft(symbols, forbidden)
        y = simplify(x)
        k = x.step
        bsets = {n: set(enumerate_language(x, n)) for n in range(k + 2)}
        assert dumps(sft_json(y)) == dumps(sft_json(minimize_by_counting(x.alphabet, bsets, k))), forbidden
        for n in range(1, k + 3):
            assert enumerate_language(x, n) == enumerate_language(y, n), forbidden


def test_minimize_from_language_recovers_golden_mean():
    bsets = {n: set(enumerate_language(GOLDEN_MEAN, n)) for n in range(8)}
    y = minimize_from_language(GOLDEN_MEAN.alphabet, bsets, 6)
    assert y.sorted_forbidden() == [Word("11")]
