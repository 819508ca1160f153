from __future__ import annotations

import pytest

from shiftflow import (
    Alphabet,
    InvalidInput,
    PartialBlockMapError,
    PeriodicOrbit,
    Word,
    apply_block_map,
    contains_word,
    enumerate_language,
    sft,
)

assert issubclass(InvalidInput, ValueError)


def test_word_from_string_splits_codepoints():
    w = Word("abc")
    assert len(w) == 3
    assert w.text() == "abc"
    assert w[1] == "b"


def test_word_from_symbol_sequence():
    w = Word(["aa", "b"])
    assert len(w) == 2
    assert w.text() == "aab"


def test_word_concat_and_slice_stay_words():
    w = Word("0101")
    assert isinstance(w + Word("0"), Word)
    assert w.subword(2, 3) == Word("10")
    assert w.subword(1, 4) == w
    with pytest.raises(IndexError):
        w.subword(0, 2)


def test_slices_concatenations_powers_and_factors_are_plain_words():
    """The unchecked internal paths build the same Words a checked
    construction from a list would."""
    w = Word(["0", "◇2", "1", "◇"])
    results = [w[1:3], w[:0], w[::-1], w + Word(["1"]), Word("ab") + w, w * 2, 3 * w, w * 0]
    results += list(w.factors(2)) + list(w.factors(4))
    for r in results:
        assert type(r) is Word
        assert r == Word(list(r))
        assert repr(r) == repr(Word(list(r)))
    assert repr(w[1:2]) == "Word(['◇2'])"
    assert repr(Word("01")[:1]) == "Word('0')"


def test_concatenation_with_outside_input_is_checked():
    with pytest.raises(TypeError):
        Word(["0"]) + [""]
    with pytest.raises(TypeError):
        Word(["0"]) + [1]
    with pytest.raises(TypeError):
        [1] + Word(["0"])
    split = Word("0") + "1◇"
    assert type(split) is Word and list(split) == ["0", "1", "◇"]


def test_factors():
    w = Word("aba")
    fs = set(w.factors(2))
    assert fs == {Word("ab"), Word("ba")}
    assert list(w.factors(4)) == []
    assert list(w.factors(0)) == [Word()] * 4


def test_empty_word_rejected_by_symbol_validation():
    with pytest.raises(TypeError):
        Word([""])


def test_word_of_a_word_is_the_word_itself():
    for w in (Word("011"), Word(["0", "◇2", "0.1"]), Word()):
        assert Word(w) is w


@pytest.mark.parametrize("bad", [[""], ("0", ""), [1], ("0", 1), [None], ("0", b"1"), [("0",)]])
def test_lists_and_tuples_of_non_symbols_are_refused(bad):
    with pytest.raises(TypeError):
        Word(bad)


def test_plain_string_is_refused_over_multi_character_symbols():
    x = sft(["0", "0.1"], [])
    with pytest.raises(InvalidInput, match="ambiguous"):
        contains_word(x, "00")
    assert contains_word(x, Word(["0", "0.1"]))


def test_enumerate_language_returns_strictly_sorted_words():
    x = sft(["0", "◇2", "0.1"], [["◇2", "◇2"], ["0.1", "0", "◇2"]])
    for n in range(0, x.step + 4):
        words = enumerate_language(x, n)
        assert all(type(w) is Word for w in words)
        assert all(a < b for a, b in zip(words, words[1:]))


def test_alphabet_requires_distinct_symbols():
    with pytest.raises(InvalidInput):
        Alphabet(("0", "0"))


def test_alphabet_with_fresh_sequence():
    """First fresh name is the bare diamond, then numbered ones."""
    a = Alphabet(("0", "1"))
    a1, s1 = a.with_fresh()
    assert s1 == "◇"
    a2, s2 = a1.with_fresh()
    assert s2 == "◇2"
    a3, s3 = a2.with_fresh()
    assert s3 == "◇3"
    assert set(a3.symbols) == {"0", "1", "◇", "◇2", "◇3"}


def test_with_fresh_skips_collisions():
    a = Alphabet(("x", "◇", "◇2"))
    _, s = a.with_fresh()
    assert s == "◇3"


def test_periodic_orbit_rotations_canonicalize_identically():
    orbits = {PeriodicOrbit(Word("110")), PeriodicOrbit(Word("101")), PeriodicOrbit(Word("011"))}
    assert len(orbits) == 1


def test_periodic_orbit_reduces_to_primitive_root():
    assert PeriodicOrbit(Word("0101")) == PeriodicOrbit(Word("01"))
    assert PeriodicOrbit(Word("111")).cycle == Word("1")


def test_periodic_orbit_rejects_empty_cycle():
    with pytest.raises(InvalidInput):
        PeriodicOrbit(Word(""))


def test_apply_block_map_two_block():
    code = {Word("00"): "a", Word("01"): "b", Word("10"): "c"}
    assert apply_block_map(code, Word("0010")) == Word("abc")


def test_apply_block_map_window_inferred_from_keys():
    code = {Word("0"): "x", Word("1"): "y"}
    assert apply_block_map(code, Word("01")) == Word("xy")


def test_apply_block_map_mixed_key_lengths_rejected():
    code = {Word("0"): "x", Word("00"): "y"}
    with pytest.raises(InvalidInput):
        apply_block_map(code, Word("000"))


def test_apply_block_map_partial_raises_with_window():
    code = {Word("00"): "a"}
    with pytest.raises(PartialBlockMapError) as exc:
        apply_block_map(code, Word("01"))
    assert exc.value.window == ("0", "1")


@pytest.mark.parametrize("bad", ["", 1, None, ["b"]])
def test_apply_block_map_refuses_non_symbol_outputs(bad):
    code = {Word("0"): "a", Word("1"): bad}
    with pytest.raises(TypeError, match=r"^symbols must be non-empty strings, got "):
        apply_block_map(code, Word("001"))


def test_apply_block_map_names_the_first_bad_output():
    code = {Word("0"): None, Word("1"): 1, Word("2"): "c"}
    for word, first in (("012", "None"), ("210", "1")):
        with pytest.raises(TypeError, match=f"got {first}$"):
            apply_block_map(code, Word(word))


def test_apply_block_map_short_word_maps_to_empty():
    code = {Word("00"): "a"}
    assert apply_block_map(code, Word("0")) == Word("")
