from __future__ import annotations

import itertools
import random

import pytest

from shiftflow import (
    InvalidInput,
    LabeledGraph,
    PreconditionError,
    Word,
    determinize,
    extend_to_synchronizing,
    focus_set,
    follower_table,
    full_shift,
    is_right_resolving,
    labeled_graph,
    minimal_right_resolving,
    sft,
    sft_presentation,
    sofic_entropy,
    symbol_expand,
)

# Standard presentation of the even shift: 0-runs between 1s have even length.
EVEN = labeled_graph(
    ["e", "o"],
    [("e", "e", "1"), ("e", "o", "0"), ("o", "e", "0")],
)

# A deliberately redundant presentation of the same shift, for minimization.
EVEN_FAT = labeled_graph(
    ["e1", "e2", "o"],
    [
        ("e1", "e1", "1"),
        ("e1", "o", "0"),
        ("o", "e2", "0"),
        ("e2", "e1", "1"),
        ("e2", "o", "0"),
    ],
)


def readable_words(lg: LabeledGraph, n: int) -> set[str]:
    """Label words of length n along paths of the essential part."""
    core = lg.essential_part()
    out: set[str] = set()

    def walk(v, acc: str) -> None:
        if len(acc) == n:
            out.add(acc)
            return
        for lab, dst in core.out_labeled(v):
            walk(dst, acc + lab)

    for v in core.graph.vertices:
        walk(v, "")
    return out


def test_sft_presentation_is_right_resolving():
    x = sft(["0", "1"], ["11"])
    lg = sft_presentation(x)
    assert is_right_resolving(lg)
    for n in range(1, 7):
        assert len(readable_words(lg, n)) == len(set(readable_words(lg, n)))


def test_even_presentations_read_same_language():
    for n in range(1, 9):
        assert readable_words(EVEN, n) == readable_words(EVEN_FAT, n)


def test_determinize_output_right_resolving_same_language():
    cases = [EVEN, EVEN_FAT, sft_presentation(sft(["0", "1"], ["11"]))]
    nondet = labeled_graph(
        ["a", "b"],
        [("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1")],
    )
    cases.append(nondet)
    for lg in cases:
        det = determinize(lg)
        assert is_right_resolving(det)
        for n in range(1, 9):
            assert readable_words(det, n) == readable_words(lg, n)


def test_minimal_right_resolving_reaches_fischer_cover():
    m = minimal_right_resolving(EVEN_FAT)
    assert len(m.graph.vertices) == 2
    assert is_right_resolving(m)
    for n in range(1, 9):
        assert readable_words(m, n) == readable_words(EVEN, n)


def test_minimal_right_resolving_fixed_point():
    m = minimal_right_resolving(EVEN)
    again = minimal_right_resolving(m)
    assert len(again.graph.vertices) == len(m.graph.vertices)


def test_minimized_presentation_is_follower_separated():
    m = minimal_right_resolving(EVEN_FAT)
    depth = len(m.graph.vertices) ** 2 + 1
    table = follower_table(m, depth)
    seen = list(table.values())
    for a, b in itertools.combinations(range(len(seen)), 2):
        assert seen[a] != seen[b]


def test_minimize_rejects_reducible_presentations():
    lg = labeled_graph(
        ["a", "b"],
        [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "0")],
    )
    with pytest.raises(PreconditionError) as exc:
        minimal_right_resolving(lg)
    assert "strongly connected component" in str(exc.value)


def test_focus_set_narrows_with_longer_words():
    assert focus_set(EVEN, "1") == frozenset([next(iter(EVEN.graph.vertices))]) or len(focus_set(EVEN, "1")) == 1
    assert len(focus_set(EVEN, "0")) == 2


def test_focus_set_unreadable_word_raises():
    with pytest.raises(PreconditionError) as exc:
        focus_set(EVEN, "0101")
    assert "not readable" in str(exc.value)


def _twice_expanded_presentation() -> LabeledGraph:
    """Minimal presentation of the full 2-shift with 1 expanded twice:
    labels 0, 1, ◇ and ◇2."""
    y, _ = symbol_expand(full_shift(["0", "1"]), "1")
    z, mv = symbol_expand(y, "1")
    assert mv.fresh == "◇2"
    return minimal_right_resolving(sft_presentation(z))


def test_focus_set_refuses_to_split_multi_character_labels():
    lg = _twice_expanded_presentation()
    with pytest.raises(InvalidInput):
        focus_set(lg, "◇2")
    assert len(focus_set(lg, Word(["◇2"]))) >= 1


def test_extend_to_synchronizing_refuses_to_split_multi_character_labels():
    lg = _twice_expanded_presentation()
    with pytest.raises(InvalidInput):
        extend_to_synchronizing(lg, "◇2")
    w = extend_to_synchronizing(lg, Word(["◇2"]))
    assert w[0] == "◇2" and len(focus_set(lg, w)) == 1


def test_extend_to_synchronizing_yields_intrinsic_synchronizer():
    w = extend_to_synchronizing(EVEN, "0")
    assert len(focus_set(EVEN, w)) == 1
    lang = {n: readable_words(EVEN, n) for n in range(1, 14)}

    def in_lang(s: str) -> bool:
        return s in lang.get(len(s), set()) if s else True

    wt = w.text()
    for ul in range(1, 4):
        for vl in range(1, 4):
            for u in lang[ul]:
                for v in lang[vl]:
                    if in_lang(u + wt) and in_lang(wt + v):
                        assert in_lang(u + wt + v), (u, wt, v)


def test_extend_to_synchronizing_keeps_given_word_as_factor():
    w = extend_to_synchronizing(EVEN, "00")
    assert "00" in w.text()


def test_sofic_entropy_of_even_shift_matches_golden_mean():
    import math

    phi = (1 + math.sqrt(5)) / 2
    est = sofic_entropy(EVEN)
    assert est.method == "perron"
    assert abs(est.value - math.log2(phi)) < 1e-9


def test_full_shift_presentation_minimizes_to_one_state():
    lg = sft_presentation(full_shift(["a", "b"]))
    m = minimal_right_resolving(lg)
    assert len(m.graph.vertices) == 1
