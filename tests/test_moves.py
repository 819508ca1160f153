from __future__ import annotations

import random

import pytest

from shiftflow import (
    InvalidInput,
    MovePipeline,
    PeriodicOrbit,
    PreconditionError,
    Word,
    admits_nontrivial_overlaps,
    contains_word,
    deciding_length_bound,
    enumerate_language,
    full_shift,
    is_nonoverlapping,
    perron_entropy,
    pipeline_apply_periodic,
    pipeline_apply_word,
    recode,
    sft,
    symbol_contract,
    symbol_expand,
    word_contract,
)

GOLDEN_MEAN = sft(["0", "1"], ["11"])
# gap lengths 1 or 2 between consecutive 1s
X_GAPS_12 = sft(["0", "1"], ["11", "000"])


def texts(words) -> list[str]:
    return sorted(w.text() for w in words)


def test_symbol_expand_golden_mean_forbidden_set():
    y, mv = symbol_expand(GOLDEN_MEAN, "1")
    assert mv.symbol == "1"
    assert mv.fresh == "◇"
    assert texts(y.forbidden) == sorted(["1◇1◇", "0◇", "◇◇", "10", "11"])


def test_symbol_expand_full_shift_forces_follower():
    y, _ = symbol_expand(full_shift(["0", "1"]), "1")
    assert contains_word(y, "1◇1◇")
    assert contains_word(y, "01◇")
    assert not contains_word(y, "0◇")
    assert not contains_word(y, "10")
    assert not contains_word(y, "11")


def test_contains_word_refuses_to_split_multi_character_symbols():
    y, _ = symbol_expand(full_shift(["0", "1"]), "1")
    z, mv = symbol_expand(y, "1")
    assert mv.fresh == "◇2"
    with pytest.raises(InvalidInput):
        contains_word(z, "◇2")
    assert contains_word(z, Word(["◇2"]))


def test_symbol_expand_rewrites_words():
    y, mv = symbol_expand(GOLDEN_MEAN, "1")
    pipe = MovePipeline.start(GOLDEN_MEAN).expand("1")
    assert pipeline_apply_word(pipe, "010").text() == "01◇0"


def test_symbol_expand_then_contract_is_language_identity():
    for x in (GOLDEN_MEAN, X_GAPS_12, full_shift(["a", "b"])):
        y, mv = symbol_expand(x, x.alphabet.symbols[-1])
        z, _ = symbol_contract(y, mv.symbol, mv.fresh)
        for n in range(1, 9):
            assert enumerate_language(z, n) == enumerate_language(x, n), n


def test_symbol_contract_word_image():
    y, _ = symbol_expand(full_shift(["a", "b"]), "a")
    pipe = MovePipeline.start(y).contract("a", "◇")
    assert pipeline_apply_word(pipe, Word("a◇b")).text() == "ab"


def test_symbol_contract_needs_exact_follower_relation():
    # "◇ occurs iff immediately after a" fails in the full 3-shift
    x = full_shift(["a", "b", "◇"])
    with pytest.raises(PreconditionError):
        symbol_contract(x, "a", "◇")


def test_is_nonoverlapping():
    assert is_nonoverlapping(Word("ba"))
    assert is_nonoverlapping(Word("baa"))
    assert not is_nonoverlapping(Word("aa"))
    assert not is_nonoverlapping(Word("aba"))
    with pytest.raises(InvalidInput):
        is_nonoverlapping(Word(""))


def test_admits_nontrivial_overlaps_in_shift():
    # "aa" occurrences overlap inside "aaa"
    assert admits_nontrivial_overlaps(full_shift(["a", "b"]), "aa")
    assert not admits_nontrivial_overlaps(full_shift(["a", "b"]), "ba")
    # forbidding "aaa" kills the only overlap of "aa"
    assert not admits_nontrivial_overlaps(sft(["a", "b"], ["aaa"]), "aa")


def test_admits_nontrivial_overlaps_requires_membership():
    with pytest.raises(PreconditionError):
        admits_nontrivial_overlaps(GOLDEN_MEAN, "11")


def test_word_contract_golden_mean_becomes_full_shift():
    y, mv = word_contract(GOLDEN_MEAN, "10")
    assert mv.fresh == "◇"
    assert set(y.alphabet.symbols) == {"0", "◇"}
    assert not y.forbidden


def test_word_contract_rejects_overlapping_words():
    with pytest.raises(PreconditionError):
        word_contract(full_shift(["a", "b"]), "aa")


def test_word_contract_rejects_missing_words():
    with pytest.raises(PreconditionError):
        word_contract(GOLDEN_MEAN, "110")


def test_gap_shift_double_contraction_reaches_full_two_shift():
    """Contracting both gap blocks turns X({1,2}) into the full 2-shift."""
    pipe = MovePipeline.start(X_GAPS_12).word_contract("100").word_contract("10")
    out = pipe.result
    assert len(out.alphabet.symbols) == 2
    assert set(out.alphabet.symbols) == {"◇", "◇2"}
    assert not out.forbidden


def test_word_contract_fresh_adjacency_iff_square_occurs():
    """The fresh symbol sits next to itself exactly when ww was readable."""
    cases = [
        (full_shift(["a", "b"]), "ba"),
        (X_GAPS_12, "10"),
        (GOLDEN_MEAN, "10"),
        (sft(["a", "b"], ["abab"]), "ab"),
    ]
    for x, w in cases:
        y, mv = word_contract(x, w)
        square = contains_word(x, w + w)
        pair = Word([mv.fresh, mv.fresh])
        assert contains_word(y, pair) == square, (w, square)


def test_word_contract_square_image():
    y, mv = word_contract(full_shift(["a", "b"]), "ba")
    pipe = MovePipeline.start(full_shift(["a", "b"])).word_contract("ba")
    img = pipeline_apply_word(pipe, "baba")
    assert img == Word([mv.fresh, mv.fresh])


def test_recode_roundtrips_through_inverse():
    table = {"00": "p", "01": "q", "10": "r"}
    y, mv = recode(GOLDEN_MEAN, table, 2)
    assert set(y.alphabet.symbols) == {"p", "q", "r"}
    w = Word("00100")
    img = pipeline_apply_word(MovePipeline.start(GOLDEN_MEAN).recode(table, 2), w)
    back = [mv.inverse_map[u] for u in img.factors(mv.inverse_window)]
    assert Word(back) == w[: len(back)]


def test_recode_rejects_incomplete_tables():
    from shiftflow import PartialBlockMapError

    with pytest.raises(PartialBlockMapError):
        recode(GOLDEN_MEAN, {"00": "p", "01": "q"}, 2)


def test_pipeline_word_image_under_expansion():
    expand = MovePipeline.start(full_shift(["0", "1"])).expand("1")
    assert pipeline_apply_word(expand, "0110").text() == "01◇1◇0"


def test_pipeline_word_image_under_gap_contraction():
    pipe = MovePipeline.start(X_GAPS_12).word_contract("10")
    assert pipeline_apply_word(pipe, "1010").text() == "◇◇"


def test_pipeline_word_requires_source_membership():
    pipe = MovePipeline.start(GOLDEN_MEAN).expand("1")
    with pytest.raises(PreconditionError):
        pipeline_apply_word(pipe, "0110")


def test_pipeline_periodic_expansion():
    pipe = MovePipeline.start(full_shift(["a", "b"])).expand("a")
    orbit = pipeline_apply_periodic(pipe, "ab")
    assert orbit == PeriodicOrbit(Word(["a", "◇", "b"]))


def test_pipeline_periodic_contraction():
    pipe = MovePipeline.start(GOLDEN_MEAN).word_contract("10")
    orbit = pipeline_apply_periodic(pipe, "10")
    assert orbit.cycle == Word(["◇"])
    assert orbit.period == 1


def test_pipeline_periodic_rejects_inadmissible_cycles():
    pipe = MovePipeline.start(GOLDEN_MEAN).expand("1")
    with pytest.raises(PreconditionError):
        pipeline_apply_periodic(pipe, "11")


def test_deciding_length_bound_formula():
    pipe = MovePipeline.start(GOLDEN_MEAN).word_contract("10")
    # one contraction of a length-2 word: n = 2 stages, window m = 2
    assert deciding_length_bound(pipe) == ((2 + 1) * 2 + 1) * 2**2
    pipe2 = MovePipeline.start(full_shift(["a", "b"])).expand("a")
    assert deciding_length_bound(pipe2) == ((0 + 1) * 1 + 1) * 2**1


def _random_pipeline(rng: random.Random):
    """A short pipeline over a small SFT, built from applicable moves."""
    base = rng.choice([
        full_shift(["0", "1"]),
        GOLDEN_MEAN,
        X_GAPS_12,
    ])
    pipe = MovePipeline.start(base)
    for _ in range(rng.randint(1, 4)):
        x = pipe.result
        options = []
        for s in x.alphabet.symbols:
            if contains_word(x, Word([s])):
                options.append(("expand", s))
        for w in enumerate_language(x, 2):
            try:
                if not admits_nontrivial_overlaps(x, w):
                    options.append(("contract", w))
            except PreconditionError:
                pass
        if not options:
            break
        kind, arg = rng.choice(options)
        if kind == "expand":
            pipe = pipe.expand(arg)
        else:
            pipe = pipe.word_contract(arg)
    return pipe


def _admissible_cycles(x, max_len: int) -> list[Word]:
    out = []
    for n in range(1, max_len + 1):
        for w in enumerate_language(x, n):
            orbit = PeriodicOrbit(w)
            if orbit.cycle != w:
                continue  # keep only primitive, canonical representatives
            reps = (x.step + 2) // n + 2
            if contains_word(x, w * reps):
                out.append(w)
    return out


def test_periodic_transport_on_random_pipelines():
    """Image of u^(k+1) is the image of u^k plus one repetition of the
    transported cycle, spliced in at the periodic block."""
    rng = random.Random(97)
    done = 0
    while done < 25:
        pipe = _random_pipeline(rng)
        cycles = _admissible_cycles(pipe.source, 3)
        if not cycles:
            continue
        u = rng.choice(cycles)
        bound = deciding_length_bound(pipe)
        k = -(-bound // len(u))
        v = pipeline_apply_periodic(pipe, u)
        img_k = pipeline_apply_word(pipe, u * k)
        img_k1 = pipeline_apply_word(pipe, u * (k + 1))
        assert len(img_k1) == len(img_k) + v.period
        # one extra repetition inserted where the periodic block lives
        assert _is_single_cycle_insertion(img_k, img_k1, v.cycle), (u, v.cycle)
        done += 1


def test_periodic_transport_through_recodes():
    """A recode slides its window around the cycle.  Word contractions
    come after the recodes only: before one, pipeline_apply_word keeps a
    left-boundary symbol the recode table does not cover."""

    def blocks(pipe: MovePipeline) -> dict[Word, str]:
        return {u: f"{u[0]}.{u[1]}" for u in enumerate_language(pipe.result, 2)}

    full = MovePipeline.start(full_shift(["0", "1"]))
    expanded = full.expand("1")
    recoded = full.recode(blocks(full), 2)
    pipes = [
        MovePipeline.start(GOLDEN_MEAN).recode({"00": "p", "01": "q", "10": "r"}, 2).expand("q"),
        expanded.recode(blocks(expanded), 2),
        recoded.word_contract(Word(["0.1", "1.0"])),
    ]
    for pipe in pipes:
        for u in _admissible_cycles(pipe.source, 3):
            k = -(-deciding_length_bound(pipe) // len(u))
            v = pipeline_apply_periodic(pipe, u)
            img_k = pipeline_apply_word(pipe, u * k)
            img_k1 = pipeline_apply_word(pipe, u * (k + 1))
            assert len(img_k1) == len(img_k) + v.period, (pipe.moves, u, v)
            assert _is_single_cycle_insertion(img_k, img_k1, v.cycle), (pipe.moves, u, v)


def _is_single_cycle_insertion(short: Word, long: Word, cycle: Word) -> bool:
    p = len(cycle)
    rotations = {cycle[r:] + cycle[:r] for r in range(p)}
    for pos in range(len(long) - p + 1):
        if long[pos : pos + p] in rotations and long[:pos] + long[pos + p :] == short:
            return True
    return False


def test_sandwich_law_images_differ_by_one_insertion():
    """T(w u^(k+1) v) carries exactly one more copy of the cycle image
    than T(w u^k v)."""
    rng = random.Random(101)
    done = 0
    while done < 15:
        pipe = _random_pipeline(rng)
        x = pipe.source
        cycles = _admissible_cycles(x, 2)
        if not cycles:
            continue
        u = rng.choice(cycles)
        bound = deciding_length_bound(pipe)
        k = -(-bound // len(u))
        pads = [w for w in enumerate_language(x, 2) if contains_word(x, w + u * (k + 2) + w)]
        if not pads:
            continue
        w = rng.choice(pads)
        v = pipeline_apply_periodic(pipe, u)
        a = pipeline_apply_word(pipe, w + u * k + w)
        b = pipeline_apply_word(pipe, w + u * (k + 1) + w)
        assert len(b) == len(a) + v.period
        assert _is_single_cycle_insertion(a, b, v.cycle)
        done += 1


def test_moves_preserve_zero_entropy():
    """h = 0 iff h = 0 across each generator move."""
    zero = sft(["0", "1"], ["11", "00"])  # single orbit (01)
    assert perron_entropy(zero).value == 0.0
    y, mv = symbol_expand(zero, "1")
    assert perron_entropy(y).value == 0.0
    z, _ = word_contract(zero, "01")
    assert perron_entropy(z).value == 0.0

    pos = GOLDEN_MEAN
    assert perron_entropy(pos).value > 0
    y2, _ = symbol_expand(pos, "1")
    assert perron_entropy(y2).value > 0
    z2, _ = word_contract(pos, "10")
    assert perron_entropy(z2).value > 0

