from __future__ import annotations

import random
import time

import pytest

from shiftflow import (
    Classification,
    EventuallyPeriodicGaps,
    FEVerdict,
    FiniteGaps,
    FullShift,
    InvalidInput,
    PreconditionError,
    SampledGaps,
    SoficTag,
    classify_type,
    detect_eventual_periodicity,
    enumerate_language,
    fe_equal,
    fe_invariant,
    forbidden_words,
    minimal_form,
    sft,
    shift_set,
)

from . import oracles
from .oracles import finite_gap_member, periodic_gap_member, sgap_language

EVENS = EventuallyPeriodicGaps((), (0,), 2)
ODDS = EventuallyPeriodicGaps((), (1,), 2)


def _primes(limit: int) -> tuple[int, ...]:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return tuple(i for i in range(limit + 1) if flags[i])


def _member_of(s) -> tuple:
    """(membership fn, sup or None) for an exactly described set."""
    if isinstance(s, FiniteGaps):
        return finite_gap_member(s.elements), s.elements[-1]
    m = minimal_form(s)
    if not m.T:
        return finite_gap_member(m.R), m.R[-1]
    return periodic_gap_member(m.R, m.T, m.N), None


def test_representation_validation():
    assert FiniteGaps([2, 0, 2]).elements == (0, 2)
    with pytest.raises(InvalidInput):
        FiniteGaps(())
    with pytest.raises(InvalidInput):
        FiniteGaps((-1, 3))
    with pytest.raises(InvalidInput):
        EventuallyPeriodicGaps((), (0,), 0)
    with pytest.raises(InvalidInput):
        SampledGaps((5,), 3)
    with pytest.raises(InvalidInput):
        SampledGaps((1,), -1)


def test_forbidden_words_examples():
    def texts(s, n):
        return sorted(w.text() for w in forbidden_words(s, n))

    assert texts(FiniteGaps((0, 2)), 10) == ["000", "101"]
    assert texts(FiniteGaps((1,)), 10) == ["00", "11"]
    full = EventuallyPeriodicGaps((), (0,), 1)
    for n in (2, 5, 12):
        assert forbidden_words(full, n) == set()


def test_forbidden_words_sampled_window():
    s = SampledGaps((0, 2, 4, 6, 8, 10), 10)
    got = sorted(w.text() for w in forbidden_words(s, 8))
    assert got == sorted("1" + "0" * k + "1" for k in (1, 3, 5))
    with pytest.raises(PreconditionError):
        forbidden_words(s, 13)


def test_language_matches_gap_structure_oracle():
    cases = [
        FiniteGaps((0, 2)),
        FiniteGaps((1,)),
        FiniteGaps((0, 1, 3)),
        EVENS,
        EventuallyPeriodicGaps((), (0, 1), 3),
        EventuallyPeriodicGaps((0,), (5,), 3),
        EventuallyPeriodicGaps((), (2,), 1),
    ]
    for s in cases:
        x = sft(["0", "1"], [w.text() for w in forbidden_words(s, 10)])
        member, sup = _member_of(s)
        for n in range(1, 9):
            got = sorted(w.text() for w in enumerate_language(x, n))
            assert got == sgap_language(member, sup, n), (s, n)


def test_classify_type():
    assert classify_type(FiniteGaps((0, 2))) == Classification("finite_type")
    assert classify_type(EventuallyPeriodicGaps((), (0, 1), 3)) == Classification(
        "strictly_sofic"
    )
    # cofinite tail collapses to period 1
    assert classify_type(EventuallyPeriodicGaps((0,), (3,), 1)) == Classification(
        "finite_type"
    )
    assert classify_type(EventuallyPeriodicGaps((), (2, 3), 2)) == Classification(
        "finite_type"
    )
    # the empty set forbids 1 0^k 1 for every k: refused by every entry point
    empty = EventuallyPeriodicGaps((), (), 3)
    for entry in (classify_type, fe_invariant, lambda s: forbidden_words(s, 5)):
        with pytest.raises(InvalidInput, match="empty gap set"):
            entry(empty)
    assert classify_type(SampledGaps((), 10)) == Classification("finite_type", bound=10)


def test_classify_sampled():
    primes = _primes(200)
    verdict = classify_type(SampledGaps(primes, 200))
    assert verdict == Classification("not_eventually_periodic_up_to_bound", bound=200)
    evens = SampledGaps(tuple(range(0, 101, 2)), 100)
    assert classify_type(evens) == Classification("strictly_sofic", bound=100)
    finite = SampledGaps((0, 2), 100)
    assert classify_type(finite) == Classification("finite_type", bound=100)


def test_minimal_form_examples():
    assert minimal_form(EventuallyPeriodicGaps((), (1, 3), 2)) == EventuallyPeriodicGaps(
        (), (1,), 2
    )
    assert minimal_form(EventuallyPeriodicGaps((0,), (0,), 1)) == EventuallyPeriodicGaps(
        (), (0,), 1
    )
    assert minimal_form(EventuallyPeriodicGaps((), (0, 5), 4)) == EventuallyPeriodicGaps(
        (0,), (4, 5), 4
    )
    m = EventuallyPeriodicGaps((1,), (4, 6), 5)
    assert minimal_form(m) == m


def _random_ep(rng: random.Random, n: int | None = None) -> EventuallyPeriodicGaps:
    n = rng.randint(1, 6) if n is None else n
    r = tuple(rng.sample(range(16), rng.randint(0, 3)))
    t = tuple(rng.sample(range(21), rng.randint(1, 3)))
    return EventuallyPeriodicGaps(r, t, n)


def test_minimal_form_properties():
    rng = random.Random(29)
    for _ in range(60):
        s = _random_ep(rng)
        m = minimal_form(s)
        assert minimal_form(m) == m
        assert s.N % m.N == 0
        if m.T:
            assert max(m.T) - min(m.T) < m.N
            tail = periodic_gap_member((), m.T, m.N)
            assert not any(tail(x) for x in m.R)
        span = max(s.R + s.T + m.R + m.T)
        before = periodic_gap_member(s.R, s.T, s.N)
        after = periodic_gap_member(m.R, m.T, m.N)
        for x in range(span + 10 * s.N + 1):
            assert before(x) == after(x), (s, m, x)


def test_shift_set():
    assert shift_set(FiniteGaps((0, 2)), 3) == FiniteGaps((3, 5))
    s = FiniteGaps((0, 2))
    assert shift_set(s, 0) is s
    assert shift_set(EVENS, 1) == ODDS
    assert shift_set(SampledGaps((2, 3), 10), -2) == SampledGaps((0, 1), 8)
    with pytest.raises(PreconditionError):
        shift_set(FiniteGaps((0, 2)), -1)
    with pytest.raises(PreconditionError):
        shift_set(EVENS, -1)


def test_fe_invariant_examples():
    assert fe_invariant(FiniteGaps((0, 2))) == FullShift(2)
    assert fe_invariant(FiniteGaps((0, 1, 4))) == FullShift(3)
    # cofinite tail means full 2-shift regardless of sporadic part
    assert fe_invariant(EventuallyPeriodicGaps((0,), (3,), 1)) == FullShift(2)
    assert fe_invariant(EVENS) == SoficTag(1, 2, (0,))
    assert fe_invariant(ODDS) == SoficTag(1, 2, (0,))
    assert fe_invariant(EventuallyPeriodicGaps((), (0, 1), 3)) == SoficTag(2, 3, (0, 1))
    with pytest.raises(PreconditionError):
        fe_invariant(SampledGaps((0, 2), 10))


def test_fe_invariant_ignores_translation_and_sporadic_noise():
    rng = random.Random(31)
    for _ in range(50):
        s = _random_ep(rng)
        if not minimal_form(s).T:
            continue
        tag = fe_invariant(s)
        k = rng.randint(0, 7)
        assert fe_invariant(shift_set(s, k)) == tag
        extra = tuple(rng.sample(range(40), rng.randint(1, 3)))
        assert fe_invariant(EventuallyPeriodicGaps(s.R + extra, s.T, s.N)) == tag


def test_detect_eventual_periodicity_examples():
    evens = SampledGaps(tuple(range(0, 101, 2)), 100)
    assert detect_eventual_periodicity(evens) == EVENS
    finite = SampledGaps((0, 2), 100)
    assert detect_eventual_periodicity(finite) == EventuallyPeriodicGaps((0, 2), (), 1)
    assert detect_eventual_periodicity(SampledGaps(_primes(200), 200)) is None
    member = periodic_gap_member((5,), (7,), 4)
    sample = SampledGaps(tuple(k for k in range(60) if member(k)), 59)
    assert detect_eventual_periodicity(sample) == EventuallyPeriodicGaps((5,), (7,), 4)


def test_detect_fits_the_sample():
    """Whatever description comes back must reproduce the window exactly."""
    rng = random.Random(37)
    for _ in range(40):
        s = _random_ep(rng)
        member = periodic_gap_member(s.R, s.T, s.N)
        bound = max(s.R + s.T) + 8 * s.N + 12
        sample = SampledGaps(tuple(k for k in range(bound + 1) if member(k)), bound)
        got = detect_eventual_periodicity(sample)
        assert got is not None
        fitted = periodic_gap_member(got.R, got.T, got.N)
        for x in range(bound + 1):
            assert fitted(x) == member(x), (s, got, x)


def test_fe_equal_finite_sets():
    v = fe_equal(FiniteGaps((0, 2)), FiniteGaps((5, 9)))
    assert v.outcome == "equivalent"
    assert v.reason == "both flow equivalent to the full 2-shift"
    assert v.witness is None
    v = fe_equal(FiniteGaps((0, 2)), FiniteGaps((1, 2, 3)))
    assert v == FEVerdict(
        "not_equivalent", reason="full shifts on different symbol counts"
    )
    v = fe_equal(FiniteGaps((0, 2)), EVENS)
    assert v.outcome == "not_equivalent"
    assert v.reason == "finite type is never flow equivalent to strictly sofic"


def test_fe_equal_sofic_sets():
    v = fe_equal(EVENS, ODDS)
    assert v == FEVerdict("equivalent", witness=(0, 1))
    assert fe_equal(ODDS, EVENS).witness == (0, -1)
    v = fe_equal(EVENS, EventuallyPeriodicGaps((), (0,), 3))
    assert v == FEVerdict("not_equivalent", reason="sofic gap invariants differ")
    t04 = EventuallyPeriodicGaps((), (0,), 4)
    t14 = EventuallyPeriodicGaps((), (1,), 4)
    assert fe_equal(t04, t14) == FEVerdict("equivalent", witness=(0, 1))


def test_fe_equal_sampled_sets():
    primes = SampledGaps(_primes(200), 200)
    shifted = SampledGaps(tuple(p + 5 for p in _primes(200 - 5)), 200)
    assert fe_equal(primes, shifted) == FEVerdict("equivalent", witness=(0, 5))
    squares = SampledGaps(tuple(k * k for k in range(15)), 200)
    v = fe_equal(primes, squares)
    assert v.outcome == "not_equivalent_up_to"
    assert v.bound == 200
    assert fe_equal(primes, primes) == FEVerdict("equivalent", witness=(0, 0))


def test_fe_equal_window_too_small():
    a = SampledGaps((0, 1, 2), 3)
    b = SampledGaps((0, 2), 3)
    v = fe_equal(a, b)
    assert v.outcome == "unknown_up_to"
    assert v.bound == 3


def test_fe_equal_empty_sampled_window_is_unknown_up_to_its_bound():
    """Members above the bound are unknown, so a window with none is
    valid input; it has nothing to translate, so removals alone would
    match it to any partner, and it confirms no verdict.  Only an exact
    empty set is refused."""
    empty = SampledGaps((), 10)
    for partner in (EVENS, ODDS, FiniteGaps((1,)), FiniteGaps((9,)), SampledGaps((0, 2, 4), 30)):
        for bound in (2, 200):
            assert fe_equal(empty, partner, bound) == FEVerdict("unknown_up_to", bound=10)
            assert fe_equal(partner, empty, bound) == FEVerdict("unknown_up_to", bound=10)
    assert fe_equal(empty, SampledGaps((), 3)) == FEVerdict("unknown_up_to", bound=3)
    assert fe_equal(empty, empty) == FEVerdict("unknown_up_to", bound=10)
    with pytest.raises(InvalidInput, match="empty gap set"):
        fe_equal(empty, EventuallyPeriodicGaps((), (), 3))


def test_fe_equal_rejects_bad_bound():
    with pytest.raises(InvalidInput):
        fe_equal(EVENS, ODDS, 0)


def test_fe_equal_is_an_equivalence_on_exact_sets():
    finite = FiniteGaps((1, 3, 4))
    # (description, the pool set it describes)
    aliases = [(EventuallyPeriodicGaps(finite.elements, (), n), finite) for n in range(1, 5)]
    aliases.append((EventuallyPeriodicGaps((0, 2), (4, 6), 4), EVENS))
    for alias, described in aliases:
        assert classify_type(alias) == classify_type(described)
        assert fe_invariant(alias) == fe_invariant(described)
        assert forbidden_words(alias, 12) == forbidden_words(described, 12)
    pool = [
        FiniteGaps((0, 2)),
        FiniteGaps((5, 9)),
        FiniteGaps((0, 1, 4)),
        EVENS,
        ODDS,
        EventuallyPeriodicGaps((), (0,), 4),
        EventuallyPeriodicGaps((), (1,), 4),
        EventuallyPeriodicGaps((0,), (3,), 1),
        EventuallyPeriodicGaps((), (0, 1), 3),
        finite,
    ] + [alias for alias, _ in aliases]
    verdicts = {}
    for i, a in enumerate(pool):
        assert fe_equal(a, a).outcome == "equivalent"
        for j, b in enumerate(pool):
            verdicts[i, j] = fe_equal(a, b).outcome
    for i in range(len(pool)):
        for j in range(len(pool)):
            assert verdicts[i, j] == verdicts[j, i]
            for k in range(len(pool)):
                if verdicts[i, j] == verdicts[j, k] == "equivalent":
                    assert verdicts[i, k] == "equivalent", (i, j, k)


def test_fe_equal_translation_always_witnessed():
    rng = random.Random(41)
    done = 0
    while done < 25:
        s = _random_ep(rng)
        tag = fe_invariant(s)
        if not isinstance(tag, SoficTag):
            continue
        k = rng.randint(1, 6)
        v = fe_equal(s, shift_set(s, k))
        assert v == FEVerdict("equivalent", witness=(0, k)), (s, k, v)
        done += 1


def test_fe_equal_witness_is_checkable():
    """Recount the forced removals the witness claims, on translates and
    translates with sporadic noise of random sofic sets."""
    pairs = [
        (EVENS, ODDS),
        (EventuallyPeriodicGaps((), (0,), 4), EventuallyPeriodicGaps((), (1,), 4)),
        (
            EventuallyPeriodicGaps((3,), (4,), 3),
            EventuallyPeriodicGaps((), (1,), 3),
        ),
    ]
    rng = random.Random(43)

    def noisy(s):
        if rng.random() < 0.5:
            return s
        noise = tuple(rng.sample(range(60), rng.randint(1, 3)))
        return EventuallyPeriodicGaps(s.R + noise, s.T, s.N)

    while len(pairs) < 300:
        a = _random_ep(rng, rng.randint(2, 6))
        if not isinstance(fe_invariant(a), SoficTag):
            continue
        b = noisy(shift_set(a, rng.randint(1, 30)))
        a = noisy(a)
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    for a, b in pairs:
        v = fe_equal(a, b)
        assert v.outcome == "equivalent" and v.witness is not None
        n, r = v.witness
        ma, _ = _member_of(a)
        mb, _ = _member_of(b)
        horizon = 200 + abs(r)
        gone_a = [x for x in range(horizon) if ma(x) and not (x + r >= 0 and mb(x + r))]
        gone_b = [y for y in range(horizon) if mb(y) and not (y - r >= 0 and ma(y - r))]
        assert max(len(gone_a), len(gone_b)) == n


def test_minimal_form_of_a_far_tail_is_immediate():
    """Leftover tail members are read per residue class, never by scanning
    every integer below the tail."""
    far = 10**9
    for period, kind in ((2, "strictly_sofic"), (1, "finite_type")):
        start = time.perf_counter()
        assert classify_type(EventuallyPeriodicGaps((), (far,), period)) == Classification(kind)
        assert time.perf_counter() - start < 1.0
    assert minimal_form(EventuallyPeriodicGaps((3,), (far, far + 3), 2)) == EventuallyPeriodicGaps(
        (3, far, far + 2), (far + 3,), 1
    )


def test_large_window_against_its_translate():
    """The window search and detection cost a few integer operations per
    translation and period, not one membership test per position."""
    rng = random.Random(59)
    window = SampledGaps(tuple(x for x in range(20_001) if rng.random() < 0.3), 20_000)
    start = time.perf_counter()
    assert fe_equal(window, shift_set(window, 7)) == FEVerdict("equivalent", witness=(0, 7))
    assert classify_type(window) == Classification("not_eventually_periodic_up_to_bound", bound=20_000)
    assert time.perf_counter() - start < 1.0


def _window_of(rng: random.Random, bound: int) -> tuple[int, ...]:
    shape = rng.randrange(6)
    if shape == 0:
        return ()
    if shape == 1:
        return (rng.randint(0, bound),)
    if shape == 2:
        k = rng.randint(0, 9)
        return tuple(p + k for p in _primes(bound - k)) if bound - k >= 2 else ()
    if shape == 3:
        return tuple(x * x for x in range(int(bound**0.5) + 1))
    if shape == 4:
        density = rng.random()
        return tuple(x for x in range(bound + 1) if rng.random() < density)
    exact = _random_ep(rng)
    member = periodic_gap_member(exact.R, exact.T, exact.N)
    return tuple(x for x in range(bound + 1) if member(x))


def _random_gaps(rng: random.Random):
    kind = rng.randrange(3)
    if kind == 0:
        return FiniteGaps(rng.sample(range(25), rng.randint(1, 4)))
    if kind == 1:
        return _random_ep(rng, rng.randint(1, 6))
    bound = rng.choice((rng.randint(0, 40), rng.randint(0, 40), rng.randint(41, 150), rng.randint(0, 400)))
    return SampledGaps(_window_of(rng, bound), bound)


def _partner(rng: random.Random, s):
    choice = rng.randrange(4)
    if choice == 0:
        return _random_gaps(rng)
    if choice == 1:
        return s
    k = rng.randint(-3, 12)
    try:
        moved = shift_set(s, k)
    except PreconditionError:
        return s
    if choice == 2 or isinstance(moved, FiniteGaps):
        return moved
    if isinstance(moved, SampledGaps):
        noise = {x for x in rng.sample(range(moved.bound + 1), min(3, moved.bound + 1))}
        return SampledGaps(tuple(set(moved.members) ^ noise), moved.bound)
    return EventuallyPeriodicGaps(moved.R + tuple(rng.sample(range(40), 2)), moved.T, moved.N)


def _outcome(f, *args):
    try:
        return f(*args)
    except (InvalidInput, PreconditionError) as exc:
        return type(exc), str(exc)


def test_gap_masks_agree_with_the_membership_scan():
    """Seeded differential against the library's earlier per-position
    scan, kept verbatim in `tests/oracles.py`: verdicts with their
    witnesses, reasons and bounds, classifications, detected
    descriptions, minimal forms and forbidden sets are all identical."""
    rng = random.Random(61)
    pairs = 0
    for _ in range(2_000):
        s1 = _random_gaps(rng)
        s2 = _partner(rng, s1)
        search = rng.choice((1, 2, 5, 50, 200))
        got = _outcome(fe_equal, s1, s2, search)
        assert got == _outcome(oracles.fe_equal, s1, s2, search), (s1, s2, search)
        pairs += 1
        for s in (s1, s2):
            assert _outcome(classify_type, s) == _outcome(oracles.classify_type, s), s
            if isinstance(s, SampledGaps):
                assert detect_eventual_periodicity(s) == oracles.detect_eventual_periodicity(s), s
                max_len = rng.randint(0, s.bound + 2)
            else:
                max_len = rng.randint(0, 30)
                if isinstance(s, EventuallyPeriodicGaps):
                    assert minimal_form(s) == oracles.minimal_form(s), s
            got = _outcome(forbidden_words, s, max_len)
            assert got == _outcome(oracles.forbidden_words, s, max_len), (s, max_len)
    assert pairs == 2_000
