"""The gap-shift layer against the invariants and presentations layers.

`fe_equal` decides flow equivalence of gap shifts from their gap sets.
For finite and cofinite gap sets the shift is of finite type, and Franks'
theorem decides the same question from the edge shift of its forbidden
words.  For strictly sofic gap sets the minimal right-resolving (Fischer)
cover is a flow invariant (Boyle, Carlsen and Eilers, "Flow equivalence
of sofic shifts", Israel J. Math. 225, 2018), so every `equivalent`
verdict needs equal signed Bowen-Franks groups of the two covers; the
converse does not hold.

Type and entropy are read off the presentation layer too: a sofic shift
is of finite type iff its Fischer cover has finite memory (Lind and
Marcus, section 3.4), and the entropy of a gap shift is log2 of the root
lambda > 1 of sum over k in S of lambda^-(k+1) = 1 (Dastjerdi and
Jangjoo, "Dynamics and topology of S-gap shifts", Topology Appl. 159,
2012).

Seeds and sizes are fixed: 50 finite-type sets (1,275 pairs) and 120
strictly sofic sets (7,140 pairs), about 2 s together on a 2-core VM,
and 300 mixed exact sets for type and entropy.
"""

from __future__ import annotations

import random
from math import log2

import pytest

from shiftflow import (
    PreconditionError,
    bowen_franks,
    franks_decide,
    minimal_right_resolving,
    perron_entropy,
    sft,
    sft_to_edge_shift,
    sofic_entropy,
)
from shiftflow.invariants import is_single_orbit
from shiftflow.presentations import focus_set
from shiftflow.sgap import EventuallyPeriodicGaps, FiniteGaps, classify_type, fe_equal, forbidden_words

from .oracles import gap_shift_presentation, has_finite_memory


def _finite_type_sets(rng: random.Random, count: int) -> list:
    """Finite gap sets from 0..6, and cofinite ones: sporadic elements
    from 0..4 and every length from some t <= 6 on (period 1)."""
    sets = []
    for _ in range(count):
        if rng.random() < 0.5:
            sets.append(FiniteGaps(tuple(rng.sample(range(7), rng.randint(1, 4)))))
        else:
            sets.append(EventuallyPeriodicGaps(tuple(rng.sample(range(5), rng.randint(0, 3))), (rng.randint(0, 6),), 1))
    return sets


def _edge_shift_matrix(s) -> list[list[int]]:
    """The edge-shift matrix of sft("01", forbidden_words(s, L)), L two
    past the largest sporadic element or offset, so every excluded gap
    length is forbidden."""
    top = max(s.elements) if isinstance(s, FiniteGaps) else max(s.R + s.T)
    graph, _ = sft_to_edge_shift(sft("01", forbidden_words(s, top + 2)))
    return [list(row) for row in graph.adjacency_matrix()]


def test_finite_type_verdicts_match_franks():
    """On finite and cofinite gap sets, `fe_equal` says `equivalent`
    exactly when Franks' invariants match on the edge shifts; a single
    periodic orbit (one gap length) is equivalent only to another."""
    sets = _finite_type_sets(random.Random(10), 50)
    mats = [_edge_shift_matrix(s) for s in sets]
    single = [is_single_orbit(m) for m in mats]
    counts = {"equivalent": 0, "not_equivalent": 0, "single": 0}
    for i in range(len(sets)):
        for j in range(i, len(sets)):
            verdict = fe_equal(sets[i], sets[j]).outcome
            if single[i] or single[j]:
                want = single[i] and single[j]
                counts["single"] += 1
            else:
                want = franks_decide(mats[i], mats[j])
            assert (verdict == "equivalent") == want, (sets[i], sets[j], verdict)
            assert verdict in ("equivalent", "not_equivalent")
            counts[verdict] += 1
    assert {type(s).__name__ for s in sets} == {"FiniteGaps", "EventuallyPeriodicGaps"}
    assert min(counts.values()) > 100, counts


def _strictly_sofic_sets(rng: random.Random, count: int) -> list[EventuallyPeriodicGaps]:
    sets = []
    while len(sets) < count:
        period = rng.randint(2, 4)
        sporadic = tuple(rng.sample(range(7), rng.randint(0, 3)))
        s = EventuallyPeriodicGaps(sporadic, tuple(rng.sample(range(8), rng.randint(1, period))), period)
        if classify_type(s).kind == "strictly_sofic":
            sets.append(s)
    return sets


def test_sofic_verdicts_keep_the_fischer_cover_groups():
    """Every `equivalent` verdict on two exact strictly sofic gap sets
    joins two Fischer covers with equal signed Bowen-Franks groups.  Some
    `not_equivalent` pairs have equal groups too: the check is one-way."""
    sets = _strictly_sofic_sets(random.Random(11), 120)
    groups = [bowen_franks(minimal_right_resolving(gap_shift_presentation(s)).graph.adjacency_matrix()) for s in sets]
    counts = {"equivalent": 0, "not_equivalent": 0, "equal_groups_not_equivalent": 0, "unequal_groups": 0}
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            verdict = fe_equal(sets[i], sets[j]).outcome
            counts[verdict] = counts.get(verdict, 0) + 1
            if verdict == "equivalent":
                assert groups[i] == groups[j], (sets[i], sets[j])
            elif groups[i] == groups[j]:
                counts["equal_groups_not_equivalent"] += 1
            else:
                counts["unequal_groups"] += 1
    assert min(counts.values()) > 100, counts


def test_gap_shift_presentation_reads_the_gap_language():
    """The oracle presentation reads exactly the words of the gap shift:
    1 0^k 1 is readable iff k is a member, up to past the cycle."""
    lg = gap_shift_presentation(EventuallyPeriodicGaps((1, 6), (2, 5), 3))
    members = {1, 6} | {t + 3 * n for t in (2, 5) for n in range(6)}
    for k in range(20):
        word = "1" + "0" * k + "1"
        if k in members:
            focus_set(lg, word)
        else:
            with pytest.raises(PreconditionError):
                focus_set(lg, word)


def _gap_entropy(s) -> float:
    """log2 of the root lambda of sum over k in S of lambda^-(k+1) = 1,
    by bisection on (1, 2]; a tail offset t sums in closed form as
    lambda^-(t+1) / (1 - lambda^-N).  0 when S has one element."""
    if isinstance(s, FiniteGaps):
        sporadic, offsets, period = set(s.elements), set(), 1
    else:
        period = s.N
        offsets = {t for t in s.T if not any(u < t and (t - u) % period == 0 for u in s.T)}
        sporadic = {r for r in s.R if not any(r >= t and (r - t) % period == 0 for t in offsets)}

    def excess(lam: float) -> float:
        tail = sum(lam ** -(t + 1) for t in offsets) / (1 - lam**-period) if offsets else 0.0
        return sum(lam ** -(k + 1) for k in sporadic) + tail - 1

    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) > 0 else (lo, mid)
    return log2(hi)


def _exact_sets(rng: random.Random, count: int) -> list:
    """Finite gap sets from 0..8 and eventually periodic ones with period
    1-4, sporadic elements from 0..7 and one or more offsets from 0..8."""
    sets = []
    for _ in range(count):
        if rng.random() < 0.3:
            sets.append(FiniteGaps(tuple(rng.sample(range(9), rng.randint(1, 4)))))
        else:
            period = rng.randint(1, 4)
            sporadic = tuple(rng.sample(range(8), rng.randint(0, 3)))
            sets.append(EventuallyPeriodicGaps(sporadic, tuple(rng.sample(range(9), rng.randint(1, 3))), period))
    return sets


def test_type_and_entropy_match_the_fischer_cover():
    """`classify_type` says finite type exactly when the Fischer cover of
    the oracle presentation has finite memory, and `sofic_entropy` of the
    presentation is log2 of the root of the gap series; on finite-type
    sets so is the Perron entropy of the edge shift of their forbidden
    words."""
    kinds = {"finite_type": 0, "strictly_sofic": 0}
    for s in _exact_sets(random.Random(13), 300):
        lg = gap_shift_presentation(s)
        kind = classify_type(s).kind
        assert (kind == "finite_type") == has_finite_memory(minimal_right_resolving(lg)), s
        kinds[kind] += 1
        want = _gap_entropy(s)
        assert abs(sofic_entropy(lg).value - want) < 1e-11, s
        if kind == "finite_type":
            assert abs(perron_entropy(_edge_shift_matrix(s)).value - want) < 1e-11, s
    assert min(kinds.values()) > 80, kinds
