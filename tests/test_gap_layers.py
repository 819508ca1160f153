"""The gap-shift layer against the invariants and presentations layers.

`fe_equal` decides flow equivalence of gap shifts from their gap sets.
For finite and cofinite gap sets the shift is of finite type, and Franks'
theorem decides the same question from the edge shift of its forbidden
words.  For strictly sofic gap sets the minimal right-resolving (Fischer)
cover is a flow invariant (Boyle, Carlsen and Eilers, "Flow equivalence
of sofic shifts", Israel J. Math. 225, 2018), so every `equivalent`
verdict needs equal signed Bowen-Franks groups of the two covers; the
converse does not hold.

Seeds and sizes are fixed: 50 finite-type sets (1,275 pairs) and 120
strictly sofic sets (7,140 pairs), about 2 s together on a 2-core VM.
"""

from __future__ import annotations

import random

import pytest

from shiftflow import PreconditionError, bowen_franks, franks_decide, minimal_right_resolving, sft, sft_to_edge_shift
from shiftflow.invariants import is_single_orbit
from shiftflow.presentations import focus_set
from shiftflow.sgap import EventuallyPeriodicGaps, FiniteGaps, classify_type, fe_equal, forbidden_words

from .oracles import gap_shift_presentation


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
