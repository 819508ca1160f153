"""Gap shifts over {0, 1} and their flow-equivalence classification.

A gap set lists the allowed numbers of 0's between consecutive 1's.
Three descriptions are supported: an explicit finite set, an eventually
periodic set R + (T + N*n), and a sampled window of an otherwise unknown
set.  Sampled data can never prove anything beyond its bound, so every
verdict derived from it is bound-qualified.

Windows of a gap set are read as integer bitmasks, bit x set when x is a
member: a translation is a shift, the members a translation fails to
carry over are `a & ~shift(b, r)`, and periodicity breaks are the top
bit of `chi ^ (chi >> p)`.  An exact set's mask tiles one period block
by doubling.  `minimal_form` works per residue class, so its cost
follows the size of its output, not the size of its offsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidInput, PreconditionError
from .words import Word


def _clean_tuple(values, label: str) -> tuple[int, ...]:
    out = tuple(sorted({int(v) for v in values}))
    if out and out[0] < 0:
        raise InvalidInput(f"{label} must be nonnegative")
    return out


@dataclass(frozen=True)
class FiniteGaps:
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = _clean_tuple(self.elements, "gap lengths")
        if not elems:
            raise InvalidInput("a finite gap set needs at least one element")
        object.__setattr__(self, "elements", elems)


@dataclass(frozen=True)
class EventuallyPeriodicGaps:
    """The set R union (T + N*n for n >= 0).  R and T finite, N >= 1."""

    R: tuple[int, ...]
    T: tuple[int, ...]
    N: int

    def __post_init__(self) -> None:
        if int(self.N) < 1:
            raise InvalidInput("period must be at least 1")
        object.__setattr__(self, "R", _clean_tuple(self.R, "sporadic elements"))
        object.__setattr__(self, "T", _clean_tuple(self.T, "tail offsets"))
        object.__setattr__(self, "N", int(self.N))


@dataclass(frozen=True)
class SampledGaps:
    """Every member up to `bound`, listed exactly; nothing known beyond."""

    members: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        mem = _clean_tuple(self.members, "members")
        if int(self.bound) < 0:
            raise InvalidInput("bound must be nonnegative")
        if mem and mem[-1] > int(self.bound):
            raise InvalidInput(f"member {mem[-1]} exceeds the bound {self.bound}")
        object.__setattr__(self, "members", mem)
        object.__setattr__(self, "bound", int(self.bound))


SGapSet = FiniteGaps | EventuallyPeriodicGaps | SampledGaps


@dataclass(frozen=True)
class FullShift:
    symbols: int


@dataclass(frozen=True)
class SoficTag:
    """Tail shape of a strictly sofic gap shift: offset count, period,
    and the lexicographically least translate of the offsets mod N."""

    k: int
    N: int
    residues: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    kind: str
    bound: int | None = None


@dataclass(frozen=True)
class FEVerdict:
    outcome: str
    witness: tuple[int, int] | None = None
    reason: str | None = None
    bound: int | None = None


def _exact(s: FiniteGaps | EventuallyPeriodicGaps) -> EventuallyPeriodicGaps:
    """The one form every exact gap set is read in: its minimal form, a
    finite set E being EventuallyPeriodicGaps(E, (), 1)."""
    if isinstance(s, FiniteGaps):
        return EventuallyPeriodicGaps(s.elements, (), 1)
    return minimal_form(s)


def _low(limit: int) -> int:
    """The mask of [0, limit]; 0 when limit is negative."""
    return (1 << max(limit + 1, 0)) - 1


def _bits(members: Iterable[int], limit: int) -> int:
    """The members in [0, limit] of an ascending run of nonnegative
    integers, as one integer: bit x is set when x is a member."""
    chi = bytearray(max(limit + 1, 0) // 8 + 1)
    for x in members:
        if x > limit:
            break
        chi[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(chi, "little")


def _mask(s: EventuallyPeriodicGaps | SampledGaps, limit: int) -> int:
    """The members of s in [0, limit], as `_bits`.  The tail of an exact
    set is its block of offsets, tiled with period N by doubling."""
    if isinstance(s, SampledGaps):
        return _bits(s.members, limit)
    chi = _bits(s.R, limit)
    if s.T and s.T[0] <= limit:
        tail = _bits([t - s.T[0] for t in s.T], limit - s.T[0])
        copies = 1
        while s.T[0] + copies * s.N <= limit:
            tail |= tail << (copies * s.N)
            copies *= 2
        chi |= (tail << s.T[0]) & _low(limit)
    return chi


def forbidden_words(s: SGapSet, max_len: int) -> set[Word]:
    """Forbidden set of the gap shift, as words over {0, 1}.

    Finite sets get their full (finite) forbidden set regardless of
    max_len; infinite sets get every gap word of length <= max_len.
    """
    if isinstance(s, SampledGaps) and max_len > s.bound + 2:
        raise PreconditionError(
            f"max_len {max_len} exceeds the verified window {s.bound} + 2"
        )
    m: EventuallyPeriodicGaps | SampledGaps = s if isinstance(s, SampledGaps) else _exact(s)
    top = None
    if not isinstance(m, SampledGaps) and not m.T:
        if not m.R:
            raise InvalidInput("empty gap set")
        top = m.R[-1]
    limit = max_len - 2 if top is None else top - 1
    chi = _mask(m, limit)
    out = {Word("1" + "0" * k + "1") for k in range(limit + 1) if not chi >> k & 1}
    if top is not None:
        out.add(Word("0" * (top + 1)))
    return out


def minimal_form(s: EventuallyPeriodicGaps) -> EventuallyPeriodicGaps:
    """Equivalent description with the least period, tail offsets packed
    into one period window, and sporadic elements outside the tail.

    Idempotent; the described set is unchanged.
    """
    if not isinstance(s, EventuallyPeriodicGaps):
        raise InvalidInput("minimal form applies to eventually periodic sets")
    if not s.T:
        return EventuallyPeriodicGaps(s.R, (), 1)
    period = s.N
    threshold: dict[int, int] = {}
    for t in s.T:
        rho = t % period
        if rho not in threshold or t < threshold[rho]:
            threshold[rho] = t
    residues = set(threshold)
    new_period = next(
        d
        for d in range(1, period + 1)
        if period % d == 0 and all((rho + d) % period in residues for rho in residues)
    )
    base = max(threshold.values()) - new_period + 1
    offsets = tuple(
        x for x in range(max(base, 0), base + new_period)
        if x % period in residues and x >= threshold[x % period]
    )

    def in_new_tail(x: int) -> bool:
        return any(x >= t and (x - t) % new_period == 0 for t in offsets)

    # The new tail starts at the base, so the old tail's members below it
    # are sporadic: per residue class, the ones from its threshold up.
    leftovers = tuple(x for t in threshold.values() for x in range(t, max(base, 0), period))
    sporadic = tuple(sorted({x for x in s.R + leftovers if not in_new_tail(x)}))
    return EventuallyPeriodicGaps(sporadic, offsets, new_period)


def classify_type(s: SGapSet) -> Classification:
    """finite_type / strictly_sofic, bound-qualified for sampled input;
    the empty exact set raises `InvalidInput`, as in `fe_invariant`."""
    if isinstance(s, (FiniteGaps, EventuallyPeriodicGaps)):
        m, bound = _as_exact(s), None
    else:
        m, bound = detect_eventual_periodicity(s), s.bound
        if m is None:
            return Classification("not_eventually_periodic_up_to_bound", bound=bound)
    if not m.T or m.N == 1:
        return Classification("finite_type", bound=bound)
    return Classification("strictly_sofic", bound=bound)


def shift_set(s: SGapSet, k: int) -> SGapSet:
    """Translate every element by k.  Flow equivalence class is preserved."""
    if k == 0:
        return s
    if isinstance(s, FiniteGaps):
        if s.elements[0] + k < 0:
            raise PreconditionError(f"translation by {k} leaves nonnegative integers")
        return FiniteGaps(tuple(e + k for e in s.elements))
    if isinstance(s, EventuallyPeriodicGaps):
        pool = s.R + s.T
        if not pool:
            return s
        if min(pool) + k < 0:
            raise PreconditionError(f"translation by {k} leaves nonnegative integers")
        return EventuallyPeriodicGaps(
            tuple(e + k for e in s.R), tuple(t + k for t in s.T), s.N
        )
    if s.bound + k < 0 or (s.members and s.members[0] + k < 0):
        raise PreconditionError(f"translation by {k} leaves nonnegative integers")
    return SampledGaps(tuple(m + k for m in s.members), s.bound + k)


def _least_residue_translate(offsets: tuple[int, ...], period: int) -> tuple[int, ...]:
    base = {t % period for t in offsets}
    return min(tuple(sorted((t + r) % period for t in base)) for r in range(period))


def fe_invariant(s: SGapSet) -> FullShift | SoficTag:
    """Canonical flow-equivalence tag for exactly described gap sets."""
    if isinstance(s, SampledGaps):
        raise PreconditionError("sampled sets carry no exact invariant; use fe_equal")
    m = _exact(s)
    if not m.T:
        if not m.R:
            raise InvalidInput("empty gap set has no invariant")
        return FullShift(len(m.R))
    if m.N == 1:
        return FullShift(2)
    return SoficTag(len(m.T), m.N, _least_residue_translate(m.T, m.N))


def detect_eventual_periodicity(s: SampledGaps) -> EventuallyPeriodicGaps | None:
    """Eventually periodic description fitting the samples, if one is
    visible for at least three full periods; None otherwise."""
    bound = s.bound
    chi = _mask(s, bound)
    for period in range(1, bound // 3 + 1):
        # bit x of breaks: x and x + period differ, for x <= bound - period
        start = ((chi ^ (chi >> period)) & _low(bound - period)).bit_length()
        if bound - start < 3 * period:
            continue
        offsets = tuple(m for m in s.members if start <= m < start + period)
        sporadic = tuple(m for m in s.members if m < start)
        return minimal_form(EventuallyPeriodicGaps(sporadic, offsets, period))
    return None


def _signed_range(cap: int) -> Iterator[int]:
    """0, 1, -1, 2, -2, ... up to cap: by increasing |r|, positive first,
    so a search that keeps only strictly fewer removals ends with the
    first r that reaches the least count."""
    yield 0
    for v in range(1, cap + 1):
        yield v
        yield -v


def _as_exact(s: SGapSet) -> EventuallyPeriodicGaps | None:
    """The exact form of s; for sampled input, the detected description,
    or None when there is none.  Only exact input can be the empty set:
    a sampled window with no members says nothing past its bound, so it
    gets None (and `fe_equal` answers it unknown up to its bound)."""
    if isinstance(s, SampledGaps):
        m = detect_eventual_periodicity(s)
        return m if m is not None and (m.T or m.R) else None
    m = _exact(s)
    if not m.T and not m.R:
        raise InvalidInput("empty gap set")
    return m


def _fe_equal_exact(
    a: EventuallyPeriodicGaps, b: EventuallyPeriodicGaps, bound: int
) -> FEVerdict:
    """The exact verdict, with a translation witness (n, r) of at most
    `bound` removals found by trying r by increasing |r| up to
    cap = span + (bound + 2) * N.

    The search reads masks of span + cap + 2N bits, so `bound` is first
    clamped to span + 3N + 1, which cannot change the verdict.  Equal
    tags make the offsets of a and b translates mod N, so the first
    residue-aligned r has |r| < N; its forced removals lie in a window
    of at most span + 3N bits, so it counts n <= span + 3N < bound + 1
    removals under either bound, and a best r is found there.  From then
    on best_n <= span + 3N, so the break rule ends the loop once
    |r| >= span + (best_n + 1) * N, before the smaller cap: both bounds
    try the same r and keep the same best one.
    """
    tag_a = fe_invariant(a)
    tag_b = fe_invariant(b)
    if isinstance(tag_a, FullShift) or isinstance(tag_b, FullShift):
        if isinstance(tag_a, FullShift) and isinstance(tag_b, FullShift):
            if tag_a.symbols == tag_b.symbols:
                return FEVerdict(
                    "equivalent",
                    reason=f"both flow equivalent to the full {tag_a.symbols}-shift",
                )
            return FEVerdict(
                "not_equivalent",
                reason="full shifts on different symbol counts",
            )
        return FEVerdict(
            "not_equivalent",
            reason="finite type is never flow equivalent to strictly sofic",
        )
    if tag_a != tag_b:
        return FEVerdict("not_equivalent", reason="sofic gap invariants differ")

    # Same tag: hunt for a cofinite translation witness.  Offsets must
    # realign mod N, so only one residue class of r can work.
    period = a.N
    want = {t % period for t in b.T}
    span = max(a.R + a.T + b.R + b.T) + period
    bound = min(bound, span + 3 * period + 1)
    cap = span + (bound + 2) * period
    # the widest window below is span + cap + 2N
    chi_a, chi_b = _mask(a, span + cap + 2 * period), _mask(b, span + cap + 2 * period)
    best_n, best_r = bound + 1, None
    for r in _signed_range(cap):
        # beyond the span, |r| alone forces at least one removal per period
        if best_r is not None and (abs(r) - span) // period > best_n:
            break
        if {(t + r) % period for t in a.T} != want:
            continue
        # With this window, a is counted up to span + 2N + |r| - max(r, 0)
        # and b up to span + 2N + |r| + min(r, 0).  Past span both sets
        # are periodic and the residue filter aligns them, so a member x
        # of a can be forced only if x <= span + max(-r, 0), and a member
        # y of b only if y <= span + max(r, 0): both ranges cover them.
        forced_a, forced_b = _forced_removals(chi_a, chi_b, r, span + abs(r) + 2 * period)
        n = max(forced_a.bit_count(), forced_b.bit_count())
        if n < best_n:
            best_n, best_r = n, r
            if not n:  # no later r can have fewer removals
                break
    if best_r is None:
        return FEVerdict("unknown_up_to", bound=bound)
    return FEVerdict("equivalent", witness=(best_n, best_r))


def _window_masks(s1: SGapSet, s2: SGapSet) -> tuple[int, int, int]:
    """Masks of both sets on their common verified window, and the window;
    at least one of them is sampled."""
    window = min(s.bound for s in (s1, s2) if isinstance(s, SampledGaps))
    masks = [_mask(s if isinstance(s, SampledGaps) else _exact(s), window) for s in (s1, s2)]
    return masks[0], masks[1], window


def _forced_removals(a: int, b: int, r: int, window: int) -> tuple[int, int]:
    """The members of mask a that x -> x + r does not carry into mask b,
    up to window - max(r, 0), and the members of b that it does not reach,
    up to window + min(r, 0).  a and b must be exact on [0, window]."""
    carried = b >> r if r >= 0 else b << -r  # bit x: x + r is in b
    reached = a << r if r >= 0 else a >> -r  # bit y: y - r is in a
    return a & ~carried & _low(window - max(r, 0)), b & ~reached & _low(window + min(r, 0))


def _window_consistent(s1: SGapSet, s2: SGapSet, witness: tuple[int, int]) -> bool:
    a, b, window = _window_masks(s1, s2)
    n, r = witness
    forced_a, forced_b = _forced_removals(a, b, r, window)
    return max(forced_a.bit_count(), forced_b.bit_count()) <= n


def _fe_equal_window(s1: SGapSet, s2: SGapSet, bound: int) -> FEVerdict:
    """Translation search on the common verified window.

    A witness is accepted only when every forced removal sits in the
    lower half of the window: the upper half must match exactly under
    the translation, otherwise wholesale removals could fake a match.
    """
    a, b, window = _window_masks(s1, s2)
    half = window // 2
    if window < 4:
        return FEVerdict("unknown_up_to", bound=window)
    best_n, best_r = bound + 1, None
    for r in _signed_range(min(bound, window - half)):
        forced_a, forced_b = _forced_removals(a, b, r, window)
        if max(forced_a.bit_length(), forced_b.bit_length()) - 1 > half:
            continue
        n = max(forced_a.bit_count(), forced_b.bit_count())
        if n < best_n:
            best_n, best_r = n, r
    if best_r is not None:
        return FEVerdict("equivalent", witness=(best_n, best_r))
    return FEVerdict("not_equivalent_up_to", bound=window)


def fe_equal(s1: SGapSet, s2: SGapSet, search_bound: int = 200) -> FEVerdict:
    """Decide flow equivalence of two gap shifts.

    Exact descriptions give exact verdicts.  Any sampled input caps what
    can be concluded: a negative answer degrades to not_equivalent_up_to,
    and a positive answer needs a witness the window itself confirms.
    """
    if search_bound < 1:
        raise InvalidInput("search bound must be at least 1")
    sampled = isinstance(s1, SampledGaps) or isinstance(s2, SampledGaps)
    e1 = _as_exact(s1)
    e2 = _as_exact(s2)
    if not sampled:
        assert e1 is not None and e2 is not None
        return _fe_equal_exact(e1, e2, search_bound)
    window = min(s.bound for s in (s1, s2) if isinstance(s, SampledGaps))
    if any(isinstance(s, SampledGaps) and not s.members for s in (s1, s2)):
        # no member to translate: any partner matches it by removals alone
        return FEVerdict("unknown_up_to", bound=window)
    if e1 is not None and e2 is not None:
        verdict = _fe_equal_exact(e1, e2, search_bound)
        if verdict.outcome == "equivalent":
            if verdict.witness is None or _window_consistent(s1, s2, verdict.witness):
                return verdict
            return FEVerdict("unknown_up_to", bound=window)
        if verdict.outcome == "not_equivalent":
            return FEVerdict("not_equivalent_up_to", reason=verdict.reason, bound=window)
        return verdict
    return _fe_equal_window(s1, s2, search_bound)
