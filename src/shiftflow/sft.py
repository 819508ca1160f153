"""Shifts of finite type given by a finite set of forbidden words.

The central object is `ForbiddenSetSFT`.  Everything derived from it
(language, edge-shift graph, membership) goes through one cached graph
construction so repeated queries stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import InvalidInput, PartialBlockMapError, PreconditionError
from .graphs import DirectedGraph, Edge, path_count
from .words import EMPTY_WORD, Alphabet, Word

# Candidate-graph enumeration is skipped when the raw word cube would
# exceed this; callers then keep the unminimized description.
_CUBE_BUDGET = 300_000


@dataclass(frozen=True)
class ForbiddenSetSFT:
    """A shift of finite type: all bi-infinite strings over `alphabet`
    avoiding every word in `forbidden` as a factor."""

    alphabet: Alphabet
    forbidden: frozenset[Word]

    def __post_init__(self) -> None:
        for w in self.forbidden:
            if len(w) == 0:
                raise InvalidInput("forbidden words must be non-empty")
            for s in w:
                if s not in self.alphabet:
                    raise InvalidInput(f"forbidden word {w!r} uses symbol {s!r} not in alphabet")

    @property
    def step(self) -> int:
        """Memory: longest forbidden word length minus one, 0 when none."""
        return max((len(w) for w in self.forbidden), default=1) - 1 if self.forbidden else 0

    def sorted_forbidden(self) -> list[Word]:
        return sorted(self.forbidden)


def sft(symbols: Iterable[str], forbidden: Iterable[Word | str | Iterable[str]]) -> ForbiddenSetSFT:
    """Convenience constructor; strings are split into single characters.

    >>> x = sft("01", ["11"])
    >>> x.step
    1
    """
    return ForbiddenSetSFT(Alphabet(tuple(symbols)), frozenset(Word(w) for w in forbidden))


def full_shift(symbols: Iterable[str]) -> ForbiddenSetSFT:
    return ForbiddenSetSFT(Alphabet(tuple(symbols)), frozenset())


def _forbidden_by_length(forbidden: frozenset[Word]) -> dict[int, set[Word]]:
    table: dict[int, set[Word]] = {}
    for w in forbidden:
        table.setdefault(len(w), set()).add(w)
    return table


def _admissible_words(alphabet: Alphabet, forbidden: frozenset[Word], n: int) -> Iterator[Word]:
    """All length-n words with no forbidden factor, lexicographic order.

    Depth-first with suffix pruning, so dead prefixes are abandoned early.
    """
    by_len = _forbidden_by_length(forbidden)
    lengths = sorted(by_len)

    def extend(prefix: Word) -> Iterator[Word]:
        if len(prefix) == n:
            yield prefix
            return
        for s in alphabet:
            w = prefix + Word([s])
            k = len(w)
            if any(ln <= k and w[k - ln :] in by_len[ln] for ln in lengths):
                continue
            yield from extend(w)

    yield from extend(EMPTY_WORD)


class EdgeShiftData(NamedTuple):
    """Edge-shift presentation of an SFT at step m.

    Vertices are the admissible length-m words, edges the admissible
    length-(m+1) words; `edge_words[eid]` recovers an edge's word.  Only
    bi-extendable vertices and edges survive (the graph is essential).
    """

    graph: DirectedGraph
    step: int
    edge_words: tuple[Word, ...]
    live_words: frozenset[Word]
    out_map: dict[Word, tuple[tuple[Edge, str], ...]]


@lru_cache(maxsize=512)
def _edge_shift(x: ForbiddenSetSFT, m: int) -> EdgeShiftData:
    words = list(_admissible_words(x.alphabet, x.forbidden, m + 1))
    vertices = sorted({w[:m] for w in words} | {w[1:] for w in words})
    edges = tuple(Edge(w[:m], w[1:], i) for i, w in enumerate(words))
    graph = DirectedGraph(tuple(vertices), edges).essential_part()
    edge_words = tuple(words)
    live = frozenset(edge_words[e.eid] for e in graph.edges)
    out: dict[Word, list[tuple[Edge, str]]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.src].append((e, edge_words[e.eid][-1]))
    out_map = {v: tuple(sorted(pairs, key=lambda p: (p[1], p[0].eid))) for v, pairs in out.items()}
    return EdgeShiftData(graph, m, edge_words, live, out_map)


def _natural_edge_shift(x: ForbiddenSetSFT) -> EdgeShiftData:
    return _edge_shift(x, x.step)


def to_m_step(x: ForbiddenSetSFT, m: int | None = None) -> ForbiddenSetSFT:
    """Rewrite the forbidden set so every word has length exactly m + 1.

    Each forbidden word is replaced by all length-(m+1) words containing
    it.  An empty forbidden set is returned unchanged: the full shift
    needs no constraints at any step.
    """
    if not x.forbidden:
        return x
    natural = x.step
    if m is None:
        m = natural
    if m < natural:
        raise PreconditionError(f"cannot lower the step from {natural} to {m}")
    if all(len(w) == m + 1 for w in x.forbidden):
        return x
    good = set(_admissible_words(x.alphabet, x.forbidden, m + 1))
    bad = frozenset(w for w in x.alphabet.words(m + 1) if w not in good)
    return ForbiddenSetSFT(x.alphabet, bad)


def sft_to_edge_shift(x: ForbiddenSetSFT) -> tuple[DirectedGraph, dict[int, Word]]:
    """Edge-shift graph of an SFT whose forbidden words all have one length.

    Returns the essential graph together with a map from edge id to the
    length-(M+1) word the edge represents.  Mixed-length forbidden sets
    are rejected; normalize with `to_m_step` first.
    """
    if x.forbidden:
        lengths = {len(w) for w in x.forbidden}
        if len(lengths) != 1:
            raise PreconditionError("forbidden words must share one length; call to_m_step first")
    data = _natural_edge_shift(x)
    return data.graph, {e.eid: data.edge_words[e.eid] for e in data.graph.edges}


def enumerate_language(x: ForbiddenSetSFT, n: int) -> list[Word]:
    """Sorted list of the length-n words occurring in points of the shift.

    Length 0 always yields the empty word, even for the empty shift.
    """
    if n < 0:
        raise InvalidInput("word length must be nonnegative")
    if n == 0:
        return [EMPTY_WORD]
    data = _natural_edge_shift(x)
    if not data.graph.vertices:
        return []
    m = data.step
    if n <= m:
        found = {f for v in data.graph.vertices for f in Word(v).factors(n)}
        return sorted(found)
    result: list[Word] = []
    k = n - m

    def walk(prefix: Word, v: Word, remaining: int) -> None:
        if remaining == 0:
            result.append(prefix)
            return
        for e, s in data.out_map[v]:
            walk(prefix + Word([s]), e.dst, remaining - 1)

    for v in data.graph.vertices:
        walk(Word(v), v, k)
    return sorted(result)


def language_count(x: ForbiddenSetSFT, n: int) -> int:
    """Exact number of length-n words in the language (arbitrary precision)."""
    if n < 0:
        raise InvalidInput("word length must be nonnegative")
    if n == 0:
        return 1
    data = _natural_edge_shift(x)
    if not data.graph.vertices:
        return 0
    m = data.step
    if n <= m:
        return len({f for v in data.graph.vertices for f in Word(v).factors(n)})
    return path_count(data.graph, n - m)


def contains_word(x: ForbiddenSetSFT, word: Word | str) -> bool:
    """Membership of a finite word in the language of the shift.

    A plain string is read one character per symbol, so it is refused
    when the alphabet has a longer symbol: "◇2" could be one symbol or
    two.  Pass a `Word` to say which.
    """
    if isinstance(word, str) and any(len(s) > 1 for s in x.alphabet):
        raise InvalidInput(f"{word!r} is ambiguous over an alphabet with multi-character symbols; pass a Word")
    w = Word(word)
    if len(w) == 0:
        return True
    if any(s not in x.alphabet for s in w):
        return False
    data = _natural_edge_shift(x)
    if not data.graph.vertices:
        return False
    m = data.step
    if len(w) <= m:
        return any(w in set(Word(v).factors(len(w))) for v in data.graph.vertices)
    return all(f in data.live_words for f in w.factors(m + 1))


def is_irreducible(x: ForbiddenSetSFT) -> bool:
    """Whether any two language words can be joined inside the language."""
    return _natural_edge_shift(x).graph.is_strongly_connected()


def is_empty(x: ForbiddenSetSFT) -> bool:
    return not _natural_edge_shift(x).graph.vertices


def apply_block_map(code: Mapping[Word, str], word: Word, window: int | None = None) -> Word:
    """Slide a block map over a finite word.

    The window width defaults to the (common) length of the table keys.
    The image has length len(word) - window + 1; shorter inputs give the
    empty word.  A window missing from `code` raises, carrying the
    offending factor.
    """
    w = Word(word)
    if window is None:
        widths = {len(k) for k in code}
        if len(widths) != 1:
            raise InvalidInput("block map keys must share one length")
        window = widths.pop()
    if window < 1:
        raise InvalidInput("window must be at least 1")
    out: list[str] = []
    for f in w.factors(window):
        if f not in code:
            raise PartialBlockMapError(f"block map undefined on {f!r}", window=tuple(f))
        out.append(code[f])
    return Word(out)


def simplify(x: ForbiddenSetSFT) -> ForbiddenSetSFT:
    """Equivalent SFT with a reduced forbidden set.

    Keeps only first offenders (non-language words whose proper prefix
    and suffix are both in the language), then lowers the step as far as
    a language-count check can certify.
    """
    k = x.step
    bsets = {n: set(enumerate_language(x, n)) for n in range(k + 2)}
    return minimize_from_language(x.alphabet, bsets, k)


def minimize_from_language(alphabet: Alphabet, bsets: Mapping[int, set[Word]], k: int) -> ForbiddenSetSFT:
    """Reconstruct a minimal forbidden set from language slices B_0 .. B_{k+1}.

    The language must be that of a k-step shift; equality of candidate
    and target is certified by counting words of length k + 1, which
    suffices since containment holds by construction.
    """
    fmin: list[Word] = []
    for n in range(1, k + 2):
        prev, cur = bsets[n - 1], bsets[n]
        for u in sorted(prev):
            for s in alphabet:
                w = u + Word([s])
                if w in cur:
                    continue
                if w[1:] in prev:
                    fmin.append(w)
    target = len(bsets[k + 1])
    for m2 in range(k + 1):
        if len(alphabet) ** (m2 + 1) > _CUBE_BUDGET:
            break
        f2 = frozenset(w for w in fmin if len(w) <= m2 + 1)
        candidate = ForbiddenSetSFT(alphabet, f2)
        if language_count(candidate, k + 1) == target:
            return candidate
    return ForbiddenSetSFT(alphabet, frozenset(fmin))
