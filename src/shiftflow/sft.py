"""Shifts of finite type given by a finite set of forbidden words.

The central object is `ForbiddenSetSFT`.  Everything derived from it
(language, membership, word counts, the edge-shift graph) reads one
cached index automaton, the essential edge shift as its vertices and
`{symbol: next index}` rows (`EdgeShiftData`), so repeated queries stay
cheap.  Inside, words are plain symbol tuples, which hash and compare
equal to Words; each word handed out is wrapped once with `_word`.
Membership and word counts are one pass each over the automaton, read
along its rows or by paths.  A `DirectedGraph` is built only where a
graph is the output, on each call, with the words of the step plus one
grown again for its edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .errors import InvalidInput, PartialBlockMapError, PreconditionError
from .graphs import DirectedGraph, Edge, _essential, _index_rows, _restrict, _strongly_connected, _walks
from .words import EMPTY_WORD, Alphabet, Word, _check_symbols, _windows, _word


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

    @cached_property
    def step(self) -> int:
        """Memory: longest forbidden word length minus one, 0 when none."""
        return max((len(w) for w in self.forbidden), default=1) - 1

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


# Most candidate words `_admissible_words` builds for one length (2**20
# words of length 13 take about 150 MiB), and most words listed at once.
MAX_CANDIDATES = 2**20


def _check_candidates(k: int, count: int) -> None:
    """Refuse `count` candidate words of length k past `MAX_CANDIDATES`."""
    if count > MAX_CANDIDATES:
        raise PreconditionError(f"words of length {k} have {count} candidates, above the limit {MAX_CANDIDATES}")


def _admissible_words(alphabet: Alphabet, forbidden: frozenset[Word], n: int) -> list[tuple[str, ...]]:
    """All length-n words with no forbidden factor, as tuples in order.

    Grown one length at a time: u + (s,) is kept when no forbidden word is
    a suffix of it, so dead prefixes are dropped as soon as they appear.
    A suffix table maps each forbidden word's prefix to the last symbols
    it bans; u is extended by the alphabet, in order, minus the symbols
    banned by the prefixes its suffixes hit, which keeps the order.  Past
    `MAX_CANDIDATES` candidates for a length it raises `PreconditionError`.
    """
    bans: dict[tuple[str, ...], set[str]] = {}
    for f in forbidden:
        t = tuple(f)
        bans.setdefault(t[:-1], set()).add(t[-1])
    lengths = sorted({len(p) for p in bans})
    symbols = alphabet.symbols

    def successors(u: tuple[str, ...]) -> Sequence[str]:
        k = len(u)
        gone = None
        for ln in lengths:
            if ln > k:
                break
            b = bans.get(u[k - ln :])
            if b is not None:
                gone = b if gone is None else gone | b
        return symbols if gone is None else [s for s in symbols if s not in gone]

    words: list[tuple[str, ...]] = [()]
    for k in range(1, n + 1):
        _check_candidates(k, len(words) * len(symbols))
        words = [u + (s,) for u in words for s in successors(u)]
    return words


@dataclass(frozen=True)
class EdgeShiftData:
    """The essential edge shift of an SFT at its own step m, as an index
    automaton.

    `vertices` are the bi-extendable m-words, sorted, and `delta[i]` maps
    each symbol s that vertex u = vertices[i] can read to the index of
    (u + (s,))[1:]; a move whose ends did not both survive the trim is
    left out.  `index` and `rows` are derived from them on first use.  The
    (m+1)-words are not kept: the graph outputs grow them again
    (`_edge_graph`).
    """

    vertices: tuple[tuple[str, ...], ...]
    # Lists of dicts do not hash; equal vertices are enough for the hash.
    delta: list[dict[str, int]] = field(hash=False)

    @cached_property
    def index(self) -> dict[tuple[str, ...], int]:
        """Each vertex's index, for `contains_word` and `_edge_graph`."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def rows(self) -> list[list[tuple[int, int]]]:
        """Per vertex index the (j, edges to j) pairs in increasing j:
        the graph's `sparse_adjacency()` without building the graph."""
        return _index_rows(self.delta)


# A module-wide LRU, not a field of the shift: equal shifts rebuilt from
# JSON share one automaton, and `perfbench/worker.py` reads the cache's
# `cache_info()` and clears it.
@lru_cache(maxsize=512)
def _edge_shift(x: ForbiddenSetSFT) -> EdgeShiftData:
    """The edge shift of x: the admissible m-words, sorted, with a move
    u -> (u + (s,))[1:] for each symbol s for which u + (s,) is
    admissible, trimmed to its essential part by `graphs._essential` and
    `graphs._restrict`.  No (m+1)-word is listed: u + (s,) is admissible
    iff (u + (s,))[1:] is an admissible m-word and u + (s,) is not itself
    forbidden, as its other suffixes are suffixes of (u + (s,))[1:].
    Refuses, as `_admissible_words` does, more than `MAX_CANDIDATES`
    candidate (m+1)-words."""
    m = x.step
    names = sorted(_admissible_words(x.alphabet, x.forbidden, m))
    symbols = x.alphabet.symbols
    _check_candidates(m + 1, len(names) * len(symbols))
    at = {v: i for i, v in enumerate(names)}
    delta: list[dict[str, int]] = []
    for u in names:
        row = {}
        for s in symbols:
            w = (*u, s)
            if (j := at.get(w[1:])) is not None and w not in x.forbidden:
                row[s] = j
        delta.append(row)
    del at  # not held while the trim runs
    keep = _essential(len(names), [i for i, row in enumerate(delta) for _ in row],
                      [j for row in delta for j in row.values()])
    if len(keep) < len(names):
        names, delta = [names[i] for i in keep], _restrict(delta, keep)
    return EdgeShiftData(tuple(names), delta)


def _edge_graph(x: ForbiddenSetSFT) -> tuple[DirectedGraph, list[tuple[str, ...]]]:
    """The edge shift of x as a `DirectedGraph`, built on each call for
    the graph outputs, with the admissible (m+1)-words grown again.

    The vertices are the automaton's, as Words in order; each word w
    whose move w[:m] -> w[1:] survived the trim is an edge, its id the
    word's position among the words, so the ids of trimmed words are
    gaps.  Returns the graph and the words.
    """
    data = _edge_shift(x)
    words = _admissible_words(x.alphabet, x.forbidden, x.step + 1)
    vertex = [_word(v) for v in data.vertices]
    index, delta = data.index, data.delta
    edges = []
    for eid, w in enumerate(words):
        i = index.get(w[:-1])
        if i is not None and (j := delta[i].get(w[-1])) is not None:
            edges.append(Edge(vertex[i], vertex[j], eid))
    return DirectedGraph(tuple(vertex), tuple(edges)), words


def to_m_step(x: ForbiddenSetSFT, m: int | None = None) -> ForbiddenSetSFT:
    """Rewrite the forbidden set so every word has length exactly m + 1.

    Each forbidden word is replaced by all length-(m+1) words containing
    it.  An empty forbidden set is returned unchanged: the full shift
    needs no constraints at any step.

    The output lists every inadmissible (m+1)-word, about |A|^(m+1) of
    them, and building it walks all |A|^(m+1) words.  For the edge shift
    alone, `sft_presentation(x).graph` is the same graph without that
    cost, built from the cached automaton of x and its admissible
    (m+1)-words.
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
    bad = frozenset(_word(w) for w in _admissible_words(x.alphabet, frozenset(), m + 1) if w not in good)
    return ForbiddenSetSFT(x.alphabet, bad)


def sft_to_edge_shift(x: ForbiddenSetSFT) -> tuple[DirectedGraph, dict[int, Word]]:
    """Edge-shift graph of an SFT at its step M.

    Returns the essential graph together with a map from edge id to the
    length-(M+1) word the edge represents.  The forbidden words may have
    mixed lengths: the graph is the one of `to_m_step(x)`, whose
    admissible (M+1)-words are those of x, in the same order.
    """
    graph, words = _edge_graph(x)
    return graph, {e.eid: _word(words[e.eid]) for e in graph.edges}


def _short_words(data: EdgeShiftData, n: int) -> set[tuple[str, ...]]:
    """The length-n words of the language for 1 <= n <= the step m, as
    tuples: the length-n prefixes of the vertex words.  A length-n word at
    position i of a point is the prefix of the length-m window there, a
    vertex; every vertex of the essential edge shift lies on a point."""
    return {v[:n] for v in data.vertices}


def enumerate_language(x: ForbiddenSetSFT, n: int) -> list[Word]:
    """Sorted list of the length-n words occurring in points of the shift.

    Length 0 always yields the empty word, even for the empty shift.
    Words longer than the step grow from the vertex words along the
    automaton's rows, unless there are more than `MAX_CANDIDATES`: checked
    against |V| d^(n-m), d the largest out-degree, and past that by path
    counts, which never fall on an essential graph.
    """
    if n < 0:
        raise InvalidInput("word length must be nonnegative")
    if n == 0:
        return [EMPTY_WORD]
    data = _edge_shift(x)
    m = x.step
    if n <= m:
        return sorted(map(_word, _short_words(data, n)))
    delta = data.delta
    d = max(map(len, delta), default=0)
    # d >= 2 gives d^21 > 2^20, so the capped exponent keeps the comparison.
    if len(delta) * d ** min(n - m, MAX_CANDIDATES.bit_length()) > MAX_CANDIDATES:
        for count in map(sum, islice(_walks(data.rows), n - m + 1)):
            if count > MAX_CANDIDATES:
                raise PreconditionError(
                    f"words of length {n} number at least {count}, above the limit {MAX_CANDIDATES}")
    paths = [(_word(v), i) for i, v in enumerate(data.vertices)]
    for _ in range(n - m):
        paths = [(w + _word((s,)), j) for w, i in paths for s, j in delta[i].items()]
    return sorted(w for w, _ in paths)


def language_count(x: ForbiddenSetSFT, n: int) -> int:
    """Exact number of length-n words in the language (arbitrary precision)."""
    if n < 0:
        raise InvalidInput("word length must be nonnegative")
    if n == 0:
        return 1
    data = _edge_shift(x)
    m = x.step
    if n <= m:
        return len(_short_words(data, n))
    return sum(next(islice(_walks(data.rows), n - m, None)))


def _unambiguous_word(word: Word | str, symbols: Iterable[str]) -> Word:
    """`word` as a Word over `symbols`.

    A plain string is read one character per symbol, so it is refused
    when `symbols` has a longer symbol: "◇2" could be one symbol or two.
    Pass a `Word` to say which; on the command line, a JSON array of the
    symbols says it.
    """
    if isinstance(word, str) and any(len(s) > 1 for s in symbols):
        raise InvalidInput(f"{word!r} is ambiguous over an alphabet with multi-character symbols; pass a Word, "
                           """or on the command line a JSON array of its symbols such as '["ab"]'""")
    return Word(word)


def contains_word(x: ForbiddenSetSFT, word: Word | str) -> bool:
    """Membership of a finite word in the language of the shift.

    A plain string is refused when the alphabet has a multi-character
    symbol (see `_unambiguous_word`).  A word longer than the step m walks
    the edge shift's automaton from w[:m]: each step is an (m+1)-window.
    """
    w = _unambiguous_word(word, x.alphabet)
    if len(w) == 0:
        return True
    data = _edge_shift(x)
    m = x.step
    if len(w) <= m:
        return w in _short_words(data, len(w))
    delta = data.delta
    i = data.index.get(tuple.__getitem__(w, slice(m)))
    for s in islice(w, m, None):
        if i is None:
            return False
        i = delta[i].get(s)
    return i is not None


def is_irreducible(x: ForbiddenSetSFT) -> bool:
    """Whether any two language words can be joined inside the language."""
    return _strongly_connected(_edge_shift(x).rows)


def is_empty(x: ForbiddenSetSFT) -> bool:
    return not _edge_shift(x).vertices


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
    for f in _windows(w, window):
        if f not in code:
            raise PartialBlockMapError(f"block map undefined on {_word(f)!r}", window=f)
        out.append(code[f])
    _check_symbols(out)
    return _word(out)


def simplify(x: ForbiddenSetSFT) -> ForbiddenSetSFT:
    """Equivalent SFT with a reduced forbidden set.

    Keeps only first offenders (non-language words whose proper prefix
    and suffix are both in the language): the minimal forbidden set,
    whose step is the least step of the shift.
    """
    k = x.step
    data = _edge_shift(x)
    bsets = _slices_below({v + (s,) for v, row in zip(data.vertices, data.delta) for s in row}, k + 1)
    return minimize_from_language(x.alphabet, bsets, k)


def _slices_below(top: set[tuple[str, ...]], jmax: int) -> dict[int, set[tuple[str, ...]]]:
    """Language slices B_0 .. B_jmax of tuples from the length-jmax slice.

    A length-j factor of a length-jmax word is the prefix or the suffix
    of one of its length-(j+1) factors, so each slice is built from the
    one above it.
    """
    bsets: dict[int, set[tuple[str, ...]]] = {jmax: top, 0: {()}}
    for j in range(jmax - 1, 0, -1):
        above = bsets[j + 1]
        bsets[j] = {w[:-1] for w in above} | {w[1:] for w in above}
    return bsets


def minimize_from_language(alphabet: Alphabet, bsets: Mapping[int, set[Word]], k: int) -> ForbiddenSetSFT:
    """The minimal forbidden set of a k-step shift X, read off its
    language slices B_0 .. B_{k+1}.

    A word outside the language whose longest proper prefix and suffix
    are inside it is a minimal forbidden word; those of length at most
    k + 1 are collected here.  There are no longer ones: a longer word
    outside the language of a k-step shift has a (k+1)-factor outside it
    (Lind & Marcus, section 2.1), so it is not minimal.  The minimal
    forbidden words define X (Crochemore, Mignosi and Restivo, "Automata
    and forbidden words", IPL 67, 1998).  No forbidden set of X has a
    lower step: if X is m-step, its minimal forbidden words have length
    at most m + 1 by the same argument.
    """
    fmin: set[Word] = set()
    for n in range(1, k + 2):
        prev, cur = bsets[n - 1], bsets[n]
        for u in prev:
            for s in alphabet.symbols:
                w = u + (s,)
                if w not in cur and w[1:] in prev:
                    fmin.add(_word(w))
    return ForbiddenSetSFT(alphabet, frozenset(fmin))
