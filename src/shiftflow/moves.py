"""Flow moves on shifts of finite type: expansions, contractions, recodings.

Each move maps an SFT to an SFT and is recorded in a pipeline so finite
words and periodic orbits can be pushed through the whole composite.
Move functions return (image shift, move record).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import InvalidInput, PartialBlockMapError, PreconditionError
from .sft import (
    ForbiddenSetSFT,
    _edge_shift,
    _slices_below,
    _unambiguous_word,
    apply_block_map,
    contains_word,
    enumerate_language,
    minimize_from_language,
)
from .words import Alphabet, PeriodicOrbit, Word, _windows, _word


@dataclass(frozen=True)
class SymbolExpansion:
    """Insert a fresh symbol after every occurrence of `symbol`."""

    symbol: str
    fresh: str


@dataclass(frozen=True)
class SymbolContraction:
    """Delete `removed` everywhere; it must occur exactly after `symbol`."""

    symbol: str
    removed: str


@dataclass(frozen=True)
class WordContraction:
    """Collapse every occurrence of `word` to the single symbol `fresh`."""

    word: Word
    fresh: str


@dataclass(frozen=True)
class Recode:
    """Sliding block conjugacy: `table` maps occurring width-`window`
    blocks to output symbols, `inverse` maps short image blocks back to
    the source symbol under them."""

    table: tuple[tuple[Word, str], ...]
    window: int
    inverse: tuple[tuple[Word, str], ...]

    @cached_property
    def forward_map(self) -> Mapping[Word, str]:
        """`table` as a read-only mapping, built once per move."""
        return MappingProxyType(dict(self.table))

    @property
    def inverse_map(self) -> dict[Word, str]:
        return dict(self.inverse)

    @property
    def inverse_window(self) -> int:
        return len(self.inverse[0][0]) if self.inverse else 1


Move = SymbolExpansion | SymbolContraction | WordContraction | Recode


def symbol_expand(x: ForbiddenSetSFT, symbol: str) -> tuple[ForbiddenSetSFT, SymbolExpansion]:
    """Image of the shift under doubling `symbol` with a fresh partner.

    The forbidden set of the image is written out directly; nothing is
    minimized, so the result is reproducible symbol for symbol.
    """
    if symbol not in x.alphabet:
        raise InvalidInput(f"{symbol!r} is not in the alphabet")
    new_alpha, fresh = x.alphabet.with_fresh()
    move = SymbolExpansion(symbol, fresh)
    forbidden = {_move_word(move, w) for w in x.forbidden}
    forbidden |= {Word([b, fresh]) for b in x.alphabet if b != symbol}
    forbidden.add(Word([fresh, fresh]))
    forbidden |= {Word([symbol, b]) for b in x.alphabet}
    return ForbiddenSetSFT(new_alpha, frozenset(forbidden)), move


def _transducer(move: Move) -> tuple[Callable[[object, str], tuple[object, tuple[str, ...]]], object, int]:
    """The move as one left-to-right rule (step, start, burn):
    `step(state, symbol)` returns the next state and the symbols written.

    A word contraction of w (length n) holds back a partial match w[:q]
    and keeps q, as in Knuth, Morris and Pratt (SIAM J. Comput. 6, 1977),
    reset after each match.  Every other move holds the last window - 1
    symbols and writes the `_move_word` image of each window.

    Burn-in: started in `start` at any position s of a point, the rule
    holds what a run from the far left holds once both have read `burn`
    symbols past s.  For w, a run holds the longest suffix since its last
    match that is a proper prefix of w.  Occurrences of w never overlap,
    so both runs match every occurrence they read, and their last matches
    differ only if the last occurrence began at or before s; both then end
    before s + n (the late run counts s as a match end).  After 2n - 2
    symbols both runs hold that suffix of the last n - 1 symbols.
    """
    if isinstance(move, WordContraction):
        w, fresh = tuple(move.word), move.fresh

        @cache
        def match(q: int, s: str) -> tuple[int, tuple[str, ...]]:
            held = w[:q] + (s,)
            if held == w:
                return 0, (fresh,)
            r = next(r for r in range(q + 2) if held[r:] == w[: q + 1 - r])
            return q + 1 - r, held[:r]

        return match, 0, 2 * len(w) - 2
    width = max(_memory_weight(move), 1)

    @cache
    def slide(held: tuple[str, ...], s: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        u = held + (s,)
        return (u, ()) if len(u) < width else (u[1:], tuple(_move_word(move, u)))

    return slide, (), width - 1


def _image(x: ForbiddenSetSFT, move: Move, k: int, alphabet: Alphabet) -> ForbiddenSetSFT:
    """Image of x under a move, as a k-step SFT over the symbols of
    `alphabet` that occur; k must be at least the step of the image.

    The move's rule runs along the rows of x's edge-shift automaton (Lind
    & Marcus, 1.5 and 2.3) from every (vertex, state) reached after its
    burn-in.  A walk deduplicated on (vertex, state, last k symbols
    written) collects each length-(k + 1) window of what it writes.  A
    step that writes nothing keeps its tail as it is, and a step that
    completes one window adds it whole.
    """
    step, start, burn = _transducer(move)
    rows = [tuple(d.items()) for d in _edge_shift(x).delta]
    runs = {(v, start) for v in range(len(rows))}
    for _ in range(burn):
        runs = {(dst, step(q, s)[0]) for v, q in runs for s, dst in rows[v]}
    found: set[tuple[str, ...]] = set()
    stack = [(v, q, ()) for v, q in runs]
    seen = set(stack)
    while stack:
        vtx, q, tail = stack.pop()
        for s, dst in rows[vtx]:
            q2, chunk = step(q, s)
            if chunk:
                written = tail + chunk
                extra = len(written) - k
                if extra == 1:
                    found.add(written)
                    written = written[1:]
                elif extra > 1:
                    found.update([written[i : i + k + 1] for i in range(extra)])
                    written = written[extra:]
                state = (dst, q2, written)
            else:
                state = (dst, q2, tail)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    live = {s for w in found for s in w}
    alpha = Alphabet(tuple([s for s in alphabet if s in live]))  # from a list: see `invariants.as_matrix`
    return minimize_from_language(alpha, _slices_below(found, k + 1), k)


def _check_pair_condition(x: ForbiddenSetSFT, anchor: str, removed: str) -> None:
    for u in enumerate_language(x, 2):
        if u[0] == anchor and u[1] != removed:
            raise PreconditionError(
                f"{anchor!r} is followed by {u[1]!r} (witness {u!r}); it must always precede {removed!r}"
            )
        if u[1] == removed and u[0] != anchor:
            raise PreconditionError(
                f"{removed!r} occurs after {u[0]!r} (witness {u!r}); it may only follow {anchor!r}"
            )


def symbol_contract(x: ForbiddenSetSFT, symbol: str, removed: str) -> tuple[ForbiddenSetSFT, SymbolContraction]:
    """Inverse of symbol expansion: delete `removed` everywhere.

    Requires the two-sided condition: `removed` occurs exactly after
    `symbol`, and `symbol` is always followed by `removed`.

    The image is m-step, m the step of x.  Let psi insert `removed` after
    each `symbol`; under the condition, a point y is in the image iff
    psi(y) is in x.  Take a forbidden word f of x that occurs in psi(y).
    Each symbol of y puts at least one symbol into f, so f lies inside
    psi(u) for some factor u of y with |u| <= |f| <= m + 1.  So the image
    is cut out by words of length at most m + 1.
    """
    if symbol not in x.alphabet or removed not in x.alphabet:
        raise InvalidInput("both symbols must be in the alphabet")
    if symbol == removed:
        raise PreconditionError("anchor and removed symbol must differ")
    _check_pair_condition(x, symbol, removed)
    move = SymbolContraction(symbol, removed)
    return _image(x, move, x.step, x.alphabet.without(removed)), move


def is_nonoverlapping(w: Word) -> bool:
    """No proper suffix of w is also a prefix of w."""
    n = len(w)
    if n == 0:
        raise InvalidInput("the empty word has no overlap type")
    return all(w[s:] != w[: n - s] for s in range(1, n))


def _overlap_witness(x: ForbiddenSetSFT, w: Word) -> Word | None:
    """A word showing two overlapping occurrences of w in the language,
    or None when no overlap is realized."""
    n = len(w)
    for s in range(1, n):
        if w[s:] == w[: n - s]:
            candidate = w[:s] + w
            if contains_word(x, candidate):
                return candidate
    return None


def admits_nontrivial_overlaps(x: ForbiddenSetSFT, w: Word | str) -> bool:
    """Whether two occurrences of w can overlap in a point of x.

    Cheaper than is_nonoverlapping as a contraction gate: a self-overlap
    that no point realizes does not block the move.  A plain string is
    refused when the alphabet has a multi-character symbol.
    """
    word = _unambiguous_word(w, x.alphabet)
    if len(word) == 0:
        raise InvalidInput("the empty word has no overlap type")
    if not contains_word(x, word):
        raise PreconditionError(f"{word!r} is not in the language")
    return _overlap_witness(x, word) is not None


def word_contract(x: ForbiddenSetSFT, word: Word | str) -> tuple[ForbiddenSetSFT, WordContraction]:
    """Collapse every occurrence of a word to one fresh symbol.

    The word must occur, and no two occurrences may overlap in any
    point.  One-symbol words reduce to a renaming.  A plain string is
    refused when the alphabet has a multi-character symbol.

    The image writes the fresh symbol for each occurrence of w and keeps
    every other symbol (`_transducer`).  With n = len(w), its step is at
    most max(m, n - 1), m the step of x.  Let psi substitute w back for
    the fresh symbol.  A point y is in the image iff
    - psi(y) has no forbidden factor of x; each such factor has at most
      m + 1 symbols, so it lies inside psi of at most m + 1 symbols of y;
    - every occurrence of w in psi(y) is the expansion of one fresh
      symbol; an occurrence lies inside psi of at most n symbols of y.
    Both are checked on factors of y of length max(m + 1, n), so the
    image is an SFT with forbidden words no longer than that.
    """
    w = _unambiguous_word(word, x.alphabet)
    n = len(w)
    if n == 0:
        raise InvalidInput("cannot contract the empty word")
    for s in w:
        if s not in x.alphabet:
            raise InvalidInput(f"{s!r} is not in the alphabet")
    if not contains_word(x, w):
        raise PreconditionError(f"{w!r} is not in the language")
    clash = _overlap_witness(x, w)
    if clash is not None:
        raise PreconditionError(f"occurrences of {w!r} overlap: {clash!r} is in the language")
    new_alpha, fresh = x.alphabet.with_fresh()
    move = WordContraction(w, fresh)
    if n == 1:
        old = w[0]
        alpha = Alphabet(tuple([fresh if s == old else s for s in x.alphabet.symbols]))  # see `invariants.as_matrix`
        forbidden = frozenset(Word([fresh if s == old else s for s in f]) for f in x.forbidden)
        return ForbiddenSetSFT(alpha, forbidden), move
    return _image(x, move, max(x.step, n - 1), new_alpha), move


def recode(x: ForbiddenSetSFT, table: Mapping, window: int) -> tuple[ForbiddenSetSFT, Recode]:
    """Apply a sliding block map that is invertible with short memory.

    The table must cover every occurring width-`window` block.  The
    inverse is derived by consistency over occurring blocks, first as a
    1-block map, then as a 2-block map; anything needing more memory is
    rejected.
    """
    if window < 1:
        raise InvalidInput("window must be at least 1")
    tbl: dict[Word, str] = {}
    for u, s in table.items():
        if not isinstance(s, str) or not s:
            raise InvalidInput(f"bad output symbol {s!r}")
        tbl[Word(u)] = s
    blocks = enumerate_language(x, window)
    for u in blocks:
        if u not in tbl:
            raise PartialBlockMapError(f"table is missing occurring block {u!r}", window=tuple(u))
    used = {u: tbl[u] for u in blocks}

    # the inverse reads q image symbols, those of the q windows of a
    # (window + q - 1)-block, and writes the block's first symbol
    for q in (1, 2):
        inverse: dict[Word, str] = {}
        for v in blocks if q == 1 else enumerate_language(x, window + 1):
            key = Word([used[v[i : i + window]] for i in range(q)])
            if inverse.setdefault(key, v[0]) != v[0]:
                break
        else:
            break
    else:
        raise PreconditionError("block map has no sliding inverse with memory below 2")

    out_alpha = Alphabet(tuple(sorted(set(used.values()))))
    k_img = x.step + (window - 1) + (q - 1)
    move = Recode(
        table=tuple(sorted(used.items())),
        window=window,
        inverse=tuple(sorted(inverse.items())),
    )
    return _image(x, move, k_img, out_alpha), move


@dataclass(frozen=True)
class MovePipeline:
    """A chain of flow moves with every intermediate shift kept.

    stages[0] is the source; stages[i + 1] is the image of stages[i]
    under moves[i].
    """

    stages: tuple[ForbiddenSetSFT, ...]
    moves: tuple[Move, ...]

    def __post_init__(self) -> None:
        if len(self.stages) != len(self.moves) + 1:
            raise InvalidInput("a pipeline needs exactly one more stage than moves")

    @classmethod
    def start(cls, x: ForbiddenSetSFT) -> "MovePipeline":
        return cls((x,), ())

    @property
    def source(self) -> ForbiddenSetSFT:
        return self.stages[0]

    @property
    def result(self) -> ForbiddenSetSFT:
        return self.stages[-1]

    def _push(self, pair: tuple[ForbiddenSetSFT, Move]) -> "MovePipeline":
        y, mv = pair
        return MovePipeline(self.stages + (y,), self.moves + (mv,))

    def expand(self, symbol: str) -> "MovePipeline":
        return self._push(symbol_expand(self.result, symbol))

    def contract(self, symbol: str, removed: str) -> "MovePipeline":
        return self._push(symbol_contract(self.result, symbol, removed))

    def word_contract(self, word: Word | str) -> "MovePipeline":
        return self._push(word_contract(self.result, word))

    def recode(self, table: Mapping, window: int) -> "MovePipeline":
        return self._push(recode(self.result, table, window))


def _move_word(move: Move, v: Word) -> Word:
    """Image of a finite word under one move, read as plain tuples."""
    if isinstance(move, SymbolExpansion):
        symbol, fresh = move.symbol, move.fresh
        out: list[str] = []
        for s in v:
            out.append(s)
            if s == symbol:
                out.append(fresh)
        return _word(out)
    if isinstance(move, SymbolContraction):
        removed = move.removed
        return _word([s for s in v if s != removed])
    if isinstance(move, WordContraction):
        w, fresh = move.word, move.fresh
        out = []
        skip = 0
        for f in _windows(v, len(w)):
            if skip:
                skip -= 1
            elif f == w:
                out.append(fresh)
                skip = len(w) - 1
            else:
                out.append(f[0])
        return _word(out)
    if isinstance(move, Recode):
        return apply_block_map(move.forward_map, v, move.window)
    raise InvalidInput(f"unknown move {move!r}")


def pipeline_apply_word(pipe: MovePipeline, word: Word | str) -> Word:
    """Image of a finite language word under the whole pipeline.

    Boundary windows are consumed along the way, so the image can be
    shorter than the input, even empty.  A plain string is refused when
    the source alphabet has a multi-character symbol.
    """
    v = _unambiguous_word(word, pipe.source.alphabet)
    if not contains_word(pipe.source, v):
        raise PreconditionError(f"{v!r} is not in the source language")
    for mv in pipe.moves:
        v = _move_word(mv, v)
    return v


def _memory_weight(move: Move) -> int:
    if isinstance(move, Recode):
        return move.window
    if isinstance(move, WordContraction):
        return len(move.word)
    return 0


def deciding_length_bound(pipe: MovePipeline) -> int:
    """Input length past which finite-word images pin down orbit images.

    Word contractions count one elementary stage per symbol of the
    contracted word; each stage at worst halves lengths and looks at a
    bounded window, which gives the bound below.  Periodic transport
    does not use it; past this length, the images of successive powers
    of a cycle differ by one inserted repetition of the orbit image.
    """
    n = sum(len(mv.word) if isinstance(mv, WordContraction) else 1 for mv in pipe.moves)
    m = max((_memory_weight(mv) for mv in pipe.moves), default=0)
    return ((m + 1) * n + 1) * 2**n


def pipeline_apply_periodic(pipe: MovePipeline, orbit: PeriodicOrbit | Word | str) -> PeriodicOrbit:
    """Image of a periodic orbit under the pipeline.

    Each move's rule (`_transducer`) runs round the cycle word: after its
    burn-in, what it writes over one more period is a period of the image.
    A plain string is refused when the source alphabet has a
    multi-character symbol.
    """
    src = pipe.source
    if isinstance(orbit, PeriodicOrbit):
        cycle = orbit.cycle
    else:
        cycle = PeriodicOrbit(_unambiguous_word(orbit, src.alphabet)).cycle
    reps = -(-(src.step + 1) // len(cycle)) + 1
    if not contains_word(src, cycle * reps):
        raise PreconditionError(f"the periodic point of {cycle!r} is not in the source shift")
    for mv in pipe.moves:
        step, state, burn = _transducer(mv)
        image: list[str] = []
        for i in range(burn + len(cycle)):
            state, chunk = step(state, cycle[i % len(cycle)])
            if i >= burn:
                image += chunk
        cycle = _word(image)
    return PeriodicOrbit(cycle)
