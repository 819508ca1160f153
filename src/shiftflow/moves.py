"""Flow moves on shifts of finite type: expansions, contractions, recodings.

Each move maps an SFT to an SFT and is recorded in a pipeline so finite
words and periodic orbits can be pushed through the whole composite.
Move functions return (image shift, move record).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

from .errors import InvalidInput, PartialBlockMapError, PreconditionError, ShiftSpaceError
from .sft import (
    ForbiddenSetSFT,
    _natural_edge_shift,
    apply_block_map,
    contains_word,
    enumerate_language,
    minimize_from_language,
)
from .words import EMPTY_WORD, Alphabet, PeriodicOrbit, Word


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

    def rewrite(w: Word) -> Word:
        out: list[str] = []
        for s in w:
            out.append(s)
            if s == symbol:
                out.append(fresh)
        return Word(out)

    forbidden = {rewrite(w) for w in x.forbidden}
    forbidden |= {Word([b, fresh]) for b in x.alphabet if b != symbol}
    forbidden.add(Word([fresh, fresh]))
    forbidden |= {Word([symbol, b]) for b in x.alphabet}
    return ForbiddenSetSFT(new_alpha, frozenset(forbidden)), SymbolExpansion(symbol, fresh)


def _deletion_image(
    x: ForbiddenSetSFT,
    should_delete: Callable[[str | None, str], bool],
    drop_first: bool,
    alphabet: Alphabet,
) -> ForbiddenSetSFT:
    """SFT presenting the image of x under deleting selected positions.

    `should_delete(prev, s)` sees the preceding source symbol (None at a
    walk start).  With `drop_first` the leading image symbol of every
    walk is discarded: its own fate depends on context the walk cannot
    see.  Deleted positions are never adjacent, so walks make progress.
    """
    m = x.step
    k_img = 2 * m + 1
    jmax = k_img + 1
    need = jmax + (1 if drop_first else 0)
    data = _natural_edge_shift(x)
    found: set[Word] = set()
    cap = 2 * need + m + 8
    for v in data.graph.vertices:
        prev: str | None = None
        img: list[str] = []
        for s in v:
            if not should_delete(prev, s):
                img.append(s)
            prev = s
        stack = [(v, prev, tuple(img), 0)]
        while stack:
            vtx, pr, image, steps = stack.pop()
            if len(image) >= need:
                found.add(Word(image[1:] if drop_first else image))
                continue
            if steps > cap:
                raise ShiftSpaceError("deletion never thins out; contraction preconditions do not hold")
            for e, s in data.out_map[vtx]:
                nxt = image if should_delete(pr, s) else image + (s,)
                stack.append((e.dst, s, nxt, steps + 1))
    bsets: dict[int, set[Word]] = {jmax: found, 0: {EMPTY_WORD}}
    for j in range(1, jmax):
        bsets[j] = {f for w in found for f in w.factors(j)}
    return minimize_from_language(alphabet, bsets, k_img)


def prune_dead_symbols(x: ForbiddenSetSFT) -> ForbiddenSetSFT:
    """Drop alphabet symbols that occur in no point, and with them every
    forbidden word that mentions one (those constraints are vacuous)."""
    live = tuple(s for s in x.alphabet if contains_word(x, Word([s])))
    if len(live) == len(x.alphabet):
        return x
    keep = set(live)
    forbidden = frozenset(w for w in x.forbidden if all(s in keep for s in w))
    return ForbiddenSetSFT(Alphabet(live), forbidden)


def _check_pair_condition(x: ForbiddenSetSFT, anchor: str, removed: str, require_preceded: bool) -> None:
    for u in sorted(set(enumerate_language(x, 2))):
        if u[0] == anchor and u[1] != removed:
            raise PreconditionError(
                f"{anchor!r} is followed by {u[1]!r} (witness {u!r}); it must always precede {removed!r}"
            )
        if require_preceded and u[1] == removed and u[0] != anchor:
            raise PreconditionError(
                f"{removed!r} occurs after {u[0]!r} (witness {u!r}); it may only follow {anchor!r}"
            )


def symbol_contract(x: ForbiddenSetSFT, symbol: str, removed: str) -> tuple[ForbiddenSetSFT, SymbolContraction]:
    """Inverse of symbol expansion: delete `removed` everywhere.

    Requires the two-sided condition: `removed` occurs exactly after
    `symbol`, and `symbol` is always followed by `removed`.
    """
    if symbol not in x.alphabet or removed not in x.alphabet:
        raise InvalidInput("both symbols must be in the alphabet")
    if symbol == removed:
        raise PreconditionError("anchor and removed symbol must differ")
    _check_pair_condition(x, symbol, removed, require_preceded=True)
    y = _deletion_image(x, lambda p, s: s == removed, drop_first=False, alphabet=x.alphabet.without(removed))
    return prune_dead_symbols(y), SymbolContraction(symbol, removed)


def _standard_contract(x: ForbiddenSetSFT, anchor: str, removed: str) -> ForbiddenSetSFT:
    """Delete `removed` exactly where it follows `anchor`.

    Unlike symbol_contract, `removed` may occur elsewhere and survives
    there.  Used stepwise by word contraction.
    """
    if anchor == removed:
        raise PreconditionError("anchor and removed symbol must differ")
    _check_pair_condition(x, anchor, removed, require_preceded=False)
    y = _deletion_image(x, lambda p, s: p == anchor and s == removed, drop_first=True, alphabet=x.alphabet)
    return prune_dead_symbols(y)


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
    that no point realizes does not block the move.
    """
    word = Word(w)
    if len(word) == 0:
        raise InvalidInput("the empty word has no overlap type")
    if not contains_word(x, word):
        raise PreconditionError(f"{word!r} is not in the language")
    return _overlap_witness(x, word) is not None


def _recode_image(
    x: ForbiddenSetSFT,
    table: Mapping[Word, str],
    window: int,
    out_alphabet: Alphabet,
    k_img: int,
) -> ForbiddenSetSFT:
    jmax = k_img + 1
    source_words = enumerate_language(x, jmax + window - 1)
    top = {apply_block_map(table, u, window) for u in source_words}
    bsets: dict[int, set[Word]] = {jmax: top, 0: {EMPTY_WORD}}
    for j in range(1, jmax):
        bsets[j] = {f for w in top for f in w.factors(j)}
    return minimize_from_language(out_alphabet, bsets, k_img)


def word_contract(x: ForbiddenSetSFT, word: Word | str) -> tuple[ForbiddenSetSFT, WordContraction]:
    """Collapse every occurrence of a word to one fresh symbol.

    The word must occur, and no two occurrences may overlap in any
    point.  One-symbol words reduce to a renaming.
    """
    w = Word(word)
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
        alpha = Alphabet(tuple(fresh if s == old else s for s in x.alphabet.symbols))
        forbidden = frozenset(Word(fresh if s == old else s for s in f) for f in x.forbidden)
        return ForbiddenSetSFT(alpha, forbidden), move
    table = {u: (fresh if u == w else u[0]) for u in enumerate_language(x, n)}
    k_rec = x.step + n - 1
    y = prune_dead_symbols(_recode_image(x, table, n, new_alpha, k_rec))
    for i in range(1, n):
        y = _standard_contract(y, fresh, w[i])
    return y, move


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

    inverse: dict[Word, str] | None = {}
    for u in blocks:
        key = Word([used[u]])
        if inverse.get(key, u[0]) != u[0]:
            inverse = None
            break
        inverse[key] = u[0]
    if inverse is None:
        inverse = {}
        for v in enumerate_language(x, window + 1):
            key = Word([used[v[:window]], used[v[1:]]])
            if inverse.get(key, v[0]) != v[0]:
                raise PreconditionError("block map has no sliding inverse with memory below 2")
            inverse[key] = v[0]
    q = len(next(iter(inverse))) if inverse else 1

    out_alpha = Alphabet(tuple(sorted(set(used.values()))))
    k_img = x.step + (window - 1) + (q - 1)
    y = _recode_image(x, used, window, out_alpha, k_img)
    move = Recode(
        table=tuple(sorted(used.items())),
        window=window,
        inverse=tuple(sorted(inverse.items())),
    )
    return y, move


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
    if isinstance(move, SymbolExpansion):
        out: list[str] = []
        for s in v:
            out.append(s)
            if s == move.symbol:
                out.append(move.fresh)
        return Word(out)
    if isinstance(move, SymbolContraction):
        return Word(s for s in v if s != move.removed)
    if isinstance(move, WordContraction):
        w, n = move.word, len(move.word)
        out = []
        i = 0
        limit = len(v) - n + 1
        while i < limit:
            if v[i : i + n] == w:
                out.append(move.fresh)
                i += n
            else:
                out.append(v[i])
                i += 1
        return Word(out)
    if isinstance(move, Recode):
        return apply_block_map(move.forward_map, v, move.window)
    raise InvalidInput(f"unknown move {move!r}")


def pipeline_apply_word(pipe: MovePipeline, word: Word | str) -> Word:
    """Image of a finite language word under the whole pipeline.

    Boundary windows are consumed along the way, so the image can be
    shorter than the input, even empty.
    """
    v = Word(word)
    if not contains_word(pipe.source, v):
        raise PreconditionError(f"{v!r} is not in the source language")
    for mv in pipe.moves:
        v = _move_word(mv, v)
    return v


def _elementary_stages(move: Move) -> int:
    return len(move.word) if isinstance(move, WordContraction) else 1


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
    n = sum(_elementary_stages(mv) for mv in pipe.moves)
    m = max((_memory_weight(mv) for mv in pipe.moves), default=0)
    return ((m + 1) * n + 1) * 2**n


def _wrap(cycle: Word, extra: int) -> Word:
    """The cycle followed by its first `extra` symbols, read cyclically."""
    return (cycle * (1 + -(-extra // len(cycle))))[: len(cycle) + extra]


def pipeline_apply_periodic(pipe: MovePipeline, orbit: PeriodicOrbit | Word | str) -> PeriodicOrbit:
    """Image of a periodic orbit under the pipeline.

    Each move is a local rule with a window of `_memory_weight` symbols,
    applied to the cycle word of the orbit.  Expansions and symbol
    contractions act on the cycle as it is.  A recode slides its window
    over the cycle extended cyclically by window - 1 symbols.  A word
    contraction first rotates the cycle to start at an occurrence of the
    word, if the cyclic word has one, and then acts as a recode with the
    word's length as window; occurrences never overlap, so none wraps
    past the rotation point.
    """
    cycle = orbit.cycle if isinstance(orbit, PeriodicOrbit) else PeriodicOrbit(Word(orbit)).cycle
    src = pipe.source
    reps = -(-(src.step + 1) // len(cycle)) + 1
    if not contains_word(src, cycle * reps):
        raise PreconditionError(f"the periodic point of {cycle!r} is not in the source shift")
    for mv in pipe.moves:
        extra = max(_memory_weight(mv) - 1, 0)
        if isinstance(mv, WordContraction):
            wrapped = _wrap(cycle, extra)
            at = next((i for i in range(len(cycle)) if wrapped[i : i + extra + 1] == mv.word), 0)
            cycle = cycle[at:] + cycle[:at]
        cycle = _move_word(mv, _wrap(cycle, extra))
    return PeriodicOrbit(cycle)
