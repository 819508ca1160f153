"""Words over finite alphabets, and periodic orbits.

A word is a finite tuple of symbols.  Symbols are strings; most are a
single character, but freshly minted symbols (from splittings and
contractions) carry longer names, so nothing here assumes length one.

Symbols are checked where outside input becomes a word: in `Word(...)`,
which hands a `Word` back as it is, and on the output symbols of
`sft.apply_block_map`.  Slices, concatenations and factors of Words are
not checked again.  The per-symbol loops over long words in `sft` and
`moves` (move images, membership, block maps) read the word's windows
as plain tuples (`_windows`), without copying the word, and the language
core of `sft` and move images work on plain tuples, which hash and
compare equal to Words; each result is wrapped once with `_word`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .errors import InvalidInput


class Word(tuple):
    """An immutable finite word.

    Construction accepts either an iterable of symbols or a plain
    string, which is split into single-character symbols.  Symbols are
    checked once, when a word is built from outside input; slices,
    concatenations, powers and factors of Words reuse the checked
    symbols without checking them again, and a Word is returned as is:

    >>> Word("011")
    Word('011')
    >>> Word(["10", "0"])
    Word(['10', '0'])
    >>> Word("01") + Word("1")
    Word('011')
    """

    __slots__ = ()

    def __new__(cls, symbols: Iterable[str] = ()) -> "Word":
        if isinstance(symbols, Word):
            return symbols
        if not isinstance(symbols, str):
            symbols = tuple(symbols)
            _check_symbols(symbols)
        return super().__new__(cls, symbols)

    def __add__(self, other) -> "Word":
        if not isinstance(other, Word):
            other = Word(other)
        return _word(tuple.__add__(self, other))

    def __radd__(self, other) -> "Word":
        return Word(other) + self

    def __mul__(self, n: int) -> "Word":
        return _word(tuple.__mul__(self, n))

    __rmul__ = __mul__

    def __getitem__(self, index):
        result = tuple.__getitem__(self, index)
        return _word(result) if isinstance(index, slice) else result

    def subword(self, i: int, j: int) -> "Word":
        """Symbols i through j inclusive, 1-indexed."""
        if not (1 <= i <= j <= len(self)):
            raise IndexError(f"subword({i}, {j}) out of range for length {len(self)}")
        return self[i - 1 : j]

    def factors(self, n: int) -> Iterator["Word"]:
        """All length-n factors, left to right, with repeats."""
        if n == 0:
            return iter([EMPTY_WORD] * (len(self) + 1))
        return map(_word, _windows(self, n))

    def text(self) -> str:
        """Concatenated symbols.  Only faithful when symbols have length 1."""
        return "".join(self)

    def __repr__(self) -> str:
        if all(len(s) == 1 for s in self):
            return f"Word({self.text()!r})"
        return f"Word({list(self)!r})"


def _check_symbols(symbols: Iterable[str]) -> None:
    for s in symbols:
        if not isinstance(s, str) or not s:
            raise TypeError(f"symbols must be non-empty strings, got {s!r}")


def _windows(w: Word, n: int) -> Iterator[tuple[str, ...]]:
    """The length-n factors of w (n >= 1) as plain tuples, left to right,
    read without copying w."""
    return zip(*(islice(w, j, None) for j in range(n)))


def _word(symbols: Iterable[str]) -> Word:
    """A Word over symbols already checked, taken from a Word or an Alphabet."""
    return tuple.__new__(Word, symbols)


EMPTY_WORD = Word()


@dataclass(frozen=True)
class Alphabet:
    """An ordered finite set of symbols.

    Symbol order is fixed at construction and used everywhere a
    deterministic enumeration is needed.
    """

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.symbols)) != len(self.symbols):
            raise InvalidInput("alphabet symbols must be distinct")
        for s in self.symbols:
            if not isinstance(s, str) or not s:
                raise InvalidInput(f"bad alphabet symbol: {s!r}")

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.symbols

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def with_fresh(self) -> tuple["Alphabet", str]:
        """Extend by one new symbol, returning (alphabet, symbol).

        The first fresh name is "◇", then "◇2", "◇3", ...; numbering
        skips any name already present so repeated extension stays
        collision-free.
        """
        if "◇" not in self.symbols:
            fresh = "◇"
        else:
            n = 2
            while f"◇{n}" in self.symbols:
                n += 1
            fresh = f"◇{n}"
        return Alphabet(self.symbols + (fresh,)), fresh

    def without(self, symbol: str) -> "Alphabet":
        if symbol not in self.symbols:
            raise InvalidInput(f"{symbol!r} not in alphabet")
        return Alphabet(tuple([s for s in self.symbols if s != symbol]))  # from a list: see `invariants.as_matrix`


def _least_rotation(w: Word) -> Word:
    return min(w[k:] + w[:k] for k in range(len(w)))


def _primitive_root(w: Word) -> Word:
    n = len(w)  # > 0, so d = n always matches
    return next(w[:d] for d in range(1, n + 1) if n % d == 0 and w[:d] * (n // d) == w)


@dataclass(frozen=True)
class PeriodicOrbit:
    """The orbit of a periodic point, stored as a canonical cycle word.

    Canonical form: the primitive root of the given word, rotated to its
    lexicographically least position.  Two words generate the same orbit
    iff their canonical forms coincide.

    >>> PeriodicOrbit(Word("0101")).cycle
    Word('01')
    >>> PeriodicOrbit(Word("10")) == PeriodicOrbit(Word("01"))
    True
    """

    cycle: Word

    def __post_init__(self) -> None:
        if len(self.cycle) == 0:
            raise InvalidInput("a periodic orbit needs a non-empty cycle")
        canon = _least_rotation(_primitive_root(Word(self.cycle)))
        object.__setattr__(self, "cycle", canon)

    @property
    def period(self) -> int:
        return len(self.cycle)
