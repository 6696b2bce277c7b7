"""Finite words and eventually periodic addresses over a 1-based alphabet.

A system with m generators indexes them 1..m.  Every word carries its
alphabet size so that cross-system mixups fail loudly instead of producing
nonsense nerves.  Addresses (right-infinite words) are restricted to the
eventually periodic ones, which is exactly what exact arithmetic can name.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Word:
    """A finite word w_1 w_2 ... w_k over {1, ..., m}.  k = 0 is allowed."""

    symbols: tuple[int, ...]
    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"alphabet size must be at least 1, got {self.m}")
        for s in self.symbols:
            if not isinstance(s, int) or isinstance(s, bool) or not 1 <= s <= self.m:
                raise ValueError(f"symbol {s!r} outside 1..{self.m}")

    @staticmethod
    def _of(symbols: tuple[int, ...], m: int) -> "Word":
        """The word of symbols already known to lie in 1..m, left unchecked."""
        w = object.__new__(Word)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "m", m)
        return w

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, i: int) -> int:
        # 0-based positional access: w[0] is the first symbol w_1.
        return self.symbols[i]

    def __str__(self) -> str:
        if self.m <= 9:
            return "".join(str(s) for s in self.symbols) or "()"
        return "(" + ",".join(str(s) for s in self.symbols) + ")"

    def extended(self, symbol: int) -> "Word":
        return Word(self.symbols + (symbol,), self.m)


@dataclass(frozen=True, order=True)
class Address:
    """Eventually periodic right-infinite word: preperiod, then the period forever.

    Instances are normalized on construction (primitive period, preperiod not
    absorbable into the period), so two addresses compare equal exactly when
    they denote the same infinite sequence.
    """

    preperiod: Word
    period: Word

    def __post_init__(self) -> None:
        if self.preperiod.m != self.period.m:
            raise ValueError("preperiod and period use different alphabets")
        if len(self.period) == 0:
            raise ValueError("period must be nonempty")
        pre, per = _normalize(self.preperiod.symbols, self.period.symbols)
        if pre != self.preperiod.symbols:
            object.__setattr__(self, "preperiod", Word(pre, self.m))
        if per != self.period.symbols:
            object.__setattr__(self, "period", Word(per, self.m))

    @property
    def m(self) -> int:
        return self.period.m

    def symbol_at(self, i: int) -> int:
        pre = self.preperiod.symbols
        if i < len(pre):
            return pre[i]
        return self.period.symbols[(i - len(pre)) % len(self.period)]

    def __str__(self) -> str:
        return f"{self.preperiod}({self.period})^inf" if len(self.preperiod) else f"({self.period})^inf"


def _normalize(pre: tuple[int, ...], per: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Shrink the period to its primitive root.
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per[:d] * (n // d) == per:
            per = per[:d]
            break
    # Absorb a preperiod tail that merely repeats the period's end.
    pre = list(pre)
    per = list(per)
    while pre and pre[-1] == per[-1]:
        per.insert(0, per.pop())
        pre.pop()
    return tuple(pre), tuple(per)


def enumerate_words(m: int, k: int) -> list[Word]:
    """All m^k words of length k, in lexicographic order."""
    if k < 0:
        raise ValueError("length must be nonnegative")
    return [Word(t, m) for t in product(range(1, m + 1), repeat=k)]


def symbols_index(m: int, symbols: Iterable[int]) -> int:
    """The vertex index of the word with these symbols among the m^k words of
    its length k, in lexicographic order: the sum of (w_i - 1) m^(k - i)."""
    index = 0
    for symbol in symbols:
        index = index * m + symbol - 1
    return index


def word_index(m: int, level: int, w: Word) -> int:
    """symbols_index of w, which must be a length-`level` word over m symbols
    (KeyError otherwise)."""
    if w.m != m or len(w) != level:
        raise KeyError(w)
    return symbols_index(m, w.symbols)


def indexed_word(m: int, level: int, v: int) -> Word:
    """The word of vertex index v, the inverse of symbols_index: the base-m
    digits of v, each plus one."""
    if not 0 <= v < m ** level:
        raise IndexError(f"vertex {v} outside 0..{m ** level - 1}")
    return Word(tuple(v // m ** t % m + 1 for t in range(level - 1, -1, -1)), m)


def word_from_string(text: str, m: int) -> Word:
    """Parse a digit string like "131" (alphabets up to 9 symbols only)."""
    if m > 9:
        raise ValueError("digit-string words need m <= 9; pass symbol lists instead")
    if not text:
        return Word((), m)
    if not text.isdigit():
        raise ValueError(f"not a digit string: {text!r}")
    return Word(tuple(int(c) for c in text), m)
