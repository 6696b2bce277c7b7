"""Finite words and eventually periodic addresses over a 1-based alphabet.

A system with m generators indexes them 1..m.  Every word carries its
alphabet size so that cross-system mixups fail loudly instead of producing
nonsense nerves.  Addresses (right-infinite words) are restricted to the
eventually periodic ones, which is exactly what exact arithmetic can name.

This lowest module also holds the package's value-class bases: `_Record`
(slotted fields, one constructor, equality, repr, pickling) and `_Frozen`
(immutable and hashable), so that no module builds its classes at import
time.  A record states its fields once, in `_fields` (with `_defaults` for
the optional ones at its end), and the one constructor fills them.  A class
writes its own constructor only to validate or normalise its arguments
(`Word`, `Address`, `Point2`, `RationalAffineMap`, `ConvexPolygon`, `Budget`,
`FieldKind`), or because it is built once per oracle query (`Verdict`).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of an immutable value."""


def _rebuild(cls: type, values: tuple) -> object:
    """The instance of cls whose fields hold values, built without __init__."""
    obj = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(obj, name, value)
    return obj


class _Record:
    """A slotted record of the fields `_fields` names: equal to a record of
    its own class with equal fields, shown as Class(field=value, ...) and
    pickled as its field values.  Mutable and unhashable.

    The one constructor binds positional, then keyword arguments to
    `_fields`.  A field left out takes its value from `_defaults`, where a
    type (`list`, `dict`) stands for a new empty value of that type; the
    fields with defaults end `_fields`, so positional order keeps its
    meaning.  A missing, unknown, repeated or surplus argument raises
    TypeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    __hash__ = None

    def __init__(self, *args: object, **kwargs: object) -> None:
        # Every field positional, the common call, binds nothing.
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The values of all fields, from leading positional arguments,
        keyword arguments and `_defaults`."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                default = cls._defaults[name]
                values.append(default() if isinstance(default, type) else default)
            else:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{cls.__qualname__}() got "
                            + ("multiple values for" if name in fields else "an unexpected")
                            + f" argument {name!r}")
        return values

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields) + ")")

    def __reduce__(self):
        return (_rebuild, (self.__class__, self._astuple()))


class _Frozen(_Record):
    """Immutable slotted values: only the constructors set the slots, and
    the value hashes as its field tuple."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._astuple())


class _Ordered(_Frozen):
    """Frozen values that order as their field tuples."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() < other._astuple()
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() <= other._astuple()
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() > other._astuple()
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() >= other._astuple()
        return NotImplemented


class Word(_Ordered):
    """A finite word w_1 w_2 ... w_k over {1, ..., m}.  k = 0 is allowed.
    Words compare as their (symbols, m) tuples."""

    __slots__ = _fields = ("symbols", "m")
    symbols: tuple[int, ...]
    m: int

    def __init__(self, symbols: tuple[int, ...], m: int) -> None:
        if m < 1:
            raise ValueError(f"alphabet size must be at least 1, got {m}")
        for s in symbols:
            if not isinstance(s, int) or isinstance(s, bool) or not 1 <= s <= m:
                raise ValueError(f"symbol {s!r} outside 1..{m}")
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "m", m)

    @staticmethod
    def _of(symbols: tuple[int, ...], m: int) -> "Word":
        """The word of symbols already known to lie in 1..m, left unchecked."""
        w = object.__new__(Word)
        object.__setattr__(w, "symbols", symbols)
        object.__setattr__(w, "m", m)
        return w

    # Words are hashed and compared as dict and set keys on the query paths,
    # so these two are written for the two fields rather than left to _Frozen.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is Word:
            return self.symbols == other.symbols and self.m == other.m
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.symbols, self.m))

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


class Address(_Ordered):
    """Eventually periodic right-infinite word: preperiod, then the period forever.

    Instances are normalized on construction (primitive period, preperiod not
    absorbable into the period), so two addresses compare equal exactly when
    they denote the same infinite sequence.  Addresses compare as their
    (preperiod, period) tuples.
    """

    __slots__ = _fields = ("preperiod", "period")
    preperiod: Word
    period: Word

    def __init__(self, preperiod: Word, period: Word) -> None:
        if preperiod.m != period.m:
            raise ValueError("preperiod and period use different alphabets")
        if len(period) == 0:
            raise ValueError("period must be nonempty")
        pre, per = _normalize(preperiod.symbols, period.symbols)
        object.__setattr__(self, "preperiod", preperiod if pre == preperiod.symbols
                           else Word(pre, period.m))
        object.__setattr__(self, "period", period if per == period.symbols
                           else Word(per, period.m))

    @staticmethod
    def _of(pre: tuple[int, ...], per: tuple[int, ...], m: int) -> "Address":
        """The address of symbol tuples already in 1..m and normalized
        (`_normalize`), left unchecked."""
        a = object.__new__(Address)
        object.__setattr__(a, "preperiod", Word._of(pre, m))
        object.__setattr__(a, "period", Word._of(per, m))
        return a

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
