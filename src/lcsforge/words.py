"""Freely reduced words over an indexed generator alphabet.

A letter is a nonzero ``int``: ``+i`` is the generator ``x_i`` (``i >= 1``)
and ``-i`` is its inverse; ``word`` and ``reduce_letters`` refuse any other
type rather than coerce it.  Every ``Word`` is stored freely reduced, so group
equality is plain tuple equality.  The commutator convention throughout is
``[a, b] = a b a^-1 b^-1``.

``Word(...)``, ``word`` and ``parse_word`` validate; ``Word._of`` does not,
and only kernels whose result is reduced by construction use it.  ``Word``
is a plain class that hashes by its letters, so words key tables.
"""

from __future__ import annotations

import re
from typing import Iterable

__all__ = [
    "Word",
    "EPSILON",
    "word",
    "reduce_letters",
    "concat",
    "invert",
    "commutator",
    "support",
    "format_word",
    "parse_word",
]


def _encode(letter: int) -> int:
    if type(letter) is not int or not letter:
        raise ValueError(f"a letter is a nonzero int, got {letter!r}")
    return letter


def _reduce(pieces: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """The free-reduction loop: freely reduce the concatenation of the
    encoded letter sequences."""
    stack: list[int] = []
    for piece in pieces:
        for v in piece:
            if stack and stack[-1] == -v:
                stack.pop()
            else:
                stack.append(v)
    return tuple(stack)


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence; the result has no adjacent v, -v pair."""
    return _reduce((map(_encode, letters),))


class Word:
    """A freely reduced word; the empty tuple is the identity.  Assigning to it raises."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        if any(a == -b for a, b in zip(letters, letters[1:])):
            raise ValueError("letters are not freely reduced; use word()")
        if any(v == 0 for v in letters):
            raise ValueError("0 is not a valid signed letter")
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _of(cls, letters: tuple[int, ...]) -> "Word":
        """Unchecked: the caller guarantees nonzero, freely reduced letters."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return Word, (self.letters,)

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.letters == other.letters

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


EPSILON = Word()


def word(letters: Iterable[int]) -> Word:
    """Reduce an arbitrary letter sequence into a Word; ``_encode`` rejects
    any letter but a nonzero int and ``_reduce`` leaves no adjacent inverse pair."""
    return Word._of(reduce_letters(letters))


def concat(*words: Word) -> Word:
    """The product; free reduction of nonzero letters stays nonzero."""
    return Word._of(_reduce(w.letters for w in words))


def invert(u: Word) -> Word:
    """The inverse; reversing and negating a reduced word keeps it reduced."""
    return Word._of(tuple(-v for v in reversed(u.letters)))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1."""
    return concat(u, v, invert(u), invert(v))


def support(u: Word) -> frozenset[int]:
    """The set of generator indices occurring in u."""
    return frozenset(abs(v) for v in u.letters)


def format_word(u: Word) -> str:
    """Serialize: ``x3`` for a generator, ``X3`` for its inverse, ``.`` joined;
    the identity is ``e``."""
    if not u.letters:
        return "e"
    return ".".join(f"x{v}" if v > 0 else f"X{-v}" for v in u.letters)


_LETTER_RE = re.compile(r"^([xX])(\d+)$")


def parse_word(text: str) -> Word:
    text = text.strip()
    if text == "e" or text == "":
        return EPSILON
    letters = []
    for tok in text.split("."):
        m = _LETTER_RE.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        idx = int(m.group(2))
        if idx < 1:
            raise ValueError(f"bad generator index in {tok!r}")
        letters.append(idx if m.group(1) == "x" else -idx)
    return word(letters)
