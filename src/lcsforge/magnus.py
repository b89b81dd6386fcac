"""Truncated Magnus embedding, filtration depths, and Hall bases.

The embedding sends ``x_i -> 1 + X_i`` into noncommutative integer
polynomials truncated above a caller-supplied degree cutoff; inverse letters
expand to the alternating geometric series.  A word lies in the k-th lower
central series term exactly when its embedded series is 1 modulo degree k,
which turns depth and Johnson-level queries into finite integer computations
valid for every k up to the cutoff.

Monomials are tuples of generator indices; a series keeps all monomials of
length <= cutoff and discards anything longer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .autom import FreeEndo, ia_check
from .words import Word, commutator, concat, word

__all__ = [
    "TruncatedSeries",
    "series_one",
    "series_mul",
    "magnus_embed",
    "lcs_depth",
    "johnson_level",
    "HallTree",
    "leaf",
    "bracket",
    "hall_basis",
    "witt_dimension",
    "expand_bracket",
    "format_series",
]

Monomial = tuple[int, ...]


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer noncommutative polynomial with all terms of degree > cutoff
    dropped.  ``terms`` holds no zero coefficients."""

    cutoff: int
    terms: tuple[tuple[Monomial, int], ...]

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        for mono, coeff in self.terms:
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            if len(mono) > self.cutoff:
                raise ValueError("monomial longer than cutoff stored")

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

    def coefficient(self, mono: Monomial) -> int:
        return self.as_dict().get(tuple(mono), 0)

    def min_positive_degree(self) -> int | None:
        degrees = [len(m) for m, _ in self.terms if m]
        return min(degrees) if degrees else None

    def __repr__(self) -> str:
        return f"TruncatedSeries({format_series(self)!r}, cutoff={self.cutoff})"


def _freeze(terms: dict[Monomial, int], cutoff: int) -> TruncatedSeries:
    return TruncatedSeries(cutoff, tuple(sorted(terms.items())))


def series_one(cutoff: int) -> TruncatedSeries:
    return _freeze({(): 1}, cutoff)


def _mul_dicts(
    a: dict[Monomial, int], b: Sequence[tuple[Monomial, int]], cutoff: int
) -> dict[Monomial, int]:
    """The truncated product a * b; b is a sequence of (monomial, coefficient)
    pairs in nondecreasing degree, so each row stops at the cutoff."""
    out: dict[Monomial, int] = {}
    for ma, ca in a.items():
        room = cutoff - len(ma)
        for mb, cb in b:
            if len(mb) > room:
                break
            key = ma + mb
            v = out.get(key, 0) + ca * cb
            if v:
                out[key] = v
            elif key in out:
                del out[key]
    return out


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    if a.cutoff != b.cutoff:
        raise ValueError("cutoff mismatch")
    by_degree = sorted(b.terms, key=lambda t: len(t[0]))
    return _freeze(_mul_dicts(a.as_dict(), by_degree, a.cutoff), a.cutoff)


@lru_cache(maxsize=None)
def _letter_series(letter: int, cutoff: int) -> tuple[tuple[Monomial, int], ...]:
    """The series of one letter in nondecreasing degree: 1 + X_i for a
    generator, the alternating geometric series for an inverse."""
    i = abs(letter)
    if letter > 0:
        return (((), 1), ((i,), 1))
    return tuple(((i,) * d, (-1) ** d) for d in range(cutoff + 1))


def magnus_embed(w: Word, cutoff: int) -> TruncatedSeries:
    """The truncated Magnus series of w; multiplicative up to truncation."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    terms: dict[Monomial, int] = {(): 1}
    for v in w.letters:
        terms = _mul_dicts(terms, _letter_series(v, cutoff), cutoff)
    return _freeze(terms, cutoff)


def lcs_depth(w: Word, cutoff: int) -> int | None:
    """Minimal degree of a nonconstant term in the embedded series, or None
    when every degree 1..cutoff vanishes (depth certified >= cutoff).  For
    k <= cutoff: w lies in the k-th lower central series term iff the
    returned depth is None or >= k."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2 for depth queries")
    return magnus_embed(w, cutoff).min_positive_degree()


def johnson_level(phi: FreeEndo, cutoff: int) -> int | None:
    """Largest k < cutoff with every phi(x_i) x_i^-1 of depth >= k+1; None
    means the level is certified >= cutoff.  IA inputs always have level >= 1.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    if not ia_check(phi):
        raise ValueError("johnson_level needs an IA endomorphism")
    best: int | None = None
    for i in phi.moved_indices():
        displaced = concat(phi.image(i), Word((-i,)))
        d = lcs_depth(displaced, cutoff)
        if d is not None and (best is None or d < best):
            best = d
    return None if best is None else best - 1


# ---------------------------------------------------------------------------
# Hall bases of free Lie algebras


@dataclass(frozen=True)
class HallTree:
    """A leaf (generator index) or a bracket of two Hall trees."""

    index: int | None = None
    left: "HallTree | None" = None
    right: "HallTree | None" = None

    def __post_init__(self) -> None:
        if (self.index is None) == (self.left is None):
            raise ValueError("HallTree is either a leaf or a bracket")
        if (self.left is None) != (self.right is None):
            raise ValueError("bracket needs both children")

    @property
    def is_leaf(self) -> bool:
        return self.index is not None

    @property
    def weight(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.weight + self.right.weight

    def key(self):
        """Weight-first total order key; ties broken by nested structure."""
        if self.is_leaf:
            return (1, (self.index,))
        return (self.weight, (self.left.key(), self.right.key()))

    def __str__(self) -> str:
        if self.is_leaf:
            return f"x{self.index}"
        return f"[{self.left},{self.right}]"


def leaf(i: int) -> HallTree:
    return HallTree(index=i)


def bracket(left: HallTree, right: HallTree) -> HallTree:
    return HallTree(left=left, right=right)


@lru_cache(maxsize=None)
def _hall_by_weight(n: int, k: int) -> tuple[HallTree, ...]:
    if k == 1:
        return tuple(leaf(i) for i in range(1, n + 1))
    out = []
    for wl in range(1, k):
        for u in _hall_by_weight(n, wl):
            for v in _hall_by_weight(n, k - wl):
                if not u.key() < v.key():
                    continue
                # Hall condition: for v = [v1, v2] require v1 <= u
                if not v.is_leaf and v.left.key() > u.key():
                    continue
                out.append(bracket(u, v))
    return tuple(sorted(out, key=HallTree.key))


def hall_basis(n: int, k: int) -> tuple[HallTree, ...]:
    """Basic commutators of weight k on n generators, in Hall order."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return _hall_by_weight(n, k)


def _mobius(d: int) -> int:
    out = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if d > 1:
        out = -out
    return out


def witt_dimension(n: int, k: int) -> int:
    """dim of the weight-k part of the free Lie ring on n generators:
    (1/k) * sum over d | k of mu(d) n^(k/d)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = sum(_mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0)
    assert total % k == 0
    return total // k


def expand_bracket(t: HallTree) -> Word:
    """Unroll a Hall tree into the corresponding group commutator word."""
    if t.is_leaf:
        return word([t.index])
    return commutator(expand_bracket(t.left), expand_bracket(t.right))


def format_series(s: TruncatedSeries) -> str:
    """Deterministic text form: sorted `coeff*X1X2` terms joined by ' + '."""
    if not s.terms:
        return "0"
    parts = []
    for mono, coeff in s.terms:
        name = "".join(f"X{i}" for i in mono) if mono else "1"
        parts.append(f"{coeff}*{name}" if name != "1" else str(coeff))
    return " + ".join(parts)
