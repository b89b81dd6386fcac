"""Truncated Magnus embedding, filtration depths, and Hall bases.

The embedding sends ``x_i -> 1 + X_i`` into noncommutative integer
polynomials truncated above a caller-supplied degree cutoff; inverse letters
expand to the alternating geometric series.  A word lies in the k-th lower
central series term exactly when its embedded series is 1 modulo degree k,
which turns depth and Johnson-level queries into finite integer computations
valid for every k up to the cutoff.

Monomials are tuples of generator indices; a series keeps all monomials of
length <= cutoff and discards anything longer.

Because the embedding is multiplicative, an endomorphism phi acts on the
truncated series by the substitution rho(phi): X_j -> series(phi(x_j)) - 1,
and the Magnus map is a homomorphism Aut(F_n) -> Aut(Z<<X>>/deg > cutoff)
(Magnus-Karrass-Solitar, *Combinatorial Group Theory*, ch. 5):
series(phi(w)) = rho(phi)(series(w)).  ``johnson_level`` takes two routes:

* an ``IAWord`` (a word in Magnus generators) by folding displacement
  series (``_displacements``).  With delta_i = series(phi(x_i)) - 1 - X_i,
  the generator g moving x_a updates delta_a to delta_a + rho(phi)(delta_g)
  and leaves every other delta as it is; delta_g depends only on g and the
  cutoff and is memoized per generator (``_displacement``).  Every delta
  starts in degree 2, so a monomial of delta_g with no room below the
  cutoff, or none of whose letters has moved, is its own image under
  rho(phi); only the others are expanded.  This route never realizes the
  word, since an ``IAWord`` is IA by construction.  The depth of
  phi(x_i) x_i^-1 is the least degree of delta_i: phi(x_i) x_i^-1 has series
  1 + delta_i series(x_i^-1), and series(x_i^-1) has constant term 1;
* a ``FreeEndo``, which carries no generator word, by embedding each image
  word letter by letter through ``magnus_embed``.

The letter route stays as the independent check: the tests compare both
routes on seeded random IA words.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

from .autom import FreeEndo, IAGenerator, IAWord, ia_check
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
# (monomial, coefficient) pairs in nondecreasing degree
Series = Sequence[tuple[Monomial, int]]


class TruncatedSeries:
    """Integer noncommutative polynomial with all terms of degree > cutoff
    dropped.  ``terms`` holds no zero coefficients; no caller assigns to it."""

    __slots__ = ("cutoff", "terms")

    def __init__(self, cutoff: int, terms: tuple[tuple[Monomial, int], ...]) -> None:
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        for mono, coeff in terms:
            if coeff == 0:
                raise ValueError("zero coefficient stored")
            if len(mono) > cutoff:
                raise ValueError("monomial longer than cutoff stored")
        self.cutoff = cutoff
        self.terms = terms

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            (self.cutoff, self.terms) == (other.cutoff, other.terms)
        )

    def as_dict(self) -> dict[Monomial, int]:
        return dict(self.terms)

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
    a: Iterable[tuple[Monomial, int]],
    b: Sequence[tuple[Monomial, int]],
    cutoff: int,
    out: dict[Monomial, int] | None = None,
    scale: int = 1,
) -> dict[Monomial, int]:
    """out + scale * (a * b), truncated, accumulated in place into out (a new
    dict when out is None); a and b are (monomial, coefficient) sequences,
    b in nondecreasing degree, so each row stops at the cutoff."""
    if out is None:
        out = {}
    if scale != 1:
        a = [(ma, scale * ca) for ma, ca in a]
    for ma, ca in a:
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
    return _freeze(_mul_dicts(a.terms, by_degree, a.cutoff), a.cutoff)


@lru_cache(maxsize=None)
def _letter_series(letter: int, cutoff: int) -> Series:
    """The series of one letter in nondecreasing degree: 1 + X_i for a
    generator, the alternating geometric series for an inverse."""
    i = abs(letter)
    if letter > 0:
        return (((), 1), ((i,), 1))
    return tuple(((i,) * d, (-1) ** d) for d in range(cutoff + 1))


def _product(factors: Sequence[Series], cutoff: int) -> dict[Monomial, int]:
    """The truncated product of series, each in nondecreasing degree."""
    if not factors:
        return {(): 1}
    terms = dict(factors[0])
    for f in factors[1:]:
        terms = _mul_dicts(terms.items(), f, cutoff)
    return terms


def magnus_embed(w: Word, cutoff: int) -> TruncatedSeries:
    """The truncated Magnus series of w; multiplicative up to truncation."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    terms = _product([_letter_series(v, cutoff) for v in w.letters], cutoff)
    return _freeze(terms, cutoff)


def lcs_depth(w: Word, cutoff: int) -> int | None:
    """Minimal degree of a nonconstant term in the embedded series, or None
    when every degree 1..cutoff vanishes (depth certified >= cutoff).  For
    k <= cutoff: w lies in the k-th lower central series term iff the
    returned depth is None or >= k."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2 for depth queries")
    return magnus_embed(w, cutoff).min_positive_degree()


@lru_cache(maxsize=4096)
def _displacement(g: IAGenerator, cutoff: int) -> Series:
    """delta_g = S(g(x_a)) - 1 - X_a for the Magnus generator g moving x_a,
    truncated: g(x_a) x_a^-1 is a commutator, so delta_g starts in degree 2.
    It depends only on g and the cutoff; the cached series is a tuple, so no
    caller can mutate it.  The bound holds the 1,584 signed generators at
    n = 12 at the two ladder cutoffs a k = 4 level reads, 3,168 entries."""
    terms = _product([_letter_series(v, cutoff) for v in g.image_letters()], cutoff)
    del terms[()], terms[(g.a,)]
    return tuple(terms.items())


def _displacements(phi: IAWord, cutoff: int) -> dict[int, dict[Monomial, int]]:
    """The nonzero delta_i = S(phi(x_i)) - 1 - X_i, truncated, by index i.

    Along phi = g_1...g_L, (psi g)(x_a) = psi(g(x_a)), and the Magnus map
    sends psi to the substitution rho(psi): X_b -> X_b + delta_b.  So the
    generator g moving x_a updates delta_a to delta_a + rho(psi)(delta_g) and
    leaves every other delta as it is.  A monomial of delta_g of degree
    cutoff, or one none of whose letters has moved, is its own image, since
    every delta_b starts in degree 2; any other monomial X_b1...X_bm expands
    to the truncated product of the X_bj + delta_bj.
    """
    delta: dict[int, dict[Monomial, int]] = {}
    factors: dict[int, Series] = {}  # X_b + delta_b in nondecreasing degree

    def factor(b: int) -> Series:
        f = factors.get(b)
        if f is None:
            f = factors[b] = [((b,), 1)]
            f += sorted(delta.get(b, {}).items(), key=lambda t: len(t[0]))
        return f

    for g in phi.gens:
        a = g.a
        out = dict(delta.get(a, ()))
        for m, c in _displacement(g, cutoff):
            if len(m) < cutoff and not delta.keys().isdisjoint(m):
                # the last factor has degree >= 1, so the others are read below the cutoff
                head = _product([factor(b) for b in m[:-1]], cutoff - 1)
                _mul_dicts(head.items(), factor(m[-1]), cutoff, out, c)
                continue
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        factors.pop(a, None)
        if out:
            delta[a] = out
        else:
            delta.pop(a, None)
    return delta


def _least_depth(
    indices: Iterable[int], depth: Callable[[int, int], int | None], limit: int
) -> int | None:
    """The least depth(i, limit) over the indices, or None when every depth
    exceeds limit.  Once some depth is d, only a depth below d can lower the
    minimum, so later indices are read to degree d - 1; an IA input has no
    depth below 2."""
    best: int | None = None
    for i in indices:
        bound = limit if best is None else best - 1
        if bound < 2:
            break
        d = depth(i, bound)
        if d is not None:
            best = d
    return best


def johnson_level(phi: FreeEndo | IAWord, cutoff: int) -> int | None:
    """Largest k < cutoff with every phi(x_i) x_i^-1 of depth >= k+1; None
    means the level is certified >= cutoff.  IA inputs always have level >= 1.

    The depth of phi(x_i) x_i^-1 is the least degree of the displacement
    delta_i = S_i - 1 - X_i, where S_i is the series of phi(x_i) (see the
    module docstring).  An ``IAWord`` is read by folding displacement series
    (``_displacements``), without realizing it, at cutoffs min(3, cutoff),
    ..., cutoff in turn (cutoff 2 alone when the cutoff is 2): a depth d
    shows exactly at every cutoff >= d, so the first cutoff that shows one
    gives the least depth, and a word of level >= k never pays for the
    degrees above k + 1.  Over the filtration elements, a start at 2 adds a
    pass that shows nothing to every element of depth >= 3 (+20-50% at
    k = 2 and 3), and a start at the cutoff pays for the degrees above a
    depth that shows lower (about 3x at k = 2, cutoff 4); a start at 3 is
    at most a third slower than the best start on each.  A ``FreeEndo``
    must pass the IA check, which an ``IAWord`` passes by construction; it
    is read at the full cutoff by embedding each displaced image word
    letter by letter.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    best: int | None = None
    if isinstance(phi, IAWord):
        for limit in range(min(3, cutoff), cutoff + 1):
            delta = _displacements(phi, limit)
            best = min((len(m) for d in delta.values() for m in d), default=None)
            if best is not None:
                break
    else:
        if not ia_check(phi):
            raise ValueError("johnson_level needs an IA endomorphism")

        def depth(i: int, bound: int) -> int | None:
            return lcs_depth(concat(phi.image(i), Word((-i,))), bound)

        best = _least_depth(phi.moved_indices(), depth, cutoff)
    return None if best is None else best - 1


# ---------------------------------------------------------------------------
# Hall bases of free Lie algebras


class HallTree:
    """A leaf (generator index) or a bracket of two Hall trees; no caller assigns to it."""

    __slots__ = ("index", "left", "right")

    def __init__(self, index=None, left=None, right=None) -> None:
        if (index is None) == (left is None):
            raise ValueError("HallTree is either a leaf or a bracket")
        if (left is None) != (right is None):
            raise ValueError("bracket needs both children")
        self.index = index
        self.left = left
        self.right = right

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
