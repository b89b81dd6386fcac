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
truncated series by substituting series(phi(x_j)) - 1 for X_j, and the
Magnus map is a homomorphism Aut(F_n) -> Aut(Z<<X>>/deg > cutoff)
(Magnus-Karrass-Solitar, *Combinatorial Group Theory*, ch. 5).  So the series
of the images under a product of automorphisms can be built one factor at a
time.  ``johnson_level`` takes two routes:

* an ``IAWord`` (a word in Magnus generators) by generator substitution: the
  series of phi(x_j) are built generator by generator from short products
  (``_substituted_series``); nothing on this route reads the realized
  images, since an ``IAWord`` is IA by construction.  A step whose letters
  all still carry their plain letter series depends only on the generator,
  the wanted signs and the cutoff, so it is memoized (``_fresh_step``, a
  bounded cache of immutable series).  The depth of phi(x_i) x_i^-1 is read
  off S_i = series(phi(x_i)) without multiplying by x_i^-1: S_i x_i^-1 - 1 =
  (S_i - 1 - X_i) x_i^-1, and x_i^-1 has constant term 1, so both sides have
  the same least nonzero degree;
* a ``FreeEndo``, which carries no generator word, by embedding each image
  word letter by letter through ``magnus_embed``.

The letter route stays as the independent check: the tests compare both
routes on seeded random IA words.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    sign: int = 1,
) -> dict[Monomial, int]:
    """out + sign * (a * b), truncated, accumulated in place into out (a new
    dict when out is None); a and b are (monomial, coefficient) sequences,
    b in nondecreasing degree, so each row stops at the cutoff."""
    if out is None:
        out = {}
    if sign != 1:
        a = [(ma, sign * ca) for ma, ca in a]
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


def _by_degree(terms: dict[Monomial, int]) -> Series:
    # a list: CPython keeps freed tuples shorter than 20 items on per-length
    # free lists, where the many short-lived series of level computations
    # would hold on to memory
    monos = sorted(terms, key=len)
    return list(zip(monos, map(terms.__getitem__, monos)))


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


def _bracket(x: Series, y: Series, cutoff: int) -> Series:
    """xy - yx = [x - 1, y - 1] for series with constant term 1, which come
    first in degree order."""
    x1, y1 = x[1:], y[1:]
    return _by_degree(_mul_dicts(y1, x1, cutoff, _mul_dicts(x1, y1, cutoff), -1))


def _step(
    a: int,
    letters: tuple[int, ...],
    want: tuple[int, ...],
    current: Callable[[int], Series],
    cutoff: int,
) -> dict[int, dict[Monomial, int]]:
    """The new series of the wanted signs of x_a after the Magnus generator
    with image letters ``letters`` (of x_a), given the current series of the
    letters it reads."""
    new = {}
    if len(letters) == 3:  # u x_a u^-1
        u = letters[0]
        for y in want:
            uy = _bracket(current(u), current(y), cutoff)
            new[y] = _mul_dicts(uy, current(-u), cutoff, dict(current(y)))
    else:  # x_a p q p^-1 q^-1
        p, q = letters[1], letters[2]
        pq = _bracket(current(p), current(q), cutoff)
        if a in want:
            head = _product((current(a), pq, current(-p)), cutoff)
            new[a] = _mul_dicts(head.items(), current(-q), cutoff, dict(current(a)))
        if -a in want:
            head = _product((pq, current(-q), current(-p)), cutoff)
            new[-a] = _mul_dicts(head.items(), current(-a), cutoff, dict(current(-a)), -1)
    return new


@lru_cache(maxsize=512)
def _fresh_step(g: IAGenerator, want: tuple[int, ...], cutoff: int) -> tuple:
    """``_step`` of g on plain letter series, which depends only on g, the
    wanted signs and the cutoff: (sign, series) pairs.  The cached series are
    tuples, so no caller can mutate them."""
    new = _step(g.a, g.image_letters(), want, lambda v: _letter_series(v, cutoff), cutoff)
    return tuple((y, tuple(_by_degree(terms))) for y, terms in new.items())


def _substituted_series(phi: IAWord, cutoff: int) -> dict[int, Series]:
    """The series of phi(x_j) for every j some generator of phi moves.

    The Magnus map is multiplicative and (psi g)(x_a) = psi(g(x_a)), so along
    phi = g_1...g_L the step of g_t replaces the series of x_a and of x_a^-1
    by products of the current series of the letters of g_t(x_a).  A Magnus
    generator sends x_a to a conjugate u x_a u^-1 or to x_a [p, q]; with
    [A, B] = AB - BA the products are taken as

        u y u^-1        = y + [u, y] u^-1               (y = x_a or x_a^-1)
        x_a [p, q]      = x_a + x_a [p, q] p^-1 q^-1
        (x_a [p, q])^-1 = x_a^-1 - [p, q] q^-1 p^-1 x_a^-1

    whose correction terms start in degree 2, so the partial products never
    carry the low-degree terms that cancel.  A backward pass first marks the
    series a later step or the result reads; the others are never built.  A
    step none of whose letters has been replaced yet reads only plain letter
    series, and is taken from the ``_fresh_step`` memo.
    """
    gens = phi.gens
    live = {g.a for g in gens}
    moved = set(live)
    wanted = []
    for g in reversed(gens):
        a = g.a
        reads = {v for u in g.image_letters() if abs(u) != a for v in (u, -u)}
        want = tuple(y for y in (a, -a) if y in live)
        live -= {a, -a}
        if want:
            live |= reads
            live.update(want)
            reads.update(want)
        wanted.append((want, reads))
    wanted.reverse()

    series: dict[int, Series] = {}

    def current(v: int) -> Series:
        found = series.get(v)
        return _letter_series(v, cutoff) if found is None else found

    for g, (want, reads) in zip(gens, wanted):
        if not want:
            continue
        if series.keys().isdisjoint(reads):
            series.update(_fresh_step(g, want, cutoff))
        else:
            new = _step(g.a, g.image_letters(), want, current, cutoff)
            series.update((y, _by_degree(terms)) for y, terms in new.items())
    return {a: series[a] for a in moved}


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

    An ``IAWord`` is read by generator substitution (``_substituted_series``)
    at cutoffs min(3, cutoff), ..., cutoff in turn (cutoff 2 alone when the
    cutoff is 2): a depth d shows exactly at every cutoff >= d, so the first
    cutoff that shows one gives the least depth, and a word of level >= k
    never pays for the degrees above k + 1.  (Depth 2 shows at cutoff 3 too,
    for little more than at cutoff 2.)  The depth of phi(x_i) x_i^-1 is the
    least nonzero degree of S_i - 1 - X_i, where S_i is the series of
    phi(x_i) (see the module docstring).  A ``FreeEndo`` must pass the IA
    check, which an ``IAWord`` passes by construction; it is read at the full
    cutoff by embedding each displaced image word letter by letter.
    """
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    best: int | None = None
    if isinstance(phi, IAWord):

        def depth(i: int, bound: int) -> int | None:
            # the least degree of S_i - 1 - X_i; S_i is in nondecreasing degree
            xi = (i,)
            for m, c in series[i]:
                if len(m) > bound:
                    break
                if m and (m != xi or c != 1):
                    return len(m)
            return None

        for limit in range(min(3, cutoff), cutoff + 1):
            series = _substituted_series(phi, limit)
            best = _least_depth(sorted(series), depth, limit)
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
