"""Endomorphisms of free groups by generator images, and IA automorphisms.

An endomorphism stores only its non-fixed generator images; indices outside
the stored map act as the identity, so enlarging the ambient rank is literal
inclusion.  Invertibility is handled exclusively through witnesses: an
``IAWord`` is a word in the Magnus generators, inverted by reversing and
flipping signs, and an ``AutWitness`` is a general automorphism packaged with
an explicit inverse.

Magnus generator conventions (fixed once for the whole artifact):

* ``K[a,b]``  (conjugation move): ``x_a -> x_b x_a x_b^-1``
* ``M[a,b,c]`` (commutator move, ``b < c``): ``x_a -> x_a [x_b, x_c]``

``FreeEndo(...)``, ``free_endo``, ``IAWord(...)``, ``ia_word``, ``parse_ia_word``
and the lifts validate; ``FreeEndo._of`` and ``IAWord._of`` do not, and only
kernels whose result holds the invariants by construction use them.
The classes are plain; ``FreeEndo`` and ``IAGenerator`` hash by their fields,
so they key tables, and each cache is a ``cached_property`` in the ``__dict__``.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import Iterable, Mapping

from .words import Word, _reduce, concat, invert, support, word

__all__ = [
    "FreeEndo",
    "free_endo",
    "identity_endo",
    "apply",
    "compose",
    "is_identity",
    "abelianized_matrix",
    "ia_check",
    "IAGenerator",
    "conj",
    "comm_move",
    "IAWord",
    "ia_word",
    "identity_ia",
    "invert_ia",
    "concat_ia",
    "conjugate",
    "commute",
    "format_ia_word",
    "parse_ia_word",
    "AutWitness",
    "inner_lift",
    "transvection_lift",
    "signed_permutation_lift",
]


class RankMismatch(ValueError):
    pass


class FreeEndo:
    """Endomorphism of the rank-n free group; images lists only moved
    generators, sorted by index.  Assigning to it raises."""

    def __init__(self, rank: int, images: tuple[tuple[int, Word], ...] = ()) -> None:
        seen = set()
        for i, img in images:
            if not 1 <= i <= rank:
                raise ValueError(f"image index {i} outside rank {rank}")
            if i in seen:
                raise ValueError(f"duplicate image for index {i}")
            seen.add(i)
            bad = [j for j in support(img) if j > rank]
            if bad:
                raise ValueError(f"image of x{i} uses indices {bad} beyond rank")
            if img.letters == (i,):
                raise ValueError("fixed images must be omitted; use free_endo()")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "images", images)

    @classmethod
    def _of(cls, rank: int, images: Mapping[int, Word]) -> "FreeEndo":
        """``free_endo`` unchecked: every index and image is within the rank."""
        phi = object.__new__(cls)
        # not __dict__.update, which gives each of these many values its own dict
        object.__setattr__(phi, "rank", rank)
        object.__setattr__(phi, "images", _moved(images))
        return phi

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            (self.rank, self.images) == (other.rank, other.images)
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    @cached_property
    def _imap(self) -> dict[int, Word]:
        return dict(self.images)

    def image(self, i: int) -> Word:
        if not 1 <= i <= self.rank:
            raise ValueError(f"index {i} outside rank {self.rank}")
        img = self._imap.get(i)
        return Word((i,)) if img is None else img

    def moved_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.images)


def _moved(images: Mapping[int, Word]) -> tuple[tuple[int, Word], ...]:
    """The entries that move their generator, sorted by index."""
    return tuple(
        (i, img) for i, img in sorted(images.items()) if img.letters != (i,)
    )


def free_endo(rank: int, images: Mapping[int, Word]) -> FreeEndo:
    """Build an endomorphism, dropping entries that fix their generator."""
    return FreeEndo(rank, _moved(images))


def identity_endo(rank: int) -> FreeEndo:
    return FreeEndo(rank)


def _substitute(imap: Mapping[int, Word], rank: int, letters: Iterable[int]) -> Word:
    """Substitute the images in imap (absent indices are fixed) through the
    letters, each checked against the rank, and reduce; imap holds in-rank words."""
    pieces: list[Iterable[int]] = []
    for v in letters:
        i = abs(v)
        if i > rank:
            raise ValueError(f"letter x{i} outside rank {rank}")
        img = imap.get(i)
        if img is None:
            pieces.append((v,))
        else:
            pieces.append(img.letters if v > 0 else [-u for u in reversed(img.letters)])
    return Word._of(_reduce(pieces))


def apply(phi: FreeEndo, w: Word) -> Word:
    """Substitute generator images through w and reduce."""
    return _substitute(phi._imap, phi.rank, w.letters)


def compose(phi: FreeEndo, psi: FreeEndo) -> FreeEndo:
    """(phi . psi)(x) = phi(psi(x)), of one rank, so every image is within it."""
    if phi.rank != psi.rank:
        raise RankMismatch(f"ranks differ: {phi.rank} vs {psi.rank}")
    # psi fixes every other x_i, which phi sends to its stored image
    images = dict(phi.images)
    images.update((i, apply(phi, img)) for i, img in psi.images)
    return FreeEndo._of(phi.rank, images)


def is_identity(phi: FreeEndo) -> bool:
    return not phi.images


def abelianized_matrix(phi: FreeEndo) -> tuple[tuple[int, ...], ...]:
    """Exponent-sum matrix M with M[i][j] = (exponent sum of x_{i+1} in the
    image of x_{j+1}); columns are abelianized images, so the matrix of a
    composition is the matrix product."""
    n = phi.rank
    cols = []
    for j in range(1, n + 1):
        col = [0] * n
        for v in phi.image(j).letters:
            col[abs(v) - 1] += 1 if v > 0 else -1
        cols.append(col)
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def ia_check(phi: FreeEndo) -> bool:
    """True iff phi acts trivially on the abelianization."""
    n = phi.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return abelianized_matrix(phi) == ident


# ---------------------------------------------------------------------------
# Magnus generators and IA words


class IAGenerator:
    """A signed Magnus generator: kind 'conj' is K[a,b], kind 'comm' is
    M[a,b,c] with b < c; sign -1 denotes the inverse move.

    ``indices`` and the image letters are computed once, on construction,
    and the inverse once, on first use; the inverse's inverse is this
    object.  They are not fields: equality and hash see only the five
    fields, and assignment raises."""

    def __init__(self, kind: str, a: int, b: int, c: int | None = None, sign: int = 1) -> None:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if kind == "conj":
            if c is not None:
                raise ValueError("conj takes two indices")
            if a == b or min(a, b) < 1:
                raise ValueError(f"bad conj indices ({a},{b})")
            u = sign * b
            indices = frozenset((a, b))
            image = (u, a, -u)
        elif kind == "comm":
            if c is None:
                raise ValueError("comm takes three indices")
            if len({a, b, c}) != 3 or min(a, b, c) < 1:
                raise ValueError(f"bad comm indices ({a},{b},{c})")
            if not b < c:
                raise ValueError("comm requires b < c")
            p, q = (b, c) if sign > 0 else (c, b)
            indices = frozenset((a, b, c))
            image = (a, p, q, -p, -q)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        self.__dict__.update(
            kind=kind, a=a, b=b, c=c, sign=sign, indices=indices, _image=image, _inverse=None
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            (self.kind, self.a, self.b, self.c, self.sign)
            == (other.kind, other.a, other.b, other.c, other.sign)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.a, self.b, self.c, self.sign))

    def image_letters(self) -> tuple[int, ...]:
        """The letters of the image of x_a, the one generator moved:
        u x_a u^-1 with u = x_b^sign for K, x_a [p, q] for M, where
        (p, q) = (x_b, x_c), or (x_c, x_b) for the inverse move."""
        return self._image

    def inverse(self) -> "IAGenerator":
        inv = self._inverse
        if inv is None:
            inv = IAGenerator(self.kind, self.a, self.b, self.c, -self.sign)
            inv.__dict__["_inverse"] = self
            self.__dict__["_inverse"] = inv
        return inv

    def token(self) -> str:
        body = (
            f"K[{self.a},{self.b}]"
            if self.kind == "conj"
            else f"M[{self.a},{self.b},{self.c}]"
        )
        return body + ("'" if self.sign < 0 else "")


def conj(a: int, b: int, sign: int = 1) -> IAGenerator:
    return IAGenerator("conj", a, b, sign=sign)


def comm_move(a: int, b: int, c: int, sign: int = 1) -> IAGenerator:
    return IAGenerator("comm", a, b, c, sign=sign)


class IAWord:
    """A word in signed Magnus generators, the invertibility witness of its
    realized endomorphism, built in one pass and cached; no caller assigns
    to its fields."""

    def __init__(self, rank: int, gens: tuple[IAGenerator, ...] = ()) -> None:
        for g in gens:
            if any(i > rank for i in g.indices):
                raise ValueError(f"generator {g.token()} exceeds rank {rank}")
        self.rank = rank
        self.gens = gens

    @classmethod
    def _of(cls, rank: int, gens: tuple[IAGenerator, ...]) -> "IAWord":
        """Unchecked: ``realized`` still checks every index against the rank."""
        w = object.__new__(cls)
        w.rank = rank
        w.gens = gens
        return w

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            (self.rank, self.gens) == (other.rank, other.gens)
        )

    @cached_property
    def realized(self) -> FreeEndo:
        # (g1 g2)(x) = g1(g2(x)) and g moves only x_a: folding left to right,
        # x_a's image becomes the current images substituted into g's image
        images: dict[int, Word] = {}
        for g in self.gens:
            images[g.a] = _substitute(images, self.rank, g.image_letters())
        return FreeEndo._of(self.rank, images)

    def ia_support(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for g in self.gens:
            out |= g.indices
        return out

    def __repr__(self) -> str:
        return f"IAWord({format_ia_word(self)!r})"


def ia_word(rank: int, gens: Iterable[IAGenerator]) -> IAWord:
    return IAWord(rank, tuple(gens))


def identity_ia(rank: int) -> IAWord:
    return IAWord(rank)


def _inverse_gens(gens: tuple[IAGenerator, ...]) -> tuple[IAGenerator, ...]:
    return tuple(g.inverse() for g in reversed(gens))


def invert_ia(u: IAWord) -> IAWord:
    return IAWord(u.rank, _inverse_gens(u.gens))


def concat_ia(*ws: IAWord) -> IAWord:
    ranks = {w.rank for w in ws}
    if len(ranks) > 1:
        raise RankMismatch(f"ranks differ: {sorted(ranks)}")
    gens: tuple[IAGenerator, ...] = ()
    for w in ws:
        gens += w.gens
    return IAWord(ws[0].rank, gens)


def conjugate(phi: IAWord, alpha: IAWord) -> IAWord:
    """alpha^-1 phi alpha, as a generator word."""
    if phi.rank != alpha.rank:
        raise RankMismatch(f"ranks differ: {phi.rank} vs {alpha.rank}")
    return concat_ia(invert_ia(alpha), phi, alpha)


def commute(u: IAWord, v: IAWord) -> bool:
    """Whether the realized automorphisms commute, decided by comparing the
    two compositions of the (cached) realizations: stored images are reduced
    and sorted with fixed generators dropped, so equal endomorphisms are
    equal objects, and uv = vu iff [u, v] = 1."""
    if not isinstance(u, IAWord) or not isinstance(v, IAWord):
        raise TypeError(
            "commute needs IAWord witnesses; a bare FreeEndo has no "
            "invertibility witness"
        )
    phi, psi = u.realized, v.realized
    return compose(phi, psi) == compose(psi, phi)


def format_ia_word(u: IAWord) -> str:
    return f"n={u.rank}:" + ";".join(g.token() for g in u.gens)


_GEN_RE = re.compile(r"^([KM])\[(\d+),(\d+)(?:,(\d+))?\](')?$")


def parse_ia_word(text: str) -> IAWord:
    head, _, body = text.partition(":")
    if not head.startswith("n="):
        raise ValueError(f"missing rank header in {text!r}")
    rank = int(head[2:])
    gens = []
    for tok in filter(None, body.split(";")):
        m = _GEN_RE.match(tok.strip())
        if not m:
            raise ValueError(f"bad generator token {tok!r}")
        kind, a, b, c, inv = m.groups()
        sign = -1 if inv else 1
        if kind == "K":
            if c is not None:
                raise ValueError(f"bad generator token {tok!r}")
            gens.append(conj(int(a), int(b), sign))
        else:
            if c is None:
                raise ValueError(f"bad generator token {tok!r}")
            gens.append(comm_move(int(a), int(b), int(c), sign))
    return IAWord(rank, tuple(gens))


# ---------------------------------------------------------------------------
# General automorphisms with explicit inverses (lifts of matrix-group elements)


def _letter_map(phi: FreeEndo) -> dict[int, int] | None:
    """The letter map v -> phi(v) when phi sends every generator to one
    signed letter, else None."""
    letters = {}
    for i in range(1, phi.rank + 1):
        img = phi.image(i).letters
        if len(img) != 1:
            return None
        letters[i], letters[-i] = img[0], -img[0]
    return letters


class AutWitness:
    """An automorphism bundled with its inverse; both directions are checked
    on construction.  When both halves send every generator to one signed
    letter, their letter maps are checked to invert each other, which is the
    same as both compositions being the identity; otherwise both
    compositions are built.  No caller assigns to ``fwd`` or ``inv``."""

    def __init__(self, fwd: FreeEndo, inv: FreeEndo) -> None:
        if fwd.rank != inv.rank:
            raise RankMismatch("witness halves have different ranks")
        self.fwd = fwd
        self.inv = inv
        fwd_map = self._relabelling
        inv_map = None if fwd_map is None else _letter_map(inv)
        if inv_map is not None:
            inverts = all(
                fwd_map[inv_map[i]] == i and inv_map[fwd_map[i]] == i
                for i in range(1, fwd.rank + 1)
            )
        else:
            inverts = is_identity(compose(fwd, inv)) and is_identity(compose(inv, fwd))
        if not inverts:
            raise ValueError("inverse witness does not invert the automorphism")

    @cached_property
    def _relabelling(self) -> dict[int, int] | None:
        """The letter map v -> fwd(v) when fwd sends every generator to one
        signed letter (a signed permutation, as fwd is invertible), else
        None."""
        return _letter_map(self.fwd)

    def conj_endo(self, phi: FreeEndo) -> FreeEndo:
        """fwd . phi . fwd^-1 without an intermediate endomorphism.

        For a signed permutation with fwd(x_i) = t, the conjugate sends x_|t|
        to fwd(phi(x_i))^sign(t): phi(x_i) relabelled letter by letter, and
        inverted when t is an inverse letter.  Relabelling and inverting keep
        a word reduced, so nothing is substituted or reduced again.
        Otherwise x_i goes to (fwd . phi)(inv(x_i)), substituted through one
        image map of fwd . phi.  Either way the result is built unchecked."""
        rank = self.fwd.rank
        if phi.rank != rank:
            raise RankMismatch(f"ranks differ: {phi.rank} vs {rank}")
        relabel = self._relabelling
        if relabel is not None:
            # x_|t| stays fixed when phi fixes x_i
            images = {}
            for i, img in phi.images:
                t = relabel[i]
                if t > 0:
                    images[t] = Word._of(tuple([relabel[v] for v in img.letters]))
                else:
                    images[-t] = Word._of(tuple([relabel[-v] for v in reversed(img.letters)]))
            return FreeEndo._of(rank, images)
        # fwd . phi on the generators: phi fixes every other x_j
        outer = dict(self.fwd.images)
        outer.update(
            (j, _substitute(self.fwd._imap, rank, img.letters)) for j, img in phi.images
        )
        images = dict(outer)
        images.update(
            (i, _substitute(outer, rank, img.letters)) for i, img in self.inv.images
        )
        return FreeEndo._of(rank, images)


def inner_lift(rank: int, w: Word) -> AutWitness:
    """Conjugation by w: x_i -> w x_i w^-1."""
    wi = invert(w)
    fwd = free_endo(rank, {i: concat(w, Word((i,)), wi) for i in range(1, rank + 1)})
    inv = free_endo(rank, {i: concat(wi, Word((i,)), w) for i in range(1, rank + 1)})
    return AutWitness(fwd, inv)


def transvection_lift(rank: int, a: int, b: int, sign: int = 1) -> AutWitness:
    """x_a -> x_a x_b^sign, everything else fixed."""
    if a == b:
        raise ValueError("transvection needs distinct indices")
    fwd = free_endo(rank, {a: word([a, sign * b])})
    inv = free_endo(rank, {a: word([a, -sign * b])})
    return AutWitness(fwd, inv)


def signed_permutation_lift(
    rank: int, perm: Iterable[int], signs: Iterable[int] | None = None
) -> AutWitness:
    """x_i -> x_{perm[i-1]} ^ signs[i-1]; perm is a permutation of 1..rank."""
    p = tuple(perm)
    s = tuple(signs) if signs is not None else (1,) * rank
    if sorted(p) != list(range(1, rank + 1)):
        raise ValueError(f"not a permutation of 1..{rank}: {p}")
    if len(s) != rank or any(e not in (1, -1) for e in s):
        raise ValueError("signs must be a +1/-1 vector of length rank")
    fwd = free_endo(rank, {i: word([s[i - 1] * p[i - 1]]) for i in range(1, rank + 1)})
    pinv = {p[i - 1]: i for i in range(1, rank + 1)}
    inv = free_endo(
        rank,
        {j: word([s[pinv[j] - 1] * pinv[j]]) for j in range(1, rank + 1)},
    )
    return AutWitness(fwd, inv)
