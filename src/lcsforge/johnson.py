"""Degree-one abelianization model for IA automorphisms.

The first homology of the IA family is modelled on the basis
``e_a* (x) (e_b ^ e_c)`` with ``b < c``; coordinates are keyed by triples
``(a, b, c)`` and held as ints where integral, as ``Fraction``s otherwise.
The map ``tau`` reads the degree-2 leading term of the Magnus series of
``phi(x_a) x_a^-1`` from its closed form, the Fox-calculus formula
(Magnus-Karrass-Solitar, ch. 5), in one pass over the letters; no series is
built.  Unimodular integer matrices act by inverse-transpose on the dual
slot and by the wedge square of the standard action on the wedge slot, so
tau and the action stay in the integers.  A functional is an ``H1Vector``
too, paired coordinatewise against the same basis; only functionals (the
tilt search's inputs) carry denominators.

``tilt_search`` replaces a density existence argument with an honest bounded
breadth-first search over words in elementary matrices: it either exhibits a
matrix whose pullback functional restricts nontrivially to every chosen
coordinate subspace, or reports exhaustion.  The search carries the pulled-back
functional itself, one move at a time through the same action kernel (the
transpose of the action of m is the action of m^T), so the action on the model
has one implementation and the search tracks no inverse matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .autom import AutWitness, FreeEndo, abelianized_matrix

__all__ = [
    "H1Vector",
    "h1_dimension",
    "h1_basis_keys",
    "h1_vector",
    "h1_add",
    "pairing",
    "tau",
    "IntMatrix",
    "mat_identity",
    "mat_mul",
    "elementary_matrix",
    "mat_inverse_unimodular",
    "glnz_action",
    "equivariance_failures",
    "subspace_image_basis",
    "TiltResult",
    "tilt_search",
    "rational_rank",
]

Key = tuple[int, int, int]  # (a, b, c) with b < c
Value = int | Fraction  # an int whenever the value is integral
Coords = tuple[tuple[Key, Value], ...]


def h1_dimension(n: int) -> int:
    return n * n * (n - 1) // 2


def h1_basis_keys(n: int) -> list[Key]:
    return [
        (a, b, c)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        for c in range(b + 1, n + 1)
    ]


def _normalize(n: int, coords: Mapping[Key, Value]) -> Coords:
    out = {}
    for (a, b, c), v in coords.items():
        if not (1 <= a <= n and 1 <= b < c <= n):
            raise ValueError(f"bad basis key {(a, b, c)} for rank {n}")
        f = v if isinstance(v, int) else Fraction(v)
        if f:
            out[(a, b, c)] = f.numerator if f.denominator == 1 else f
    return tuple(sorted(out.items()))


class H1Vector:
    """Finitely supported coordinates over the (a, b<c) basis; no caller assigns to them."""

    __slots__ = ("n", "coords")

    def __init__(self, n: int, coords: Coords = ()) -> None:
        self.n = n
        self.coords = coords

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            (self.n, self.coords) == (other.n, other.coords)
        )

    def as_dict(self) -> dict[Key, Value]:
        return dict(self.coords)

    def is_zero(self) -> bool:
        return not self.coords

    def dense(self) -> list[Value]:
        d = self.as_dict()
        return [d.get(k, 0) for k in h1_basis_keys(self.n)]


def h1_vector(n: int, coords: Mapping[Key, Value]) -> H1Vector:
    return H1Vector(n, _normalize(n, coords))


def h1_add(u: H1Vector, v: H1Vector) -> H1Vector:
    if u.n != v.n:
        raise ValueError("rank mismatch")
    out = u.as_dict()
    for k, val in v.coords:
        out[k] = out.get(k, 0) + val
    return h1_vector(u.n, out)


def pairing(lam: H1Vector, v: H1Vector) -> Fraction:
    if lam.n != v.n:
        raise ValueError("rank mismatch")
    vd = v.as_dict()
    return sum((val * vd[k] for k, val in lam.coords if k in vd), Fraction(0))


def tau(phi: FreeEndo) -> H1Vector:
    """Degree-2 leading data of an IA endomorphism: the coefficient of
    e_a* (x) (e_b ^ e_c) is the antisymmetrized X_b X_c coefficient of the
    Magnus series of phi(x_a) x_a^-1, so the conjugation move K[a,b]
    maps to e_a* (x) (e_b ^ e_a).  Additive under composition.

    Each letter x^e is 1 + e X + (powers of X alone), so for b != c the
    X_b X_c coefficient of a word y_1 ... y_L is the sum of e_p e_q over
    p < q with y_p a power of x_b and y_q one of x_c (the Fox-calculus
    formula, Magnus-Karrass-Solitar ch. 5).  One walk over phi(x_a) and then
    x_a^-1 keeps the running exponent sums and adds prefix[b] * e_q for
    every b < c.  The sums at the end of the walk are the abelianized
    displacement, so phi is IA iff every walk ends at zero; then the X_c X_b
    coefficient is minus the X_b X_c one, and the antisymmetrized
    coefficient is the X_b X_c coefficient itself."""
    n = phi.rank
    coords: dict[Key, int] = {}
    for a, img in phi.images:
        prefix = [0] * (n + 1)
        pairs = [[0] * (n + 1) for _ in range(n + 1)]
        for v in img.letters + (-a,):
            c, e = (v, 1) if v > 0 else (-v, -1)
            for b in range(1, c):
                if prefix[b]:
                    pairs[b][c] += e * prefix[b]
            prefix[c] += e
        if any(prefix):
            raise ValueError("tau needs an IA endomorphism")
        for b in range(1, n + 1):
            for c in range(b + 1, n + 1):
                if pairs[b][c]:
                    coords[(a, b, c)] = pairs[b][c]
    return h1_vector(n, coords)


# ---------------------------------------------------------------------------
# Integer matrices and the action on the homology model

IntMatrix = tuple[tuple[int, ...], ...]


def mat_identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt) for ra in a
    )


def elementary_matrix(n: int, i: int, j: int, sign: int = 1) -> IntMatrix:
    """Identity plus ``sign`` in entry (i, j); 1-based, i != j."""
    if i == j or not (1 <= i <= n and 1 <= j <= n) or sign not in (1, -1):
        raise ValueError(f"bad elementary data ({i},{j},{sign})")
    return tuple(
        tuple(
            (1 if r == c else 0) + (sign if (r, c) == (i - 1, j - 1) else 0)
            for c in range(n)
        )
        for r in range(n)
    )


def mat_inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a matrix of determinant +-1 (integer entries); an
    integer matrix is unimodular exactly when its inverse is integral."""
    n = len(m)
    rows, _ = _row_reduce(
        [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    )
    if any(rows[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    inverse = [row[n:] for row in rows]
    if any(v.denominator != 1 for row in inverse for v in row):
        raise ValueError("matrix is not unimodular (its inverse is not integral)")
    return tuple(tuple(int(v) for v in row) for row in inverse)


def _action(m: IntMatrix, minv: IntMatrix) -> Callable[[H1Vector], H1Vector]:
    """The action of m on the dual-tensor-wedge model, as a function of the
    vector: inverse transpose on the starred slot, wedge square of the
    standard column action on the other.  The nonzero entries of m's columns
    and of minv's rows are listed once, so a signed permutation costs one
    product per coordinate.  e_b ^ e_c goes to the sum of m[i][b] m[j][c]
    e_i ^ e_j over those entries; a term with i > j lands on the key (j, i)
    with its sign flipped, and one with i == j vanishes."""
    n = len(m)
    cols = [()] + [
        tuple((i, m[i - 1][b]) for i in range(1, n + 1) if m[i - 1][b])
        for b in range(n)
    ]
    rows = [()] + [tuple((ap, x) for ap, x in enumerate(row, 1) if x) for row in minv]

    def act(v: H1Vector) -> H1Vector:
        if v.n != n:
            raise ValueError("matrix size does not match vector rank")
        out: dict[Key, Value] = {}
        for (a, b, c), val in v.coords:
            col_c = cols[c]
            for ap, dual in rows[a]:
                scale = val * dual
                for i, x in cols[b]:
                    for j, y in col_c:
                        if i < j:
                            k = (ap, i, j)
                            out[k] = out.get(k, 0) + scale * x * y
                        elif i > j:
                            k = (ap, j, i)
                            out[k] = out.get(k, 0) - scale * x * y
        # every key is in range by construction, so only the values are
        # normalized: zeros dropped, an integral Fraction stored as an int
        coords = sorted(out.items())
        return H1Vector(
            n, tuple((k, v.numerator if v.denominator == 1 else v) for k, v in coords if v)
        )

    return act


def glnz_action(m: IntMatrix, v: H1Vector, minv: IntMatrix) -> H1Vector:
    """Representation on the dual-tensor-wedge model (see ``_action``).
    ``minv`` is m's exact inverse, from a lift's inverse witness or from
    ``mat_inverse_unimodular``."""
    return _action(m, minv)(v)


def equivariance_failures(
    lifts: Iterable[AutWitness], pairs: Sequence[tuple[FreeEndo, H1Vector]]
) -> tuple[int, int, int]:
    """Checks tau(lift . phi . lift^-1) == m . tau(phi) for every lift and
    every ``(phi, tau(phi))`` pair, where m abelianizes ``lift.fwd``, and
    returns the number of (lift, pair) checks, the number that fail and the
    number of distinct conjugates whose tau was computed.  m's inverse is
    the abelianization of ``lift.inv``: the witness checks on construction
    that ``lift.inv`` inverts ``lift.fwd``, and abelianization is
    multiplicative.  The action kernel is built once per lift, and the lifts
    are read one at a time, so a generator of lifts is never held whole.

    tau runs once per distinct conjugate.  Equal endomorphisms are equal
    objects (images reduced and sorted, fixed generators dropped), so the
    memo, local to this call, returns exactly what tau would; every pair is
    still conjugated, acted on and counted on its own."""
    taus: dict[FreeEndo, H1Vector] = {}
    checks = failures = 0
    for lift in lifts:
        act = _action(abelianized_matrix(lift.fwd), abelianized_matrix(lift.inv))
        checks += len(pairs)
        for phi, t in pairs:
            conj = lift.conj_endo(phi)
            lhs = taus.get(conj)
            if lhs is None:
                lhs = taus[conj] = tau(conj)
            failures += lhs != act(t)
    return checks, failures, len(taus)


def subspace_image_basis(index_set: Iterable[int], n: int) -> list[H1Vector]:
    """Basis vectors e_a* (x) (e_b ^ e_c) with a, b, c all in the index set;
    empty below size 2."""
    idx = sorted(set(index_set))
    if any(not 1 <= i <= n for i in idx):
        raise ValueError(f"index set {idx} outside rank {n}")
    return [
        h1_vector(n, {(a, b, c): 1})
        for a in idx
        for b in idx
        for c in idx
        if b < c
    ]


# ---------------------------------------------------------------------------
# Character tilting by bounded search over elementary-matrix words

Move = tuple[int, int, int]  # (i, j, sign)


class TiltResult(NamedTuple):
    """``examined`` counts the distinct pullbacks of the functional that were
    tested, the functional itself first; one reached by two words counts once."""

    found: bool
    moves: tuple[Move, ...] = ()
    matrix: IntMatrix | None = None
    examined: int = 0


@lru_cache(maxsize=None)
def _pullback_kernels(n: int) -> tuple[tuple[Move, Callable[[H1Vector], H1Vector]], ...]:
    """Each move (i, j, s) in search order, with the kernel that pulls a
    functional back by E_ij(s): the action of E_ij(s)^T = E_ji(s), whose
    inverse is E_ji(-s)."""
    return tuple(
        ((i, j, s), _action(elementary_matrix(n, j, i, s), elementary_matrix(n, j, i, -s)))
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for s in (1, -1)
    )


def tilt_search(
    lam: H1Vector, n: int, subset_size: int, budget: int
) -> TiltResult:
    """Breadth-first search over words of length <= budget in the elementary
    matrices E_ij(+-1) for the first word, shortest first and then in move
    order, whose matrix m pulls lam back to a functional nonzero on every
    coordinate subspace of the given subset size.  Exhaustion is reported,
    never papered over.

    The pullback lam(m . -) is lam under the action of m^T, the transpose of
    the action of m, so each move pulls the current functional, scaled to
    integers, back through ``_action`` with no elimination.  A restriction is
    nonzero iff some nonzero key lies in the subset.  Pass or fail, and every
    later pullback, depend only on the functional, so each distinct one is
    tested and expanded once; the witness matrix is the product of the moves."""
    if lam.is_zero():
        raise ValueError("tilt_search needs a nonzero functional")
    if not 2 <= subset_size <= n:
        raise ValueError(f"subset size {subset_size} outside 2..{n}")
    if lam.n != n:
        raise ValueError("functional rank mismatch")

    scale = 1
    for _, val in lam.coords:
        scale = scale * val.denominator // math.gcd(scale, val.denominator)
    start = H1Vector(n, tuple([(k, int(v * scale)) for k, v in lam.coords]))
    subsets = [
        sum([1 << i for i in idx]) for idx in combinations(range(1, n + 1), subset_size)
    ]
    kernels = _pullback_kernels(n)

    frontier: list[tuple[H1Vector, tuple[Move, ...]]] = [(start, ())]
    seen = {start.coords}
    examined = 0
    for depth in range(budget + 1):
        nxt: list[tuple[H1Vector, tuple[Move, ...]]] = []
        for mu, path in frontier:
            examined += 1
            keys = [(1 << a) | (1 << b) | (1 << c) for (a, b, c), _ in mu.coords]
            if all(any(k & s == k for k in keys) for s in subsets):
                matrix = reduce(
                    mat_mul, [elementary_matrix(n, *move) for move in path], mat_identity(n)
                )
                return TiltResult(True, path, matrix, examined)
            if depth == budget:
                continue
            for move, pull in kernels:
                nu = pull(mu)
                if nu.coords not in seen:
                    seen.add(nu.coords)
                    nxt.append((nu, path + (move,)))
        frontier = nxt
    return TiltResult(False, (), None, examined)


# ---------------------------------------------------------------------------
# Exact elimination over the rationals


def _row_reduce(
    rows: Iterable[Sequence[Fraction | int]],
) -> tuple[list[list[Fraction]], int]:
    """Gauss-Jordan elimination with exact fractions: the reduced row echelon
    form and the rank; the first ``rank`` rows hold the pivots."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for col in range(width):
        if rank == len(work):
            break
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [v * inv for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return work, rank


def rational_rank(rows: Iterable[Sequence[Fraction | int]]) -> int:
    """Row-echelon rank with exact fraction arithmetic."""
    return _row_reduce(rows)[1]
