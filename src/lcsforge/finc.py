"""The IA family over finite index sets, and its axiom checkers.

Indices are global, so the inclusion of the subgroup supported on I into the
one supported on J keeps each generator word and only raises its rank;
``check_functoriality`` verifies that the realized map is then the same map
extended by the identity.  Subgroups are presented by their Magnus
generators; "generated in degree d" is certified through generator supports.

``enumerate_normal_generators`` materializes the left-normed length-k
commutators of Magnus generators that normally generate the k-th lower
central series term; ``support_completion`` gives any of them its
deterministic size-3k index set.  The raw tuple space grows like |S|^k, so
enumeration takes a budget: when the space is larger, tuples are taken on a
deterministic evenly spaced stride through lexicographic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .autom import (
    IAGenerator,
    IAWord,
    RankMismatch,
    _inverse_gens,
    comm_move,
    commute,
    conj,
    ia_word,
    is_identity,
)

__all__ = [
    "FIncIA",
    "CommutingWitness",
    "subgroup_generators",
    "magnus_generators",
    "include_ia",
    "check_functoriality",
    "check_commuting",
    "PairVerdicts",
    "disjoint_pair_verdicts",
    "check_condition_eii",
    "generation_degree_coverage",
    "left_normed_commutator",
    "enumerate_normal_generators",
    "support_completion",
    "DEFAULT_TUPLE_BUDGET",
    "GENERATION_DEGREE",
]

DEFAULT_TUPLE_BUDGET = 4000
# Every Magnus generator is supported on at most 3 indices, so a length-k
# commutator's support is completed to 3k indices.
GENERATION_DEGREE = 3


@dataclass(frozen=True)
class FIncIA:
    """The IA family at ambient rank n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient rank must be >= 1")


def _magnus_tokens(indices: tuple[int, ...]) -> list[IAGenerator]:
    out = [conj(a, b) for a in indices for b in indices if a != b]
    out += [
        comm_move(a, b, c)
        for a in indices
        for b, c in combinations(sorted(set(indices) - {a}), 2)
    ]
    return out


def subgroup_generators(family: FIncIA, index_set) -> tuple[IAWord, ...]:
    """All positive Magnus generators supported inside the index set:
    |I|(|I|-1) conjugation moves plus |I|(|I|-1)(|I|-2)/2 commutator moves."""
    idx = tuple(sorted(set(index_set)))
    if any(not 1 <= i <= family.n for i in idx):
        raise ValueError(f"index set {idx} outside ambient rank {family.n}")
    return tuple(ia_word(family.n, [g]) for g in _magnus_tokens(idx))


def magnus_generators(family: FIncIA) -> tuple[IAWord, ...]:
    """The full Magnus generating set at the ambient rank."""
    return subgroup_generators(family, range(1, family.n + 1))


def include_ia(w: IAWord, target_rank: int) -> IAWord:
    """The inclusion morphism under global indexing: the same generator
    tokens re-ranked into a larger ambient free group."""
    if target_rank < w.rank:
        raise ValueError("inclusion cannot shrink the rank")
    return IAWord(target_rank, w.gens)


def check_functoriality(family: FIncIA) -> list[tuple[str, int]]:
    """Inclusion commutes with realization.  Each Magnus generator is realized
    at its largest index m and, re-ranked by ``include_ia``, at every rank
    from m + 1 to n; ``FreeEndo`` stores only moved generators, so equal
    images mean the same map extended by the identity.  Returns the
    (token, rank) pairs whose images differ from those at rank m.

    A chain I <= J <= K inside [n] takes a generator on I through the ranks
    r_I <= r_J <= r_K, all between m and n, so these comparisons cover every
    one of the 4^n chains."""
    bad = []
    for tok in _magnus_tokens(tuple(range(1, family.n + 1))):
        w = ia_word(max(tok.indices), [tok])
        base = w.realized.images
        for r in range(w.rank + 1, family.n + 1):
            if include_ia(w, r).realized.images != base:
                bad.append((tok.token(), r))
    return bad


@dataclass(frozen=True)
class CommutingWitness:
    """Elementwise commutation table for two disjointly supported subgroups;
    the conjugator is identity, no conjugation is needed in this family."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    pairs: tuple[tuple[str, str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(flag for _, _, flag in self.pairs)

    def counterexamples(self) -> list[tuple[str, str]]:
        return [(u, v) for u, v, flag in self.pairs if not flag]

    def to_json(self) -> dict:
        return {
            "left": list(self.left),
            "right": list(self.right),
            "conjugator": "identity",
            "pairs": [list(p) for p in self.pairs],
            "ok": self.ok,
        }


def check_commuting(family: FIncIA, left, right) -> CommutingWitness:
    """Verify every generator pair across two disjoint index sets commutes,
    by direct composition."""
    li = tuple(sorted(set(left)))
    ri = tuple(sorted(set(right)))
    if set(li) & set(ri):
        raise ValueError(f"index sets intersect: {set(li) & set(ri)}")
    lg = subgroup_generators(family, li)
    rg = subgroup_generators(family, ri)
    table = tuple(
        (format_token(u), format_token(v), commute(u, v)) for u in lg for v in rg
    )
    return CommutingWitness(li, ri, table)


def format_token(w: IAWord) -> str:
    return ";".join(g.token() for g in w.gens) or "1"


@dataclass(frozen=True)
class PairVerdicts:
    """Commutation decided once per unordered pair of Magnus generators with
    disjoint supports.  A subset pair's commuting table holds the generator
    pair (u, v) exactly when supp u lies in the left set and supp v in the
    right one, so the failing pairs settle every subset pair's table."""

    n: int
    decided: int
    failing: tuple[tuple[IAGenerator, IAGenerator], ...]

    def hits(self, left, right) -> set[tuple[str, str]]:
        """The failing (left token, right token) pairs whose supports lie in
        the left and the right index set."""
        li, ri = set(left), set(right)
        hits = set()
        for a, b in self.failing:
            if a.indices <= li and b.indices <= ri:
                hits.add((a.token(), b.token()))
            if b.indices <= li and a.indices <= ri:
                hits.add((b.token(), a.token()))
        return hits

    def counterexamples(self, left, right) -> list[tuple[str, str]]:
        """What ``check_commuting(family, left, right).counterexamples()``
        gives, in its table order; the table is built only when some failing
        pair fits."""
        hits = self.hits(left, right)
        if not hits:
            return []
        li = tuple(sorted(set(left)))
        ri = tuple(sorted(set(right)))
        return [
            (u.token(), v.token())
            for u in _magnus_tokens(li)
            for v in _magnus_tokens(ri)
            if (u.token(), v.token()) in hits
        ]


def disjoint_pair_verdicts(family: FIncIA) -> PairVerdicts:
    """Decide, by direct composition, whether each unordered pair of Magnus
    generators with disjoint supports commutes; each generator's realization
    is built once and shared by its pairs."""
    gens = magnus_generators(family)
    decided = 0
    failing = []
    for u, v in combinations(gens, 2):
        if u.gens[0].indices.isdisjoint(v.gens[0].indices):
            decided += 1
            if not commute(u, v):
                failing.append((u.gens[0], v.gens[0]))
    return PairVerdicts(family.n, decided, tuple(failing))


def check_condition_eii(verdicts: PairVerdicts, m: int) -> bool:
    """The strengthened commuting condition at size m: the initial-segment
    subgroup commutes with every same-size subgroup disjoint from it."""
    n = verdicts.n
    if not 1 <= m <= n:
        raise ValueError(f"m={m} outside 1..{n}")
    base = range(1, m + 1)
    return not any(
        verdicts.hits(base, other) for other in combinations(range(m + 1, n + 1), m)
    )


def generation_degree_coverage(family: FIncIA) -> int:
    """Max support size over the Magnus generating set: 3 whenever commutator
    moves exist (n >= 3), 2 at n = 2, 0 at n = 1 (trivial group, no
    generators)."""
    gens = magnus_generators(family)
    return max((len(g.ia_support()) for g in gens), default=0)


def left_normed_commutator(factors: list[IAWord]) -> IAWord:
    """[s1, [s2, ... [s_{k-1}, s_k]]] as a generator word: one generator
    tuple, folded from the inside out, and one validated ``IAWord``."""
    ranks = {s.rank for s in factors}
    if len(ranks) > 1:
        raise RankMismatch(f"ranks differ: {sorted(ranks)}")
    out = factors[-1].gens
    for s in reversed(factors[:-1]):
        out = s.gens + out + _inverse_gens(s.gens) + _inverse_gens(out)
    return IAWord(factors[-1].rank, out)


def support_completion(w: IAWord, k: int, n: int) -> tuple[int, ...]:
    """The support of a length-k commutator completed to a size-3k index set
    inside [n] by adding the smallest unused indices."""
    size = GENERATION_DEGREE * k
    support = w.ia_support()
    out = sorted(support)
    for i in range(1, n + 1):
        if len(out) >= size:
            break
        if i not in support:
            out.append(i)
    if len(out) < size:
        raise ValueError(f"cannot complete support to size {size} inside [{n}]")
    return tuple(sorted(out[:size]))


def enumerate_normal_generators(
    family: FIncIA,
    k: int,
    budget: int | None = None,
) -> list[IAWord]:
    """Deduplicated left-normed length-k commutators of Magnus generators.
    Identity realizations are dropped; within a budget smaller than the
    |S|^k tuple space, tuples are stride-sampled in lexicographic order.
    The words are returned unrealized: the realizations that decide identity
    and duplicates are not kept."""
    if k < 1:
        raise ValueError("k must be >= 1")
    size = GENERATION_DEGREE * k
    if family.n < size:
        raise ValueError(f"need ambient rank >= 3k = {size}, got {family.n}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    gens = magnus_generators(family)
    g = len(gens)
    total = g**k
    cap = DEFAULT_TUPLE_BUDGET if budget is None else budget
    step = 1 if total <= cap else -(-total // cap)  # ceil division

    found = {}  # realized endomorphism -> generator tuple, in sampling order
    for flat in range(0, total, step):
        digits = []
        rem = flat
        for _ in range(k):
            rem, r = divmod(rem, g)
            digits.append(r)
        factors = [gens[r] for r in reversed(digits)]
        w = left_normed_commutator(factors)
        endo = w.realized
        if is_identity(endo) or endo in found:
            continue
        found[endo] = w.gens
    return [IAWord(family.n, gens) for gens in found.values()]
