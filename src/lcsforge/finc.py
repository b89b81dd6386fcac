"""The IA family over finite index sets, and its axiom checkers.

Indices are global, so the inclusion of the subgroup supported on I into the
one supported on J is literally the identity on generator words.  Subgroups
are presented by their Magnus generators; "generated in degree d" is
certified through generator supports.

``enumerate_normal_generators`` materializes the left-normed length-k
commutators of Magnus generators that normally generate the k-th lower
central series term, each tagged with a deterministic size-(d*k) support
completion.  The raw tuple space grows like |S|^k, so enumeration takes a
budget: when the space is larger, tuples are taken on a deterministic
evenly spaced stride through lexicographic order.
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
    "SubgroupSpec",
    "CommutingWitness",
    "subgroup_generators",
    "magnus_generators",
    "include_ia",
    "check_functoriality",
    "check_commuting",
    "check_condition_eii",
    "generation_degree_coverage",
    "left_normed_commutator",
    "enumerate_normal_generators",
    "DEFAULT_TUPLE_BUDGET",
]

DEFAULT_TUPLE_BUDGET = 4000


@dataclass(frozen=True)
class FIncIA:
    """The IA family at ambient rank n."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient rank must be >= 1")


@dataclass(frozen=True)
class SubgroupSpec:
    index_set: tuple[int, ...]
    generators: tuple[IAWord, ...]

    def __post_init__(self) -> None:
        allowed = set(self.index_set)
        for g in self.generators:
            if not g.ia_support() <= allowed:
                raise ValueError("generator support escapes the index set")


def _magnus_tokens(indices: tuple[int, ...]) -> list[IAGenerator]:
    out = [conj(a, b) for a in indices for b in indices if a != b]
    out += [
        comm_move(a, b, c)
        for a in indices
        for b, c in combinations(sorted(set(indices) - {a}), 2)
    ]
    return out


def subgroup_generators(family: FIncIA, index_set) -> SubgroupSpec:
    """All positive Magnus generators supported inside the index set:
    |I|(|I|-1) conjugation moves plus |I|(|I|-1)(|I|-2)/2 commutator moves."""
    idx = tuple(sorted(set(index_set)))
    if any(not 1 <= i <= family.n for i in idx):
        raise ValueError(f"index set {idx} outside ambient rank {family.n}")
    gens = tuple(ia_word(family.n, [g]) for g in _magnus_tokens(idx))
    return SubgroupSpec(idx, gens)


def magnus_generators(family: FIncIA) -> tuple[IAWord, ...]:
    """The full Magnus generating set at the ambient rank."""
    return subgroup_generators(family, range(1, family.n + 1)).generators


def include_ia(w: IAWord, target_rank: int) -> IAWord:
    """The inclusion morphism under global indexing: the same generator
    tokens re-ranked into a larger ambient free group."""
    if target_rank < w.rank:
        raise ValueError("inclusion cannot shrink the rank")
    return IAWord(target_rank, w.gens)


def check_functoriality(family: FIncIA, inner, middle, outer) -> bool:
    """Both inclusion routes I -> J -> K and I -> K give the same generator
    word, hence the same automorphism, on every generator of the inner
    subgroup.  Under global indexing both routes yield ``IAWord(r_K,
    gen.gens)`` by construction, so the comparison cannot fail: the check
    can only fail through the rank validation of the word the route through
    J builds at r_J, the smallest rank containing J."""
    si, sj, sk = set(inner), set(middle), set(outer)
    if not (si <= sj <= sk):
        raise ValueError("need a chain I <= J <= K")
    if any(not 1 <= i <= family.n for i in sk):
        raise ValueError(f"chain escapes ambient rank {family.n}")
    r_i = max(si, default=1)
    r_j = max(sj, default=r_i)
    r_k = max(sk, default=r_j)
    for tok in _magnus_tokens(tuple(sorted(si))):
        gen = ia_word(r_i, [tok])
        via_middle = include_ia(include_ia(gen, r_j), r_k)
        direct = include_ia(gen, r_k)
        if via_middle != direct:
            return False
    return True


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
    lg = subgroup_generators(family, li).generators
    rg = subgroup_generators(family, ri).generators
    table = tuple(
        (format_token(u), format_token(v), commute(u, v)) for u in lg for v in rg
    )
    return CommutingWitness(li, ri, table)


def format_token(w: IAWord) -> str:
    return ";".join(g.token() for g in w.gens) or "1"


def check_condition_eii(family: FIncIA, m: int) -> bool:
    """The strengthened commuting condition at size m: the initial-segment
    subgroup commutes with every same-size subgroup disjoint from it."""
    if not 1 <= m <= family.n:
        raise ValueError(f"m={m} outside 1..{family.n}")
    base = tuple(range(1, m + 1))
    rest = [i for i in range(1, family.n + 1) if i > m]
    for other in combinations(rest, m):
        if not check_commuting(family, base, other).ok:
            return False
    return True


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


def _support_completion(support: frozenset[int], size: int, n: int) -> tuple[int, ...]:
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
    d: int = 3,
    budget: int | None = None,
) -> list[tuple[IAWord, tuple[int, ...]]]:
    """Deduplicated left-normed length-k commutators of Magnus generators,
    each with its support completed to a size-(d*k) index set by adding the
    smallest unused indices.  Identity realizations are dropped; within a
    budget smaller than the |S|^k tuple space, tuples are stride-sampled in
    lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if family.n < d * k:
        raise ValueError(f"need ambient rank >= d*k = {d * k}, got {family.n}")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    gens = magnus_generators(family)
    g = len(gens)
    total = g**k
    cap = DEFAULT_TUPLE_BUDGET if budget is None else budget
    step = 1 if total <= cap else -(-total // cap)  # ceil division

    found = {}  # realized endomorphism -> (word, completion), in sampling order
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
        found[endo] = (w, _support_completion(w.ia_support(), d * k, family.n))
    return list(found.values())
