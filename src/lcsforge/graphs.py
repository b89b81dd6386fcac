"""Undirected graphs on opaque labels: subset-disjointness graphs with path
witnesses, and the two-step link construction used to connect a moved
basepoint back to itself.

Only the index-set shadow of the (infinite) configuration graph is ever
materialized; the two-step witnesses carry the explicit commutation tables
that justify each edge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Hashable, Iterable, Sequence

from .autom import IAWord, commute, conjugate
from .finc import FIncIA, format_token, subgroup_generators

__all__ = [
    "UGraph",
    "ugraph",
    "Connectivity",
    "connectivity",
    "is_connected",
    "disjointness_graph",
    "expected_disjointness_connectivity",
    "disjointness_path",
    "validate_path",
    "TwoStepWitness",
    "two_step_witness",
]

Label = Hashable


@dataclass(frozen=True)
class UGraph:
    """Simple undirected graph; edges are stored as ordered 2-tuples of
    distinct existing vertices."""

    vertices: tuple[Label, ...]
    edges: frozenset[tuple[Label, Label]]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertices")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u!r},{v!r}) references missing vertex")

    def adjacency(self) -> dict[Label, list[Label]]:
        adj: dict[Label, list[Label]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: _sorted_labels(ns) for v, ns in adj.items()}


def _sorted_labels(labels) -> list[Label]:
    """Natural order when labels are comparable, repr order otherwise; either
    way deterministic."""
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=repr)


def _norm_edge(u: Label, v: Label) -> tuple[Label, Label]:
    return tuple(_sorted_labels((u, v)))


def ugraph(vertices: Iterable[Label], edges: Iterable[tuple[Label, Label]]) -> UGraph:
    return UGraph(tuple(vertices), frozenset(_norm_edge(u, v) for u, v in edges))


@dataclass(frozen=True)
class Connectivity:
    connected: bool
    components: tuple[tuple[Label, ...], ...]


def connectivity(g: UGraph) -> Connectivity:
    """BFS component labeling; members are sorted so each component is
    represented by its least label."""
    adj = g.adjacency()
    seen: set[Label] = set()
    comps = []
    for start in _sorted_labels(g.vertices):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = [start]
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        comps.append(tuple(_sorted_labels(comp)))
    return Connectivity(len(comps) <= 1, tuple(comps))


def is_connected(g: UGraph) -> bool:
    return connectivity(g).connected


def disjointness_graph(n: int, m: int) -> UGraph:
    """Vertices are the m-subsets of {1..n} (as sorted tuples), with an edge
    exactly between disjoint subsets."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    verts = list(combinations(range(1, n + 1), m))
    keyed = [(u, sum(1 << i for i in u)) for u in verts]
    # combinations of the sorted vertices already yields normalized edges
    edges = frozenset(
        (u, v) for (u, mu), (v, mv) in combinations(keyed, 2) if not mu & mv
    )
    return UGraph(tuple(verts), edges)


def expected_disjointness_connectivity(n: int, m: int) -> bool:
    """The small-range law as commonly quoted: connected exactly when
    n >= 2m+1 or there is a single vertex.  Beware: (n, m) = (2, 1) is a
    genuine exception (its two vertices are disjoint, hence joined), so the
    law as stated disagrees with the computed graph at that one point."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return n >= 2 * m + 1 or n == m


def validate_path(g: UGraph, path: Sequence[Label]) -> bool:
    if not path:
        return False
    vs = set(g.vertices)
    if any(v not in vs for v in path):
        return False
    return all(
        _norm_edge(u, v) in g.edges for u, v in zip(path, path[1:])
    )


def disjointness_path(
    n: int, m: int, start, goal
) -> tuple[tuple[int, ...], ...]:
    """A shortest path between two m-subsets through stepwise-disjoint
    m-subsets.  Tries the direct constructions first (equal, disjoint, or one
    common avoider), then falls back to BFS; raises when no path exists."""
    a = tuple(sorted(start))
    b = tuple(sorted(goal))
    if len(a) != m or len(b) != m:
        raise ValueError("endpoints are not m-subsets")
    if any(not 1 <= i <= n for i in a + b):
        raise ValueError("endpoints escape the ground set")
    if a == b:
        return (a,)
    if not set(a) & set(b):
        return (a, b)
    free = [i for i in range(1, n + 1) if i not in set(a) | set(b)]
    if len(free) >= m:
        return (a, tuple(free[:m]), b)

    g = disjointness_graph(n, m)
    prev: dict[tuple[int, ...], tuple[int, ...]] = {a: a}
    queue = deque([a])
    adj = g.adjacency()
    while queue:
        v = queue.popleft()
        if v == b:
            path = [v]
            while path[-1] != a:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                queue.append(w)
    raise ValueError(f"no disjointness path from {a} to {b} at (n={n}, m={m})")


@dataclass(frozen=True)
class TwoStepWitness:
    """The middle vertex of a two-edge link: an index set whose subgroup
    commutes elementwise both with the basepoint subgroup and with its
    conjugate by the moving generator.  The conjugator alpha is always the
    identity, so it is not stored; the JSON writes it as "identity"."""

    middle: tuple[int, ...]
    base_pairs: tuple[tuple[str, str, bool], ...]
    conjugated_pairs: tuple[tuple[str, str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(f for _, _, f in self.base_pairs) and all(
            f for _, _, f in self.conjugated_pairs
        )

    def to_json(self) -> dict:
        return {
            "middle": list(self.middle),
            "alpha": "identity",
            "base_pairs": [list(p) for p in self.base_pairs],
            "conjugated_pairs": [list(p) for p in self.conjugated_pairs],
            "ok": self.ok,
        }


def two_step_witness(
    n: int,
    m: int,
    d: int,
    base,
    mover: IAWord,
    strengthened: bool = False,
) -> TwoStepWitness:
    """Find an m-subset I whose subgroup commutes with the subgroup on the
    basepoint set and with that subgroup's conjugate by the mover.

    General mode needs n >= 2m+d and picks I disjoint from base and mover
    support alike.  Strengthened mode needs only n >= 2m+d-1 but requires the
    basepoint to be the initial segment {1..m}; when the mover's support is
    disjoint from it, the conjugated subgroup coincides with the original
    and I need only avoid the basepoint."""
    base_set = tuple(sorted(set(base)))
    if len(base_set) != m:
        raise ValueError("basepoint is not an m-subset")
    support = mover.ia_support()
    if len(support) > d:
        raise ValueError(f"mover support {sorted(support)} exceeds degree {d}")
    if mover.rank != n:
        raise ValueError("mover rank mismatch")

    if strengthened:
        if n < 2 * m + d - 1:
            raise ValueError(f"strengthened mode needs n >= {2 * m + d - 1}")
        if base_set != tuple(range(1, m + 1)):
            raise ValueError("strengthened mode requires the basepoint {1..m}")
    elif n < 2 * m + d:
        raise ValueError(f"general mode needs n >= {2 * m + d}")

    blocked = set(base_set) | support
    free = [i for i in range(1, n + 1) if i not in blocked]
    if len(free) >= m:
        middle = tuple(free[:m])
    elif strengthened and not (set(base_set) & support):
        # mover commutes with the basepoint subgroup, so its conjugates
        # collapse; avoiding the basepoint alone suffices
        loose = [i for i in range(1, n + 1) if i not in set(base_set)]
        if len(loose) < m:
            raise ValueError("no qualifying middle subset exists")
        middle = tuple(loose[:m])
    else:
        raise ValueError("no qualifying middle subset exists")

    family = FIncIA(n)
    mid_gens = subgroup_generators(family, middle)
    base_gens = subgroup_generators(family, base_set)
    conj_gens = [conjugate(g, mover) for g in base_gens]
    base_pairs = tuple(
        (format_token(u), format_token(v), commute(u, v))
        for u in mid_gens
        for v in base_gens
    )
    conj_pairs = tuple(
        (format_token(u), format_token(v), commute(u, v))
        for u in mid_gens
        for v in conj_gens
    )
    return TwoStepWitness(middle, base_pairs, conj_pairs)
