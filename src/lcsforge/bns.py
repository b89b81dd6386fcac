"""Characters, the KMM sufficient criterion with machine-checkable
certificates, and a right-angled Artin group subsystem serving as the
independent oracle.

A character is a plain tuple of ``Fraction``s: its value on each vertex
generator 1..n of a RAAG, in vertex order.  ``character`` builds one from a
mapping keyed by exactly those vertices.  ``kmm_check`` verifies three
hypotheses (survival, connected commutation graph, domination) against a
caller-supplied group context and returns either a certificate whose fields
re-validate independently, or a structured failure.  The fourth hypothesis,
that B generates the group, is the caller's precondition: the one caller
passes every vertex generator.  ``mv_oracle`` is the living-subgraph
criterion for RAAG membership quoted from the literature on these groups:
the subgraph induced on the nonvanishing vertices must be connected and
dominating.

A RAAG word is a plain tuple of nonzero ``int``s: ``+v`` is the vertex
generator v and ``-v`` its inverse.  ``raag_normal_form`` is the one
boundary that validates letters: it refuses any letter that is not an
``int`` within ±1..n.  It first removes every cancellable pair (inverse
letters separated only by letters commuting with them) in one pass, the
standard reduction for these groups (Wrathall, J. Symbolic Comput. 1988):
each letter scans back past the letters it commutes with and cancels the
first inverse it meets, or else is appended.  With no edges that is the free
reduction's stack loop.  It then rewrites the reduced word to its canonical
representative by repeatedly extracting the lowest-indexed letter that
commutes with everything before it.  Naive adjacent-swap bubbling is not
confluent for partially commuting alphabets, so the canonical form is
computed by greedy extraction, which is a class invariant.

``soundness_sweep`` cross-checks the criterion against the oracle character by
character.  ``grid_sweep`` gives the same counts over the whole character
grid ``GRID`` while visiting one character per support, weighted by how many
grid characters share it, since both verdicts read only the support.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "GRID",
    "character",
    "RAAGPresentation",
    "raag",
    "raag_from_text",
    "raag_normal_form",
    "raag_commute",
    "RAAGContext",
    "KMMCertificate",
    "KMMFailure",
    "kmm_check",
    "certificate_revalidate",
    "mv_oracle",
    "SweepRecord",
    "SweepReport",
    "soundness_sweep",
    "grid_sweep",
    "all_graphs",
    "character_grid",
]

# The values each vertex takes in the swept character grid.
GRID = (-1, 0, 1, 2)


def character(values: Mapping[int, Fraction | int]) -> tuple[Fraction, ...]:
    """The character with the given value on each vertex, as its values in
    vertex order; the keys must be exactly the vertices 1..n."""
    n = len(values)
    if set(values) != set(range(1, n + 1)):
        raise ValueError(f"character keys must be the vertices 1..{n}: {list(values)}")
    return tuple(Fraction(values[v]) for v in range(1, n + 1))


# ---------------------------------------------------------------------------
# Right-angled Artin groups


class RAAGPresentation:
    """Simple graph on vertices 1..n_vertices; an edge means the two vertex
    generators commute; no caller assigns to its fields."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: frozenset[tuple[int, int]]) -> None:
        if n_vertices < 0:
            raise ValueError(f"negative vertex count {n_vertices}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
                raise ValueError(f"edge ({u},{v}) escapes vertex range")
            if u > v:
                raise ValueError("edges must be stored as (low, high)")
        self.n_vertices = n_vertices
        self.edges = edges

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and (
            (self.n_vertices, self.edges) == (other.n_vertices, other.edges)
        )

    def adjacent(self, u: int, v: int) -> bool:
        a, b = min(u, v), max(u, v)
        return (a, b) in self.edges

    def vertices(self) -> range:
        return range(1, self.n_vertices + 1)


def raag(n_vertices: int, edges: Iterable[tuple[int, int]]) -> RAAGPresentation:
    norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
    return RAAGPresentation(n_vertices, norm)


def raag_from_text(text: str) -> RAAGPresentation:
    """First non-comment line: vertex count; following lines `u v` edges;
    `#` starts a comment.  A malformed line raises a ValueError that names
    its number and text."""
    count = None
    edges = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if count is None:
                (count,) = [int(f) for f in line.split()]
            else:
                u, v = [int(f) for f in line.split()]
                edges.append((u, v))
        except ValueError:
            want = "a vertex count" if count is None else "an edge `u v`"
            raise ValueError(f"line {number}: expected {want}, got {line!r}") from None
    if count is None:
        raise ValueError("missing vertex count line")
    return raag(count, edges)


def _reduce_raag(letters: Iterable[int], g: RAAGPresentation) -> list[int]:
    """Delete cancellable pairs in one pass: each letter scans back past the
    kept letters it commutes with, cancels the first inverse it meets, and
    is otherwise appended.  A deletion leaves no new cancellable pair, since
    the deleted letter commuted with every kept letter after it."""
    out: list[int] = []
    for v in letters:
        for pos in range(len(out) - 1, -1, -1):
            u = out[pos]
            if u == -v:
                del out[pos]
                break
            if abs(u) == abs(v) or not g.adjacent(abs(u), abs(v)):
                out.append(v)
                break
        else:
            out.append(v)
    return out


def raag_normal_form(w: Sequence[int], g: RAAGPresentation) -> tuple[int, ...]:
    """Canonical representative: reduce, then greedily extract, among letters
    movable to the front, the leftmost one of lowest vertex index.  Every
    letter must be an ``int`` within ±1..n."""
    for v in w:
        if type(v) is not int or not 1 <= abs(v) <= g.n_vertices:
            raise ValueError(
                f"a RAAG letter is a nonzero int within ±1..{g.n_vertices}, got {v!r}"
            )
    rest = _reduce_raag(w, g)
    out: list[int] = []
    while rest:
        best = None
        for pos, v in enumerate(rest):
            if all(
                abs(u) != abs(v) and g.adjacent(abs(u), abs(v))
                for u in rest[:pos]
            ):
                if best is None or abs(v) < abs(rest[best]):
                    best = pos
        assert best is not None  # position 0 is always movable
        out.append(rest.pop(best))
    return tuple(out)


def raag_commute(u: tuple[int, ...], v: tuple[int, ...], g: RAAGPresentation) -> bool:
    """Whether the commutator u v u⁻¹ v⁻¹ is the identity."""
    comm = (*u, *v, *(-x for x in reversed(u)), *(-x for x in reversed(v)))
    return raag_normal_form(comm, g) == ()


class RAAGContext:
    """Equality / commutation / character-evaluation oracle for one RAAG.
    Commutation answers are cached per word pair; a sweep asks about the
    same generator pairs once per support it meets."""

    def __init__(self, g: RAAGPresentation):
        self.graph = g
        self._commute_cache: dict[tuple, bool] = {}

    def commutes(self, u: tuple[int, ...], v: tuple[int, ...]) -> bool:
        key = (u, v) if u <= v else (v, u)
        hit = self._commute_cache.get(key)
        if hit is None:
            hit = raag_commute(u, v, self.graph)
            self._commute_cache[key] = hit
        return hit

    def char_values(
        self, char: tuple[Fraction, ...], ws: Sequence[tuple[int, ...]]
    ) -> list[Fraction]:
        """The character's value on each word, indexing its vertex values;
        each sum starts from its first term (0 for the empty word)."""
        out = []
        for w in ws:
            terms = [char[v - 1] if v > 0 else -char[-v - 1] for v in w]
            out.append(sum(terms[1:], terms[0]) if terms else 0)
        return out


# ---------------------------------------------------------------------------
# The KMM criterion


class KMMCertificate(NamedTuple):
    """Witness that a character satisfies the sufficient conditions: all of
    A survives, the commutation graph on A is connected (spanning tree
    recorded), and every element of B commutes with a recorded element of A.
    That B generates the group is the caller's precondition, which
    ``kmm_check`` does not test, so a certificate records nothing for it."""

    a_elements: tuple
    b_elements: tuple
    survival: tuple[tuple[int, Fraction], ...]  # position in A -> value
    spanning_tree: tuple[tuple[int, int], ...]
    domination: tuple[tuple[int, int], ...]  # position in B -> position in A

    ok = True


class KMMFailure(NamedTuple):
    reason: str
    detail: tuple = ()

    ok = False


def _spanning_tree(
    count: int, commutes_at
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]] :
    """BFS spanning tree over the commutation graph on positions 0..count-1;
    returns (tree edges, unreached positions)."""
    if count == 0:
        return (), ()
    seen = {0}
    queue = deque([0])
    tree = []
    while queue:
        i = queue.popleft()
        for j in range(count):
            if j not in seen and commutes_at(i, j):
                seen.add(j)
                tree.append((i, j))
                queue.append(j)
    unreached = tuple(sorted(set(range(count)) - seen))
    return tuple(tree), unreached


def kmm_check(
    ctx,
    char: tuple[Fraction, ...],
    a_elements: Sequence,
    b_elements: Sequence,
) -> KMMCertificate | KMMFailure:
    """Check survival, connectivity and domination; on success the
    certificate semantically asserts the character's class lies in the BNS
    invariant.  The caller guarantees that B generates the group (every
    vertex generator of a RAAG does)."""
    if not any(char):
        return KMMFailure("zero-character")
    if not a_elements:
        return KMMFailure("empty-A")

    survival = []
    for i, v in enumerate(ctx.char_values(char, a_elements)):
        if v == 0:
            return KMMFailure("A-does-not-survive", (i,))
        survival.append((i, v))

    tree, unreached = _spanning_tree(
        len(a_elements), lambda i, j: ctx.commutes(a_elements[i], a_elements[j])
    )
    if unreached:
        return KMMFailure("commutation-graph-disconnected", unreached)

    domination = []
    for j, b in enumerate(b_elements):
        hit = next(
            (i for i, a in enumerate(a_elements) if ctx.commutes(b, a)), None
        )
        if hit is None:
            return KMMFailure("undominated-element", (j,))
        domination.append((j, hit))

    return KMMCertificate(
        tuple(a_elements),
        tuple(b_elements),
        tuple(survival),
        tree,
        tuple(domination),
    )


def certificate_revalidate(
    cert: KMMCertificate, ctx, char: tuple[Fraction, ...]
) -> bool:
    """Re-verify every certificate field from scratch."""
    if not any(char) or not cert.a_elements:
        return False
    recorded = dict(cert.survival)
    for i, v in enumerate(ctx.char_values(char, cert.a_elements)):
        if v == 0 or recorded.get(i) != v:
            return False
    reached = {0}
    for i, j in cert.spanning_tree:
        if i not in reached or j in reached:
            return False
        if not ctx.commutes(cert.a_elements[i], cert.a_elements[j]):
            return False
        reached.add(j)
    if reached != set(range(len(cert.a_elements))):
        return False
    dom = dict(cert.domination)
    for j, b in enumerate(cert.b_elements):
        if j not in dom:
            return False
        if not ctx.commutes(b, cert.a_elements[dom[j]]):
            return False
    return True


# ---------------------------------------------------------------------------
# The living-subgraph oracle and the cross-validation sweep


def mv_oracle(g: RAAGPresentation, char: tuple[Fraction, ...]) -> bool:
    """Living-subgraph membership criterion for RAAG characters: the
    subgraph induced on vertices with nonzero value is connected, and every
    zero vertex is adjacent to a nonzero one."""
    if len(char) != g.n_vertices:
        raise ValueError(f"character has {len(char)} values, graph {g.n_vertices} vertices")
    living = [v for v in g.vertices() if char[v - 1] != 0]
    if not living:
        raise ValueError("mv_oracle needs a nonzero character")
    seen = {living[0]}
    queue = deque([living[0]])
    live = set(living)
    while queue:
        u = queue.popleft()
        for w in live:
            if w not in seen and g.adjacent(u, w):
                seen.add(w)
                queue.append(w)
    if seen != live:
        return False
    for v in g.vertices():
        if char[v - 1] == 0 and not any(g.adjacent(v, u) for u in living):
            return False
    return True


class SweepRecord(NamedTuple):
    """The verdicts on one character; ``weight`` is the number of swept
    characters the record stands for (1 on the per-character route)."""

    char_values: tuple[Fraction, ...]
    kmm_ok: bool
    oracle_ok: bool
    failure_reason: str | None
    weight: int = 1


class SweepReport(NamedTuple):
    records: tuple[SweepRecord, ...]

    @property
    def soundness_violations(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if r.kmm_ok and not r.oracle_ok)

    @property
    def characters(self) -> int:
        return sum(r.weight for r in self.records)

    @property
    def certificates(self) -> int:
        return sum(r.weight for r in self.records if r.kmm_ok)

    @property
    def oracle_true_kmm_fail(self) -> int:
        return sum(r.weight for r in self.records if r.oracle_ok and not r.kmm_ok)


def soundness_sweep(
    g: RAAGPresentation, chars: Iterable[tuple[Fraction, ...]]
) -> SweepReport:
    """The per-character reference route, for arbitrary characters.

    For each nonzero character: run the criterion with the canonical
    choice A = living vertex generators, B = all vertex generators
    (which generate the group by definition), and compare with the oracle.
    Criterion success must imply oracle truth; the converse failures are
    recorded since the criterion is only sufficient.

    Both verdicts depend only on the support (which vertices are nonzero):
    survival always holds, since A is exactly the living generators;
    connectivity of the commutation graph on A, domination of B and the
    living-subgraph oracle read only which vertices live.  So the real
    ``kmm_check`` and ``mv_oracle`` run once per support, on the first
    character seen with it, and every character with that support gets
    their verdicts in its own record."""
    ctx = RAAGContext(g)
    b_elements = [(v,) for v in g.vertices()]
    verdicts: dict[tuple[bool, ...], tuple[bool, bool, str | None]] = {}
    records = []
    for char in chars:
        support = tuple(v != 0 for v in char)
        if not any(support):
            continue
        verdict = verdicts.get(support)
        if verdict is None:
            a_elements = [w for w, live in zip(b_elements, support) if live]
            outcome = kmm_check(ctx, char, a_elements, b_elements)
            verdict = (
                outcome.ok,
                mv_oracle(g, char),
                None if outcome.ok else outcome.reason,
            )
            verdicts[support] = verdict
        records.append(SweepRecord(char, *verdict))
    return SweepReport(tuple(records))


def grid_sweep(g: RAAGPresentation) -> SweepReport:
    """``soundness_sweep`` over ``character_grid(n)``, one character per
    support.

    Both verdicts depend only on the support, so each nonzero support S is
    swept once, on its representative: the first grid character with
    support S, in which every live vertex takes the first nonzero value of
    ``GRID`` and every dead vertex 0.  Its record is weighted by k^|S|, the
    number of grid characters with support S, where k counts the nonzero
    values of ``GRID``.  The weighted ``characters``, ``certificates`` and
    ``oracle_true_kmm_fail`` equal the per-character route's.  If any representative is a soundness
    violation, the whole grid is swept character by character instead, so
    the violations are listed one per character, in grid order."""
    n = g.n_vertices
    nonzero = [x for x in GRID if x != 0]
    base = len(nonzero)
    report = soundness_sweep(g, character_grid(n, (nonzero[0], 0)))
    if report.soundness_violations:
        return soundness_sweep(g, character_grid(n))
    return SweepReport(
        tuple(
            r._replace(weight=base ** sum(1 for x in r.char_values if x != 0))
            for r in report.records
        )
    )


def all_graphs(n_vertices: int) -> Iterable[RAAGPresentation]:
    """Every labeled simple graph on the given vertices."""
    pairs = list(combinations(range(1, n_vertices + 1), 2))
    for mask in range(1 << len(pairs)):
        yield raag(
            n_vertices,
            (pairs[k] for k in range(len(pairs)) if mask >> k & 1),
        )


def character_grid(
    n_vertices: int, values: Sequence[int] = GRID
) -> Iterable[tuple[Fraction, ...]]:
    """All characters with each vertex value drawn from the given grid, in
    lexicographic order of their values (in grid order).  ``product`` is
    lazy, so nothing is built before the first character is asked for."""
    return product([Fraction(x) for x in values], repeat=n_vertices)
