"""Characters, the KMM sufficient criterion with machine-checkable
certificates, and a right-angled Artin group subsystem serving as the
independent oracle.

A character assigns a rational to each vertex generator 1..n of a RAAG and
stores the values in vertex order.  ``kmm_check`` verifies three hypotheses
(survival, connected commutation graph, domination) against a
caller-supplied group context and returns either a certificate whose fields
re-validate independently, or a structured failure.  The fourth hypothesis,
that B generates the group, is the caller's precondition: the one caller
passes every vertex generator.  ``mv_oracle`` is the living-subgraph
criterion for RAAG membership quoted from the literature on these groups:
the subgraph induced on the nonvanishing vertices must be connected and
dominating.

RAAG words are sequences of signed vertex indices.  The normal form first
removes every cancellable pair (inverse letters separated only by letters
commuting with them), then rewrites the reduced word to its canonical
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
    "Character",
    "character",
    "RAAGPresentation",
    "raag",
    "raag_from_text",
    "RAAGWord",
    "raag_word",
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


class Character:
    """Rational values on the vertex generators 1..n, in vertex order, of a
    homomorphism to the additive rationals; no caller assigns to them."""

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]) -> None:
        self.values = values

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.values == other.values

    def value(self, v: int) -> Fraction:
        if v < 1:
            raise IndexError(f"vertex {v} out of range")
        return self.values[v - 1]

    def is_zero(self) -> bool:
        return not any(self.values)


def character(values: Mapping[int, Fraction | int]) -> Character:
    """The character with the given value on each vertex; the keys must be
    exactly the vertices 1..n."""
    n = len(values)
    if set(values) != set(range(1, n + 1)):
        raise ValueError(f"character keys must be the vertices 1..{n}: {list(values)}")
    return Character(tuple(Fraction(values[v]) for v in range(1, n + 1)))


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
    `#` starts a comment."""
    count = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if count is None:
            count = int(line)
        else:
            u, v = line.split()
            edges.append((int(u), int(v)))
    if count is None:
        raise ValueError("missing vertex count line")
    return raag(count, edges)


class RAAGWord:
    """Word in signed vertex generators (+i / -i); no caller assigns to it."""

    __slots__ = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        if any(v == 0 for v in letters):
            raise ValueError("0 is not a valid signed letter")
        self.letters = letters

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self.letters == other.letters


def raag_word(letters: Iterable[int]) -> RAAGWord:
    return RAAGWord(tuple(letters))


def _reduce_raag(letters: list[int], g: RAAGPresentation) -> list[int]:
    """Delete cancellable pairs: inverse letters whose in-between letters all
    commute with them, repeated to a fixpoint."""
    changed = True
    while changed:
        changed = False
        for i in range(len(letters)):
            vi = letters[i]
            for j in range(i + 1, len(letters)):
                vj = letters[j]
                if vj == -vi:
                    between = letters[i + 1 : j]
                    if all(
                        abs(u) != abs(vi) and g.adjacent(abs(u), abs(vi))
                        for u in between
                    ):
                        del letters[j]
                        del letters[i]
                        changed = True
                    break
                if abs(vj) == abs(vi) or not g.adjacent(abs(vj), abs(vi)):
                    break
            if changed:
                break
    return letters


def raag_normal_form(w: RAAGWord, g: RAAGPresentation) -> RAAGWord:
    """Canonical representative: reduce, then greedily extract, among letters
    movable to the front, the leftmost one of lowest vertex index."""
    for v in w.letters:
        if not 1 <= abs(v) <= g.n_vertices:
            raise ValueError(f"letter {v} escapes vertex range")
    rest = _reduce_raag(list(w.letters), g)
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
    return RAAGWord(tuple(out))


def _inv_letters(letters: Sequence[int]) -> tuple[int, ...]:
    return tuple(-v for v in reversed(letters))


def raag_commute(u: RAAGWord, v: RAAGWord, g: RAAGPresentation) -> bool:
    comm = RAAGWord(
        u.letters + v.letters + _inv_letters(u.letters) + _inv_letters(v.letters)
    )
    return raag_normal_form(comm, g) == RAAGWord()


class RAAGContext:
    """Equality / commutation / character-evaluation oracle for one RAAG.
    Commutation answers are cached per word pair; a sweep asks about the
    same generator pairs once per support it meets."""

    def __init__(self, g: RAAGPresentation):
        self.graph = g
        self._commute_cache: dict[tuple, bool] = {}

    def commutes(self, u: RAAGWord, v: RAAGWord) -> bool:
        key = (u.letters, v.letters) if u.letters <= v.letters else (v.letters, u.letters)
        hit = self._commute_cache.get(key)
        if hit is None:
            hit = raag_commute(u, v, self.graph)
            self._commute_cache[key] = hit
        return hit

    def char_values(self, char: Character, ws: Sequence[RAAGWord]) -> list[Fraction]:
        """The character's value on each word, indexing its vertex values;
        each sum starts from its first term (0 for the empty word)."""
        vals = char.values
        out = []
        for w in ws:
            terms = [vals[v - 1] if v > 0 else -vals[-v - 1] for v in w.letters]
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
    char: Character,
    a_elements: Sequence,
    b_elements: Sequence,
) -> KMMCertificate | KMMFailure:
    """Check survival, connectivity and domination; on success the
    certificate semantically asserts the character's class lies in the BNS
    invariant.  The caller guarantees that B generates the group (every
    vertex generator of a RAAG does)."""
    if char.is_zero():
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
    cert: KMMCertificate, ctx, char: Character
) -> bool:
    """Re-verify every certificate field from scratch."""
    if char.is_zero() or not cert.a_elements:
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


def mv_oracle(g: RAAGPresentation, char: Character) -> bool:
    """Living-subgraph membership criterion for RAAG characters: the
    subgraph induced on vertices with nonzero value is connected, and every
    zero vertex is adjacent to a nonzero one."""
    vals = char.values
    if len(vals) != g.n_vertices:
        raise ValueError(f"character has {len(vals)} values, graph {g.n_vertices} vertices")
    living = [v for v in g.vertices() if vals[v - 1] != 0]
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
        if vals[v - 1] == 0 and not any(g.adjacent(v, u) for u in living):
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
    g: RAAGPresentation, chars: Iterable[Character]
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
    b_elements = [raag_word([v]) for v in g.vertices()]
    verdicts: dict[tuple[bool, ...], tuple[bool, bool, str | None]] = {}
    records = []
    for char in chars:
        row = char.values
        support = tuple(v != 0 for v in row)
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
        records.append(SweepRecord(row, *verdict))
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
) -> Iterable[Character]:
    """All characters with each vertex value drawn from the given grid, in
    lexicographic order of their values (in grid order).  Nothing is built
    before the first character is asked for."""
    grid = [Fraction(x) for x in values]
    for combo in product(grid, repeat=n_vertices):
        yield Character(combo)
