"""Characters, the KMM sufficient criterion with machine-checkable
certificates, and a right-angled Artin group subsystem serving as the
independent oracle.

A character assigns a rational to each generator label.  ``kmm_check``
verifies the four hypotheses (survival, connected commutation graph,
domination, attested generation) against a caller-supplied group context and
returns either a certificate whose fields re-validate independently, or a
structured failure.  ``mv_oracle`` is the living-subgraph criterion for RAAG
membership quoted from the literature on these groups: the subgraph induced
on the nonvanishing vertices must be connected and dominating.

RAAG words are sequences of signed vertex indices.  The normal form first
removes every cancellable pair (inverse letters separated only by letters
commuting with them), then rewrites the reduced word to its canonical
representative by repeatedly extracting the lowest-indexed letter that
commutes with everything before it.  Naive adjacent-swap bubbling is not
confluent for partially commuting alphabets, so the canonical form is
computed by greedy extraction, which is a class invariant.

``soundness_sweep`` cross-checks the criterion against the oracle character by
character.  ``grid_sweep`` gives the same counts over the whole character
grid while visiting one character per support, weighted by how many grid
characters share it, since both verdicts read only the support.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, product
from typing import Hashable, Iterable, Mapping, Sequence

__all__ = [
    "Character",
    "character",
    "character_validate",
    "RAAGPresentation",
    "raag",
    "raag_from_text",
    "raag_to_text",
    "RAAGWord",
    "raag_word",
    "raag_normal_form",
    "raag_equal",
    "raag_commute",
    "RAAGContext",
    "KMMCertificate",
    "KMMFailure",
    "kmm_check",
    "certificate_revalidate",
    "certificate_to_json",
    "mv_oracle",
    "SweepRecord",
    "SweepReport",
    "soundness_sweep",
    "grid_sweep",
    "all_graphs",
    "character_grid",
]

Label = Hashable


@dataclass(frozen=True)
class Character:
    """Rational values on generator labels, representing a homomorphism to
    the additive rationals."""

    values: tuple[tuple[Label, Fraction], ...]

    def as_dict(self) -> dict[Label, Fraction]:
        return dict(self.values)

    def value(self, label: Label) -> Fraction:
        for k, v in self.values:
            if k == label:
                return v
        raise KeyError(label)

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.values)


def character(values: Mapping[Label, Fraction | int]) -> Character:
    items = tuple(sorted(((k, Fraction(v)) for k, v in values.items()), key=lambda kv: repr(kv[0])))
    return Character(items)


def character_validate(
    char: Character, relators: Iterable[Sequence[tuple[Label, int]]]
) -> bool:
    """True iff the character kills the abelianized image of every relator
    (each relator a sequence of (label, exponent) pairs)."""
    vals = char.as_dict()
    for rel in relators:
        total = Fraction(0)
        for label, exponent in rel:
            if label not in vals:
                raise KeyError(f"relator uses unknown generator {label!r}")
            total += exponent * vals[label]
        if total:
            return False
    return True


# ---------------------------------------------------------------------------
# Right-angled Artin groups


@dataclass(frozen=True)
class RAAGPresentation:
    """Simple graph on vertices 1..n_vertices; an edge means the two vertex
    generators commute."""

    n_vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n_vertices < 0:
            raise ValueError(f"negative vertex count {self.n_vertices}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValueError(f"edge ({u},{v}) escapes vertex range")
            if u > v:
                raise ValueError("edges must be stored as (low, high)")

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


def raag_to_text(g: RAAGPresentation) -> str:
    lines = [str(g.n_vertices)]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RAAGWord:
    """Word in signed vertex generators (+i / -i)."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if any(v == 0 for v in self.letters):
            raise ValueError("0 is not a valid signed letter")


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


def raag_equal(u: RAAGWord, v: RAAGWord, g: RAAGPresentation) -> bool:
    return raag_normal_form(u, g) == raag_normal_form(v, g)


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
        """The character's value on each word, from one value map; each sum
        starts from its first term (0 for the empty word)."""
        vals = char.as_dict()
        out = []
        for w in ws:
            terms = [vals[v] if v > 0 else -vals[-v] for v in w.letters]
            out.append(sum(terms[1:], terms[0]) if terms else 0)
        return out

    def format_element(self, w: RAAGWord) -> list[int]:
        return list(w.letters)

    def parse_element(self, data: Sequence[int]) -> RAAGWord:
        return raag_word(data)


# ---------------------------------------------------------------------------
# The KMM criterion


@dataclass(frozen=True)
class KMMCertificate:
    """Witness that a character satisfies the sufficient conditions: all of
    A survives, the commutation graph on A is connected (spanning tree
    recorded), every element of B commutes with a recorded element of A, and
    generation of the group by B is attested."""

    a_elements: tuple
    b_elements: tuple
    survival: tuple[tuple[int, Fraction], ...]  # position in A -> value
    spanning_tree: tuple[tuple[int, int], ...]
    domination: tuple[tuple[int, int], ...]  # position in B -> position in A
    generation_attested: bool

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class KMMFailure:
    reason: str
    detail: tuple = ()

    @property
    def ok(self) -> bool:
        return False


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
    generation_attested: bool,
) -> KMMCertificate | KMMFailure:
    """Check survival, connectivity, domination, and generation attestation;
    on success the certificate semantically asserts the character's class
    lies in the BNS invariant."""
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

    if not generation_attested:
        return KMMFailure("generation-not-attested")

    return KMMCertificate(
        tuple(a_elements),
        tuple(b_elements),
        tuple(survival),
        tree,
        tuple(domination),
        True,
    )


def certificate_revalidate(
    cert: KMMCertificate, ctx, char: Character
) -> bool:
    """Re-verify every certificate field from scratch."""
    if char.is_zero() or not cert.a_elements or not cert.generation_attested:
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


def certificate_to_json(cert: KMMCertificate, ctx) -> dict:
    return {
        "A": [ctx.format_element(a) for a in cert.a_elements],
        "B": [ctx.format_element(b) for b in cert.b_elements],
        "survival": [[i, str(v)] for i, v in cert.survival],
        "spanning_tree": [list(e) for e in cert.spanning_tree],
        "domination": [list(e) for e in cert.domination],
        "generation_attested": cert.generation_attested,
    }


def certificate_from_json(data: Mapping, ctx) -> KMMCertificate:
    return KMMCertificate(
        tuple(ctx.parse_element(a) for a in data["A"]),
        tuple(ctx.parse_element(b) for b in data["B"]),
        tuple((int(i), Fraction(v)) for i, v in data["survival"]),
        tuple((int(i), int(j)) for i, j in data["spanning_tree"]),
        tuple((int(i), int(j)) for i, j in data["domination"]),
        bool(data["generation_attested"]),
    )


# ---------------------------------------------------------------------------
# The living-subgraph oracle and the cross-validation sweep


def mv_oracle(g: RAAGPresentation, char: Character) -> bool:
    """Living-subgraph membership criterion for RAAG characters: the
    subgraph induced on vertices with nonzero value is connected, and every
    zero vertex is adjacent to a nonzero one."""
    vals = char.as_dict()
    missing = [v for v in g.vertices() if v not in vals]
    if missing:
        raise KeyError(f"character misses vertices {missing}")
    living = [v for v in g.vertices() if vals[v] != 0]
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
        if vals[v] == 0 and not any(g.adjacent(v, u) for u in living):
            return False
    return True


@dataclass(frozen=True)
class SweepRecord:
    """The verdicts on one character; ``weight`` is the number of swept
    characters the record stands for (1 on the per-character route)."""

    char_values: tuple[Fraction, ...]
    kmm_ok: bool
    oracle_ok: bool
    failure_reason: str | None
    weight: int = 1


@dataclass(frozen=True)
class SweepReport:
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
    (generation attested by definition), and compare with the oracle.
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
        vals = char.as_dict()
        row = tuple(vals[v] for v in g.vertices())
        support = tuple(v != 0 for v in row)
        if not any(support):
            continue
        verdict = verdicts.get(support)
        if verdict is None:
            a_elements = [w for w, live in zip(b_elements, support) if live]
            outcome = kmm_check(ctx, char, a_elements, b_elements, True)
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
    support S, in which every live vertex takes -1 (the first nonzero value
    of the grid {-1, 0, 1, 2}) and every dead vertex 0.  Its record is
    weighted by 3^|S|, the number of grid characters with support S.  The
    weighted ``characters``, ``certificates`` and ``oracle_true_kmm_fail``
    equal the per-character route's.  If any representative is a soundness
    violation, the whole grid is swept character by character instead, so
    the violations are listed one per character, in grid order."""
    n = g.n_vertices
    report = soundness_sweep(g, character_grid(n, (-1, 0)))
    if report.soundness_violations:
        return soundness_sweep(g, character_grid(n))
    return SweepReport(
        tuple(
            replace(r, weight=3 ** sum(1 for x in r.char_values if x != 0))
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
    n_vertices: int, values: Sequence[int] = (-1, 0, 1, 2)
) -> Iterable[Character]:
    """All characters with each vertex value drawn from the given grid, in
    the order and with the label order ``character`` gives them."""
    labels = sorted(range(1, n_vertices + 1), key=repr)
    positions = [v - 1 for v in labels]
    grid = [Fraction(x) for x in values]
    for combo in product(grid, repeat=n_vertices):
        yield Character(tuple(zip(labels, [combo[i] for i in positions])))
