import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from lcsforge import bns
from lcsforge.words import reduce_letters
from lcsforge.bns import (
    GRID,
    KMMCertificate,
    KMMFailure,
    RAAGContext,
    SweepRecord,
    all_graphs,
    certificate_revalidate,
    character,
    character_grid,
    kmm_check,
    mv_oracle,
    raag,
    raag_commute,
    raag_from_text,
    raag_normal_form,
    soundness_sweep,
)

FOUR_CYCLE = raag(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
PATH3 = raag(3, [(1, 2), (2, 3)])


def test_normal_form_goldens():
    g_edge = raag(2, [(1, 2)])
    g_none = raag(2, [])
    assert raag_normal_form((2, 1), g_edge) == (1, 2)
    assert raag_normal_form((2, 1), g_none) == (2, 1)
    assert raag_normal_form((1, -1), g_none) == ()
    assert raag_normal_form((1, 2, -1), g_edge) == (2,)
    assert type(raag_normal_form([2, 1], g_edge)) is tuple


def test_normal_form_refuses_bad_letters():
    """The normal form is the one boundary for RAAG letters: anything but a
    nonzero int within ±1..n is refused, not compared or cancelled."""
    g = raag(3, [(1, 2)])
    for letters in [(2.0, 1), (1.5, -1.5), (True,), (Fraction(1),), (0,), (1, 4), (-4,)]:
        with pytest.raises(ValueError, match="a RAAG letter is a nonzero int"):
            raag_normal_form(letters, g)


def fixpoint_reduce(letters, g):
    """The restart-until-nothing-changes reduction the one pass replaced,
    kept as the reference: delete one cancellable pair, rescan from the
    start, until none is left."""
    letters = list(letters)
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


def _has_cancellable_pair(letters, g):
    return any(
        letters[j] == -letters[i]
        and all(
            abs(u) != abs(letters[i]) and g.adjacent(abs(u), abs(letters[i]))
            for u in letters[i + 1 : j]
        )
        for i in range(len(letters))
        for j in range(i + 1, len(letters))
    )


def test_one_pass_reduction_matches_fixpoint(monkeypatch):
    """On random graphs of rank 1..6 and words of up to 14 letters, the
    one-pass reduction leaves no cancellable pair and agrees with the
    fixpoint reference in length and in normal form; with no edges it is
    free reduction."""
    rng = random.Random(31)
    cases = []
    for _ in range(3000):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(1, n + 1), 2))
        g = raag(n, [p for p in pairs if rng.random() < 0.5])
        word = tuple(
            rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 14))
        )
        cases.append((g, word))
        reduced = bns._reduce_raag(word, g)
        assert not _has_cancellable_pair(reduced, g), (word, g.edges)
        assert len(reduced) == len(fixpoint_reduce(word, g)), (word, g.edges)
        assert tuple(bns._reduce_raag(word, raag(n, []))) == reduce_letters(word)
    one_pass = [raag_normal_form(word, g) for g, word in cases]
    monkeypatch.setattr(bns, "_reduce_raag", fixpoint_reduce)
    assert one_pass == [raag_normal_form(word, g) for g, word in cases]


def test_normal_form_idempotent_and_swap_invariant():
    rng = random.Random(40)
    g = raag(4, [(1, 2), (2, 3), (3, 4)])
    for _ in range(150):
        letters = [
            rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(rng.randint(0, 8))
        ]
        nf = raag_normal_form(tuple(letters), g)
        assert raag_normal_form(nf, g) == nf
        # apply a random admissible adjacent swap to the input
        swappable = [
            i
            for i in range(len(letters) - 1)
            if abs(letters[i]) != abs(letters[i + 1])
            and g.adjacent(abs(letters[i]), abs(letters[i + 1]))
        ]
        if swappable:
            i = rng.choice(swappable)
            swapped = letters[:]
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert raag_normal_form(tuple(swapped), g) == nf


def test_raag_equal_and_commute():
    g = raag(2, [(1, 2)])
    nf = raag_normal_form((1, 2), g)
    assert nf == raag_normal_form((2, 1), g)
    assert raag_commute((1, 2), (2, 1), g)
    g0 = raag(2, [])
    assert not raag_commute((1,), (2,), g0)
    assert raag_commute((1,), (1, 1), g0)


def test_presentation_validation():
    with pytest.raises(ValueError):
        raag(2, [(1, 1)])
    with pytest.raises(ValueError):
        raag(2, [(1, 3)])


def test_graph_file_roundtrip():
    text = "# demo graph\n4\n1 2\n2 3  # chord\n3 4\n1 4\n"
    g = raag_from_text(text)
    assert g == FOUR_CYCLE
    with pytest.raises(ValueError):
        raag_from_text("# only comments\n")
    for text, message in [
        ("3\n1 2 3\n", "line 2: expected an edge `u v`, got '1 2 3'"),
        ("3\n1 x\n", "line 2: expected an edge `u v`, got '1 x'"),
        ("# c\n3\n\n2\n", "line 4: expected an edge `u v`, got '2'"),
        ("# c\nthree  # count\n1 2\n", "line 2: expected a vertex count, got 'three'"),
        ("3 4\n", "line 1: expected a vertex count, got '3 4'"),
    ]:
        with pytest.raises(ValueError) as exc:
            raag_from_text(text)
        assert str(exc.value) == message, text


def test_character_keys_are_the_vertices():
    """A character takes exactly the vertices 1..n as keys, is the tuple of
    their values in vertex order, and the oracle refuses one of the wrong
    length."""
    lam = character({2: Fraction(5, 3), 1: 0, 3: -2})
    assert lam == (0, Fraction(5, 3), -2) and type(lam) is tuple
    assert all(type(x) is Fraction for x in lam)
    assert lam[1] == Fraction(5, 3)  # the value on vertex 2
    assert any(lam) and not any(character({1: 0, 2: 0}))
    assert character({}) == ()
    for keys in ([1, 3], [0, 1], [2], ["a", "b"], [1, 2, 4]):
        with pytest.raises(ValueError):
            character({k: 1 for k in keys})
    for n in (2, 4):
        with pytest.raises(ValueError):
            mv_oracle(PATH3, character({v: 1 for v in range(1, n + 1)}))


def test_kmm_four_cycle_certificate():
    ctx = RAAGContext(FOUR_CYCLE)
    lam = character({v: 1 for v in range(1, 5)})
    elements = [(v,) for v in range(1, 5)]
    out = kmm_check(ctx, lam, elements, elements)
    assert isinstance(out, KMMCertificate)
    assert out.ok
    assert len(out.spanning_tree) == 3
    assert certificate_revalidate(out, ctx, lam)


def test_kmm_disconnected_failure():
    ctx = RAAGContext(FOUR_CYCLE)
    lam = character({1: 1, 2: 0, 3: 1, 4: 0})
    out = kmm_check(ctx, lam, [(1,), (3,)], [(v,) for v in range(1, 5)])
    assert isinstance(out, KMMFailure)
    assert out.reason == "commutation-graph-disconnected"
    assert not mv_oracle(FOUR_CYCLE, lam)


def test_kmm_failure_modes():
    ctx = RAAGContext(FOUR_CYCLE)
    lam = character({v: 1 for v in range(1, 5)})
    a = [(v,) for v in range(1, 5)]
    assert kmm_check(ctx, character({v: 0 for v in range(1, 5)}), a, a).reason == "zero-character"
    assert kmm_check(ctx, lam, [], a).reason == "empty-A"
    dead = character({1: 1, 2: 1, 3: 1, 4: 0})
    assert kmm_check(ctx, dead, a, a).reason == "A-does-not-survive"
    free2 = raag(2, [])
    out = kmm_check(
        RAAGContext(free2),
        character({1: 1, 2: 0}),
        [(1,)],
        [(1,), (2,)],
    )
    assert out.reason == "undominated-element"


def char_values_by_fraction_sums(char, ws):
    """The sums char_values replaced, kept as the reference: each started
    from Fraction(0)."""
    return [
        sum((char[abs(v) - 1] if v > 0 else -char[abs(v) - 1] for v in w), Fraction(0))
        for w in ws
    ]


def test_char_values_match_fraction_sums():
    rng = random.Random(84)
    ctx = RAAGContext(FOUR_CYCLE)
    for _ in range(200):
        char = character(
            {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in range(1, 5)}
        )
        ws = [
            tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(1, 6)))
            for _ in range(5)
        ] + [()]
        got = ctx.char_values(char, ws)
        assert got == char_values_by_fraction_sums(char, ws)
        assert all(isinstance(x, Fraction) for x in got[:-1])


def test_kmm_single_vertex():
    z = raag(1, [])
    out = kmm_check(RAAGContext(z), character({1: 1}), [(1,)], [(1,)])
    assert out.ok


def test_mv_oracle_examples():
    assert mv_oracle(PATH3, character({1: 0, 2: 1, 3: 0}))
    assert not mv_oracle(PATH3, character({1: 1, 2: 0, 3: 0}))
    complete = raag(3, [(1, 2), (1, 3), (2, 3)])
    for values in [(1, 0, 0), (0, 2, 0), (1, -1, 1)]:
        lam = character({v: values[v - 1] for v in (1, 2, 3)})
        assert mv_oracle(complete, lam)
    with pytest.raises(ValueError):
        mv_oracle(PATH3, character({1: 0, 2: 0, 3: 0}))


def test_soundness_sweep_four_cycle():
    grid = character_grid(4, (-1, 0, 1))
    report = soundness_sweep(FOUR_CYCLE, grid)
    assert len(report.records) == 80
    assert not report.soundness_violations
    # with the canonical A the criterion matches the oracle on the nose
    assert all(r.kmm_ok == r.oracle_ok for r in report.records)


def test_soundness_sweep_complete_k3():
    complete = raag(3, [(1, 2), (1, 3), (2, 3)])
    report = soundness_sweep(complete, character_grid(3, (-1, 0, 1)))
    assert not report.soundness_violations
    assert report.certificates == 26  # every nonzero character works on K3


def test_free_pair_has_empty_invariant():
    free2 = raag(2, [])
    report = soundness_sweep(free2, character_grid(2))
    assert len(report.records) == 15
    assert report.certificates == 0
    reasons = {r.failure_reason for r in report.records}
    assert reasons <= {"commutation-graph-disconnected", "undominated-element"}


def _support(char, g):
    return tuple(char[v - 1] != 0 for v in g.vertices())


def test_soundness_sweep_matches_per_character_route(monkeypatch):
    """The sweep's one verdict per support equals the criterion and the
    oracle run on every full character, and the criterion and the oracle
    each run once per distinct support."""
    rng = random.Random(20)
    pool = [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(5, 3)]
    real_kmm, real_oracle = bns.kmm_check, bns.mv_oracle
    calls = {"kmm": [], "oracle": []}

    def counted_kmm(ctx, char, a_elements, b_elements):
        calls["kmm"].append(_support(char, ctx.graph))
        return real_kmm(ctx, char, a_elements, b_elements)

    def counted_oracle(g, char):
        calls["oracle"].append(_support(char, g))
        return real_oracle(g, char)

    monkeypatch.setattr(bns, "kmm_check", counted_kmm)
    monkeypatch.setattr(bns, "mv_oracle", counted_oracle)
    reasons = set()
    for _ in range(60):
        n = rng.randint(1, 6)
        pairs = list(combinations(range(1, n + 1), 2))
        g = raag(n, [p for p in pairs if rng.random() < 0.5])
        chars = [
            character({v: rng.choice(pool) for v in g.vertices()})
            for _ in range(rng.randint(1, 40))
        ]
        chars += rng.choices(chars, k=5)
        chars.append(character({v: 0 for v in g.vertices()}))
        rng.shuffle(chars)
        calls["kmm"].clear()
        calls["oracle"].clear()
        report = soundness_sweep(g, chars)

        ctx = RAAGContext(g)
        everything = [(v,) for v in g.vertices()]
        expected = []
        for char in chars:
            if not any(char):
                continue
            living = [(v,) for v in g.vertices() if char[v - 1] != 0]
            out = kmm_check(ctx, char, living, everything)
            expected.append(
                SweepRecord(
                    tuple(char[v - 1] for v in g.vertices()),
                    out.ok,
                    mv_oracle(g, char),
                    None if out.ok else out.reason,
                )
            )
            reasons.add(expected[-1].failure_reason)
        assert report.records == tuple(expected)
        supports = {_support(c, g) for c in chars if any(c)}
        for name in ("kmm", "oracle"):
            assert len(calls[name]) == len(supports)
            assert set(calls[name]) == supports
    assert reasons == {None, "commutation-graph-disconnected", "undominated-element"}


def test_grid_sweep_matches_per_character_route(monkeypatch):
    """The weighted sweep of one representative per support gives the
    per-character route's counts and violations on random graphs; each
    representative is the first grid character with its support; the
    criterion and the oracle run once per nonzero support; and a violation,
    forced by an oracle that rejects some certified supports, makes it
    return the per-character records themselves."""
    rng = random.Random(90)
    real_kmm, real_oracle = bns.kmm_check, bns.mv_oracle
    calls = {"kmm": [], "oracle": []}
    lying = [False]

    def counted_kmm(ctx, char, a_elements, b_elements):
        calls["kmm"].append(_support(char, ctx.graph))
        return real_kmm(ctx, char, a_elements, b_elements)

    def counted_oracle(g, char):
        calls["oracle"].append(_support(char, g))
        # the lie: no support that contains vertex 1 passes
        return real_oracle(g, char) and not (lying[0] and char[0] != 0)

    monkeypatch.setattr(bns, "kmm_check", counted_kmm)
    monkeypatch.setattr(bns, "mv_oracle", counted_oracle)
    fallbacks = 0
    for lie in (False, True):
        lying[0] = lie
        for trial in range(18):
            n = 1 + trial % 6
            pairs = list(combinations(range(1, n + 1), 2))
            g = raag(n, [p for p in pairs if rng.random() < 0.6])
            calls["kmm"].clear()
            calls["oracle"].clear()
            got = bns.grid_sweep(g)
            swept = {name: list(c) for name, c in calls.items()}
            want = soundness_sweep(g, character_grid(n))
            assert got.characters == len(want.records)
            assert got.certificates == want.certificates
            assert got.oracle_true_kmm_fail == want.oracle_true_kmm_fail
            assert got.soundness_violations == want.soundness_violations
            if want.soundness_violations:
                fallbacks += 1
                assert got.records == want.records
                continue
            first = {}
            for r in want.records:
                first.setdefault(tuple(x != 0 for x in r.char_values), r)
            assert [r._replace(weight=1) for r in got.records] == list(first.values())
            for name in ("kmm", "oracle"):
                assert len(swept[name]) == len(set(swept[name])) == 2**n - 1
    assert fallbacks > 0


def test_character_grid_matches_character():
    """The same characters, with Fraction values, as ``character`` builds
    from each grid combination."""
    wide = (-3, Fraction(-1, 2), 0, 1, Fraction(5, 3))
    for n in range(1, 12):
        values = wide if n <= 3 else (0, 1)
        got = list(character_grid(n, values))
        want = [
            character({v: combo[v - 1] for v in range(1, n + 1)})
            for combo in product(values, repeat=n)
        ]
        assert got == want
        assert all(type(ch) is tuple for ch in got)
        assert all(type(x) is Fraction for ch in got for x in ch)


def test_character_grid_is_lazy():
    """The grid is never materialized: the first of the 4^64 characters
    on 64 vertices comes at once, and the next follows in grid order."""
    grid = iter(character_grid(64))
    low, zero = Fraction(GRID[0]), Fraction(GRID[1])
    assert next(grid) == (low,) * 64
    assert next(grid) == (low,) * 63 + (zero,)


def test_all_graphs_count():
    assert sum(1 for _ in all_graphs(3)) == 8
    assert sum(1 for _ in all_graphs(4)) == 64
