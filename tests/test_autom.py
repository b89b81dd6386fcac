import random
import re
from itertools import combinations, permutations, product

import pytest

from lcsforge import autom
from lcsforge.autom import (
    AutWitness,
    FreeEndo,
    abelianized_matrix,
    apply,
    comm_move,
    commute,
    compose,
    concat_ia,
    conj,
    conjugate,
    format_ia_word,
    free_endo,
    ia_check,
    ia_word,
    identity_endo,
    identity_ia,
    inner_lift,
    invert_ia,
    is_identity,
    parse_ia_word,
    signed_permutation_lift,
    transvection_lift,
)
from lcsforge.finc import FIncIA, check_functoriality
from lcsforge.words import EPSILON, Word, concat, invert, parse_word, reduce_letters, word


def all_magnus_tokens(n):
    out = [conj(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    out += [
        comm_move(a, b, c)
        for a in range(1, n + 1)
        for b, c in combinations([i for i in range(1, n + 1) if i != a], 2)
    ]
    return out


def random_ia(rng, n, length=4):
    toks = all_magnus_tokens(n)
    gens = []
    for _ in range(rng.randint(0, length)):
        g = rng.choice(toks)
        if rng.random() < 0.5:
            g = g.inverse()
        gens.append(g)
    return ia_word(n, gens)


def test_realize_conj():
    phi = ia_word(2, [conj(1, 2)]).realized
    assert phi.image(1) == parse_word("x2.x1.X2")
    assert phi.image(2) == word([2])


def test_realize_comm_move():
    phi = ia_word(3, [comm_move(1, 2, 3)]).realized
    assert phi.image(1) == parse_word("x1.x2.x3.X2.X3")


def test_generator_inverses_cancel():
    for g in all_magnus_tokens(4):
        fwd = ia_word(4, [g]).realized
        back = ia_word(4, [g.inverse()]).realized
        assert is_identity(compose(fwd, back))
        assert is_identity(compose(back, fwd))


def test_realize_rejects_out_of_range():
    with pytest.raises(ValueError):
        ia_word(2, [conj(1, 3)])


def test_apply_identity_and_example():
    rng = random.Random(20)
    ident = identity_endo(4)
    for _ in range(30):
        w = word(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(10))
        assert apply(ident, w) == w
    phi = ia_word(2, [conj(1, 2)]).realized
    assert apply(phi, word([1])) == parse_word("x2.x1.X2")


def test_apply_is_homomorphism():
    rng = random.Random(21)
    phi = random_ia(rng, 4, 5).realized
    for _ in range(50):
        u = word(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(8))
        v = word(rng.choice([1, -1]) * rng.randint(1, 4) for _ in range(8))
        assert apply(phi, concat(u, v)) == concat(apply(phi, u), apply(phi, v))


def naive_reduce(letters):
    """Independent reducer: delete an adjacent v, -v pair until none is left."""
    out = list(letters)
    k = 0
    while k < len(out) - 1:
        if out[k] == -out[k + 1]:
            del out[k : k + 2]
            k = 0
        else:
            k += 1
    return tuple(out)


def test_reduction_kernels_match_naive_reducer():
    rng = random.Random(25)

    def letters(max_len):
        return [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, max_len))]

    # x2 goes to the identity, so its image must be EPSILON, not x2
    collapse = free_endo(3, {2: EPSILON, 3: word([1, 3, -1])})
    assert collapse.image(2) == EPSILON
    assert collapse.image(1) == word([1])
    for _ in range(200):
        raw = letters(16)
        assert reduce_letters(raw) == naive_reduce(raw)
        u, v = word(letters(8)), word(letters(8))
        assert concat(u, v).letters == naive_reduce(u.letters + v.letters)
        for phi in (collapse, random_ia(rng, 3).realized):
            substituted = []
            for x in u.letters:
                img = phi.image(abs(x)).letters
                substituted += img if x > 0 else [-y for y in reversed(img)]
            assert apply(phi, u).letters == naive_reduce(substituted)


def test_apply_rejects_support_overflow():
    with pytest.raises(ValueError):
        apply(identity_endo(2), word([3]))


def test_compose_identity_neutral_and_associative():
    rng = random.Random(22)
    for _ in range(20):
        a = random_ia(rng, 4).realized
        b = random_ia(rng, 4).realized
        c = random_ia(rng, 4).realized
        assert compose(a, identity_endo(4)) == a
        assert compose(identity_endo(4), a) == a
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose(identity_endo(2), identity_endo(3))


def test_disjoint_conjugations_commute_as_endos():
    a = ia_word(4, [conj(1, 2)]).realized
    b = ia_word(4, [conj(3, 4)]).realized
    assert compose(a, b) == compose(b, a)


def test_realize_word_times_inverse_is_identity():
    rng = random.Random(23)
    for _ in range(30):
        w = random_ia(rng, 4, 5)
        assert is_identity(
            compose(w.realized, invert_ia(w).realized)
        )


def realized_by_composition(w):
    """The route realization replaced, kept as the reference: one
    endomorphism per generator, composed left to right."""
    out = identity_endo(w.rank)
    for g in w.gens:
        out = compose(out, free_endo(w.rank, {g.a: Word(g.image_letters())}))
    return out


def test_realized_matches_composition_route():
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(2, 6)
        toks = all_magnus_tokens(n)
        length = rng.randint(0, 12)
        gens = []
        while len(gens) < length:
            g = rng.choice(toks)
            if rng.random() < 0.5:
                g = g.inverse()
            gens += [g] * rng.randint(1, 3)  # runs of one generator
        w = ia_word(n, gens[:length])
        assert w.realized == realized_by_composition(w), w
        back = concat_ia(w, invert_ia(w))
        assert is_identity(back.realized), back
        assert back.realized == realized_by_composition(back)


def test_commute_matches_commutator_route():
    rng = random.Random(27)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 6)
        u, v = random_ia(rng, n, 2), random_ia(rng, n, 2)
        comm = concat_ia(u, v, invert_ia(u), invert_ia(v))
        got = commute(u, v)
        assert got == is_identity(comm.realized), (u, v)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_realization_and_functoriality_compose_nothing(monkeypatch):
    w = ia_word(4, [conj(1, 2), comm_move(2, 3, 4, -1), conj(1, 2), conj(4, 1)])
    expected = realized_by_composition(ia_word(4, w.gens))

    def refuse(phi, psi):
        raise AssertionError("compose called")

    monkeypatch.setattr(autom, "compose", refuse)
    assert w.realized == expected
    assert check_functoriality(FIncIA(4)) == []


def test_commute_goldens():
    assert commute(ia_word(4, [conj(1, 2)]), ia_word(4, [conj(3, 4)]))
    # golden from direct composition: the two conjugations of x1 interfere
    assert not commute(ia_word(3, [conj(1, 2)]), ia_word(3, [conj(1, 3)]))


def test_commute_needs_witness():
    with pytest.raises(TypeError):
        commute(identity_endo(2), identity_endo(2))


def test_disjoint_magnus_generators_commute():
    toks = all_magnus_tokens(5)
    for g, h in combinations(toks, 2):
        if g.indices & h.indices:
            continue
        assert commute(ia_word(5, [g]), ia_word(5, [h])), (g.token(), h.token())


def test_abelianized_matrix_goldens():
    ident = tuple((1, 0) if i == 0 else (0, 1) for i in range(2))
    assert abelianized_matrix(identity_endo(2)) == ident
    k12 = ia_word(2, [conj(1, 2)]).realized
    assert abelianized_matrix(k12) == ident
    assert ia_check(k12)
    trans = free_endo(2, {1: word([1, 2])})
    m = abelianized_matrix(trans)
    assert sum(sum(row) for row in m) == 3
    assert m[0][0] == m[1][1] == 1 and m[1][0] == 1
    assert not ia_check(trans)


def test_abelianized_matrix_multiplicative():
    rng = random.Random(24)

    def mat_mul(a, b):
        n = len(a)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )

    for _ in range(20):
        a = rng.randint(1, 3)
        b = rng.choice([i for i in (1, 2, 3) if i != a])
        u = transvection_lift(3, a, b)
        v = random_ia(rng, 3).realized
        lhs = abelianized_matrix(compose(u.fwd, v))
        rhs = mat_mul(abelianized_matrix(u.fwd), abelianized_matrix(v))
        assert lhs == rhs


def test_every_generator_is_ia():
    for g in all_magnus_tokens(4):
        assert ia_check(ia_word(4, [g]).realized)


def test_conjugate_properties():
    rng = random.Random(25)
    for _ in range(20):
        phi = random_ia(rng, 4)
        alpha = random_ia(rng, 4)
        conj_word = conjugate(phi, alpha)
        assert abelianized_matrix(conj_word.realized) == abelianized_matrix(
            phi.realized
        )
        expected = compose(
            compose(invert_ia(alpha).realized, phi.realized), alpha.realized
        )
        assert conj_word.realized == expected
    phi = random_ia(rng, 4)
    assert conjugate(phi, identity_ia(4)).realized == phi.realized


def test_ia_word_serialization_roundtrip():
    w = ia_word(4, [conj(1, 2), comm_move(2, 3, 4, -1), conj(4, 1, -1)])
    text = format_ia_word(w)
    assert text == "n=4:K[1,2];M[2,3,4]';K[4,1]'"
    assert parse_ia_word(text) == w
    assert parse_ia_word("n=3:") == identity_ia(3)


def test_ia_word_serialization_roundtrip_seeded():
    rng = random.Random(82)
    texts = []
    for n in range(1, 13):
        toks = all_magnus_tokens(n)
        for _ in range(25):
            w = random_ia(rng, n, 6) if toks else identity_ia(n)
            text = format_ia_word(w)
            assert parse_ia_word(text) == w, text
            texts.append(text)
    assert "n=1:" in texts and "n=12:" in texts
    assert any(re.search(r"K\[\d\d,\d\d\]'", t) for t in texts)
    assert any(re.search(r"M\[\d+,\d+,\d\d\]'", t) for t in texts)


def test_parse_ia_word_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ia_word("K[1,2]")
    with pytest.raises(ValueError):
        parse_ia_word("n=3:Q[1,2]")


def test_free_endo_constructors_validate():
    with pytest.raises(ValueError):  # index outside the rank
        FreeEndo(2, ((3, word([1])),))
    with pytest.raises(ValueError):  # duplicate image
        FreeEndo(2, ((1, word([2])), (1, word([2, 1]))))
    with pytest.raises(ValueError):  # stored fixed image
        FreeEndo(2, ((1, word([1])),))
    with pytest.raises(ValueError):  # image beyond the rank
        free_endo(2, {1: word([1, 3])})
    assert free_endo(2, {2: word([2]), 1: word([2])}) == FreeEndo(2, ((1, word([2])),))


def test_unchecked_kernel_outputs_pass_validation(monkeypatch):
    """concat, invert, compose, IAWord.realized and both conj_endo routes
    build their results unchecked; on seeded inputs at ranks 2-6 the
    validating constructors accept each result and rebuild it unchanged."""
    rng = random.Random(24)

    def random_word(n):
        return word(
            rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 12))
        )

    def rebuilt(phi):
        return FreeEndo(phi.rank, tuple((i, Word(img.letters)) for i, img in phi.images))

    for _ in range(40):
        n = rng.randint(2, 6)
        u, v = random_word(n), random_word(n)
        for w in (concat(u, v, invert(u)), invert(v)):
            assert Word(w.letters) == w
        phis = [random_ia(rng, n).realized for _ in range(3)]
        phis.append(free_endo(n, {i: random_word(n) for i in rng.sample(range(1, n + 1), 2)}))
        perm = signed_permutation_lift(
            n, rng.sample(range(1, n + 1), n), [rng.choice((1, -1)) for _ in range(n)]
        )
        lifts = [perm, transvection_lift(n, *rng.sample(range(1, n + 1), 2)), inner_lift(n, u)]
        outs = phis + [compose(p, q) for p in phis for q in phis]
        outs += [lift.conj_endo(p) for lift in lifts for p in phis]
        with monkeypatch.context() as m:
            m.setattr(AutWitness, "_relabelling", property(lambda self: None))
            outs += [perm.conj_endo(p) for p in phis]
        for phi in outs:
            assert rebuilt(phi) == phi


def test_generator_validation():
    with pytest.raises(ValueError):
        conj(1, 1)
    with pytest.raises(ValueError):
        comm_move(1, 3, 2)
    with pytest.raises(ValueError):
        comm_move(1, 1, 2)


def test_aut_witness_validates():
    with pytest.raises(ValueError):
        AutWitness(
            free_endo(2, {1: word([1, 2])}),
            free_endo(2, {1: word([1, 2])}),
        )
    lift = transvection_lift(3, 1, 2)
    assert is_identity(compose(lift.fwd, lift.inv))


def test_signed_permutation_witnesses_checked_letter_by_letter(monkeypatch):
    """Every signed-permutation lift at n = 4, and seeded ones at n = 2-6, is
    accepted by the letter-map check with nothing composed, and by the two
    compositions with the relabelling hidden.  Both routes reject an inverse
    with one image's sign flipped or two images swapped; a witness with a
    longer image in either half is still checked by composing."""
    rng = random.Random(88)
    cases = [
        (4, perm, signs)
        for perm in permutations(range(1, 5))
        for signs in product((1, -1), repeat=4)
    ]
    for _ in range(60):
        n = rng.randint(2, 6)
        cases.append((n, rng.sample(range(1, n + 1), n), [rng.choice((1, -1)) for _ in range(n)]))
    composed = []
    real = autom.compose
    monkeypatch.setattr(autom, "compose", lambda *args: composed.append(args) or real(*args))
    for hidden in (False, True):
        with monkeypatch.context() as m:
            if hidden:
                m.setattr(AutWitness, "_relabelling", property(lambda self: None))
            for n, perm, signs in cases:
                lift = signed_permutation_lift(n, perm, signs)
                assert bool(composed) == hidden
                images = {j: lift.inv.image(j) for j in range(1, n + 1)}
                j, k = rng.sample(range(1, n + 1), 2)
                flipped = {**images, j: invert(images[j])}
                swapped = {**images, j: images[k], k: images[j]}
                for bad in (flipped, swapped):
                    composed.clear()
                    with pytest.raises(ValueError):
                        AutWitness(lift.fwd, free_endo(n, bad))
                    assert bool(composed) == hidden
                composed.clear()
    sp = signed_permutation_lift(3, (2, 3, 1), (1, -1, 1))
    tv = transvection_lift(3, 1, 2)
    for fwd, inv in ((sp.fwd, tv.fwd), (tv.fwd, sp.inv)):
        with pytest.raises(ValueError):
            AutWitness(fwd, inv)
        assert composed
        composed.clear()


def test_lift_constructors():
    lift = inner_lift(3, word([1]))
    assert lift.fwd.image(2) == parse_word("x1.x2.X1")
    sp = signed_permutation_lift(3, (2, 3, 1), (1, -1, 1))
    assert sp.fwd.image(1) == word([2])
    assert sp.fwd.image(2) == word([-3])
    assert is_identity(compose(sp.fwd, sp.inv))
    with pytest.raises(ValueError):
        signed_permutation_lift(3, (1, 1, 2))
