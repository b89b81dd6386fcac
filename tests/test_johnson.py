import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from lcsforge import autom
from lcsforge.autom import (
    AutWitness,
    RankMismatch,
    abelianized_matrix,
    comm_move,
    compose,
    conj,
    free_endo,
    ia_check,
    ia_word,
    identity_endo,
    inner_lift,
    signed_permutation_lift,
    transvection_lift,
)
from lcsforge.finc import FIncIA, enumerate_normal_generators, magnus_generators
from lcsforge.johnson import (
    elementary_matrix,
    equivariance_failures,
    format_h1,
    glnz_action,
    h1_add,
    h1_basis_keys,
    h1_dimension,
    h1_functional,
    h1_vector,
    mat_identity,
    mat_inverse_unimodular,
    mat_mul,
    pairing,
    parse_h1,
    rational_rank,
    subspace_image_basis,
    tau,
    tilt_search,
)
from lcsforge.magnus import magnus_embed
from lcsforge.words import Word, concat, invert, word


def test_tau_goldens():
    assert tau(identity_endo(3)).is_zero()
    k12 = ia_word(2, [conj(1, 2)]).realized
    assert tau(k12) == h1_vector(2, {(1, 1, 2): -1})  # e1* (x) (e2 ^ e1)
    m123 = ia_word(3, [comm_move(1, 2, 3)]).realized
    assert tau(m123) == h1_vector(3, {(1, 2, 3): 1})


def test_tau_rejects_non_ia():
    with pytest.raises(ValueError):
        tau(free_endo(2, {1: word([1, 2])}))


def test_tau_additive():
    rng = random.Random(50)
    gens = magnus_generators(FIncIA(4))
    for _ in range(40):
        toks = [rng.choice(gens).gens[0] for _ in range(3)]
        u = ia_word(4, toks[:2]).realized
        v = ia_word(4, toks[2:]).realized
        assert tau(compose(u, v)) == h1_add(tau(u), tau(v))


def test_tau_vanishes_above_level_one():
    fam = FIncIA(6)
    for w, _ in enumerate_normal_generators(fam, 2, budget=250):
        assert tau(w.realized).is_zero()


def tau_by_magnus_series(phi):
    """The route tau replaced, kept as the reference: antisymmetrize the
    X_b X_c coefficients of the cutoff-3 Magnus series of each displaced
    word phi(x_a) x_a^-1, after a separate IA check."""
    if not ia_check(phi):
        raise ValueError("tau needs an IA endomorphism")
    coords = {}
    for a in phi.moved_indices():
        series = magnus_embed(concat(phi.image(a), Word((-a,))), 3).as_dict()
        for b in range(1, phi.rank + 1):
            for c in range(b + 1, phi.rank + 1):
                half = Fraction(series.get((b, c), 0) - series.get((c, b), 0), 2)
                if half:
                    coords[(a, b, c)] = half
    return h1_vector(phi.rank, coords)


def tau_outcome(route, phi):
    try:
        return route(phi)
    except ValueError:
        return "not IA"


def random_word(rng, n, length):
    """Reduced random word with runs of one signed letter, inverses included."""
    letters = []
    while len(letters) < length:
        v = rng.randint(1, n) * rng.choice((1, -1))
        letters += [v] * rng.randint(1, 4)
    return word(letters[:length])


def random_ia_endo(rng, n):
    """A realized word in signed Magnus generators on a random index subset,
    so that some generators stay unmoved at rank n."""
    idx = rng.sample(range(1, n + 1), rng.randint(2, n))
    toks = [conj(a, b) for a in idx for b in idx if a != b]
    toks += [comm_move(a, b, c) for a in idx for b in idx for c in idx
             if a not in (b, c) and b < c]
    gens = []
    for _ in range(rng.randint(0, 8)):
        g = rng.choice(toks)
        gens += [g if rng.random() < 0.5 else g.inverse()] * rng.randint(1, 3)
    return ia_word(n, gens).realized


def random_lift(rng, n):
    kind = rng.choice(("perm", "transvection", "inner"))
    if kind == "perm":
        perm = rng.sample(range(1, n + 1), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        return signed_permutation_lift(n, perm, signs)
    if kind == "transvection":
        a, b = rng.sample(range(1, n + 1), 2)
        return transvection_lift(n, a, b, rng.choice((1, -1)))
    return inner_lift(n, random_word(rng, n, rng.randint(1, 4)))


def random_endo_inputs(rng, n):
    """IA words, their conjugates by lifts, long hand-built IA endomorphisms
    (x_a -> u x_a u^-1 or x_a [u, v] with runs of inverse letters) and
    endomorphisms that are almost never IA."""
    phi = random_ia_endo(rng, n)
    lift = random_lift(rng, n)
    a, b = rng.sample(range(1, n + 1), 2)
    u = random_word(rng, n, rng.randint(5, 20))
    v = random_word(rng, n, rng.randint(5, 20))
    x = Word((a,))
    long_conj = free_endo(n, {a: concat(u, x, invert(u))})
    long_comm = free_endo(
        n,
        {a: concat(x, u, v, invert(u), invert(v)), b: concat(v, Word((b,)), invert(v))},
    )
    moved = rng.sample(range(1, n + 1), rng.randint(1, n))
    wild = free_endo(n, {i: random_word(rng, n, rng.randint(1, 6)) for i in moved})
    return [phi, lift.conj_endo(phi), long_conj, long_comm, wild], lift


def test_tau_matches_magnus_series_route():
    rng = random.Random(80)
    outcomes = set()
    for _ in range(120):
        n = rng.randint(2, 6)
        inputs, _ = random_endo_inputs(rng, n)
        for phi in inputs:
            got = tau_outcome(tau, phi)
            assert got == tau_outcome(tau_by_magnus_series, phi), phi
            outcomes.add(got == "not IA")
    assert outcomes == {True, False}


def test_conj_endo_matches_composition_route():
    rng = random.Random(81)
    for _ in range(120):
        n = rng.randint(2, 6)
        inputs, lift = random_endo_inputs(rng, n)
        for phi in inputs:
            assert lift.conj_endo(phi) == compose(lift.fwd, compose(phi, lift.inv))
        with pytest.raises(RankMismatch):
            lift.conj_endo(identity_endo(n + 1))
        with pytest.raises(RankMismatch):
            lift.conj_endo(identity_endo(n - 1))


def test_relabelling_conj_matches_substitution_route(monkeypatch):
    """Conjugation by signed-permutation lifts (all of them at n = 4, seeded
    ones at n = 2-6) against the substitution route, forced by hiding the
    relabelling, and against two compositions, on every Magnus generator and
    the random inputs, non-IA ones included."""
    rng = random.Random(82)
    cases = [(4, signed_permutation_lifts(4))]
    for _ in range(60):
        n = rng.randint(2, 6)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        cases.append((n, [signed_permutation_lift(n, rng.sample(range(1, n + 1), n), signs)]))
    for n, lifts in cases:
        gens = [g.realized for g in magnus_generators(FIncIA(n))]
        for lift in lifts:
            inputs = gens + random_endo_inputs(rng, n)[0]
            fast = [lift.conj_endo(phi) for phi in inputs]
            with monkeypatch.context() as m:
                m.setattr(AutWitness, "_relabelling", property(lambda self: None))
                assert [lift.conj_endo(phi) for phi in inputs] == fast
            assert [compose(lift.fwd, compose(phi, lift.inv)) for phi in inputs] == fast


def test_conj_endo_route_by_lift(monkeypatch):
    """Every signed-permutation lift at n = 4 relabels and substitutes
    nothing; every transvection lift and non-trivial inner lift substitutes."""
    rng = random.Random(83)
    n = 4
    inputs = [g.realized for g in magnus_generators(FIncIA(n))]
    inputs.append(free_endo(n, {1: random_word(rng, n, 6), 3: random_word(rng, n, 4)}))
    others = transvection_lifts(n)
    others += [inner_lift(n, w) for w in (random_word(rng, n, 5) for _ in range(30)) if w]
    perms = signed_permutation_lifts(n)
    calls = []
    substitute = autom._substitute
    monkeypatch.setattr(
        autom, "_substitute", lambda *args: calls.append(args) or substitute(*args)
    )
    for lift in perms:
        for phi in inputs:
            lift.conj_endo(phi)
    assert not calls
    for lift in others:
        lift.conj_endo(inputs[0])
        assert calls
        calls.clear()


def test_h1_dimension_and_keys():
    assert h1_dimension(3) == 9
    assert h1_dimension(4) == 24
    assert len(h1_basis_keys(4)) == 24


def test_generator_images_full_rank():
    for n, want in [(3, 9), (4, 24)]:
        rows = [tau(g.realized).dense() for g in magnus_generators(FIncIA(n))]
        assert rational_rank(rows) == want


def random_unimodular(rng, n, length):
    """A product of up to ``length`` random elementary matrices."""
    m = mat_identity(n)
    for _ in range(rng.randint(1, length)):
        i, j = rng.sample(range(1, n + 1), 2)
        m = mat_mul(m, elementary_matrix(n, i, j, rng.choice((1, -1))))
    return m


def random_h1_vector(rng, n, bound):
    return h1_vector(
        n, {k: rng.randint(-bound, bound) for k in h1_basis_keys(n) if rng.random() < 0.5}
    )


def act(m, v):
    return glnz_action(m, v, mat_inverse_unimodular(m))


def test_glnz_identity_and_permutation():
    v = h1_vector(3, {(1, 2, 3): 1, (2, 1, 3): Fraction(1, 2)})
    assert act(mat_identity(3), v) == v
    # 3-cycle 1->2->3->1 as a column-action matrix
    lift = signed_permutation_lift(3, (2, 3, 1))
    m = abelianized_matrix(lift.fwd)
    moved = act(m, h1_vector(3, {(1, 2, 3): 1}))
    # e2* (x) (e3 ^ e1); resorting the wedge flips the sign
    assert moved == h1_vector(3, {(2, 1, 3): -1})


def test_glnz_sign_bookkeeping():
    # swapping 1 <-> 2 sends e1* (x) (e1 ^ e2) to e2* (x) (e2 ^ e1)
    lift = signed_permutation_lift(2, (2, 1))
    m = abelianized_matrix(lift.fwd)
    moved = act(m, h1_vector(2, {(1, 1, 2): 1}))
    assert moved == h1_vector(2, {(2, 1, 2): -1})


def test_glnz_functorial():
    rng = random.Random(51)
    for _ in range(20):
        a, b = random_unimodular(rng, 3, 4), random_unimodular(rng, 3, 4)
        v = random_h1_vector(rng, 3, 2)
        assert act(mat_mul(a, b), v) == act(a, act(b, v))


def glnz_action_by_fractions(m, v):
    """Reference action: Fraction accumulation over every target triple,
    with the inverse from rational elimination."""
    n = v.n
    minv = mat_inverse_unimodular(m)
    out = {}
    for (a, b, c), val in v.coords:
        for ap in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    wedge = (
                        m[i - 1][b - 1] * m[j - 1][c - 1]
                        - m[j - 1][b - 1] * m[i - 1][c - 1]
                    )
                    k = (ap, i, j)
                    out[k] = out.get(k, Fraction(0)) + val * minv[a - 1][ap - 1] * wedge
    return h1_vector(n, out)


def test_glnz_action_matches_fraction_route():
    rng = random.Random(85)
    for n in range(2, 6):
        for _ in range(30):
            m = random_unimodular(rng, n, 6)
            v = random_h1_vector(rng, n, 5)
            moved = act(m, v)
            assert moved == glnz_action_by_fractions(m, v)
            assert all(type(x) is int for _, x in moved.coords)


def test_glnz_rejects_singular():
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((1, 1), (1, 1)))


def signed_permutation_lifts(n):
    return [
        signed_permutation_lift(n, perm, signs)
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]


def transvection_lifts(n):
    return [
        transvection_lift(n, a, b, sign)
        for a in range(1, n + 1)
        for b in range(1, n + 1)
        if a != b
        for sign in (1, -1)
    ]


def generator_pairs(n):
    return [(g.realized, tau(g.realized)) for g in magnus_generators(FIncIA(n))]


def test_lift_inverse_matrix_matches_elimination():
    rng = random.Random(86)
    lifts = [
        inner_lift(n, random_word(rng, n, rng.randint(1, 6)))
        for n in (2, 3, 4)
        for _ in range(10)
    ]
    for n in range(1, 5):
        lifts += signed_permutation_lifts(n) + transvection_lifts(n)
    for lift in lifts:
        m = abelianized_matrix(lift.fwd)
        assert abelianized_matrix(lift.inv) == mat_inverse_unimodular(m)


def test_equivariance_inner():
    lift = inner_lift(3, word([1]))
    assert abelianized_matrix(lift.fwd) == mat_identity(3)
    assert equivariance_failures(lift, generator_pairs(3)) == 0


def test_equivariance_signed_permutations_n3():
    pairs = generator_pairs(3)
    for lift in signed_permutation_lifts(3):
        assert equivariance_failures(lift, pairs) == 0


def test_equivariance_transvections_n3():
    pairs = generator_pairs(3)
    for lift in transvection_lifts(3):
        assert equivariance_failures(lift, pairs) == 0


def test_equivariance_counts_a_swapped_tau():
    # the action is invertible and the generator images are distinct, so a
    # pair carrying another generator's tau fails under every lift
    pairs = generator_pairs(3)
    swapped = [(pairs[0][0], pairs[1][1])] + pairs[1:]
    for lift in signed_permutation_lifts(3) + transvection_lifts(3):
        assert equivariance_failures(lift, swapped) == 1


def test_subspace_image_basis_sizes():
    assert subspace_image_basis((1,), 3) == []
    two = subspace_image_basis((1, 2), 3)
    assert len(two) == 2
    assert len(subspace_image_basis((1, 2, 3), 3)) == 9
    assert len(subspace_image_basis((1, 2, 3), 4)) == 9


def test_tau_images_span_subspaces():
    from lcsforge.finc import subgroup_generators

    fam = FIncIA(4)
    for size in (2, 3):
        for idx in combinations(range(1, 5), size):
            basis = subspace_image_basis(idx, 4)
            images = [
                tau(g.realized).dense()
                for g in subgroup_generators(fam, idx).generators
            ]
            expected = size * size * (size - 1) // 2
            assert rational_rank(images) == expected
            both = images + [v.dense() for v in basis]
            assert rational_rank(both) == expected


def test_subspace_conjugation_covariance():
    # a signed permutation carries the subspace for K onto the one for its image
    lift = signed_permutation_lift(4, (2, 3, 4, 1), (1, -1, 1, -1))
    m = abelianized_matrix(lift.fwd)
    perm = {1: 2, 2: 3, 3: 4, 4: 1}
    for idx in combinations(range(1, 5), 3):
        target = tuple(sorted(perm[i] for i in idx))
        target_keys = {
            (a, b, c) for a in target for b in target for c in target if b < c
        }
        for v in subspace_image_basis(idx, 4):
            moved = act(m, v)
            assert set(moved.as_dict()) <= target_keys


def test_tilt_identity_when_dense():
    lam = h1_functional(3, {k: 1 for k in h1_basis_keys(3)})
    res = tilt_search(lam, 3, 2, 2)
    assert res.found and res.moves == ()


def test_tilt_single_subspace():
    lam = h1_functional(3, {(2, 1, 3): Fraction(3, 7)})
    res = tilt_search(lam, 3, 3, 2)
    assert res.found and res.moves == ()


def test_tilt_spec_example():
    # vanishes identically on the subspace for {1,2,3}
    lam = h1_functional(4, {(4, 1, 2): 1})
    res = tilt_search(lam, 4, 3, 3)
    assert res.found
    assert 1 <= len(res.moves) <= 3
    minv = mat_inverse_unimodular(res.matrix)
    for idx in combinations(range(1, 5), 3):
        assert any(
            pairing(lam, glnz_action(res.matrix, v, minv)) != 0
            for v in subspace_image_basis(idx, 4)
        )


def test_tilt_exhaustion_reported():
    lam = h1_functional(4, {(4, 1, 2): 1})
    res = tilt_search(lam, 4, 3, 0)  # identity only: restriction vanishes
    assert not res.found
    assert res.matrix is None
    assert res.examined == 1


def test_tilt_rejects_zero():
    with pytest.raises(ValueError):
        tilt_search(h1_functional(4, {}), 4, 3, 2)


def test_tilt_move_tokens():
    lam = h1_functional(4, {(4, 1, 2): 1})
    res = tilt_search(lam, 4, 3, 3)
    assert all(tok.startswith("E[") for tok in res.move_tokens())


def test_rational_rank_basics():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    assert rational_rank([]) == 0


def test_h1_serialization_roundtrip():
    v = h1_vector(3, {(1, 2, 3): Fraction(5, 2), (3, 1, 2): -1})
    records = format_h1(v)
    assert records == {"1|2|3": "5/2", "3|1|2": "-1"}
    assert parse_h1(3, records) == v
    lam = h1_functional(3, {(2, 1, 3): Fraction(1, 3)})
    assert parse_h1(3, format_h1(lam), dual=True) == lam


def test_h1_vector_validation():
    with pytest.raises(ValueError):
        h1_vector(3, {(1, 3, 2): 1})
    with pytest.raises(ValueError):
        h1_vector(3, {(4, 1, 2): 1})
