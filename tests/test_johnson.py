import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from lcsforge.autom import (
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
    equivariance_check,
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


def test_h1_dimension_and_keys():
    assert h1_dimension(3) == 9
    assert h1_dimension(4) == 24
    assert len(h1_basis_keys(4)) == 24


def test_generator_images_full_rank():
    for n, want in [(3, 9), (4, 24)]:
        rows = [tau(g.realized).dense() for g in magnus_generators(FIncIA(n))]
        assert rational_rank(rows) == want


def test_glnz_identity_and_permutation():
    v = h1_vector(3, {(1, 2, 3): 1, (2, 1, 3): Fraction(1, 2)})
    assert glnz_action(mat_identity(3), v) == v
    # 3-cycle 1->2->3->1 as a column-action matrix
    lift = signed_permutation_lift(3, (2, 3, 1))
    m = abelianized_matrix(lift.fwd)
    moved = glnz_action(m, h1_vector(3, {(1, 2, 3): 1}))
    # e2* (x) (e3 ^ e1); resorting the wedge flips the sign
    assert moved == h1_vector(3, {(2, 1, 3): -1})


def test_glnz_sign_bookkeeping():
    # swapping 1 <-> 2 sends e1* (x) (e1 ^ e2) to e2* (x) (e2 ^ e1)
    lift = signed_permutation_lift(2, (2, 1))
    m = abelianized_matrix(lift.fwd)
    moved = glnz_action(m, h1_vector(2, {(1, 1, 2): 1}))
    assert moved == h1_vector(2, {(2, 1, 2): -1})


def test_glnz_functorial():
    rng = random.Random(51)
    for _ in range(20):
        def rand_unimodular():
            m = mat_identity(3)
            for _ in range(rng.randint(1, 4)):
                i = rng.randint(1, 3)
                j = rng.choice([x for x in (1, 2, 3) if x != i])
                m = mat_mul(m, elementary_matrix(3, i, j, rng.choice((1, -1))))
            return m

        a, b = rand_unimodular(), rand_unimodular()
        v = h1_vector(
            3,
            {
                k: rng.randint(-2, 2)
                for k in h1_basis_keys(3)
                if rng.random() < 0.5
            },
        )
        assert glnz_action(mat_mul(a, b), v) == glnz_action(a, glnz_action(b, v))


def test_glnz_rejects_singular():
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((1, 0), (0, 2)))
    with pytest.raises(ValueError):
        mat_inverse_unimodular(((1, 1), (1, 1)))


def test_equivariance_inner():
    gens = magnus_generators(FIncIA(3))
    lift = inner_lift(3, word([1]))
    m = abelianized_matrix(lift.fwd)
    assert m == mat_identity(3)
    for g in gens:
        assert equivariance_check(m, lift, g)


def test_equivariance_signed_permutations_n3():
    gens = magnus_generators(FIncIA(3))
    for perm in permutations((1, 2, 3)):
        for signs in product((1, -1), repeat=3):
            lift = signed_permutation_lift(3, perm, signs)
            m = abelianized_matrix(lift.fwd)
            for g in gens:
                assert equivariance_check(m, lift, g)


def test_equivariance_transvections_n3():
    gens = magnus_generators(FIncIA(3))
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            for sign in (1, -1):
                lift = transvection_lift(3, a, b, sign)
                m = abelianized_matrix(lift.fwd)
                for g in gens:
                    assert equivariance_check(m, lift, g)


def test_equivariance_rejects_mismatch():
    lift = transvection_lift(3, 1, 2)
    with pytest.raises(ValueError):
        equivariance_check(mat_identity(3), lift, ia_word(3, [conj(1, 2)]))


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
            moved = glnz_action(m, v)
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
