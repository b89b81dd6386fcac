import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from lcsforge import autom, johnson
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
    for w in enumerate_normal_generators(fam, 2, budget=250):
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


def fraction_accumulation(m, v):
    """The action's coordinates before normalizing: Fraction sums over every
    target triple, with the inverse from rational elimination."""
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
    return out


def glnz_action_by_fractions(m, v):
    """Reference action: the Fraction accumulation through ``h1_vector``."""
    return h1_vector(v.n, fraction_accumulation(m, v))


def random_fraction_h1_vector(rng, n):
    return h1_vector(
        n,
        {k: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
         for k in h1_basis_keys(n) if rng.random() < 0.5},
    )


def test_glnz_action_matches_fraction_route():
    """The action kernel, built once per matrix as the equivariance checks
    build it, against the Fraction route and through ``glnz_action``: on
    every signed permutation and transvection at n = 3 and 4, with the
    inverse from the lift's inverse witness, on a dense and a basis vector
    each; and on seeded products of elementary matrices at n = 2-5, on an
    integer vector, which stays integral, and one with Fraction
    coordinates."""
    rng = random.Random(85)
    cases = []
    for n in (3, 4):
        keys = h1_basis_keys(n)
        for lift in signed_permutation_lifts(n) + transvection_lifts(n):
            dense = h1_vector(n, {k: rng.randint(1, 9) * rng.choice((1, -1)) for k in keys})
            basis = h1_vector(n, {rng.choice(keys): 1})
            m = abelianized_matrix(lift.fwd)
            cases.append((m, abelianized_matrix(lift.inv), [dense, basis]))
    for n in range(2, 6):
        for _ in range(30):
            m = random_unimodular(rng, n, 6)
            vectors = [random_h1_vector(rng, n, 5), random_fraction_h1_vector(rng, n)]
            cases.append((m, mat_inverse_unimodular(m), vectors))
    for m, minv, vectors in cases:
        kernel = johnson._action(m, minv)
        for v in vectors:
            moved = kernel(v)
            assert moved == glnz_action_by_fractions(m, v)
            assert moved == glnz_action(m, v, minv)
            if all(type(x) is int for _, x in v.coords):
                assert all(type(x) is int for _, x in moved.coords)


def test_action_builds_the_h1_vector_of_its_coordinates():
    """The action kernel builds its vector from the sorted nonzero
    coordinates without ``h1_vector``'s key checks.  On seeded products of
    elementary matrices at n = 2-5, applied to vectors with integer,
    half-integer and mixed Fraction values, it equals the Fraction
    accumulation normalized by ``h1_vector``, value types included: an
    integral value is stored as an int, any other as a Fraction."""
    rng = random.Random(86)
    kinds = Counter()
    for n in range(2, 6):
        keys = h1_basis_keys(n)
        for _ in range(30):
            m = random_unimodular(rng, n, 6)
            kernel = johnson._action(m, mat_inverse_unimodular(m))
            for dens in ((1,), (2,), (1, 2, 3)):
                v = h1_vector(n, {
                    k: Fraction(rng.randint(-6, 6), rng.choice(dens))
                    for k in keys if rng.random() < 0.5
                })
                moved = kernel(v)
                want = h1_vector(n, fraction_accumulation(m, v))
                assert moved == want
                assert [type(x) for _, x in moved.coords] == [type(x) for _, x in want.coords]
                kinds.update(type(x) for _, x in moved.coords)
    assert kinds[int] and kinds[Fraction]


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
    # conjugation by one lift is injective: 9 generators, 9 conjugates
    assert equivariance_failures([lift], generator_pairs(3)) == (9, 0, 9)


def test_equivariance_signed_permutations_n3():
    pairs = generator_pairs(3)
    lifts = signed_permutation_lifts(3)
    assert equivariance_failures(lifts, pairs) == (432, 0, 60)
    for lift in lifts:
        assert equivariance_failures([lift], pairs) == (9, 0, 9)


def test_equivariance_transvections_n3():
    pairs = generator_pairs(3)
    lifts = transvection_lifts(3)
    assert equivariance_failures(lifts, pairs) == (108, 0, 81)
    for lift in lifts:
        assert equivariance_failures([lift], pairs) == (9, 0, 9)


def test_equivariance_counts_a_swapped_tau():
    # the action is invertible and the generator images are distinct, so a
    # pair carrying another generator's tau fails under every lift
    pairs = generator_pairs(3)
    swapped = [(pairs[0][0], pairs[1][1])] + pairs[1:]
    lifts = signed_permutation_lifts(3) + transvection_lifts(3)
    for lift in lifts:
        assert equivariance_failures([lift], swapped) == (9, 1, 9)
    assert equivariance_failures(lifts, swapped)[1] == len(lifts)


def test_equivariance_memo_counts_every_pair_of_a_wrong_conjugate(monkeypatch):
    """With tau wrong on exactly one conjugate, every (lift, generator) pair
    whose conjugate equals it fails, as many as the per-pair route of C5
    counts, although the memo computes tau for that conjugate once."""
    n = 3
    pairs = generator_pairs(n)
    lifts = signed_permutation_lifts(n) + transvection_lifts(n)
    conjugates = Counter(lift.conj_endo(phi) for lift in lifts for phi, _ in pairs)
    target, hits = conjugates.most_common(1)[0]
    assert hits > 1
    real = johnson.tau
    wrong = h1_add(real(target), h1_vector(n, {(1, 1, 2): 1}))
    calls = Counter()

    def patched(phi):
        calls[phi] += 1
        return wrong if phi == target else real(phi)

    monkeypatch.setattr(johnson, "tau", patched)
    per_pair = 0
    for lift in lifts:
        m = abelianized_matrix(lift.fwd)
        minv = mat_inverse_unimodular(m)
        per_pair += sum(
            johnson.tau(lift.conj_endo(phi)) != glnz_action(m, t, minv) for phi, t in pairs
        )
    assert per_pair == hits
    calls.clear()
    assert equivariance_failures(iter(lifts), pairs) == (540, hits, len(conjugates))
    assert calls == Counter(set(conjugates))


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
                for g in subgroup_generators(fam, idx)
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


@pytest.mark.parametrize(
    "lam, n, size, message",
    [
        (h1_functional(4, {}), 4, 3, "needs a nonzero functional"),
        (h1_functional(4, {(4, 1, 2): 1}), 4, 1, r"subset size 1 outside 2\.\.4"),
        (h1_functional(4, {(4, 1, 2): 1}), 4, 5, r"subset size 5 outside 2\.\.4"),
        (h1_functional(3, {(3, 1, 2): 1}), 4, 3, "functional rank mismatch"),
    ],
    ids=["zero-functional", "subset-size-below-2", "subset-size-above-n", "rank-mismatch"],
)
def test_tilt_refusals(lam, n, size, message):
    with pytest.raises(ValueError, match=message):
        tilt_search(lam, n, size, 2)


def test_tilt_search_uses_no_elimination_or_pairing(monkeypatch):
    """The search pulls functionals back through the action kernels alone,
    so the elimination inverse and the rational pairing stay a separate
    route for re-validating its witnesses."""
    lam = h1_functional(4, {(4, 1, 2): 1})
    want = tilt_search(lam, 4, 3, 2)
    assert len(want.moves) == 2

    def refuse(*args):
        raise AssertionError("tilt_search must not call this")

    monkeypatch.setattr(johnson, "mat_inverse_unimodular", refuse)
    monkeypatch.setattr(johnson, "pairing", refuse)
    johnson._pullback_kernels.cache_clear()
    assert tilt_search(lam, 4, 3, 2) == want


def test_pullback_is_the_action_of_the_transpose():
    """The identity the tilt search rests on: for every basis key,
    lam(m . e_key) is the key's coordinate of lam, read as a vector, under
    the action of m^T with inverse m^-T."""
    rng = random.Random(87)
    for n in range(2, 6):
        keys = h1_basis_keys(n)
        for _ in range(20):
            m = random_unimodular(rng, n, 6)
            minv = mat_inverse_unimodular(m)
            v = random_fraction_h1_vector(rng, n)
            lam = h1_functional(n, v.as_dict())
            pulled = glnz_action(tuple(zip(*m)), v, tuple(zip(*minv))).as_dict()
            for key in keys:
                moved = glnz_action(m, h1_vector(n, {key: 1}), minv)
                assert pairing(lam, moved) == pulled.get(key, 0)


def tilt_by_brute_force(lam, n, size, budget):
    """Reference for tilt_search: every word of length 0..budget in move
    order, its matrix checked from scratch through elimination, the forward
    action and the rational pairing on every subspace basis vector.  Also
    counts the distinct pullbacks of lam up to the word returned, each
    computed as lam under the action of m^T."""
    moves = [(i, j, s) for i in range(1, n + 1) for j in range(1, n + 1) if i != j for s in (1, -1)]
    subspaces = [subspace_image_basis(idx, n) for idx in combinations(range(1, n + 1), size)]
    vec = h1_vector(n, lam.as_dict())
    pullbacks = set()
    for depth in range(budget + 1):
        for path in product(moves, repeat=depth):
            m = mat_identity(n)
            for move in path:
                m = mat_mul(m, elementary_matrix(n, *move))
            minv = mat_inverse_unimodular(m)
            pullbacks.add(glnz_action(tuple(zip(*m)), vec, tuple(zip(*minv))).coords)
            if all(
                any(pairing(lam, glnz_action(m, v, minv)) != 0 for v in basis)
                for basis in subspaces
            ):
                return True, path, m, len(pullbacks)
    return False, (), None, len(pullbacks)


def test_tilt_search_matches_brute_force():
    """Seeded sparse functionals with Fraction coordinates at every subset
    size, exhausted searches included: the same first word, shortest first
    and then in move order, the same matrix, and as many pullbacks examined
    as there are distinct ones up to that word."""
    rng = random.Random(88)
    outcomes = Counter()
    for n, budget in ((2, 3), (3, 2), (4, 1)):
        keys = h1_basis_keys(n)
        for _ in range(40):
            coords = {
                k: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                for k in rng.sample(keys, rng.randint(1, min(3, len(keys))))
            }
            lam = h1_functional(n, coords)
            size = rng.randint(2, n)
            res = tilt_search(lam, n, size, budget)
            assert tuple(res) == tilt_by_brute_force(lam, n, size, budget)
            outcomes[len(res.moves) if res.found else "exhausted"] += 1
    assert outcomes["exhausted"] and outcomes[1] and outcomes[2], outcomes


def test_rational_rank_basics():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[Fraction(1, 2), Fraction(1, 3)]]) == 1
    assert rational_rank([]) == 0


def test_h1_vector_validation():
    with pytest.raises(ValueError):
        h1_vector(3, {(1, 3, 2): 1})
    with pytest.raises(ValueError):
        h1_vector(3, {(4, 1, 2): 1})
