import random
from collections import Counter
from itertools import product

import pytest

from lcsforge.autom import (
    IAGenerator,
    IAWord,
    RankMismatch,
    comm_move,
    concat_ia,
    conj,
    ia_word,
    invert_ia,
    is_identity,
)
from lcsforge import finc
from lcsforge.finc import (
    DEFAULT_TUPLE_BUDGET,
    FIncIA,
    check_commuting,
    check_condition_eii,
    check_functoriality,
    disjoint_pair_verdicts,
    enumerate_normal_generators,
    format_token,
    generation_degree_coverage,
    include_ia,
    left_normed_commutator,
    magnus_generators,
    subgroup_generators,
    support_completion,
    _support_masks,
    _trivial_by_support,
)
from lcsforge.magnus import johnson_level


def test_subgroup_generator_counts():
    fam = FIncIA(6)
    pair = subgroup_generators(fam, (1, 2))
    assert [format_token(g) for g in pair] == ["K[1,2]", "K[2,1]"]
    assert len(subgroup_generators(fam, (1, 2, 3))) == 9
    assert subgroup_generators(fam, ()) == ()
    for size in (2, 3, 4, 5):
        idx = tuple(range(1, size + 1))
        count = len(subgroup_generators(fam, idx))
        assert count == size * (size - 1) + size * (size - 1) * (size - 2) // 2


def test_subgroup_generators_out_of_range():
    with pytest.raises(ValueError):
        subgroup_generators(FIncIA(3), (1, 4))


def test_generator_supports_inside_index_set():
    fam = FIncIA(5)
    for g in subgroup_generators(fam, (2, 4, 5)):
        assert g.ia_support() <= {2, 4, 5}


def test_functoriality_exhaustive_small():
    for n in range(1, 6):
        assert check_functoriality(FIncIA(n)) == [], n


def test_include_rejects_shrinking():
    with pytest.raises(ValueError):
        include_ia(ia_word(4, [conj(1, 2)]), 3)


def test_check_commuting_disjoint_blocks():
    fam = FIncIA(4)
    wit = check_commuting(fam, (1, 2), (3, 4))
    assert wit.ok
    assert len(wit.pairs) == 4


def test_check_commuting_larger_blocks():
    fam = FIncIA(6)
    wit = check_commuting(fam, (1, 2, 3), (4, 5, 6))
    assert wit.ok
    assert len(wit.pairs) == 81


def test_check_commuting_vacuous_and_errors():
    fam = FIncIA(4)
    assert check_commuting(fam, (), (1, 2)).ok
    with pytest.raises(ValueError):
        check_commuting(fam, (1, 2), (2, 3))


def test_condition_eii():
    assert check_condition_eii(disjoint_pair_verdicts(FIncIA(6)), 3)
    # vacuous: no disjoint pair fits
    assert check_condition_eii(disjoint_pair_verdicts(FIncIA(3)), 2)
    assert check_condition_eii(disjoint_pair_verdicts(FIncIA(4)), 2)
    with pytest.raises(ValueError):
        check_condition_eii(disjoint_pair_verdicts(FIncIA(3)), 4)


def test_disjoint_pair_verdicts_count_and_pass():
    # unordered generator pairs with disjoint supports: 12 at n = 4 (the
    # K[a,b] / K[c,d] pairs on complementary 2-sets), 630 at n = 6
    for n, decided in [(1, 0), (3, 0), (4, 12), (6, 630)]:
        got = disjoint_pair_verdicts(FIncIA(n))
        assert (got.n, got.decided, got.failing) == (n, decided, ())
        assert got.counterexamples((1,), (2,)) == []


def test_generation_degree_coverage():
    assert generation_degree_coverage(FIncIA(2)) == 2
    assert generation_degree_coverage(FIncIA(3)) == 3
    assert generation_degree_coverage(FIncIA(10)) == 3
    assert generation_degree_coverage(FIncIA(1)) == 0


def test_enumerate_k1_is_generating_set():
    fam = FIncIA(3)
    out = enumerate_normal_generators(fam, 1)
    gens = magnus_generators(fam)
    assert len(out) == len(gens)
    for w in out:
        completion = support_completion(w, 1, 3)
        assert len(completion) == 3
        assert w.ia_support() <= set(completion)


def test_enumerate_rejects_small_rank():
    with pytest.raises(ValueError):
        enumerate_normal_generators(FIncIA(5), 2)


def test_enumerate_rejects_budget_below_one():
    for budget in (0, -1):
        with pytest.raises(ValueError, match="budget"):
            enumerate_normal_generators(FIncIA(3), 1, budget=budget)


def test_enumerate_k2_properties():
    fam = FIncIA(6)
    out = enumerate_normal_generators(fam, 2, budget=800)
    assert out, "budgeted enumeration should produce elements"
    seen = set()
    for w in out:
        endo = w.realized
        assert not is_identity(endo)
        assert endo not in seen
        seen.add(endo)
        completion = support_completion(w, 2, 6)
        assert len(completion) == 6
        assert w.ia_support() <= set(completion)
    # 3k = 9 indices do not fit inside [6]
    with pytest.raises(ValueError, match="cannot complete"):
        support_completion(out[0], 3, 6)


def test_enumerate_filters_disjoint_pairs():
    # [K[1,2], K[3,4]] realizes to the identity and must be dropped
    fam = FIncIA(6)
    u = ia_word(6, [conj(1, 2)])
    v = ia_word(6, [conj(3, 4)])
    assert is_identity(left_normed_commutator([u, v]).realized)
    out = enumerate_normal_generators(fam, 2, budget=200)
    tokens = {format_token(w) for w in out}
    assert "K[1,2];K[3,4];K[1,2]';K[3,4]'" not in tokens


def test_enumerate_deterministic():
    fam = FIncIA(6)
    a = enumerate_normal_generators(fam, 2, budget=300)
    b = enumerate_normal_generators(fam, 2, budget=300)
    assert [format_token(w) for w in a] == [format_token(w) for w in b]


def test_enumerate_returns_unrealized_words():
    for n, k, budget in ((3, 1, None), (6, 2, 300), (9, 3, 100)):
        out = enumerate_normal_generators(FIncIA(n), k, budget)
        assert out, (n, k)
        assert not any("realized" in w.__dict__ for w in out)
        for w in out:
            assert w.rank == n
            assert w.realized == IAWord(w.rank, w.gens).realized


def test_enumerate_budget_caps_work():
    fam = FIncIA(6)
    small = enumerate_normal_generators(fam, 2, budget=50)
    assert 0 < len(small) <= 50


def test_k2_sample_has_level_at_least_2():
    fam = FIncIA(6)
    out = enumerate_normal_generators(fam, 2, budget=300)
    for w in out:
        lvl = johnson_level(w.realized, 4)
        assert lvl is None or lvl >= 2, format_token(w)


def test_left_normed_commutator_shape():
    fam = FIncIA(9)
    gens = magnus_generators(fam)
    w = left_normed_commutator([gens[0], gens[1], gens[2]])
    assert len(w.gens) == 10  # s1 [s2,s3] s1^-1 [s2,s3]^-1


def fold_left_normed_commutator(factors):
    """The reference fold: three IAWords per bracket, through concat_ia and
    invert_ia."""
    out = factors[-1]
    for s in reversed(factors[:-1]):
        out = concat_ia(s, out, invert_ia(s), invert_ia(out))
    return out


def random_factor(rng, rank):
    gens = []
    for _ in range(rng.randint(1, 2)):
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            gens.append(conj(*rng.sample(range(1, rank + 1), 2), sign=sign))
        else:
            a, b, c = rng.sample(range(1, rank + 1), 3)
            gens.append(comm_move(a, min(b, c), max(b, c), sign))
    return ia_word(rank, gens)


def test_left_normed_commutator_matches_fold_and_caches_hold():
    rng = random.Random(20261018)
    checked = 0
    for k in range(1, 5):
        for _ in range(25):
            rank = rng.randint(3, 7)
            factors = [random_factor(rng, rank) for _ in range(k)]
            w = left_normed_commutator(factors)
            ref = fold_left_normed_commutator(factors)
            assert (w.rank, w.gens) == (ref.rank, ref.gens)
            for g in w.gens:
                checked += 1
                assert g.inverse().inverse() is g
                fresh = IAGenerator(g.kind, g.a, g.b, g.c, g.sign)
                assert g.indices == fresh.indices == {g.a, g.b, g.c} - {None}
                assert g.image_letters() == fresh.image_letters()
                assert g.inverse() == fresh.inverse()
                assert g.inverse().sign == -g.sign
    assert checked > 1000
    with pytest.raises(RankMismatch):
        left_normed_commutator([ia_word(3, [conj(1, 2)]), ia_word(4, [conj(1, 2)])])


def test_support_rule_sound_and_complete_at_k2():
    # every one of the 90^2 tuples at n = 6: the rule skips exactly the
    # identities, 90 as [s, s] and 3000 by disjoint moved/used letters
    gens = magnus_generators(FIncIA(6))
    masks = _support_masks(gens)
    counts = Counter()
    for outer, inner in product(range(len(gens)), repeat=2):
        skipped = _trivial_by_support(masks, [inner, outer])
        w = left_normed_commutator([gens[outer], gens[inner]])
        assert skipped == is_identity(w.realized), format_token(w)
        counts[skipped, outer == inner] += 1
    assert counts == {(True, True): 90, (True, False): 3000, (False, False): 5010}


def test_support_rule_sound_on_seeded_tuples():
    # k = 3 and 4 at ranks 5-9, with a neighbouring factor repeated in a
    # quarter of the tuples, so [s, [s, c]] shapes are drawn too
    rng = random.Random(20261021)
    counts = Counter()
    for k in (3, 4):
        for _ in range(400):
            gens = magnus_generators(FIncIA(rng.randint(5, 9)))
            digits = [rng.randrange(len(gens)) for _ in range(k)]
            if rng.random() < 0.25:
                i = rng.randrange(k - 1)
                digits[i] = digits[i + 1]
            skipped = _trivial_by_support(_support_masks(gens), digits)
            counts[k, skipped] += 1
            if skipped:
                w = left_normed_commutator([gens[r] for r in reversed(digits)])
                assert is_identity(w.realized), format_token(w)
    assert all(counts[k, flag] > 100 for k in (3, 4) for flag in (True, False)), counts


def reference_enumeration(n, k, budget):
    """Tokens of the stride sample with every tuple realized: identities
    and duplicates dropped by their realizations alone."""
    gens = magnus_generators(FIncIA(n))
    total = len(gens) ** k
    cap = DEFAULT_TUPLE_BUDGET if budget is None else budget
    step = 1 if total <= cap else -(-total // cap)
    found = {}
    for flat in range(0, total, step):
        factors = []
        for _ in range(k):
            flat, r = divmod(flat, len(gens))
            factors.insert(0, gens[r])
        w = left_normed_commutator(factors)
        found.setdefault(w.realized, format_token(w))
    found.pop(IAWord(n).realized, None)
    return list(found.values())


def test_enumeration_matches_reference_that_realizes_every_tuple(monkeypatch):
    built = []

    def counting(factors):
        built.append(factors)
        return left_normed_commutator(factors)

    monkeypatch.setattr(finc, "left_normed_commutator", counting)
    for n, k, budget, realized in (
        (3, 1, None, 9),
        (6, 2, 8100, 5010),
        (9, 3, 25, 11),
        (9, 3, 300, 91),
    ):
        built.clear()
        got = [format_token(w) for w in enumerate_normal_generators(FIncIA(n), k, budget)]
        assert got == reference_enumeration(n, k, budget), (n, k, budget)
        # only the tuples the support rule leaves open are built and realized
        assert len(built) == realized, (n, k, budget)
