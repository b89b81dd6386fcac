import copy
import random
from itertools import product

import pytest

from lcsforge.autom import (
    comm_move,
    compose,
    concat_ia,
    conj,
    free_endo,
    ia_word,
    identity_endo,
    invert_ia,
)
from lcsforge import magnus
from lcsforge.finc import FIncIA, enumerate_normal_generators
from lcsforge.magnus import (
    TruncatedSeries,
    _fresh_step,
    _mul_dicts,
    _substituted_series,
    expand_bracket,
    format_series,
    hall_basis,
    johnson_level,
    lcs_depth,
    leaf,
    bracket,
    magnus_embed,
    series_mul,
    series_one,
    witt_dimension,
)
from lcsforge.words import EPSILON, commutator, concat, invert, word


def naive_mul(a: dict, b: dict, cutoff: int) -> dict:
    """Independent oracle: quadratic truncated product on plain dicts."""
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            if len(ma) + len(mb) > cutoff:
                continue
            key = ma + mb
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def letter_series(v: int, cutoff: int) -> dict:
    i = abs(v)
    if v > 0:
        return {(): 1, (i,): 1}
    out = {(): 1}
    sign = 1
    for j in range(1, cutoff + 1):
        sign = -sign
        out[(i,) * j] = sign
    return out


def oracle_embed(w, cutoff: int) -> dict:
    out = {(): 1}
    for v in w.letters:
        out = naive_mul(out, letter_series(v, cutoff), cutoff)
    return out


def random_word(rng, max_len=12, alphabet=3):
    return word(
        rng.choice([1, -1]) * rng.randint(1, alphabet)
        for _ in range(rng.randint(0, max_len))
    )


def test_embed_identity():
    assert magnus_embed(EPSILON, 3) == series_one(3)


def test_embed_commutator_golden():
    # frozen from the independent four-factor multiplication below
    got = magnus_embed(commutator(word([1]), word([2])), 3)
    expected = {
        (): 1,
        (1, 2): 1,
        (2, 1): -1,
        (2, 1, 1): 1,
        (2, 1, 2): 1,
        (1, 2, 2): -1,
        (1, 2, 1): -1,
    }
    assert got.as_dict() == expected
    assert got.as_dict() == oracle_embed(commutator(word([1]), word([2])), 3)


def run_word(rng, max_runs=6, alphabet=3):
    """A word built from runs of one signed letter, so inverse letters come
    in powers whose series reach past the cutoff."""
    letters = []
    for _ in range(rng.randint(0, max_runs)):
        letters += [rng.choice([1, -1]) * rng.randint(1, alphabet)] * rng.randint(1, 4)
    return word(letters)


def test_embed_matches_oracle():
    rng = random.Random(30)
    cancelled = 0
    for cutoff in (3, 4, 5):
        for _ in range(40):
            u = random_word(rng, max_len=20)
            v = run_word(rng)
            for w in (u, v):
                assert magnus_embed(w, cutoff).as_dict() == oracle_embed(w, cutoff)
            su, sv = magnus_embed(u, cutoff), magnus_embed(v, cutoff)
            a, prod = su.as_dict(), naive_mul(su.as_dict(), sv.as_dict(), cutoff)
            assert series_mul(su, sv).as_dict() == prod
            # the accumulate form out - a * b, from out = a * b + a: every term
            # of the product cancels, and a cancelled key is deleted, not zeroed
            out = {m: a.get(m, 0) + prod.get(m, 0) for m in a.keys() | prod.keys()}
            out = {m: c for m, c in out.items() if c}
            by_degree = sorted(sv.terms, key=lambda t: len(t[0]))
            assert _mul_dicts(su.terms, by_degree, cutoff, out, -1) is out
            assert out == a
            cancelled += len(prod.keys() - a.keys())
    assert cancelled > 0


def test_embed_multiplicative():
    rng = random.Random(31)
    for _ in range(60):
        u, v = random_word(rng), random_word(rng)
        lhs = magnus_embed(concat(u, v), 4)
        rhs = series_mul(magnus_embed(u, 4), magnus_embed(v, 4))
        assert lhs == rhs


def test_embed_inverse_gives_one():
    rng = random.Random(32)
    for _ in range(60):
        w = random_word(rng)
        prod = series_mul(magnus_embed(w, 4), magnus_embed(invert(w), 4))
        assert prod == series_one(4)


def test_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, (((1, 2, 3), 1),))
    with pytest.raises(ValueError):
        TruncatedSeries(2, (((1,), 0),))
    with pytest.raises(ValueError):
        series_one(0)


def test_depth_examples():
    assert lcs_depth(word([1]), 4) == 1
    assert lcs_depth(commutator(word([1]), word([2])), 4) == 2
    nested = commutator(commutator(word([1]), word([2])), word([1]))
    assert lcs_depth(nested, 4) == 3
    assert lcs_depth(EPSILON, 4) is None


def test_depth_filtration_property():
    short = [word([1]), word([2]), commutator(word([1]), word([2]))]
    for u, v in product(short, short):
        c = commutator(u, v)
        du, dv = lcs_depth(u, 5), lcs_depth(v, 5)
        dc = lcs_depth(c, 5)
        if du is not None and dv is not None and du + dv <= 5:
            assert dc is None or dc >= du + dv


def test_johnson_level_examples():
    assert johnson_level(identity_endo(3), 4) is None
    k12 = ia_word(2, [conj(1, 2)]).realized
    assert johnson_level(k12, 4) == 1
    with pytest.raises(ValueError):
        johnson_level(free_endo(2, {1: word([1, 2])}), 4)


def all_magnus_endos(n):
    from itertools import combinations

    toks = [conj(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    toks += [
        comm_move(a, b, c)
        for a in range(1, n + 1)
        for b, c in combinations([i for i in range(1, n + 1) if i != a], 2)
    ]
    return [ia_word(n, [t]) for t in toks]


def test_level2_commutators_at_n4():
    gens = all_magnus_endos(4)
    for u in gens:
        for v in gens:
            comm = compose(
                compose(u.realized, v.realized),
                compose(invert_ia(u).realized, invert_ia(v).realized),
            )
            lvl = johnson_level(comm, 4)
            assert lvl is None or lvl >= 2


def test_level_of_composition_bounded_below():
    # level(uv) >= min(level(u), level(v)), with None standing in for the cutoff
    rng = random.Random(33)
    cutoff = 4
    gens = all_magnus_endos(3)
    for _ in range(60):
        u = rng.choice(gens).realized
        v = rng.choice(gens).realized
        lu = johnson_level(u, cutoff)
        lv = johnson_level(v, cutoff)
        lc = johnson_level(compose(u, v), cutoff)
        eff = lambda x: cutoff if x is None else x
        assert eff(lc) >= min(eff(lu), eff(lv))


def random_ia_word(rng, rank, length):
    """Signed Magnus generators; about a third of the steps repeat the
    previous generator or undo it, so indices recur and words cancel."""
    gens = []
    for _ in range(length):
        if gens and rng.random() < 0.35:
            prev = gens[-1]
            gens.append(prev if rng.random() < 0.5 else prev.inverse())
            continue
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            a, b = rng.sample(range(1, rank + 1), 2)
            gens.append(conj(a, b, sign))
        else:
            a, b, c = rng.sample(range(1, rank + 1), 3)
            gens.append(comm_move(a, min(b, c), max(b, c), sign))
    return ia_word(rank, gens)


def ia_commutator(u, v):
    return concat_ia(u, v, invert_ia(u), invert_ia(v))


def test_substitution_level_matches_letter_route():
    rng = random.Random(20240611)
    inverse_steps = 0
    levels = set()
    for rank in range(3, 7):
        for cutoff in range(2, 6):
            words = [ia_word(rank, [])]
            words += [random_ia_word(rng, rank, rng.randint(1, 5)) for _ in range(6)]
            # commutators of generators reach the deeper levels
            for _ in range(4):
                u, v, x = (random_ia_word(rng, rank, 1) for _ in range(3))
                words.append(ia_commutator(u, v))
                words.append(ia_commutator(x, ia_commutator(u, v)))
            for w in words:
                inverse_steps += sum(g.sign < 0 for g in w.gens)
                level = johnson_level(w, cutoff)
                # an IAWord is IA by construction: its level never realizes it
                assert "realized" not in w.__dict__, w
                endo = w.realized
                images = {
                    i: magnus_embed(endo.image(i), cutoff) for i in endo.moved_indices()
                }
                # the level from every displaced word at the full cutoff, no early stop
                depths = [
                    series_mul(s, magnus_embed(word([-i]), cutoff)).min_positive_degree()
                    for i, s in images.items()
                ]
                found = [d for d in depths if d is not None]
                full = min(found) - 1 if found else None
                assert level == johnson_level(endo, cutoff) == full, w
                levels.add(full)
                series = _substituted_series(w, cutoff)
                assert set(series) == {g.a for g in w.gens}
                for i, terms in series.items():
                    fixed = {(): 1, (i,): 1}
                    assert dict(terms) == (images[i].as_dict() if i in images else fixed)
    assert inverse_steps > 0
    assert {1, 2, 3, None} <= levels


def k2_levels(budget):
    """The k = 2 filtration elements at n = 6 with their levels at cutoff 4."""
    out = enumerate_normal_generators(FIncIA(6), 2, budget=budget)
    return [(w, johnson_level(w, 4)) for w in out]


def test_fresh_step_memo_is_exact_and_never_mutated(monkeypatch):
    random_words = [random_ia_word(random.Random(seed), 5, 6) for seed in range(40)]
    k2_words = [w for w, _ in k2_levels(300)]
    cold = []
    for w in k2_words + random_words:
        _fresh_step.cache_clear()
        cold.append((johnson_level(w, 4), _substituted_series(w, 4)))
    warm = [
        (johnson_level(w, 4), _substituted_series(w, 4)) for w in k2_words + random_words
    ]
    assert warm == cold

    # the cached series are immutable, and a full k = 2 enumeration and level
    # run leaves every entry as it was; the entries it adds equal a fresh step
    keys = set()

    def recording(*key):
        keys.add(key)
        return _fresh_step(*key)

    monkeypatch.setattr(magnus, "_fresh_step", recording)
    _fresh_step.cache_clear()
    k2_levels(300)
    assert _fresh_step.cache_info().currsize == len(keys)
    before = {key: _fresh_step(*key) for key in keys}
    snapshot = copy.deepcopy(before)
    for series in before.values():
        assert isinstance(series, tuple)
        assert all(isinstance(terms, tuple) for _, terms in series)
    k2_levels(8100)
    info = _fresh_step.cache_info()
    assert info.currsize == len(keys) < info.maxsize  # nothing was evicted
    for key in keys:
        got = _fresh_step(*key)
        assert got == _fresh_step.__wrapped__(*key)
        if key in before:
            assert got is before[key] and got == snapshot[key]
    assert _fresh_step.cache_info().hits == info.hits + len(keys)


def test_witt_goldens():
    assert witt_dimension(2, 2) == 1
    assert witt_dimension(2, 3) == 2
    assert witt_dimension(3, 2) == 3


def test_hall_counts_match_witt():
    for n in range(1, 5):
        for k in range(1, 7):
            assert len(hall_basis(n, k)) == witt_dimension(n, k), (n, k)


def test_hall_weight2_is_single_bracket():
    basis = hall_basis(2, 2)
    assert len(basis) == 1
    assert str(basis[0]) == "[x1,x2]"


def test_expand_bracket_depths_exact():
    for k in range(1, 5):
        for t in hall_basis(3, k):
            w = expand_bracket(t)
            assert lcs_depth(w, k + 1) == k, str(t)


def test_hall_tree_validation():
    from lcsforge.magnus import HallTree

    with pytest.raises(ValueError):
        HallTree(index=1, left=leaf(1), right=leaf(2))
    with pytest.raises(ValueError):
        HallTree(index=None, left=leaf(1), right=None)
    assert bracket(leaf(1), leaf(2)).weight == 2


def test_format_series():
    s = magnus_embed(word([1]), 2)
    assert format_series(s) == "1 + 1*X1"
