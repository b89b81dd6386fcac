import random
from fractions import Fraction

import pytest

from lcsforge.words import (
    EPSILON,
    Word,
    commutator,
    concat,
    format_word,
    invert,
    parse_word,
    reduce_letters,
    support,
    word,
)


def random_word(rng, max_len=30, alphabet=5):
    return word(
        rng.choice([1, -1]) * rng.randint(1, alphabet)
        for _ in range(rng.randint(0, max_len))
    )


def test_cancellation():
    assert word([1, -1]) == EPSILON
    assert word([1, 2, -2, 1]) == Word((1, 1))


def test_letters_must_be_nonzero_ints():
    """A letter is taken as it is or refused: nothing is coerced through
    ``int()``, so floats, strings and bools raise, and so does 0."""
    assert reduce_letters([1, 2, -2]) == (1,)
    for bad in ([1.5, "2"], ["2"], [2.0], [True], [1, 0], [Fraction(3)]):
        with pytest.raises(ValueError, match="a letter is a nonzero int"):
            word(bad)
        with pytest.raises(ValueError, match="a letter is a nonzero int"):
            reduce_letters(bad)


def test_reduce_idempotent():
    rng = random.Random(100)
    for _ in range(100):
        w = random_word(rng)
        assert word(w.letters) == w


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word((1, -1))
    with pytest.raises(ValueError):
        Word((0,))


def test_reduce_kills_inverse_product():
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(rng)
        assert concat(w, invert(w)) == EPSILON
        assert concat(invert(w), w) == EPSILON


def test_concat_identity_and_inverse():
    assert concat(word([1]), word([-1])) == EPSILON
    assert invert(word([1, 2])) == word([-2, -1])


def test_invert_antihomomorphism():
    rng = random.Random(11)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert invert(concat(u, v)) == concat(invert(v), invert(u))


def test_concat_associative():
    rng = random.Random(12)
    for _ in range(100):
        u, v, w = (random_word(rng) for _ in range(3))
        assert concat(concat(u, v), w) == concat(u, concat(v, w))


def test_epsilon_neutral():
    rng = random.Random(13)
    for _ in range(50):
        u = random_word(rng)
        assert concat(u, EPSILON) == u
        assert concat(EPSILON, u) == u


def test_commutator_examples():
    x1, x2 = word([1]), word([2])
    assert commutator(x1, x1) == EPSILON
    assert commutator(x1, x2) == word([1, 2, -1, -2])


def test_commutator_inverse_swap():
    rng = random.Random(14)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert commutator(u, v) == invert(commutator(v, u))


def test_support():
    assert support(EPSILON) == frozenset()
    assert support(word([1, 3, -1])) == frozenset({1, 3})


def test_support_subadditive_and_bounded():
    rng = random.Random(15)
    for _ in range(100):
        u, v = random_word(rng), random_word(rng)
        assert support(concat(u, v)) <= support(u) | support(v)
        assert len(support(u)) <= len(u)


def test_serialization_roundtrip():
    assert format_word(EPSILON) == "e"
    assert parse_word("e") == EPSILON
    w = word([1, 2, -1, -2])
    assert format_word(w) == "x1.x2.X1.X2"
    assert parse_word(format_word(w)) == w
    rng = random.Random(16)
    for _ in range(50):
        u = random_word(rng)
        assert parse_word(format_word(u)) == u


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("x1.y2")
    with pytest.raises(ValueError):
        parse_word("x0")
