from itertools import product

import pytest
from hypothesis import given, strategies as st

from frame_lab.errors import CapacityError
from oracles import Word4, c_of_word, digit_counts, enumerate_X4, in_X4, word_of_index

letters_st = st.lists(st.integers(0, 3), min_size=0, max_size=6)


def all_words(max_len):
    """Brute-force enumeration oracle over the full alphabet."""
    for K in range(max_len + 1):
        for letters in product(range(4), repeat=K):
            yield Word4(letters)


def test_c_of_word_single_letter():
    assert c_of_word(Word4((3,))) == 3


def test_c_of_word_two_letters():
    assert c_of_word(Word4((2, 1))) == 2 * 4 + 1 == 9


def test_c_of_word_empty():
    assert c_of_word(Word4(())) == 0


def test_word_of_index_zero_is_length_one():
    assert word_of_index(0) == Word4((0,))


def test_word_of_index_matches_exhaustive_inversion():
    # oracle: invert c by scanning every word of length <= 4 inside X4
    table = {}
    for w in all_words(4):
        if in_X4(w):
            table.setdefault(c_of_word(w), w)
    assert table[9] == Word4((2, 1))
    for n in range(4**4):
        assert word_of_index(n) == table[n]


@given(st.integers(0, 4**6 - 1))
def test_round_trip(n):
    assert c_of_word(word_of_index(n)) == n


def test_digit_counts_zero():
    assert digit_counts(0) == (0, 0, 0)


def test_digit_counts_examples():
    assert digit_counts(5) == (2, 0, 0)  # 11 base 4
    assert digit_counts(30) == (1, 1, 1)  # 132 base 4


@given(st.integers(0, 10**9))
def test_digit_counts_bounded_by_digit_count(n):
    l1, l2, l3 = digit_counts(n)
    n_digits = 1 if n == 0 else len(_base4(n))
    assert l1 + l2 + l3 <= n_digits


def _base4(n):
    out = []
    while n:
        out.append(n % 4)
        n //= 4
    return out


def test_in_X4_membership():
    assert in_X4(Word4((0,)))
    assert not in_X4(Word4((0, 1)))
    assert in_X4(Word4((3, 0)))
    assert not in_X4(Word4(()))


@pytest.mark.parametrize("max_len,count", [(1, 4), (2, 16), (4, 256)])
def test_enumerate_X4_counts_match_brute_force(max_len, count):
    words = enumerate_X4(max_len)
    assert len(words) == count
    brute = sorted(
        (c_of_word(w), w.letters) for w in all_words(max_len) if in_X4(w)
    )
    assert [(c_of_word(w), w.letters) for w in words] == brute


def test_enumerate_X4_image_is_initial_segment():
    for L in (1, 2, 3, 4, 5, 6):
        values = [c_of_word(w) for w in enumerate_X4(L)]
        assert values == list(range(4**L))


def test_long_words_have_large_index():
    for w in enumerate_X4(6):
        K = len(w)
        if K >= 2:
            assert c_of_word(w) >= 4 ** (K - 1)


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_X4(11)


def test_bad_letters_rejected():
    with pytest.raises(ValueError):
        Word4((4,))
    with pytest.raises(ValueError):
        Word4((-1,))
