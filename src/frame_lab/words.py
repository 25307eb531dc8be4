"""Base-4 words and digit-count combinatorics.

Words over the alphabet {0,1,2,3} index compositions of the four generating
isometries. Letters are stored in application order: letters[0] is applied
first. The index map c sends a word to the integer whose base-4 digits are
the letters read most-significant-first, which is a bijection from the
restricted word set X4 onto the nonnegative integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityError, ContractError, DomainError

_ALPHABET = (0, 1, 2, 3)

# enumerate_X4 materializes 4**max_len words; beyond this it is not desk-scale.
MAX_ENUM_LEN = 10


@dataclass(frozen=True)
class Word4:
    """A word over {0,1,2,3}; letters[k] is the (k+1)-th operator applied."""

    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(int(j) for j in self.letters)
        if any(j not in _ALPHABET for j in letters):
            raise DomainError(f"letters must lie in {{0,1,2,3}}, got {letters!r}")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)


def c_of_word(word: Word4) -> int:
    """Base-4 place value of a word: sum of letters[k] * 4**(K-1-k)."""
    n = 0
    for j in word.letters:
        n = 4 * n + j
    return n


def word_of_index(n: int) -> Word4:
    """The unique word in X4 with c_of_word(word) == n; (0,) for n == 0."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    if n == 0:
        return Word4((0,))
    digits = []
    while n:
        digits.append(n % 4)
        n //= 4
    return Word4(tuple(reversed(digits)))


def digit_counts(n: int) -> tuple[int, int, int]:
    """Counts of the digits 1, 2, 3 in the base-4 expansion of n."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    counts = [0, 0, 0]
    while n:
        d = n % 4
        if d:
            counts[d - 1] += 1
        n //= 4
    return tuple(counts)


def enumerate_X4(max_len: int) -> list[Word4]:
    """All words of X4 with length <= max_len, ascending by c_of_word.

    There are exactly 4**max_len of them: ascending c order is simply
    word_of_index(n) for n = 0 .. 4**max_len - 1.
    """
    if max_len < 1:
        raise ContractError("max_len must be >= 1")
    if max_len > MAX_ENUM_LEN:
        raise CapacityError(f"max_len {max_len} exceeds enumeration cap {MAX_ENUM_LEN}")
    return [word_of_index(n) for n in range(4**max_len)]
