"""Permutations of {1..n} and the statistics driving pipe-dream bookkeeping.

Positions and values are one-based throughout.  ``Perm.letters`` stores the
one-line notation ``(w(1), ..., w(n))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations as _one_line_tuples
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n} in one-line notation.

    >>> w = Perm.from_one_line([2, 4, 1, 3])
    >>> w.inverse.letters
    (3, 1, 4, 2)
    >>> w.inversions(), w.major_index()
    (3, 2)
    """

    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.letters)
        if n == 0:
            raise ValueError("one-line notation must be non-empty")
        if sorted(self.letters) != list(range(1, n + 1)):
            raise ValueError(f"not a rearrangement of 1..{n}: {self.letters!r}")

    @classmethod
    def from_one_line(cls, values: Iterable[int]) -> Perm:
        return cls(tuple(int(v) for v in values))

    @classmethod
    def identity(cls, n: int) -> Perm:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.letters)

    def __call__(self, i: int) -> int:
        return self.letters[i - 1]

    def __str__(self) -> str:
        sep = "" if self.n <= 9 else ","
        return sep.join(str(v) for v in self.letters)

    @cached_property
    def inverse(self) -> Perm:
        inv = [0] * self.n
        for i, v in enumerate(self.letters, start=1):
            inv[v - 1] = i
        return Perm(tuple(inv))

    def inversions(self) -> int:
        """Number of pairs i < j with w(i) > w(j)."""
        seq = self.letters
        n = self.n
        return sum(1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j])

    def descents(self) -> tuple[int, ...]:
        """Positions i with w(i) > w(i+1)."""
        seq = self.letters
        return tuple(i for i in range(1, self.n) if seq[i - 1] > seq[i])

    def major_index(self) -> int:
        """Sum of the descent positions.

        >>> Perm.from_one_line([1, 4, 5, 6, 3, 2]).major_index()
        9
        """
        return sum(self.descents())

    def is_fireworks(self) -> bool:
        """True iff the first entries of the decreasing runs increase.

        One scan: a letter larger than the one before it opens a run."""
        prev = first = 0  # the letter before, and the first of its run
        for v in self.letters:
            if v > prev:
                if v < first:
                    return False
                first = v
            prev = v
        return True

    def is_inverse_fireworks(self) -> bool:
        """``is_fireworks`` of the inverse, in one scan of the letters.

        A run of the inverse opens at value v iff v = 1 or v - 1 stands to
        the left of v, and its first entry is v's position.  So the firsts
        increase iff the run-opening values, met left to right, increase."""
        seen = [True] + [False] * self.n  # seen[v]: v is left of the scan (0 always)
        last = 0
        for v in self.letters:
            if seen[v - 1]:
                if v < last:
                    return False
                last = v
            seen[v] = True
        return True

    def require_inverse_fireworks(self) -> None:
        """Refuse a permutation that is not inverse fireworks."""
        if not self.is_inverse_fireworks():
            raise ValueError(f"{self.letters}: not inverse fireworks")

    def lr_maxima(self) -> frozenset[int]:
        """Values strictly larger than every value to their left.

        >>> sorted(Perm.from_one_line([2, 1, 4, 3]).lr_maxima())
        [2, 4]
        """
        out: list[int] = []
        best = 0
        for v in self.letters:
            if v > best:
                out.append(v)
                best = v
        return frozenset(out)

    def column_code(self) -> tuple[int, ...]:
        """The inverse one-line word with its left-to-right maxima zeroed.

        This is the column-to-row code shared by every vertical-less diagram
        of ``self``; entry c names the pipe exiting column c (0 = no pipe).
        """
        inv = self.inverse
        maxima = inv.lr_maxima()
        return tuple(0 if v in maxima else v for v in inv.letters)

    def reduced_column_code(self) -> tuple[int, ...]:
        """``column_code`` with its leading zero dropped.

        Only defined for inverse fireworks permutations, whose bumpless
        diagrams live on an n x (n-1) grid.
        """
        self.require_inverse_fireworks()
        return self.column_code()[1:]

    def pipe_travel(self) -> int:
        """Total eastward column passages of the coded pipes.

        Sum of (c - 1) over the columns c holding a non-zero entry of
        ``column_code``; every diagram with that code spends exactly this
        many tiles moving its pipes east, so it bounds the weighty count.
        """
        return sum(c - 1 for c, v in enumerate(self.column_code(), start=1) if v)

    def to_json(self) -> list[int]:
        return list(self.letters)


def symmetric_group(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    for tup in _one_line_tuples(range(1, n + 1)):
        yield Perm(tup)
