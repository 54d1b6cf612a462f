"""Exhaustive pipe-dream enumeration and the signed weight sums it generates.

Every filling of the staircase by crosses or bumps is backtracked and traced
once, and grouped by the inverse of its top reading; all per-permutation
queries go through that index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .diagrams import (
    Diagram,
    Kind,
    Tile,
    enumerate_structures,
    signed_weight_sum,
    sort_key,
    trace,
    weighty_cells,
)
from .permutations import Perm
from .polynomials import Poly

# Size guard for the 2^(n(n-1)/2) sweep; pass max_n to enumerate_all to go
# beyond desk scale.  n = 7 (2^21 fillings) would take minutes and gigabytes.
DEFAULT_MAX_N = 6


@dataclass(frozen=True)
class PipeDreamIndex:
    """All pipe dreams of size n, grouped by their permutation."""

    n: int
    by_perm: Mapping[Perm, tuple[Diagram, ...]]

    def pds(self, w: Perm) -> tuple[Diagram, ...]:
        return self.by_perm.get(w, ())


def pd_from_crosses(n: int, crosses: frozenset[tuple[int, int]]) -> Diagram:
    grid = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if i + j <= n:
                row.append(Tile.CROSS if (i, j) in crosses else Tile.BUMP)
            elif i + j == n + 1:
                row.append(Tile.ELBOW_WN)
            else:
                row.append(Tile.BLANK)
        grid.append(tuple(row))
    return Diagram(Kind.PD, n, tuple(grid))


_INDEX_CACHE: dict[int, PipeDreamIndex] = {}


def enumerate_all(n: int, *, max_n: int | None = None) -> PipeDreamIndex:
    """Index every one of the 2^(n(n-1)/2) fillings by its permutation.

    An index already built (under any bound) is returned as it is; the
    bound only guards a new build."""
    if n in _INDEX_CACHE:
        return _INDEX_CACHE[n]
    bound = DEFAULT_MAX_N if max_n is None else max_n
    if not 1 <= n <= bound:
        raise ValueError(f"n={n} outside the configured bound 1..{bound}")
    groups: dict[Perm, list[Diagram]] = {}
    for d in enumerate_structures(Kind.PD, n, range(1, n + 1)):
        reading = trace(d, record_paths=False).code.entries
        groups.setdefault(Perm(reading).inverse, []).append(d)
    index = PipeDreamIndex(
        n, {w: tuple(sorted(ds, key=sort_key)) for w, ds in groups.items()}
    )
    _INDEX_CACHE[n] = index
    return index


def pd_set(w: Perm) -> tuple[Diagram, ...]:
    """All pipe dreams whose traced top reading is the inverse of w."""
    return enumerate_all(w.n).pds(w)


@lru_cache(maxsize=None)
def grothendieck(w: Perm) -> Poly:
    """Signed sum of cross-row monomials over the pipe dreams of w."""
    return signed_weight_sum(w, pd_set(w))


@lru_cache(maxsize=None)
def double_grothendieck(w: Perm) -> Poly:
    """Signed sum of the expanded (x_i + y_j - x_i*y_j) cell products."""
    return signed_weight_sum(w, pd_set(w), double=True)


@lru_cache(maxsize=None)
def max_cross_count(w: Perm) -> int:
    """Largest cross count over the pipe dreams of w (the degree of its
    signed weight sum); computed by enumeration."""
    return max(len(weighty_cells(d)) for d in pd_set(w))


def top_pd_set(w: Perm) -> tuple[Diagram, ...]:
    """The pipe dreams of w attaining the maximal cross count."""
    best = max_cross_count(w)
    return tuple(d for d in pd_set(w) if len(weighty_cells(d)) == best)


def top_grothendieck(w: Perm) -> Poly:
    """The top-degree component of the Grothendieck polynomial, its signs
    made positive; computed by enumeration."""
    sign = -1 if (max_cross_count(w) - w.inversions()) % 2 else 1
    return grothendieck(w).top_component().scale(sign)
