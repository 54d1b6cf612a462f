"""Pipe dreams and the signed weight sums they generate.

The pipe dreams of w are ``members(Kind.PD, w)``, the fillings of the
staircase by crosses and bumps whose top reading is w's inverse; every
per-permutation query reads them through the cached ``pd_set``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .diagrams import Diagram, Kind, Tile, members, signed_weight_sum, weighty_cells
from .permutations import Perm, symmetric_group
from .polynomials import Poly

# Pipe dreams are filled up to this size only.  At n = 7 the double
# Grothendieck polynomial of 7654321 alone raised MemoryError under a 4 GB
# limit, so a sweep such as eq1-vs-cor37 there could not finish.
MAX_N = 6


@dataclass(frozen=True)
class PipeDreamIndex:
    """All pipe dreams of size n, grouped by their permutation."""

    n: int
    by_perm: Mapping[Perm, tuple[Diagram, ...]]


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


@lru_cache(maxsize=None)
def pd_set(w: Perm) -> tuple[Diagram, ...]:
    """All pipe dreams whose traced top reading is the inverse of w."""
    if w.n > MAX_N:
        raise ValueError(f"n={w.n} above the pipe-dream bound {MAX_N}")
    return members(Kind.PD, w)


def enumerate_all(n: int) -> PipeDreamIndex:
    """The pipe dreams of every w of S_n.  Nothing in the package calls it;
    it stays for the benchmark, whose set-ups call it and read ``by_perm``."""
    return PipeDreamIndex(n, {w: pd_set(w) for w in symmetric_group(n)})


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
