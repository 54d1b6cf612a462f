"""Pipe dreams and the signed weight sums they generate.

The pipe dreams of w are ``members(Kind.PD, w)``, the fillings of the
staircase by crosses and bumps whose top reading is w's inverse; every
per-permutation query reads them through ``pd_set``.  The diagram lists
that several readers share (``pd_set``, ``mvpd_set``) and the small values
read off them are cached; no polynomial is, as each is one fold, over a
list or over the fill itself, that no sweep or command reads twice.  A
double sum only holds a weak reference to the last one, so both routes of
one w return one polynomial while a caller holds it.  The monomials of the
double sums are shared, though: beside it, ``signed_weight_sum`` keeps one
bounded table of them for one size, so equal terms of every w are one object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .diagrams import Diagram, Kind, _alphabets, members, signed_weight_sum, weight
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
    """The pipe dream with crosses at the given cells: each cell takes the
    first tile of its alphabet if crossed, else the last, so the staircase
    is crosses and bumps, and the cells past it are fixed."""
    alphabets = _alphabets(Kind.PD, n)
    grid = tuple(
        tuple(
            a[0] if (i, j) in crosses else a[-1]
            for j, a in enumerate(alphabets[(i - 1) * n : i * n], start=1)
        )
        for i in range(1, n + 1)
    )
    return Diagram(Kind.PD, n, grid)


def require_pd_bound(n: int) -> None:
    """Refuse a size whose pipe dreams lie above ``MAX_N``."""
    if n > MAX_N:
        raise ValueError(f"n={n} above the pipe-dream bound {MAX_N}")


@lru_cache(maxsize=None)
def pd_set(w: Perm) -> tuple[Diagram, ...]:
    """All pipe dreams whose traced top reading is the inverse of w."""
    require_pd_bound(w.n)
    return members(Kind.PD, w)


def enumerate_all(n: int) -> PipeDreamIndex:
    """The pipe dreams of every w of S_n.  Nothing in the package calls it;
    it stays for the benchmark, whose set-ups call it and read ``by_perm``."""
    return PipeDreamIndex(n, {w: pd_set(w) for w in symmetric_group(n)})


def grothendieck(w: Perm) -> Poly:
    """Signed sum of cross-row monomials over the pipe dreams of w."""
    return signed_weight_sum(w, pd_set(w))


def double_grothendieck(w: Perm) -> Poly:
    """Signed sum of the expanded (x_i + y_j - x_i*y_j) cell products."""
    return signed_weight_sum(w, pd_set(w), double=True)


@lru_cache(maxsize=None)
def max_cross_count(w: Perm) -> int:
    """Largest cross count over the pipe dreams of w (the degree of its
    signed weight sum); computed by enumeration."""
    return max(weight(d).degree for d in pd_set(w))


def top_pd_set(w: Perm) -> tuple[Diagram, ...]:
    """The pipe dreams of w attaining the maximal cross count."""
    best = max_cross_count(w)
    return tuple(d for d in pd_set(w) if weight(d).degree == best)


def top_grothendieck(w: Perm) -> Poly:
    """The top-degree component of the Grothendieck polynomial, its signs
    made positive; computed by enumeration."""
    sign = -1 if (max_cross_count(w) - w.inversions()) % 2 else 1
    return grothendieck(w).top_component().scale(sign)
