"""The per-diagram weight expansion, kept as the oracle for
``diagrams.signed_weight_sum``.

It expands each diagram's double weight on its own, bumping one exponent
tuple per term, and shares nothing with the packed shared-prefix expansion
it checks.
"""

from __future__ import annotations

from typing import Iterable

from pipedreams.diagrams import Diagram, weighty_cells
from pipedreams.permutations import Perm
from pipedreams.polynomials import Monomial, Poly


def _bump(e: tuple[int, ...], k: int) -> tuple[int, ...]:
    return e[:k] + (e[k] + 1,) + e[k + 1 :]


def expand_each(w: Perm, ds: Iterable[Diagram], *, double: bool = False) -> Poly:
    """Sum of (-1)^(k - inversions(w)) times the weight of each diagram, where
    k counts its weighty tiles; the double weight is the product of
    x_i + y_j - x_i*y_j over the weighty cells (i, j)."""
    n = w.n
    ell = w.inversions()
    acc: dict[tuple[int, ...], int] = {}
    for d in ds:
        cells = weighty_cells(d)
        sign = -1 if (len(cells) - ell) % 2 else 1
        if double:
            terms = {(0,) * (2 * n): sign}
            for i, j in cells:
                grown: dict[tuple[int, ...], int] = {}
                for e, c in terms.items():
                    ex = _bump(e, i - 1)
                    for f, v in ((ex, c), (_bump(e, n + j - 1), c), (_bump(ex, n + j - 1), -c)):
                        grown[f] = grown.get(f, 0) + v
                terms = grown
        else:
            e = [0] * (2 * n)
            for i, _ in cells:
                e[i - 1] += 1
            terms = {tuple(e): sign}
        for e, c in terms.items():
            acc[e] = acc.get(e, 0) + c
    return Poly(n, {Monomial(e[:n], e[n:]): c for e, c in acc.items()})
