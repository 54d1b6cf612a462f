"""Marked vertical-less diagrams and the pipe-removal bijection with PDs.

``mvpd_set`` is the cached ``members(Kind.MVPD, w)``, marks included.  A
pipe dream maps to one by deleting the logical paths of the pipes labelled
by left-to-right maxima of the inverse permutation; a cross that loses its
north-bound strand keeps the surviving south-to-east arc as a *marked*
elbow.  The inverse map is a cell-local rewrite; prop36 checks that the two
are a bijection between the pipe dreams and ``mvpd_set``.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    members,
    require_member,
    signed_weight_sum,
    weight,
    weighty_cells,
)
from .permutations import Perm
from .pipedream import pd_from_crosses
from .polynomials import Poly


def pd_to_mvpd(d: Diagram, w: Perm) -> Diagram:
    """Delete the left-to-right-maxima pipes of w's inverse from a pipe dream.

    Remaining arcs pick the new tile cell by cell; the surviving strand of a
    cross is a horizontal (west-east kept) or a marked elbow (south-east
    kept).  A cross can never be reduced to a lone north-bound strand.
    """
    tr = require_member(d, Kind.PD, w)
    kept = frozenset(range(1, w.n + 1)) - w.inverse.lr_maxima()
    grid = []
    for i in range(1, d.rows + 1):
        row = []
        for j in range(1, d.cols + 1):
            old = d.tile(i, j)
            w_in, s_in, _, e_out = tr.cells[(i, j)]
            if w_in in kept and s_in in kept:
                # Both strands kept: the tile is unchanged.  (A fake crossing
                # routes its labels like a bump but is still a cross tile.)
                row.append(old)
            elif w_in in kept:
                if e_out == w_in:
                    row.append(Tile.HORIZONTAL)
                elif old is Tile.CROSS:
                    raise DiagramError(f"cross at ({i},{j}) reduced to a west-north arc")
                else:
                    row.append(Tile.ELBOW_WN)
            elif s_in in kept:
                if e_out != s_in:
                    raise DiagramError(f"cross at ({i},{j}) reduced to a vertical strand")
                row.append(Tile.MARKED_SE if old is Tile.CROSS else Tile.ELBOW_SE)
            else:
                row.append(Tile.BLANK)
        grid.append(tuple(row))
    return Diagram(Kind.MVPD, w.n, tuple(grid))


def mvpd_to_pd(d: Diagram, w: Perm) -> Diagram:
    """Reinstate the removed pipes: every weighty tile becomes a cross, and
    the rest of the staircase bumps.  A member's weighty tiles all lie on
    the staircase, since its alphabet allows none beyond."""
    require_member(d, Kind.MVPD, w)
    return _mvpd_to_pd(d)


def _mvpd_to_pd(d: Diagram) -> Diagram:
    """``mvpd_to_pd`` of a diagram already checked to be a member."""
    return pd_from_crosses(d.n, weighty_cells(d))


@lru_cache(maxsize=None)
def mvpd_set(w: Perm) -> tuple[Diagram, ...]:
    """The marked vertical-less diagrams of w, in canonical order."""
    return members(Kind.MVPD, w)


def grothendieck_via_mvpd(w: Perm) -> Poly:
    return signed_weight_sum(w, mvpd_set(w))


def double_grothendieck_via_mvpd(w: Perm) -> Poly:
    return signed_weight_sum(w, mvpd_set(w), double=True)


def tile_census_identity(d: Diagram, w: Perm) -> bool:
    """weighty + bumps + unmarked elbows always add up to the pipe travel."""
    k = sum(1 for _, _, t in d.cells() if t in (Tile.BUMP, Tile.ELBOW_SE))
    return weight(d).degree + k == w.pipe_travel()


def is_top(d: Diagram, w: Perm) -> bool:
    """Membership in the maximal-weight subset of an inverse fireworks w
    (any other w is refused): the tile census, no bumps and no unmarked
    elbows."""
    w.require_inverse_fireworks()
    bump, elbow = Tile.BUMP, Tile.ELBOW_SE
    return not any(bump in row or elbow in row for row in d.tiles)


def top_mvpd_set(w: Perm) -> tuple[Diagram, ...]:
    return tuple(d for d in mvpd_set(w) if is_top(d, w))
