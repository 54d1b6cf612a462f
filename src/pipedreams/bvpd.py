"""Bumpless vertical-less diagrams and the top-degree formula they compute.

All of this is scoped to inverse fireworks permutations: only then does the
reduced column code fit the n x (n-1) grid, and only then is the
maximal-weight subset cut out by a tile census.
"""

from __future__ import annotations

from .diagrams import Diagram, Kind, Tile, members, require_kind, require_member, weight_counts
from .mvpd import _mvpd_to_pd, is_top, pd_to_mvpd
from .permutations import Perm
from .polynomials import Monomial, Poly


def east_exit_cells(d: Diagram) -> frozenset[tuple[int, int]]:
    """Positions whose tile sends a pipe east into the next column."""
    require_kind(d, Kind.BVPD)
    return frozenset((i, j) for i, j, t in d.cells() if t.has("E"))


def enumerate_bvpd(w: Perm) -> tuple[Diagram, ...]:
    """All bumpless fillings whose traced code is w's reduced column code."""
    return members(Kind.BVPD, w)


def top_grothendieck_via_bvpd(w: Perm) -> Poly:
    """Unsigned sum of the diagram weights: the top-degree component, read
    off the BVPD weight fold, with no diagram listed."""
    y = (0,) * w.n
    return Poly(w.n, {Monomial(x, y): c for x, c in weight_counts(Kind.BVPD, w).items()})


def mvpd_to_bvpd(d: Diagram, w: Perm) -> Diagram:
    """Drop the first column (a top MVPD's holds only blanks and entering
    horizontals, so the rest is a BVPD of w) and forget the marks."""
    w.require_inverse_fireworks()
    require_member(d, Kind.MVPD, w)
    if not is_top(d, w):
        raise ValueError("only maximal-weight diagrams drop their first column")
    grid = []
    for row in d.tiles:
        grid.append(
            tuple(Tile.ELBOW_SE if t is Tile.MARKED_SE else t for t in row[1:])
        )
    return Diagram(Kind.BVPD, w.n, tuple(grid))


def bvpd_to_mvpd(d: Diagram, w: Perm) -> Diagram:
    """Prepend a column of horizontals at the entering rows and mark every
    south-east elbow: an MVPD of w, each mark above its pipe's new horizontal."""
    w.require_inverse_fireworks()
    require_member(d, Kind.BVPD, w)
    entering = d.entering_rows
    grid = []
    for i, row in enumerate(d.tiles, start=1):
        first = Tile.HORIZONTAL if i in entering else Tile.BLANK
        grid.append(
            (first,) + tuple(Tile.MARKED_SE if t is Tile.ELBOW_SE else t for t in row)
        )
    return Diagram(Kind.MVPD, w.n, tuple(grid))


def bvpd_to_pd(d: Diagram, w: Perm) -> Diagram:
    """The composite bijection onto the maximal-cross pipe dreams; only d is traced."""
    return _mvpd_to_pd(bvpd_to_mvpd(d, w))


def pd_to_bvpd(d: Diagram, w: Perm) -> Diagram:
    """Inverse of ``bvpd_to_pd``; expects a maximal-cross pipe dream."""
    return mvpd_to_bvpd(pd_to_mvpd(d, w), w)


def predicted_cross_cells(d: Diagram) -> frozenset[tuple[int, int]]:
    """Cross positions of the pipe dream image: column 1 at the entering
    rows, plus every east-exit cell shifted one column right."""
    require_kind(d, Kind.BVPD)
    first = frozenset((i, 1) for i in d.entering_rows)
    return first | frozenset((i, j + 1) for i, j in east_exit_cells(d))
