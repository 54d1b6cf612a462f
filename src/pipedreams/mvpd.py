"""Marked vertical-less diagrams and the pipe-removal bijection with PDs.

A pipe dream maps to a marked vertical-less diagram by deleting the logical
paths of the pipes labelled by left-to-right maxima of the inverse
permutation; a cross that loses its north-bound strand keeps the surviving
south-to-east arc as a *marked* elbow.  The inverse map is a cell-local
rewrite.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    TraceResult,
    enumerate_structures,
    pipe_has_lower_horizontal,
    signed_weight_sum,
    sort_key,
    trace,
    validate,
    weighty_cells,
)
from .permutations import Perm
from .pipedream import max_cross_count, pd_set
from .polynomials import Poly


def is_member(d: Diagram, w: Perm) -> bool:
    """True iff d is a valid MVPD whose column-to-row code matches w."""
    if d.kind is not Kind.MVPD or d.n != w.n or validate(d):
        return False
    return trace(d, record_paths=False).code == w.column_code()


def _arcs_by_cell(tr: TraceResult, keep: frozenset[int]) -> dict[tuple[int, int], list]:
    arcs: dict[tuple[int, int], list] = {}
    for label, steps in tr.paths.items():
        if label not in keep:
            continue
        for s in steps:
            arcs.setdefault((s.row, s.col), []).append((s.enters, s.leaves))
    return arcs


def pd_to_mvpd(d: Diagram, w: Perm) -> Diagram:
    """Delete the left-to-right-maxima pipes of w's inverse from a pipe dream.

    Remaining arcs pick the new tile cell by cell; the surviving strand of a
    cross is a horizontal (west-east kept) or a marked elbow (south-east
    kept).  A cross can never be reduced to a lone north-bound strand.
    """
    tr = trace(d)
    if Perm(tr.top_reading).inverse != w:
        raise ValueError(f"diagram does not belong to {w.letters}")
    kept = frozenset(range(1, w.n + 1)) - w.inverse.lr_maxima()
    arcs = _arcs_by_cell(tr, kept)
    grid = []
    for i in range(1, d.rows + 1):
        row = []
        for j in range(1, d.cols + 1):
            old = d.tile(i, j)
            cell = arcs.get((i, j), [])
            if not cell:
                row.append(Tile.BLANK)
            elif len(cell) == 2:
                # Both strands kept: the tile is unchanged.  (A fake crossing
                # routes its labels like a bump but is still a cross tile.)
                row.append(old)
            else:
                arc = cell[0]
                if arc == ("W", "E"):
                    row.append(Tile.HORIZONTAL)
                elif arc == ("W", "N"):
                    if old is Tile.CROSS:
                        raise DiagramError(f"cross at ({i},{j}) reduced to a west-north arc")
                    row.append(Tile.ELBOW_WN)
                elif arc == ("S", "E"):
                    row.append(Tile.MARKED_SE if old is Tile.CROSS else Tile.ELBOW_SE)
                else:
                    raise DiagramError(f"cross at ({i},{j}) reduced to a vertical strand")
        grid.append(tuple(row))
    return Diagram(Kind.MVPD, w.n, tuple(grid))


_FROM_MVPD = {
    Tile.CROSS: Tile.CROSS,
    Tile.MARKED_SE: Tile.CROSS,
    Tile.HORIZONTAL: Tile.CROSS,
    Tile.BUMP: Tile.BUMP,
    Tile.ELBOW_SE: Tile.BUMP,
}


def mvpd_to_pd(d: Diagram, w: Perm) -> Diagram:
    """Reinstate the removed pipes by the cell-local rewrite."""
    if d.kind is not Kind.MVPD:
        raise ValueError(f"expected an MVPD, got {d.kind.value}")
    n = d.n
    grid = []
    for i in range(1, d.rows + 1):
        row = []
        for j in range(1, d.cols + 1):
            t = d.tile(i, j)
            if t in _FROM_MVPD:
                row.append(_FROM_MVPD[t])
            elif i + j <= n:
                row.append(Tile.BUMP)
            elif i + j == n + 1:
                row.append(Tile.ELBOW_WN)
            else:
                row.append(Tile.BLANK)
        grid.append(tuple(row))
    out = Diagram(Kind.PD, n, tuple(grid))
    problems = validate(out)
    if problems:
        raise DiagramError("rewrite left the pipe-dream region: " + "; ".join(problems))
    return out


@lru_cache(maxsize=None)
def mvpd_set(w: Perm) -> tuple[Diagram, ...]:
    """The marked vertical-less diagrams of w, as the image of its pipe dreams."""
    return tuple(sorted((pd_to_mvpd(d, w) for d in pd_set(w)), key=sort_key))


@lru_cache(maxsize=None)
def enumerate_mvpd_direct(w: Perm) -> tuple[Diagram, ...]:
    """Independent oracle: backtrack the staircase fillings with w's code,
    then expand every subset of markable elbows."""
    code = w.column_code()
    out = []
    for d in enumerate_structures(Kind.MVPD, w.n, code.pipes):
        tr = trace(d)
        if tr.code != code:
            continue
        markable = [
            (i, j)
            for i, j, t in d.cells()
            if t is Tile.ELBOW_SE and _markable(d, tr, i, j)
        ]
        for k in range(len(markable) + 1):
            for subset in combinations(markable, k):
                out.append(d.with_tiles({c: Tile.MARKED_SE for c in subset}))
    return tuple(sorted(out, key=sort_key))


def _markable(d: Diagram, tr: TraceResult, i: int, j: int) -> bool:
    (label, _), = tr.pipe_at(i, j)
    return pipe_has_lower_horizontal(d, tr, label, i)


def grothendieck_via_mvpd(w: Perm) -> Poly:
    return signed_weight_sum(w, mvpd_set(w))


def double_grothendieck_via_mvpd(w: Perm) -> Poly:
    return signed_weight_sum(w, mvpd_set(w), double=True)


def tile_census_identity(d: Diagram, w: Perm) -> bool:
    """weighty + bumps + unmarked elbows always add up to the pipe travel."""
    k = sum(1 for _, _, t in d.cells() if t in (Tile.BUMP, Tile.ELBOW_SE))
    return len(weighty_cells(d)) + k == w.pipe_travel()


def is_top(d: Diagram, w: Perm) -> bool:
    """Membership in the maximal-weight subset.

    For inverse fireworks w this is the tile census (no bumps, no unmarked
    elbows); otherwise compare with the maximal cross count of w's pipe
    dreams, as the removal bijection keeps the weighty cells in place.
    """
    if w.is_inverse_fireworks():
        return not any(t in (Tile.BUMP, Tile.ELBOW_SE) for _, _, t in d.cells())
    return len(weighty_cells(d)) == max_cross_count(w)


def top_mvpd_set(w: Perm) -> tuple[Diagram, ...]:
    return tuple(d for d in mvpd_set(w) if is_top(d, w))


def find_upgrade(d: Diagram, w: Perm) -> tuple[tuple[int, int], Tile] | None:
    """First single-tile weight +1 rewrite (row-major scan) that keeps the
    diagram in w's set: mark an elbow whose pipe has a lower horizontal, or
    turn a bump whose pipes really cross elsewhere into a cross."""
    tr = trace(d)
    for i, j, t in d.cells():
        if t is Tile.ELBOW_SE:
            (label, _), = tr.pipe_at(i, j)
            if not pipe_has_lower_horizontal(d, tr, label, i):
                continue
            candidate = Tile.MARKED_SE
        elif t is Tile.BUMP:
            labels = frozenset(label for label, _ in tr.pipe_at(i, j))
            if labels not in tr.crossed_pairs:
                continue
            candidate = Tile.CROSS
        else:
            continue
        upgraded = d.with_tiles({(i, j): candidate})
        if is_member(upgraded, w):
            return (i, j), candidate
    return None
