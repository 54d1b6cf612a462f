"""The unpruned backtracker, kept as the oracle for ``diagrams.members``.

It fills every edge-consistent grid with the given left-edge pipes, in the
full alphabet, marks included, and knows nothing of labels, codes or where
a mark may sit; ``oracle_members`` then keeps the fillings that
``validate`` accepts and whose traced code is w's.  That is the definition
the pruned fill must reproduce.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from pipedreams.diagrams import (
    Diagram,
    Kind,
    Tile,
    allowed_tiles,
    code_of,
    grid_shape,
    sort_key,
    trace,
    validate,
)
from pipedreams.permutations import Perm


def unpruned_fill(kind: Kind, n: int, entering: Iterable[int]) -> Iterator[Diagram]:
    """All edge-consistent fillings with the given left-edge pipes, marks
    placed anywhere the alphabet has them, cells chosen bottom-to-top,
    left-to-right."""
    rows, cols = grid_shape(kind, n)
    want = frozenset(entering)
    if cols == 0:
        if not want:
            yield Diagram(kind, n, tuple(() for _ in range(rows)))
        return
    alphabet = {
        (i, j): allowed_tiles(kind, n, i, j)
        for i in range(1, rows + 1)
        for j in range(1, cols + 1)
    }
    cells = [(i, j) for i in range(rows, 0, -1) for j in range(1, cols + 1)]
    grid = [[Tile.BLANK] * cols for _ in range(rows)]
    north = [False] * (cols + 1)

    def fill(k: int, west: bool) -> Iterator[Diagram]:
        if k == len(cells):
            yield Diagram(kind, n, tuple(tuple(r) for r in grid))
            return
        i, j = cells[k]
        if j == 1:
            west = i in want
        for t in alphabet[(i, j)]:
            if t.has("W") != west or t.has("S") != north[j]:
                continue
            if j == cols and t.has("E"):
                continue
            grid[i - 1][j - 1] = t
            saved, north[j] = north[j], t.has("N")
            yield from fill(k + 1, t.has("E"))
            north[j] = saved

    yield from fill(0, False)


def oracle_members(kind: Kind, ws: Iterable[Perm]) -> dict[Perm, tuple[Diagram, ...]]:
    """For each w (all of one size), the valid unpruned fillings whose traced
    code is w's, in canonical order.  Each entering set is filled once."""
    codes = {w: code_of(kind, w) for w in ws}
    n = next(iter(codes)).n
    groups: dict[tuple[int, ...], list[Diagram]] = {}
    for pipes in {frozenset(filter(None, c)) for c in codes.values()}:
        for d in unpruned_fill(kind, n, pipes):
            if not validate(d):
                groups.setdefault(trace(d).code, []).append(d)
    return {w: tuple(sorted(groups.get(c, ()), key=sort_key)) for w, c in codes.items()}
