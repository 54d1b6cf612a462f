"""The per-cell tracer, kept as the oracle for ``diagrams.trace``.

It checks each cell's edges against its tile's ``sides``, routes the
labels through ``_exits`` and stores each cell's labels under its (i, j)
key as it goes.  That is the definition the planned tracer must reproduce:
an equal ``TraceResult``, or a ``DiagramError`` with the same message.
"""

from __future__ import annotations

from pipedreams.diagrams import (
    CellLabels,
    Diagram,
    DiagramError,
    TraceResult,
    Tile,
    _exits,
)


def oracle_trace(d: Diagram) -> TraceResult:
    """Propagate pipe labels cell by cell, bottom-to-top, left-to-right,
    through ``_exits``."""
    rows, cols = d.rows, d.cols
    south = [0] * (cols + 1)  # label heading north out of the row below, per column
    cells: dict[tuple[int, int], CellLabels] = {}
    lowest: dict[int, int] = {}
    crossed: set[frozenset[int]] = set()
    for i in range(rows, 0, -1):
        row = d.tiles[i - 1]
        # The pipe entering the row is read off its first tile, as in
        # ``entering_rows`` (an n = 1 BVPD has empty rows).
        west = i if row and "W" in row[0].sides else 0
        for j, t in enumerate(row, start=1):
            s_in = south[j]
            sides = t.sides
            if (not west) == ("W" in sides):
                raise DiagramError(f"({i},{j - 1})-({i},{j}): east/west edges disagree")
            if (not s_in) == ("S" in sides):
                if i == rows:
                    raise DiagramError(f"({i},{j}): south connection leaves the grid")
                raise DiagramError(f"({i},{j})-({i + 1},{j}): south/north edges disagree")
            n_out, e_out = _exits(t, west, s_in, crossed)
            cells[(i, j)] = (west, s_in, n_out, e_out)
            if t is Tile.HORIZONTAL:
                # The sweep runs bottom-up, so the first horizontal met is the lowest.
                lowest.setdefault(west, i)
            south[j] = n_out
            west = e_out
        if west:
            raise DiagramError(f"({i},{cols}): east connection leaves the grid")
    return TraceResult(
        code=tuple(south[1 : cols + 1]),
        crossed_pairs=frozenset(crossed),
        cells=cells,
        lowest_horizontal=lowest,
    )
