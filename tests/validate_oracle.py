"""The per-cell validity check, kept as the oracle for ``diagrams.validate``.

It asks ``allowed_tiles`` about every cell, then runs the tracer, then looks
at every cell for a misplaced mark.  That is the definition that the
table-driven alphabet check and the row-skipping mark check must reproduce,
message for message and in the same order.
"""

from __future__ import annotations

from pipedreams.diagrams import Diagram, DiagramError, Tile, allowed_tiles, trace


def oracle_validate(d: Diagram) -> list[str]:
    """Every tile outside its alphabet, else the tracer's first edge
    problem, else every marked elbow whose pipe has no lower horizontal."""
    out = [
        f"({i},{j}): {t.value!r} not allowed in {d.kind.noun} there"
        for i, j, t in d.cells()
        if t not in allowed_tiles(d.kind, d.n, i, j)
    ]
    try:
        tr = trace(d)
    except DiagramError as exc:
        return out + [str(exc)]
    if out:
        return out
    return [
        f"({i},{j}): mark on pipe {tr.cells[(i, j)][1]} with no lower horizontal"
        for i, j, t in d.cells()
        if t is Tile.MARKED_SE and not tr.markable(i, j)
    ]
