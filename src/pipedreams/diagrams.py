"""Tile grids shared by the three diagram species, the pipe tracer, the one
definition of a diagram of a permutation, and the signed weight sum that all
three species compute.

Coordinates are one-based ``(row, column)`` with row 1 at the top, so a
"lower" tile has a larger row index.  Pipes enter from the left edge, move
only north and east, and exit from the top edge.

``trace`` sweeps a diagram once and returns a ``TraceResult``: the code read
off the top edge, the pairs of pipes that really cross, and, when asked to
record, the labels of every cell (west in, south in, north out, east out)
and the lowest horizontal of every pipe.  Cell questions (``pipe_at``, and
``markable``, the one rule for where a mark may sit) are lookups in those.
The tracer is also the one edge rule: it raises on the first pair of tiles
whose edges disagree, and ``validate`` reports that.

A diagram of w in a species is a grid in the species' tile alphabet whose
edges agree and whose traced code is ``code_of(kind, w)``.  ``is_member``
tests that, and ``members`` backtracks every unmarked such grid, routing the
labels by the tracer's rule as it fills and pruning by the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .permutations import Code, Perm
from .polynomials import Monomial, Poly


class DiagramError(Exception):
    """A grid that cannot be traced as a pipe diagram."""


class Tile(Enum):
    """Cell contents; the value doubles as the one-character render glyph."""

    BLANK = "."
    HORIZONTAL = "-"  # west-east strand
    CROSS = "+"  # west-east and south-north strands
    ELBOW_WN = "J"  # west-to-north arc
    ELBOW_SE = "r"  # south-to-east arc
    BUMP = "b"  # west-to-north plus south-to-east (the strands touch)
    MARKED_SE = "R"  # south-to-east arc carrying a mark

    @property
    def connects(self) -> frozenset[str]:
        return _CONNECTS[self]

    def has(self, side: str) -> bool:
        return side in _CONNECTS[self]


_CONNECTS: dict[Tile, frozenset[str]] = {
    Tile.BLANK: frozenset(),
    Tile.HORIZONTAL: frozenset("WE"),
    Tile.CROSS: frozenset("WESN"),
    Tile.ELBOW_WN: frozenset("WN"),
    Tile.ELBOW_SE: frozenset("SE"),
    Tile.BUMP: frozenset("WESN"),
    Tile.MARKED_SE: frozenset("SE"),
}

_CHAR_TO_TILE: dict[str, Tile] = {t.value: t for t in Tile}


class Kind(Enum):
    PD = "PD"
    MVPD = "MVPD"
    BVPD = "BVPD"


def grid_shape(kind: Kind, n: int) -> tuple[int, int]:
    return (n, n - 1) if kind is Kind.BVPD else (n, n)


_MVPD_FULL = (
    Tile.BLANK,
    Tile.HORIZONTAL,
    Tile.CROSS,
    Tile.ELBOW_WN,
    Tile.ELBOW_SE,
    Tile.BUMP,
    Tile.MARKED_SE,
)
_BVPD_FULL = (Tile.BLANK, Tile.HORIZONTAL, Tile.CROSS, Tile.ELBOW_WN, Tile.ELBOW_SE)


def allowed_tiles(kind: Kind, n: int, i: int, j: int) -> tuple[Tile, ...]:
    """The tile alphabet at cell (i, j): full alphabet on the staircase,
    west-north elbows (or blanks) on the anti-diagonal, blanks beyond."""
    s = i + j
    if kind is Kind.PD:
        if s <= n:
            return (Tile.CROSS, Tile.BUMP)
        if s == n + 1:
            return (Tile.ELBOW_WN,)
        return (Tile.BLANK,)
    if kind is Kind.MVPD:
        if s <= n:
            return _MVPD_FULL
        if s == n + 1:
            return (Tile.BLANK, Tile.ELBOW_WN)
        return (Tile.BLANK,)
    if s <= n - 1:
        return _BVPD_FULL
    if s == n:
        return (Tile.BLANK, Tile.ELBOW_WN)
    return (Tile.BLANK,)


@dataclass(frozen=True)
class Diagram:
    """An immutable rectangular tile grid tagged with its species."""

    kind: Kind
    n: int
    tiles: tuple[tuple[Tile, ...], ...]

    def __post_init__(self) -> None:
        rows, cols = grid_shape(self.kind, self.n)
        if len(self.tiles) != rows or any(len(r) != cols for r in self.tiles):
            raise ValueError(
                f"expected {rows}x{cols} grid for {self.kind.value} of size {self.n}"
            )

    @property
    def rows(self) -> int:
        return len(self.tiles)

    @property
    def cols(self) -> int:
        return len(self.tiles[0]) if self.tiles else 0

    def tile(self, i: int, j: int) -> Tile:
        return self.tiles[i - 1][j - 1]

    @cached_property
    def entering_rows(self) -> frozenset[int]:
        """Rows at which a pipe enters the left edge."""
        if self.cols == 0:
            return frozenset()
        return frozenset(i for i in range(1, self.rows + 1) if self.tile(i, 1).has("W"))

    def cells(self) -> Iterator[tuple[int, int, Tile]]:
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                yield i, j, self.tiles[i - 1][j - 1]

    def with_tiles(self, updates: Mapping[tuple[int, int], Tile]) -> Diagram:
        grid = [list(row) for row in self.tiles]
        for (i, j), t in updates.items():
            grid[i - 1][j - 1] = t
        return Diagram(self.kind, self.n, tuple(tuple(r) for r in grid))

    def render_text(self) -> str:
        return "\n".join("".join(t.value for t in row) for row in self.tiles)

    def __str__(self) -> str:
        return self.render_text()

    @classmethod
    def parse_text(cls, kind: Kind, n: int, text: str) -> Diagram:
        rows = text.split("\n")
        grid: list[tuple[Tile, ...]] = []
        for line in rows:
            try:
                grid.append(tuple(_CHAR_TO_TILE[ch] for ch in line))
            except KeyError as exc:
                raise DiagramError(f"unknown tile character {exc.args[0]!r}") from None
        try:
            d = cls(kind, n, tuple(grid))
        except ValueError as exc:
            raise DiagramError(str(exc)) from None
        problems = validate(d)
        if problems:
            raise DiagramError("; ".join(problems))
        return d

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "n": self.n,
            "rows": ["".join(t.value for t in row) for row in self.tiles],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> Diagram:
        kind, n, rows = data["kind"], data["n"], data["rows"]
        ok = isinstance(kind, str) and type(n) is int and isinstance(rows, list)
        if not ok or not all(isinstance(r, str) for r in rows):
            raise DiagramError("expected a string kind, an integer n and a list of string rows")
        return cls.parse_text(Kind(kind), n, "\n".join(rows))


# The labels of one traced cell: (west in, south in, north out, east out),
# 0 where no pipe runs.
CellLabels = tuple[int, int, int, int]


@dataclass(frozen=True)
class TraceResult:
    """Everything the tracer learns about a diagram in one pass.

    ``cells`` and ``lowest_horizontal`` are filled only by
    ``trace(d, record_paths=True)``; the cell queries read them.
    """

    code: Code
    crossed_pairs: frozenset[frozenset[int]]
    cells: Mapping[tuple[int, int], CellLabels]
    lowest_horizontal: Mapping[int, int]  # label -> largest row of a horizontal on its pipe

    def pipe_at(self, i: int, j: int) -> frozenset[int]:
        """Labels of the pipes passing through cell (i, j)."""
        w_in, s_in, _, _ = self.cells[(i, j)]
        return frozenset(label for label in (w_in, s_in) if label)

    def markable(self, i: int, j: int) -> bool:
        """True iff (i, j) holds a south-east elbow whose pipe owns a
        horizontal tile in a lower row: the only place a mark may sit."""
        w_in, s_in, _, _ = self.cells[(i, j)]
        return not w_in and s_in != 0 and self.lowest_horizontal.get(s_in, 0) > i


def _exits(t: Tile, w_in: int, s_in: int, crossed: set[frozenset[int]]) -> tuple[int, int]:
    """The (north, east) labels leaving tile t, given its (west, south) labels.

    At a cross, the first meeting of two labels is a real crossing (both
    strands pass straight through, so the south label leaves north) and the
    pair joins ``crossed``; a pair that has already crossed bounces instead,
    with the west label leaving north.
    """
    if t is Tile.HORIZONTAL:
        return 0, w_in
    if t is Tile.ELBOW_WN:
        return w_in, 0
    if t is Tile.ELBOW_SE or t is Tile.MARKED_SE:
        return 0, s_in
    if t is Tile.CROSS:
        pair = frozenset((w_in, s_in))
        if pair not in crossed:
            crossed.add(pair)
            return s_in, w_in
    return w_in, s_in  # a bump, a bouncing cross, or a blank (0, 0)


def trace(d: Diagram, *, record_paths: bool = True) -> TraceResult:
    """Propagate pipe labels cell by cell, bottom-to-top, left-to-right,
    through ``_exits``."""
    rows, cols = d.rows, d.cols
    entering = d.entering_rows
    south = [0] * (cols + 1)  # label heading north out of the row below, per column
    cells: dict[tuple[int, int], CellLabels] = {}
    lowest: dict[int, int] = {}
    crossed: set[frozenset[int]] = set()
    for i in range(rows, 0, -1):
        west = i if i in entering else 0
        for j in range(1, cols + 1):
            t = d.tiles[i - 1][j - 1]
            w_in, s_in = west, south[j]
            if bool(w_in) != t.has("W") or bool(s_in) != t.has("S"):
                if bool(w_in) != t.has("W"):
                    raise DiagramError(f"({i},{j - 1})-({i},{j}): east/west edges disagree")
                if i == rows:
                    raise DiagramError(f"({i},{j}): south connection leaves the grid")
                raise DiagramError(f"({i},{j})-({i + 1},{j}): south/north edges disagree")
            n_out, e_out = _exits(t, w_in, s_in, crossed)
            if record_paths:
                cells[(i, j)] = (w_in, s_in, n_out, e_out)
                if t is Tile.HORIZONTAL:
                    # The sweep runs bottom-up, so the first horizontal met is the lowest.
                    lowest.setdefault(w_in, i)
            south[j] = n_out
            west = e_out
        if west:
            raise DiagramError(f"({i},{cols}): east connection leaves the grid")
    return TraceResult(
        code=Code(tuple(south[1 : cols + 1]), d.n),
        crossed_pairs=frozenset(crossed),
        cells=cells,
        lowest_horizontal=lowest,
    )


def validate(d: Diagram) -> list[str]:
    """Invariant violations of the diagram's species (empty list = valid):
    every tile outside its alphabet, else the first edge problem the tracer
    meets, else every misplaced mark."""
    return _checked_trace(d)[0]


def _checked_trace(d: Diagram) -> tuple[list[str], TraceResult | None]:
    """``validate``'s problems together with the trace they were read from
    (``None`` when the tracer refused the grid)."""
    out = [
        f"({i},{j}): {t.value!r} not allowed in a {d.kind.value} there"
        for i, j, t in d.cells()
        if t not in allowed_tiles(d.kind, d.n, i, j)
    ]
    try:
        tr = trace(d)
    except DiagramError as exc:
        return out + [str(exc)], None
    return out or mark_violations(d, tr), tr


def mark_violations(d: Diagram, tr: TraceResult) -> list[str]:
    """Marked elbows whose pipe has no horizontal tile in any lower row."""
    return [
        f"({i},{j}): mark on pipe {tr.cells[(i, j)][1]} with no lower horizontal"
        for i, j, t in d.cells()
        if t is Tile.MARKED_SE and not tr.markable(i, j)
    ]


def sort_key(d: Diagram) -> str:
    """Canonical ordering key for sets of diagrams."""
    return d.render_text()


def code_of(kind: Kind, w: Perm) -> Code:
    """The code every diagram of w in the species reads off its top edge:
    w's inverse for PDs, its column code for MVPDs, and its reduced column
    code for BVPDs (a ``ValueError`` unless w is inverse fireworks)."""
    if kind is Kind.PD:
        return Code(w.inverse.letters, w.n)
    if kind is Kind.MVPD:
        return w.column_code()
    return w.reduced_column_code()


def is_member(d: Diagram, w: Perm) -> bool:
    """True iff d is a diagram of w in its species: a valid grid whose
    traced code is ``code_of(d.kind, w)``."""
    if d.n != w.n:
        return False
    problems, tr = _checked_trace(d)
    return not problems and tr.code == code_of(d.kind, w)


# The fill recurses once per cell, and a grid of size n has up to n^2 cells:
# at n = 32 that overruns Python's default limit of 1000 frames.  28^2 = 784
# leaves room for the frames of the caller (a test runner's, say).
MAX_FILL_N = 28


def members(kind: Kind, w: Perm) -> tuple[Diagram, ...]:
    """The unmarked diagrams of w in the species, in canonical order.

    Cells are filled in ``trace``'s order (bottom to top, left to right), so
    each cell's west and south labels are known when its tile is picked, and
    ``_exits`` routes them as the tracer would.  Pipes move only north and
    east, so a tile is dead when it sends a label r east out of column j with
    t(r) < j + 1, or north with t(r) < j, where t(r) is the column at which r
    must leave the top edge; in row 1 the north label must be the code entry.
    Every complete filling therefore reads w's code, with no trace after."""
    if w.n > MAX_FILL_N:
        raise ValueError(f"n={w.n} above the fill's depth bound {MAX_FILL_N}")
    code = code_of(kind, w)
    rows, cols = grid_shape(kind, w.n)
    entering = code.pipes
    exit_col = {r: c for c, r in enumerate(code.entries, start=1) if r}
    top = (0,) + code.entries  # top[j]: the label leaving column j's top edge
    cells = [(i, j) for i in range(rows, 0, -1) for j in range(1, cols + 1)]
    # The unmarked tiles of each cell, by whether they take a west and a south pipe.
    choices: dict[tuple[int, int, bool, bool], list[Tile]] = {}
    for i, j in cells:
        for t in allowed_tiles(kind, w.n, i, j):
            if t is not Tile.MARKED_SE:
                choices.setdefault((i, j, t.has("W"), t.has("S")), []).append(t)
    grid = [[Tile.BLANK] * cols for _ in range(rows)]
    south = [0] * (cols + 1)  # label heading north out of the row below, per column
    crossed: set[frozenset[int]] = set()
    found: list[Diagram] = []

    def fill(k: int, west: int) -> None:
        if k == len(cells):
            found.append(Diagram(kind, w.n, tuple(tuple(r) for r in grid)))
            return
        i, j = cells[k]
        if j == 1:
            west = i if i in entering else 0
        s_in = south[j]
        for t in choices.get((i, j, bool(west), bool(s_in)), ()):
            n_out, e_out = _exits(t, west, s_in, crossed)
            fresh = t is Tile.CROSS and n_out == s_in  # this tile crossed its pair
            alive = (
                not (e_out and exit_col[e_out] <= j)
                and not (n_out and exit_col[n_out] < j)
                and (i > 1 or n_out == top[j])
            )
            if alive:
                grid[i - 1][j - 1] = t
                south[j] = n_out
                fill(k + 1, e_out)
            if fresh:
                crossed.discard(frozenset((west, s_in)))
        south[j] = s_in

    fill(0, 0)
    return tuple(sorted(found, key=sort_key))


# The weight-bearing tiles of each species.  In a BVPD a pipe turns north
# exactly once more than it turns east, so per row the west-north elbows
# count the entering pipe plus its south-east turns; that makes {cross,
# horizontal, west-north elbow} the weight-bearing set there.
WEIGHTY: dict[Kind, tuple[Tile, ...]] = {
    Kind.PD: (Tile.CROSS,),
    Kind.MVPD: (Tile.HORIZONTAL, Tile.CROSS, Tile.MARKED_SE),
    Kind.BVPD: (Tile.HORIZONTAL, Tile.CROSS, Tile.ELBOW_WN),
}


def weighty_cells(d: Diagram) -> frozenset[tuple[int, int]]:
    """Positions of the weight-bearing tiles of the diagram's species."""
    weighty = WEIGHTY[d.kind]
    return frozenset((i, j) for i, j, t in d.cells() if t in weighty)


def weight(d: Diagram) -> Monomial:
    """Row-product monomial of the weight-bearing tiles."""
    return Monomial.from_rows(d.n, (i for i, _ in weighty_cells(d)))


def _bump(e: tuple[int, ...], k: int) -> tuple[int, ...]:
    return e[:k] + (e[k] + 1,) + e[k + 1 :]


def signed_weight_sum(w: Perm, ds: Iterable[Diagram], *, double: bool = False) -> Poly:
    """Sum of (-1)^(k - inversions(w)) times the weight of each diagram, where
    k counts its weighty tiles.  The double weight is the product of
    x_i + y_j - x_i*y_j over the weighty cells (i, j).

    This is the one place a weight is expanded.  Terms are keyed by flat
    exponent tuples (the x block, then the y block) until the end."""
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
