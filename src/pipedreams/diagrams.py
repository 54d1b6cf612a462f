"""Tile grids shared by the three diagram species, the pipe tracer, the one
definition of a diagram of a permutation, and the signed weight sums: the
single sum, built from weight counts, and the double sum of listed diagrams.

Coordinates are one-based ``(row, column)`` with row 1 at the top, so a
"lower" tile has a larger row index.  Pipes enter from the left edge, move
only north and east, and exit from the top edge.  ``Diagram.from_rows`` is
the one reader of a grid from outside, one string of glyphs per row.

``trace`` sweeps a diagram once and returns a ``TraceResult``: the code read
off the top edge, the pairs of pipes that really cross, the labels of every
cell (west in, south in, north out, east out) and the lowest horizontal of
every pipe.  Cell questions (``pipe_at``, and ``markable``, the one rule for
where a mark may sit) are lookups in those.
The tracer is also the one edge rule: it raises on the first pair of tiles
whose edges disagree, and ``validate`` reports that.

A diagram of w in a species is a grid in the species' tile alphabet whose
edges agree and whose traced code is ``code_of(kind, w)``.  ``member_trace``
tests that, returning the checked trace.  One fill, ``_fill``, backtracks
every such grid, marks included, taking each cell's tiles from its
alphabet, routing the labels by the tracer's rule as it fills, and pruning
by the code and a mark by ``markable``'s rule, and hands each complete
filling to a leaf.  Its folds differ only in that leaf: ``members``
lists the fillings as diagrams in canonical order, and ``weight_counts``
counts them by weight with no diagram built.  So both read exactly the same
fillings, under the same ``MAX_LISTED`` budget.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import contains
from typing import Callable, Iterable, Iterator, Mapping

from .permutations import Perm
from .polynomials import Monomial, Poly


class DiagramError(ValueError):
    """A grid that cannot be traced as a pipe diagram."""


class Tile(Enum):
    """Cell contents: the value, and ``glyph``, is the one-character render
    glyph, and ``sides`` the edges (of W, E, S, N) that the tile's strands
    meet; ``west`` and ``south`` say whether they include W and S."""

    BLANK = ".", ""
    HORIZONTAL = "-", "WE"  # west-east strand
    CROSS = "+", "WESN"  # west-east and south-north strands
    ELBOW_WN = "J", "WN"  # west-to-north arc
    ELBOW_SE = "r", "SE"  # south-to-east arc
    BUMP = "b", "WESN"  # west-to-north plus south-to-east (the strands touch)
    MARKED_SE = "R", "SE"  # south-to-east arc carrying a mark

    glyph: str
    sides: frozenset[str]
    west: bool
    south: bool

    def __new__(cls, glyph: str, sides: str) -> Tile:
        tile = object.__new__(cls)
        tile._value_ = glyph
        # Plain attributes: the tracer and the renderer read them per cell,
        # where hashing an enum member into a table would cost a
        # Python-level __hash__, and ``Tile.value`` an enum descriptor call.
        tile.glyph = glyph
        tile.sides = frozenset(sides)
        tile.west = "W" in sides
        tile.south = "S" in sides
        return tile

    def has(self, side: str) -> bool:
        return side in self.sides


_CHAR_TO_TILE: dict[str, Tile] = {t.glyph: t for t in Tile}


def _tiles(glyphs: str) -> tuple[Tile, ...]:
    """The tiles a string of glyphs names; a ``KeyError`` holds the first
    glyph that names none."""
    return tuple(map(_CHAR_TO_TILE.__getitem__, glyphs))


def _row_text(row: Iterable[Tile]) -> str:
    """The glyphs of one row of tiles: the one reader of a row's text."""
    return "".join([t.glyph for t in row])


# The listings repeat a few rows many times over: the 196,608 rows of the
# 32,768 pipe dreams of S_6 are 63 distinct ones, and every species for
# n <= 6, with the BVPDs of S_7, has 953.  Bounded, so over larger n the
# cache drops the rows least recently built rather than growing without end;
# a dropped row is built again, equal, at its next use.
@lru_cache(maxsize=4096)
def _row(text: str) -> tuple[Tile, ...]:
    """The one tuple of the row whose glyphs are ``text``: every row that
    ``members``, ``Diagram.with_tiles`` and ``Diagram.from_rows`` keep is
    built here, so equal rows are one object across all diagrams and all w."""
    return _tiles(text)


# The tiles that per-cell loops compare against, bound once.  On Python 3.10
# and 3.11 the enum metaclass has a ``__getattr__`` hook, which makes every
# ``Tile.X`` lookup several times dearer than reading a global.
_BLANK, _HORIZONTAL, _CROSS, _ELBOW_WN, _ELBOW_SE, _MARKED_SE = (
    Tile.BLANK,
    Tile.HORIZONTAL,
    Tile.CROSS,
    Tile.ELBOW_WN,
    Tile.ELBOW_SE,
    Tile.MARKED_SE,
)


class Kind(Enum):
    """A diagram species: ``noun`` is its name with its article ("an MVPD";
    the value is the name), ``shortfall`` the columns its grid lacks of n,
    ``staircase`` its tile alphabet on the cells i + j <= n - shortfall,
    ``edge`` its alphabet on the anti-diagonal just past them (blanks
    beyond), and ``weighty`` its weight-bearing tiles, each given by glyphs
    in ``Tile``'s order.  In a BVPD a pipe turns north exactly once more
    than it turns east, so per row the west-north elbows count the entering
    pipe plus its south-east turns; that makes {cross, horizontal,
    west-north elbow} the weight-bearing set there."""

    PD = "a PD", 0, "+b", "J", "+"
    MVPD = "an MVPD", 0, ".-+JrbR", ".J", "-+R"
    BVPD = "a BVPD", 1, ".-+Jr", ".J", "-+J"

    noun: str
    shortfall: int
    staircase: tuple[Tile, ...]
    edge: tuple[Tile, ...]
    weighty: tuple[Tile, ...]

    def __new__(cls, noun: str, shortfall: int, staircase: str, edge: str, weighty: str) -> Kind:
        kind = object.__new__(cls)
        kind._value_ = noun.split()[1]
        # Plain attributes, as on ``Tile``: read per diagram, with no hashing.
        kind.noun = noun
        kind.shortfall = shortfall
        kind.staircase = _tiles(staircase)
        kind.edge = _tiles(edge)
        kind.weighty = _tiles(weighty)
        return kind


def grid_shape(kind: Kind, n: int) -> tuple[int, int]:
    return n, n - kind.shortfall


def allowed_tiles(kind: Kind, n: int, i: int, j: int) -> tuple[Tile, ...]:
    """The tile alphabet at cell (i, j): the species' staircase alphabet on
    the staircase, its edge alphabet on the anti-diagonal, blanks beyond."""
    s = i + j + kind.shortfall
    if s <= n:
        return kind.staircase
    if s == n + 1:
        return kind.edge
    return (_BLANK,)


@dataclass(frozen=True, slots=True)
class Diagram:
    """An immutable rectangular tile grid tagged with its species.  Slotted:
    a listing holds many, and a slotted record has no per-instance dict."""

    kind: Kind
    n: int
    tiles: tuple[tuple[Tile, ...], ...]

    def __post_init__(self) -> None:
        rows, cols = grid_shape(self.kind, self.n)
        # Mapped builtins: the check runs per listed diagram, at C speed.
        if len(self.tiles) != rows or any(map(cols.__ne__, map(len, self.tiles))):
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

    @property
    def entering_rows(self) -> frozenset[int]:
        """Rows at which a pipe enters the left edge."""
        return frozenset(
            i for i, row in enumerate(self.tiles, start=1) if row and row[0].has("W")
        )

    def cells(self) -> Iterator[tuple[int, int, Tile]]:
        for i in range(1, self.rows + 1):
            for j in range(1, self.cols + 1):
                yield i, j, self.tiles[i - 1][j - 1]

    def with_tiles(self, updates: Mapping[tuple[int, int], Tile]) -> Diagram:
        """A copy with the tiles at the given (i, j) cells replaced; only the
        rows holding an update are rebuilt, each through ``_row``, so they are
        the tuples that listed diagrams with the same rows hold."""
        rows: dict[int, list[Tile]] = {}
        for (i, j), t in updates.items():
            if i not in rows:
                rows[i] = list(self.tiles[i - 1])
            rows[i][j - 1] = t
        grid = list(self.tiles)
        for i, row in rows.items():
            grid[i - 1] = _row(_row_text(row))
        return Diagram(self.kind, self.n, tuple(grid))

    def render_text(self) -> str:
        return "\n".join(map(_row_text, self.tiles))

    @classmethod
    def from_rows(cls, kind: Kind, n: int, rows: Iterable[str]) -> Diagram:
        """The one reader of a diagram from outside: one string of glyphs per
        row, checked for its shape and by ``validate``, else a
        ``DiagramError``."""
        grid: list[tuple[Tile, ...]] = []
        for line in rows:
            try:
                grid.append(_row(line))
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
            "rows": list(map(_row_text, self.tiles)),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> Diagram:
        missing = [repr(key) for key in ("kind", "n", "rows") if key not in data]
        if missing:
            raise DiagramError("missing key(s) " + ", ".join(missing))
        kind, n, rows = data["kind"], data["n"], data["rows"]
        ok = isinstance(kind, str) and type(n) is int and n >= 1 and isinstance(rows, list)
        if not ok or not all(isinstance(r, str) for r in rows):
            raise DiagramError("expected a string kind, an integer n >= 1 and a list of string rows")
        return cls.from_rows(Kind(kind), n, rows)


# The labels of one traced cell: (west in, south in, north out, east out),
# 0 where no pipe runs.
CellLabels = tuple[int, int, int, int]


@dataclass(frozen=True)
class TraceResult:
    """Everything the tracer learns about a diagram in one pass; the cell
    queries read ``cells`` and ``lowest_horizontal``."""

    code: tuple[int, ...]  # entry c: the label leaving column c's top edge, 0 if none
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
    if t is _HORIZONTAL:
        return 0, w_in
    if t is _ELBOW_WN:
        return w_in, 0
    if t is _ELBOW_SE or t is _MARKED_SE:
        return 0, s_in
    if t is _CROSS:
        pair = frozenset((w_in, s_in))
        if pair not in crossed:
            crossed.add(pair)
            return s_in, w_in
    return w_in, s_in  # a bump, a bouncing cross, or a blank (0, 0)


_NO_PIPE: CellLabels = (0, 0, 0, 0)


def trace(d: Diagram) -> TraceResult:
    """Propagate pipe labels cell by cell, bottom-to-top, left-to-right,
    through ``_exits``.

    Each cell's labels are keyed into ``cells`` as the sweep reaches it, so
    its keys run in the sweep's order.  A blank that no pipe reaches is
    consistent and routes nothing, so it is labelled without a call."""
    rows, cols = d.rows, d.cols
    south = [0] * (cols + 1)  # label heading north out of the row below, per column
    cells: dict[tuple[int, int], CellLabels] = {}
    lowest: dict[int, int] = {}
    crossed: set[frozenset[int]] = set()
    for i in range(rows, 0, -1):
        row = d.tiles[i - 1]
        # The pipe entering the row is read off its first tile, as in
        # ``entering_rows`` (an n = 1 BVPD has empty rows).
        west = i if row and row[0].west else 0
        for j, t in enumerate(row, start=1):
            s_in = south[j]
            if t is _BLANK and not (west or s_in):
                cells[i, j] = _NO_PIPE
                continue
            if (not west) == t.west:
                raise DiagramError(f"({i},{j - 1})-({i},{j}): east/west edges disagree")
            if (not s_in) == t.south:
                if i == rows:
                    raise DiagramError(f"({i},{j}): south connection leaves the grid")
                raise DiagramError(f"({i},{j})-({i + 1},{j}): south/north edges disagree")
            n_out, e_out = _exits(t, west, s_in, crossed)
            cells[i, j] = (west, s_in, n_out, e_out)
            if t is _HORIZONTAL:
                # The sweep runs bottom-up, so the first horizontal met is the lowest.
                lowest.setdefault(west, i)
            south[j] = n_out
            west = e_out
        if west:
            raise DiagramError(f"({i},{cols}): east connection leaves the grid")
    return TraceResult(
        code=tuple(south[1:]),
        crossed_pairs=frozenset(crossed),
        cells=cells,
        lowest_horizontal=lowest,
    )


def validate(d: Diagram) -> list[str]:
    """Invariant violations of the diagram's species (empty list = valid):
    every tile outside its alphabet and the first edge problem the tracer
    meets; when there are neither, every misplaced mark."""
    return _checked_trace(d)[0]


@lru_cache(maxsize=None)
def _alphabets(kind: Kind, n: int) -> tuple[tuple[Tile, ...], ...]:
    """``allowed_tiles`` of every cell in row-major order: it depends on
    the species and the size alone."""
    rows, cols = grid_shape(kind, n)
    return tuple(
        allowed_tiles(kind, n, i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)
    )


def _checked_trace(d: Diagram) -> tuple[list[str], TraceResult | None]:
    """``validate``'s problems together with the trace they were read from
    (``None`` when the tracer refused the grid)."""
    alphabets = _alphabets(d.kind, d.n)
    out = []
    # ``operator.contains`` is a builtin: mapped over the cells, it runs
    # about twice as fast as the ``tuple.__contains__`` method descriptor.
    if not all(map(contains, alphabets, chain.from_iterable(d.tiles))):
        out = [
            f"({i},{j}): {t.value!r} not allowed in {d.kind.noun} there"
            for (i, j, t), allowed in zip(d.cells(), alphabets)
            if t not in allowed
        ]
    try:
        tr = trace(d)
    except DiagramError as exc:
        return out + [str(exc)], None
    # Past the alphabet and the edges: every marked elbow whose pipe has no
    # horizontal tile in any lower row.
    return out or [
        f"({i},{j}): mark on pipe {tr.cells[(i, j)][1]} with no lower horizontal"
        for i, row in enumerate(d.tiles, start=1)
        if _MARKED_SE in row
        for j, t in enumerate(row, start=1)
        if t is _MARKED_SE and not tr.markable(i, j)
    ], tr


def sort_key(d: Diagram) -> str:
    """Canonical ordering key for sets of diagrams: the rendered text, which
    ``members`` joins from the texts it reads once per finished row, the
    keys under which ``_row`` shares that row."""
    return d.render_text()


# Every diagram one call checks reads the same code.  Keyed by value, not
# held per Perm object, and bounded: a sweep moves on from each w.
@lru_cache(maxsize=16)
def code_of(kind: Kind, w: Perm) -> tuple[int, ...]:
    """The code every diagram of w in the species reads off its top edge:
    w's inverse for PDs, its column code for MVPDs, and its reduced column
    code for BVPDs (a ``ValueError`` unless w is inverse fireworks)."""
    if kind is Kind.PD:
        return w.inverse.letters
    if kind is Kind.MVPD:
        return w.column_code()
    return w.reduced_column_code()


def member_trace(d: Diagram, w: Perm) -> TraceResult | None:
    """The checked trace of d if d is a diagram of w in its species, else
    ``None``: the one membership test, a valid grid whose traced code is
    ``code_of(d.kind, w)``."""
    if d.n != w.n:
        return None
    problems, tr = _checked_trace(d)
    ok = not problems and tr.code == code_of(d.kind, w)
    return tr if ok else None


def require_kind(d: Diagram, kind: Kind) -> None:
    """Refuse a diagram of another species."""
    if d.kind is not kind:
        raise ValueError(f"expected {kind.noun}, got {d.kind.value}")


def require_member(d: Diagram, kind: Kind, w: Perm) -> TraceResult:
    """d's checked trace, refusing a diagram of another species or not of w."""
    require_kind(d, kind)
    tr = member_trace(d, w)
    if tr is None:
        raise ValueError(f"diagram does not belong to {w.letters}")
    return tr


# The fill recurses once per cell of its plan: n(n + 1)/2 cells for a pipe
# dream or an MVPD of size n (406 at n = 28), n(n - 1)/2 + 1 for a BVPD (379).
# At 28 that leaves over half of Python's default limit of 1000 frames to the
# frames of the caller (a test runner's, say).
MAX_FILL_N = 28

# The most diagrams one fill lists.  It bounds the count and the memory of a
# listing, and the time of a pipe-dream fill, which enters no dead branch;
# not the time of an MVPD or BVPD fill, which still enters some.
MAX_LISTED = 100_000


@lru_cache(maxsize=None)
def _fill_plan(kind: Kind, n: int) -> tuple[tuple[int, int, tuple], ...]:
    """``members``' cells in the tracer's order, each as (i, j, opts) with
    its alphabet in four slots, opts[takes a west pipe][takes a south pipe],
    each slot in ``Tile``'s order, so an unmarked elbow comes before a
    marked one.

    A cell past the anti-diagonal is left out unless it opens its row: its
    alphabet is a blank, and no pipe reaches it, since the edge tiles send
    none east and the cells below it are blanks too.  A row's first cell is
    kept, so the row below still freezes there and a pipe entering it is
    still refused.  Read off ``allowed_tiles``, the plan is a function of the
    species and the size alone."""
    rows, cols = grid_shape(kind, n)
    plan = []
    for i in range(rows, 0, -1):
        for j in range(1, cols + 1):
            alphabet = allowed_tiles(kind, n, i, j)
            if j > 1 and alphabet == (_BLANK,):
                continue
            opts: tuple[tuple[list[Tile], ...], ...] = (([], []), ([], []))
            for t in alphabet:
                opts[t.west][t.south].append(t)
            plan.append((i, j, tuple(tuple(map(tuple, by_s)) for by_s in opts)))
    return tuple(plan)


def _fill(kind: Kind, w: Perm, leaf: Callable[[list[tuple[Tile, ...]]], None]) -> None:
    """Backtrack every diagram of w in the species, marks included, exactly
    the grids that ``member_trace`` accepts, and call ``leaf`` at each complete
    filling with its rows, top to bottom, as tuples.  The list is the fill's
    own and holds the filling during the call only; a leaf may swap a row
    for an equal tuple, which the fill keeps until it refreezes that row.

    Cells are filled in ``trace``'s order (bottom to top, left to right), so
    each cell's west and south labels are known when its tile is picked, and
    ``_exits`` routes them as the tracer would.  Pipes move only north and
    east, so a tile is dead when it sends a label r east out of column j with
    t(r) < j + 1, or north with t(r) < j, where t(r) is the column at which r
    must leave the top edge; in row 1 the north label must be the code entry.
    A real crossing is dead when t(south label) > t(west label): after it
    the west pipe runs east of the south one, and the pair can never cross
    back, since ``_exits`` bounces a pair that has crossed.  Every complete
    filling therefore reads w's code, with no trace after.  On a pipe dream
    these rules leave no dead branch (none on S_1 to S_6); the MVPD and BVPD
    fills still enter some.

    A marked elbow is one more option of its cell, routed as an unmarked
    one and tried after it.  It is dead unless its pipe owns a horizontal:
    the pipe enters from the south, so every horizontal placed on it so far
    lies lower (``markable``'s rule).  Each horizontal is counted on its
    pipe where it is placed.  Each finished row is frozen into a tuple as
    the sweep moves above it, and row 1 at each leaf.

    The plan, ``_fill_plan(kind, n)``, is the cells alone: it holds nothing
    of w and skips the cells past the anti-diagonal that no pipe reaches.
    Which pipes enter, where they must leave, which pairs have crossed and
    which pipes own a horizontal are this call's own state.  Raises
    ``ValueError`` above ``MAX_FILL_N`` and before the leaf of filling
    ``MAX_LISTED`` + 1, so every fold refuses where the listing does."""
    code = code_of(kind, w)
    if w.n > MAX_FILL_N:
        raise ValueError(f"n={w.n} above the fill's depth bound {MAX_FILL_N}")
    rows, cols = grid_shape(kind, w.n)
    plan = _fill_plan(kind, w.n)
    last = len(plan)
    entering = {r for r in code if r}
    exit_col = [0] * (w.n + 1)  # exit_col[r]: the column at which label r leaves the top
    for c, r in enumerate(code, start=1):
        if r:
            exit_col[r] = c
    top = (0,) + code  # top[j]: the label leaving column j's top edge
    grid = [[_BLANK] * cols for _ in range(rows)]
    done: list[tuple[Tile, ...]] = [()] * rows  # done[i - 1]: row i, once finished
    south = [0] * (cols + 1)  # label heading north out of the row below, per column
    owned = [0] * (w.n + 1)  # owned[r]: horizontals placed on pipe r
    crossed: set[frozenset[int]] = set()
    listed = 0

    def finish() -> None:
        nonlocal listed
        listed += 1
        if listed > MAX_LISTED:
            raise ValueError(f"{w.letters}: more than {MAX_LISTED} {kind.value} diagrams")
        done[0] = tuple(grid[0])
        leaf(done)

    # ``fill`` recurses once per cell, so it keeps few locals and free
    # variables, and leaves the work at a leaf to ``finish``: on CPython
    # 3.11 a deep recursion whose frames cross a data-stack chunk maps and
    # frees that chunk at each crossing.
    def fill(k: int, west: int) -> None:
        if k == last:
            return finish()
        i, j, opts = plan[k]
        if j == 1:
            west = i if i in entering else 0
            if i < rows:
                done[i] = tuple(grid[i])
        s_in = south[j]
        for t in opts[west > 0][s_in > 0]:
            n_out, e_out = _exits(t, west, s_in, crossed)
            if (
                not (e_out and exit_col[e_out] <= j)
                and not (n_out and exit_col[n_out] < j)
                and (i > 1 or n_out == top[j])
                and not (t is _CROSS and n_out == s_in and exit_col[s_in] > exit_col[west])
                and not (t is _MARKED_SE and not owned[s_in])
            ):
                grid[i - 1][j - 1] = t
                south[j] = n_out
                if t is _HORIZONTAL:
                    owned[west] += 1
                    fill(k + 1, e_out)
                    owned[west] -= 1
                else:
                    fill(k + 1, e_out)
            if t is _CROSS and n_out == s_in:  # this tile crossed its pair
                crossed.discard(frozenset((west, s_in)))
        south[j] = s_in

    fill(0, 0)


def members(kind: Kind, w: Perm) -> tuple[Diagram, ...]:
    """The diagrams of w in the species, marks included, in canonical order:
    the list fold of ``_fill``.  At each leaf, every row refrozen since the
    last has its text read once, and is swapped for ``_row``'s tuple of that
    text, which every diagram with that row holds, of any species and any w;
    the texts join into the diagram's ``sort_key``.  Raises as ``_fill``
    does: above ``MAX_FILL_N`` and past ``MAX_LISTED`` diagrams."""
    rows = grid_shape(kind, w.n)[0]
    # A row refrozen since the last leaf is a new tuple, and the rows below
    # a row that was not refrozen were not.
    found: dict[str, Diagram] = {}  # each diagram under its ``sort_key``
    read: list[tuple[Tile, ...]] = [()] * rows  # read[r]: the row whose text is texts[r]
    texts = [""] * rows

    def emit(done: list[tuple[Tile, ...]]) -> None:
        for r, row in enumerate(done):
            if row is read[r]:
                break
            texts[r] = _row_text(row)
            done[r] = read[r] = _row(texts[r])
        found["\n".join(texts)] = Diagram(kind, w.n, tuple(done))

    _fill(kind, w, emit)
    return tuple(map(found.__getitem__, sorted(found)))


def weight_counts(kind: Kind, w: Perm) -> dict[tuple[int, ...], int]:
    """The weight fold of ``_fill``: each weight of w's diagrams in the
    species, as its row counts of weighty tiles (``weight(d).x``), with the
    number of diagrams of that weight.  It sums over exactly the fillings
    that ``members`` lists, reading each finished grid, and builds no
    ``Diagram``.  Raises as ``members`` does."""
    counts: dict[tuple[int, ...], int] = {}

    def tally(done: list[tuple[Tile, ...]]) -> None:
        x = _weighty_per_row(kind, done)
        counts[x] = counts.get(x, 0) + 1

    _fill(kind, w, tally)
    return counts


def weighty_cells(d: Diagram) -> frozenset[tuple[int, int]]:
    """Positions of the weight-bearing tiles of the diagram's species."""
    weighty = d.kind.weighty
    return frozenset(
        (i, j)
        for i, row in enumerate(d.tiles, start=1)
        for j, t in enumerate(row, start=1)
        if t in weighty
    )


def _weighty_per_row(kind: Kind, rows: Iterable[tuple[Tile, ...]]) -> tuple[int, ...]:
    """The count of the species' weight-bearing tiles in each row: the x
    exponents of a weight, read by ``weight`` and ``weight_counts`` alike."""
    weighty = kind.weighty.__contains__
    return tuple([sum(map(weighty, row)) for row in rows])


def weight(d: Diagram) -> Monomial:
    """Row-product monomial of the weight-bearing tiles, counted row by row;
    its ``degree`` is the diagram's weighty-tile count."""
    return Monomial(_weighty_per_row(d.kind, d.tiles), (0,) * d.n)


def signed_single_sum(w: Perm, counts: Mapping[tuple[int, ...], int]) -> Poly:
    """The signed single-variable sum of w's diagrams from their weight
    counts ({row counts: diagrams}, as ``weight_counts`` folds them): each
    weight x^counts times its count, signed (-1)^(k - inversions(w)), where
    k, the sum of the counts, is the weighty-tile count of its diagrams."""
    ell = w.inversions()
    y = (0,) * w.n
    return Poly(w.n, {Monomial(x, y): -c if (sum(x) - ell) % 2 else c for x, c in counts.items()})


# The double sums of one size share their monomials: the 306,792 terms of
# both double polynomials of every w of S_5 are 14,400 distinct monomials.
# ``_double`` is the one state of the double sums: the size of the last one,
# a table of that size's monomials keyed by packed exponent int (see
# ``_expand_double``), and the last sum's grouping with a weak reference to
# its polynomial, since both routes of one w group alike.  A sum of another
# size starts a fresh state.  The table never passes ``MAX_MONOMIALS``
# entries: a sum whose monomials would take it past keeps them to itself.
MAX_MONOMIALS = 32_768
_double: tuple[int, dict[int, Monomial], dict[tuple, int], weakref.ref[Poly]] | None = None


def signed_groups(w: Perm, ds: Iterable[Diagram]) -> dict[tuple, int]:
    """The one grouping of a double sum: each diagram's sign, as in
    ``signed_weight_sum``, summed per key, its column-major weighty cells.
    Equal groupings give equal sums.  Raises ``ValueError`` at the first
    diagram of another size."""
    ell = w.inversions()
    groups: dict[tuple, int] = {}
    for d in ds:
        if d.n != w.n:
            raise ValueError(f"a diagram of size {d.n} in the weight sum of a size-{w.n} w")
        key = tuple(sorted((j, i) for i, j in weighty_cells(d)))
        groups[key] = groups.get(key, 0) + (-1 if (len(key) - ell) % 2 else 1)
    return groups


def signed_weight_sum(w: Perm, ds: Iterable[Diagram]) -> Poly:
    """The double sum: (-1)^(k - inversions(w)) times the double weight of
    each diagram, where k counts its weighty tiles, and the double weight is
    the product of x_i + y_j - x_i*y_j over the weighty cells (i, j).

    This is the one place a double weight is expanded.  A grouping of
    ``signed_groups`` equal to the last one's, of the same size, returns the
    last polynomial while a caller still holds it, and any other goes to
    ``_expand_double`` with the table of its size.  Raises ``ValueError``
    for a diagram of another size."""
    global _double
    groups = signed_groups(w, ds)
    n, table, last, ref = _double if _double and _double[0] == w.n else (w.n, {}, None, None)
    p = ref and ref()
    if p is None or last != groups:
        p = _expand_double(n, groups, table)
        _double = (n, table, groups, weakref.ref(p))
    return p


def _expand_double(n: int, groups: Mapping[tuple, int], table: dict[int, Monomial]) -> Poly:
    """The double sum of a grouping, by Horner's rule across its groups, so a
    prefix of weighty cells that groups share is expanded once.  Its
    monomials come from ``table``, which takes the ones it lacks unless they
    would take it past ``MAX_MONOMIALS`` entries; then the sum decodes all
    its monomials into a table of its own, dropped with the call."""
    # A term is one int with a field of `width` bits per variable, x_1..x_n
    # then y_1..y_n.  An exponent counts the weighty cells of one row or one
    # column, so it is at most n < 2**width and never spills.  Each group's
    # expansion waits under its last cell; taking cells in decreasing order,
    # a group is multiplied by its last cell's factor and merged into the
    # group of its prefix, whose last cell comes later.
    width = n.bit_length()
    by_last: dict[tuple[int, int] | None, dict[tuple, dict[int, int]]] = {}
    for cells, sign in groups.items():
        by_last.setdefault(cells[-1] if cells else None, {})[cells] = {0: sign}
    for j in range(n, 0, -1):
        for i in range(n, 0, -1):
            xb = 1 << width * (i - 1)
            yb = 1 << width * (n + j - 1)
            xyb = xb + yb
            for cells, terms in by_last.pop((j, i), {}).items():
                prefix = cells[:-1]
                last = prefix[-1] if prefix else None
                into = by_last.setdefault(last, {}).setdefault(prefix, {})
                get = into.get
                for e, c in terms.items():
                    if c:
                        into[e + xb] = get(e + xb, 0) + c
                        into[e + yb] = get(e + yb, 0) + c
                        into[e + xyb] = get(e + xyb, 0) - c
    acc = by_last.get(None, {}).get((), {})

    # Only the keys the table lacks are decoded; ``set(acc).difference``
    # costs the size of ``acc``, where ``acc.keys() - table.keys()`` would
    # walk the whole table.
    fresh = set(acc).difference(table)
    if len(table) + len(fresh) > MAX_MONOMIALS:
        table, fresh = {}, acc
    field = (1 << width) - 1
    half = width * n
    xmask = (1 << half) - 1
    halves = {e & xmask for e in fresh} | {e >> half for e in fresh}
    exps = {h: tuple(h >> width * k & field for k in range(n)) for h in halves}
    # ``tuple.__new__`` builds each key without the Python-level ``__new__``
    # of the NamedTuple.
    new = tuple.__new__
    # Stored one by one: ``update`` from a comprehension would build a second
    # dict as large as ``fresh``.
    for e in fresh:
        table[e] = new(Monomial, (exps[e & xmask], exps[e >> half]))
    # ``Poly`` drops the zero terms.
    return Poly(n, dict(zip(map(table.__getitem__, acc), acc.values())))
