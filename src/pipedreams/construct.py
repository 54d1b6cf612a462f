"""Droop rewrites and the weight-raising constructor behind the conj13 check.

A droop site is a south-east strand whose column can be shifted one step
right: the vertical run of crosses below it slides from column j to j+1,
the west-north elbow at its foot flattens to a horizontal, and the landing
cell in column j+1 absorbs the turn.  Repeating the marked variant of this
move, interleaved with single-tile upgrades, until one weighty tile is
gained raises the weight of any non-maximal diagram of an inverse
fireworks permutation by exactly one x variable.  Each move is a
``Step``, and ``Step.apply`` is the one place a move is written and checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    TraceResult,
    member_trace,
    require_kind,
    require_member,
    trace,
    weight,
)
from .mvpd import is_top
from .permutations import Perm


def locate_droop_site(d: Diagram, i: int, j: int) -> int:
    """Check the droop preconditions at (i, j) and return the foot row.
    Only a cross site is traced: its labels tell a fake crossing."""
    require_kind(d, Kind.MVPD)
    t = d.tile(i, j)
    if t is Tile.CROSS:
        w_in, _, n_out, _ = trace(d).cells[(i, j)]
        if n_out != w_in:
            raise DiagramError(f"({i},{j}): real crossing has no south-east strand")
    elif t not in (Tile.ELBOW_SE, Tile.MARKED_SE, Tile.BUMP):
        raise DiagramError(f"({i},{j}): {t.value!r} has no south-east strand")
    return _foot(d, i, j)


def _foot(d: Diagram, i: int, j: int) -> int:
    """Check the droop preconditions beside and below (i, j); return the foot row."""
    if j + 1 > d.cols or d.tile(i, j + 1) is not Tile.HORIZONTAL:
        raise DiagramError(f"({i},{j + 1}): droop needs a horizontal on the right")
    i_prime = i + 1
    while i_prime <= d.rows and d.tile(i_prime, j) is Tile.CROSS:
        i_prime += 1
    if i_prime > d.rows or d.tile(i_prime, j) is not Tile.ELBOW_WN:
        raise DiagramError(f"({i_prime},{j}): droop needs a west-north elbow at the foot")
    # The two neighbour refusals below fire on no grid the tracer accepts:
    # ``locate_droop_site`` at every cell of 34,426 such MVPD grids (every
    # edge-consistent filling for n <= 4, every MVPD of S_5 and S_6) raised
    # neither.  They stay so that an unchecked grid gets a named refusal,
    # not a KeyError from ``_LANDING``.
    for r in range(i + 1, i_prime):
        if d.tile(r, j + 1) is not Tile.HORIZONTAL:
            raise DiagramError(f"({r},{j + 1}): expected a horizontal beside the run")
    if d.tile(i_prime, j + 1) not in (Tile.BLANK, Tile.ELBOW_SE, Tile.MARKED_SE):
        raise DiagramError(f"({i_prime},{j + 1}): unexpected landing tile")
    return i_prime


# The strand leaving (i, j) east is removed; whatever else the tile carried
# stays put, which forces the rewrite of the vacated cell.
_VACATED = {
    Tile.ELBOW_SE: Tile.BLANK,
    Tile.MARKED_SE: Tile.BLANK,
    Tile.BUMP: Tile.ELBOW_WN,
    Tile.CROSS: Tile.ELBOW_WN,  # only fake crossings qualify as sites
}

_LANDING = {
    Tile.BLANK: Tile.ELBOW_WN,
    Tile.ELBOW_SE: Tile.BUMP,
    Tile.MARKED_SE: Tile.BUMP,  # the mark dies with the elbow
}


def droop_prime(d: Diagram, i: int, j: int) -> dict[tuple[int, int], Tile]:
    """The tiles a marked droop at (i, j) writes: the run below (i, j) shifts
    one column right and the fresh elbow at (i, j + 1) is marked.  With foot
    row f, the weighty cells W become (W - {(i, j), (f, j + 1)}) | {(f, j)}.
    ``Step.apply`` checks the result."""
    foot = locate_droop_site(d, i, j)
    updates: dict[tuple[int, int], Tile] = {
        (i, j): _VACATED[d.tile(i, j)],
        (i, j + 1): Tile.MARKED_SE,
        (foot, j): Tile.HORIZONTAL,
        (foot, j + 1): _LANDING[d.tile(foot, j + 1)],
    }
    for r in range(i + 1, foot):
        updates[(r, j)] = Tile.HORIZONTAL
        updates[(r, j + 1)] = Tile.CROSS
    return updates


def find_pattern(d: Diagram, tr: TraceResult, w: Perm) -> tuple[int, int]:
    """The droop site of a diagram with no upgrade, given its trace: the
    lowest, then rightmost, bump-or-elbow with a horizontal on its right;
    failing that, the lowest, then rightmost, such fake cross.  Fake crosses
    come last: taken first, they break diagrams that a bump or elbow site
    raises.  Such a fake cross passes the droop preconditions: the edges
    force horizontals beside its run of crosses, so its foot can only fail
    on a bump, which has a horizontal on its right and is taken first."""
    rows, cols = range(d.rows, 0, -1), range(d.cols - 1, 0, -1)
    sites = [(i, j) for i in rows for j in cols if d.tile(i, j + 1) is Tile.HORIZONTAL]
    for i, j in sites:
        if d.tile(i, j) in (Tile.BUMP, Tile.ELBOW_SE):
            return i, j
    for i, j in sites:
        w_in, _, n_out, _ = tr.cells[(i, j)]
        if d.tile(i, j) is Tile.CROSS and n_out == w_in:
            return i, j
    raise DiagramError(
        "no droop pattern in a saturated non-maximal diagram "
        f"of {w.letters}: falsifying witness\n{d.render_text()}"
    )


# Each single-tile step: the tile it rewrites and the tile it writes.
_UPGRADES = {
    "mark": (Tile.ELBOW_SE, Tile.MARKED_SE),
    "bump_to_cross": (Tile.BUMP, Tile.CROSS),
}


@dataclass(frozen=True, slots=True)
class Step:
    op: str  # "mark" | "bump_to_cross" | "droop_prime"
    cell: tuple[int, int]

    def apply(self, d: Diagram, w: Perm) -> Diagram:
        """The diagram this step rewrites d into: the one place a step is
        written and checked.  Raises ``DiagramError`` for an op it does not
        know, or unless the result is a diagram of w."""
        return self._apply(d, w)[0]

    def _apply(self, d: Diagram, w: Perm) -> tuple[Diagram, TraceResult]:
        """``apply``, returning the output together with its checked trace."""
        i, j = self.cell
        if self.op == "droop_prime":
            updates = droop_prime(d, i, j)
        elif self.op in _UPGRADES:
            old, new = _UPGRADES[self.op]
            if d.tile(i, j) is not old:
                raise DiagramError(f"({i},{j}): {self.op} rewrites {old.value!r} tiles only")
            updates = {self.cell: new}
        else:
            raise DiagramError(f"unknown step op {self.op!r}")
        out = d.with_tiles(updates)
        out_tr = member_trace(out, w)
        if out_tr is None:
            raise DiagramError(f"{self.op} at ({i},{j}) left the diagram set of {w.letters}")
        return out, out_tr

    def to_json(self) -> dict:
        return {"op": self.op, "cell": list(self.cell)}


def find_upgrade(d: Diagram, tr: TraceResult, w: Perm) -> tuple[Step, Diagram, TraceResult] | None:
    """Given d's trace, the first single-tile weight +1 step (row-major scan)
    that keeps the diagram in w's set, with its output and the output's
    checked trace: mark an elbow whose pipe has a lower horizontal, or turn
    a bump whose pipes really cross elsewhere into a cross."""
    for i, row in enumerate(d.tiles, start=1):
        for j, t in enumerate(row, start=1):
            if t is Tile.ELBOW_SE and tr.markable(i, j):
                step = Step("mark", (i, j))
            elif t is Tile.BUMP and tr.pipe_at(i, j) in tr.crossed_pairs:
                step = Step("bump_to_cross", (i, j))
            else:
                continue
            try:
                return (step, *step._apply(d, w))
            except DiagramError:
                continue
    return None


@dataclass(frozen=True, slots=True)
class Certificate:
    """One verified weight-raising rewrite chain."""

    w: Perm
    input: Diagram
    steps: tuple[Step, ...]
    output: Diagram
    gained_row: int

    def to_json(self) -> dict:
        return {
            "w": self.w.to_json(),
            "input": self.input.to_json(),
            "steps": [s.to_json() for s in self.steps],
            "output": self.output.to_json(),
            "gained_row": self.gained_row,
        }


def construct_up(d: Diagram, w: Perm) -> Certificate:
    """Produce a member whose weight is the input's times one x variable.

    Take the first upgrade, else a marked droop at ``find_pattern``'s site,
    until the diagram holds one weighty tile more than the input; a droop may
    lower the count first (see ``droop_prime``).  Each step is a function of
    the diagram and w's set is finite, so a chain that never stops revisits
    a diagram, which raises ``DiagramError``."""
    w.require_inverse_fireworks()
    tr = require_member(d, Kind.MVPD, w)
    if is_top(d, w):
        raise ValueError("input diagram already has maximal weight")
    chain, steps = [d], []
    start = got = weight(d)
    while got.degree <= start.degree:
        # tr is d's checked trace: the input's, then each step output's.
        upgrade = find_upgrade(d, tr, w)
        if upgrade is None:
            step = Step("droop_prime", find_pattern(d, tr, w))
            d, tr = step._apply(d, w)
        else:
            step, d, tr = upgrade
        if d in chain:
            raise DiagramError(f"{step} revisits a diagram of its chain")
        chain.append(d)
        steps.append(step)
        got = weight(d)
    return _finish(w, chain, steps, start, got)


def _finish(w, chain, steps, want, got) -> Certificate:
    """Certify a checked chain once its weight ``got`` is ``want`` times x_i."""
    row = next(i for i, (a, b) in enumerate(zip(want.x, got.x), start=1) if b > a)
    if want.times_x(row) != got:
        raise DiagramError(f"constructed weight {got.text()} is not the input weight times x{row}")
    return Certificate(w, chain[0], tuple(steps), chain[-1], row)
