"""Droop rewrites and the weight-raising constructor for support checks.

A droop site is a south-east strand whose column can be shifted one step
right: the vertical run of crosses below it slides from column j to j+1,
the west-north elbow at its foot flattens to a horizontal, and the landing
cell in column j+1 absorbs the turn.  Repeating the marked variant of this
move, interleaved with single-tile upgrades, raises the weight of any
non-maximal diagram of an inverse fireworks permutation by exactly one
x variable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagrams import Diagram, DiagramError, Kind, Tile, is_member, trace, weight, weighty_cells
from .mvpd import find_upgrade, is_top, mvpd_set
from .permutations import Perm
from .pipedream import grothendieck, max_cross_count


@dataclass(frozen=True)
class DroopSite:
    """A validated droop location: the turning cell and the elbow below it."""

    i: int
    j: int
    i_prime: int


def locate_droop_site(d: Diagram, i: int, j: int) -> DroopSite:
    """Check the droop preconditions at (i, j) and find the foot row."""
    if d.kind is not Kind.MVPD:
        raise ValueError(f"expected an MVPD, got {d.kind.value}")
    t = d.tile(i, j)
    if t in (Tile.ELBOW_SE, Tile.MARKED_SE, Tile.BUMP):
        pass
    elif t is Tile.CROSS:
        w_in, _, n_out, _ = trace(d).cells[(i, j)]
        if n_out != w_in:
            raise DiagramError(f"({i},{j}): real crossing has no south-east strand")
    else:
        raise DiagramError(f"({i},{j}): {t.value!r} has no south-east strand")
    if j + 1 > d.cols or d.tile(i, j + 1) is not Tile.HORIZONTAL:
        raise DiagramError(f"({i},{j + 1}): droop needs a horizontal on the right")
    i_prime = i + 1
    while i_prime <= d.rows and d.tile(i_prime, j) is Tile.CROSS:
        i_prime += 1
    if i_prime > d.rows or d.tile(i_prime, j) is not Tile.ELBOW_WN:
        raise DiagramError(f"({i_prime},{j}): droop needs a west-north elbow at the foot")
    for r in range(i + 1, i_prime):
        if d.tile(r, j + 1) is not Tile.HORIZONTAL:
            raise DiagramError(f"({r},{j + 1}): expected a horizontal beside the run")
    if d.tile(i_prime, j + 1) not in (Tile.BLANK, Tile.ELBOW_SE, Tile.MARKED_SE):
        raise DiagramError(f"({i_prime},{j + 1}): unexpected landing tile")
    return DroopSite(i, j, i_prime)


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


def droop(d: Diagram, i: int, j: int, w: Perm) -> Diagram:
    """Shift the vertical run below (i, j) one column right."""
    site = locate_droop_site(d, i, j)
    updates: dict[tuple[int, int], Tile] = {
        (i, j): _VACATED[d.tile(i, j)],
        (i, j + 1): Tile.ELBOW_SE,
        (site.i_prime, j): Tile.HORIZONTAL,
        (site.i_prime, j + 1): _LANDING[d.tile(site.i_prime, j + 1)],
    }
    for r in range(i + 1, site.i_prime):
        updates[(r, j)] = Tile.HORIZONTAL
        updates[(r, j + 1)] = Tile.CROSS
    out = d.with_tiles(updates)
    if not is_member(out, w):
        raise DiagramError(f"droop at ({i},{j}) left the diagram set of {w.letters}")
    return out


def droop_prime(d: Diagram, i: int, j: int, w: Perm) -> Diagram:
    """Droop, then mark the fresh elbow (its pipe now owns the flattened
    foot horizontal, which sits in a lower row)."""
    out = droop(d, i, j, w).with_tiles({(i, j + 1): Tile.MARKED_SE})
    if not is_member(out, w):
        raise DiagramError(f"droop mark at ({i},{j + 1}) is invalid")
    return out


def find_pattern(d: Diagram, w: Perm) -> tuple[int, int]:
    """The lowest, then rightmost, bump-or-elbow with a horizontal on its
    right; guaranteed to exist in a saturated non-maximal diagram."""
    for i in range(d.rows, 0, -1):
        for j in range(d.cols - 1, 0, -1):
            if d.tile(i, j) in (Tile.BUMP, Tile.ELBOW_SE) and d.tile(
                i, j + 1
            ) is Tile.HORIZONTAL:
                return i, j
    raise DiagramError(
        "no droop pattern in a saturated non-maximal diagram "
        f"of {w.letters}: falsifying witness\n{d.render_text()}"
    )


# The tile each single-tile step writes into its cell.
_STEP_TILE = {"mark": Tile.MARKED_SE, "bump_to_cross": Tile.CROSS}


@dataclass(frozen=True)
class Step:
    op: str  # "mark" | "bump_to_cross" | "droop_prime"
    cell: tuple[int, int]

    def apply(self, d: Diagram, w: Perm) -> Diagram:
        """The diagram this step rewrites d into."""
        if self.op == "droop_prime":
            return droop_prime(d, *self.cell, w)
        return d.with_tiles({self.cell: _STEP_TILE[self.op]})

    def to_json(self) -> dict:
        return {"op": self.op, "cell": list(self.cell)}


@dataclass(frozen=True)
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

    Upgrades are tried first; otherwise the droop pattern is drooped with a
    mark.  A droop either gains the foot row or slides one weighty tile a
    column left, so the column sum of the weighty cells bounds the loop.
    """
    if not w.is_inverse_fireworks():
        raise ValueError(f"{w.letters}: not inverse fireworks")
    if d.kind is not Kind.MVPD:
        raise ValueError(f"expected an MVPD, got {d.kind.value}")
    if not is_member(d, w):
        raise ValueError("input diagram is not in the stated set")
    if is_top(d, w):
        raise ValueError("input diagram already has maximal weight")
    start = d
    steps: list[Step] = []
    budget = sum(j for _, j in weighty_cells(d))
    while True:
        upgrade = find_upgrade(d, w)
        if upgrade is not None:
            (i, j), tile = upgrade
            step = Step("mark" if tile is Tile.MARKED_SE else "bump_to_cross", (i, j))
            steps.append(step)
            return _finish(w, start, steps, step.apply(d, w), gained_row=i)
        i, j = find_pattern(d, w)
        site = locate_droop_site(d, i, j)
        before = weighty_cells(d)
        step = Step("droop_prime", (i, j))
        nxt = step.apply(d, w)
        after = weighty_cells(nxt)
        steps.append(step)
        foot = (site.i_prime, j)
        landing = (site.i_prime, j + 1)
        if len(after) == len(before) + 1:
            if after != before | {foot}:
                raise DiagramError(f"droop ledger broken at ({i},{j})")
            return _finish(w, start, steps, nxt, gained_row=site.i_prime)
        if after != (before - {landing}) | {foot} or landing not in before:
            raise DiagramError(f"droop ledger broken at ({i},{j})")
        d = nxt
        budget -= 1
        if budget < 0:
            raise DiagramError("droop loop exceeded its column-sum bound")


def _finish(w, start, steps, out, gained_row) -> Certificate:
    if not is_member(out, w):
        raise DiagramError("constructed diagram left the set")
    want = weight(start).times_x(gained_row)
    got = weight(out)
    if want != got:
        raise DiagramError(f"constructed weight {got} is not the input weight times x{gained_row}")
    return Certificate(w, start, tuple(steps), out, gained_row)


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of a support check on one permutation."""

    w: Perm
    mode: str
    ok: bool
    checked: int
    failures: tuple[str, ...] = ()
    certificates: tuple[Certificate, ...] = ()


def check_support_growth(w: Perm, mode: str = "direct") -> ConjectureReport:
    """Every non-maximal support monomial stays in the support after
    multiplying by some x_i (checked directly, or via constructed
    certificates for inverse fireworks input).  A diagram that the
    constructor cannot raise is a failure, reported with the diagram."""
    supp = grothendieck(w).support()
    degree = max_cross_count(w)
    if mode == "direct":
        failures = []
        checked = 0
        for m in supp:
            if m.degree >= degree:
                continue
            checked += 1
            if not any(m.times_x(i) in supp for i in range(1, w.n + 1)):
                failures.append(f"{m.text()} has no x_i growth in the support")
        return ConjectureReport(w, mode, not failures, checked, tuple(failures))
    if mode != "constructive":
        raise ValueError(f"unknown mode {mode!r}")
    if not w.is_inverse_fireworks():
        raise ValueError("constructive mode needs an inverse fireworks permutation")
    failures = []
    certs = []
    checked = 0
    for d in mvpd_set(w):
        if is_top(d, w):
            continue
        checked += 1
        try:
            cert = construct_up(d, w)
        except DiagramError as exc:
            failures.append(f"no certificate for\n{d.render_text()}\n{exc}")
            continue
        certs.append(cert)
        raised = weight(cert.output)
        if raised not in supp:
            failures.append(f"certificate weight {raised.text()} missing from the support")
    return ConjectureReport(w, mode, not failures, checked, tuple(failures), tuple(certs))


def check_support_divisibility(w: Perm) -> ConjectureReport:
    """Every non-maximal support monomial divides a different support monomial."""
    supp = grothendieck(w).support()
    degree = max_cross_count(w)
    failures = []
    checked = 0
    for m in supp:
        if m.degree >= degree:
            continue
        checked += 1
        if not any(m != other and m.divides(other) for other in supp):
            failures.append(f"{m.text()} divides nothing else in the support")
    return ConjectureReport(w, "divisibility", not failures, checked, tuple(failures))
