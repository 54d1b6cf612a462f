"""Cross-validation sweeps over whole symmetric groups.

Each check replays one of the structural identities on every permutation
of its domain (all of S_n, or its inverse fireworks part) and reports
every violation with a witness; these are the same routines the
command-line ``check`` subcommand runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .bvpd import (
    bvpd_to_mvpd,
    bvpd_to_pd,
    enumerate_bvpd,
    mvpd_to_bvpd,
    pd_to_bvpd,
    predicted_cross_cells,
    top_grothendieck_via_bvpd,
)
from .construct import construct_up
from .diagrams import DiagramError, signed_groups, sort_key, weight, weighty_cells
from .mvpd import (
    double_grothendieck_via_mvpd,
    grothendieck_via_mvpd,
    is_top,
    mvpd_set,
    mvpd_to_pd,
    pd_to_mvpd,
    tile_census_identity,
    top_mvpd_set,
)
from .permutations import Perm, symmetric_group
from .pipedream import (
    double_grothendieck,
    grothendieck,
    max_cross_count,
    pd_set,
    require_pd_bound,
    top_grothendieck,
    top_pd_set,
)
from .polynomials import Monomial


@dataclass
class SweepReport:
    """Outcome of one sweep: permutations visited and any falsifying witnesses."""

    name: str
    n: int
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def lines(self) -> list[str]:
        status = "PASS" if self.ok else "FAIL"
        out = [f"check {self.name} n={self.n}: {status} ({self.checked} permutations)"]
        out.extend("  witness: " + f for f in self.failures)
        return out


def _polynomial_routes_agree(report: SweepReport, w: Perm) -> None:
    """Signed weight sums agree between the pipe-dream and marked
    vertical-less routes, in both the single and double versions.  Equal
    groupings give equal sums, so the routes' double groupings are compared
    first, and the sums are expanded only when they differ: equal double
    groupings imply equal single ones, since a weight is the row count of
    the weighty cells."""
    if signed_groups(w, mvpd_set(w), double=True) == signed_groups(w, pd_set(w), double=True):
        return
    if grothendieck_via_mvpd(w) != grothendieck(w):
        report.fail(f"w={w}: single-variable sums differ")
    if double_grothendieck_via_mvpd(w) != double_grothendieck(w):
        report.fail(f"w={w}: double sums differ")


def _bijection(report: SweepReport, w: Perm, sources, forward, targets, backward, reads, texts):
    """``forward`` carries ``sources`` onto the sorted ``targets``, the two
    ``reads`` agree on every source and its image, and ``backward`` undoes
    ``forward``.  ``texts`` name a missed image and a disagreeing read.

    ``backward`` refuses a diagram not of w, so the round trip is run only
    on the images among ``targets``; a missed image is reported as such."""
    read_source, read_image = reads
    missed, broken = texts
    images = [forward(s, w) for s in sources]
    onto = sorted(images, key=sort_key) == list(targets)
    if not onto:
        report.fail(f"w={w}: {missed}")
        targets = frozenset(targets)
    for s, image in zip(sources, images):
        if read_source(s) != read_image(image):
            report.fail(f"w={w}: {broken}\n{s.render_text()}")
        if (onto or image in targets) and backward(image, w) != s:
            report.fail(f"w={w}: round trip broke\n{s.render_text()}")


def _removal_bijection(report: SweepReport, w: Perm) -> None:
    """The pipe-removal map is a bijection onto the directly filled marked
    set that keeps the weighty cells in place, with exact round trips."""
    texts = "image differs from direct enumeration", "weighty cells moved"
    reads = weighty_cells, weighty_cells
    _bijection(report, w, pd_set(w), pd_to_mvpd, mvpd_set(w), mvpd_to_pd, reads, texts)


def _top_degree_formula(report: SweepReport, w: Perm) -> None:
    """The unsigned bumpless sum equals the sign-corrected top component."""
    if top_grothendieck_via_bvpd(w) != top_grothendieck(w):
        report.fail(f"w={w}: bumpless formula disagrees with enumeration")


def _top_pd_bijection(report: SweepReport, w: Perm) -> None:
    """The composite map carries the bumpless set onto the maximal-cross
    pipe dreams and its crosses sit where the east exits predict."""
    texts = "image is not the maximal-cross set", "cross positions mispredicted"
    reads = predicted_cross_cells, weighty_cells
    _bijection(report, w, enumerate_bvpd(w), bvpd_to_pd, top_pd_set(w), pd_to_bvpd, reads, texts)


def _mvpd_bvpd_bijection(report: SweepReport, w: Perm) -> None:
    """Column deletion is a weight-preserving bijection between the
    maximal-weight marked set and the bumpless set."""
    texts = "column deletion misses the bumpless set", "weight changed"
    tops, reads = top_mvpd_set(w), (weight, weight)
    _bijection(report, w, tops, mvpd_to_bvpd, enumerate_bvpd(w), bvpd_to_mvpd, reads, texts)


def _tile_census(report: SweepReport, w: Perm) -> None:
    """weighty + bumps + unmarked elbows equals the pipe travel, everywhere."""
    for m in mvpd_set(w):
        if not tile_census_identity(m, w):
            report.fail(f"w={w}: census identity fails\n{m.render_text()}")


def _degree_vs_major_index(report: SweepReport, w: Perm) -> None:
    """The enumerated degree equals the major index exactly on fireworks
    permutations."""
    if (max_cross_count(w) == w.major_index()) != w.is_fireworks():
        report.fail(f"w={w}: degree/major-index equivalence fails")


def _degree_inverse_symmetric(report: SweepReport, w: Perm) -> None:
    """The enumerated degree is invariant under inversion."""
    if max_cross_count(w) != max_cross_count(w.inverse):
        report.fail(f"w={w}: degree changes under inversion")


def _non_maximal_support(w: Perm) -> tuple[frozenset[Monomial], list[Monomial]]:
    """The support of w's Grothendieck polynomial, and its monomials below
    the top degree in the support's own order."""
    supp = grothendieck(w).support()
    degree = max_cross_count(w)
    return supp, [m for m in supp if m.degree < degree]


def _support_divisibility(report: SweepReport, w: Perm) -> None:
    """Every non-maximal support monomial divides a different support monomial."""
    supp, low = _non_maximal_support(w)
    failures = [
        f"{m.text()} divides nothing else in the support"
        for m in low
        if not any(m != other and m.divides(other) for other in supp)
    ]
    if failures:
        report.fail(f"w={w}: " + "; ".join(failures))


def _support_growth(report: SweepReport, w: Perm) -> None:
    """Every non-maximal support monomial stays in the support after
    multiplying by some x_i.  On the inverse fireworks part, every
    non-maximal marked diagram must also be raised by a constructed
    certificate whose weight is in the support."""
    supp, low = _non_maximal_support(w)
    failures = [
        f"{m.text()} has no x_i growth in the support"
        for m in low
        if not any(m.times_x(i) in supp for i in range(1, w.n + 1))
    ]
    if failures:
        report.fail(f"w={w}: " + "; ".join(failures))
    if not w.is_inverse_fireworks():
        return
    failures = []
    for d in mvpd_set(w):
        if is_top(d, w):
            continue
        try:
            cert = construct_up(d, w)
        except DiagramError as exc:
            failures.append(f"no certificate for\n{d.render_text()}\n{exc}")
            continue
        raised = weight(cert.output)
        if raised not in supp:
            failures.append(f"certificate weight {raised.text()} missing from the support")
    if failures:
        report.fail(f"w={w} (constructive): " + "; ".join(failures))


# Each check's per-permutation body, and whether its domain is the inverse
# fireworks part of S_n (True) or all of it (False).
CHECKS: dict[str, tuple[Callable[[SweepReport, Perm], None], bool]] = {
    "eq1-vs-cor37": (_polynomial_routes_agree, False),
    "prop36": (_removal_bijection, False),
    "thm43": (_top_degree_formula, True),
    "thm44": (_top_pd_bijection, True),
    "prop49": (_mvpd_bvpd_bijection, True),
    "lemma46": (_tile_census, False),
    "prop25": (_degree_vs_major_index, False),
    "cor26": (_degree_inverse_symmetric, False),
    "conj12": (_support_divisibility, False),
    "conj13": (_support_growth, False),
}


def run_check(name: str, n: int, inverse_fireworks_only: bool = False) -> SweepReport:
    """Sweep one check over its domain in S_n, narrowed to the inverse
    fireworks permutations on request.  The one bound, the pipe dreams', is
    applied to every sweep before it starts: an n above it is refused.  A
    ``ValueError`` raised while one w is checked, such as a map refusing a
    diagram, is that w's witness, and the sweep goes on to the next w."""
    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
    require_pd_bound(n)
    body, fireworks_domain = CHECKS[name]
    report = SweepReport(name, n)
    for w in symmetric_group(n):
        if (fireworks_domain or inverse_fireworks_only) and not w.is_inverse_fireworks():
            continue
        report.checked += 1
        try:
            body(report, w)
        except ValueError as exc:
            report.fail(f"w={w}: {exc}")
    return report
