import subprocess
import sys

import pytest

from pipedreams import checks, diagrams, mvpd
from pipedreams.bvpd import enumerate_bvpd
from pipedreams.checks import CHECKS, run_check
from pipedreams.cli import main
from pipedreams.diagrams import DiagramError
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import MAX_N
from pipedreams.polynomials import Monomial


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_small_sweeps_pass(name):
    report = run_check(name, 3)
    assert report.ok, "\n".join(report.lines())
    assert report.checked > 0


def test_inverse_fireworks_restriction():
    full = run_check("lemma46", 4)
    restricted = run_check("lemma46", 4, inverse_fireworks_only=True)
    assert full.ok and restricted.ok
    assert restricted.checked < full.checked


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_inverse_fireworks_flag_narrows_every_check(name):
    want = sum(1 for w in symmetric_group(4) if w.is_inverse_fireworks())
    assert run_check(name, 4, inverse_fireworks_only=True).checked == want


def test_report_lines_format():
    report = run_check("prop25", 3)
    lines = report.lines()
    assert lines[0] == "check prop25 n=3: PASS (6 permutations)"


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("nope", 3)


def test_failure_lines_carry_witnesses():
    report = run_check("cor26", 3)
    report.fail("w=stub: planted witness")
    assert not report.ok
    assert any("planted witness" in line for line in report.lines())


def test_planted_degree_fails_both_support_checks(monkeypatch):
    # One degree too high makes every top monomial non-maximal, and a top
    # monomial neither grows nor divides another.  It also breaks the
    # degree's match with the major index on the five fireworks w of S_3
    # (all but 312).  The degree's symmetry under inversion needs a fault
    # that differs between w and its inverse: it breaks on the two w of S_3
    # that are not involutions.
    real = checks.max_cross_count
    one_up = lambda w: real(w) + 1
    one_sided = lambda w: real(w) + (w.letters < w.inverse.letters)
    planted = [
        ("conj12", one_up, "divides nothing else", 6),
        ("conj13", one_up, "has no x_i growth", 6),
        ("prop25", one_up, "degree/major-index equivalence fails", 5),
        ("cor26", one_sided, "degree changes under inversion", 2),
    ]
    for name, fault, witness, count in planted:
        monkeypatch.setattr(checks, "max_cross_count", fault)
        report = run_check(name, 3)
        assert len(report.failures) == count, name
        assert all(witness in f for f in report.failures), name


def test_a_planted_bumpless_sum_fails_thm43(monkeypatch):
    real = checks.top_grothendieck_via_bvpd
    monkeypatch.setattr(checks, "top_grothendieck_via_bvpd", lambda w: real(w).scale(2))
    report = run_check("thm43", 3)
    ws = [w for w in symmetric_group(3) if w.is_inverse_fireworks()]
    assert report.failures == [f"w={w}: bumpless formula disagrees with enumeration" for w in ws]


def test_the_marked_set_of_another_w_fails_lemma46(monkeypatch):
    # The identity's diagrams spend no tile on pipe travel; every other w of
    # S_3 has some, so its census fails on each of them.
    real = checks.mvpd_set
    monkeypatch.setattr(checks, "mvpd_set", lambda w: real(Perm.identity(w.n)))
    report = run_check("lemma46", 3)
    assert report.failures
    assert {f.split(":")[0] for f in report.failures} == {
        f"w={w}" for w in symmetric_group(3) if w != Perm.identity(3)
    }
    assert all(f.split("\n")[0].endswith("census identity fails") for f in report.failures)


def test_a_certificate_weight_past_the_top_degree_fails_conj13(monkeypatch):
    # No support monomial has degree n^2, so each certificate's weight is
    # missing from the support; the support half of the check is untouched.
    def raised(d):
        return Monomial((d.n * d.n,) + (0,) * (d.n - 1), (0,) * d.n)

    monkeypatch.setattr(checks, "weight", raised)
    report = run_check("conj13", 3)
    assert report.failures
    for f in report.failures:
        head, body = f.split(": ", 1)
        assert head.endswith("(constructive)")
        assert set(body.split("; ")) == {"certificate weight x1^9 missing from the support"}


def test_the_pipe_dream_bound_comes_before_the_sweep(monkeypatch):
    # The MVPDs are filled at any n and lemma46's body reads no pipe dream,
    # so a sweep that started would run on past the bound: none may start.
    def no_body(report, w):
        raise AssertionError("a check body ran above the pipe-dream bound")

    for name, (_, fireworks_domain) in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name, (no_body, fireworks_domain))
    for name in CHECKS:
        with pytest.raises(ValueError, match=f"n={MAX_N + 1} above the pipe-dream bound {MAX_N}"):
            run_check(name, MAX_N + 1)


def test_a_sweep_leaves_no_polynomial_alive():
    # Each polynomial is one fold over one diagram list that no sweep reads
    # twice, so once the sweep is done none may be held by a cache.  Nor may
    # the double sums remember one past its caller: both routes of each w of
    # S_5 are summed and dropped, as in the benchmark's double-s5.
    script = (
        "import gc\n"
        "from pipedreams.checks import run_check\n"
        "from pipedreams.mvpd import double_grothendieck_via_mvpd\n"
        "from pipedreams.permutations import symmetric_group\n"
        "from pipedreams.pipedream import double_grothendieck\n"
        "from pipedreams.polynomials import Poly\n"
        "assert run_check('eq1-vs-cor37', 4).ok\n"
        "for w in symmetric_group(5):\n"
        "    a = double_grothendieck(w)\n"
        "    b = double_grothendieck_via_mvpd(w)\n"
        "    assert a == b\n"
        "del a, b\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, Poly) for o in gc.get_objects()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# Each bijection check: its forward and backward maps, the reader whose
# planted fault breaks the pair invariant, and its two witnesses.
BIJECTIONS = {
    "prop36": (
        "pd_to_mvpd",
        "mvpd_to_pd",
        ("weighty_cells", lambda d: d.kind),
        "image differs from direct enumeration",
        "weighty cells moved",
    ),
    "thm44": (
        "bvpd_to_pd",
        "pd_to_bvpd",
        ("predicted_cross_cells", lambda b: frozenset()),
        "image is not the maximal-cross set",
        "cross positions mispredicted",
    ),
    "prop49": (
        "mvpd_to_bvpd",
        "bvpd_to_mvpd",
        ("weight", lambda d: d.kind),
        "column deletion misses the bumpless set",
        "weight changed",
    ),
}


def _planted_report(monkeypatch, name, attr, fault):
    monkeypatch.setattr(checks, attr, fault)
    report = run_check(name, 4)
    assert not report.ok
    assert all(f.startswith("w=") for f in report.failures)
    return report


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_a_constant_forward_map_misses_the_image(monkeypatch, name):
    forward, _, _, missed, _ = BIJECTIONS[name]
    real = getattr(checks, forward)
    fixed = {}

    def constant(d, w):
        # Every source of w goes to the image of the first one mapped, so
        # the backward map still reads a diagram of w.
        return fixed.setdefault(w, real(d, w))

    report = _planted_report(monkeypatch, name, forward, constant)
    assert any(f.endswith(missed) for f in report.failures)


def test_an_image_of_another_w_is_a_witness_not_an_abort(monkeypatch, capsys):
    # The backward map refuses an image that is not of w at its door; the
    # sweep must report the missed image instead of stopping on the refusal.
    identity = Perm.identity(4)
    (elsewhere,) = enumerate_bvpd(identity)
    monkeypatch.setattr(checks, "mvpd_to_bvpd", lambda d, w: elsewhere)
    assert main(["check", "--what", "prop49", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "  witness: w=1243: column deletion misses the bumpless set" in out.split("\n")
    assert "round trip broke" not in out


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_a_map_that_raises_is_a_witness_not_an_abort(monkeypatch, capsys, name):
    # A refusal while one w is checked is that w's witness: the sweep exits
    # 1, not 2, and every later w is still checked.
    forward = BIJECTIONS[name][0]
    real = getattr(checks, forward)
    seen = []

    def refuse_the_first(d, w):
        seen.append(w)
        if w == seen[0]:
            raise DiagramError(f"planted refusal for {w}")
        return real(d, w)

    monkeypatch.setattr(checks, forward, refuse_the_first)
    assert main(["check", "--what", name, "--n", "4"]) == 1
    domain = [w for w in symmetric_group(4) if name == "prop36" or w.is_inverse_fireworks()]
    first = domain[0]
    assert capsys.readouterr().out.split("\n") == [
        f"check {name} n=4: FAIL ({len(domain)} permutations)",
        f"  witness: w={first}: planted refusal for {first}",
        "",
    ]
    assert set(seen) == set(domain)


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_a_constant_backward_map_breaks_the_round_trip(monkeypatch, name):
    forward, backward, _, _, _ = BIJECTIONS[name]
    real = getattr(checks, backward)
    fixed = {}

    def constant(d, w):
        return fixed.setdefault(w, real(d, w))

    report = _planted_report(monkeypatch, name, backward, constant)
    assert any("round trip broke" in f for f in report.failures)


@pytest.mark.parametrize("name", sorted(BIJECTIONS))
def test_a_broken_invariant_reader_is_caught(monkeypatch, name):
    _, _, (reader, fault), _, broken = BIJECTIONS[name]
    report = _planted_report(monkeypatch, name, reader, fault)
    assert any(f.split("\n")[0].endswith(broken) for f in report.failures)


def test_a_passing_sweep_expands_no_double_sum(monkeypatch):
    # Equal double groupings give equal sums, so a PASS expands neither.
    def refuse(n, groups, table):
        raise AssertionError("eq1-vs-cor37 expanded a double sum on a PASS")

    monkeypatch.setattr(diagrams, "_expand_double", refuse)
    assert run_check("eq1-vs-cor37", 4).ok


def test_unequal_groupings_fall_back_to_the_sums(monkeypatch):
    # Groupings that never compare equal leave the verdict to the sums,
    # which agree, so the sweep still passes, expanding every w's sums.
    expanded = []
    real = diagrams._expand_double
    monkeypatch.setattr(checks, "signed_groups", lambda w, ds, double: object())
    monkeypatch.setattr(diagrams, "_expand_double", lambda n, g, t: expanded.append(n) or real(n, g, t))
    assert run_check("eq1-vs-cor37", 3).ok
    assert len(expanded) >= 6


def test_an_extra_marked_diagram_breaks_both_sums(monkeypatch):
    # A repeated MVPD doubles its group's sign: the groupings differ, and
    # both sums the check then expands report it.
    real = mvpd.mvpd_set
    monkeypatch.setattr(mvpd, "mvpd_set", lambda w: real(w) + real(w)[:1])
    monkeypatch.setattr(checks, "mvpd_set", lambda w: real(w) + real(w)[:1])
    report = run_check("eq1-vs-cor37", 4)
    ws = [str(w) for w in symmetric_group(4)]
    assert report.failures == [
        f"w={w}: {which} sums differ" for w in ws for which in ("single-variable", "double")
    ]


def test_a_missing_marked_diagram_breaks_both_sums(monkeypatch):
    # Both names are patched, so the fault reaches whichever one the check's
    # body reads, directly or through the MVPD sums.
    real = mvpd.mvpd_set
    monkeypatch.setattr(mvpd, "mvpd_set", lambda w: real(w)[:-1])
    monkeypatch.setattr(checks, "mvpd_set", lambda w: real(w)[:-1])
    report = run_check("eq1-vs-cor37", 4)
    assert not report.ok
    ws = [str(w) for w in symmetric_group(4)]
    assert report.failures == [
        f"w={w}: {which} sums differ" for w in ws for which in ("single-variable", "double")
    ]
