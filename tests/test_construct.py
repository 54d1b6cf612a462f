import hashlib
import json

import pytest

from pipedreams import checks, construct, diagrams
from pipedreams.checks import CHECKS, SweepReport
from pipedreams.construct import (
    Certificate,
    Step,
    construct_up,
    droop_prime,
    find_pattern,
    find_upgrade,
    locate_droop_site,
)
from pipedreams.bvpd import enumerate_bvpd
from pipedreams.diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    is_member,
    trace,
    weight,
    weighty_cells,
)
from pipedreams.mvpd import is_top, mvpd_set
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import grothendieck, pd_set
from pipedreams.polynomials import Monomial

W2413 = Perm.from_one_line([2, 4, 1, 3])

# The saturated non-maximal diagram whose inverse one-line word is 14253;
# raising its weight takes two marked droops, at (1,1) and then (2,2).
W14253_INV = Perm.from_one_line([1, 4, 2, 5, 3]).inverse
EX59_TEXT = "r-JRJ\nJR-J.\n-J...\n.....\n....."

# Inputs whose raise needs a droop at a fake cross, with the steps and the
# gained row of their certificates.  The right n = 6 witness droops into the
# left one at (1,1).  In the n = 7 input the fake-cross droop lands on the
# marked elbow at (3,4), so the first bump_to_cross only wins back row 2's
# tile and a second upgrade gains row 3.
W146325 = Perm.from_one_line([1, 4, 6, 3, 2, 5])
FAKE_CROSS_INPUTS = {
    "right-n6": (
        W146325,
        "r-+JRJ/JR+-J./-+J.../-J..../....../......",
        [("droop_prime", (1, 1)), ("droop_prime", (2, 3)), ("bump_to_cross", (2, 2))],
    ),
    "left-n6": (
        W146325,
        ".R+JRJ/-b+-J./-+J.../-J..../....../......",
        [("droop_prime", (2, 3)), ("bump_to_cross", (2, 2))],
    ),
    "w1473265": (
        Perm.from_one_line([1, 4, 7, 3, 2, 6, 5]),
        ".R+JR+J/-b+-+J./-+JRJ../-JRJ.../.RJ..../-J...../.......",
        [("droop_prime", (2, 3)), ("bump_to_cross", (2, 2)), ("bump_to_cross", (3, 4))],
    ),
}


def fake_cross_input(name):
    w, rows, _ = FAKE_CROSS_INPUTS[name]
    return w, mvpd(w.n, rows.replace("/", "\n"))


def mvpd(n, text):
    return Diagram.parse_text(Kind.MVPD, n, text)


def row_weight(w, d):
    return weight(d)


def droop_sites(d, w):
    """Every (i, j, foot row) where a droop's preconditions hold."""
    tr = trace(d)
    for i in range(1, d.rows + 1):
        for j in range(1, d.cols):
            t = d.tile(i, j)
            # A fake crossing routes its west label north, like a bump.
            strand = t in (Tile.ELBOW_SE, Tile.MARKED_SE, Tile.BUMP) or (
                t is Tile.CROSS and tr.cells[(i, j)][2] == tr.cells[(i, j)][0]
            )
            if not strand:
                continue
            try:
                yield i, j, locate_droop_site(d, i, j)
            except DiagramError:
                continue


def drooped(d, i, j, w):
    return Step("droop_prime", (i, j)).apply(d, w)


class TestDroop:
    def test_minimal_site(self):
        # Bump with the elbow directly below: four cells rewritten.
        m = mvpd(4, "-b-J\n-J..\n....\n....")
        assert locate_droop_site(m, 1, 2) == 2
        out = drooped(m, 1, 2, W2413)
        assert out.render_text() == "-JRJ\n--J.\n....\n...."

    def test_droop_prime_marks(self):
        m = mvpd(4, "-b-J\n-J..\n....\n....")
        assert droop_prime(m, 1, 2)[(1, 3)] is Tile.MARKED_SE
        assert drooped(m, 1, 2, W2413).tile(1, 3) is Tile.MARKED_SE

    def test_site_preconditions(self):
        m = mvpd(4, "-JrJ\n--J.\n....\n....")
        with pytest.raises(DiagramError):
            locate_droop_site(m, 1, 1)  # horizontal: no south-east strand
        with pytest.raises(DiagramError):
            locate_droop_site(m, 1, 3)  # nothing to its right but an elbow

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sweep_preserves_the_code(self, n):
        for w in symmetric_group(n):
            for m in mvpd_set(w):
                for i, j, _ in droop_sites(m, w):
                    # Step.apply raises unless the drooped diagram is in w's set.
                    drooped(m, i, j, w)

    def test_ledger_at_pattern_sites(self):
        # One rule at every droop site: the site and the landing cell stop
        # being weighty and the foot cell becomes weighty.
        sites = []
        for n in (4, 5):
            for w in symmetric_group(n):
                for m in mvpd_set(w):
                    for i, j, foot_row in droop_sites(m, w):
                        sites.append(m.tile(i, j))
                        before = weighty_cells(m)
                        after = weighty_cells(drooped(m, i, j, w))
                        site, foot, landing = (i, j), (foot_row, j), (foot_row, j + 1)
                        assert after == (before - {site, landing}) | {foot}
        assert len(sites) == 625
        assert sites.count(Tile.CROSS) == 8 and Tile.MARKED_SE in sites


class TestStep:
    def test_mark_off_a_markable_elbow_raises(self):
        m = mvpd(4, "-b-J\n-J..\n....\n....")
        for cell in [(1, 1), (1, 2), (2, 2)]:  # a horizontal, a bump, a west-north elbow
            with pytest.raises(DiagramError):
                Step("mark", cell).apply(m, W2413)
        unmarkable = 0
        for w in symmetric_group(4):
            for m in mvpd_set(w):
                tr = trace(m)
                for i, j, t in m.cells():
                    if t is Tile.ELBOW_SE and not tr.markable(i, j):
                        unmarkable += 1
                        with pytest.raises(DiagramError):
                            Step("mark", (i, j)).apply(m, w)
                    if t is Tile.MARKED_SE:  # already marked: not an elbow to mark
                        with pytest.raises(DiagramError):
                            Step("mark", (i, j)).apply(m, w)
        assert unmarkable

    def test_unknown_op_raises(self):
        m = mvpd(4, "-b-J\n-J..\n....\n....")
        with pytest.raises(DiagramError, match="unknown step op 'swap'"):
            Step("swap", (1, 2)).apply(m, W2413)

    def test_bump_to_cross_leaving_the_set_raises(self):
        # The bump's pipes cross nowhere else, so a cross there changes the code.
        m = mvpd(4, "-b-J\n-J..\n....\n....")
        assert trace(m).pipe_at(1, 2) not in trace(m).crossed_pairs
        with pytest.raises(DiagramError, match="left the diagram set"):
            Step("bump_to_cross", (1, 2)).apply(m, W2413)


class TestFindPattern:
    def test_2413_unique_pattern(self):
        saturated_non_top = [
            m
            for m in mvpd_set(W2413)
            if not is_top(m, W2413) and find_upgrade(m, trace(m), W2413) is None
        ]
        assert len(saturated_non_top) == 1
        m = saturated_non_top[0]
        assert find_pattern(m, trace(m), W2413) == (1, 2)

    def test_lowest_then_rightmost(self):
        m = mvpd(5, EX59_TEXT)
        assert find_pattern(m, trace(m), W14253_INV) == (1, 1)

    def test_fake_cross_last(self):
        # The left witness has no bump or elbow with a horizontal on its
        # right; its lowest, then rightmost, fake cross that passes the
        # droop preconditions is (2,3).
        w, m = fake_cross_input("left-n6")
        tr = trace(m)
        assert find_upgrade(m, tr, w) is None
        assert m.tile(2, 3) is Tile.CROSS and tr.cells[(2, 3)][2] == tr.cells[(2, 3)][0]
        assert find_pattern(m, tr, w) == (2, 3)


class TestConstructUp:
    def test_2413_certificates(self):
        outcomes = {}
        for m in mvpd_set(W2413):
            if is_top(m, W2413):
                continue
            cert = construct_up(m, W2413)
            outcomes[row_weight(W2413, m).text()] = (
                row_weight(W2413, cert.output).text(),
                cert.gained_row,
            )
        assert outcomes == {
            "x1*x2^2": ("x1^2*x2^2", 1),
            "x1^2*x2": ("x1^2*x2^2", 2),
        }

    def test_worked_two_droop_example(self):
        w = W14253_INV
        assert w.inverse.letters == (1, 4, 2, 5, 3)
        m = mvpd(5, EX59_TEXT)
        assert is_member(m, w) and find_upgrade(m, trace(m), w) is None and not is_top(m, w)
        cert = construct_up(m, w)
        assert [s.op for s in cert.steps] == ["droop_prime", "droop_prime"]
        assert [s.cell for s in cert.steps] == [(1, 1), (2, 2)]
        assert cert.gained_row == 3
        assert row_weight(w, cert.output) == row_weight(w, m).times_x(3)
        # The intermediate diagram keeps the weight and stays saturated.
        mid = drooped(m, 1, 1, w)
        assert row_weight(w, mid) == row_weight(w, m)
        assert find_upgrade(mid, trace(mid), w) is None

    def test_rejects_top_input(self):
        for m in mvpd_set(W2413):
            if is_top(m, W2413):
                with pytest.raises(ValueError):
                    construct_up(m, W2413)

    def test_rejects_non_inverse_fireworks(self):
        w = Perm.from_one_line([3, 1, 4, 2])
        for m in mvpd_set(w):
            with pytest.raises(ValueError, match="not inverse fireworks"):
                construct_up(m, w)

    def test_rejects_other_species(self):
        # A PD or BVPD of w is a member of w's set, but not an MVPD to raise.
        for d in (pd_set(W2413)[0], enumerate_bvpd(W2413)[0]):
            assert is_member(d, W2413)
            with pytest.raises(ValueError, match="expected an MVPD"):
                construct_up(d, W2413)

    @pytest.mark.parametrize("n", [3, 4])
    def test_sweep(self, n):
        for w in symmetric_group(n):
            if not w.is_inverse_fireworks():
                continue
            supp = grothendieck(w).support()
            for m in mvpd_set(w):
                if is_top(m, w):
                    continue
                cert = construct_up(m, w)
                assert isinstance(cert, Certificate)
                replay = m
                for step in cert.steps:
                    replay = step.apply(replay, w)
                assert replay == cert.output
                assert row_weight(w, cert.output) == row_weight(w, m).times_x(
                    cert.gained_row
                )
                assert row_weight(w, cert.output) in supp

    def test_certificate_digest_n5(self):
        # Every certificate of the 538 non-maximal marked diagrams of the
        # inverse fireworks w of S_5, in sweep order, pinned byte for byte.
        h = hashlib.sha256()
        count = 0
        for w in symmetric_group(5):
            if w.is_inverse_fireworks():
                for m in mvpd_set(w):
                    if not is_top(m, w):
                        h.update(json.dumps(construct_up(m, w).to_json()).encode())
                        count += 1
        assert count == 538
        assert h.hexdigest() == "1b8d81946faf81b18add4eefd4cbd1c7cfbc3432b4f6c89a7ffb6e7727e03cb2"

    def test_checks_each_diagram_once(self, monkeypatch):
        checked = []
        member_trace = construct._member_trace

        def recording_member_trace(d, w):
            checked.append(d)
            return member_trace(d, w)

        monkeypatch.setattr(construct, "_member_trace", recording_member_trace)
        monkeypatch.setattr(diagrams, "_member_trace", recording_member_trace)
        inputs = [(W14253_INV, mvpd(5, EX59_TEXT))]
        inputs += [fake_cross_input(name) for name in ("right-n6", "left-n6")]
        for w in symmetric_group(4):
            if w.is_inverse_fireworks():
                inputs.extend((w, m) for m in mvpd_set(w) if not is_top(m, w))
        assert len(inputs) > 1
        for w, m in inputs:
            checked.clear()
            cert = construct_up(m, w)
            assert cert.input in checked and cert.output in checked
            assert len(checked) == len(set(checked)), m.render_text()

    @pytest.mark.parametrize("n", [4, 5, "fake-cross"])
    def test_traces_once_per_diagram(self, monkeypatch, n):
        # One trace for the input, then one for the output of each step
        # applied or tried, and one more per droop at a fake cross, where
        # locate_droop_site tells a fake cross from a real one.
        traces = []
        tried = []
        fake_cross_droops = []
        plain_trace, plain_apply = diagrams.trace, Step._apply

        def counting_trace(d):
            traces.append(d)
            return plain_trace(d)

        def counting_apply(step, d, w):
            tried.append(step)
            if step.op == "droop_prime" and d.tile(*step.cell) is Tile.CROSS:
                fake_cross_droops.append(step)
            return plain_apply(step, d, w)

        monkeypatch.setattr(diagrams, "trace", counting_trace)
        monkeypatch.setattr(construct, "trace", counting_trace)
        monkeypatch.setattr(Step, "_apply", counting_apply)
        if n == "fake-cross":
            inputs = [fake_cross_input(name) for name in FAKE_CROSS_INPUTS]
        else:
            inputs = [
                (w, m)
                for w in symmetric_group(n)
                if w.is_inverse_fireworks()
                for m in mvpd_set(w)
                if not is_top(m, w)
            ]
        fake_cross_inputs = 0
        for w, m in inputs:
            traces.clear()
            tried.clear()
            fake_cross_droops.clear()
            construct_up(m, w)
            assert len(traces) == 1 + len(tried) + len(fake_cross_droops), m.render_text()
            fake_cross_inputs += bool(fake_cross_droops)
        assert inputs
        # Below n = 6 no input needs a fake-cross droop.
        assert fake_cross_inputs == (len(inputs) if n == "fake-cross" else 0)

    @pytest.mark.parametrize("name", list(FAKE_CROSS_INPUTS))
    def test_fake_cross_certificates(self, name):
        w, m = fake_cross_input(name)
        cert = construct_up(m, w)
        assert [(s.op, s.cell) for s in cert.steps] == FAKE_CROSS_INPUTS[name][2]
        assert cert.gained_row == 3
        assert weight(cert.output) == weight(m).times_x(3)
        replay = m
        for step in cert.steps:
            replay = step.apply(replay, w)
        assert replay == cert.output

    def test_revisit_raises(self, monkeypatch):
        # A step that returns its input would loop forever; the chain guard
        # stops it at the first repeat.
        def idle_apply(step, d, w):
            return d, trace(d)

        monkeypatch.setattr(Step, "_apply", idle_apply)
        m = mvpd(5, EX59_TEXT)
        with pytest.raises(DiagramError, match="revisits a diagram"):
            construct_up(m, W14253_INV)

    def test_certificate_json(self):
        m = mvpd(5, EX59_TEXT)
        cert = construct_up(m, W14253_INV)
        data = cert.to_json()
        assert data["w"] == list(W14253_INV.letters)
        assert data["gained_row"] == 3
        assert data["steps"] == [
            {"op": "droop_prime", "cell": [1, 1]},
            {"op": "droop_prime", "cell": [2, 2]},
        ]
        assert Diagram.from_json(data["output"]).render_text() != m.render_text()


def run_body(name, w):
    """One check's report on the single permutation w."""
    report = SweepReport(name, w.n)
    CHECKS[name][0](report, w)
    return report


class TestConjectures:
    def test_direct_2413(self):
        assert run_body("conj13", W2413).ok

    def test_identity_is_vacuous(self):
        # G_id = 1: its one monomial is of top degree, so nothing is checked.
        assert grothendieck(Perm.identity(3)).support() == {Monomial((0,) * 3, (0,) * 3)}
        assert run_body("conj13", Perm.identity(3)).ok
        assert run_body("conj12", Perm.identity(3)).ok

    def test_divisibility_2413(self):
        assert run_body("conj12", W2413).ok

    def test_s4_direct_sweep(self):
        for w in symmetric_group(4):
            assert run_body("conj13", w).ok
            assert run_body("conj12", w).ok

    def test_constructive_matches_direct(self, monkeypatch):
        certs = []

        def recording_construct_up(d, w):
            certs.append(construct_up(d, w))
            return certs[-1]

        monkeypatch.setattr(checks, "construct_up", recording_construct_up)
        for w in symmetric_group(4):
            if not w.is_inverse_fireworks():
                continue
            certs.clear()
            assert run_body("conj13", w).ok
            assert len(certs) == sum(1 for m in mvpd_set(w) if not is_top(m, w))
            supp = grothendieck(w).support()
            for cert in certs:
                assert row_weight(w, cert.output) in supp

    def test_constructive_needs_inverse_fireworks(self, monkeypatch):
        def no_construct_up(d, w):
            raise AssertionError("constructor called off the inverse fireworks part")

        monkeypatch.setattr(checks, "construct_up", no_construct_up)
        w = Perm.from_one_line([3, 1, 4, 2])
        assert not w.is_inverse_fireworks()
        assert run_body("conj13", w).ok
