import re

import pytest

from pipedreams.construct import Step, find_upgrade
from pipedreams.diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    member_trace,
    members,
    sort_key,
    trace,
    weight,
    weighty_cells,
)
from pipedreams.mvpd import (
    grothendieck_via_mvpd,
    double_grothendieck_via_mvpd,
    is_top,
    mvpd_set,
    mvpd_to_pd,
    pd_to_mvpd,
    tile_census_identity,
    top_mvpd_set,
)
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import grothendieck, double_grothendieck, pd_set

W2413 = Perm.from_one_line([2, 4, 1, 3])
W21 = Perm.from_one_line([2, 1])


def parse_mvpd(n, text):
    return Diagram.from_rows(Kind.MVPD, n, text.split("\n"))


def removal_image(w):
    """The image of w's pipe dreams under the removal map, in canonical
    order: the second route to ``mvpd_set``, which fills directly."""
    return tuple(sorted((pd_to_mvpd(p, w) for p in pd_set(w)), key=sort_key))


class TestRemovalMap:
    def test_21(self):
        (p,) = pd_set(W21)
        m = pd_to_mvpd(p, W21)
        assert m.render_text() == "-J\n.."
        assert weighty_cells(m) == {(1, 1)} == weighty_cells(p)

    def test_identity_goes_blank(self):
        w = Perm.identity(4)
        (p,) = pd_set(w)
        m = pd_to_mvpd(p, w)
        assert all(t is Tile.BLANK for _, _, t in m.cells())

    def test_surviving_fake_crossing_stays_a_cross(self):
        # Both strands of the (1,5) crossing survive removal for this w.
        u = Perm.from_one_line([1, 4, 5, 6, 3, 2])
        w = u.inverse
        text = "...R+J\n---+J.\n---J..\n......\n......\n......"
        m = parse_mvpd(6, text)
        assert member_trace(m, w) is not None
        p = mvpd_to_pd(m, w)
        assert pd_to_mvpd(p, w) == m

    def test_wrong_permutation_rejected(self):
        (p,) = pd_set(Perm.identity(4))
        with pytest.raises(ValueError):
            pd_to_mvpd(p, W2413)

    @pytest.mark.parametrize(
        "one_line, rows, maxima, refusal",
        [
            ([2, 1], "+J\nJ.", {1}, "cross at (1,1) reduced to a vertical strand"),
            ([1, 3, 2], "b+J\n+J.\nJ..", {2}, "cross at (1,2) reduced to a west-north arc"),
        ],
    )
    def test_a_cross_reduced_to_a_lone_strand_is_refused(
        self, monkeypatch, one_line, rows, maxima, refusal
    ):
        # Prop. 3.6 keeps both refusals out of reach of the real removal
        # sets, so each is planted through the maxima read; no MVPD is
        # filled under the plant, which would cache codes read from it.
        w = Perm.from_one_line(one_line)
        pd = Diagram.from_rows(Kind.PD, w.n, rows.split("\n"))
        monkeypatch.setattr(Perm, "lr_maxima", lambda self: frozenset(maxima))
        with pytest.raises(DiagramError, match=rf"^{re.escape(refusal)}$"):
            pd_to_mvpd(pd, w)

    def test_a_pd_grid_tagged_as_an_mvpd_is_refused(self):
        # The one pipe dream of 321, its tiles unchanged: it traces to the
        # right code, but it is not a PD.
        (p,) = pd_set(Perm.from_one_line([3, 2, 1]))
        tagged = Diagram(Kind.MVPD, 3, p.tiles)
        with pytest.raises(ValueError, match="expected a PD, got MVPD"):
            pd_to_mvpd(tagged, Perm.from_one_line([3, 2, 1]))

    def test_example_34_three_members(self):
        ms = mvpd_set(W2413)
        assert len(ms) == 3
        assert ms == removal_image(W2413)
        weights = {
            weight(m).text() for m in ms
        }
        assert weights == {"x1*x2^2", "x1^2*x2", "x1^2*x2^2"}

    def test_identity_direct(self):
        w = Perm.identity(3)
        assert len(mvpd_set(w)) == 1

    def test_21_direct(self):
        assert len(mvpd_set(W21)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bijection_sweep(self, n):
        for w in symmetric_group(n):
            pds = pd_set(w)
            ms = mvpd_set(w)
            assert len(set(ms)) == len(pds)
            for p in pds:
                m = pd_to_mvpd(p, w)
                assert weighty_cells(p) == weighty_cells(m)
                assert mvpd_to_pd(m, w) == p
            assert ms == removal_image(w)

    def test_all_blank_inverse(self):
        w = Perm.identity(3)
        blank = Diagram(Kind.MVPD, 3, ((Tile.BLANK,) * 3,) * 3)
        p = mvpd_to_pd(blank, w)
        assert all(t is not Tile.CROSS for _, _, t in p.cells())

    def test_weighty_tile_outside_the_staircase_rejected(self):
        # Diagram() does not validate, so a horizontal can sit at i + j > n.
        stray = Diagram(Kind.MVPD, 2, ((Tile.BLANK, Tile.BLANK), (Tile.BLANK, Tile.HORIZONTAL)))
        with pytest.raises(ValueError, match="does not belong"):
            mvpd_to_pd(stray, Perm.identity(2))

    def test_inverse_rejects_a_diagram_of_another_w(self):
        m = parse_mvpd(4, "-b-J\n-J..\n....\n....")
        assert mvpd_to_pd(m, W2413).render_text() == "+b+J\n+bJ.\nbJ..\nJ..."
        for other in ([1, 2, 3, 4], [4, 3, 2, 1], [1, 2, 3]):
            with pytest.raises(ValueError, match="does not belong"):
                mvpd_to_pd(m, Perm.from_one_line(other))
        with pytest.raises(ValueError, match="expected an MVPD"):
            mvpd_to_pd(pd_set(W2413)[0], Perm.from_one_line([1, 2, 3]))


class TestPolynomialRoutes:
    def test_2413(self):
        assert grothendieck_via_mvpd(W2413) == grothendieck(W2413)
        assert grothendieck_via_mvpd(W2413).text() == "x1*x2^2 + x1^2*x2 - x1^2*x2^2"

    def test_identity(self):
        w = Perm.identity(3)
        assert grothendieck_via_mvpd(w).text() == "1"

    def test_s4_sweep_both_versions(self):
        for w in symmetric_group(4):
            assert grothendieck_via_mvpd(w) == grothendieck(w)
            assert double_grothendieck_via_mvpd(w) == double_grothendieck(w)

    def test_coefficient_mass_counts_both_lists(self):
        # Pipe dreams of one weight share a cross count, and so a sign: no
        # term cancels, and the |coefficients| add up to the size of each list.
        for n in range(1, 6):
            for w in symmetric_group(n):
                mass = sum(abs(c) for _, c in grothendieck(w).items())
                assert mass == len(pd_set(w)) == len(mvpd_set(w)), w


class TestCensus:
    def test_2413_members(self):
        for m in mvpd_set(W2413):
            assert tile_census_identity(m, W2413)

    def test_blank_identity(self):
        w = Perm.identity(3)
        (m,) = mvpd_set(w)
        assert tile_census_identity(m, w)

    def test_s4_sweep(self):
        for w in symmetric_group(4):
            for m in mvpd_set(w):
                assert tile_census_identity(m, w)

    def test_n6_inverse_fireworks_sweep(self):
        for w in symmetric_group(6):
            if not w.is_inverse_fireworks():
                continue
            for m in mvpd_set(w):
                assert tile_census_identity(m, w)

    def test_n8_sample(self):
        # Example-scale check: all members at n=8 satisfy the census, and
        # the unmarked ones the traced code and the inverse rewrite round
        # trip (all 38,713 would take seconds).
        u = Perm.from_one_line([1, 2, 5, 4, 7, 3, 8, 6])
        w = u.inverse
        code = w.column_code()
        assert code == (0, 0, 0, 4, 0, 3, 0, 6)
        assert w.pipe_travel() == 15
        ds = members(Kind.MVPD, w)
        assert len(ds) == 38713
        assert all(tile_census_identity(d, w) for d in ds)
        unmarked = [d for d in ds if not any(Tile.MARKED_SE in row for row in d.tiles)]
        assert len(unmarked) == 803
        for d in unmarked:
            assert trace(d).code == code
            assert pd_to_mvpd(mvpd_to_pd(d, w), w) == d


class TestTopSets:
    def test_2413(self):
        tops = top_mvpd_set(W2413)
        assert len(tops) == 1
        assert weight(tops[0]).text() == "x1^2*x2^2"

    def test_identity(self):
        w = Perm.identity(3)
        assert len(top_mvpd_set(w)) == 1

    def test_165234_has_six(self):
        w = Perm.from_one_line([1, 6, 5, 2, 3, 4])
        assert len(top_mvpd_set(w)) == 6

    def test_census_equals_argmax_for_inverse_fireworks(self):
        for n in (3, 4, 5):
            for w in symmetric_group(n):
                if not w.is_inverse_fireworks():
                    continue
                ms = mvpd_set(w)
                best = max(len(weighty_cells(m)) for m in ms)
                for m in ms:
                    assert is_top(m, w) == (len(weighty_cells(m)) == best)

    def test_refuses_w_that_is_not_inverse_fireworks(self):
        w = Perm.from_one_line([3, 1, 4, 2])
        with pytest.raises(ValueError, match="not inverse fireworks"):
            is_top(mvpd_set(w)[0], w)

    def test_first_column_of_tops(self):
        # Only blanks and horizontals survive in column 1 of a top diagram.
        for w in symmetric_group(5):
            if not w.is_inverse_fireworks():
                continue
            for m in top_mvpd_set(w):
                for i in range(1, m.rows + 1):
                    assert m.tile(i, 1) in (Tile.BLANK, Tile.HORIZONTAL)

    def test_max_weight_equals_pipe_travel(self):
        for w in symmetric_group(5):
            if not w.is_inverse_fireworks():
                continue
            assert max(len(weighty_cells(m)) for m in mvpd_set(w)) == w.pipe_travel()


class TestSaturation:
    def test_tops_are_saturated(self):
        for m in top_mvpd_set(W2413):
            assert find_upgrade(m, trace(m), W2413) is None

    def test_markable_elbow_upgrade(self):
        m = parse_mvpd(4, "-JrJ\n--J.\n....\n....")
        step, out, out_tr = find_upgrade(m, trace(m), W2413)
        assert step == Step("mark", (1, 3)) and out.tile(1, 3) is Tile.MARKED_SE
        assert out_tr == trace(out)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_upgrade_gains_one_weighty_tile_in_its_row(self, n):
        for w in symmetric_group(n):
            for m in mvpd_set(w):
                up = find_upgrade(m, trace(m), w)
                if up is None:
                    continue
                step, m2, tr2 = up
                assert m2 == step.apply(m, w) and tr2 == trace(m2)
                assert member_trace(m2, w) is not None
                assert weighty_cells(m2) == weighty_cells(m) | {step.cell}

    def test_markable_matches_a_scan_of_the_pipe(self):
        # An elbow is markable iff its pipe passes a horizontal in a lower row.
        for w in symmetric_group(4):
            for m in mvpd_set(w):
                tr = trace(m)
                for i, j, t in m.cells():
                    if t not in (Tile.ELBOW_SE, Tile.MARKED_SE):
                        assert not tr.markable(i, j)
                        continue
                    (label,) = tr.pipe_at(i, j)
                    lower = any(
                        r > i and m.tile(r, c) is Tile.HORIZONTAL
                        for (r, c), (w_in, s_in, _, _) in tr.cells.items()
                        if label in (w_in, s_in)
                    )
                    assert tr.markable(i, j) == lower

    def test_every_pipe_owns_a_horizontal(self):
        for n in (3, 4):
            for w in symmetric_group(n):
                for m in mvpd_set(w):
                    tr = trace(m)
                    for label in m.entering_rows:
                        assert any(
                            m.tile(*cell) is Tile.HORIZONTAL
                            for cell, (w_in, _, _, _) in tr.cells.items()
                            if w_in == label
                        ), f"pipe {label} with no horizontal in\n{m.render_text()}"

    def test_saturated_has_no_strand_before_real_crossing(self):
        # South-east traversals never sit immediately left of a real crossing.
        for n in (3, 4):
            for w in symmetric_group(n):
                for m in mvpd_set(w):
                    if find_upgrade(m, trace(m), w) is not None:
                        continue
                    tr = trace(m)

                    def real_crossing(i, j):
                        _, s_in, n_out, _ = tr.cells[(i, j)]
                        return m.tile(i, j) is Tile.CROSS and n_out == s_in

                    for i, j, t in m.cells():
                        se_strand = t in (Tile.ELBOW_SE, Tile.MARKED_SE, Tile.BUMP) or (
                            t is Tile.CROSS and not real_crossing(i, j)
                        )
                        if not se_strand or j == m.cols:
                            continue
                        assert not real_crossing(i, j + 1)
