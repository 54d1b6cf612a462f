import pytest

from pipedreams import bvpd, diagrams
from pipedreams.bvpd import (
    bvpd_to_mvpd,
    bvpd_to_pd,
    east_exit_cells,
    enumerate_bvpd,
    mvpd_to_bvpd,
    pd_to_bvpd,
    predicted_cross_cells,
    top_grothendieck_via_bvpd,
)
from pipedreams.diagrams import Diagram, Kind, Tile, sort_key, validate, weight, weighty_cells
from pipedreams.mvpd import is_top, mvpd_set, top_mvpd_set
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import grothendieck, max_cross_count, top_pd_set

W165234 = Perm.from_one_line([1, 6, 5, 2, 3, 4])
W2413 = Perm.from_one_line([2, 4, 1, 3])

SIX_WEIGHTS = {
    "x1^2*x2^4*x3^3",
    "x1^3*x2^3*x3^3",
    "x1^4*x2^2*x3^3",
    "x1^3*x2^4*x3^2",
    "x1^4*x2^3*x3^2",
    "x1^4*x2^4*x3",
}


def inverse_fireworks(n):
    return [w for w in symmetric_group(n) if w.is_inverse_fireworks()]


class TestEnumeration:
    def test_165234_has_six(self):
        bs = enumerate_bvpd(W165234)
        assert len(bs) == 6
        assert {weight(b).text() for b in bs} == SIX_WEIGHTS

    def test_identity_is_blank(self):
        w = Perm.identity(4)
        (b,) = enumerate_bvpd(w)
        assert all(t is Tile.BLANK for _, _, t in b.cells())

    def test_2413_unique(self):
        (b,) = enumerate_bvpd(W2413)
        assert b.render_text() == "JrJ\n-J.\n...\n..."
        assert weight(b).text() == "x1^2*x2^2"

    def test_rejects_non_inverse_fireworks(self):
        with pytest.raises(ValueError):
            enumerate_bvpd(Perm.from_one_line([3, 1, 4, 2]))

    def test_members_validate(self):
        for b in enumerate_bvpd(W165234):
            assert validate(b) == []


class TestWeightyCells:
    def test_2413_cells(self):
        (b,) = enumerate_bvpd(W2413)
        assert weighty_cells(b) == {(1, 1), (1, 3), (2, 1), (2, 2)}
        assert east_exit_cells(b) == {(1, 2), (2, 1)}

    def test_blank_weight_is_one(self):
        (b,) = enumerate_bvpd(Perm.identity(3))
        assert weight(b).degree == 0

    def test_elbow_balance_per_pipe(self):
        # Each pipe turns north once more than it turns east, so the
        # west-north elbows outnumber the south-east ones by the pipe count.
        for w in inverse_fireworks(5):
            for b in enumerate_bvpd(w):
                wn = sum(1 for _, _, t in b.cells() if t is Tile.ELBOW_WN)
                se = sum(1 for _, _, t in b.cells() if t is Tile.ELBOW_SE)
                assert wn == se + len(b.entering_rows)


class TestTopFormula:
    def test_165234(self):
        p = top_grothendieck_via_bvpd(W165234)
        assert p.text() == (
            "x1^2*x2^4*x3^3 + x1^3*x2^3*x3^3 + x1^3*x2^4*x3^2"
            " + x1^4*x2^2*x3^3 + x1^4*x2^3*x3^2 + x1^4*x2^4*x3"
        )

    def test_identity(self):
        assert top_grothendieck_via_bvpd(Perm.identity(3)).text() == "1"

    def test_2413_matches_signed_top_component(self):
        sign = -1 if (max_cross_count(W2413) - W2413.inversions()) % 2 else 1
        assert top_grothendieck_via_bvpd(W2413) == grothendieck(W2413).top_component().scale(sign)

    def test_lists_no_diagram(self, monkeypatch):
        # The formula reads the weight fold: it builds no ``Diagram`` and
        # lists nothing, through ``members`` or ``enumerate_bvpd``.
        ws = inverse_fireworks(5)
        want = [top_grothendieck_via_bvpd(w) for w in ws]

        def refuse(*args, **kwargs):
            raise AssertionError("the top formula listed diagrams")

        monkeypatch.setattr(Diagram, "__post_init__", refuse)
        monkeypatch.setattr(diagrams, "members", refuse)
        monkeypatch.setattr(bvpd, "members", refuse)
        monkeypatch.setattr(bvpd, "enumerate_bvpd", refuse)
        assert [top_grothendieck_via_bvpd(w) for w in ws] == want

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sweep(self, n):
        for w in inverse_fireworks(n):
            sign = -1 if (max_cross_count(w) - w.inversions()) % 2 else 1
            assert top_grothendieck_via_bvpd(w) == grothendieck(w).top_component().scale(sign)


class TestColumnMaps:
    def test_identity_round_trip(self):
        w = Perm.identity(3)
        (m,) = top_mvpd_set(w)
        b = mvpd_to_bvpd(m, w)
        assert all(t is Tile.BLANK for _, _, t in b.cells())
        assert bvpd_to_mvpd(b, w) == m

    def test_set_equality_and_weights(self):
        for n in (3, 4, 5):
            for w in inverse_fireworks(n):
                tops = top_mvpd_set(w)
                bs = enumerate_bvpd(w)
                image = sorted((mvpd_to_bvpd(m, w) for m in tops), key=sort_key)
                assert image == sorted(bs, key=sort_key)
                for m in tops:
                    b = mvpd_to_bvpd(m, w)
                    assert weight(m) == weight(b)
                    assert bvpd_to_mvpd(b, w) == m
                for b in bs:
                    assert mvpd_to_bvpd(bvpd_to_mvpd(b, w), w) == b

    def test_marks_are_always_valid_after_insertion(self):
        # The inserted first column gives every pipe a lower horizontal.
        for w in inverse_fireworks(4):
            for b in enumerate_bvpd(w):
                assert validate(bvpd_to_mvpd(b, w)) == []

    def test_non_top_input_rejected(self):
        non_tops = [m for m in mvpd_set(W2413) if not is_top(m, W2413)]
        assert non_tops
        for m in non_tops:
            with pytest.raises(ValueError):
                mvpd_to_bvpd(m, W2413)

    @pytest.mark.parametrize(
        "kind, w, rows",
        [
            (Kind.PD, "3,2,1", "++J/+J./J.."),
            (Kind.PD, "2,4,1,3", "+b+J/++J./bJ../J..."),
            (Kind.BVPD, "2,4,1,3", "JrJ/-J./.../..."),
        ],
        ids=["pd-321", "top-pd-2413", "bvpd-2413"],
    )
    def test_another_species_is_refused(self, kind, w, rows):
        # 321's PD passes the marked tile census, the 2413 grids fail it: the
        # species is refused before either.
        w = Perm.from_one_line(int(v) for v in w.split(","))
        d = Diagram.from_rows(kind, w.n, rows.split("/"))
        with pytest.raises(ValueError, match=f"expected an MVPD, got {kind.value}"):
            mvpd_to_bvpd(d, w)


class TestCompositeMap:
    def test_2413(self):
        (b,) = enumerate_bvpd(W2413)
        p = bvpd_to_pd(b, W2413)
        assert p.render_text() == "+b+J\n++J.\nbJ..\nJ..."
        assert p in top_pd_set(W2413)
        assert pd_to_bvpd(p, W2413) == b

    def test_identity(self):
        w = Perm.identity(3)
        (b,) = enumerate_bvpd(w)
        p = bvpd_to_pd(b, w)
        assert all(t is not Tile.CROSS for _, _, t in p.cells())

    def test_cross_characterization(self):
        for n in (3, 4, 5):
            for w in inverse_fireworks(n):
                for b in enumerate_bvpd(w):
                    assert weighty_cells(bvpd_to_pd(b, w)) == predicted_cross_cells(b)

    def test_bijection_onto_top_pds(self):
        for n in (3, 4, 5):
            for w in inverse_fireworks(n):
                bs = enumerate_bvpd(w)
                image = sorted((bvpd_to_pd(b, w) for b in bs), key=sort_key)
                assert image == sorted(top_pd_set(w), key=sort_key)
                for b in bs:
                    assert pd_to_bvpd(bvpd_to_pd(b, w), w) == b

    def test_traces_its_bvpd_once(self, monkeypatch):
        # The BVPD is checked at the door; the MVPD between is not re-traced.
        traced = []
        plain_trace = diagrams.trace

        def counting_trace(d):
            traced.append(d)
            return plain_trace(d)

        cases = [(w, b) for w in inverse_fireworks(5) for b in enumerate_bvpd(w)]
        assert len(cases) == 66
        monkeypatch.setattr(diagrams, "trace", counting_trace)
        for w, b in cases:
            traced.clear()
            bvpd_to_pd(b, w)
            assert traced == [b]


class TestWeights:
    def test_weight_order_is_canonical(self):
        ws = [weight(d) for d in enumerate_bvpd(W165234)]
        assert len(ws) == 6
        assert {m.text() for m in ws} == SIX_WEIGHTS
