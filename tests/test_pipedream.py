import pytest

from pipedreams.diagrams import Tile, trace, weighty_cells
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import (
    MAX_N,
    double_grothendieck,
    enumerate_all,
    grothendieck,
    max_cross_count,
    pd_from_crosses,
    pd_set,
    top_pd_set,
)
from pipedreams.polynomials import Monomial, Poly

W2413 = Perm.from_one_line([2, 4, 1, 3])


def displayed_product(n, cells):
    """The double weight of one diagram as a product of explicit factors
    x_i + y_j - x_i*y_j, multiplied out by ``Poly``."""
    zero = (0,) * n
    out = Poly(n, {Monomial(zero, zero): 1})
    for i, j in cells:
        x = Monomial(tuple(int(k == i) for k in range(1, n + 1)), zero)
        y = Monomial(zero, tuple(int(k == j) for k in range(1, n + 1)))
        out = out * Poly(n, {x: 1, y: 1, x * y: -1})
    return out


# The three diagrams of 2413, identified by their cross cells.
CROSS_SETS_2413 = [
    {(1, 1), (2, 1), (2, 2)},
    {(1, 1), (2, 1), (1, 3)},
    {(1, 1), (2, 1), (2, 2), (1, 3)},
]


class TestEnumeration:
    def test_n2(self):
        assert pd_set(Perm.identity(2)) == (pd_from_crosses(2, frozenset()),)
        assert pd_set(Perm.from_one_line([2, 1])) == (pd_from_crosses(2, frozenset({(1, 1)})),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_filling_count(self, n):
        idx = enumerate_all(n)
        assert sum(len(v) for v in idx.by_perm.values()) == 2 ** (n * (n - 1) // 2)

    def test_2413_golden(self):
        ds = pd_set(W2413)
        assert len(ds) == 3
        assert {weighty_cells(d) for d in ds} == {frozenset(s) for s in CROSS_SETS_2413}

    def test_singletons(self):
        assert len(pd_set(Perm.identity(4))) == 1
        w0 = Perm.from_one_line([4, 3, 2, 1])
        (d,) = pd_set(w0)
        assert all(t is Tile.CROSS for i, j, t in d.cells() if i + j <= 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_enumerate_all_is_pd_set_per_w(self, n):
        # The contract the benchmark's set-ups read.
        assert enumerate_all(n).by_perm == {w: pd_set(w) for w in symmetric_group(n)}

    def test_bound(self):
        for letters in ([1, 2, 3, 4, 5, 7, 6], [2, 1, 3, 4, 5, 6, 7, 8]):
            with pytest.raises(ValueError, match=f"bound {MAX_N}"):
                pd_set(Perm.from_one_line(letters))

    def test_seven_is_refused_before_any_work(self, monkeypatch):
        # n = 7 is refused before a single cell is filled.
        import pipedreams.pipedream as pd_mod

        def no_fill(*args, **kwargs):
            raise AssertionError("pd_set started filling")

        monkeypatch.setattr(pd_mod, "members", no_fill)
        with pytest.raises(ValueError, match="above the pipe-dream bound"):
            pd_set(Perm.from_one_line([1, 2, 3, 4, 5, 7, 6]))

    def test_membership_is_by_inverse_reading(self):
        for d in pd_set(W2413):
            assert Perm(trace(d).code) == W2413.inverse


class TestPolynomials:
    def test_2413(self):
        assert grothendieck(W2413).text() == "x1*x2^2 + x1^2*x2 - x1^2*x2^2"

    def test_identity(self):
        one = Poly(3, {Monomial((0,) * 3, (0,) * 3): 1})
        assert grothendieck(Perm.identity(3)) == one
        assert double_grothendieck(Perm.identity(3)) == one

    def test_321(self):
        assert grothendieck(Perm.from_one_line([3, 2, 1])).text() == "x1^2*x2"

    def test_double_21(self):
        assert double_grothendieck(Perm.from_one_line([2, 1])).text() == "x1 + y1 - x1*y1"

    def test_double_2413_matches_displayed_products(self):
        expected = (
            displayed_product(4, [(1, 1), (2, 1), (2, 2)])
            + displayed_product(4, [(1, 1), (2, 1), (1, 3)])
            + displayed_product(4, [(1, 1), (2, 1), (2, 2), (1, 3)]).scale(-1)
        )
        assert double_grothendieck(W2413) == expected

    def test_sign_pattern(self):
        # Coefficient signs follow (-1)^(degree - inversions): no cancellation.
        for w in symmetric_group(4):
            ell = w.inversions()
            for m, c in grothendieck(w).items():
                assert c * (-1) ** (m.degree - ell) > 0

    def test_support_is_the_weight_multiset(self):
        for w in symmetric_group(4):
            weights = {
                tuple(
                    sum(1 for i, _ in weighty_cells(d) if i == r) for r in range(1, 5)
                )
                for d in pd_set(w)
            }
            assert {m.x for m in grothendieck(w).support()} == weights

    def test_min_component_is_positive_of_degree_ell(self):
        for w in symmetric_group(4):
            terms = list(grothendieck(w).items())
            ell = min(m.degree for m, _ in terms)
            assert ell == w.inversions()
            assert all(c > 0 for m, c in terms if m.degree == ell)

    def test_double_specializes_to_single(self):
        for w in symmetric_group(4):
            at_y_zero = {m: c for m, c in double_grothendieck(w).items() if not any(m.y)}
            assert Poly(4, at_y_zero) == grothendieck(w)


class TestDegreeStatistic:
    def test_2413(self):
        assert max_cross_count(W2413) == 4
        assert len(top_pd_set(W2413)) == 1

    def test_identity(self):
        assert max_cross_count(Perm.identity(4)) == 0

    def test_165234(self):
        w = Perm.from_one_line([1, 6, 5, 2, 3, 4])
        assert max_cross_count(w) == 9
        assert max_cross_count(w) == w.pipe_travel()

    def test_degree_of_the_polynomial(self):
        for w in symmetric_group(4):
            assert grothendieck(w).total_degree() == max_cross_count(w)
