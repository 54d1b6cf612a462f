import gc
import json
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedreams import diagrams
from pipedreams.diagrams import Diagram, Kind, Tile, signed_single_sum, signed_weight_sum, weight
from pipedreams.mvpd import double_grothendieck_via_mvpd, grothendieck_via_mvpd, mvpd_set
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import double_grothendieck, grothendieck, pd_from_crosses, pd_set
from pipedreams.polynomials import Monomial, Poly

from weight_oracle import expand_each


def mono(n, **exps) -> Monomial:
    xs = [0] * n
    ys = [0] * n
    for name, e in exps.items():
        block, idx = name[0], int(name[1:])
        (xs if block == "x" else ys)[idx - 1] = e
    return Monomial(tuple(xs), tuple(ys))


# Small random polynomials for the ring-axiom spot checks.
def polys(n=2, max_terms=4):
    monomials = st.tuples(
        st.tuples(*[st.integers(0, 2)] * n), st.tuples(*[st.integers(0, 1)] * n)
    ).map(lambda t: Monomial(*t))
    return st.dictionaries(monomials, st.integers(-5, 5), max_size=max_terms).map(
        lambda d: Poly(n, d)
    )


class TestMonomial:
    def test_weight_monomial(self):
        # ``weight`` counts each row's weighty tiles.
        assert weight(pd_from_crosses(3, {(1, 1), (2, 1), (1, 2)})) == mono(3, x1=2, x2=1)
        assert weight(pd_from_crosses(3, set())) == mono(3)
        assert weight(crosses_only_at(2, {(1, 1), (1, 2), (2, 1), (2, 2)})) == mono(2, x1=2, x2=2)

    def test_divides_and_times(self):
        a = mono(2, x1=1, x2=2)
        b = mono(2, x1=2, x2=2)
        assert a.divides(b) and not b.divides(a)
        assert a.times_x(1) == b
        assert (a * mono(2, x1=1)) == b

    def test_degree(self):
        assert mono(2, x1=2, y2=1).degree == 3

    def test_fields_are_read_only(self):
        m = mono(2, x1=1)
        with pytest.raises(AttributeError):
            m.x = (2, 0)

    def test_equal_monomials_hash_equal(self):
        a = mono(3, x1=1, y2=2)
        b = Monomial(tuple([1, 0, 0]), tuple([0, 2, 0]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_star_multiplies_and_does_not_repeat(self):
        a = mono(2, x1=1, y2=1)
        assert a * a == mono(2, x1=2, y2=2)
        assert len(a * a) == 2


class TestArithmetic:
    def test_add_zero(self):
        p = Poly(2, {mono(2, x1=1): 1})
        assert p + Poly(2) == p

    def test_product_of_variables(self):
        x1 = Poly(2, {mono(2, x1=1): 1})
        x2 = Poly(2, {mono(2, x2=1): 1})
        assert x1 * x2 == Poly(2, {mono(2, x1=1, x2=1): 1})

    def test_cancellation(self):
        p = Poly(2, {mono(2, x1=1): 1})
        assert not p + p.scale(-1)

    def test_cancelled_products_store_no_zero(self):
        # (x1 + 1)(x1 - 1): the two x1 terms cancel inside the product.
        p = Poly(2, {mono(2, x1=1): 1, mono(2): 1}) * Poly(2, {mono(2, x1=1): 1, mono(2): -1})
        assert p.support() == {mono(2, x1=2), mono(2)}
        assert p == Poly(2, {mono(2, x1=2): 1, mono(2): -1})

    @pytest.mark.parametrize("op", ["__add__", "__mul__"])
    def test_variable_count_mismatch(self, op):
        with pytest.raises(ValueError, match="variable count mismatch: 2 vs 3"):
            getattr(Poly(2), op)(Poly(3))

    @given(polys(), polys(), polys())
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def double_weight(n, crosses):
    """The double weight of one pipe dream, expanded by ``signed_weight_sum``
    with its sign made positive."""
    d = pd_from_crosses(n, frozenset(crosses))
    return signed_weight_sum(Perm.identity(n), [d]).scale((-1) ** len(crosses))


class TestFactors:
    def test_single_factor(self):
        f = double_weight(2, [(1, 1)])
        assert f == Poly(
            2, {mono(2, x1=1): 1, mono(2, y1=1): 1, mono(2, x1=1, y1=1): -1}
        )

    def test_empty_product(self):
        assert double_weight(3, []) == Poly(3, {mono(3): 1})

    def test_expansion_matches_pointwise_product(self):
        rng = random.Random(7)
        cells = [(1, 1), (2, 1), (2, 2)]
        p = double_weight(4, cells)
        for _ in range(25):
            xs = [rng.randint(-4, 4) for _ in range(4)]
            ys = [rng.randint(-4, 4) for _ in range(4)]
            direct = 1
            for i, j in cells:
                direct *= xs[i - 1] + ys[j - 1] - xs[i - 1] * ys[j - 1]
            value = 0
            for m, c in p.items():
                for base, e in zip(xs + ys, m.x + m.y):
                    c *= base**e
                value += c
            assert value == direct


# The shape of the signed sum for one-line 2413, used as a degree fixture.
G_2413 = Poly(
    2,
    {
        mono(2, x1=1, x2=2): 1,
        mono(2, x1=2, x2=1): 1,
        mono(2, x1=2, x2=2): -1,
    },
)


class TestDegreeQueries:
    def test_support(self):
        assert G_2413.support() == {
            mono(2, x1=1, x2=2),
            mono(2, x1=2, x2=1),
            mono(2, x1=2, x2=2),
        }

    def test_top_component(self):
        assert G_2413.top_component() == Poly(2, {mono(2, x1=2, x2=2): -1})

    def test_degrees(self):
        assert G_2413.total_degree() == 4
        assert min(m.degree for m, _ in G_2413.items()) == 3

    def test_zero_degree_raises(self):
        with pytest.raises(ValueError):
            Poly(2).total_degree()


class TestText:
    def test_graded_lex_output(self):
        assert G_2413.text() == "x1*x2^2 + x1^2*x2 - x1^2*x2^2"

    def test_constants(self):
        one = Poly(2, {mono(2): 1})
        assert one.text() == "1"
        assert Poly(2).text() == "0"
        assert one.scale(-3).text() == "-3"

    def test_coefficients_and_y(self):
        p = Poly(1, {mono(1, x1=1): 2, mono(1, x1=1, y1=1): -1})
        assert p.text() == "2*x1 - x1*y1"

    def test_repr(self):
        assert repr(G_2413) == "Poly(x1*x2^2 + x1^2*x2 - x1^2*x2^2)"
        assert repr(Poly(2)) == "Poly(0)"


class TestCanonicalOrder:
    # The double polynomial of 132, as the dataclass Monomial printed it.
    JSON_132 = (
        '[{"c": 1, "x": [0, 1, 0], "y": [0, 0, 0]}, {"c": 1, "x": [1, 0, 0], "y": [0, 0, 0]}, '
        '{"c": 1, "x": [0, 0, 0], "y": [0, 1, 0]}, {"c": 1, "x": [0, 0, 0], "y": [1, 0, 0]}, '
        '{"c": -1, "x": [1, 1, 0], "y": [0, 0, 0]}, {"c": -1, "x": [0, 1, 0], "y": [0, 1, 0]}, '
        '{"c": -1, "x": [1, 0, 0], "y": [0, 1, 0]}, {"c": -1, "x": [0, 1, 0], "y": [1, 0, 0]}, '
        '{"c": -1, "x": [1, 0, 0], "y": [1, 0, 0]}, {"c": -1, "x": [0, 0, 0], "y": [1, 1, 0]}, '
        '{"c": 1, "x": [1, 1, 0], "y": [0, 1, 0]}, {"c": 1, "x": [1, 1, 0], "y": [1, 0, 0]}, '
        '{"c": 1, "x": [0, 1, 0], "y": [1, 1, 0]}, {"c": 1, "x": [1, 0, 0], "y": [1, 1, 0]}, '
        '{"c": -1, "x": [1, 1, 0], "y": [1, 1, 0]}]'
    )

    def test_to_json_bytes_are_unchanged(self):
        p = double_grothendieck(Perm.from_one_line([1, 3, 2]))
        assert json.dumps(p.to_json()) == self.JSON_132

    def test_sorted_items_order_is_unchanged(self):
        p = double_grothendieck(Perm.from_one_line([1, 3, 2]))
        want = [
            (Monomial(tuple(t["x"]), tuple(t["y"])), t["c"]) for t in json.loads(self.JSON_132)
        ]
        assert p.sorted_items() == want


def crosses_only_at(n: int, cells) -> Diagram:
    """An n x n grid with crosses at ``cells`` and blanks elsewhere."""
    return Diagram(
        Kind.PD,
        n,
        tuple(
            tuple(Tile.CROSS if (i, j) in cells else Tile.BLANK for j in range(1, n + 1))
            for i in range(1, n + 1)
        ),
    )


class TestSignedWeightSum:
    """The shared-prefix expansion against the per-diagram oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "fill, single", [(pd_set, grothendieck), (mvpd_set, grothendieck_via_mvpd)], ids=["pd", "mvpd"]
    )
    def test_every_permutation_matches_the_oracle(self, n, fill, single):
        # The single route of each species against its own list: the PD
        # route reads the weight fold, the MVPD route counts its list.
        for w in symmetric_group(n):
            ds = fill(w)
            assert single(w) == expand_each(w, ds, double=False), w
            assert signed_weight_sum(w, ds) == expand_each(w, ds, double=True), w

    def test_sampled_s6_matches_the_oracle(self):
        # Every 7th w of S_6 of length at most 4: the oracle takes ~90 s on
        # the whole every-7th sample, ~1 s on this part of it.
        for w in list(symmetric_group(6))[::7]:
            if w.inversions() <= 4:
                ds = pd_set(w)
                assert signed_weight_sum(w, ds) == expand_each(w, ds, double=True)

    @pytest.mark.parametrize("n", [3, 7, 8])
    def test_exponent_n_fills_its_field(self, n):
        # A full first row raises x_1 to n, a full first column y_1; at n = 7
        # that fills a 3-bit field, and at n = 8 the field grows to 4 bits.
        row = {(1, j) for j in range(1, n + 1)}
        column = {(i, 1) for i in range(1, n + 1)}
        ds = [crosses_only_at(n, cells) for cells in (row, column, row - {(1, n)})]
        w = Perm.identity(n)
        single = signed_single_sum(w, Counter(weight(d).x for d in ds))
        for p, double in ((single, False), (signed_weight_sum(w, ds), True)):
            assert p == expand_each(w, ds, double=double)
            assert max(m.x[0] for m in p.support()) == n
        assert max(m.y[0] for m in p.support()) == n

    def test_a_diagram_of_another_size_is_refused(self):
        d = pd_from_crosses(3, frozenset({(1, 2)}))
        with pytest.raises(ValueError, match="size 3"):
            signed_weight_sum(Perm.identity(2), [d])


class TestMonomialTable:
    """The double sums take their monomials from one bounded table of the
    monomials of one size, held in the one state of the double sums; each
    test starts from no state."""

    @pytest.fixture(autouse=True)
    def no_state(self, monkeypatch):
        monkeypatch.setattr(diagrams, "_double", None)

    def test_equal_monomials_are_one_object(self):
        polys = []
        for w in symmetric_group(5):
            p, q = double_grothendieck(w), double_grothendieck_via_mvpd(w)
            assert p == q, w
            q_keys = {m: m for m, _ in q.items()}
            assert all(q_keys[m] is m for m, _ in p.items()), w
            polys += (p, q)
        assert len(polys) == 240
        monomials = [m for p in polys for m, _ in p.items()]
        assert len({id(m) for m in monomials}) == len(set(monomials)) == 14_400

    @pytest.mark.parametrize("bound", [0, 1, None], ids=["0", "1", "MAX_MONOMIALS"])
    def test_sums_do_not_depend_on_the_table(self, monkeypatch, bound):
        # Sizes 3 and 4 pack their exponents 2 and 3 bits wide, so a table
        # left by the other size would decode to wrong monomials.
        if bound is not None:
            monkeypatch.setattr(diagrams, "MAX_MONOMIALS", bound)
        for n in (1, 2, 3, 4, 3):
            for w in symmetric_group(n):
                for fill in (pd_set, mvpd_set):
                    ds = fill(w)
                    p = signed_weight_sum(w, ds)
                    assert p == expand_each(w, ds, double=True)
                    size, table, _, _ = diagrams._double
                    assert size == n
                    assert len(table) <= diagrams.MAX_MONOMIALS

    def test_a_sum_that_would_pass_the_bound_leaves_the_table_as_it_was(self, monkeypatch):
        # 231's eight monomials enter a table bounded at 15; 132 lacks 11
        # more, which would take it to 19, so its sum keeps them to itself.
        monkeypatch.setattr(diagrams, "MAX_MONOMIALS", 15)
        double_grothendieck(Perm.from_one_line([2, 3, 1]))
        kept = set(diagrams._double[1])
        assert len(kept) == 8
        w = Perm.from_one_line([1, 3, 2])
        assert double_grothendieck(w) == expand_each(w, pd_set(w), double=True)
        assert set(diagrams._double[1]) == kept

    def test_a_sum_past_the_bound_leaves_the_table_empty(self, monkeypatch):
        # 4231 has 128 distinct double monomials: past a bound of 5, its
        # first route decodes them into a table of its own.  The second
        # route groups alike, so it is served the held polynomial.
        monkeypatch.setattr(diagrams, "MAX_MONOMIALS", 5)
        w = Perm.from_one_line([4, 2, 3, 1])
        p = double_grothendieck(w)
        assert len(p.support()) > 5 and not diagrams._double[1]
        assert p == expand_each(w, pd_set(w), double=True)
        assert double_grothendieck_via_mvpd(w) is p
        assert not diagrams._double[1]

    def test_a_sweep_stays_within_the_bound(self):
        for w in symmetric_group(5):
            double_grothendieck(w)
            double_grothendieck_via_mvpd(w)
        size, table, _, _ = diagrams._double
        assert size == 5 and 0 < len(table) <= diagrams.MAX_MONOMIALS


class TestLastDoubleSum:
    """A double sum whose size and grouping equal the last double sum's is
    served that sum's polynomial while a caller still holds it."""

    def test_both_routes_of_a_w_return_one_polynomial(self):
        for n in range(1, 6):
            for w in symmetric_group(n):
                assert double_grothendieck(w) is double_grothendieck_via_mvpd(w), w

    def test_another_grouping_is_expanded_afresh(self):
        # 1432 is odd: under the even identity the same pipe dreams flip
        # every sign, and one pipe dream fewer loses a group.
        w, even = Perm.from_one_line([1, 4, 3, 2]), Perm.identity(4)
        ds = pd_set(w)
        p = signed_weight_sum(w, ds)
        for v, es in ((even, ds), (w, ds[:-1])):
            q = signed_weight_sum(v, es)
            assert q is not p
            assert q == expand_each(v, es, double=True)
        assert signed_weight_sum(even, ds) == p.scale(-1)

    def test_no_polynomial_is_kept_alive(self):
        w = Perm.from_one_line([4, 2, 3, 1])
        p, q = double_grothendieck(w), double_grothendieck_via_mvpd(w)
        held = weakref.ref(p)
        del p, q
        gc.collect()
        assert held() is None
        assert double_grothendieck_via_mvpd(w) == expand_each(w, mvpd_set(w), double=True)

    def test_a_polynomial_has_no_dict(self):
        assert not hasattr(Poly(2), "__dict__")


class TestJson:
    def test_round_trip(self):
        data = G_2413.to_json()
        terms = {Monomial(tuple(t["x"]), tuple(t["y"])): t["c"] for t in data}
        assert Poly(2, terms) == G_2413

    def test_canonical_order(self):
        data = G_2413.to_json()
        assert data == sorted(
            data, key=lambda t: (sum(t["x"]) + sum(t["y"]), tuple(t["y"]), tuple(t["x"]))
        )
        assert json.loads(json.dumps(data)) == data
