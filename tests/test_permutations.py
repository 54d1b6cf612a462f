import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipedreams.permutations import Perm, symmetric_group


def perm(*values) -> Perm:
    return Perm.from_one_line(values)


def decreasing_runs(u: Perm) -> tuple[tuple[int, ...], ...]:
    """Maximal decreasing factors of u's one-line word, which they
    concatenate to: with ``run_firsts``, the oracle for the fireworks
    predicates."""
    runs: list[list[int]] = []
    for v in u.letters:
        if runs and runs[-1][-1] > v:
            runs[-1].append(v)
        else:
            runs.append([v])
    return tuple(tuple(r) for r in runs)


def run_firsts(u: Perm) -> tuple[int, ...]:
    return tuple(r[0] for r in decreasing_runs(u))


class TestConstruction:
    def test_from_one_line(self):
        assert perm(2, 4, 1, 3).letters == (2, 4, 1, 3)
        assert perm(1).letters == (1,)
        assert perm(3, 1, 6, 7, 5, 4, 2).n == 7

    @pytest.mark.parametrize("bad", [[], [1, 1], [0, 1], [1, 3], [2, 2, 1]])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            Perm.from_one_line(bad)

    def test_json_round_trip(self):
        w = perm(2, 4, 1, 3)
        assert Perm.from_one_line(w.to_json()) == w


class TestInverse:
    def test_worked_example(self):
        assert perm(2, 4, 5, 1, 3).inverse == perm(4, 1, 5, 2, 3)

    def test_identity(self):
        assert Perm.identity(4).inverse == Perm.identity(4)

    def test_2413(self):
        assert perm(2, 4, 1, 3).inverse == perm(3, 1, 4, 2)

    @given(st.permutations(list(range(1, 7))))
    def test_involution(self, letters):
        w = Perm.from_one_line(letters)
        assert w.inverse.inverse == w
        for i in range(1, w.n + 1):
            assert w.inverse(w(i)) == i


class TestStatistics:
    def test_inversions(self):
        assert perm(2, 4, 1, 3).inversions() == 3
        assert Perm.identity(5).inversions() == 0
        assert perm(5, 4, 3, 2, 1).inversions() == 10

    def test_major_index(self):
        assert perm(1, 4, 5, 6, 3, 2).major_index() == 9
        assert Perm.identity(3).major_index() == 0
        assert perm(3, 2, 1).major_index() == 3

    def test_decreasing_runs(self):
        assert decreasing_runs(perm(3, 1, 6, 7, 5, 4, 2)) == ((3, 1), (6,), (7, 5, 4, 2))
        assert decreasing_runs(Perm.identity(3)) == ((1,), (2,), (3,))
        assert decreasing_runs(perm(1, 4, 5, 6, 3, 2)) == ((1,), (4,), (5,), (6, 3, 2))

    def test_fireworks(self):
        assert perm(3, 1, 6, 7, 5, 4, 2).is_fireworks()
        assert not perm(6, 1, 3, 7, 5, 4, 2).is_fireworks()
        assert Perm.identity(4).is_fireworks()
        assert perm(1).is_fireworks()

    def test_inverse_fireworks(self):
        assert perm(1, 6, 5, 2, 3, 4).is_inverse_fireworks()
        assert perm(2, 4, 1, 3).is_inverse_fireworks()
        assert Perm.identity(3).is_inverse_fireworks()
        assert not perm(3, 1, 4, 2).is_inverse_fireworks()

    def test_one_scan_predicates_match_the_run_firsts_definition(self):
        def firsts_increase(u):
            firsts = run_firsts(u)
            return all(a < b for a, b in zip(firsts, firsts[1:]))

        for n in range(1, 8):
            for w in symmetric_group(n):
                assert w.is_fireworks() == firsts_increase(w), w
                assert w.is_inverse_fireworks() == firsts_increase(w.inverse), w

    def test_lr_maxima(self):
        assert perm(2, 1, 4, 3).lr_maxima() == {2, 4}
        assert perm(1, 2, 5, 4, 7, 3, 8, 6).lr_maxima() == {1, 2, 5, 7, 8}
        assert Perm.identity(4).lr_maxima() == {1, 2, 3, 4}

    def test_fireworks_run_firsts_are_the_maxima(self):
        for n in range(1, 7):
            for u in symmetric_group(n):
                if u.is_fireworks():
                    assert u.lr_maxima() == set(run_firsts(u))


class TestCodes:
    def test_column_code_worked_example(self):
        w = perm(1, 2, 5, 4, 7, 3, 8, 6).inverse
        assert w.column_code() == (0, 0, 0, 4, 0, 3, 0, 6)

    def test_column_code_small(self):
        w = perm(3, 1, 4, 2).inverse  # inverse one-line 3142
        assert w.column_code() == (0, 1, 0, 2)
        assert Perm.identity(4).column_code() == (0, 0, 0, 0)

    def test_column_code_starts_with_zero(self):
        for n in range(1, 6):
            for w in symmetric_group(n):
                assert w.column_code()[0] == 0

    def test_reduced_column_code(self):
        assert perm(1, 6, 5, 2, 3, 4).reduced_column_code() == (0, 0, 0, 3, 2)
        assert Perm.identity(4).reduced_column_code() == (0, 0, 0)
        assert perm(2, 4, 1, 3).reduced_column_code() == (1, 0, 2)
        with pytest.raises(ValueError):
            perm(3, 1, 4, 2).reduced_column_code()

    def test_pipe_travel(self):
        assert perm(1, 2, 5, 4, 7, 3, 8, 6).inverse.pipe_travel() == 15
        assert Perm.identity(5).pipe_travel() == 0
        assert perm(2, 4, 1, 3).pipe_travel() == 4

    def test_pipe_travel_equals_major_index_of_inverse(self):
        # For inverse fireworks only.
        for n in range(1, 7):
            for w in symmetric_group(n):
                if w.is_inverse_fireworks():
                    assert w.pipe_travel() == w.inverse.major_index()

    def test_column_codes_are_distinct(self):
        # So the MVPD sets of different w of one size are disjoint.
        for n in range(1, 6):
            codes = [w.column_code() for w in symmetric_group(n)]
            assert len(set(codes)) == len(codes)
