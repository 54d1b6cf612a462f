import pytest

from itertools import combinations

from pipedreams import diagrams
from pipedreams.bvpd import enumerate_bvpd
from pipedreams.diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    allowed_tiles,
    is_member,
    members,
    mark_violations,
    trace,
    validate,
)
from pipedreams.mvpd import mvpd_set
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import pd_from_crosses, pd_set

from fill_oracle import oracle_members, unpruned_fill

# The n=5 diagram of one-line 24513 whose pipes 3 and 5 meet twice:
# really at (3,2) and then fake at (2,3).
EX_24513 = "+b+bJ\n+b+J.\n++J..\nbJ...\nJ...."


def parse(kind, n, text):
    return Diagram.parse_text(kind, n, text)


class TestTiles:
    def test_glyphs(self):
        assert "".join(t.value for t in Tile) == ".-+JrbR"

    def test_connections(self):
        assert Tile.BLANK.connects == frozenset()
        assert Tile.HORIZONTAL.connects == frozenset("WE")
        assert Tile.CROSS.connects == frozenset("WESN")
        assert Tile.ELBOW_WN.connects == frozenset("WN")
        assert Tile.ELBOW_SE.connects == frozenset("SE")
        assert Tile.BUMP.connects == frozenset("WESN")
        assert Tile.MARKED_SE.connects == Tile.ELBOW_SE.connects


class TestRenderParse:
    def test_identity_pd(self):
        d = pd_from_crosses(2, frozenset())
        assert d.render_text() == "bJ\nJ."

    def test_single_cross_pd(self):
        d = pd_from_crosses(2, frozenset({(1, 1)}))
        assert d.render_text() == "+J\nJ."

    def test_empty_bvpd(self):
        d = parse(Kind.BVPD, 2, ".\n.")
        assert d.render_text() == ".\n."
        assert d.entering_rows == frozenset()

    @pytest.mark.parametrize("text", ["bJ\nJ.", "+J\nJ."])
    def test_round_trip(self, text):
        assert parse(Kind.PD, 2, text).render_text() == text

    def test_round_trip_enumerated(self):
        from pipedreams.mvpd import mvpd_set

        for n in (3, 4):
            for w in symmetric_group(n):
                for d in pd_set(w):
                    assert parse(Kind.PD, n, d.render_text()) == d
                for m in mvpd_set(w):
                    assert parse(Kind.MVPD, n, m.render_text()) == m

    def test_bad_character(self):
        with pytest.raises(DiagramError):
            parse(Kind.PD, 2, "bX\nJ.")

    def test_bad_shape(self):
        with pytest.raises(DiagramError):
            parse(Kind.PD, 2, "bJJ\nJ..")

    def test_json_round_trip(self):
        d = parse(Kind.PD, 5, EX_24513)
        assert Diagram.from_json(d.to_json()) == d
        assert d.to_json() == {
            "kind": "PD",
            "n": 5,
            "rows": ["+b+bJ", "+b+J.", "++J..", "bJ...", "J...."],
        }


class TestValidate:
    def test_all_bump_pd_is_valid(self):
        assert not validate(pd_from_crosses(4, frozenset()))

    def test_bvpd_rejects_bump(self):
        d = Diagram(
            Kind.BVPD,
            3,
            ((Tile.BUMP, Tile.ELBOW_WN), (Tile.ELBOW_WN, Tile.BLANK), (Tile.BLANK,) * 2),
        )
        assert any("not allowed" in v for v in validate(d))

    def test_pd_region_is_forced(self):
        grid = [list(row) for row in pd_from_crosses(3, frozenset()).tiles]
        grid[2][2] = Tile.BUMP  # beyond the anti-diagonal
        d = Diagram(Kind.PD, 3, tuple(tuple(r) for r in grid))
        assert validate(d)

    def test_edge_mismatch_reported(self):
        # A lone horizontal feeding into a blank.
        d = Diagram(
            Kind.MVPD,
            2,
            ((Tile.HORIZONTAL, Tile.BLANK), (Tile.BLANK, Tile.BLANK)),
        )
        assert any("east/west" in v for v in validate(d))

    def test_markable_elbow_accepts_a_mark(self):
        good = parse(Kind.MVPD, 4, "-JrJ\n--J.\n....\n....")
        assert not validate(good)
        # Pipe 2 owns horizontals at (2,1) and (2,2), below row 1.
        assert validate(good.with_tiles({(1, 3): Tile.MARKED_SE})) == []

    def test_marked_without_lower_horizontal(self):
        # Pipe 2 turns at (2,1), climbs, and leaves; no horizontal anywhere.
        d = parse(Kind.MVPD, 3, "rJ.\nJ..\n...")
        assert not validate(d)
        bad = d.with_tiles({(1, 1): Tile.MARKED_SE})
        assert any("no lower horizontal" in v for v in validate(bad))


def neighbour_edge_problems(d):
    """Oracle: the edge check that ``validate`` made before the tracer became
    the one edge rule.  Every pair of neighbouring tiles must agree, and no
    tile may connect east out of the last column or south out of the last
    row."""
    out = []
    rows, cols = d.rows, d.cols
    for i, j, t in d.cells():
        if j == cols:
            if t.has("E"):
                out.append(f"({i},{j}): east connection leaves the grid")
        elif t.has("E") != d.tile(i, j + 1).has("W"):
            out.append(f"({i},{j})-({i},{j + 1}): east/west edges disagree")
        if i == rows:
            if t.has("S"):
                out.append(f"({i},{j}): south connection leaves the grid")
        elif t.has("S") != d.tile(i + 1, j).has("N"):
            out.append(f"({i},{j})-({i + 1},{j}): south/north edges disagree")
    return out


def oracle_rejects(d):
    """The verdict of ``validate`` with the neighbour loop as its edge rule."""
    if any(t not in allowed_tiles(d.kind, d.n, i, j) for i, j, t in d.cells()):
        return True
    return bool(neighbour_edge_problems(d) or mark_violations(d, trace(d)))


def species_members(n):
    """(w, diagrams of w) for every w of S_n and every species that has them."""
    for w in symmetric_group(n):
        yield w, pd_set(w)
        yield w, mvpd_set(w)
        if w.is_inverse_fireworks():
            yield w, enumerate_bvpd(w)


class TestEdgeRuleOracle:
    def test_one_tile_mutations(self):
        checked = 0
        for n in (3, 4):
            for _, ds in species_members(n):
                for d in ds:
                    for i, j, old in d.cells():
                        for t in Tile:
                            if t is old:
                                continue
                            mutant = d.with_tiles({(i, j): t})
                            assert bool(validate(mutant)) == oracle_rejects(mutant), mutant
                            checked += 1
        assert checked > 10_000

    def test_first_edge_problem_is_one_of_the_oracles(self):
        # The tracer names the first problem it meets, in the oracle's words.
        for _, ds in species_members(3):
            for d in ds:
                for i, j, _ in d.cells():
                    for t in Tile:
                        mutant = d.with_tiles({(i, j): t})
                        problems = neighbour_edge_problems(mutant)
                        if problems:
                            assert validate(mutant)[-1] in problems


class TestMembership:
    def test_member_exactly_of_its_own_permutation(self):
        perms = list(symmetric_group(4))
        for w_own, ds in species_members(4):
            for d in ds:
                for w in perms:
                    if d.kind is Kind.BVPD and not w.is_inverse_fireworks():
                        # Only inverse fireworks permutations have bumpless diagrams.
                        with pytest.raises(ValueError):
                            is_member(d, w)
                    else:
                        assert is_member(d, w) == (w == w_own)

    def test_other_size_is_not_a_member(self):
        d = pd_set(Perm.from_one_line([2, 1, 3]))[0]
        assert not is_member(d, Perm.from_one_line([2, 1, 3, 4]))

    def test_traces_a_member_once(self, monkeypatch):
        calls = []

        def counting_trace(d, **kwargs):
            calls.append(d)
            return trace(d, **kwargs)

        monkeypatch.setattr(diagrams, "trace", counting_trace)
        for w, ds in species_members(3):
            for d in ds:
                calls.clear()
                assert is_member(d, w)
                assert len(calls) == 1


def crossings(d, tr):
    """{cross cell: (west in, south in, real)}; a crossing is real iff its
    south label leaves north."""
    out = {}
    for i, j, t in d.cells():
        if t is Tile.CROSS:
            w_in, s_in, n_out, _ = tr.cells[(i, j)]
            out[(i, j)] = (w_in, s_in, n_out == s_in)
    return out


class TestTrace:
    def test_worked_example(self):
        d = parse(Kind.PD, 5, EX_24513)
        tr = trace(d)
        assert tr.code.entries == (4, 1, 5, 2, 3)
        assert Perm(tr.code.entries).inverse == Perm.from_one_line([2, 4, 5, 1, 3])
        cs = crossings(d, tr)
        w_real, s_real, real = cs[(3, 2)]
        w_fake, s_fake, fake_is_real = cs[(2, 3)]
        assert {w_real, s_real} == {3, 5} and real
        assert {w_fake, s_fake} == {3, 5} and not fake_is_real
        assert tr.pipe_at(3, 2) == tr.pipe_at(2, 3) == {3, 5}

    def test_all_bump(self):
        d = pd_from_crosses(3, frozenset())
        tr = trace(d)
        assert tr.code.entries == (1, 2, 3)
        assert not crossings(d, tr) and not tr.crossed_pairs

    def test_two_by_two_cross(self):
        d = pd_from_crosses(2, frozenset({(1, 1)}))
        tr = trace(d)
        assert tr.code.entries == (2, 1)
        assert crossings(d, tr)[(1, 1)][2]
        assert tr.crossed_pairs == {frozenset({1, 2})}

    def test_code(self):
        d = parse(Kind.BVPD, 4, "JrJ\n-J.\n...\n...")
        assert trace(d, record_paths=False).code.entries == (1, 0, 2)
        empty = Diagram(Kind.MVPD, 3, ((Tile.BLANK,) * 3,) * 3)
        assert trace(empty, record_paths=False).code.entries == (0, 0, 0)

    def test_label_only_trace_records_no_cells(self):
        tr = trace(parse(Kind.PD, 5, EX_24513), record_paths=False)
        assert not tr.cells and not tr.lowest_horizontal
        assert tr.crossed_pairs == trace(parse(Kind.PD, 5, EX_24513)).crossed_pairs

    def test_real_crossing_pairs_unique(self):
        for w in symmetric_group(4):
            for d in pd_set(w):
                real = [c for c in crossings(d, trace(d)).values() if c[2]]
                pairs = [frozenset((west, south)) for west, south, _ in real]
                assert len(pairs) == len(set(pairs))

    def test_max_rule_consistency(self):
        # At every real crossing the south label beats the west label.
        for w in symmetric_group(4):
            for d in pd_set(w):
                for west, south, real in crossings(d, trace(d)).values():
                    assert (south > west) == real

    def test_paths_monotone_and_exit_top(self):
        # Each label's cells form a chain of north and east steps from its
        # entering row in column 1 to a north exit from the top row.
        for w in symmetric_group(4):
            for d in pd_set(w):
                tr = trace(d)
                on: dict[int, set] = {}
                for cell, (w_in, s_in, _, _) in tr.cells.items():
                    for label in (w_in, s_in):
                        if label:
                            on.setdefault(label, set()).add(cell)
                assert set(on) == {1, 2, 3, 4}
                for label, cells in on.items():
                    assert tr.cells[(label, 1)][0] == label
                    i, j, walked = label, 1, []
                    while i >= 1:
                        walked.append((i, j))
                        _, _, n_out, e_out = tr.cells[(i, j)]
                        if n_out == label:
                            i -= 1
                        else:
                            assert e_out == label
                            j += 1
                    assert len(walked) == len(cells) and set(walked) == cells
                assert sorted(tr.code.entries) == [1, 2, 3, 4]

    def test_crossed_before_entering_a_row(self):
        # Pipes a, b, c entering a row left to right: if {a,b} have not
        # crossed below but {a,c} have, then {b,c} have crossed below.
        for w in symmetric_group(4):
            for d in pd_set(w):
                tr = trace(d)
                real_cells = {
                    frozenset((west, south)): cell
                    for cell, (west, south, real) in crossings(d, tr).items()
                    if real
                }

                def crossed_below(p, q, row):
                    cell = real_cells.get(frozenset((p, q)))
                    return cell is not None and cell[0] > row

                for row in range(1, 5):
                    entering = sorted(
                        (j, s_in)
                        for (i, j), (_, s_in, _, _) in tr.cells.items()
                        if i == row and s_in
                    )
                    labels = [label for _, label in entering]
                    for ia in range(len(labels)):
                        for ib in range(ia + 1, len(labels)):
                            for ic in range(ib + 1, len(labels)):
                                a, b, c = labels[ia], labels[ib], labels[ic]
                                if not crossed_below(a, b, row) and crossed_below(a, c, row):
                                    assert crossed_below(b, c, row)


class TestEnumerateStructures:
    def test_identity_mvpd_unique(self):
        out = members(Kind.MVPD, Perm.identity(3))
        assert len(out) == 1
        assert out[0].render_text() == "...\n...\n..."
        assert list(unpruned_fill(Kind.MVPD, 3, frozenset())) == list(out)

    def test_empty_bvpd_grid(self):
        (d,) = members(Kind.BVPD, Perm.identity(1))
        assert d.cols == 0
        assert list(unpruned_fill(Kind.BVPD, 1, frozenset())) == [d]

    def test_structures_are_valid(self):
        for _, ds in species_members(4):
            for d in ds:
                assert not validate(d)
        for d in unpruned_fill(Kind.MVPD, 4, frozenset({1, 2})):
            assert not validate(d)

    def test_pd_fillings_match_the_index(self):
        # The pipe dreams of all of S_n are every subset of the staircase
        # made crosses, each once.
        for n in range(1, 6):
            ds = [d for w in symmetric_group(n) for d in pd_set(w)]
            assert len(ds) == len(set(ds)) == 2 ** (n * (n - 1) // 2)
            staircase = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i + j <= n]
            subsets = (
                frozenset(c) for k in range(len(staircase) + 1) for c in combinations(staircase, k)
            )
            assert set(ds) == {pd_from_crosses(n, c) for c in subsets}

    def test_alphabet_regions(self):
        assert allowed_tiles(Kind.PD, 3, 1, 1) == (Tile.CROSS, Tile.BUMP)
        assert allowed_tiles(Kind.PD, 3, 1, 3) == (Tile.ELBOW_WN,)
        assert allowed_tiles(Kind.MVPD, 3, 3, 3) == (Tile.BLANK,)
        assert Tile.MARKED_SE not in allowed_tiles(Kind.BVPD, 4, 1, 1)


class TestPrunedFill:
    """``members`` against the unpruned fill plus ``trace``, its definition."""

    @pytest.mark.parametrize("kind", list(Kind))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_permutation_matches_the_oracle(self, kind, n):
        # Bumpless diagrams exist only for inverse fireworks permutations.
        ws = [w for w in symmetric_group(n) if kind is not Kind.BVPD or w.is_inverse_fireworks()]
        for w, want in oracle_members(kind, ws).items():
            assert members(kind, w) == want, w

    def test_traces_nothing(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("members traced a filling")

        monkeypatch.setattr(diagrams, "trace", no_trace)
        for w in symmetric_group(4):
            for kind in Kind:
                if kind is not Kind.BVPD or w.is_inverse_fireworks():
                    assert members(kind, w)
        assert len(members(Kind.MVPD, Perm.from_one_line([7, 6, 5, 4, 3, 2, 1]))) == 1
