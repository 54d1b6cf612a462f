import hashlib
import operator
import sys

import pytest

from functools import lru_cache
from itertools import combinations

from hypothesis import given, settings, strategies as st

from pipedreams import diagrams
from pipedreams.bvpd import enumerate_bvpd
from pipedreams.diagrams import (
    Diagram,
    DiagramError,
    Kind,
    Tile,
    allowed_tiles,
    grid_shape,
    is_member,
    members,
    trace,
    validate,
    weight,
    weighty_cells,
)
from pipedreams.mvpd import mvpd_set
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import pd_from_crosses, pd_set

from fill_oracle import oracle_members, unpruned_fill
from trace_oracle import oracle_trace
from validate_oracle import oracle_validate

# The n=5 diagram of one-line 24513 whose pipes 3 and 5 meet twice:
# really at (3,2) and then fake at (2,3).
EX_24513 = "+b+bJ\n+b+J.\n++J..\nbJ...\nJ...."


def parse(kind, n, text):
    return Diagram.parse_text(kind, n, text)


class TestTiles:
    def test_glyphs(self):
        assert "".join(t.value for t in Tile) == ".-+JrbR"

    def test_glyph_is_the_value(self):
        # ``glyph`` is set in ``Tile.__new__``; the renderer and the parser
        # read it in place of ``value``.
        for t in Tile:
            assert type(t.glyph) is str and t.glyph == t.value

    def test_connections(self):
        sides = {t: frozenset(s for s in "WESN" if t.has(s)) for t in Tile}
        assert sides == {
            Tile.BLANK: frozenset(),
            Tile.HORIZONTAL: frozenset("WE"),
            Tile.CROSS: frozenset("WESN"),
            Tile.ELBOW_WN: frozenset("WN"),
            Tile.ELBOW_SE: frozenset("SE"),
            Tile.BUMP: frozenset("WESN"),
            Tile.MARKED_SE: frozenset("SE"),
        }


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
    if neighbour_edge_problems(d):
        return True
    # The edges agree, so the tracer must accept the grid, and only the
    # oracle's mark check is left to object.
    trace(d)
    return bool(oracle_validate(d))


# ``listing_digests()``, pinned.
LISTING_DIGESTS = (
    "1ecacd1f296d61e70fec509c397c4417800862043c003b166c2cf2a2e7a132fa",
    "c521d95ed1fc313034ed8b037b29939c64df518c7b51fd1f496c1a773ba3e35d",
)


def listing_digests():
    """SHA-256 of every fresh listing of S_1..S_5, each diagram's text in
    canonical order, per species and w: of the unmarked diagrams, and of all."""
    unmarked, full = hashlib.sha256(), hashlib.sha256()
    for n in range(1, 6):
        for w in symmetric_group(n):
            kinds = [Kind.PD, Kind.MVPD] + [Kind.BVPD] * w.is_inverse_fireworks()
            for kind in kinds:
                for d in members(kind, w):
                    text = d.render_text().encode() + b"|"
                    full.update(text)
                    if not any(Tile.MARKED_SE in row for row in d.tiles):
                        unmarked.update(text)
                unmarked.update(b"#")
                full.update(b"#")
    return unmarked.hexdigest(), full.hexdigest()


def species_members(n):
    """(w, diagrams of w) for every w of S_n and every species that has them."""
    for w in symmetric_group(n):
        yield w, pd_set(w)
        yield w, mvpd_set(w)
        if w.is_inverse_fireworks():
            yield w, enumerate_bvpd(w)


class TestEdgeRuleOracle:
    def test_one_tile_mutations(self):
        # Also the differential check of validate's messages where random
        # grids seldom reach: past the alphabet and the tracer, to the marks.
        checked = marks = 0
        for n in (3, 4):
            for _, ds in species_members(n):
                for d in ds:
                    for i, j, old in d.cells():
                        for t in Tile:
                            if t is old:
                                continue
                            mutant = d.with_tiles({(i, j): t})
                            problems = validate(mutant)
                            assert bool(problems) == oracle_rejects(mutant), mutant
                            assert problems == oracle_validate(mutant), mutant
                            marks += any("no lower horizontal" in p for p in problems)
                            checked += 1
        assert checked > 10_000 and marks

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


@st.composite
def any_grids(draw):
    """A grid of any species and size n <= 4 with any tile in any cell."""
    kind = draw(st.sampled_from(Kind))
    n = draw(st.integers(1, 4))
    rows, cols = grid_shape(kind, n)
    row = st.tuples(*[st.sampled_from(Tile)] * cols)
    return Diagram(kind, n, draw(st.tuples(*[row] * rows)))


class TestValidateOracle:
    @settings(max_examples=150, deadline=None)
    @given(any_grids())
    def test_any_grid(self, d):
        assert validate(d) == oracle_validate(d)


def trace_outcome(tracer, d):
    """The tracer's result, or the message of the ``DiagramError`` it raised."""
    try:
        return tracer(d)
    except DiagramError as exc:
        return str(exc)


@lru_cache(maxsize=None)
def species_grids():
    """Every PD, MVPD and BVPD of S_1-S_5, and the n = 1 BVPD's empty rows."""
    grids = [Diagram(Kind.BVPD, 1, ((),))]
    for n in range(1, 6):
        for _, ds in species_members(n):
            grids.extend(ds)
    return tuple(grids)


@st.composite
def mutated_grids(draw):
    """A grid of ``species_grids`` with 1-3 cells rewritten to any tile."""
    d = draw(st.sampled_from(species_grids()))
    if not d.cols:
        return d
    cell = st.tuples(st.integers(1, d.rows), st.integers(1, d.cols))
    updates = draw(st.dictionaries(cell, st.sampled_from(Tile), min_size=1, max_size=3))
    return d.with_tiles(updates)


class TestTraceOracle:
    def test_every_diagram_of_s1_to_s5(self):
        grids = species_grids()
        assert len({d.kind for d in grids}) == 3
        for d in grids:
            assert trace(d) == oracle_trace(d), d

    def test_one_tile_mutations_of_s1_to_s3(self):
        for n in range(1, 4):
            for _, ds in species_members(n):
                for d in ds:
                    for i, j, _ in d.cells():
                        for t in Tile:
                            mutant = d.with_tiles({(i, j): t})
                            assert trace_outcome(trace, mutant) == trace_outcome(oracle_trace, mutant)

    @settings(max_examples=60, deadline=None)
    @given(mutated_grids())
    def test_mutated_grids(self, d):
        assert trace_outcome(trace, d) == trace_outcome(oracle_trace, d)


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

    def test_code_computed_once_per_permutation(self, monkeypatch):
        # Each diagram checked reads w's code, which is computed once for
        # w and for every Perm equal to it.
        columns = []
        plain = Perm.column_code

        def counting_column_code(self):
            columns.append(self)
            return plain(self)

        monkeypatch.setattr(Perm, "column_code", counting_column_code)
        diagrams.code_of.cache_clear()
        w = Perm.from_one_line([2, 4, 1, 3])
        ds = mvpd_set(w)
        assert len(ds) > 1
        assert all(is_member(d, Perm(w.letters)) for d in ds)
        assert columns == [w]


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
        assert tr.code == (4, 1, 5, 2, 3)
        assert Perm(tr.code).inverse == Perm.from_one_line([2, 4, 5, 1, 3])
        cs = crossings(d, tr)
        w_real, s_real, real = cs[(3, 2)]
        w_fake, s_fake, fake_is_real = cs[(2, 3)]
        assert {w_real, s_real} == {3, 5} and real
        assert {w_fake, s_fake} == {3, 5} and not fake_is_real
        assert tr.pipe_at(3, 2) == tr.pipe_at(2, 3) == {3, 5}

    def test_all_bump(self):
        d = pd_from_crosses(3, frozenset())
        tr = trace(d)
        assert tr.code == (1, 2, 3)
        assert not crossings(d, tr) and not tr.crossed_pairs

    def test_two_by_two_cross(self):
        d = pd_from_crosses(2, frozenset({(1, 1)}))
        tr = trace(d)
        assert tr.code == (2, 1)
        assert crossings(d, tr)[(1, 1)][2]
        assert tr.crossed_pairs == {frozenset({1, 2})}

    def test_code(self):
        d = parse(Kind.BVPD, 4, "JrJ\n-J.\n...\n...")
        assert trace(d).code == (1, 0, 2)
        empty = Diagram(Kind.MVPD, 3, ((Tile.BLANK,) * 3,) * 3)
        assert trace(empty).code == (0, 0, 0)

    def test_trace_records_every_cell(self):
        d = parse(Kind.PD, 5, EX_24513)
        tr = trace(d)
        assert set(tr.cells) == {(i, j) for i, j, _ in d.cells()}
        assert set(tr.lowest_horizontal) <= set(d.entering_rows)

    def test_tracing_stores_nothing_on_the_diagram(self):
        # A slotted frozen diagram has no instance dict, so its three fields
        # are all it can hold: each stays the same object through a trace
        # and a membership test.
        one = Perm.identity(1)
        for w, ds in [*species_members(3), (one, members(Kind.BVPD, one))]:
            for d in ds:
                assert not hasattr(d, "__dict__")
                fields = (d.kind, d.n, d.tiles)
                trace(d)
                assert all(map(operator.is_, (d.kind, d.n, d.tiles), fields))
                assert is_member(d, w)
                assert all(map(operator.is_, (d.kind, d.n, d.tiles), fields))

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
                assert sorted(tr.code) == [1, 2, 3, 4]

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
        # The unpruned fill keeps every edge rule but places marks anywhere:
        # a misplaced mark is all that validate may find in its fillings.
        fillings = list(unpruned_fill(Kind.MVPD, 4, frozenset({2, 3})))
        for d in fillings:
            assert validate(d) == oracle_validate(d)
            assert all(p.endswith("with no lower horizontal") for p in validate(d))
        assert any(validate(d) for d in fillings) and not all(validate(d) for d in fillings)

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

    def test_fillings_past_the_oracle_reach(self):
        # S_6 is past what the unpruned oracle fills in Tier-1's time: the
        # pruned fill lists 2^15 distinct pipe dreams there, and as many
        # MVPDs, which the removal bijection puts in one-to-one
        # correspondence with them.
        ws = list(symmetric_group(6))
        pds = [d for w in ws for d in members(Kind.PD, w)]
        assert len(pds) == len(set(pds)) == 2**15
        assert sum(len(members(Kind.MVPD, w)) for w in ws) == 2**15

    @pytest.mark.parametrize("kind", list(Kind))
    def test_the_trace_keys_every_cell_in_sweep_order(self, kind):
        # The fill plan skips the cells no pipe reaches; the tracer's labels
        # are still keyed by every cell of the grid, in its sweep order.
        for n in range(1, 7):
            rows, cols = grid_shape(kind, n)
            cells = [(i, j) for i in range(rows, 0, -1) for j in range(1, cols + 1)]
            # Both are inverse fireworks, so every species has diagrams of them.
            for w in (Perm.identity(n), Perm(tuple(range(n, 0, -1)))):
                for d in members(kind, w):
                    assert list(trace(d).cells) == cells

    def test_alphabet_regions(self):
        assert allowed_tiles(Kind.PD, 3, 1, 1) == (Tile.CROSS, Tile.BUMP)
        assert allowed_tiles(Kind.PD, 3, 1, 3) == (Tile.ELBOW_WN,)
        assert allowed_tiles(Kind.MVPD, 3, 3, 3) == (Tile.BLANK,)
        assert Tile.MARKED_SE not in allowed_tiles(Kind.BVPD, 4, 1, 1)

    def test_species_table(self):
        # Pinned by literals and a digest, not by an oracle: the fill and
        # validate oracles read ``allowed_tiles`` too, so a wrong table
        # would pass them.  Every cell's alphabet, as glyphs, in row-major
        # order, for each species and n = 1..6.
        h = hashlib.sha256()
        for kind in Kind:
            for n in range(1, 7):
                h.update(f"{kind.value}{n}:".encode())
                glyphs = ",".join(
                    "".join(t.glyph for t in a) for a in diagrams._alphabets(kind, n)
                )
                h.update(glyphs.encode() + b"#")
        assert h.hexdigest() == (
            "17258378a89b98aeb7b60eb33186d2b55961b62b1a7ca4ba8f12e71b37a204aa"
        )
        assert [grid_shape(kind, 4) for kind in Kind] == [(4, 4), (4, 4), (4, 3)]
        assert grid_shape(Kind.BVPD, 1) == (1, 0)
        assert Kind.PD.weighty == (Tile.CROSS,)
        assert Kind.MVPD.weighty == (Tile.HORIZONTAL, Tile.CROSS, Tile.MARKED_SE)
        assert Kind.BVPD.weighty == (Tile.HORIZONTAL, Tile.CROSS, Tile.ELBOW_WN)
        assert [kind.value for kind in Kind] == ["PD", "MVPD", "BVPD"]
        assert Kind("BVPD") is Kind.BVPD


class TestWeight:
    def test_rows_count_the_weighty_cells(self):
        # The row counts against the positions, over every species, marks
        # included, and the n = 1 BVPD whose one row is empty.
        (empty,) = members(Kind.BVPD, Perm.identity(1))
        checked = [empty] + [d for n in range(1, 6) for _, ds in species_members(n) for d in ds]
        for d in checked:
            cells = weighty_cells(d)
            rows = tuple(sum(1 for i, _ in cells if i == r) for r in range(1, d.n + 1))
            assert weight(d) == (rows, (0,) * d.n), d
        assert {d.kind for d in checked} == set(Kind)


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

    def test_the_pd_fill_enters_no_dead_branch(self):
        # Every cell the PD fill enters lies on a filling it lists: each
        # ``fill`` call lists a diagram (an ``emit`` call) below it.
        listed, dead, pending = [0], [0], []

        def count(frame, event, arg):
            if frame.f_code.co_filename != diagrams.__file__:
                return
            name = frame.f_code.co_name
            if name == "emit" and event == "call":
                listed[0] += 1
            elif name == "fill" and event == "call":
                pending.append(listed[0])
            elif name == "fill" and event == "return":
                dead[0] += pending.pop() == listed[0]

        sys.setprofile(count)
        try:
            total = sum(len(members(Kind.PD, w)) for n in range(1, 6) for w in symmetric_group(n))
        finally:
            sys.setprofile(None)
        assert listed[0] == total == 1 + 2 + 8 + 64 + 1024
        assert dead[0] == 0 and not pending

    def test_canonical_order_digest(self):
        # Pins every diagram and its place in the canonical order for all w
        # of S_1..S_5, independent of the string hash seed: the unmarked
        # ones alone, and all of them.
        assert listing_digests() == LISTING_DIGESTS

    def test_fillings_share_their_finished_rows(self):
        # Every row a listing holds comes from ``_row``: equal rows are one
        # tuple across all species and all w, and ``with_tiles`` rewriting
        # one listed diagram into the next holds that diagram's very rows.
        listed = [
            members(kind, w)
            for n in range(1, 6)
            for w in symmetric_group(n)
            for kind in Kind
            if kind is not Kind.BVPD or w.is_inverse_fireworks()
        ]
        rows = [row for ds in listed for d in ds for row in d.tiles]
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)
        for ds in listed:
            for a, b in zip(ds, ds[1:]):
                c = a.with_tiles({(i, j): t for i, j, t in b.cells() if a.tile(i, j) is not t})
                assert c == b and all(map(operator.is_, c.tiles, b.tiles)), (a, b)

    def test_listings_do_not_depend_on_row_cache_hits(self, monkeypatch):
        # A one-row cache misses or evicts at nearly every lookup.
        monkeypatch.setattr(diagrams, "_row", lru_cache(maxsize=1)(diagrams._tiles))
        for kind in Kind:
            for n in range(1, 5):
                ws = [
                    w for w in symmetric_group(n) if kind is not Kind.BVPD or w.is_inverse_fireworks()
                ]
                for w, want in oracle_members(kind, ws).items():
                    assert members(kind, w) == want, w
        assert listing_digests() == LISTING_DIGESTS

    def test_one_plan_per_kind_and_size(self):
        # The w of S_4 taken from both ends in turn, each filled twice: a
        # plan that kept anything of one w would break a later fill.
        diagrams._fill_plan.cache_clear()
        for kind in Kind:
            ws = [
                w for w in symmetric_group(4) if kind is not Kind.BVPD or w.is_inverse_fireworks()
            ]
            want = oracle_members(kind, ws)
            for a, b in zip(ws, reversed(ws)):
                assert members(kind, a) == want[a], a
                assert members(kind, b) == want[b], b
        assert diagrams._fill_plan.cache_info().currsize == len(Kind)
