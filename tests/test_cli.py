import dataclasses
import json
import runpy
import sys

import pytest

from pipedreams import checks, cli, diagrams, pipedream
from pipedreams.checks import CHECKS
from pipedreams.construct import Step
from pipedreams.cli import main
from pipedreams.diagrams import DiagramError, Kind, members, sort_key
from pipedreams.mvpd import pd_to_mvpd
from pipedreams.permutations import Perm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "poly", "--w", "2,4,1,3")
        assert code == 0
        assert out.strip() == "x1*x2^2 + x1^2*x2 - x1^2*x2^2"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "poly", "--w", "2,4,1,3", "--json")
        assert code == 0
        terms = json.loads(out)
        assert {tuple(t["x"]) for t in terms} == {(1, 2, 0, 0), (2, 1, 0, 0), (2, 2, 0, 0)}

    def test_double(self, capsys):
        code, out, _ = run(capsys, "poly", "--w", "2,1", "--double")
        assert code == 0
        assert out.strip() == "x1 + y1 - x1*y1"

    def test_above_the_bound(self, capsys):
        code, _, err = run(capsys, "poly", "--w", "1,2,3,4,5,7,6")
        assert code == 2
        assert "above the pipe-dream bound 6" in err

    def test_bad_w(self, capsys):
        code, _, err = run(capsys, "poly", "--w", "2,2")
        assert code == 2
        assert "error" in err


class TestTop:
    def test_inverse_fireworks_route(self, capsys):
        code, out, err = run(capsys, "top", "--w", "1,6,5,2,3,4")
        assert code == 0
        assert out.strip() == (
            "x1^2*x2^4*x3^3 + x1^3*x2^3*x3^3 + x1^3*x2^4*x3^2"
            " + x1^4*x2^2*x3^3 + x1^4*x2^3*x3^2 + x1^4*x2^4*x3"
        )
        assert err == ""

    def test_fallback_notice(self, capsys):
        code, out, err = run(capsys, "top", "--w", "3,1,4,2")
        assert code == 0
        assert "notice" in err
        assert out.strip() == "x1^2*x2*x3"


def removal_text(pds, w):
    """The removal map's image of ``pds``, rendered as ``enumerate`` prints
    it: the second route to the directly filled MVPDs."""
    image = sorted((pd_to_mvpd(p, w) for p in pds), key=sort_key)
    return "\n\n".join(d.render_text() for d in image)


class TestEnumerate:
    def test_mvpd_above_the_pd_bound_matches_the_removal_image(self, capsys):
        # pd_set refuses n = 7, so the pipe dreams come from the fill itself.
        w = Perm.from_one_line([1, 2, 3, 4, 5, 7, 6])
        code, out, _ = run(capsys, "enumerate", "--kind", "mvpd", "--w", "1,2,3,4,5,7,6")
        assert code == 0
        assert out.strip() == removal_text(members(Kind.PD, w), w)

    def test_mvpd_needs_no_index(self, capsys, monkeypatch):
        # The MVPDs are filled directly: no pipe dream is filled on the way.
        w = Perm.from_one_line([1, 2, 3, 4, 6, 5])
        want = removal_text(pipedream.pd_set(w), w)

        def no_fill(*args, **kwargs):
            raise AssertionError("enumerate --kind mvpd filled a pd_set")

        monkeypatch.setattr(pipedream, "members", no_fill)
        code, out, _ = run(capsys, "enumerate", "--kind", "mvpd", "--w", "1,2,3,4,6,5")
        assert code == 0
        assert out.strip() == want

    def test_bvpd_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "bvpd", "--w", "2,4,1,3")
        assert code == 0
        assert out.strip() == "JrJ\n-J.\n...\n..."

    def test_pd_json_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "pd", "--w", "2,4,1,3", "--json")
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_mvpd_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--kind", "mvpd", "--w", "2,4,1,3")
        assert code == 0
        assert out.strip().count("\n\n") == 2

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "enumerate", "--kind", "pd", "--w", "2,4,1,3")
        _, second, _ = run(capsys, "enumerate", "--kind", "pd", "--w", "2,4,1,3")
        assert first == second


class TestMap:
    def test_phi_then_back(self, capsys, tmp_path):
        code, out, _ = run(capsys, "enumerate", "--kind", "pd", "--w", "2,4,1,3", "--json")
        first = json.loads(out)[0]
        src = tmp_path / "pd.json"
        src.write_text(json.dumps(first))
        code, out, _ = run(capsys, "map", "--which", "phi", "--w", "2,4,1,3", "--in", str(src))
        assert code == 0
        mid = tmp_path / "m.txt"
        mid.write_text(out.strip())
        code, back, _ = run(capsys, "map", "--which", "phi-inv", "--w", "2,4,1,3", "--in", str(mid))
        assert code == 0
        assert back.strip() == "\n".join(first["rows"])

    def test_psi(self, capsys, tmp_path):
        src = tmp_path / "b.txt"
        src.write_text("JrJ\n-J.\n...\n...")
        code, out, _ = run(capsys, "map", "--which", "psi", "--w", "2,4,1,3", "--in", str(src))
        assert code == 0
        assert out.strip() == "+b+J\n++J.\nbJ..\nJ..."

    @pytest.mark.parametrize("w", ["1,2,3,4", "4,3,2,1", "1,2,3"])
    def test_phi_inv_of_another_w_is_usage_error(self, capsys, tmp_path, w):
        src = tmp_path / "m.txt"
        src.write_text("-b-J\n-J..\n....\n....")
        code, out, err = run(capsys, "map", "--which", "phi-inv", "--w", "2,4,1,3", "--in", str(src))
        assert code == 0 and out.strip() == "+b+J\n+bJ.\nbJ..\nJ..."
        code, out, err = run(capsys, "map", "--which", "phi-inv", "--w", w, "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "does not belong" in err

    def test_invalid_diagram_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("++\n++")
        code, _, err = run(capsys, "map", "--which", "phi", "--w", "2,1", "--in", str(src))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("which", ["phi", "psi-inv"])
    def test_a_pd_tagged_as_an_mvpd_is_usage_error(self, capsys, tmp_path, which):
        src = tmp_path / "m.json"
        src.write_text(json.dumps({"kind": "MVPD", "n": 3, "rows": ["++J", "+J.", "J.."]}))
        code, out, err = run(capsys, "map", "--which", which, "--w", "3,2,1", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "expected a PD, got MVPD" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "w, rows",
        [("3,2,1", ["++J", "+J.", "J.."]), ("2,4,1,3", ["+b+J", "++J.", "bJ..", "J..."])],
        ids=["321", "top-2413"],
    )
    def test_mb_refuses_a_pd(self, capsys, tmp_path, w, rows):
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"kind": "PD", "n": len(rows), "rows": rows}))
        code, out, err = run(capsys, "map", "--which", "mb", "--w", w, "--in", str(src))
        assert code == 2
        assert out == ""
        assert err == "error: expected an MVPD, got PD\n"

    @pytest.mark.parametrize(
        "which, w, rows",
        [
            ("mb", "2,1,4,3", "-JRJ\n--J.\n....\n...."),
            ("bm", "2,1,4,3", "JrJ\n-J.\n...\n..."),
            ("psi", "2,1,4,3", "JrJ\n-J.\n...\n..."),
            ("mb", "1,2,3", "-JRJ\n--J.\n....\n...."),
        ],
        ids=["mb", "bm", "psi", "mb-size"],
    )
    def test_a_diagram_of_2413_is_refused_for_another_w(self, capsys, tmp_path, which, w, rows):
        # The maps check their input, so the diagram is blamed, not the image.
        src = tmp_path / "d.txt"
        src.write_text(rows)
        code, out, err = run(capsys, "map", "--which", which, "--w", w, "--in", str(src))
        assert code == 2
        assert out == ""
        want = Perm.from_one_line(int(v) for v in w.split(",")).letters
        assert err == f"error: diagram does not belong to {want}\n"


class TestConstructUp:
    def test_certificate(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("-b-J\n-J..\n....\n....")
        code, out, _ = run(capsys, "construct-up", "--w", "2,4,1,3", "--in", str(src))
        assert code == 0
        cert = json.loads(out)
        assert cert["gained_row"] == 2
        assert cert["steps"] == [{"op": "droop_prime", "cell": [1, 2]}]

    def test_trace_renders_steps(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("-b-J\n-J..\n....\n....")
        code, out, _ = run(
            capsys, "construct-up", "--w", "2,4,1,3", "--in", str(src), "--trace"
        )
        assert code == 0
        assert "after droop_prime" in out

    def test_trace_checks_the_certificate_output(self, capsys, tmp_path, monkeypatch):
        real = cli.construct_up

        def wrong_output(d, w):
            return dataclasses.replace(real(d, w), output=d)

        monkeypatch.setattr(cli, "construct_up", wrong_output)
        src = tmp_path / "m.txt"
        src.write_text("-b-J\n-J..\n....\n....")
        code, _, err = run(
            capsys, "construct-up", "--w", "2,4,1,3", "--in", str(src), "--trace"
        )
        assert code == 1
        assert err.startswith("error: ")

    def test_trace_fails_a_step_that_leaves_the_set(self, capsys, tmp_path, monkeypatch):
        real = cli.construct_up

        def forged_step(d, w):
            # Crossing the bump at (1, 2) changes the code of w.
            return dataclasses.replace(real(d, w), steps=(Step("bump_to_cross", (1, 2)),))

        monkeypatch.setattr(cli, "construct_up", forged_step)
        src = tmp_path / "m.txt"
        src.write_text("-b-J\n-J..\n....\n....")
        code, _, err = run(
            capsys, "construct-up", "--w", "2,4,1,3", "--in", str(src), "--trace"
        )
        assert code == 1
        assert err.startswith("error: ") and "left the diagram set" in err
        assert "Traceback" not in err

    def test_a_diagram_of_another_w_is_refused(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("-JRJ\n--J.\n....\n....")  # a marked diagram of 2413
        code, out, err = run(capsys, "construct-up", "--w", "2,1,4,3", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err == "error: diagram does not belong to (2, 1, 4, 3)\n"

    def test_bare_text_of_no_mvpd_names_the_species_once(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("++\n++")
        code, out, err = run(capsys, "construct-up", "--w", "2,1", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {src}: not an MVPD: (1,2): '+' not allowed in an MVPD there;")

    def test_top_input_rejected(self, capsys, tmp_path):
        src = tmp_path / "m.txt"
        src.write_text("-JRJ\n--J.\n....\n....")
        code, _, err = run(capsys, "construct-up", "--w", "2,4,1,3", "--in", str(src))
        assert code == 2
        assert "maximal" in err


class TestCheck:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--what", "prop25", "--n", "4")
        assert code == 0
        assert "PASS" in out

    def test_inverse_fireworks_flag(self, capsys):
        code, out, _ = run(
            capsys, "check", "--what", "lemma46", "--n", "4", "--inverse-fireworks-only"
        )
        assert code == 0

    def test_n_above_the_bound_is_refused(self, capsys):
        for what in CHECKS:
            code, _, err = run(capsys, "check", "--what", what, "--n", str(pipedream.MAX_N + 1))
            assert code == 2, what
            assert f"bound {pipedream.MAX_N}" in err
            assert "Traceback" not in err

    def test_force_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--what", "prop25", "--n", "4", "--force"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --force" in capsys.readouterr().err

    def test_constructor_fault_is_a_failed_check(self, capsys, monkeypatch):
        def broken(d, w):
            raise DiagramError("planted constructor fault")

        monkeypatch.setattr(checks, "construct_up", broken)
        code, out, _ = run(capsys, "check", "--what", "conj13", "--n", "4")
        assert code == 1
        assert "FAIL" in out
        assert "(constructive): no certificate for" in out
        assert "planted constructor fault" in out

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_n_below_one(self, capsys, n):
        code, _, err = run(capsys, "check", "--what", "prop25", "--n", n)
        assert code == 2
        assert err == "error: --n must be at least 1\n"

    def test_usage_error_on_unknown_check(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "check", "--what", "nope", "--n", "3")
        assert exc.value.code == 2


def identity_w(n):
    return ",".join(str(k) for k in range(1, n + 1))


# The fill recurses once per cell: above its depth bound the species that
# fill no pipe dreams are refused with a message instead of a RecursionError.
FILLING_COMMANDS = [("top",), ("enumerate", "--kind", "mvpd"), ("enumerate", "--kind", "bvpd")]


class TestFillDepth:
    @pytest.mark.parametrize("cmd", FILLING_COMMANDS, ids=["top", "mvpd", "bvpd"])
    def test_above_the_bound_is_a_usage_error(self, capsys, cmd):
        code, out, err = run(capsys, *cmd, "--w", identity_w(33))
        assert code == 2
        assert err.startswith("error:") and "depth bound" in err
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("cmd", FILLING_COMMANDS, ids=["top", "mvpd", "bvpd"])
    def test_largest_admitted_identity(self, capsys, cmd):
        code, out, _ = run(capsys, *cmd, "--w", identity_w(diagrams.MAX_FILL_N))
        assert code == 0
        assert out.strip()


class TestListingBudget:
    @pytest.mark.parametrize("kind", ["pd", "mvpd", "bvpd"])
    def test_a_listing_past_the_budget_is_a_usage_error(self, capsys, monkeypatch, kind):
        # 2413 has three PDs, three MVPDs and one BVPD: a budget one short
        # refuses the listing, and a budget of exactly its size lists it.
        w = Perm.from_one_line([2, 4, 1, 3])
        species = Kind[kind.upper()]
        size = len(members(species, w))
        monkeypatch.setattr(diagrams, "MAX_LISTED", size - 1)
        with pytest.raises(ValueError, match=rf"\(2, 4, 1, 3\): more than {size - 1} "):
            members(species, w)
        code, out, err = run(capsys, "enumerate", "--kind", kind, "--w", "2,4,1,3")
        assert code == 2
        assert err.startswith("error:") and f"more than {size - 1} {species.value}" in err
        assert "Traceback" not in err
        assert out == ""
        monkeypatch.setattr(diagrams, "MAX_LISTED", size)
        code, out, _ = run(capsys, "enumerate", "--kind", kind, "--w", "2,4,1,3")
        assert code == 0
        assert len(out.strip().split("\n\n")) == size

    def test_top_counts_its_fillings_against_the_budget(self, capsys, monkeypatch):
        # ``top`` lists no BVPD but counts the fillings it sums: 2413 has one.
        size = len(members(Kind.BVPD, Perm.from_one_line([2, 4, 1, 3])))
        assert size == 1
        monkeypatch.setattr(diagrams, "MAX_LISTED", size - 1)
        code, out, err = run(capsys, "top", "--w", "2,4,1,3")
        assert code == 2
        assert err.startswith("error:") and f"more than {size - 1} BVPD" in err
        assert "Traceback" not in err
        assert out == ""
        monkeypatch.setattr(diagrams, "MAX_LISTED", size)
        code, out, _ = run(capsys, "top", "--w", "2,4,1,3")
        assert code == 0
        assert out.strip() == "x1^2*x2^2"


class TestRender:
    def test_json_to_text(self, capsys, tmp_path):
        src = tmp_path / "d.json"
        src.write_text(json.dumps({"kind": "PD", "n": 2, "rows": ["bJ", "J."]}))
        code, out, _ = run(capsys, "render", "--in", str(src))
        assert code == 0
        assert out.strip() == "bJ\nJ."

    def test_text_passthrough(self, capsys, tmp_path):
        src = tmp_path / "d.txt"
        src.write_text("bJ\nJ.")
        code, out, _ = run(capsys, "render", "--in", str(src))
        assert code == 0
        assert out.strip() == "bJ\nJ."

    def test_bvpd_text(self, capsys, tmp_path):
        src = tmp_path / "b.txt"
        src.write_text("JrJ\n-J.\n...\n...")
        code, out, _ = run(capsys, "render", "--in", str(src))
        assert code == 0
        assert out.strip() == "JrJ\n-J.\n...\n..."

    def test_invalid_text_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "bad.txt"
        src.write_text("++\n++")
        code, _, err = run(capsys, "render", "--in", str(src))
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "data",
        [
            {"kind": "PD", "n": [2], "rows": ["+J", "J."]},
            {"kind": "PD", "n": 2, "rows": 5},
            {"kind": "PD", "n": 2, "rows": [1, 2]},
        ],
    )
    def test_ill_typed_json_is_usage_error(self, capsys, tmp_path, data):
        src = tmp_path / "d.json"
        src.write_text(json.dumps(data))
        for argv in (
            ["render"],
            ["map", "--which", "phi", "--w", "2,1"],
            ["construct-up", "--w", "2,1"],
        ):
            code, out, err = run(capsys, *argv, "--in", str(src))
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [["render"], ["map", "--which", "phi", "--w", "2,1"], ["construct-up", "--w", "2,1"]],
        ids=["render", "map", "construct-up"],
    )
    def test_deeply_nested_json_is_usage_error(self, capsys, tmp_path, argv):
        src = tmp_path / "deep.json"
        src.write_text('{"kind": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, *argv, "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {src}: ")

    @pytest.mark.parametrize(
        "data, named",
        [
            ({"kind": "PD", "n": 1}, "missing key(s) 'rows'"),
            ({"kind": "PD", "n": -3, "rows": []}, "an integer n >= 1"),
            ({"kind": "PD", "n": 2, "rows": ["+J\nJ."]}, "unknown tile character '\\n'"),
            ({"kind": "BVPD", "n": 1, "rows": []}, "expected 1x0 grid for BVPD of size 1"),
        ],
        ids=["no-rows", "negative-n", "line-break-row", "empty-bvpd"],
    )
    def test_json_without_a_grid_names_the_field(self, capsys, tmp_path, data, named):
        src = tmp_path / "d.json"
        src.write_text(json.dumps(data))
        code, out, err = run(capsys, "render", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {src}: ") and named in err
        assert "Traceback" not in err

    def test_a_grid_of_the_wrong_shape_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "d.json"
        src.write_text(json.dumps({"kind": "PD", "n": 3, "rows": ["++", "+.", ".."]}))
        code, out, err = run(capsys, "render", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err == f"error: {src}: expected 3x3 grid for PD of size 3\n"

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "absent.json"
        code, out, err = run(capsys, "render", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {src}: ")
        assert "Traceback" not in err

    def test_an_undecodable_file_is_named(self, capsys, tmp_path):
        # A UTF-16 byte-order mark is no UTF-8 text: the refusal names the
        # file, as every other refusal of the reader does.
        src = tmp_path / "bom.txt"
        src.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "render", "--in", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {src}: ") and "can't decode byte 0xff" in err
        assert "Traceback" not in err


# The module is imported already, which runpy warns about; it still runs it
# afresh under ``__main__``.
@pytest.mark.filterwarnings("ignore:'pipedreams.cli' found in sys.modules:RuntimeWarning")
def test_running_the_module_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["pipedreams", "poly", "--w", "1,1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("pipedreams.cli", run_name="__main__")
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
