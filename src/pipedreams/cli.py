"""Command-line surface: polynomials, enumeration, maps, and sweep checks.

Exit codes: 0 success or verified, 1 a check failed (witness printed),
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .bvpd import (
    bvpd_to_mvpd,
    bvpd_to_pd,
    enumerate_bvpd,
    mvpd_to_bvpd,
    pd_to_bvpd,
    top_grothendieck_via_bvpd,
)
from .checks import CHECKS, run_check
from .construct import construct_up
from .diagrams import Diagram, DiagramError, Kind
from .mvpd import mvpd_set, mvpd_to_pd, pd_to_mvpd
from .permutations import Perm
from .pipedream import double_grothendieck, grothendieck, pd_set, top_grothendieck
from .polynomials import Poly


def _parse_w(text: str) -> Perm:
    try:
        return Perm.from_one_line(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad permutation {text!r}: {exc}") from None


# Each map and the species it reads (bare-text files are parsed as that one).
_MAPS = {
    "phi": (pd_to_mvpd, Kind.PD),
    "phi-inv": (mvpd_to_pd, Kind.MVPD),
    "mb": (mvpd_to_bvpd, Kind.MVPD),
    "bm": (bvpd_to_mvpd, Kind.BVPD),
    "psi": (bvpd_to_pd, Kind.BVPD),
    "psi-inv": (pd_to_bvpd, Kind.PD),
}


def _read_diagram(path: str, kinds: Sequence[Kind]) -> Diagram:
    """A diagram file: JSON (which names its species), or bare text read as
    the first of ``kinds`` that accepts it."""
    try:
        text = Path(path).read_text().rstrip("\n")
    except OSError as exc:
        raise ValueError(str(exc)) from None
    if text.lstrip().startswith("{"):
        try:
            return Diagram.from_json(json.loads(text))
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    n = text.count("\n") + 1
    problems = []
    for kind in kinds:
        try:
            return Diagram.parse_text(kind, n, text)
        except DiagramError as exc:
            problems.append(f"not {kind.noun}: {exc}")
    raise ValueError(f"{path}: " + "; ".join(problems))


def _poly_out(p: Poly, as_json: bool) -> str:
    return json.dumps(p.to_json()) if as_json else p.text()


def _cmd_poly(args) -> int:
    w = _parse_w(args.w)
    p = double_grothendieck(w) if args.double else grothendieck(w)
    print(_poly_out(p, args.json))
    return 0


def _cmd_top(args) -> int:
    w = _parse_w(args.w)
    if w.is_inverse_fireworks():
        p = top_grothendieck_via_bvpd(w)
    else:
        print(
            "notice: not inverse fireworks; extracting the top component by enumeration",
            file=sys.stderr,
        )
        p = top_grothendieck(w)
    print(_poly_out(p, args.json))
    return 0


# Each species' diagrams of w.  The MVPDs are filled directly, free of the
# pipe dreams and their bound; prop36 checks them against the PDs' image.
_DIAGRAM_SETS = {"pd": pd_set, "mvpd": mvpd_set, "bvpd": enumerate_bvpd}


def _cmd_enumerate(args) -> int:
    ds = _DIAGRAM_SETS[args.kind](_parse_w(args.w))
    if args.json:
        print(json.dumps([d.to_json() for d in ds]))
    else:
        print("\n\n".join(d.render_text() for d in ds))
    return 0


def _cmd_map(args) -> int:
    w = _parse_w(args.w)
    fn, kind = _MAPS[args.which]
    d = _read_diagram(args.infile, (kind,))
    print(fn(d, w).render_text())
    return 0


def _cmd_construct_up(args) -> int:
    w = _parse_w(args.w)
    d = _read_diagram(args.infile, (Kind.MVPD,))
    cert = construct_up(d, w)
    if args.trace:
        print("input:")
        print(d.render_text())
        replay = d
        for step in cert.steps:
            try:
                replay = step.apply(replay, w)
            except DiagramError as exc:
                print(f"error: a replayed step fails: {exc}", file=sys.stderr)
                return 1
            print(f"after {step.op} at {step.cell}:")
            print(replay.render_text())
        if replay != cert.output:
            print("error: the replayed steps do not reach the certificate's output", file=sys.stderr)
            return 1
    print(json.dumps(cert.to_json()))
    return 0


def _cmd_check(args) -> int:
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    report = run_check(args.what, args.n, args.inverse_fireworks_only)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_render(args) -> int:
    print(_read_diagram(args.infile, tuple(Kind)).render_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="pipedreams", description="Pipe-dream calculus for Grothendieck polynomials"
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="signed weight sum of a permutation")
    p.add_argument("--w", required=True, help="one-line notation, comma separated")
    p.add_argument("--double", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("top", help="top-degree component")
    p.add_argument("--w", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser("enumerate", help="list the diagrams of a permutation")
    p.add_argument("--kind", required=True, choices=list(_DIAGRAM_SETS))
    p.add_argument("--w", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("map", help="apply one of the bijections to a diagram file")
    p.add_argument("--which", required=True, choices=sorted(_MAPS))
    p.add_argument("--w", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("construct-up", help="raise a diagram's weight by one variable")
    p.add_argument("--w", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=_cmd_construct_up)

    p = sub.add_parser("check", help="run a cross-validation sweep")
    p.add_argument("--what", required=True, choices=sorted(CHECKS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inverse-fireworks-only", action="store_true")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("render", help="normalize a diagram file to text")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(fn=_cmd_render)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
