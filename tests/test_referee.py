"""Both polynomial routes against a referee that shares no code with them.

``bench/oracle.py`` computes Grothendieck polynomials by isobaric divided
differences from w0 and imports nothing from ``pipedreams``.  It is loaded
by path, so this test reads the same file the benchmark checks against.
"""

import importlib.util
from pathlib import Path

import pytest

from pipedreams.mvpd import double_grothendieck_via_mvpd, grothendieck_via_mvpd
from pipedreams.permutations import symmetric_group
from pipedreams.pipedream import double_grothendieck, grothendieck

ORACLE_PATH = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"


@pytest.fixture(scope="module")
def oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exponents(p, double):
    """The oracle's form of p: exponent tuple (x, then y if double) -> coefficient.
    A stray y exponent in a single polynomial keeps its term unequal to all."""
    return {(m.x + m.y if double or any(m.y) else m.x): c for m, c in p.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
def test_both_routes_match_the_referee(oracle, n, double):
    referee = oracle.Grothendieck(n, double=double)
    routes = (
        (double_grothendieck, double_grothendieck_via_mvpd)
        if double
        else (grothendieck, grothendieck_via_mvpd)
    )
    for w in symmetric_group(n):
        want = referee(w.letters)
        for route in routes:
            assert _exponents(route(w), double) == want, (route.__name__, w)
