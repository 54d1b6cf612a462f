"""Acceptance suite: the ten headline checks, each printed as one verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdicts; every
criterion asserts exact values and its wall-clock budget.
"""

import time

from pipedreams.bvpd import (
    bvpd_to_pd,
    enumerate_bvpd,
    mvpd_to_bvpd,
    pd_to_bvpd,
    predicted_cross_cells,
    top_grothendieck_via_bvpd,
)
from pipedreams.checks import run_check
from pipedreams.construct import construct_up
from pipedreams.diagrams import sort_key, weight, weighty_cells
from pipedreams.mvpd import (
    is_top,
    mvpd_set,
    pd_to_mvpd,
    tile_census_identity,
    top_mvpd_set,
)
from pipedreams.permutations import Perm, symmetric_group
from pipedreams.pipedream import (
    double_grothendieck,
    grothendieck,
    max_cross_count,
    pd_set,
    top_pd_set,
)
from pipedreams.polynomials import Monomial, Poly

W2413 = Perm.from_one_line([2, 4, 1, 3])
W165234 = Perm.from_one_line([1, 6, 5, 2, 3, 4])


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


def verdict(label: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] {label}: {elapsed:.2f}s of {budget:.0f}s budget{extra}")
    assert ok, f"{label}: checks failed{extra}"
    assert elapsed < budget, f"{label}: exceeded {budget}s ({elapsed:.2f}s)"


def inverse_fireworks(n):
    return [w for w in symmetric_group(n) if w.is_inverse_fireworks()]


def test_criterion_01_single_and_double_weight_sum_of_2413():
    t0 = time.perf_counter()
    ok = grothendieck(W2413).text() == "x1*x2^2 + x1^2*x2 - x1^2*x2^2"
    expected_double = (
        displayed_product(4, [(1, 1), (2, 1), (2, 2)])
        + displayed_product(4, [(1, 1), (2, 1), (1, 3)])
        + displayed_product(4, [(1, 1), (2, 1), (2, 2), (1, 3)]).scale(-1)
    )
    ok &= double_grothendieck(W2413) == expected_double
    ok &= len(pd_set(W2413)) == 3
    verdict("criterion 1: 2413 golden values", ok, t0, 1.0)


def test_criterion_02_three_marked_diagrams_by_both_routes():
    t0 = time.perf_counter()
    w = Perm.from_one_line([3, 1, 4, 2]).inverse  # inverse one-line 3142
    image = tuple(sorted((pd_to_mvpd(p, w) for p in pd_set(w)), key=sort_key))
    direct = mvpd_set(w)
    ok = len(image) == 3 and image == direct
    verdict("criterion 2: three marked diagrams, both enumerators", ok, t0, 1.0)


def test_criterion_03_route_agreement_up_to_s5():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 6):
        report = run_check("eq1-vs-cor37", n)
        ok &= report.ok
    verdict("criterion 3: signed sums agree on both routes, n <= 5", ok, t0, 30.0)


def test_criterion_04_removal_bijection_s5():
    t0 = time.perf_counter()
    report = run_check("prop36", 5)
    verdict("criterion 4: removal bijection exact on S_5", report.ok, t0, 30.0)


def test_criterion_05_top_degree_golden_165234():
    t0 = time.perf_counter()
    bs = enumerate_bvpd(W165234)
    formula = top_grothendieck_via_bvpd(W165234)
    ok = len(bs) == 6
    ok &= formula.text() == (
        "x1^2*x2^4*x3^3 + x1^3*x2^3*x3^3 + x1^3*x2^4*x3^2"
        " + x1^4*x2^2*x3^3 + x1^4*x2^3*x3^2 + x1^4*x2^4*x3"
    )
    sign = -1 if (max_cross_count(W165234) - W165234.inversions()) % 2 else 1
    ok &= formula == grothendieck(W165234).top_component().scale(sign)
    verdict("criterion 5: six bumpless diagrams and the top formula", ok, t0, 10.0)


def test_criterion_06_bijection_sweep_s6():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for w in inverse_fireworks(6):
        tops = top_mvpd_set(w)
        bs = enumerate_bvpd(w)
        if sorted((mvpd_to_bvpd(m, w) for m in tops), key=sort_key) != sorted(
            bs, key=sort_key
        ):
            ok, detail = False, f"column deletion misses the set at w={w}"
            break
        if sorted((bvpd_to_pd(b, w) for b in bs), key=sort_key) != sorted(
            top_pd_set(w), key=sort_key
        ):
            ok, detail = False, f"composite image wrong at w={w}"
            break
        if not all(weighty_cells(bvpd_to_pd(b, w)) == predicted_cross_cells(b) for b in bs):
            ok, detail = False, f"cross characterization fails at w={w}"
            break
        if not all(pd_to_bvpd(bvpd_to_pd(b, w), w) == b for b in bs):
            ok, detail = False, f"round trip fails at w={w}"
            break
        sign = -1 if (max_cross_count(w) - w.inversions()) % 2 else 1
        if top_grothendieck_via_bvpd(w) != grothendieck(w).top_component().scale(sign):
            ok, detail = False, f"top formula fails at w={w}"
            break
    verdict("criterion 6: bumpless bijections across S_6", ok, t0, 300.0, detail)


def test_criterion_07_tile_census_s5():
    t0 = time.perf_counter()
    ok = all(
        tile_census_identity(m, w)
        for w in symmetric_group(5)
        for m in mvpd_set(w)
    )
    verdict("criterion 7: census identity on every diagram of S_5", ok, t0, 30.0)


def test_criterion_08_degree_statistics_s5():
    t0 = time.perf_counter()
    ok = run_check("prop25", 5).ok and run_check("cor26", 5).ok
    verdict("criterion 8: degree vs major index and inverse symmetry", ok, t0, 30.0)


def test_criterion_09_constructor_s5():
    t0 = time.perf_counter()
    ok = True
    detail = ""
    multi_droop = 0
    for w in inverse_fireworks(5):
        for m in mvpd_set(w):
            if is_top(m, w):
                continue
            # construct_up steps until one weighty tile is gained; it raises
            # if a step leaves w's set, the chain revisits a diagram, or the
            # gain is not one x_i.
            cert = construct_up(m, w)
            before = weight(m)
            after = weight(cert.output)
            if after != before.times_x(cert.gained_row):
                ok, detail = False, f"weight not raised at w={w}"
                break
            if w.inverse.letters == (1, 4, 2, 5, 3):
                if sum(1 for s in cert.steps if s.op == "droop_prime") >= 2:
                    multi_droop += 1
        if not ok:
            break
    ok &= multi_droop >= 1
    verdict(
        "criterion 9: weight-raising constructor on S_5",
        ok,
        t0,
        120.0,
        detail or f"{multi_droop} two-droop certificate(s) for 13524",
    )


def test_criterion_10_support_conjectures():
    t0 = time.perf_counter()
    # conj13 checks direct growth everywhere and, on the inverse fireworks
    # part, that each certificate's weight is in the support.
    ok = run_check("conj12", 4).ok
    ok &= run_check("conj13", 4).ok
    ok &= run_check("conj13", 5, inverse_fireworks_only=True).ok
    verdict("criterion 10: support conjectures at desk scale", ok, t0, 120.0)
