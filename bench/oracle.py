"""Grothendieck polynomials by isobaric divided differences.

This is the benchmark's independent reference (Lascoux and Schuetzenberger,
1982).  It imports nothing from ``pipedreams``: a polynomial here is a dict
from an exponent tuple to a non-zero int.  Single polynomials use the
exponents (x_1..x_n); double ones use (x_1..x_n, y_1..y_n).

    G_{w0}            = prod_i x_i^(n-i)     (single)
                      = prod_{i+j<=n} (x_i + y_j - x_i*y_j)   (double)
    G_{w s_i}         = pi_i G_w   whenever w(i) > w(i+1)
    pi_i f            = d_i((1 - x_{i+1}) f),   d_i g = (g - s_i g) / (x_i - x_{i+1})

Run ``python3 bench/oracle.py`` for the self-checks against closed forms.
"""

from __future__ import annotations

import sys
from itertools import permutations

Poly = dict  # exponent tuple -> non-zero int


def _add(acc: Poly, e: tuple, c: int) -> None:
    v = acc.get(e, 0) + c
    if v:
        acc[e] = v
    else:
        acc.pop(e, None)


def mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            _add(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return out


def isobaric(p: Poly, i: int) -> Poly:
    """pi_i on the x variables, i one-based (acts on x_i and x_{i+1})."""
    lo, hi = i - 1, i
    out: Poly = {}
    for e, c in p.items():
        bumped = e[:hi] + (e[hi] + 1,) + e[hi + 1 :]
        for f, k in ((e, c), (bumped, -c)):
            a, b = f[lo], f[hi]
            if a > b:
                for t in range(a - b):
                    _add(out, f[:lo] + (a - 1 - t, b + t) + f[hi + 1 :], k)
            elif a < b:
                for t in range(b - a):
                    _add(out, f[:lo] + (a + t, b - 1 - t) + f[hi + 1 :], -k)
    return out


def _top(n: int, double: bool) -> Poly:
    if not double:
        return {tuple(n - i for i in range(1, n + 1)): 1}
    out: Poly = {(0,) * (2 * n): 1}
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            x = [0] * (2 * n)
            x[i - 1] = 1
            y = [0] * (2 * n)
            y[n + j - 1] = 1
            xy = [a + b for a, b in zip(x, y)]
            out = mul(out, {tuple(x): 1, tuple(y): 1, tuple(xy): -1})
    return out


class Grothendieck:
    """Memoised G_w for one size n, reached from w0 by isobaric steps."""

    def __init__(self, n: int, *, double: bool = False):
        self.n = n
        self.double = double
        w0 = tuple(range(n, 0, -1))
        self._memo: dict[tuple[int, ...], Poly] = {w0: _top(n, double)}

    def __call__(self, w: tuple[int, ...]) -> Poly:
        """G_w for w in one-line notation."""
        if sorted(w) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {w}")
        chain = []
        while w not in self._memo:
            i = next(k for k in range(1, self.n) if w[k - 1] < w[k])
            chain.append(i)
            w = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
        p = self._memo[w]
        for i in reversed(chain):
            w = w[: i - 1] + (w[i], w[i - 1]) + w[i + 1 :]
            p = isobaric(p, i)
            self._memo[w] = p
        return p


def degree(p: Poly) -> int:
    return max(sum(e) for e in p)


def inversions(w: tuple[int, ...]) -> int:
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w)) if w[a] > w[b])


def signed_top(p: Poly, w: tuple[int, ...]) -> Poly:
    """The top-degree component times (-1)^(degree - length), which makes
    every coefficient positive."""
    d = degree(p)
    sign = -1 if (d - inversions(w)) % 2 else 1
    return {e: sign * c for e, c in p.items() if sum(e) == d}


def self_check(max_n: int = 5) -> list[str]:
    """Compare the oracle with closed forms; returns the failures."""
    problems = []
    for n in range(1, max_n + 1):
        single = Grothendieck(n)
        double = Grothendieck(n, double=True) if n <= 4 else None
        ident = tuple(range(1, n + 1))
        if single(ident) != {(0,) * n: 1}:
            problems.append(f"n={n}: G_id is not 1")
        w0 = tuple(range(n, 0, -1))
        if single(w0) != {tuple(n - i for i in range(1, n + 1)): 1}:
            problems.append(f"n={n}: G_w0 is not prod x_i^(n-i)")
        for k in range(1, n):
            s_k = ident[: k - 1] + (k + 1, k) + ident[k + 1 :]
            want: Poly = {(0,) * n: 1}
            prod: Poly = {(0,) * n: 1}
            for i in range(1, k + 1):
                xi = tuple(1 if m == i - 1 else 0 for m in range(n))
                prod = mul(prod, {(0,) * n: 1, xi: -1})
            for e, c in prod.items():
                _add(want, e, -c)
            if single(s_k) != want:
                problems.append(f"n={n}: G_s{k} is not 1 - prod_(i<={k}) (1 - x_i)")
        for w in permutations(range(1, n + 1)):
            g = single(w)
            if sum(g.values()) != 1:
                problems.append(f"n={n}: G_{w}(1,...,1) != 1")
            if any(c * (-1) ** (sum(e) - inversions(w)) < 0 for e, c in g.items()):
                problems.append(f"n={n}: G_{w} has a coefficient of the wrong sign")
            if double is not None:
                at_y0 = {e[:n]: c for e, c in double(w).items() if not any(e[n:])}
                if at_y0 != g:
                    problems.append(f"n={n}: double G_{w} at y=0 is not the single G_{w}")
    return problems


if __name__ == "__main__":
    failures = self_check()
    for line in failures:
        print(line)
    print("oracle self-check:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
