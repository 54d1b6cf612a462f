"""Exact sparse polynomials over the integers in x_1..x_n and y_1..y_n.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored.  Terms print and serialize in graded-lexicographic order so
all outputs are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Monomial:
    """Exponent vectors for the x and y variable blocks (equal length)."""

    x: tuple[int, ...]
    y: tuple[int, ...]

    @classmethod
    def one(cls, n: int) -> Monomial:
        return cls((0,) * n, (0,) * n)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> Monomial:
        """x_i exponent = multiplicity of i among ``rows``; no y part."""
        xs = [0] * n
        for i in rows:
            if not 1 <= i <= n:
                raise ValueError(f"row {i} out of range 1..{n}")
            xs[i - 1] += 1
        return cls(tuple(xs), (0,) * n)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def degree(self) -> int:
        return sum(self.x) + sum(self.y)

    def times_x(self, i: int) -> Monomial:
        xs = list(self.x)
        xs[i - 1] += 1
        return Monomial(tuple(xs), self.y)

    def __mul__(self, other: Monomial) -> Monomial:
        return Monomial(
            tuple(a + b for a, b in zip(self.x, other.x)),
            tuple(a + b for a, b in zip(self.y, other.y)),
        )

    def divides(self, other: Monomial) -> bool:
        return all(a <= b for a, b in zip(self.x, other.x)) and all(
            a <= b for a, b in zip(self.y, other.y)
        )

    def sort_key(self) -> tuple:
        # Graded, with ties broken so pure-x terms precede y-touching ones.
        return (self.degree, self.y, self.x)

    def text(self) -> str:
        parts = [f"x{i}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(self.x, 1) if e]
        parts += [f"y{j}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(self.y, 1) if e]
        return "*".join(parts) if parts else "1"


class Poly:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | None = None):
        self.n = n
        self._terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    @classmethod
    def zero(cls, n: int) -> Poly:
        return cls(n)

    @classmethod
    def one(cls, n: int) -> Poly:
        return cls(n, {Monomial.one(n): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: int = 1) -> Poly:
        return cls(m.n, {m: coeff})

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly) and self.n == other.n and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other: Poly) -> Poly:
        self._check_compatible(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            elif m in out:
                del out[m]
        return Poly(self.n, out)

    def __neg__(self) -> Poly:
        return Poly(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check_compatible(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                elif m in out:
                    del out[m]
        return Poly(self.n, out)

    def scale(self, k: int) -> Poly:
        return Poly(self.n, {m: k * c for m, c in self._terms.items()})

    def _check_compatible(self, other: Poly) -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} vs {other.n}")

    def support(self) -> frozenset[Monomial]:
        return frozenset(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial")
        return max(m.degree for m in self._terms)

    def min_degree(self) -> int:
        if not self._terms:
            raise ValueError("degree of the zero polynomial")
        return min(m.degree for m in self._terms)

    def top_component(self) -> Poly:
        d = self.total_degree()
        return Poly(self.n, {m: c for m, c in self._terms.items() if m.degree == d})

    def min_degree_component(self) -> Poly:
        d = self.min_degree()
        return Poly(self.n, {m: c for m, c in self._terms.items() if m.degree == d})

    def substitute_y_zero(self) -> Poly:
        """Set every y_j to 0 (terms touching a y variable vanish)."""
        return Poly(self.n, {m: c for m, c in self._terms.items() if not any(m.y)})

    def evaluate(self, xs: Iterable[int], ys: Iterable[int] | None = None) -> int:
        """Exact evaluation at integer points (ys defaults to all zeros)."""
        xv = list(xs)
        yv = list(ys) if ys is not None else [0] * self.n
        total = 0
        for m, c in self._terms.items():
            v = c
            for base, e in zip(xv, m.x):
                v *= base**e
            for base, e in zip(yv, m.y):
                v *= base**e
            total += v
        return total

    def text(self) -> str:
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for k, (m, c) in enumerate(self.sorted_items()):
            body = m.text()
            if abs(c) != 1:
                body = f"{abs(c)}*{body}" if body != "1" else str(abs(c))
            if k == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append((" + " if c > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.text()})"

    def to_json(self) -> list[dict]:
        return [
            {"c": c, "x": list(m.x), "y": list(m.y)} for m, c in self.sorted_items()
        ]

    @classmethod
    def from_json(cls, n: int, data: Iterable[Mapping]) -> Poly:
        terms: dict[Monomial, int] = {}
        for entry in data:
            m = Monomial(tuple(entry["x"]), tuple(entry["y"]))
            terms[m] = terms.get(m, 0) + int(entry["c"])
        return cls(n, terms)


def weight_factor(n: int, i: int, j: int) -> Poly:
    """The double-weight factor x_i + y_j - x_i*y_j for one cell."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"cell ({i},{j}) out of range for n={n}")
    xs = [0] * n
    ys = [0] * n
    xs[i - 1] = 1
    mx = Monomial(tuple(xs), (0,) * n)
    ys[j - 1] = 1
    my = Monomial((0,) * n, tuple(ys))
    return Poly(n, {mx: 1, my: 1, mx * my: -1})


def weight_factor_product(n: int, cells: Iterable[tuple[int, int]]) -> Poly:
    """Expanded product of the double-weight factors over the given cells."""
    out = Poly.one(n)
    for i, j in cells:
        out = out * weight_factor(n, i, j)
    return out
