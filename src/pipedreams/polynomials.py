"""Exact sparse polynomials over the integers in x_1..x_n and y_1..y_n.

Coefficients are Python ints (arbitrary precision); zero coefficients are
never stored, and ``Poly.__init__`` is the one place that drops them.  Terms
print and serialize in graded-lexicographic order so all outputs are stable.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple


class Monomial(NamedTuple):
    """Exponent vectors for the x and y variable blocks (equal length).

    A tuple, so that hashing and equality run in C: ``Monomial(x, y) ==
    (x, y)``.  ``*`` multiplies monomials; it does not repeat the tuple."""

    x: tuple[int, ...]
    y: tuple[int, ...]

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
    """Immutable sparse polynomial with integer coefficients.  Slotted, with
    a ``__weakref__`` slot so that the double sums can remember the last
    polynomial they built without keeping it alive."""

    __slots__ = ("n", "_terms", "__weakref__")

    def __init__(self, n: int, terms: Mapping[Monomial, int] | None = None):
        self.n = n
        self._terms: dict[Monomial, int] = {
            m: c for m, c in (terms or {}).items() if c != 0
        }

    def items(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def sorted_items(self) -> list[tuple[Monomial, int]]:
        return sorted(self._terms.items(), key=lambda mc: mc[0].sort_key())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly) and self.n == other.n and self._terms == other._terms
        )

    def __add__(self, other: Poly) -> Poly:
        self._check_compatible(other)
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.n, out)

    def __mul__(self, other: Poly) -> Poly:
        self._check_compatible(other)
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                out[m] = out.get(m, 0) + c1 * c2
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

    def top_component(self) -> Poly:
        d = self.total_degree()
        return Poly(self.n, {m: c for m, c in self._terms.items() if m.degree == d})

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
