"""Pipe-dream calculus: diagram enumeration, weight polynomials, and the
bijections between the pipe-dream, marked vertical-less, and bumpless
vertical-less pictures."""

from .diagrams import Diagram, DiagramError, Kind, Tile, trace, validate
from .permutations import Code, Perm, symmetric_group
from .pipedream import (
    double_grothendieck,
    grothendieck,
    max_cross_count,
    pd_set,
    top_pd_set,
)
from .polynomials import Monomial, Poly

__all__ = [
    "Code",
    "Diagram",
    "DiagramError",
    "Kind",
    "Monomial",
    "Perm",
    "Poly",
    "Tile",
    "double_grothendieck",
    "grothendieck",
    "max_cross_count",
    "pd_set",
    "symmetric_group",
    "top_pd_set",
    "trace",
    "validate",
]
