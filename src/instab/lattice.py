"""Integer-lattice geometry of advection orbits.

A steady unidirectional flow with wavevector p couples a Fourier mode q only
to its translates q + n*p, n in Z.  Everything downstream (coefficient
streams, dispersion relations, truncated operators) is indexed along one such
orbit, so the first job is to classify orbits by how they meet the open disk
of radius ||p||:

* Parallel   -- q is a multiple of p (zero advection coupling),
* Type0      -- no orbit point strictly inside the disk,
* TypeI0     -- exactly one point strictly inside, neither neighbour on the
                boundary circle,
* TypeIPlus  -- one point strictly inside and ||q + p|| = ||p||,
* TypeIMinus -- one point strictly inside and ||q - p|| = ||p||,
* TypeII     -- two points strictly inside.

All comparisons are exact: vectors are integer pairs and only squared norms
are ever compared.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import _check_number

__all__ = [
    "LatticeVector",
    "PointClass",
    "OrbitRep",
    "wedge",
    "canonical_rep",
    "classify",
    "enumerate_classes",
]


@dataclass(frozen=True, order=True)
class LatticeVector:
    """A point of Z^2 with exact arithmetic."""

    x: int
    y: int

    def __post_init__(self):
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("lattice coordinates must be integers")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x - other.x, self.y - other.y)

    def scaled(self, n: int) -> "LatticeVector":
        return LatticeVector(n * self.x, n * self.y)

    def dot(self, other: "LatticeVector") -> int:
        return self.x * other.x + self.y * other.y

    @property
    def norm_sq(self) -> int:
        return self.x * self.x + self.y * self.y

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


class PointClass(enum.Enum):
    """Orbit classes; the value is the display tag used by the CLI."""

    PARALLEL = "parallel"
    TYPE_0 = "0"
    TYPE_I0 = "I0"
    TYPE_I_PLUS = "I+"
    TYPE_I_MINUS = "I-"
    TYPE_II = "II"


@dataclass(frozen=True)
class OrbitRep:
    """Canonical representative of the orbit {q + n*p}.

    ``rep = q + shift*p`` minimizes the norm over the orbit; ties between two
    minimal points are resolved toward the larger shift.
    """

    rep: LatticeVector
    shift: int


def wedge(p: LatticeVector, q: LatticeVector) -> int:
    """Wedge (cross) product p1*q2 - p2*q1; zero iff p and q are parallel."""
    return p.x * q.y - p.y * q.x


def canonical_rep(q: LatticeVector, p: LatticeVector) -> OrbitRep:
    """Minimize ||q + n*p|| over integer n, exactly.

    ||q + n*p||^2 is a convex integer quadratic in n with real vertex
    -(q.p)/||p||^2, so the minimizer is one of the two integers around the
    vertex.  On a tie the larger n wins.
    """
    if p.is_zero():
        raise ValueError("p must be nonzero")
    pp = p.norm_sq
    # floor of the real vertex; exact for negative values too
    n0 = -q.dot(p) // pp
    n = n0 + 1 if (q + p.scaled(n0 + 1)).norm_sq <= (q + p.scaled(n0)).norm_sq else n0
    return OrbitRep(rep=q + p.scaled(n), shift=n)


def classify(q: LatticeVector, p: LatticeVector) -> PointClass:
    """Classify the orbit of q under translation by p.  Exact arithmetic."""
    if p.is_zero():
        raise ValueError("p must be nonzero")
    if wedge(p, q) == 0:
        return PointClass.PARALLEL
    pp = p.norm_sq
    r = canonical_rep(q, p).rep
    if r.norm_sq >= pp:
        return PointClass.TYPE_0
    # r is the unique norm minimizer inside the open disk; a second interior
    # point, if any, is one of its orbit neighbours
    plus = (r + p).norm_sq
    minus = (r - p).norm_sq
    if plus < pp or minus < pp:
        return PointClass.TYPE_II
    if plus == pp:
        return PointClass.TYPE_I_PLUS
    if minus == pp:
        return PointClass.TYPE_I_MINUS
    return PointClass.TYPE_I0


def enumerate_classes(
    p: LatticeVector, radius: float
) -> list[tuple[OrbitRep, PointClass]]:
    """All orbits with canonical representative in the closed disk ||v|| <= radius.

    Each orbit appears exactly once, keyed by its canonical representative
    (parallel orbits included, tagged PARALLEL).  Sorted by squared norm,
    then lexicographically, so output order is deterministic.
    """
    if p.is_zero():
        raise ValueError("p must be nonzero")
    _check_number("radius", radius, "nonnegative")
    r_sq = radius * radius
    bound = int(radius) + 1
    seen: dict[LatticeVector, PointClass] = {}
    for x in range(-bound, bound + 1):
        for y in range(-bound, bound + 1):
            v = LatticeVector(x, y)
            if v.norm_sq > r_sq:
                continue
            # the canonical rep of anything in the disk stays in the disk
            rep = canonical_rep(v, p).rep
            if rep not in seen:
                seen[rep] = classify(rep, p)
    out = sorted(seen.items(), key=lambda kv: (kv[0].norm_sq, kv[0].x, kv[0].y))
    return [(OrbitRep(rep=v, shift=0), cls) for v, cls in out]
