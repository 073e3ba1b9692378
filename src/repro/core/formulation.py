"""The DE problem formulation: parameters and cut specifications.

The paper's DE problem (section 3): given a relation ``R``, a distance
``d``, an aggregation ``AGG``, an SN threshold ``c``, and a *cut
specification* — a size bound ``K`` (``DE_S(K)``) or a diameter bound
``θ`` (``DE_D(θ)``) — partition ``R`` into the minimum number of groups
that are each (i) compact, (ii) ``SN(AGG, c)``, and (iii) within the
cut bound.

The initial CS+SN-only formulation is deliberately *not* offered: the
paper shows it degenerates (its integer example collapses
``{1, 2, 4, 21, 22, 31, 32}`` into one group), which is exactly why the
cut specifications exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.core.criteria import AGGREGATIONS

__all__ = ["SizeCut", "DiameterCut", "CombinedCut", "CutSpec", "DEParams"]


@dataclass(frozen=True)
class SizeCut:
    """``|G| <= K``: groups of duplicates are small (``DE_S(K)``)."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("K must be a positive integer")

    def __str__(self) -> str:
        return f"size<={self.k}"


@dataclass(frozen=True)
class DiameterCut:
    """``Diameter(G) <= θ``: within-group distances are bounded (``DE_D(θ)``)."""

    theta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in the open interval (0, 1)")

    def __str__(self) -> str:
        return f"diam<={self.theta}"


@dataclass(frozen=True)
class CombinedCut:
    """``|G| <= K`` **and** ``Diameter(G) <= θ`` together.

    The paper notes "it is also possible to use size and diameter
    specifications together"; Phase 1 then fetches the K nearest
    neighbors within radius θ, and both bounds hold by construction.
    """

    k: int
    theta: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("K must be a positive integer")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must be in the open interval (0, 1)")

    def __str__(self) -> str:
        return f"size<={self.k}&diam<={self.theta}"


CutSpec = Union[SizeCut, DiameterCut, CombinedCut]


@dataclass(frozen=True)
class DEParams:
    """Full parameterization of a DE problem instance.

    Parameters
    ----------
    cut:
        The size or diameter specification.
    agg:
        SN aggregation function name (``max``, ``avg``, or ``max2``).
    c:
        SN threshold (must exceed 1: a lone duplicate pair already has
        neighborhood growth 2).
    p:
        Neighborhood radius multiplier; the paper fixes ``p = 2``.
    """

    cut: CutSpec
    agg: str = "max"
    c: float = 4.0
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.agg not in AGGREGATIONS:
            raise ValueError(
                f"unknown aggregation {self.agg!r}; expected one of "
                f"{sorted(AGGREGATIONS)}"
            )
        if self.c <= 1.0:
            raise ValueError("SN threshold c must be greater than 1")
        if self.p <= 1.0:
            raise ValueError("neighborhood multiplier p must exceed 1")

    @property
    def is_size_spec(self) -> bool:
        return isinstance(self.cut, SizeCut)

    @property
    def k(self) -> int:
        """The size bound K (size and combined specifications)."""
        if not isinstance(self.cut, (SizeCut, CombinedCut)):
            raise AttributeError("diameter-spec parameters have no K")
        return self.cut.k

    @property
    def theta(self) -> float:
        """The diameter bound θ (diameter and combined specifications)."""
        if not isinstance(self.cut, (DiameterCut, CombinedCut)):
            raise AttributeError("size-spec parameters have no theta")
        return self.cut.theta

    @property
    def bounds(self) -> tuple[int | None, float | None]:
        """The cut's ``(k, theta)`` pair, ``None`` for an absent bound.

        This is the query shape of :meth:`~repro.index.base.NNIndex
        .phase1_batch`: ``k`` alone is the size cut, ``theta`` alone the
        diameter cut, both the combined cut (the k nearest within θ).
        """
        cut = self.cut
        k = cut.k if isinstance(cut, (SizeCut, CombinedCut)) else None
        theta = (
            cut.theta if isinstance(cut, (DiameterCut, CombinedCut)) else None
        )
        return k, theta

    def describe(self) -> str:
        return f"DE({self.cut}, agg={self.agg}, c={self.c}, p={self.p})"

    @classmethod
    def size(cls, k: int, agg: str = "max", c: float = 4.0, p: float = 2.0) -> "DEParams":
        """Convenience constructor for ``DE_S(K)``."""
        return cls(cut=SizeCut(k), agg=agg, c=c, p=p)

    @classmethod
    def diameter(
        cls, theta: float, agg: str = "max", c: float = 4.0, p: float = 2.0
    ) -> "DEParams":
        """Convenience constructor for ``DE_D(θ)``."""
        return cls(cut=DiameterCut(theta), agg=agg, c=c, p=p)

    @classmethod
    def combined(
        cls,
        k: int,
        theta: float,
        agg: str = "max",
        c: float = 4.0,
        p: float = 2.0,
    ) -> "DEParams":
        """Convenience constructor for the joint size+diameter cut."""
        return cls(cut=CombinedCut(k, theta), agg=agg, c=c, p=p)
