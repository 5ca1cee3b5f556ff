"""Similarity transforms.

The paper's set ``T`` consists of rotations, translations, uniform
scalings and their combinations (all orientation preserving, since
local coordinate systems are right-handed).  ``F' ≃ F`` means there is
a ``Z ∈ T`` with ``F' = Z(F)``; :meth:`repro.core.configuration.
Configuration.is_similar_to` decides it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeometryError
from repro.geometry.rotations import is_rotation_matrix, random_rotation
from repro.geometry.vectors import as_vector

__all__ = ["Similarity"]


@dataclass(frozen=True)
class Similarity:
    """Orientation-preserving similarity ``x -> scale * R x + t``."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    scale: float = 1.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise GeometryError("similarity scale must be positive")
        if not is_rotation_matrix(self.rotation):
            raise GeometryError("similarity rotation must be in SO(3)")

    def apply(self, point) -> np.ndarray:
        """Image of a single point."""
        return self.scale * (self.rotation @ as_vector(point)) + self.translation

    def apply_all(self, points) -> list[np.ndarray]:
        """Image of each point in a collection (order preserved)."""
        return [self.apply(p) for p in points]

    def inverse(self) -> "Similarity":
        """The inverse similarity."""
        rot_inv = self.rotation.T
        scale_inv = 1.0 / self.scale
        return Similarity(
            rotation=rot_inv,
            scale=scale_inv,
            translation=-scale_inv * (rot_inv @ self.translation),
        )

    def compose(self, other: "Similarity") -> "Similarity":
        """Return the similarity ``self ∘ other`` (apply other first)."""
        return Similarity(
            rotation=self.rotation @ other.rotation,
            scale=self.scale * other.scale,
            translation=self.scale * (self.rotation @ other.translation)
            + self.translation,
        )

    @staticmethod
    def random(rng: np.random.Generator,
               scale_range: tuple[float, float] = (0.2, 5.0),
               translation_scale: float = 10.0) -> "Similarity":
        """Random similarity (uniform rotation, log-uniform scale)."""
        low, high = scale_range
        scale = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        return Similarity(
            rotation=random_rotation(rng),
            scale=scale,
            translation=rng.normal(scale=translation_scale, size=3),
        )
