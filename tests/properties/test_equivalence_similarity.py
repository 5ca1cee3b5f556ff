"""``Configuration.is_similar_to`` against the rotation search it replaced.

``P ≃ F`` is decided by the congruence cache's hit test: equal keys,
sorted unit radii, then a rotation certified on the whole multiset.
``kernel_oracle.are_similar`` is the earlier, independent search
(centroid normalisation, a pairwise rotation search and a greedy
multiset match).  Both must give one verdict on similarity images,
mirror images and perturbed copies of catalog patterns, random clouds,
multisets, collinear and coincident sets.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

import kernel_oracle as oracle
from repro.core.configuration import Configuration
from repro.geometry.transforms import Similarity
from repro.patterns.library import named_pattern, pattern_names

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)

MIRROR = np.array([1.0, 1.0, -1.0])

# A perturbed copy moves one point by this fraction of rad(B(P)).
PERTURBATION = 1e-2


def _cloud(n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return list(rng.normal(size=(n, 3)))


def _collinear(n: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=3)
    heights = rng.uniform(-1.0, 1.0, size=n)
    return [h * direction for h in heights]


def _coincident(n: int, seed: int) -> list[np.ndarray]:
    point = np.random.default_rng(seed).normal(size=3)
    return [point.copy() for _ in range(n)]


@st.composite
def bases(draw) -> list[np.ndarray]:
    """A catalog pattern, a random cloud, a collinear or a coincident
    set, possibly with some of its points doubled (a multiset)."""
    seed = draw(seeds)
    points = draw(st.one_of(
        st.sampled_from(pattern_names()).map(named_pattern),
        st.integers(4, 16).map(lambda n: _cloud(n, seed)),
        st.integers(3, 9).map(lambda n: _collinear(n, seed)),
        st.integers(2, 6).map(lambda n: _coincident(n, seed)),
    ))
    doubled = draw(st.integers(0, min(3, len(points))))
    return points + [p.copy() for p in points[:doubled]]


def _transformed(points, how: str, rng) -> list[np.ndarray]:
    if how == "mirror":
        points = [p * MIRROR for p in points]
    elif how == "perturbed":
        radius = Configuration(points).radius
        direction = rng.normal(size=3)
        shift = (PERTURBATION * (radius if radius > 0 else 1.0)
                 * direction / np.linalg.norm(direction))
        index = int(rng.integers(len(points)))
        points = [p + shift if i == index else p
                  for i, p in enumerate(points)]
    return Similarity.random(rng).apply_all(points)


@settings(max_examples=60, deadline=None)
@given(base=bases(), how=st.sampled_from(["image", "mirror", "perturbed"]),
       seed=seeds)
def test_is_similar_to_agrees_with_the_rotation_search(base, how, seed):
    other = _transformed(base, how, np.random.default_rng(seed))
    verdict = Configuration(base).is_similar_to(other)
    assert verdict == oracle.are_similar(base, other)
    if how == "image":
        assert verdict
