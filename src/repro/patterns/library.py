"""Named patterns and composite configurations.

The library of point sets referenced by the paper's figures and by the
examples/benchmarks: the Figure 1 trio (cube, regular octagon, square
antiprism), the seven go-to-center polyhedra, and helpers to compose
multiple orbit shells at distinct radii (e.g. a cube plus a concentric
regular octahedron, Figure 26).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import GeometryError
from repro.patterns import polyhedra

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.core.configuration import Configuration

__all__ = ["named_pattern", "named_configuration", "pattern_names",
           "pattern_summary", "pattern_summaries", "compose_shells"]

_GENERATORS: dict[str, Callable[..., list[np.ndarray]]] = {
    "tetrahedron": polyhedra.regular_tetrahedron,
    "cube": polyhedra.cube,
    "octahedron": polyhedra.regular_octahedron,
    "dodecahedron": polyhedra.regular_dodecahedron,
    "icosahedron": polyhedra.regular_icosahedron,
    "cuboctahedron": polyhedra.cuboctahedron,
    "icosidodecahedron": polyhedra.icosidodecahedron,
    "octagon": lambda radius=1.0: polyhedra.regular_polygon_pattern(
        8, radius),
    "square_antiprism": lambda radius=1.0: polyhedra.antiprism(4, radius),
    "square": lambda radius=1.0: polyhedra.regular_polygon_pattern(4, radius),
    "triangle": lambda radius=1.0: polyhedra.regular_polygon_pattern(
        3, radius),
    "pentagonal_prism": lambda radius=1.0: polyhedra.prism(5, radius),
    "hexagonal_antiprism": lambda radius=1.0: polyhedra.antiprism(6, radius),
    "square_pyramid": lambda radius=1.0: polyhedra.pyramid(4, radius),
}


def pattern_names() -> list[str]:
    """Names accepted by :func:`named_pattern`."""
    return sorted(_GENERATORS)


def named_pattern(name: str, radius: float = 1.0) -> list[np.ndarray]:
    """A named point set from the library, scaled to ``radius``."""
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise GeometryError(
            f"unknown pattern {name!r}; known: {pattern_names()}") from None
    return generator(radius=radius)


@functools.lru_cache(maxsize=len(_GENERATORS))
def named_configuration(name: str) -> "Configuration":
    """The unit-radius library pattern ``name`` as a ``Configuration``.

    Built once per process: a configuration is immutable and caches
    its enclosing ball and symmetry report, so every later caller
    shares one ``B(F)`` and one ``γ(F)`` (and, through the report's
    congruence-class entry, one ``ϱ(F)``).  Raises
    :class:`GeometryError` for an unknown name; nothing is stored for
    it, so the cache holds at most the library's patterns.
    """
    from repro.core.configuration import Configuration

    return Configuration(named_pattern(name))


def pattern_summary(name: str, radius: float = 1.0) -> dict:
    """Cardinality, ``γ(P)`` spec and congruence signature of a pattern.

    The summary is persisted in the L3 on-disk cache
    (:mod:`repro.perf.disk`, kind ``"pattern"``) keyed by the exact
    generated point bytes, so listing the library (``repro patterns``)
    skips every symmetry detection on a warm cache.
    """
    from repro.core.configuration import Configuration
    from repro.core.signatures import congruence_signature
    from repro.perf import disk as _disk
    from repro.perf.stats import exact_digest

    points = named_pattern(name, radius)
    arr = np.asarray(points, dtype=float)
    key = exact_digest(b"pattern", name, arr)
    cached = _disk.disk_get_object("pattern", key)
    if cached is not None:
        return dict(cached)
    config = Configuration(points)
    report = config.symmetry
    gamma = str(report.spec) if report.kind == "finite" else report.kind
    summary = {
        "name": name,
        "n": int(config.n),
        "gamma": gamma,
        "signature": congruence_signature(
            config.n, np.asarray(report.multiplicities, dtype=np.int64)),
    }
    _disk.disk_put_object("pattern", key, summary)
    return summary


def pattern_summaries(radius: float = 1.0) -> list[dict]:
    """:func:`pattern_summary` for every library pattern, sorted."""
    return [pattern_summary(name, radius) for name in pattern_names()]


def compose_shells(*shells: list[np.ndarray],
                   radii: list[float] | None = None) -> list[np.ndarray]:
    """Union of point sets placed on concentric shells.

    Each shell is rescaled to the corresponding radius (defaults to
    ``1, 1.5, 2, ...``) so shells never collide.  Useful for building
    composite configurations such as a cube plus a regular octahedron
    with a common center (Figure 26 of the paper).
    """
    if radii is None:
        radii = [1.0 + 0.5 * i for i in range(len(shells))]
    if len(radii) != len(shells):
        raise GeometryError("radii must match the number of shells")
    combined: list[np.ndarray] = []
    for shell, radius in zip(shells, radii):
        scale = max(float(np.linalg.norm(p)) for p in shell)
        if scale <= 0:
            raise GeometryError("shells must not contain the center")
        combined.extend(radius * np.asarray(p, dtype=float) / scale
                        for p in shell)
    return combined
