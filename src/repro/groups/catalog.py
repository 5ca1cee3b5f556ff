"""Standard-frame constructors for the five rotation-group families.

Each constructor returns a :class:`~repro.groups.group.RotationGroup`
whose arrangement sits in a canonical coordinate frame:

* ``C_k`` — single ``k``-fold axis along +z.
* ``D_l`` — principal ``l``-fold axis along +z, one secondary 2-fold
  axis along +x.
* ``T`` — 3-fold axes along the diagonals of the cube ``[-1, 1]^3``
  (tetrahedron vertices ``(1,1,1), (1,-1,-1), (-1,1,-1), (-1,-1,1)``),
  2-fold axes along the coordinate axes.
* ``O`` — 4-fold axes along the coordinate axes.
* ``I`` — generated from a 5-fold axis through the icosahedron vertex
  ``(0, 1, φ)`` and the 2-fold z-axis, closed under products.
"""

from __future__ import annotations


import numpy as np

from repro.errors import GroupError
from repro.geometry.rotations import rotation_about_axis
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.groups.group import GroupKind, GroupSpec, RotationGroup, element_key

__all__ = [
    "cyclic_group",
    "dihedral_group",
    "tetrahedral_group",
    "octahedral_group",
    "icosahedral_group",
    "group_from_spec",
    "identity_group",
]

GOLDEN_RATIO = (1.0 + np.sqrt(5.0)) / 2.0


def _mark(group: RotationGroup, catalog_key: str) -> RotationGroup:
    """Tag a standard-frame group as catalog-built.

    The marker opts the group's subgroup lattice into the L3 on-disk
    cache (:mod:`repro.perf.disk`): catalog element stacks are
    bit-stable across runs, unlike detected arrangements.
    """
    group._catalog_key = catalog_key
    return group


def _cached_elements(name: str, build) -> list[np.ndarray]:
    """Serve a polyhedral element stack from the L3 store.

    The closure/enumeration that builds the stack is a pure function
    of the catalog name (the constructors take no geometric inputs),
    so one ``(kind="catalog", name)`` entry per polyhedral family
    removes the cold-start rebuild from every CLI/benchmark run.
    """
    from repro.perf import disk as _disk
    from repro.perf.stats import exact_digest

    key = exact_digest(b"catalog", name)
    found = _disk.disk_get("catalog", key)
    if found is not None:
        _, arrays = found
        stack = arrays.get("elements")
        if stack is not None and stack.ndim == 3:
            return [np.array(mat) for mat in stack]
    elements = build()
    _disk.disk_put("catalog", key,
                   arrays={"elements": np.asarray(elements, dtype=float)})
    return elements


def identity_group(tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """The trivial group ``C_1``."""
    return cyclic_group(1, tol=tol)


def cyclic_group(k: int, axis=(0.0, 0.0, 1.0),
                 tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """The cyclic group ``C_k`` about ``axis``."""
    if k < 1:
        raise GroupError("cyclic group needs k >= 1")
    elements = [rotation_about_axis(axis, 2.0 * np.pi * i / k)
                for i in range(k)]
    return _mark(RotationGroup(elements, spec=GroupSpec(GroupKind.CYCLIC, k),
                               tol=tol), f"C{k}")


def dihedral_group(l: int, principal=(0.0, 0.0, 1.0),
                   secondary=(1.0, 0.0, 0.0),
                   tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """The dihedral group ``D_l``: ``C_l`` about ``principal`` plus
    ``l`` half-turns about secondary axes in the perpendicular plane.

    ``secondary`` fixes the direction of one secondary axis; it must
    be perpendicular to ``principal``.
    """
    if l < 2:
        raise GroupError("dihedral group needs l >= 2")
    p = np.asarray(principal, dtype=float)
    s = np.asarray(secondary, dtype=float)
    if (abs(float(np.dot(p, s))) > DEFAULT_TOL.coincidence_slack(1.0)
            * np.linalg.norm(p) * np.linalg.norm(s)):
        raise GroupError("secondary axis must be perpendicular to principal")
    elements = [rotation_about_axis(p, 2.0 * np.pi * i / l) for i in range(l)]
    for i in range(l):
        spin = rotation_about_axis(p, np.pi * i / l)
        elements.append(rotation_about_axis(spin @ s, np.pi))
    return _mark(RotationGroup(elements,
                               spec=GroupSpec(GroupKind.DIHEDRAL, l),
                               tol=tol), f"D{l}")


def tetrahedral_group(tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """The tetrahedral group ``T`` (order 12) in the standard frame."""
    def build() -> list[np.ndarray]:
        diagonals = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        elements = [np.eye(3)]
        for d in diagonals:
            for sign in (1, -1):
                elements.append(
                    rotation_about_axis(d, sign * 2.0 * np.pi / 3.0))
        for axis in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            elements.append(rotation_about_axis(axis, np.pi))
        return elements

    return _mark(RotationGroup(_cached_elements("T", build),
                               spec=GroupSpec(GroupKind.TETRAHEDRAL),
                               tol=tol), "T")


def octahedral_group(tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """The octahedral group ``O`` (order 24) in the standard frame."""
    def build() -> list[np.ndarray]:
        elements = [np.eye(3)]
        for axis in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            for quarter in (1, 2, 3):
                elements.append(
                    rotation_about_axis(axis, quarter * np.pi / 2.0))
        for d in [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]:
            for sign in (1, -1):
                elements.append(
                    rotation_about_axis(d, sign * 2.0 * np.pi / 3.0))
        for d in [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                  (0, 1, 1), (0, 1, -1)]:
            elements.append(rotation_about_axis(d, np.pi))
        return elements

    return _mark(RotationGroup(_cached_elements("O", build),
                               spec=GroupSpec(GroupKind.OCTAHEDRAL),
                               tol=tol), "O")


def icosahedral_group(tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """The icosahedral group ``I`` (order 60) in the standard frame.

    Generated by closing a 5-fold rotation about the icosahedron
    vertex ``(0, 1, φ)`` and the 2-fold rotation about +z under
    products.
    """
    def build() -> list[np.ndarray]:
        gen_a = rotation_about_axis((0.0, 1.0, GOLDEN_RATIO),
                                    2.0 * np.pi / 5.0)
        gen_b = rotation_about_axis((0.0, 0.0, 1.0), np.pi)
        elements = _close_under_products([np.eye(3), gen_a, gen_b])
        if len(elements) != 60:
            raise GroupError(
                f"icosahedral closure produced {len(elements)} elements")
        return elements

    return _mark(RotationGroup(_cached_elements("I", build),
                               spec=GroupSpec(GroupKind.ICOSAHEDRAL),
                               tol=tol), "I")


def _close_under_products(generators: list[np.ndarray],
                          max_order: int = 200) -> list[np.ndarray]:
    """Close a set of rotations under matrix products."""
    elements: dict[tuple, np.ndarray] = {element_key(m): m for m in generators}
    frontier = list(elements.values())
    while frontier:
        new_frontier = []
        for a in frontier:
            for b in list(elements.values()):
                for prod in (a @ b, b @ a):
                    key = element_key(prod)
                    if key not in elements:
                        elements[key] = prod
                        new_frontier.append(prod)
        frontier = new_frontier
        if len(elements) > max_order:
            raise GroupError("group closure exceeded maximum order")
    return list(elements.values())


def group_from_spec(spec: GroupSpec,
                    tol: Tolerance = DEFAULT_TOL) -> RotationGroup:
    """Standard-frame instance of the group described by ``spec``."""
    if spec.kind is GroupKind.CYCLIC:
        return cyclic_group(spec.param, tol=tol)
    if spec.kind is GroupKind.DIHEDRAL:
        return dihedral_group(spec.param, tol=tol)
    if spec.kind is GroupKind.TETRAHEDRAL:
        return tetrahedral_group(tol=tol)
    if spec.kind is GroupKind.OCTAHEDRAL:
        return octahedral_group(tol=tol)
    return icosahedral_group(tol=tol)
