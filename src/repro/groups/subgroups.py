"""Classification, the subgroup relation ``⪯``, and subgroup
enumeration for the five rotation-group families.

The abstract subgroup lattice (Figure 4 of the paper) is::

    C_k ⪯ C_m        iff k | m
    C_k ⪯ D_m        iff k | m or k = 2     (secondary axes)
    D_k ⪯ D_m        iff k | m
    subgroups of T:  C1 C2 C3 D2 T
    subgroups of O:  C1 C2 C3 C4 D2 D3 D4 T O
    subgroups of I:  C1 C2 C3 C5 D2 D3 D5 T I
    T ⪯ O,  T ⪯ I,  O ⋠ I

The concrete subgroups of an arrangement (Definition 5 needs every
one of them) come from the known structure for ``C_k`` and ``D_l``
(``l >= 3``).  For ``T``, ``O``, ``I`` and ``D_2`` they come from the
integer Cayley table: every finite rotation group is generated by two
elements, so the lattice is the cyclic subgroups plus the joins of
pairs of them, each closed on a bitmask over the element indices.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import GroupError
from repro.geometry.rotations import rotation_about_axis
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.groups.axes import RotationAxis, axis_line_key
from repro.groups.group import (
    GroupKind,
    GroupSpec,
    RotationGroup,
    batch_axis_line_keys,
    batch_rotation_angles,
    element_key,
    spec_from_folds,
    structurally_oriented,
)

__all__ = [
    "classify_elements",
    "is_abstract_subgroup",
    "proper_abstract_subgroups",
    "enumerate_concrete_subgroups",
    "maximal_elements",
]

_POLYHEDRAL_SUBGROUPS = {
    GroupKind.TETRAHEDRAL: {"C1", "C2", "C3", "D2", "T"},
    GroupKind.OCTAHEDRAL: {"C1", "C2", "C3", "C4",
                           "D2", "D3", "D4", "T", "O"},
    GroupKind.ICOSAHEDRAL: {"C1", "C2", "C3", "C5",
                            "D2", "D3", "D5", "T", "I"},
}


def classify_elements(elements, tol: Tolerance = DEFAULT_TOL) -> GroupSpec:
    """Classify a finite set of rotation matrices forming a group.

    Returns the :class:`GroupSpec` identifying which of the five
    families the group belongs to.

    Raises
    ------
    GroupError
        If the element set is not one of the five families (which
        means it was not a rotation group to begin with).
    """
    stack = np.asarray([np.asarray(m, dtype=float) for m in elements],
                       dtype=float).reshape(-1, 3, 3)
    if len(stack) == 1:
        return spec_from_folds(1, [])
    angles = batch_rotation_angles(stack)
    _, _, keys = batch_axis_line_keys(stack, angles, tol)
    lines: dict[tuple, int] = {}
    for key in keys:
        lines[key] = lines.get(key, 0) + 1
    return spec_from_folds(len(stack),
                           [count + 1 for count in lines.values()])


def is_abstract_subgroup(g: GroupSpec, h: GroupSpec) -> bool:
    """The paper's relation ``g ⪯ h`` on group types."""
    if g == h:
        return True
    if g.is_trivial:
        return True
    if h.kind is GroupKind.CYCLIC:
        return g.kind is GroupKind.CYCLIC and h.param % g.param == 0
    if h.kind is GroupKind.DIHEDRAL:
        if g.kind is GroupKind.CYCLIC:
            return h.param % g.param == 0 or g.param == 2
        if g.kind is GroupKind.DIHEDRAL:
            return h.param % g.param == 0
        return False
    allowed = _POLYHEDRAL_SUBGROUPS[h.kind]
    return str(g) in allowed


def proper_abstract_subgroups(h: GroupSpec) -> list[GroupSpec]:
    """All types ``g`` with ``g ≺ h`` (proper), sorted by order."""
    result: list[GroupSpec] = []
    if h.kind is GroupKind.CYCLIC:
        for d in _divisors(h.param):
            if d != h.param:
                result.append(GroupSpec(GroupKind.CYCLIC, d))
    elif h.kind is GroupKind.DIHEDRAL:
        for d in _divisors(h.param):
            result.append(GroupSpec(GroupKind.CYCLIC, d))
            if d >= 2 and d != h.param:
                result.append(GroupSpec(GroupKind.DIHEDRAL, d))
        two = GroupSpec(GroupKind.CYCLIC, 2)
        if two not in result:
            result.append(two)
    else:
        for name in _POLYHEDRAL_SUBGROUPS[h.kind]:
            spec = GroupSpec.parse(name)
            if spec != h:
                result.append(spec)
    return sorted(set(result))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def enumerate_concrete_subgroups(group: RotationGroup,
                                 tol: Tolerance = DEFAULT_TOL
                                 ) -> list[RotationGroup]:
    """All concrete subgroups of ``group`` (as element subsets).

    Cyclic and dihedral groups use their known structure (so large
    parameters stay cheap).  ``T``, ``O``, ``I`` and ``D_2`` join pairs
    of cyclic subgroups on bitmasks over the Cayley table, and list
    the subgroups by order, then by bitmask over the parent's element
    indices, each with its elements in the parent's order.  Results
    are memoized per exact arrangement via :mod:`repro.perf`.
    """
    from repro.perf import cached_subgroups

    return cached_subgroups(group, tol, _enumerate_subgroups)


def _enumerate_subgroups(group: RotationGroup,
                         tol: Tolerance) -> list[RotationGroup]:
    if group.spec.kind is GroupKind.CYCLIC:
        return _cyclic_subgroups(group, tol)
    if group.spec.kind is GroupKind.DIHEDRAL:
        return _dihedral_subgroups(group, tol)
    return _generic_subgroups(group, tol)


def _cyclic_subgroups(group: RotationGroup,
                      tol: Tolerance) -> list[RotationGroup]:
    k = group.spec.param
    if k == 1:
        return [group]
    axis = group.axes[0].direction
    result = []
    for d in _divisors(k):
        elems = [rotation_about_axis(axis, 2.0 * np.pi * i / d)
                 for i in range(d)]
        result.append(RotationGroup(
            elems, spec=GroupSpec(GroupKind.CYCLIC, d), tol=tol))
    return result


def _dihedral_subgroups(group: RotationGroup,
                        tol: Tolerance) -> list[RotationGroup]:
    l = group.spec.param
    secondary_axes = [a.direction for a in group.axes_of_fold(2)]
    if l == 2:
        # All three axes are 2-fold; pick any as principal for the
        # structured construction (all subgroups are covered anyway).
        return _generic_subgroups(group, tol)
    principal = group.principal_axis.direction
    secondary_axes = [a.direction for a in group.axes_of_fold(2)
                      if not _parallel(a.direction, principal)]
    result: list[RotationGroup] = []
    # Cyclic subgroups about the principal axis.
    for d in _divisors(l):
        elems = [rotation_about_axis(principal, 2.0 * np.pi * i / d)
                 for i in range(d)]
        result.append(RotationGroup(
            elems, spec=GroupSpec(GroupKind.CYCLIC, d), tol=tol))
    # C_2 about each secondary axis.
    for s in secondary_axes:
        elems = [np.eye(3), rotation_about_axis(s, np.pi)]
        result.append(RotationGroup(
            elems, spec=GroupSpec(GroupKind.CYCLIC, 2), tol=tol))
    # Dihedral subgroups D_d for d | l, d >= 2 — one copy for each of
    # the l/d rotational offsets of the secondary-axis subset.
    ordered = _order_secondaries(principal, secondary_axes)
    for d in _divisors(l):
        if d < 2:
            continue
        step = l // d
        for offset in range(step):
            elems = [rotation_about_axis(principal, 2.0 * np.pi * i / d)
                     for i in range(d)]
            for j in range(d):
                elems.append(rotation_about_axis(
                    ordered[offset + j * step], np.pi))
            result.append(RotationGroup(
                elems, spec=GroupSpec(GroupKind.DIHEDRAL, d), tol=tol))
    return _dedupe(result)


def _order_secondaries(principal, secondaries) -> list[np.ndarray]:
    """Order secondary axes by angle about the principal axis."""
    from repro.geometry.vectors import orthonormal_basis_for

    u, v, _ = orthonormal_basis_for(principal)
    def angle(s):
        a = float(np.arctan2(np.dot(s, v), np.dot(s, u)))
        return a % np.pi  # axes are lines: angles mod pi
    return sorted(secondaries, key=angle)


def _parallel(a, b) -> bool:
    return bool(np.linalg.norm(np.cross(a, b)) < 0.1 * DEFAULT_TOL.abs_tol)


def _generic_subgroups(group: RotationGroup,
                       tol: Tolerance) -> list[RotationGroup]:
    """The subgroup lattice of a ``T``, ``O``, ``I`` or ``D_2``
    arrangement, on integer bitmasks over its Cayley table.

    Every finite rotation group is generated by two elements, so the
    subgroups are the cyclic subgroups ``<a>`` and the joins ``<a, b>``
    of pairs of them.  A join is closed from the identity by
    right-multiplying with ``a`` and ``b``, and abandoned once it
    outgrows the largest proper subgroup type of ``group.spec``: by
    Lagrange it is then the whole group.  Each subgroup's
    :class:`RotationGroup` takes its axes and type from the parent's
    per-element axis lines, derived once.

    Subgroups come sorted by order, then by their bitmask over the
    parent's element indices; each one's elements keep the parent's
    index order.
    """
    order = group.order
    rows, identity = _cayley_table(group._stack)
    cyclic: dict[int, int] = {}
    for i in range(order):
        mask = 1 << identity
        j = i
        while not mask >> j & 1:
            mask |= 1 << j
            j = rows[j][i]
        cyclic.setdefault(mask, i)
    bound = max(spec.order for spec in proper_abstract_subgroups(group.spec))
    full = (1 << order) - 1
    masks = set(cyclic)
    masks.add(full)
    for (mask_a, a), (mask_b, b) in itertools.combinations(cyclic.items(), 2):
        if mask_a & mask_b not in (mask_a, mask_b):
            masks.add(_join(rows, identity, a, b, bound) or full)
    axis_lines = _AxisLines(group, tol)
    return [axis_lines.subgroup(mask)
            for mask in sorted(masks, key=lambda m: (m.bit_count(), m))]


def _cayley_table(stack: np.ndarray) -> tuple[list[list[int]], int]:
    """The Cayley table, ``rows[i][j]`` being the index of
    ``E_i @ E_j``, and the index of the identity."""
    order = len(stack)
    index_of = {key: i for i, key in enumerate(_row_keys(stack))}
    identity = index_of.get(_row_keys(np.eye(3)[None])[0])
    if identity is None:
        raise GroupError("element set has no identity")
    products = np.einsum("aij,bjk->abik", stack, stack)
    table = [index_of.get(key, -1)
             for key in _row_keys(products.reshape(order * order, 3, 3))]
    if -1 in table:
        raise GroupError("element set is not closed under products")
    return [table[i * order:(i + 1) * order] for i in range(order)], identity


def _row_keys(stack: np.ndarray) -> list[bytes]:
    """Each matrix's :func:`element_key` as bytes: entries rounded to
    5 decimals with ``-0.0`` folded into ``0.0``, so equal keys have
    equal bytes."""
    rounded = np.round(stack.reshape(len(stack), 9), 5) + 0.0
    row = np.dtype((np.void, 9 * rounded.itemsize))
    return rounded.view(row).ravel().tolist()


def _join(rows: list[list[int]], identity: int, a: int, b: int,
          bound: int) -> int | None:
    """Bitmask of ``<E_a, E_b>``, or None once it exceeds ``bound``."""
    members = [identity]
    mask = 1 << identity
    for x in members:
        row = rows[x]
        for y in (row[a], row[b]):
            if not mask >> y & 1:
                if len(members) == bound:
                    return None
                mask |= 1 << y
                members.append(y)
    return mask


class _AxisLines:
    """The per-element axis lines of one arrangement, derived once for
    the whole parent: each non-identity element's line key, axis
    direction, and the ``line_key()`` an axis along that direction
    reports (the sort key of a group's axes).  :meth:`subgroup` makes
    any subgroup's :class:`RotationGroup` from them."""

    def __init__(self, group: RotationGroup, tol: Tolerance) -> None:
        self._group = group
        self._tol = tol
        stack = group._stack
        angles = batch_rotation_angles(stack)
        nonid, directions, keys = batch_axis_line_keys(stack, angles, tol)
        self._line = {int(i): (key, direction, axis_line_key(direction))
                      for i, key, direction in zip(nonid, keys, directions)}

    def subgroup(self, mask: int) -> RotationGroup:
        members = [i for i in range(mask.bit_length()) if mask >> i & 1]
        # Per line: its first member (whose direction the axis takes,
        # as RotationGroup's own derivation does) and its rotation count.
        lines: dict[tuple, list] = {}
        for i in members:
            line = self._line.get(i)
            if line is not None:
                lines.setdefault(line[0], [i, 0])[1] += 1
        spec = spec_from_folds(len(members),
                               [count + 1 for _, count in lines.values()])
        firsts = sorted(lines.values(),
                        key=lambda e: (-e[1], self._line[e[0]][2]))
        axes = [RotationAxis(direction=self._line[first][1], fold=count + 1,
                             oriented=structurally_oriented(spec, count + 1))
                for first, count in firsts]
        return RotationGroup([self._group.elements[i] for i in members],
                             spec=spec, axes=axes, tol=self._tol)


def _dedupe(groups: list[RotationGroup]) -> list[RotationGroup]:
    seen: set[frozenset] = set()
    result = []
    for g in groups:
        key = frozenset(element_key(m) for m in g.elements)
        if key not in seen:
            seen.add(key)
            result.append(g)
    return result


def maximal_elements(specs) -> list[GroupSpec]:
    """Maximal elements of a set of group types under ``⪯``."""
    unique = sorted(set(specs))
    result = []
    for g in unique:
        if not any(g != h and is_abstract_subgroup(g, h) for h in unique):
            result.append(g)
    return sorted(result)
