"""Concrete rotation groups: elements, axes, and classification data.

A :class:`RotationGroup` is a finite subgroup of SO(3) given by its
explicit rotation matrices, together with derived axis metadata and an
abstract :class:`GroupSpec` (its type in the paper's family
``{C_k, D_l, T, O, I}``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import total_ordering

import numpy as np

from repro.errors import GroupError
from repro.geometry.rotations import rotation_angle, rotation_axis
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance, canonical_round
from repro.groups.axes import RotationAxis, axis_line_key

__all__ = ["GroupKind", "GroupSpec", "RotationGroup", "element_key",
           "spec_from_folds", "structurally_oriented"]


class GroupKind(enum.Enum):
    """The five families of finite rotation groups in 3-space."""

    CYCLIC = "C"
    DIHEDRAL = "D"
    TETRAHEDRAL = "T"
    OCTAHEDRAL = "O"
    ICOSAHEDRAL = "I"


_POLYHEDRAL_ORDER = {
    GroupKind.TETRAHEDRAL: 12,
    GroupKind.OCTAHEDRAL: 24,
    GroupKind.ICOSAHEDRAL: 60,
}


@total_ordering
@dataclass(frozen=True)
class GroupSpec:
    """Abstract type of a rotation group: a kind plus parameter.

    ``C_k`` has ``param = k >= 1``; ``D_l`` has ``param = l >= 2``;
    the polyhedral groups have ``param = 0``.
    """

    kind: GroupKind
    param: int = 0

    def __post_init__(self) -> None:
        if self.kind is GroupKind.CYCLIC and self.param < 1:
            raise GroupError("C_k requires k >= 1")
        if self.kind is GroupKind.DIHEDRAL and self.param < 2:
            raise GroupError("D_l requires l >= 2")
        if self.kind in _POLYHEDRAL_ORDER and self.param != 0:
            raise GroupError("polyhedral groups take no parameter")

    @property
    def order(self) -> int:
        """Number of elements of the group."""
        if self.kind is GroupKind.CYCLIC:
            return self.param
        if self.kind is GroupKind.DIHEDRAL:
            return 2 * self.param
        return _POLYHEDRAL_ORDER[self.kind]

    @property
    def is_2d(self) -> bool:
        """True for cyclic and dihedral groups (act on a plane)."""
        return self.kind in (GroupKind.CYCLIC, GroupKind.DIHEDRAL)

    @property
    def is_3d(self) -> bool:
        """True for the polyhedral groups ``T``, ``O``, ``I``."""
        return not self.is_2d

    @property
    def is_trivial(self) -> bool:
        """True for ``C_1``."""
        return self.kind is GroupKind.CYCLIC and self.param == 1

    def __str__(self) -> str:
        if self.kind in (GroupKind.CYCLIC, GroupKind.DIHEDRAL):
            return f"{self.kind.value}{self.param}"
        return self.kind.value

    def __lt__(self, other: "GroupSpec") -> bool:
        """Arbitrary but stable total order (for sorting output)."""
        return (self.order, self.kind.value, self.param) < (
            other.order, other.kind.value, other.param)

    @staticmethod
    def parse(text: str) -> "GroupSpec":
        """Parse specs like ``"C4"``, ``"D3"``, ``"T"``, ``"O"``, ``"I"``."""
        text = text.strip()
        if text in ("T", "O", "I"):
            return GroupSpec({"T": GroupKind.TETRAHEDRAL,
                              "O": GroupKind.OCTAHEDRAL,
                              "I": GroupKind.ICOSAHEDRAL}[text])
        if text and text[0] in ("C", "D") and text[1:].isdigit():
            kind = GroupKind.CYCLIC if text[0] == "C" else GroupKind.DIHEDRAL
            return GroupSpec(kind, int(text[1:]))
        raise GroupError(f"cannot parse group spec {text!r}")


def element_key(mat, decimals: int = 5) -> tuple:
    """Hashable key for a rotation matrix (rounded entries)."""
    return tuple(canonical_round(np.asarray(mat, dtype=float).ravel(),
                                 decimals).tolist())


def batch_rotation_angles(stack: np.ndarray) -> np.ndarray:
    """Rotation angles of a ``(k, 3, 3)`` stack of rotation matrices."""
    traces = np.einsum("kii->k", stack)
    return np.arccos(np.clip((traces - 1.0) / 2.0, -1.0, 1.0))


def batch_axis_line_keys(stack: np.ndarray, angles: np.ndarray,
                         tol: Tolerance, decimals: int = 5):
    """Axis line keys for non-identity rotations, computed in batch.

    Returns ``(indices, directions, keys)``: the indices into ``stack``
    of the non-identity elements, their unit axis directions with the
    canonical line sign, and the corresponding hashable line keys.
    Equivalent to ``axis_line_key(rotation_axis(m))`` per element, but
    one vectorized pass for the (common) non-half-turn case.
    """
    nonid = np.nonzero(angles > tol.abs_tol)[0]
    if nonid.size == 0:
        return nonid, np.zeros((0, 3)), []
    sub = stack[nonid]
    # Antisymmetric-part axis for generic angles.
    directions = np.stack([
        sub[:, 2, 1] - sub[:, 1, 2],
        sub[:, 0, 2] - sub[:, 2, 0],
        sub[:, 1, 0] - sub[:, 0, 1],
    ], axis=1)
    half_turn = np.abs(angles[nonid] - np.pi) <= max(
        tol.abs_tol, tol.rel_tol * np.pi)
    if half_turn.any():
        # Half turns have a vanishing antisymmetric part; use the
        # symmetric-part formula ``R = 2 u u^T - I`` with the
        # per-element canonical sign convention of ``rotation_axis``.
        sym = (sub[half_turn] + np.eye(3)) / 2.0
        count = len(sym)
        rows = np.arange(count)
        best_col = np.argmax(sym[:, [0, 1, 2], [0, 1, 2]], axis=1)
        cols = sym[rows, :, best_col]
        cols = cols / np.linalg.norm(cols, axis=1)[:, None]
        significant = np.abs(cols) > tol.abs_tol
        lead = cols[rows, np.argmax(significant, axis=1)]
        cols = np.where((lead < 0.0)[:, None], -cols, cols)
        directions[half_turn] = cols
    norms = np.linalg.norm(directions, axis=1)
    directions = directions / norms[:, None]
    # Keys use the canonical line sign (first coordinate above
    # threshold positive); the returned directions keep the per-element
    # sign convention of ``rotation_axis`` so callers that store them
    # behave as before.
    canonical = directions.copy()
    significant = np.abs(canonical) > 1e3 * tol.abs_tol
    first = np.argmax(significant, axis=1)
    lead = canonical[np.arange(len(canonical)), first]
    canonical = np.where((lead < 0.0)[:, None], -canonical, canonical)
    rounded = np.round(canonical, decimals) + 0.0
    keys = [tuple(row) for row in rounded.tolist()]
    return nonid, directions, keys


def spec_from_folds(order: int, folds) -> GroupSpec:
    """The type of a rotation group of ``order`` elements whose axes
    have the given folds.

    The one classification rule: :func:`repro.groups.subgroups.
    classify_elements`, :class:`RotationGroup` and the subgroup lattice
    all read the type off the fold histogram this way.

    Raises
    ------
    GroupError
        If order and folds fit none of the five families (the elements
        were not a rotation group to begin with).
    """
    if order == 1:
        return GroupSpec(GroupKind.CYCLIC, 1)
    folds = sorted(folds, reverse=True)
    if len(folds) == 1:
        if order != folds[0]:
            raise GroupError("inconsistent cyclic group data")
        return GroupSpec(GroupKind.CYCLIC, order)
    fold_histogram: dict[int, int] = {}
    for f in folds:
        fold_histogram[f] = fold_histogram.get(f, 0) + 1
    if fold_histogram == {3: 4, 2: 3} and order == 12:
        return GroupSpec(GroupKind.TETRAHEDRAL)
    if fold_histogram == {4: 3, 3: 4, 2: 6} and order == 24:
        return GroupSpec(GroupKind.OCTAHEDRAL)
    if fold_histogram == {5: 6, 3: 10, 2: 15} and order == 60:
        return GroupSpec(GroupKind.ICOSAHEDRAL)
    # Dihedral: one l-fold principal plus l perpendicular 2-fold axes.
    if fold_histogram == {2: 3} and order == 4:
        return GroupSpec(GroupKind.DIHEDRAL, 2)
    top = folds[0] if folds else 0
    if (order == 2 * top and fold_histogram.get(top) == 1
            and fold_histogram.get(2, 0) >= top):
        return GroupSpec(GroupKind.DIHEDRAL, top)
    raise GroupError(
        f"element set (order {order}, folds {fold_histogram}) is not one "
        "of the five finite rotation-group families")


def structurally_oriented(spec: GroupSpec, fold: int) -> bool:
    """Whether a ``fold``-fold axis of a ``spec`` group is oriented
    (Section 3.1).

    The single axis of ``C_k`` is oriented; the secondary axes of
    ``D_l`` are oriented iff ``l`` is odd; the 3-fold axes of ``T`` are
    oriented; all axes of ``O`` and ``I`` (and the principal axes of
    dihedral groups) are not.
    """
    if spec.kind is GroupKind.CYCLIC:
        return spec.param >= 2
    if spec.kind is GroupKind.DIHEDRAL:
        return spec.param % 2 == 1 and fold == 2
    return spec.kind is GroupKind.TETRAHEDRAL and fold == 3


class RotationGroup:
    """A finite subgroup of SO(3) fixing the origin.

    Parameters
    ----------
    elements:
        Sequence of 3x3 rotation matrices, including the identity; a
        float ``(k, 3, 3)`` array is used as given (not copied).
        Duplicates (within tolerance) are merged.
    spec:
        Optional pre-computed :class:`GroupSpec`; read off the folds of
        the element axes if omitted (:func:`spec_from_folds`).
    axes:
        Optional pre-computed axes; derived from elements if omitted.
    """

    def __init__(self, elements, spec: GroupSpec | None = None,
                 axes: list[RotationAxis] | None = None,
                 tol: Tolerance = DEFAULT_TOL,
                 validate: bool = False) -> None:
        self._tol = tol
        stacked = np.asarray(elements, dtype=float)
        if not stacked.size:
            stacked = np.zeros((0, 3, 3))
        elif stacked.shape[1:] != (3, 3):
            raise GroupError("group element is not a rotation matrix")
        kept: list[int] = []
        key_index: dict[tuple, int] = {}
        if stacked.size:
            # Validate the whole batch at once: orthogonality and
            # determinant checks are two vectorized passes instead of
            # one np.allclose call per element.
            residual = stacked @ stacked.transpose(0, 2, 1) - np.eye(3)
            ortho = np.abs(residual).max(axis=(1, 2)) <= 10 * tol.abs_tol
            dets = np.linalg.det(stacked)
            proper = np.abs(dets - 1.0) <= np.maximum(
                tol.abs_tol, tol.rel_tol * np.maximum(np.abs(dets), 1.0))
            if not bool((ortho & proper).all()):
                raise GroupError("group element is not a rotation matrix")
            keys = np.round(stacked.reshape(len(stacked), 9), 5) + 0.0
            for index, row in enumerate(keys.tolist()):
                key = tuple(row)
                if key not in key_index:
                    key_index[key] = len(kept)
                    kept.append(index)
        stack = stacked if len(kept) == len(stacked) else stacked[kept]
        has_identity = bool(
            (np.abs(stack - np.eye(3)).max(axis=(1, 2))
             <= DEFAULT_TOL.geometric_slack(1.0)).any())
        if not has_identity:
            identity = np.eye(3)
            key_index[element_key(identity)] = len(stack)
            stack = np.concatenate([stack, identity[None]])
        self._stack = stack
        self.elements: list[np.ndarray] = list(stack)
        self._element_keys = set(key_index)
        if validate:
            self._check_closure()
        self.axes: list[RotationAxis] = (
            axes if axes is not None else self._derive_axes())
        if spec is None:
            derived = self.axes if axes is None else self._derive_axes()
            spec = spec_from_folds(len(stack), [a.fold for a in derived])
        self.spec = spec
        if axes is None:
            self._apply_structural_orientation()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of elements."""
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        """True for the trivial group ``C_1``."""
        return self.order == 1

    def _check_closure(self) -> None:
        """Raise if the element set is not closed under products."""
        for a in self.elements:
            for b in self.elements:
                if element_key(a @ b) not in self._element_keys:
                    raise GroupError("element set is not closed")

    def _derive_axes(self) -> list[RotationAxis]:
        """Group non-identity elements by axis line; compute folds.

        Orientation flags are structural (Section 3.1) and are filled
        in by :func:`repro.groups.subgroups.annotate_orientations`
        after classification; here they default to False.
        """
        angles = batch_rotation_angles(self._stack)
        _, directions, keys = batch_axis_line_keys(
            self._stack, angles, self._tol)
        lines: dict[tuple, dict] = {}
        for direction, key in zip(directions, keys):
            entry = lines.setdefault(key, {"direction": direction,
                                           "count": 0})
            entry["count"] += 1
        axes = []
        for entry in lines.values():
            axes.append(RotationAxis(direction=entry["direction"],
                                     fold=entry["count"] + 1))
        axes.sort(key=lambda a: (-a.fold, a.line_key()))
        return axes

    def _apply_structural_orientation(self) -> None:
        """Set the ``oriented`` flag on axes per Section 3.1.

        Only the *flag* is structural (:func:`structurally_oriented`)
        — a concrete preferred direction can only come from a point set
        and is computed in :mod:`repro.core`.
        """
        self.axes = [replace(axis, oriented=structurally_oriented(
            self.spec, axis.fold)) for axis in self.axes]

    @property
    def principal_axis(self) -> RotationAxis | None:
        """Principal axis for cyclic/dihedral groups (``l >= 3``).

        For ``D_2`` the principal axis is not a group-theoretic notion
        (Property 1 of the paper): it can only be recognized from a
        point set, so this property returns None; use
        ``repro.core.decomposition.principal_axis_of_d2``.
        """
        if self.spec.kind is GroupKind.CYCLIC and self.spec.param >= 2:
            return self.axes[0]
        if self.spec.kind is GroupKind.DIHEDRAL and self.spec.param >= 3:
            candidates = self.axes_of_fold(self.spec.param)
            return candidates[0] if candidates else None
        return None

    def contains_element(self, mat) -> bool:
        """True if ``mat`` (a rotation matrix) is an element."""
        return element_key(mat) in self._element_keys

    def is_concrete_subgroup_of(self, other: "RotationGroup") -> bool:
        """True if every element of ``self`` is an element of ``other``."""
        return self._element_keys <= other._element_keys

    def elements_about_axis(self, direction) -> list[np.ndarray]:
        """Non-identity elements whose axis spans ``direction``'s line."""
        target = axis_line_key(direction)
        result = []
        for mat in self.elements:
            angle = rotation_angle(mat, self._tol)
            if self._tol.zero(angle):
                continue
            if axis_line_key(rotation_axis(mat, self._tol)) == target:
                result.append(mat)
        return result

    def axes_of_fold(self, fold: int) -> list[RotationAxis]:
        """All axes with the given fold."""
        return [a for a in self.axes if a.fold == fold]

    def axis_folds(self) -> dict[int, int]:
        """Mapping fold -> number of axes with that fold."""
        counts: dict[int, int] = {}
        for axis in self.axes:
            counts[axis.fold] = counts.get(axis.fold, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def orbit(self, point, decimals: int = 6) -> list[np.ndarray]:
        """Orbit of ``point`` under the group (distinct images)."""
        p = np.asarray(point, dtype=float)
        images = self._stack @ p
        keys = np.round(images, decimals) + 0.0
        seen: set[tuple] = set()
        result = []
        for image, key_row in zip(images, keys.tolist()):
            key = tuple(key_row)
            if key not in seen:
                seen.add(key)
                result.append(image)
        return result

    def stabilizer_size(self, point, decimals: int = 6) -> int:
        """Folding ``μ(p)``: number of elements fixing ``point``."""
        p = np.asarray(point, dtype=float)
        key = np.round(p, decimals) + 0.0
        image_keys = np.round(self._stack @ p, decimals) + 0.0
        return int((image_keys == key).all(axis=1).sum())

    def transformed(self, rotation) -> "RotationGroup":
        """Conjugate group ``R G R^T`` (the arrangement rotated by R).

        One product over the element stack: NumPy's matmul takes a
        stack one matrix at a time through the BLAS call that
        ``rot @ mat @ rot.T`` makes, so each conjugate has the bits of
        the per-element form.
        """
        rot = np.asarray(rotation, dtype=float)
        new_elements = rot @ self._stack @ rot.T
        new_axes = [
            RotationAxis(direction=rot @ a.direction, fold=a.fold,
                         oriented=a.oriented, occupied=a.occupied)
            for a in self.axes
        ]
        return RotationGroup(new_elements, spec=self.spec, axes=new_axes,
                             tol=self._tol)

    def with_axes(self, axes: list[RotationAxis]) -> "RotationGroup":
        """Copy of this group with replaced axis metadata."""
        return RotationGroup(self.elements, spec=self.spec, axes=axes,
                             tol=self._tol)

    def axis_for_line(self, direction) -> RotationAxis | None:
        """The group's axis spanning the same line as ``direction``."""
        key = axis_line_key(direction)
        for axis in self.axes:
            if axis.line_key() == key:
                return axis
        return None

    def __repr__(self) -> str:
        return f"RotationGroup({self.spec}, order={self.order})"
