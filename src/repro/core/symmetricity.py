"""Symmetricity ``ϱ(P)`` of configurations (Definitions 5 and 6).

``ϱ(P)`` is the set of rotation groups ``G`` that can act on ``P``
with *every* rotation axis unoccupied — equivalently, the symmetries an
adversarial arrangement of local coordinate systems can impose on the
robots, which no algorithm can ever break (Lemma 4).

Operationally (for a set of points): ``G ∈ ϱ(P)`` iff ``G`` has an
embedding onto unoccupied rotation axes of ``γ(P)``; if all axes of
``γ(P)`` are occupied, ``ϱ(P) = {C_1}``.  For multisets (target
patterns with multiplicity, Definition 6) a point on a ``k``-fold axis
must carry multiplicity divisible by ``k``.

The result keeps *witnesses*: for each admissible type, the concrete
subgroup arrangements of ``γ(P)`` realizing it.  Witnesses drive both
the worst-case adversary (``repro.robots.adversary``) and the target
embedding of the formation algorithm.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.groups.detection import SymmetryReport
from repro.groups.group import GroupKind, GroupSpec, RotationGroup
from repro.groups.infinite import InfiniteGroupKind
from repro.groups.subgroups import (
    enumerate_concrete_subgroups,
    maximal_elements,
)

__all__ = ["Symmetricity", "symmetricity", "symmetricity_of_multiset"]


@dataclass
class Symmetricity:
    """The symmetricity of a configuration.

    Attributes
    ----------
    specs:
        Every admissible group type (downward closed under ``⪯``).
    maximal:
        The maximal elements of ``specs`` — the paper's usual way of
        writing ``ϱ(P)``.
    witnesses:
        Concrete subgroup arrangements of ``γ(P)`` realizing each
        spec (finite case; empty for collinear/degenerate inputs,
        where axes are not pinned down by the configuration).  A
        read-only mapping: an L1 hit builds a spec's arrangements
        when it is first read.
    report:
        The underlying symmetry report (contains ``γ(P)``).
    """

    specs: set[GroupSpec]
    maximal: list[GroupSpec]
    witnesses: Mapping[GroupSpec, list[RotationGroup]] = field(
        default_factory=dict)
    report: SymmetryReport | None = None

    def __contains__(self, spec: GroupSpec) -> bool:
        return spec in self.specs

    def is_subset_of(self, other: "Symmetricity") -> bool:
        """Theorem 1.1's condition ``ϱ(P) ⊆ ϱ(F)``."""
        return self.specs <= other.specs

    def witness(self, spec: GroupSpec) -> RotationGroup | None:
        """One concrete arrangement realizing ``spec``, if recorded."""
        arrangements = self.witnesses.get(spec)
        return arrangements[0] if arrangements else None

    def __repr__(self) -> str:
        inner = ", ".join(str(s) for s in self.maximal)
        return f"Symmetricity({{{inner}}})"


def symmetricity(config: Configuration,
                 tol: Tolerance = DEFAULT_TOL) -> Symmetricity:
    """Compute ``ϱ(P)`` of a configuration without multiplicity.

    Raises
    ------
    ConfigurationError
        If the configuration contains multiplicities — use
        :func:`symmetricity_of_multiset` for target patterns that do.
    """
    if config.has_multiplicity:
        raise ConfigurationError(
            "symmetricity() requires a set of points; "
            "use symmetricity_of_multiset() for multisets")
    return symmetricity_of_multiset(config, tol)


def symmetricity_of_multiset(config: Configuration,
                             tol: Tolerance = DEFAULT_TOL) -> Symmetricity:
    """Compute ``ϱ(P)`` of a point multiset (Definition 6)."""
    report = config.symmetry
    if report.kind == "degenerate":
        return _degenerate_symmetricity(config, report)
    if report.kind == "collinear":
        return _collinear_symmetricity(config, report, tol)
    from repro.perf import cached_symmetricity

    return cached_symmetricity(config, report, tol,
                               compute=_finite_symmetricity)


def _trivial() -> GroupSpec:
    return GroupSpec(GroupKind.CYCLIC, 1)


def _finite_symmetricity(config: Configuration, report: SymmetryReport,
                         tol: Tolerance) -> Symmetricity:
    gamma = report.group
    center = report.center
    is_set = not report.has_multiplicity
    unoccupied_lines = {axis.line_key() for axis in gamma.axes
                        if not axis.occupied}

    specs: set[GroupSpec] = {_trivial()}
    witnesses: dict[GroupSpec, list[RotationGroup]] = {}
    for sub in enumerate_concrete_subgroups(gamma, tol):
        if sub.is_trivial:
            continue
        if report.center_occupied:
            if is_set:
                continue
            center_mult = _center_multiplicity(report, tol)
            if center_mult % sub.order != 0:
                continue
        if is_set:
            valid = all(axis.line_key() in unoccupied_lines
                        for axis in sub.axes)
        else:
            valid = _multiset_valid(report, sub, center)
        if valid:
            specs.add(sub.spec)
            witnesses.setdefault(sub.spec, []).append(sub)
    return Symmetricity(specs=specs, maximal=maximal_elements(specs),
                        witnesses=witnesses, report=report)


def _center_multiplicity(report: SymmetryReport,
                         tol: Tolerance = DEFAULT_TOL) -> int:
    slack = tol.geometric_slack(report.radius)
    for p, m in zip(report.distinct_points, report.multiplicities):
        if float(np.linalg.norm(np.asarray(p) - report.center)) <= slack:
            return m
    return 0


def _multiset_valid(report: SymmetryReport, sub: RotationGroup,
                    center) -> bool:
    """Definition 6: each point's multiplicity is divisible by the
    size of its stabilizer in the candidate subgroup."""
    for p, m in zip(report.distinct_points, report.multiplicities):
        stab = sub.stabilizer_size(np.asarray(p) - center)
        if m % stab != 0:
            return False
    return True


def _collinear_symmetricity(config: Configuration,
                            report: SymmetryReport,
                            tol: Tolerance = DEFAULT_TOL) -> Symmetricity:
    """Symmetricity of a configuration on a line through ``b(P)``.

    Only finitely many finite rotation groups can act with unoccupied
    axes: rotations about the line fix every point (the line is
    occupied unless multiplicities allow it), and the only other
    symmetries are half-turns about perpendicular axes (which require
    the multiset to be symmetric against the center).
    """
    specs: set[GroupSpec] = {_trivial()}
    mults = report.multiplicities
    center_mult = _center_multiplicity(report, tol)
    slack = tol.geometric_slack(report.radius)
    line_mults = [m for p, m in zip(report.distinct_points, mults)
                  if float(np.linalg.norm(np.asarray(p) - report.center))
                  > slack]
    gcd_all = int(np.gcd.reduce(line_mults + [center_mult or 0])) \
        if line_mults else max(center_mult, 1)
    symmetric = report.infinite_kind is InfiniteGroupKind.D_INF

    # C_k about the line: every point is on the k-fold axis, so k must
    # divide every multiplicity (center included when occupied).
    for k in range(2, max(gcd_all, 1) + 1):
        if gcd_all % k == 0:
            specs.add(GroupSpec(GroupKind.CYCLIC, k))

    if symmetric:
        # C_2 about a perpendicular axis through the center: free
        # orbits pair p with -p; the center (if occupied) lies on the
        # axis and needs even multiplicity.
        if center_mult % 2 == 0:
            specs.add(GroupSpec(GroupKind.CYCLIC, 2))
        # D_l with the line as principal axis: point stabilizers along
        # the principal have order l; the center has order 2l.
        for l in range(2, max(gcd_all, 2) + 1):
            if gcd_all % l == 0 and center_mult % (2 * l) == 0:
                specs.add(GroupSpec(GroupKind.DIHEDRAL, l))

    specs = _downward_closure(specs)
    return Symmetricity(specs=specs, maximal=maximal_elements(specs),
                        witnesses={}, report=report)


def _degenerate_symmetricity(config: Configuration,
                             report: SymmetryReport) -> Symmetricity:
    """All robots at one point: ``G ∈ ϱ`` iff ``|G|`` divides ``n``."""
    n = config.n
    specs: set[GroupSpec] = {_trivial()}
    for k in range(2, n + 1):
        if n % k == 0:
            specs.add(GroupSpec(GroupKind.CYCLIC, k))
    for l in range(2, n // 2 + 1):
        if n % (2 * l) == 0:
            specs.add(GroupSpec(GroupKind.DIHEDRAL, l))
    if n % 12 == 0:
        specs.add(GroupSpec(GroupKind.TETRAHEDRAL))
    if n % 24 == 0:
        specs.add(GroupSpec(GroupKind.OCTAHEDRAL))
    if n % 60 == 0:
        specs.add(GroupSpec(GroupKind.ICOSAHEDRAL))
    return Symmetricity(specs=specs, maximal=maximal_elements(specs),
                        witnesses={}, report=report)


def _downward_closure(specs: set[GroupSpec]) -> set[GroupSpec]:
    """Close a spec set under taking abstract subgroups."""
    closed: set[GroupSpec] = set()
    for spec in specs:
        closed.add(spec)
        from repro.groups.subgroups import proper_abstract_subgroups

        closed.update(proper_abstract_subgroups(spec))
    return closed
