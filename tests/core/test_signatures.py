"""Tests for the equivariant geometric signatures."""

import numpy as np

from repro.core.signatures import (
    cylindrical_signature,
    frame_signature,
    group_arrangement_signature,
    line_signature,
)
from repro.geometry.rotations import random_rotation, rotation_about_axis
from repro.groups.catalog import tetrahedral_group
from repro.patterns import polyhedra
from repro.patterns.library import named_pattern


def rel_and_mults(points):
    arr = [np.asarray(p, dtype=float) for p in points]
    center = np.mean(arr, axis=0)
    return [p - center for p in arr], [1] * len(arr)


class TestCylindricalSignature:
    def test_invariant_under_axis_rotation(self):
        rel, mults = rel_and_mults(polyhedra.pyramid(5))
        axis = np.array([0.0, 0.0, 1.0])
        sig_a = cylindrical_signature(rel, mults, axis)
        spin = rotation_about_axis(axis, 0.83)
        sig_b = cylindrical_signature([spin @ p for p in rel], mults, axis)
        assert sig_a == sig_b

    def test_equivariance(self, rng):
        rel, mults = rel_and_mults(polyhedra.pyramid(4))
        axis = np.array([0.0, 0.0, 1.0])
        rot = random_rotation(rng)
        sig_a = cylindrical_signature(rel, mults, axis)
        sig_b = cylindrical_signature([rot @ p for p in rel], mults,
                                      rot @ axis)
        assert sig_a == sig_b

    def test_distinguishes_axis_directions(self):
        # A pyramid is chiral-free but top/bottom asymmetric: the two
        # directions give different signatures.
        rel, mults = rel_and_mults(polyhedra.pyramid(4))
        axis = np.array([0.0, 0.0, 1.0])
        assert cylindrical_signature(rel, mults, axis) != \
            cylindrical_signature(rel, mults, -axis)

    def test_symmetric_config_ties_directions(self):
        rel, mults = rel_and_mults(polyhedra.prism(4))
        axis = np.array([0.0, 0.0, 1.0])
        assert cylindrical_signature(rel, mults, axis) == \
            cylindrical_signature(rel, mults, -axis)

    def test_multiplicities_enter(self):
        rel, mults = rel_and_mults(polyhedra.pyramid(4))
        doubled = [2] * len(rel)
        assert cylindrical_signature(rel, mults, [0, 0, 1]) != \
            cylindrical_signature(rel, doubled, [0, 0, 1])


class TestLineSignature:
    def test_sign_invariance(self):
        rel, mults = rel_and_mults(polyhedra.pyramid(5))
        axis = np.array([0.0, 0.0, 1.0])
        assert line_signature(rel, mults, axis) == \
            line_signature(rel, mults, -axis)

    def test_distinguishes_axes(self):
        rel, mults = rel_and_mults(polyhedra.prism(3))
        principal = np.array([0.0, 0.0, 1.0])
        secondary = np.array([1.0, 0.0, 0.0])
        assert line_signature(rel, mults, principal) != \
            line_signature(rel, mults, secondary)


class TestFrameSignature:
    def test_equivariance(self, rng):
        rel, mults = rel_and_mults(named_pattern("cube"))
        frame = np.eye(3)
        rot = random_rotation(rng)
        sig_a = frame_signature(rel, mults, frame)
        sig_b = frame_signature([rot @ p for p in rel], mults,
                                rot @ frame)
        assert sig_a == sig_b


class TestGroupArrangementSignature:
    def test_equivariance(self, rng):
        rel, mults = rel_and_mults(named_pattern("icosahedron"))
        group = tetrahedral_group()
        rot = random_rotation(rng)
        sig_a = group_arrangement_signature(rel, mults, group)
        sig_b = group_arrangement_signature(
            [rot @ p for p in rel], mults, group.transformed(rot))
        assert sig_a == sig_b

    def test_distinguishes_arrangements(self):
        # The icosahedron relative to T in standard position vs T
        # rotated by an angle outside T's normalizer.
        rel, mults = rel_and_mults(named_pattern("icosahedron"))
        group = tetrahedral_group()
        spun = group.transformed(rotation_about_axis([0, 0, 1], 0.4))
        assert group_arrangement_signature(rel, mults, group) != \
            group_arrangement_signature(rel, mults, spun)
