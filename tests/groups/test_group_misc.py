"""Additional tests for RotationGroup methods and GroupSpec."""

import numpy as np
import pytest

from repro.errors import GroupError
from repro.geometry.rotations import rotation_about_axis
from repro.geometry.rotations import random_rotation
from repro.groups.catalog import (
    cyclic_group,
    dihedral_group,
    icosahedral_group,
    octahedral_group,
    tetrahedral_group,
)
from repro.groups.group import GroupSpec, RotationGroup


class TestGroupSpec:
    def test_orders(self):
        assert GroupSpec.parse("C7").order == 7
        assert GroupSpec.parse("D7").order == 14
        assert GroupSpec.parse("T").order == 12
        assert GroupSpec.parse("O").order == 24
        assert GroupSpec.parse("I").order == 60

    def test_str_round_trip(self):
        for text in ["C1", "C12", "D2", "D9", "T", "O", "I"]:
            assert str(GroupSpec.parse(text)) == text

    def test_parse_errors(self):
        for bad in ["", "X3", "C0", "D1", "T2", "C-1", "Dx"]:
            with pytest.raises(GroupError):
                GroupSpec.parse(bad)

    def test_is_2d_3d(self):
        assert GroupSpec.parse("C5").is_2d
        assert GroupSpec.parse("D5").is_2d
        assert GroupSpec.parse("T").is_3d
        assert not GroupSpec.parse("T").is_2d

    def test_trivial(self):
        assert GroupSpec.parse("C1").is_trivial
        assert not GroupSpec.parse("C2").is_trivial

    def test_sortable(self):
        specs = [GroupSpec.parse(t) for t in ["I", "C1", "D3", "T"]]
        ordered = sorted(specs)
        assert [str(s) for s in ordered] == ["C1", "D3", "T", "I"]


class TestRotationGroupMethods:
    def test_dedupes_elements(self):
        mats = [np.eye(3), np.eye(3),
                rotation_about_axis([0, 0, 1], np.pi)]
        group = RotationGroup(mats)
        assert group.order == 2

    def test_identity_added_if_missing(self):
        group = RotationGroup([rotation_about_axis([0, 0, 1], np.pi)])
        assert group.order == 2
        assert group.contains_element(np.eye(3))

    def test_axes_of_fold(self):
        group = octahedral_group()
        assert len(group.axes_of_fold(4)) == 3
        assert len(group.axes_of_fold(7)) == 0

    def test_axis_for_line(self):
        group = tetrahedral_group()
        axis = group.axis_for_line([2.0, 2.0, 2.0])
        assert axis is not None and axis.fold == 3
        assert group.axis_for_line([1.0, 0.3, 0.0]) is None

    def test_elements_about_axis(self):
        group = octahedral_group()
        about_z = group.elements_about_axis([0, 0, 1])
        assert len(about_z) == 3  # 90, 180, 270 degrees

    def test_principal_axis_cyclic(self):
        group = cyclic_group(5)
        assert group.principal_axis is not None
        assert group.principal_axis.fold == 5

    def test_principal_axis_d2_is_none(self):
        assert dihedral_group(2).principal_axis is None

    def test_principal_axis_polyhedral_is_none(self):
        assert tetrahedral_group().principal_axis is None

    def test_with_axes_replaces_metadata(self):
        group = cyclic_group(3)
        marked = group.with_axes(
            [a.with_occupied(True) for a in group.axes])
        assert all(a.occupied for a in marked.axes)
        assert marked.spec == group.spec

    def test_repr(self):
        assert "C4" in repr(cyclic_group(4))

    def test_orbit_multiset_dedup(self):
        group = dihedral_group(3)
        # A point on the principal axis has a 2-point orbit.
        assert len(group.orbit([0, 0, 1.5])) == 2


class TestStackedConjugation:
    """``transformed`` conjugates the whole element stack in one
    product; it must give the bits of the per-element form."""

    GROUPS = ([cyclic_group(k) for k in (1, 2, 3, 5, 8)]
              + [dihedral_group(l) for l in (2, 3, 4, 7)]
              + [tetrahedral_group(), octahedral_group(),
                 icosahedral_group()])

    def test_matches_per_element_form_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        for _ in range(100):
            rot = random_rotation(rng)
            for group in self.GROUPS:
                image = group.transformed(rot)
                expected = np.asarray([rot @ mat @ rot.T
                                       for mat in group.elements])
                assert image.order == group.order
                assert image._stack.tobytes() == expected.tobytes()
                assert all(a.tobytes() == b.tobytes() for a, b
                           in zip(image.elements, expected))
                assert image._element_keys == {
                    tuple(row) for row in
                    (np.round(expected.reshape(-1, 9), 5) + 0.0).tolist()}
                assert image.spec == group.spec
                for moved, axis in zip(image.axes, group.axes):
                    assert moved.direction.tobytes() == \
                        (rot @ axis.direction).tobytes()
                    assert (moved.fold, moved.oriented, moved.occupied) == \
                        (axis.fold, axis.oriented, axis.occupied)

    def test_stack_input_is_used_as_given(self):
        stack = octahedral_group()._stack.copy()
        group = RotationGroup(stack)
        assert group._stack is stack
        assert group.spec == GroupSpec.parse("O")

    def test_stack_gains_identity_and_drops_duplicates(self):
        half = rotation_about_axis([0, 0, 1], np.pi)
        group = RotationGroup(np.stack([half, half]))
        assert group.order == 2
        assert group.contains_element(np.eye(3))
        assert group.spec == GroupSpec.parse("C2")
