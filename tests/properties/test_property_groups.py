"""Property-based tests for rotation groups and symmetry detection."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.configuration import Configuration
from repro.core.decomposition import orbit_decomposition
from repro.core.symmetricity import symmetricity
from repro.geometry.rotations import random_rotation
from repro.groups.catalog import (
    cyclic_group,
    dihedral_group,
    group_from_spec,
    octahedral_group,
    tetrahedral_group,
)
from repro.groups.group import GroupSpec, element_key
from repro.groups.subgroups import (
    enumerate_concrete_subgroups,
    is_abstract_subgroup,
    proper_abstract_subgroups,
)

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)
spec_strings = st.sampled_from(
    ["C1", "C2", "C3", "C4", "C5", "C6", "C8",
     "D2", "D3", "D4", "D5", "D6", "T", "O", "I"])
group_factories = st.sampled_from([
    lambda: cyclic_group(3), lambda: cyclic_group(6),
    lambda: dihedral_group(2), lambda: dihedral_group(4),
    lambda: dihedral_group(5), lambda: tetrahedral_group(),
    lambda: octahedral_group(),
])


class TestGroupAlgebra:
    @settings(max_examples=20, deadline=None)
    @given(factory=group_factories)
    def test_closure_and_inverses(self, factory):
        group = factory()
        keys = {element_key(m) for m in group.elements}
        for a in group.elements:
            assert element_key(a.T) in keys
            for b in group.elements:
                assert element_key(a @ b) in keys

    @settings(max_examples=20, deadline=None)
    @given(factory=group_factories, seed=seeds)
    def test_conjugation_preserves_spec(self, factory, seed):
        group = factory()
        rot = random_rotation(np.random.default_rng(seed))
        assert group.transformed(rot).spec == group.spec

    @settings(max_examples=20, deadline=None)
    @given(factory=group_factories, seed=seeds)
    def test_orbit_size_divides_order(self, factory, seed):
        group = factory()
        rng = np.random.default_rng(seed)
        point = rng.normal(size=3)
        orbit = group.orbit(point)
        assert group.order % len(orbit) == 0
        assert len(orbit) * group.stabilizer_size(point) == group.order


class TestSubgroupLattice:
    @settings(max_examples=60, deadline=None)
    @given(a=spec_strings, b=spec_strings, c=spec_strings)
    def test_transitivity(self, a, b, c):
        sa, sb, sc = (GroupSpec.parse(t) for t in (a, b, c))
        if is_abstract_subgroup(sa, sb) and is_abstract_subgroup(sb, sc):
            assert is_abstract_subgroup(sa, sc)

    @settings(max_examples=60, deadline=None)
    @given(a=spec_strings, b=spec_strings)
    def test_antisymmetry(self, a, b):
        sa, sb = GroupSpec.parse(a), GroupSpec.parse(b)
        if sa != sb:
            assert not (is_abstract_subgroup(sa, sb)
                        and is_abstract_subgroup(sb, sa))

    @settings(max_examples=60, deadline=None)
    @given(a=spec_strings, b=spec_strings)
    def test_order_divides(self, a, b):
        sa, sb = GroupSpec.parse(a), GroupSpec.parse(b)
        if is_abstract_subgroup(sa, sb):
            assert sb.order % sa.order == 0

    @settings(max_examples=30, deadline=None)
    @given(a=spec_strings)
    def test_proper_subgroups_are_subgroups(self, a):
        spec = GroupSpec.parse(a)
        for sub in proper_abstract_subgroups(spec):
            assert is_abstract_subgroup(sub, spec)
            assert sub != spec


class TestConcreteEnumerationProperties:
    @settings(max_examples=15, deadline=None)
    @given(factory=group_factories)
    def test_enumerated_specs_respect_lattice(self, factory):
        group = factory()
        for sub in enumerate_concrete_subgroups(group):
            assert is_abstract_subgroup(sub.spec, group.spec)

    @settings(max_examples=15, deadline=None)
    @given(factory=group_factories)
    def test_lagrange(self, factory):
        group = factory()
        for sub in enumerate_concrete_subgroups(group):
            assert group.order % sub.order == 0


class TestDetectionProperties:
    @settings(max_examples=15, deadline=None)
    @given(spec_text=st.sampled_from(["C3", "C5", "D3", "D4", "T", "O"]),
           seed=seeds)
    def test_free_orbit_detection_round_trip(self, spec_text, seed):
        # gamma of a free orbit of G contains G; with a second shell
        # breaking accidental symmetry it is exactly G.
        from repro.patterns.orbits import generic_seed, transitive_set

        group = group_from_spec(GroupSpec.parse(spec_text))
        rot = random_rotation(np.random.default_rng(seed))
        moved = group.transformed(rot)
        seed_a = generic_seed(moved)
        points = transitive_set(moved, seed=seed_a)
        points += transitive_set(moved, seed=1.7 * (moved.elements[0] @ (
            seed_a + 0.21 * rot @ np.array([0.3, -0.5, 0.4]))))
        config = Configuration(points)
        report = config.symmetry
        assert report.kind == "finite"
        assert is_abstract_subgroup(GroupSpec.parse(spec_text),
                                    report.group.spec)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_orbit_decomposition_partitions(self, seed):
        from repro.patterns.library import compose_shells, named_pattern

        points = compose_shells(named_pattern("octahedron"),
                                named_pattern("cube"))
        rot = random_rotation(np.random.default_rng(seed))
        config = Configuration([rot @ p for p in points])
        orbits = orbit_decomposition(config, config.rotation_group)
        indices = sorted(i for orbit in orbits for i in orbit)
        assert indices == list(range(config.n))


class TestSymmetricityProperties:
    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(["cube", "octahedron", "tetrahedron",
                                 "cuboctahedron"]),
           seed=seeds)
    def test_rotation_invariance(self, name, seed):
        from repro.patterns.library import named_pattern

        points = named_pattern(name)
        rho_a = symmetricity(Configuration(points))
        rot = random_rotation(np.random.default_rng(seed))
        rho_b = symmetricity(Configuration([rot @ p for p in points]))
        assert rho_a.specs == rho_b.specs

    @settings(max_examples=8, deadline=None)
    @given(name=st.sampled_from(["cube", "octahedron", "icosahedron",
                                 "dodecahedron"]))
    def test_orders_divide_n(self, name):
        from repro.patterns.library import named_pattern

        points = named_pattern(name)
        rho = symmetricity(Configuration(points))
        for spec in rho.specs:
            assert len(points) % spec.order == 0
