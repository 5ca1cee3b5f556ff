"""Computational regeneration of the paper's Tables 1, 2 and 3.

Each function returns a list of row dicts containing both the value
the paper states and the value computed from this library's concrete
group/orbit machinery, so the benchmarks can print the comparison and
the tests can assert equality.
"""

from __future__ import annotations

from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.groups.catalog import (
    icosahedral_group,
    octahedral_group,
    tetrahedral_group,
)
from repro.groups.group import GroupSpec, RotationGroup
from repro.patterns.orbits import transitive_set

__all__ = [
    "table1_polyhedral_groups",
    "table2_transitive_sets",
    "table3_symmetricity",
]

# Paper Table 1: per polyhedral group, {fold: (elements, axes)} and order.
PAPER_TABLE1 = {
    "T": {"2": (3, 3), "3": (8, 4), "order": 12},
    "O": {"2": (6, 6), "3": (8, 4), "4": (9, 3), "order": 24},
    "I": {"2": (15, 15), "3": (20, 10), "5": (24, 6), "order": 60},
}

# Paper Table 2 (the finite-orbit rows): (group, folding) -> cardinality
# and the polyhedron the orbit forms ('' when infinitely many shapes).
PAPER_TABLE2 = [
    ("T", 3, 4, "tetrahedron"),
    ("T", 2, 6, "octahedron"),
    ("T", 1, 12, ""),
    ("O", 4, 6, "octahedron"),
    ("O", 3, 8, "cube"),
    ("O", 2, 12, "cuboctahedron"),
    ("O", 1, 24, ""),
    ("I", 5, 12, "icosahedron"),
    ("I", 3, 20, "dodecahedron"),
    ("I", 2, 30, "icosidodecahedron"),
    ("I", 1, 60, ""),
]

# Paper Table 3: varrho(U_{G,1} ∪ U_{G,mu}) — for 3D groups
# varrho(U_{G,mu}) alone is identical (the paper notes this); rows as
# (group, mu, paper's stated set of groups).
PAPER_TABLE3 = [
    ("T", 3, {"D2"}),
    ("T", 2, {"D3"}),
    ("O", 4, {"D3"}),
    ("O", 3, {"D4"}),
    ("O", 2, {"T", "C4", "C3"}),
    ("I", 5, {"T", "D3"}),
    ("I", 3, {"D5", "D2"}),
    ("I", 2, {"C5", "C3"}),
]


def _catalog(name: str) -> RotationGroup:
    return {"T": tetrahedral_group, "O": octahedral_group,
            "I": icosahedral_group}[name]()


def table1_polyhedral_groups() -> list[dict]:
    """Rows of Table 1 computed from the concrete matrix groups."""
    rows = []
    for name in ("T", "O", "I"):
        group = _catalog(name)
        computed: dict[str, tuple[int, int]] = {}
        for fold, axes in group.axis_folds().items():
            computed[str(fold)] = ((fold - 1) * axes, axes)
        paper = PAPER_TABLE1[name]
        per_fold_match = all(
            computed.get(fold) == value
            for fold, value in paper.items() if fold != "order")
        rows.append({
            "group": name,
            "computed": computed,
            "computed_order": group.order,
            "paper_order": paper["order"],
            "match": per_fold_match and group.order == paper["order"],
        })
    return rows


def table2_transitive_sets() -> list[dict]:
    """Rows of Table 2: generate each ``U_{G,μ}`` and identify it."""
    from repro.patterns import library

    rows = []
    for name, mu, cardinality, shape in PAPER_TABLE2:
        group = _catalog(name)
        orbit = transitive_set(group, mu=mu)
        computed_card = len(orbit)
        shape_match = True
        if shape:
            reference = library.named_pattern(
                {"tetrahedron": "tetrahedron",
                 "octahedron": "octahedron",
                 "cube": "cube",
                 "cuboctahedron": "cuboctahedron",
                 "icosahedron": "icosahedron",
                 "dodecahedron": "dodecahedron",
                 "icosidodecahedron": "icosidodecahedron"}[shape])
            shape_match = Configuration(orbit).is_similar_to(reference)
        rows.append({
            "group": name,
            "folding": mu,
            "paper_cardinality": cardinality,
            "computed_cardinality": computed_card,
            "shape": shape or "(infinitely many)",
            "match": computed_card == cardinality and shape_match,
        })
    return rows


def table3_symmetricity() -> list[dict]:
    """Rows of Table 3: ``ϱ(U_{G,μ})`` versus the paper's sets.

    The paper lists convenient generating sets that may include
    non-maximal members (e.g. ``C3 ≺ T`` in the cuboctahedron row), so
    rows compare *downward closures*, and also report our maximal set.
    """
    from repro.groups.subgroups import proper_abstract_subgroups

    def closure(names: set[str]) -> frozenset:
        specs = set()
        for text in names:
            spec = GroupSpec.parse(text)
            specs.add(spec)
            specs.update(proper_abstract_subgroups(spec))
        return frozenset(specs)

    rows = []
    for name, mu, paper_set in PAPER_TABLE3:
        group = _catalog(name)
        orbit = transitive_set(group, mu=mu)
        rho = symmetricity(Configuration(orbit))
        computed_max = {str(s) for s in rho.maximal}
        rows.append({
            "group": name,
            "folding": mu,
            "paper_set": sorted(paper_set),
            "computed_maximal": sorted(computed_max),
            "match": closure(paper_set) == closure(computed_max),
        })
    return rows
