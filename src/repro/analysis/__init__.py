"""Regeneration of the paper's tables and figures, plus the experiment
drivers behind :func:`repro.api.run_experiment` (see DESIGN.md's
experiment index and EXPERIMENTS.md for paper-vs-measured records).
"""

from repro.analysis.tables import (
    table1_polyhedral_groups,
    table2_transitive_sets,
    table3_symmetricity,
)
from repro.analysis.lattice import subgroup_lattice, polyhedral_lattice_edges

__all__ = [
    "table1_polyhedral_groups",
    "table2_transitive_sets",
    "table3_symmetricity",
    "subgroup_lattice",
    "polyhedral_lattice_edges",
]
