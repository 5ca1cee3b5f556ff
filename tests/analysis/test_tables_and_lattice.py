"""Tests for the table/figure regeneration (Tables 1–3, Figure 4)."""

import networkx as nx

from repro.analysis.lattice import (
    PAPER_FIGURE4_EDGES,
    polyhedral_lattice_edges,
    subgroup_lattice,
)
from repro.analysis.tables import (
    table1_polyhedral_groups,
    table2_transitive_sets,
    table3_symmetricity,
)


class TestTable1:
    def test_all_rows_match_paper(self):
        rows = table1_polyhedral_groups()
        assert len(rows) == 3
        for row in rows:
            assert row["match"], row

    def test_orders(self):
        rows = {r["group"]: r for r in table1_polyhedral_groups()}
        assert rows["T"]["computed_order"] == 12
        assert rows["O"]["computed_order"] == 24
        assert rows["I"]["computed_order"] == 60


class TestTable2:
    def test_all_rows_match_paper(self):
        rows = table2_transitive_sets()
        assert len(rows) == 11
        for row in rows:
            assert row["match"], row

    def test_cardinalities_are_order_over_folding(self):
        for row in table2_transitive_sets():
            order = {"T": 12, "O": 24, "I": 60}[row["group"]]
            assert row["computed_cardinality"] == order // row["folding"]


class TestTable3:
    def test_all_rows_match_paper(self):
        rows = table3_symmetricity()
        assert len(rows) == 8
        for row in rows:
            assert row["match"], row


class TestFigure4:
    def test_polyhedral_lattice_matches_paper(self):
        assert polyhedral_lattice_edges() == PAPER_FIGURE4_EDGES

    def test_lattice_is_a_dag(self):
        graph = subgroup_lattice()
        assert nx.is_directed_acyclic_graph(graph)

    def test_cover_edges_only(self):
        # No edge may be implied by a 2-step path (cover relation).
        graph = subgroup_lattice()
        for a, b in graph.edges():
            for mid in graph.nodes():
                if mid in (a, b):
                    continue
                assert not (graph.has_edge(a, mid)
                            and graph.has_edge(mid, b)), (a, mid, b)

    def test_bottom_element(self):
        graph = subgroup_lattice()
        assert graph.in_degree("C1") == 0

    def test_o_not_below_i(self):
        graph = subgroup_lattice()
        assert not nx.has_path(graph, "O", "I")
        assert nx.has_path(graph, "T", "I")
        assert nx.has_path(graph, "T", "O")
