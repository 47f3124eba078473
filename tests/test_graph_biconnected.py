"""Tests for Algorithm 1 (articulation points, biconnected components).

The paper's Example 1 / Figure 3 is pinned exactly; random graphs are
differential-tested against networkx.
"""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    articulation_points,
    biconnected_components,
    connected_components,
)


def _to_networkx(graph: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(graph.vertices())
    nxg.add_edges_from((u, v) for u, v, _ in graph.edges())
    return nxg


def _normalize(components):
    """Canonical form: frozenset of frozensets of normalized edges."""
    return frozenset(
        frozenset((min(u, v), max(u, v)) for u, v in component)
        for component in components)


class TestPaperExample:
    """Figure 3: graph with articulation points b and d.

    Reconstructed from Example 1: back edges (c, a) and (f, d) exist,
    b and d are internal articulation points, and the biconnected
    components are {a-b-c}, {b-d}, {d-e-f}.
    """

    def _graph(self):
        g = Graph()
        # Triangle a-b-c (back edge (c, a)).
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        # Bridge b-d.
        g.add_edge("b", "d")
        # Triangle d-e-f (back edge (f, d)).
        g.add_edge("d", "e")
        g.add_edge("e", "f")
        g.add_edge("f", "d")
        return g

    def test_articulation_points(self):
        assert articulation_points(self._graph()) == {"b", "d"}

    def test_three_components(self):
        result = biconnected_components(self._graph())
        assert _normalize(result.components) == _normalize([
            [("a", "b"), ("b", "c"), ("c", "a")],
            [("b", "d")],
            [("d", "e"), ("e", "f"), ("f", "d")],
        ])

    def test_vertex_sets(self):
        sets = biconnected_components(self._graph()).vertex_sets()
        assert sorted(map(sorted, sets)) == [
            ["a", "b", "c"], ["b", "d"], ["d", "e", "f"]]


class TestSmallShapes:
    def test_single_edge_is_one_component(self):
        g = Graph.from_edges([("a", "b")])
        result = biconnected_components(g)
        assert _normalize(result.components) == _normalize([[("a", "b")]])
        assert result.articulation_points == set()

    def test_path_graph_every_internal_vertex_cuts(self):
        g = Graph.from_edges([(i, i + 1) for i in range(5)])
        result = biconnected_components(g)
        assert result.articulation_points == {1, 2, 3, 4}
        assert len(result.components) == 5

    def test_cycle_has_no_articulation_points(self):
        g = Graph.from_edges([(i, (i + 1) % 6) for i in range(6)])
        result = biconnected_components(g)
        assert result.articulation_points == set()
        assert len(result.components) == 1
        assert len(result.components[0]) == 6

    def test_clique_is_single_component(self):
        vertices = list(range(5))
        g = Graph.from_edges([(u, v) for u in vertices for v in vertices
                              if u < v])
        result = biconnected_components(g)
        assert len(result.components) == 1
        assert result.articulation_points == set()

    def test_star_center_is_articulation(self):
        g = Graph.from_edges([("hub", leaf) for leaf in "abcd"])
        result = biconnected_components(g)
        assert result.articulation_points == {"hub"}
        assert len(result.components) == 4

    def test_two_triangles_sharing_vertex(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"),
                              ("a", "d"), ("d", "e"), ("e", "a")])
        result = biconnected_components(g)
        assert result.articulation_points == {"a"}
        assert len(result.components) == 2

    def test_isolated_vertices_reported(self):
        g = Graph.from_edges([("a", "b")])
        g.add_vertex("z")
        result = biconnected_components(g)
        assert result.isolated_vertices == {"z"}

    def test_disconnected_graph(self):
        g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "a"),
                              ("x", "y"), ("y", "z"), ("z", "x")])
        result = biconnected_components(g)
        assert len(result.components) == 2
        assert result.articulation_points == set()

    def test_empty_graph(self):
        result = biconnected_components(Graph())
        assert result.components == []
        assert result.articulation_points == set()


class TestAgainstNetworkx:
    def _assert_matches(self, graph: Graph):
        nxg = _to_networkx(graph)
        ours = biconnected_components(graph)
        expected_components = _normalize(
            [list(c) for c in nx.biconnected_component_edges(nxg)])
        assert _normalize(ours.components) == expected_components
        assert ours.articulation_points == set(nx.articulation_points(nxg))

    @settings(max_examples=80, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
            lambda e: e[0] != e[1]),
        max_size=40))
    def test_random_graphs_match(self, edge_list):
        graph = Graph.from_edges(edge_list)
        self._assert_matches(graph)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 3))
    def test_random_trees_and_dense(self, n, seed):
        nxg = nx.gnp_random_graph(n, 0.25, seed=seed)
        graph = Graph()
        graph.add_vertex(0)
        for u, v in nxg.edges():
            graph.add_edge(u, v)
        self._assert_matches(graph)


class TestEdgeStack:
    def test_deep_graph_no_recursion_error(self):
        # 30k-vertex path: recursive implementations blow the stack.
        g = Graph.from_edges([(i, i + 1) for i in range(30_000)])
        result = biconnected_components(g)
        assert len(result.components) == 30_000


class TestConnectedComponents:
    def test_two_components(self):
        g = Graph.from_edges([("a", "b"), ("x", "y")])
        comps = sorted(map(sorted, connected_components(g)))
        assert comps == [["a", "b"], ["x", "y"]]

    def test_isolated_vertex_is_component(self):
        g = Graph()
        g.add_vertex("z")
        assert list(connected_components(g)) == [{"z"}]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
            lambda e: e[0] != e[1]),
        max_size=30))
    def test_matches_networkx(self, edge_list):
        graph = Graph.from_edges(edge_list)
        nxg = _to_networkx(graph)
        ours = sorted(map(sorted, connected_components(graph)))
        theirs = sorted(map(sorted, nx.connected_components(nxg)))
        assert ours == theirs
