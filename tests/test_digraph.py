import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from digenergy import (
    MAX_VERTICES,
    Digraph,
    DigraphValidationError,
    EdgeListParseError,
    Graph,
    adjacency_matrix,
    cycle_arc_reduction,
    from_graph,
    geometric_symmetrization,
    parse_edge_list,
    serialize_edge_list,
    strongly_connected_components,
    underlying_graph_if_symmetric,
    walk_profile,
)

from families import complete_graph, directed_cycle, directed_path, graphs, star_graph, sym


@st.composite
def digraphs(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arcs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Digraph(n, arcs)


class TestParse:
    def test_two_cycle(self):
        d = parse_edge_list("2\n0 1\n1 0\n")
        assert d.n == 2 and d.arcs == {(0, 1), (1, 0)}

    def test_directed_triangle(self):
        d = parse_edge_list("3\n0 1\n1 2\n2 0\n")
        assert d == directed_cycle(3)

    def test_loop_rejected(self):
        with pytest.raises(DigraphValidationError):
            parse_edge_list("2\n0 0\n")

    def test_range_rejected(self):
        with pytest.raises(DigraphValidationError):
            parse_edge_list("2\n0 5\n")

    def test_duplicates_collapse(self):
        d = parse_edge_list("2\n0 1\n0 1\n")
        assert d.arc_count == 1

    def test_comments_and_blanks(self):
        d = parse_edge_list("# header\n\n3  # count\n0 1\n # c\n1 0\n")
        assert d.n == 3 and d.arcs == {(0, 1), (1, 0)}

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list("2\n0 1\nnope\n")
        assert exc.value.line == 3

    def test_empty_input(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("")

    def test_vertex_cap_checked_on_header(self):
        # The header is rejected before the malformed arc line is reached.
        with pytest.raises(EdgeListParseError) as exc:
            parse_edge_list(f"{MAX_VERTICES + 1}\n0 1\nnope\n")
        assert exc.value.line == 1
        assert parse_edge_list(f"{MAX_VERTICES}\n0 1\n").n == MAX_VERTICES

    def test_empty_digraph_is_legal(self):
        assert parse_edge_list("0\n").n == 0
        assert parse_edge_list("4\n").arc_count == 0

    @given(digraphs())
    @settings(max_examples=80)
    def test_roundtrip(self, d):
        assert parse_edge_list(serialize_edge_list(d)) == d


class TestAdjacency:
    def test_two_cycle(self):
        assert adjacency_matrix(parse_edge_list("2\n0 1\n1 0\n")).tolist() == [[0, 1], [1, 0]]

    def test_directed_triangle(self):
        a = adjacency_matrix(directed_cycle(3))
        assert a.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]

    def test_empty(self):
        assert adjacency_matrix(Digraph(3)).tolist() == [[0] * 3] * 3


class TestSymmetrization:
    def test_symmetric_unchanged(self):
        a = adjacency_matrix(parse_edge_list("2\n0 1\n1 0\n"))
        assert geometric_symmetrization(a).tolist() == [[0, 1], [1, 0]]

    def test_directed_triangle_vanishes(self):
        a = adjacency_matrix(directed_cycle(3))
        assert geometric_symmetrization(a).tolist() == [[0] * 3] * 3

    def test_mixed(self):
        a = adjacency_matrix(Digraph(3, [(0, 1), (1, 0), (1, 2)]))
        s = geometric_symmetrization(a)
        assert s.tolist() == [[0, 1, 0], [1, 0, 0], [0, 0, 0]]

    def test_general_entries(self):
        m = np.array([[0.0, 4.0], [1.0, 0.0]])
        s = geometric_symmetrization(m)
        assert s[0, 1] == pytest.approx(2.0) and s[1, 0] == pytest.approx(2.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            geometric_symmetrization(np.zeros((2, 3)))


class TestWalkProfile:
    def test_sym_triangle(self):
        p = walk_profile(sym(complete_graph(3)))
        assert (p.c2_seq, p.t2_seq) == ((2, 2, 2), (4, 4, 4))
        assert (p.a, p.c2_total, p.sum_c2_sq, p.sum_t2_sq) == (6, 6, 12, 48)

    def test_single_vertex_all_zero(self):
        p = walk_profile(Digraph(1))
        assert p.c2_seq == (0,) and p.t2_seq == (0,) and p.a == 0

    def test_sym_star_two_leaves(self):
        p = walk_profile(sym(star_graph(2)))
        assert p.c2_seq == (2, 1, 1)
        assert p.t2_seq == (2, 2, 2)
        assert p.a == 4

    def test_directed_triangle_no_digons(self):
        p = walk_profile(directed_cycle(3))
        assert p.c2_seq == (0, 0, 0)
        assert p.t2_seq == (0, 0, 0)
        assert (p.a, p.c2_total) == (3, 0)

    @given(digraphs())
    @settings(max_examples=80)
    def test_against_symmetrization(self, d):
        # Independent route: row sums of S(A) and S(A) @ c2.
        p = walk_profile(d)
        s = geometric_symmetrization(adjacency_matrix(d))
        rows = s.sum(axis=1)
        assert tuple(int(r) for r in rows) == p.c2_seq
        t = s @ np.array(p.c2_seq)
        assert tuple(int(x) for x in t) == p.t2_seq
        assert sum(p.t2_seq) == p.sum_c2_sq
        assert p.c2_total % 2 == 0
        assert p.c2_total <= p.a


def _reachability_partition(d):
    """Independent SCC oracle via boolean transitive closure."""
    n = d.n
    reach = [[i == j or (i, j) in d.arcs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    reps = [min(j for j in range(n) if reach[i][j] and reach[j][i]) for i in range(n)]
    remap = {}
    return tuple(remap.setdefault(r, len(remap)) for r in reps)


class TestScc:
    def test_directed_triangle_one_component(self):
        scc = strongly_connected_components(directed_cycle(3))
        assert scc.component_count == 1

    def test_path_three_components(self):
        scc = strongly_connected_components(directed_path(3))
        assert scc.component_count == 3
        assert scc.component_id == (0, 1, 2)

    def test_digon_plus_tail(self):
        scc = strongly_connected_components(Digraph(3, [(0, 1), (1, 0), (1, 2)]))
        assert scc.component_id == (0, 0, 1)

    @given(digraphs())
    @example(Digraph(70))  # wider than one 64-bit word: 70 singletons in vertex order
    @settings(max_examples=100)
    def test_matches_reachability_oracle(self, d):
        got = strongly_connected_components(d)
        assert got.component_id == _reachability_partition(d)
        assert got.component_count == len(set(got.component_id))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_directed_path_at_the_vertex_cap(self, reverse):
        # The longest breadth-first sweep the cap allows: every vertex is its
        # own component, and each one walks the rest of the path.
        path = directed_path(MAX_VERTICES)
        d = Digraph(MAX_VERTICES, ((j, i) for i, j in path.arcs)) if reverse else path
        started = time.perf_counter()
        scc = strongly_connected_components(d)
        assert time.perf_counter() - started < 1.0
        assert scc.component_id == tuple(range(MAX_VERTICES))
        assert scc.component_count == MAX_VERTICES


class TestConnectedComponents:
    @given(graphs())
    @example(Graph(70))  # wider than one 64-bit word: 70 singletons in vertex order
    @example(Graph(70, ((i, i + 1) for i in range(69))))
    @settings(max_examples=100)
    def test_matches_reachability_oracle(self, g):
        ids = _reachability_partition(from_graph(g))
        expected = tuple(
            tuple(v for v in range(g.n) if ids[v] == k) for k in range(len(set(ids)))
        )
        assert g.component_vertex_sets == expected

    def test_swept_once_per_graph(self):
        g = Graph(5, [(0, 1), (2, 3)])
        assert g.component_vertex_sets is g.component_vertex_sets


class TestCycleArcReduction:
    def test_digon_plus_tail(self):
        d = Digraph(3, [(0, 1), (1, 0), (1, 2)])
        assert cycle_arc_reduction(d).arcs == {(0, 1), (1, 0)}

    def test_directed_triangle_unchanged(self):
        d = directed_cycle(3)
        assert cycle_arc_reduction(d) == d

    def test_unchanged_digraph_is_returned_itself(self):
        d = directed_cycle(4)
        assert cycle_arc_reduction(d) is d

    def test_sink_arc_gives_a_new_digraph(self):
        d = Digraph(5, list(directed_cycle(4).arcs) + [(0, 4)])
        r = cycle_arc_reduction(d)
        assert r is not d and r.arcs == directed_cycle(4).arcs and r.n == 5

    def test_path_empties(self):
        assert cycle_arc_reduction(directed_path(3)).arc_count == 0

    @given(digraphs())
    @settings(max_examples=80)
    def test_invariants(self, d):
        r = cycle_arc_reduction(d)
        # idempotent
        assert cycle_arc_reduction(r) == r
        # no inter-component arcs remain; partition preserved
        scc = strongly_connected_components(d)
        assert strongly_connected_components(r) == scc
        cid = scc.component_id
        assert all(cid[i] == cid[j] for i, j in r.arcs)
        # symmetrization unchanged
        s1 = geometric_symmetrization(adjacency_matrix(d))
        s2 = geometric_symmetrization(adjacency_matrix(r))
        assert np.array_equal(s1, s2)


class TestUnderlyingGraph:
    def test_two_cycle(self):
        g = underlying_graph_if_symmetric(parse_edge_list("2\n0 1\n1 0\n"))
        assert g == Graph(2, [(0, 1)])

    def test_directed_triangle_none(self):
        assert underlying_graph_if_symmetric(directed_cycle(3)) is None

    def test_star(self):
        g = underlying_graph_if_symmetric(sym(star_graph(2)))
        assert g == star_graph(2)

    @given(digraphs())
    @settings(max_examples=50)
    def test_from_graph_roundtrip(self, d):
        g = underlying_graph_if_symmetric(d)
        if g is not None:
            assert from_graph(g) == d


class TestValidation:
    def test_loop_rejected(self):
        with pytest.raises(DigraphValidationError):
            Digraph(2, [(1, 1)])

    def test_negative_n_rejected(self):
        with pytest.raises(DigraphValidationError):
            Digraph(-1)

    def test_out_of_range_rejected(self):
        with pytest.raises(DigraphValidationError):
            Digraph(2, [(0, 2)])
