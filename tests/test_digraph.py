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
    enumerate_digraphs,
    from_graph,
    geometric_symmetrization,
    parse_edge_list,
    random_digraph,
    serialize_edge_list,
    strongly_connected_components,
    walk_profile,
)

from digenergy.digraph import adjacency_matrices
from families import complete_graph, component_vertex_sets, directed_cycle, directed_path, graphs, star_graph, sym


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

    @pytest.mark.parametrize("header", ["1_0", "+3", "\u0663", "3.0", "0x3"])
    def test_vertex_count_is_an_ascii_decimal(self, header):
        # int() alone reads 1_0 as 10, +3 as 3 and the Arabic-Indic digit
        # three as 3.
        with pytest.raises(EdgeListParseError, match="vertex count is not an integer") as exc:
            parse_edge_list(f"{header}\n0 1\n")
        assert exc.value.line == 1

    @pytest.mark.parametrize("line", ["0 1_0", "+0 1", "0 \u0663", "0 1.0"])
    def test_vertex_is_an_ascii_decimal(self, line):
        with pytest.raises(EdgeListParseError, match="non-integer vertex") as exc:
            parse_edge_list(f"11\n{line}\n")
        assert exc.value.line == 2

    def test_negative_values_keep_their_messages(self):
        with pytest.raises(EdgeListParseError, match="must be non-negative, got -2"):
            parse_edge_list("-2\n")
        with pytest.raises(DigraphValidationError, match=r"line 2: arc \(-1,2\) out of range for n=3"):
            parse_edge_list("3\n-1 2\n")

    def test_long_decimals_read_as_their_value(self):
        # Past int()'s digit limit (4,300 by default): a huge header is over
        # the cap, a huge vertex out of range, and leading zeros are only
        # zeros.
        huge = "1" + "0" * 5000
        with pytest.raises(EdgeListParseError, match=f"vertex count {huge} exceeds the cap") as exc:
            parse_edge_list(f"{huge}\n0 1\n")
        assert exc.value.line == 1
        with pytest.raises(EdgeListParseError, match="must be non-negative"):
            parse_edge_list(f"-{huge}\n")
        for line in (f"0 {huge}", f"-{huge} 1"):
            with pytest.raises(DigraphValidationError, match="out of range for n=3"):
                parse_edge_list(f"3\n{line}\n")
        zeros = "0" * 5000
        assert parse_edge_list(f"{zeros}3\n{zeros}1 2\n") == Digraph(3, [(1, 2)])

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


def _adjacency_from_arcs(d):
    """A 0-1 int64 matrix set arc by arc: the reference for the stack."""
    a = np.zeros((d.n, d.n), dtype=np.int64)
    for i, j in d.arcs:
        a[i, j] = 1
    return a


ADJACENCY_CORPORA = {
    "exhaustive-n1-3": [d for n in range(1, 4) for d in enumerate_digraphs(n)],
    "random-n10": [random_digraph(10, p, seed) for p in (0.1, 0.3, 0.6) for seed in range(50)],
    "random-n32": [random_digraph(32, p, seed) for p in (0.0, 0.3, 1.0) for seed in range(5)],
}


class TestAdjacencyStack:
    """``adjacency_matrices`` stacks each digraph's own matrix, from the
    arcs alone."""

    @pytest.mark.parametrize("corpus", sorted(ADJACENCY_CORPORA))
    def test_stack_equals_per_digraph_matrices(self, corpus):
        ds = ADJACENCY_CORPORA[corpus]
        for n in sorted({d.n for d in ds}):
            block = [d for d in ds if d.n == n]
            got = adjacency_matrices(block)
            assert got.dtype == np.int64 and got.shape == (len(block), n, n)
            want = np.stack([adjacency_matrix(d) for d in block])
            assert np.array_equal(got, want)
            assert np.array_equal(got, np.stack([_adjacency_from_arcs(d) for d in block]))

    def test_empty_list_and_orders_zero_and_one(self):
        assert adjacency_matrices([]).shape == (0, 0, 0)
        assert adjacency_matrices([Digraph(0)] * 3).shape == (3, 0, 0)
        assert adjacency_matrices([Digraph(1)] * 2).tolist() == [[[0]], [[0]]]
        assert adjacency_matrix(Digraph(0)).shape == (0, 0)
        with pytest.raises(ValueError, match="one order"):
            adjacency_matrices([Digraph(1), Digraph(2)])

    def test_never_reads_the_bit_rows(self, monkeypatch):
        # The harness compares the bit-row packing with this one (walk_rowsum),
        # so the two must come from independent reads of the digraph.
        def forbidden(d):
            raise AssertionError("out_masks read")

        monkeypatch.setattr(Digraph, "out_masks", property(forbidden))
        ds = [random_digraph(10, 0.3, seed) for seed in range(20)]
        assert np.array_equal(adjacency_matrices(ds), np.stack([_adjacency_from_arcs(d) for d in ds]))


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
        assert component_vertex_sets(g) == expected


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


class TestFromGraph:
    @given(digraphs())
    @settings(max_examples=50)
    def test_symmetric_digraph_roundtrip(self, d):
        if d.arcs == {(j, i) for i, j in d.arcs}:
            assert from_graph(Graph(d.n, ((i, j) for i, j in d.arcs if i < j))) == d


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

    # The vertex count and every label are read with operator.index: a
    # float or a string is rejected, not truncated or parsed.
    @pytest.mark.parametrize("build", [
        lambda: Digraph(3, [(0.9, 2.2)]),
        lambda: Digraph(3, [("1", "2")]),
        lambda: Digraph(2.0),
        lambda: Graph(3, [(0.5, 2)]),
        lambda: Graph(2.5),
        lambda: Graph("3"),
    ], ids=["digraph-float-arc", "digraph-str-arc", "digraph-float-n",
            "graph-float-edge", "graph-float-n", "graph-str-n"])
    def test_non_integer_rejected(self, build):
        with pytest.raises(DigraphValidationError, match="must be integers"):
            build()

    def test_bool_n_is_stored_as_int(self):
        d = Digraph(True)
        assert d.n == 1 and type(d.n) is int
        assert serialize_edge_list(d) == "1\n"
        assert parse_edge_list(serialize_edge_list(d)) == d

    def test_numpy_integers_are_stored_as_ints(self):
        d = Digraph(np.int64(3), [(np.int64(0), np.int32(2))])
        g = Graph(np.int64(3), [(np.int64(2), 0)])
        assert d == Digraph(3, [(0, 2)]) and g == Graph(3, [(0, 2)])
        assert type(d.n) is int and type(g.n) is int
        assert all(type(v) is int for arc in d.arcs | g.edges for v in arc)
        assert serialize_edge_list(d) == "3\n0 2\n"
