from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings

from digenergy import (
    ClosedWalkProfile,
    Digraph,
    Graph,
    adjacency_matrix,
    cycle_arc_reduction,
    energy_upper_walk_ratio,
    enumerate_digraphs,
    equality_verdict_energy_upper,
    equality_verdict_rho_lower,
    random_digraph,
    rho_lower_walk_ratio,
    walk_profile,
)
from digenergy.bounds import DEFAULT_TOL
from digenergy.digraph import adjacency_matrices
from digenergy.oracle import _Block, _check_equality_iff_energy
from digenergy.spectrum import Memo
from digenergy.structure import energy_bound_attained, walk_ratio_attained

from families import (
    all_graphs,
    all_regular_graphs,
    clebsch_graph,
    complement,
    complete_bipartite,
    complete_graph,
    component_vertex_sets,
    cycle_graph,
    degrees,
    directed_cycle,
    empty_graph,
    graphs,
    matching_graph,
    neighbor_masks,
    paley_graph,
    path_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
    star_graph,
    spectrum_of,
    sym,
    triangular_graph,
)


def verdict_rho(d):
    return equality_verdict_rho_lower(adjacency_matrix(d), walk_profile(d),
                                      adjacency_matrix(cycle_arc_reduction(d)))


def verdict_energy(d):
    return equality_verdict_energy_upper(adjacency_matrix(d))


def _radius_attained(adjacency, profile):
    """The radius equality by the numbers on a ``(K, n, n)`` stack of
    symmetric 0-1 matrices S and their stacked profile: |rho(S) - r| <=
    1e-9, with rho(S) the largest ``eigvalsh`` value (a nonnegative
    symmetric matrix has its radius there) and r = sqrt(sum t2^2 /
    sum c2^2), 0 with no edge."""
    rho = np.linalg.eigvalsh(np.asarray(adjacency, dtype=float)).max(axis=-1, initial=0.0)
    r = np.sqrt(np.asarray(profile.sum_t2_sq) / np.maximum(profile.sum_c2_sq, 1))
    return np.abs(rho - r) <= 1e-9


class TestWalkRatioAttained:
    def _check(self, gs):
        # The edge test on one adjacency, on a stack, and the verdict all
        # agree with the radius itself.
        ds = [sym(g) for g in gs]
        profiles = [walk_profile(d) for d in ds]
        adj = [adjacency_matrix(d) for d in ds]
        stacked = ClosedWalkProfile(*(np.array([getattr(p, f) for p in profiles])
                                      for f in ("c2_seq", "t2_seq", "a", "c2_total",
                                                "sum_c2_sq", "sum_t2_sq")))
        expect = _radius_attained(np.array(adj), stacked).tolist()
        assert [bool(walk_ratio_attained(a, p)) for a, p in zip(adj, profiles)] == expect
        assert [verdict_rho(d).predicted_equality for d in ds] == expect
        assert walk_ratio_attained(np.array(adj), stacked).tolist() == expect

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_graphs_up_to_five(self, n):
        self._check(list(all_graphs(n)))

    def test_all_graphs_on_six(self):
        # The 32,768 labeled graphs on 6 vertices as one block: the
        # harness's stacked prediction agrees with the radius, on 1,251
        # equality cases, 540 of which a degree edge test misses.
        block = _Block.from_digraphs([sym(g) for g in all_graphs(6)], Memo())
        expect = _radius_attained(block.bits, block.profile)
        assert block.predicted_rho.tolist() == expect.tolist() and expect.sum() == 1251

    @given(graphs(max_n=10))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs_up_to_ten(self, g):
        self._check([g])


class TestRhoEqualityVerdict:
    @pytest.mark.parametrize("g,kind,params,predicted", [
        pytest.param(complete_graph(3), "R_REGULAR", (2,), True, id="K3"),
        pytest.param(cycle_graph(4), "R_REGULAR", (2,), True, id="C4"),
        pytest.param(cycle_graph(5), "R_REGULAR", (2,), True, id="C5"),
        pytest.param(matching_graph(2), "R_REGULAR", (1,), True, id="2K2"),
        pytest.param(star_graph(2), "SEMIREGULAR_BIPARTITE", (2, 1), True, id="P3"),
        pytest.param(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), "SEMIREGULAR_BIPARTITE", (2, 1), True,
                     id="two-P3"),
        pytest.param(Graph(5, [(0, 1), (2, 3), (3, 4)]), "NONE", (), False, id="K2+P3"),
        pytest.param(Graph(3, [(0, 1)]), "R_REGULAR", (1,), True, id="K2+isolated"),
        pytest.param(star_graph(3), "SEMIREGULAR_BIPARTITE", (3, 1), True, id="K13"),
        pytest.param(Graph(4, [(1, 2), (2, 3)]), "SEMIREGULAR_BIPARTITE", (2, 1), True,
                     id="isolated+P3"),
        # Pseudo-semiregular with t2/c2 = 2 and 3/2 but not semiregular; the
        # params are the degrees at the first edge.
        pytest.param(path_graph(5), "SEMIREGULAR_BIPARTITE", (2, 1), True, id="P5"),
    ])
    def test_graph_components(self, g, kind, params, predicted):
        # Each edge-bearing component must be pseudo-regular or
        # pseudo-semiregular bipartite with the walk ratio; an isolated
        # vertex is free, and kind and params read the first edge.
        d = sym(g)
        v = verdict_rho(d)
        assert (v.kind, v.params, v.predicted_equality) == (kind, params, predicted)
        gap = abs(rho_lower_walk_ratio(walk_profile(d)) - spectrum_of(d).rho)
        assert v.predicted_equality == (gap <= 1e-7)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_regular_graphs_up_to_six(self, n):
        # An r-regular graph attains the bound; with no edge it is EMPTY.
        for g in all_regular_graphs(n):
            r = degrees(g)[0]
            expect = ("R_REGULAR", (r,)) if r else ("EMPTY", (n,))
            v = verdict_rho(sym(g))
            assert (v.kind, v.params, v.predicted_equality) == (*expect, True)

    def test_four_cycle_with_pendant_arc(self):
        base = sym(cycle_graph(4))
        d = Digraph(5, set(base.arcs) | {(0, 4)})
        v = verdict_rho(d)
        assert v.predicted_equality is True
        assert v.extra_noncycle_arcs == ((0, 4),)
        assert v.kind == "R_REGULAR" and v.params == (2,)
        assert abs(rho_lower_walk_ratio(walk_profile(d)) - spectrum_of(d).rho) < 1e-9

    def test_sym_star(self):
        v = verdict_rho(sym(star_graph(2)))
        assert v.predicted_equality is True
        assert v.kind == "SEMIREGULAR_BIPARTITE" and v.params == (2, 1)

    def test_digon_closed_into_triangle(self):
        # digon {0,1} plus a directed two-path closing a triangle; the
        # verdict must agree with the numerical comparison of both sides
        d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        v = verdict_rho(d)
        gap = abs(rho_lower_walk_ratio(walk_profile(d)) - spectrum_of(d).rho)
        assert v.predicted_equality == (gap <= 1e-7)
        assert v.predicted_equality is False

    def test_digon_beside_directed_triangle_is_not_predicted(self):
        # rho = 1 = r through a strong component with one-way arcs and no
        # digon, which the edge test does not decide (ROADMAP item 1, part
        # (b)): a known false negative, pinned until that part lands.
        d = Digraph(5, [(0, 4), (4, 0), (1, 2), (2, 3), (3, 1)])
        v = verdict_rho(d)
        assert (v.kind, v.params, v.predicted_equality) == ("NONE", (), False)
        assert abs(rho_lower_walk_ratio(walk_profile(d)) - spectrum_of(d).rho) < 1e-9

    def test_acyclic_is_empty_kind(self):
        d = Digraph(3, [(0, 1), (1, 2)])
        v = verdict_rho(d)
        assert v.predicted_equality is True  # rho = 0 = degenerate bound
        assert v.kind == "EMPTY"
        assert v.extra_noncycle_arcs == ((0, 1), (1, 2))

    def test_mismatched_ratio_component(self):
        # K2 union K3 as graphs: q = (2+48)/(2+12)... components disagree
        from digenergy import Graph, from_graph

        g = Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        v = verdict_rho(from_graph(g))
        assert v.predicted_equality is False

    def test_matching_union_regular(self):
        v = verdict_rho(sym(matching_graph(2)))
        assert v.predicted_equality is True
        assert v.kind == "R_REGULAR" and v.params == (1,)

    def test_mixed_regular_and_semiregular_components(self):
        # 4-cycle (r=2, r^2=4) next to a 4-leaf star ((4,1), r1*r2=4):
        # both components match the global ratio, so equality holds
        from digenergy import Graph, from_graph

        g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0),
                      (4, 5), (4, 6), (4, 7), (4, 8)])
        d = from_graph(g)
        prof = walk_profile(d)
        assert prof.sum_t2_sq / prof.sum_c2_sq == 4.0
        assert abs(rho_lower_walk_ratio(prof) - spectrum_of(d).rho) < 1e-9
        v = verdict_rho(d)
        assert v.predicted_equality is True
        assert v.kind == "R_REGULAR" and v.params == (2,)  # first edge component


def _energy_kind_criterion(g):
    """The energy equality shapes, by brute force: the empty graph, the
    complete graph, a perfect matching, or a connected regular graph whose
    adjacent pairs all share lam common neighbours and whose non-adjacent
    pairs all share mu, with lam = mu."""
    n, nbr = g.n, neighbor_masks(g)
    if not g.edges or 2 * len(g.edges) == n * (n - 1) or set(degrees(g)) == {1}:
        return True
    if len(component_vertex_sets(g)) > 1 or len(set(degrees(g))) > 1:
        return False
    shared = {True: set(), False: set()}
    for i, j in combinations(range(n), 2):
        shared[(i, j) in g.edges].add((nbr[i] & nbr[j]).bit_count())
    lam, mu = shared[True], shared[False]
    return len(lam) == len(mu) == 1 and lam == mu


class TestEnergyBoundAttained:
    def test_stacked_equals_single(self):
        ds = [sym(g) for g in all_graphs(4)] + [random_digraph(4, 0.5, seed) for seed in range(200)]
        stack = adjacency_matrices(ds)
        single = [bool(energy_bound_attained(a)) for a in stack]
        assert energy_bound_attained(stack).tolist() == single
        assert 0 < sum(single) < len(ds)

    @pytest.mark.parametrize("n", [0, 1])
    def test_orders_zero_and_one(self, n):
        assert energy_bound_attained(np.zeros((3, n, n), dtype=np.int64)).tolist() == [True] * 3
        assert energy_bound_attained(np.zeros((n, n), dtype=np.int64))

    @pytest.mark.parametrize("n", range(2, 4))
    def test_every_asymmetric_digraph_up_to_three(self, n):
        ds = [d for d in enumerate_digraphs(n) if d.arcs != {(j, i) for i, j in d.arcs}]
        assert ds and not energy_bound_attained(adjacency_matrices(ds)).any()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_random_asymmetric_digraphs(self, n):
        # Dense draws include the complete digraph less a few arcs.
        ds = [random_digraph(n, p, seed) for p in (0.3, 0.7, 0.95) for seed in range(50)]
        ds = [d for d in ds if d.arcs != {(j, i) for i, j in d.arcs}]
        assert ds and not energy_bound_attained(adjacency_matrices(ds)).any()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_all_graphs_up_to_six(self, n):
        # The identity on a stack and the verdict's prediction both equal
        # the brute-force criterion; every strongly regular verdict has
        # k(k - lam - 1) = (n - k - 1) mu.
        gs = list(all_graphs(n))
        ds = [sym(g) for g in gs]
        expect = [_energy_kind_criterion(g) for g in gs]
        assert energy_bound_attained(adjacency_matrices(ds)).tolist() == expect
        verdicts = [verdict_energy(d) for d in ds]
        assert [v.predicted_equality for v in verdicts] == expect
        srg = [v.params for v in verdicts if v.kind == "STRONGLY_REGULAR"]
        assert bool(srg) == (n >= 4)
        for gn, k, lam, mu in srg:
            assert gn == n and k * (k - lam - 1) == (n - k - 1) * mu


class TestEnergyEqualityVerdict:
    @pytest.mark.parametrize("g,kind,params,predicted", [
        pytest.param(cycle_graph(5), "STRONGLY_REGULAR", (5, 2, 0, 1), False, id="C5"),
        pytest.param(petersen_graph(), "STRONGLY_REGULAR", (10, 3, 0, 1), False, id="petersen"),
        pytest.param(cycle_graph(4), "STRONGLY_REGULAR", (4, 2, 0, 2), False, id="C4"),
        pytest.param(complete_graph(4), "COMPLETE", (4,), True, id="K4"),
        pytest.param(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), "NONE", (), False,
                     id="two-K3"),
        pytest.param(path_graph(3), "NONE", (), False, id="P3"),
        pytest.param(empty_graph(3), "EMPTY", (3,), True, id="empty3"),
    ])
    def test_graph_kinds(self, g, kind, params, predicted):
        # A strongly regular graph is connected, regular and not complete;
        # the prediction agrees with the certified spectrum.
        d = sym(g)
        v = verdict_energy(d)
        assert (v.kind, v.params, v.predicted_equality) == (kind, params, predicted)
        gap = abs(energy_upper_walk_ratio(walk_profile(d)) - spectrum_of(d).energy)
        assert v.predicted_equality == (gap <= 1e-7)

    def test_complete_four(self):
        v = verdict_energy(sym(complete_graph(4)))
        assert v.predicted_equality is True
        assert v.kind == "COMPLETE" and v.params == (4,)

    def test_two_disjoint_digons(self):
        v = verdict_energy(sym(matching_graph(2)))
        assert v.predicted_equality is True
        assert v.kind == "PERFECT_MATCHING_UNION" and v.params == (2,)

    def test_empty(self):
        v = verdict_energy(Digraph(4))
        assert v.predicted_equality is True
        assert v.kind == "EMPTY"

    def test_pentagon_strict(self):
        d = sym(cycle_graph(5))
        v = verdict_energy(d)
        assert v.predicted_equality is False
        assert v.kind == "STRONGLY_REGULAR" and v.params == (5, 2, 0, 1)
        bound = energy_upper_walk_ratio(walk_profile(d))
        assert bound > spectrum_of(d).energy + 1e-3

    def test_petersen_strict(self):
        d = sym(petersen_graph())
        v = verdict_energy(d)
        assert v.predicted_equality is False
        assert v.kind == "STRONGLY_REGULAR" and v.params == (10, 3, 0, 1)
        bound = energy_upper_walk_ratio(walk_profile(d))
        assert bound > spectrum_of(d).energy + 1e-3

    def test_asymmetric_is_none(self):
        v = verdict_energy(directed_cycle(3))
        assert v.predicted_equality is False
        assert v.kind == "NONE"

    def test_extra_arc_breaks_equality(self):
        base = sym(complete_graph(3))
        d = Digraph(4, set(base.arcs) | {(0, 3)})
        v = verdict_energy(d)
        assert v.predicted_equality is False

    def test_complete_bipartite_balanced(self):
        # K_{2,2} = C4: SRG(4,2,0,2) with eigenvalues {2,0,0,-2}: moduli of
        # the non-Perron values differ from the target, so no equality
        v = verdict_energy(sym(complete_bipartite(2, 2)))
        assert v.predicted_equality is False
        assert v.kind == "STRONGLY_REGULAR"

    def test_rook_graph_attains_the_bound(self):
        # 4x4 rook's graph: SRG(16,6,2,2); with lam == mu the non-Perron
        # eigenvalues are +-sqrt(k - mu) = +-2, exactly the target modulus,
        # so this is a genuine equality case beyond complete/matching/empty
        d = sym(rook_graph(4))
        prof = walk_profile(d)
        assert spectrum_of(d).energy == pytest.approx(36.0, abs=1e-8)
        assert energy_upper_walk_ratio(prof) == pytest.approx(spectrum_of(d).energy, abs=1e-7)
        v = verdict_energy(d)
        assert v.predicted_equality is True
        assert v.kind == "STRONGLY_REGULAR" and v.params == (16, 6, 2, 2)

    @pytest.mark.parametrize("g,params", [
        pytest.param(triangular_graph(7), (21, 10, 5, 4), id="T7"),
        pytest.param(triangular_graph(8), (28, 12, 6, 4), id="T8"),
        pytest.param(shrikhande_graph(), (16, 6, 2, 2), id="shrikhande"),
        pytest.param(triangular_graph(6), (15, 8, 4, 4), id="T6"),
        pytest.param(complement(clebsch_graph()), (16, 10, 6, 6), id="clebsch-complement"),
        pytest.param(complement(rook_graph(4)), (16, 9, 4, 6), id="rook4-complement"),
        pytest.param(paley_graph(13), (13, 6, 2, 3), id="paley13"),
    ])
    def test_strongly_regular_equality_iff_lam_equals_mu(self, g, params):
        # lam > mu (T7, T8), lam == mu and lam < mu, each against the
        # numeric test of the bound on the computed spectrum
        d = sym(g)
        v = verdict_energy(d)
        assert v.kind == "STRONGLY_REGULAR" and v.params == params
        numeric = abs(spectrum_of(d).energy - energy_upper_walk_ratio(walk_profile(d))) <= 1e-7
        assert v.predicted_equality == numeric == (params[2] == params[3])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_graph_up_to_six_matches_the_numeric_test(self, n):
        gs = list(all_graphs(n))
        _, [(fail, *_)] = _check_equality_iff_energy(_Block.from_digraphs([sym(g) for g in gs], Memo()), DEFAULT_TOL)
        assert [g.edges for g, bad in zip(gs, fail) if bad] == []
