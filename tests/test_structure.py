import pytest

from digenergy import (
    Digraph,
    cycle_arc_reduction,
    energy,
    energy_upper_walk_ratio,
    equality_verdict_energy_upper,
    equality_verdict_rho_lower,
    is_pseudo_regular,
    is_pseudo_semiregular_bipartite,
    is_regular,
    is_semiregular_bipartite,
    is_strongly_regular,
    rho_lower_walk_ratio,
    spectral_radius,
    walk_profile,
)

from families import (
    all_regular_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    directed_cycle,
    empty_graph,
    matching_graph,
    path_graph,
    petersen_graph,
    star_graph,
    sym,
)


def verdict_rho(d):
    return equality_verdict_rho_lower(d, walk_profile(d), cycle_arc_reduction(d))


def verdict_energy(d):
    return equality_verdict_energy_upper(d, walk_profile(d))


class TestIsRegular:
    def test_triangle(self):
        assert is_regular(complete_graph(3)) == 2

    def test_star_not_regular(self):
        assert is_regular(star_graph(2)) is None

    def test_four_cycle(self):
        assert is_regular(cycle_graph(4)) == 2

    def test_empty_is_zero_regular(self):
        assert is_regular(empty_graph(3)) == 0


class TestIsSemiregularBipartite:
    def test_star_two_leaves(self):
        assert is_semiregular_bipartite(star_graph(2)) == (2, 1)

    def test_triangle_odd_cycle(self):
        assert is_semiregular_bipartite(complete_graph(3)) is None

    def test_four_cycle(self):
        assert is_semiregular_bipartite(cycle_graph(4)) == (2, 2)

    def test_two_stars(self):
        from digenergy import Graph

        g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert is_semiregular_bipartite(g) == (2, 1)

    def test_mixed_components_rejected(self):
        from digenergy import Graph

        # one K2 (forces (1,1)) plus one star (forces (2,1))
        g = Graph(5, [(0, 1), (2, 3), (2, 4)])
        assert is_semiregular_bipartite(g) is None

    def test_isolated_vertex_next_to_edges_rejected(self):
        from digenergy import Graph

        g = Graph(3, [(0, 1)])
        assert is_semiregular_bipartite(g) is None


class TestIsStronglyRegular:
    def test_pentagon(self):
        assert is_strongly_regular(cycle_graph(5)) == (5, 2, 0, 1)

    def test_petersen(self):
        assert is_strongly_regular(petersen_graph()) == (10, 3, 0, 1)

    def test_complete_excluded(self):
        assert is_strongly_regular(complete_graph(4)) is None

    def test_four_cycle(self):
        assert is_strongly_regular(cycle_graph(4)) == (4, 2, 0, 2)

    def test_disconnected_excluded(self):
        from digenergy import Graph

        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])  # 2 triangles
        assert is_strongly_regular(g) is None

    def test_path_not_regular(self):
        assert is_strongly_regular(path_graph(3)) is None

    def test_parameter_identity_on_all_accepted(self):
        # k(k - lam - 1) = (n - k - 1) mu for every accepted graph up to n=6
        from families import all_graphs

        seen = 0
        for n in range(1, 7):
            for g in all_graphs(n):
                params = is_strongly_regular(g)
                if params is None:
                    continue
                seen += 1
                gn, k, lam, mu = params
                assert gn == n
                assert k * (k - lam - 1) == (n - k - 1) * mu
        assert seen > 0


class TestPseudoRegular:
    @pytest.mark.parametrize("g,expect", [
        (complete_graph(3), 2.0),
        (cycle_graph(4), 2.0),
        (cycle_graph(5), 2.0),
        (matching_graph(2), 1.0),
    ])
    def test_regular_graphs(self, g, expect):
        assert is_pseudo_regular(g) == expect

    def test_star_two_leaves_not(self):
        # center ratio 2/2 = 1, leaves 2/1 = 2
        assert is_pseudo_regular(star_graph(2)) is None

    def test_star_three_leaves_not(self):
        assert is_pseudo_regular(star_graph(3)) is None

    def test_all_regular_up_to_six(self):
        for n in range(1, 7):
            for g in all_regular_graphs(n):
                r = is_regular(g)
                if g.edges:
                    assert is_pseudo_regular(g) == float(r)


class TestPseudoSemiregularBipartite:
    def test_star_three_leaves(self):
        assert is_pseudo_semiregular_bipartite(star_graph(3)) == (3.0, 1.0)

    def test_four_cycle(self):
        assert is_pseudo_semiregular_bipartite(cycle_graph(4)) == (2.0, 2.0)

    def test_triangle(self):
        assert is_pseudo_semiregular_bipartite(complete_graph(3)) is None


class TestRhoEqualityVerdict:
    def test_four_cycle_with_pendant_arc(self):
        base = sym(cycle_graph(4))
        d = Digraph(5, set(base.arcs) | {(0, 4)})
        v = verdict_rho(d)
        assert v.predicted_equality is True
        assert v.extra_noncycle_arcs == ((0, 4),)
        assert v.kind == "R_REGULAR" and v.params == (2,)
        assert abs(rho_lower_walk_ratio(walk_profile(d)) - spectral_radius(d)) < 1e-9

    def test_sym_star(self):
        v = verdict_rho(sym(star_graph(2)))
        assert v.predicted_equality is True
        assert v.kind == "SEMIREGULAR_BIPARTITE" and v.params == (2, 1)

    def test_digon_closed_into_triangle(self):
        # digon {0,1} plus a directed two-path closing a triangle; the
        # verdict must agree with the numerical comparison of both sides
        d = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        v = verdict_rho(d)
        gap = abs(rho_lower_walk_ratio(walk_profile(d)) - spectral_radius(d))
        assert v.predicted_equality == (gap <= 1e-7)
        assert v.predicted_equality is False

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
        assert abs(rho_lower_walk_ratio(prof) - spectral_radius(d)) < 1e-9
        v = verdict_rho(d)
        assert v.predicted_equality is True
        assert v.kind == "R_REGULAR" and v.params == (2,)  # first edge component


class TestEnergyEqualityVerdict:
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
        bound = energy_upper_walk_ratio(walk_profile(d), 5)
        assert bound > energy(d) + 1e-3

    def test_petersen_strict(self):
        d = sym(petersen_graph())
        v = verdict_energy(d)
        assert v.predicted_equality is False
        assert v.kind == "STRONGLY_REGULAR" and v.params == (10, 3, 0, 1)
        bound = energy_upper_walk_ratio(walk_profile(d), 10)
        assert bound > energy(d) + 1e-3

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
        from itertools import product

        from digenergy import Graph, from_graph

        verts = list(product(range(4), repeat=2))
        idx = {v: k for k, v in enumerate(verts)}
        rook = Graph(16, ((idx[a], idx[b]) for a in verts for b in verts
                          if a < b and (a[0] == b[0] or a[1] == b[1])))
        assert is_strongly_regular(rook) == (16, 6, 2, 2)
        d = from_graph(rook)
        prof = walk_profile(d)
        assert energy(d) == pytest.approx(36.0, abs=1e-8)
        assert energy_upper_walk_ratio(prof, 16) == pytest.approx(energy(d), abs=1e-7)
        v = verdict_energy(d)
        assert v.predicted_equality is True
        assert v.kind == "STRONGLY_REGULAR" and v.params == (16, 6, 2, 2)
