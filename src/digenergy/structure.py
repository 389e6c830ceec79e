"""Recognizers for the structured graphs that attain the walk-based bounds,
and verdict operations tying a digraph to the equality characterizations.

The radius bound sqrt(sum t2^2 / sum c2^2) is attained exactly when, after
deleting the arcs that lie on no cycle, the digraph is the symmetric digraph
of a graph whose edge-bearing components are each r-regular or
(r1, r2)-semiregular bipartite with r^2 = r1*r2 equal to the walk ratio.
The matching energy bound is attained exactly on symmetric digraphs of:
the empty graph, the complete graph, a disjoint union of single edges
covering every vertex, or a connected non-complete strongly regular graph
whose two non-Perron eigenvalues share the modulus sqrt((a - q)/(n - 1)),
that is, one with lam = mu.  Every fact here is decided in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels
from .digraph import ClosedWalkProfile, Digraph, Graph, _bits, underlying_graph_if_symmetric

KIND_R_REGULAR = "R_REGULAR"
KIND_SEMIREGULAR_BIPARTITE = "SEMIREGULAR_BIPARTITE"
KIND_COMPLETE = "COMPLETE"
KIND_PERFECT_MATCHING_UNION = "PERFECT_MATCHING_UNION"
KIND_STRONGLY_REGULAR = "STRONGLY_REGULAR"
KIND_PSEUDO_SEMIREGULAR_BIPARTITE = "PSEUDO_SEMIREGULAR_BIPARTITE"
KIND_EMPTY = "EMPTY"
KIND_NONE = "NONE"


@dataclass(frozen=True)
class StructureVerdict:
    """Which equality-case structure (if any) a digraph matches."""

    kind: str
    params: tuple
    predicted_equality: bool
    extra_noncycle_arcs: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": list(self.params),
            "predicted_equality": self.predicted_equality,
            "extra_noncycle_arcs": [list(a) for a in self.extra_noncycle_arcs],
        }


def is_regular(g: Graph) -> Optional[int]:
    """The common degree r if every vertex has it, else None."""
    if g.n == 0:
        return 0
    degs = set(g.degrees)
    return degs.pop() if len(degs) == 1 else None


def _bipartition_masks(g: Graph, comp: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """Two-color one connected component by the parity of its breadth-first
    layers, the side holding ``comp[0]`` first; None if an edge joins two
    vertices of one side (an odd cycle exists)."""
    sides = [0, 0]
    for k, layer in enumerate(kernels.bfs_layers(comp[0], g.neighbor_masks)):
        sides[k & 1] |= layer
    for side in sides:
        if any(g.neighbor_masks[v] & side for v in _bits(side)):
            return None
    return sides[0], sides[1]


def _side_values(g: Graph, comp: tuple[int, ...], value) -> Optional[tuple]:
    """(max, min) of ``value[v]`` over the two sides of one connected
    component's bipartition, when it is constant on each side; None
    otherwise.  An empty side counts as 0."""
    sides = _bipartition_masks(g, comp)
    if sides is None:
        return None
    pair = []
    for side in sides:
        vals = {value[v] for v in _bits(side)}
        if len(vals) > 1:
            return None
        pair.append(vals.pop() if vals else 0)
    return (max(pair), min(pair))


def is_semiregular_bipartite(g: Graph) -> Optional[tuple[int, int]]:
    """(r1, r2) with r1 >= r2 if g admits a bipartition with every part-1
    vertex of degree r1 and every part-2 vertex of degree r2.

    Every vertex takes part in the bipartition, so an isolated vertex next
    to any edge-bearing component rules the shape out (no part with
    positive constant degree can hold it); the edgeless graph is
    vacuously (0, 0)-semiregular.
    """
    if g.n == 0:
        return None
    if not g.edges:
        return (0, 0)
    if any(deg == 0 for deg in g.degrees):
        return None
    # Each component can be oriented on its own, so the global parts have
    # constant degree exactly when every component has the same sorted pair.
    # A component with no such pair adds None: either the set then holds two
    # members, or None is the one that pops.
    pairs = {_side_values(g, comp, g.degrees) for comp in g.component_vertex_sets}
    return pairs.pop() if len(pairs) == 1 else None


def is_strongly_regular(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """(n, k, lam, mu) if g is connected, k-regular, non-complete and
    nonempty, with every adjacent pair sharing lam neighbors and every
    non-adjacent pair sharing mu; verified through the exact matrix
    identity A^2 = k I + lam A + mu (J - I - A)."""
    n = g.n
    if not g.edges:
        return None
    k = is_regular(g)
    if k is None:
        return None
    if len(g.component_vertex_sets) != 1:
        return None
    if 2 * len(g.edges) == n * (n - 1):
        return None  # complete graph excluded
    a = g.adjacency()
    a2 = a @ a
    eye = np.eye(n, dtype=a.dtype)
    # Both pairs exist: g has an edge and is not complete.
    lam = int(a2[tuple(np.argwhere(a)[0])])
    mu = int(a2[tuple(np.argwhere(a + eye == 0)[0])])
    if not np.array_equal(a2, k * eye + lam * a + mu * (1 - eye - a)):
        return None
    return (n, k, lam, mu)


def _average_two_degrees(g: Graph) -> dict[int, Fraction]:
    """t_i / d_i for every non-isolated vertex, exactly."""
    degs = g.degrees
    ratios = {}
    for v in range(g.n):
        if degs[v] == 0:
            continue
        t = sum(degs[w] for w in _bits(g.neighbor_masks[v]))
        ratios[v] = Fraction(t, degs[v])
    return ratios


def is_pseudo_regular(g: Graph) -> Optional[float]:
    """The common average 2-degree t_i/d_i over non-isolated vertices,
    or None if it varies.  An edgeless graph reports 0."""
    ratios = _average_two_degrees(g)
    if not ratios:
        return 0.0
    vals = set(ratios.values())
    return float(vals.pop()) if len(vals) == 1 else None


def is_pseudo_semiregular_bipartite(g: Graph) -> Optional[tuple[float, float]]:
    """(p1, p2) with p1 >= p2 if g is bipartite with the average 2-degree
    constant on each part; None otherwise.  Isolated vertices have no
    average 2-degree and are unconstrained."""
    comps = [c for c in g.component_vertex_sets if len(c) > 1 or g.degrees[c[0]] > 0]
    if not comps:
        return None
    ratios = _average_two_degrees(g)
    pairs = {_side_values(g, comp, ratios) for comp in comps}
    pair = pairs.pop() if len(pairs) == 1 else None
    return None if pair is None else (float(pair[0]), float(pair[1]))


def _classify_equality_components(
    g: Graph, profile: ClosedWalkProfile
) -> Optional[tuple[str, tuple]]:
    """Check every edge-bearing component against the walk-ratio equality
    shape (regular with r^2 = q, or semiregular bipartite with r1 r2 = q,
    compared exactly on integers).  Returns the first component's
    classification, or None if any component fails."""
    first: Optional[tuple[str, tuple]] = None
    for comp in g.component_vertex_sets:
        if all(g.degrees[v] == 0 for v in comp):
            continue  # isolated vertices contribute nothing and always pass
        degs = {g.degrees[v] for v in comp}
        if len(degs) == 1:
            r = degs.pop()
            if r * r * profile.sum_c2_sq != profile.sum_t2_sq:
                return None
            if first is None:
                first = (KIND_R_REGULAR, (r,))
            continue
        pair = _side_values(g, comp, g.degrees)
        if pair is None:
            return None
        r1, r2 = pair
        if r1 * r2 * profile.sum_c2_sq != profile.sum_t2_sq:
            return None
        if first is None:
            first = (KIND_SEMIREGULAR_BIPARTITE, (r1, r2))
    if first is None:
        return (KIND_EMPTY, (g.n,))
    return first


def equality_verdict_rho_lower(
    d: Digraph, profile: ClosedWalkProfile, reduced: Digraph
) -> StructureVerdict:
    """Does the walk-ratio radius bound hold with equality?

    True exactly when, after removing the arcs on no cycle, the digraph is
    symmetric and every edge-bearing component of its graph is r-regular or
    (r1, r2)-semiregular bipartite with r^2 = r1 r2 = sum t2^2 / sum c2^2.
    ``profile`` is the walk profile of ``d`` and ``reduced`` its cycle-arc
    reduction (``d`` without the arcs that lie on no cycle).
    """
    removed = tuple(sorted(d.arcs - reduced.arcs))
    g = underlying_graph_if_symmetric(reduced)
    if g is None:
        return StructureVerdict(KIND_NONE, (), False, removed)
    classified = _classify_equality_components(g, profile)
    if classified is None:
        return StructureVerdict(KIND_NONE, (), False, removed)
    kind, params = classified
    return StructureVerdict(kind, params, True, removed)


def equality_verdict_energy_upper(d: Digraph) -> StructureVerdict:
    """Does the walk-ratio energy bound hold with equality?

    True exactly for symmetric digraphs of: the empty graph, the complete
    graph, a perfect matching, or a connected non-complete strongly regular
    graph (n, k, lam, mu) with lam == mu.  The moduli of its two non-Perron
    eigenvalues differ by |lam - mu|; when lam == mu, k(k - lam - 1) =
    (n - k - 1) mu makes both sqrt(k - mu) = sqrt((a - q)/(n - 1)), the
    bound's target (a = nk, q = k^2).  A connected pseudo-regular graph
    with spectrum {p, +-b} (the graph corollary) is regular, because
    A^2 = b^2 I + c d d^T forces every degree to D - (p - 1)/c, so it falls
    under the strongly regular case.
    """
    g = underlying_graph_if_symmetric(d)
    if g is None:
        return StructureVerdict(KIND_NONE, (), False)
    if not g.edges:
        return StructureVerdict(KIND_EMPTY, (g.n,), True)
    n = g.n
    if 2 * len(g.edges) == n * (n - 1):
        return StructureVerdict(KIND_COMPLETE, (n,), True)
    if all(deg == 1 for deg in g.degrees):
        return StructureVerdict(KIND_PERFECT_MATCHING_UNION, (n // 2,), True)
    srg = is_strongly_regular(g)
    if srg is not None:
        _, _, lam, mu = srg
        return StructureVerdict(KIND_STRONGLY_REGULAR, srg, lam == mu)
    return StructureVerdict(KIND_NONE, (), False)
