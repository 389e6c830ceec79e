"""Recognizers for the structured graphs that attain the walk-based bounds,
and verdict operations tying a digraph to the equality characterizations.

The radius bound sqrt(sum t2^2 / sum c2^2) is attained exactly when, after
deleting the arcs that lie on no cycle, the digraph is the symmetric digraph
of a graph whose edge-bearing components are each r-regular or
(r1, r2)-semiregular bipartite with r^2 = r1*r2 equal to the walk ratio.
The matching energy bound is attained exactly on symmetric digraphs of:
the empty graph, the complete graph, a disjoint union of single edges
covering every vertex, or a connected non-complete strongly regular graph
whose two non-Perron eigenvalues share the modulus sqrt((a - q)/(n - 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .digraph import ClosedWalkProfile, Digraph, Graph, _bits, underlying_graph_if_symmetric

EQUALITY_TOL = 1e-7

KIND_NOT_APPLICABLE = "NOT_APPLICABLE"
KIND_R_REGULAR = "R_REGULAR"
KIND_SEMIREGULAR_BIPARTITE = "SEMIREGULAR_BIPARTITE"
KIND_COMPLETE = "COMPLETE"
KIND_PERFECT_MATCHING_UNION = "PERFECT_MATCHING_UNION"
KIND_STRONGLY_REGULAR = "STRONGLY_REGULAR"
KIND_PSEUDO_REGULAR = "PSEUDO_REGULAR"
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
    """Two-color one connected component; None if an odd cycle exists."""
    color = {}
    side = [0, 0]
    stack = [(comp[0], 0)]
    color[comp[0]] = 0
    side[0] |= 1 << comp[0]
    while stack:
        v, c = stack.pop()
        m = g.neighbor_masks[v]
        while m:
            w = (m & -m).bit_length() - 1
            m &= m - 1
            if w not in color:
                color[w] = 1 - c
                side[1 - c] |= 1 << w
                stack.append((w, 1 - c))
            elif color[w] == c:
                return None
    return side[0], side[1]


def _component_semiregular(g: Graph, comp: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """(r1, r2) with r1 >= r2 for one connected component, degrees constant
    per side of its bipartition; None otherwise."""
    sides = _bipartition_masks(g, comp)
    if sides is None:
        return None
    pair = []
    for side in sides:
        degs = {g.degrees[v] for v in _bits(side)}
        if len(degs) > 1:
            return None
        pair.append(degs.pop() if degs else 0)
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
    pairs = set()
    for comp in g.component_vertex_sets():
        pair = _component_semiregular(g, comp)
        if pair is None:
            return None
        pairs.add(pair)
    # Each component can be oriented on its own, so the global parts have
    # constant degree exactly when every component has the same sorted pair.
    return pairs.pop() if len(pairs) == 1 else None


def is_strongly_regular(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """(n, k, lam, mu) if g is connected, k-regular, non-complete and
    nonempty, with every adjacent pair sharing lam neighbors and every
    non-adjacent pair sharing mu; verified through the exact matrix
    identity A^2 = k I + lam A + mu (J - I - A)."""
    n = g.n
    if n == 0 or not g.edges:
        return None
    k = is_regular(g)
    if k is None or k == 0:
        return None
    if len(g.component_vertex_sets()) != 1:
        return None
    if 2 * len(g.edges) == n * (n - 1):
        return None  # complete graph excluded
    a = g.adjacency()
    a2 = a @ a
    lam = mu = None
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            common = int(a2[i, j])
            if a[i, j]:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    assert lam is not None and mu is not None
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
    comps = [c for c in g.component_vertex_sets() if len(c) > 1 or g.degrees[c[0]] > 0]
    if not comps:
        return None
    ratios = _average_two_degrees(g)
    per_comp = []
    for comp in comps:
        sides = _bipartition_masks(g, comp)
        if sides is None:
            return None
        pair = []
        for side in sides:
            vals = {ratios[v] for v in _bits(side)}
            if len(vals) > 1:
                return None
            pair.append(vals.pop())
        per_comp.append(tuple(pair))
    for candidate in (per_comp[0], per_comp[0][::-1]):
        if all(p == candidate or p[::-1] == candidate for p in per_comp):
            return (float(max(candidate)), float(min(candidate)))
    return None


def _classify_equality_components(
    g: Graph, profile: ClosedWalkProfile
) -> Optional[tuple[str, tuple]]:
    """Check every edge-bearing component against the walk-ratio equality
    shape (regular with r^2 = q, or semiregular bipartite with r1 r2 = q,
    compared exactly on integers).  Returns the first component's
    classification, or None if any component fails."""
    first: Optional[tuple[str, tuple]] = None
    for comp in g.component_vertex_sets():
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
        pair = _component_semiregular(g, comp)
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


def _srg_nontrivial_eigenvalues(params: tuple[int, int, int, int]) -> tuple[float, float]:
    n, k, lam, mu = params
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = disc ** 0.5
    return ((lam - mu) + root) / 2.0, ((lam - mu) - root) / 2.0


def equality_verdict_energy_upper(d: Digraph, profile: ClosedWalkProfile) -> StructureVerdict:
    """Does the walk-ratio energy bound hold with equality?

    True exactly for symmetric digraphs of: the empty graph, the complete
    graph, a perfect matching, or a connected non-complete strongly regular
    graph whose two non-Perron eigenvalues both have modulus
    sqrt((a - q)/(n - 1)); additionally (graph corollary) a connected
    non-bipartite pseudo-regular graph with exactly three distinct
    eigenvalues p and +-sqrt((2m - p^2)/(n - 1)) where p > sqrt(m/n).
    ``profile`` is the walk profile of ``d``.
    """
    if d.n == 0:
        return StructureVerdict(KIND_EMPTY, (0,), True)
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

    a = profile.a
    q = profile.sum_t2_sq / profile.sum_c2_sq if profile.sum_c2_sq else 0.0

    srg = is_strongly_regular(g)
    if srg is not None:
        target_sq = (a - q) / (n - 1)
        if target_sq >= 0:
            target = target_sq ** 0.5
            r1, r2 = _srg_nontrivial_eigenvalues(srg)
            if abs(abs(r1) - target) <= EQUALITY_TOL and abs(abs(r2) - target) <= EQUALITY_TOL:
                return StructureVerdict(KIND_STRONGLY_REGULAR, srg, True)
        return StructureVerdict(KIND_STRONGLY_REGULAR, srg, False)

    pseudo = _pseudo_regular_three_eigenvalue_case(g)
    if pseudo is not None:
        return StructureVerdict(KIND_PSEUDO_REGULAR, (pseudo,), True)
    return StructureVerdict(KIND_NONE, (), False)


def _pseudo_regular_three_eigenvalue_case(g: Graph) -> Optional[float]:
    """The graph-corollary equality shape: connected, non-bipartite,
    pseudo-regular with average 2-degree p, spectrum clustering to exactly
    the three values (p, +b, -b) with b = sqrt((2m - p^2)/(n - 1)) and
    p > sqrt(m/n)."""
    if len(g.component_vertex_sets()) != 1 or g.n < 2:
        return None
    if _bipartition_masks(g, g.component_vertex_sets()[0]) is not None:
        return None  # bipartite excluded
    p = is_pseudo_regular(g)
    if p is None:
        return None
    m = len(g.edges)
    n = g.n
    vals = np.linalg.eigvalsh(g.adjacency().astype(float))
    clusters: list[float] = []
    for v in sorted(vals, reverse=True):
        if not clusters or abs(v - clusters[-1]) > EQUALITY_TOL:
            clusters.append(float(v))
    if len(clusters) != 3:
        return None
    b_sq = (2 * m - p * p) / (n - 1)
    if b_sq < 0:
        return None
    b = b_sq ** 0.5
    if abs(clusters[0] - p) > EQUALITY_TOL:
        return None
    if abs(clusters[1] - b) > EQUALITY_TOL or abs(clusters[2] + b) > EQUALITY_TOL:
        return None
    if not p > (m / n) ** 0.5:
        return None
    return p
