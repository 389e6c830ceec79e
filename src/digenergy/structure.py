"""Recognizers for the structured graphs that attain the walk-based bounds,
and verdict operations tying a digraph to the equality characterizations.

The radius bound sqrt(sum t2^2 / sum c2^2) is attained exactly when, after
deleting the arcs that lie on no cycle, the digraph is the symmetric digraph
of a graph whose edge-bearing components are each r-regular or
(r1, r2)-semiregular bipartite with r^2 = r1*r2 equal to the walk ratio q.
One edge test decides that shape (``walk_ratio_attained``): c2_i c2_j = q
on every edge.  The matching energy bound is attained exactly on symmetric
digraphs of: the empty graph, the complete graph, a disjoint union of
single edges covering every vertex, or a connected non-complete strongly
regular graph whose two non-Perron eigenvalues share the modulus
sqrt((a - q)/(n - 1)), that is, one with lam = mu.  Every fact here is
decided in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .digraph import ClosedWalkProfile, Digraph, Graph, adjacency_matrix, underlying_graph_if_symmetric

KIND_R_REGULAR = "R_REGULAR"
KIND_SEMIREGULAR_BIPARTITE = "SEMIREGULAR_BIPARTITE"
KIND_COMPLETE = "COMPLETE"
KIND_PERFECT_MATCHING_UNION = "PERFECT_MATCHING_UNION"
KIND_STRONGLY_REGULAR = "STRONGLY_REGULAR"
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


def walk_ratio_attained(reduced: np.ndarray, profile: ClosedWalkProfile):
    """Does the walk-ratio radius bound hold with equality, given the 0-1
    adjacency ``reduced`` of a cycle-arc reduction and the walk profile?

    True exactly when ``reduced`` is symmetric and c2_i c2_j sum c2^2 =
    sum t2^2 on each of its arcs (i, j).  Along a path c2_i c2_j = q makes
    vertices at even distance share a value, so a component with an odd
    cycle is r-regular with r^2 = q and any other is bipartite with sides
    of constant degree r1 r2 = q; a symmetric reduction keeps every digon,
    so its degrees are c2.  Takes one ``(n, n)`` adjacency and profile, or
    a ``(K, n, n)`` stack and a stacked profile, and returns a bool or a
    ``(K,)`` mask.  The products stay below 3.4e10 at n = 128, so int64 is
    exact.
    """
    c2 = np.asarray(profile.c2_seq, dtype=np.int64)
    sum_c2_sq = np.asarray(profile.sum_c2_sq, dtype=np.int64)[..., None, None]
    sum_t2_sq = np.asarray(profile.sum_t2_sq, dtype=np.int64)[..., None, None]
    on_arc = c2[..., :, None] * c2[..., None, :] * sum_c2_sq == sum_t2_sq
    symmetric = reduced == reduced.swapaxes(-1, -2)
    return (symmetric & ((reduced == 0) | on_arc)).all(axis=(-2, -1))


def equality_verdict_rho_lower(
    d: Digraph, profile: ClosedWalkProfile, reduced: Digraph
) -> StructureVerdict:
    """Does the walk-ratio radius bound hold with equality?

    ``predicted_equality`` is ``walk_ratio_attained``: after removing the
    arcs on no cycle, the digraph is symmetric and every edge-bearing
    component of its graph is r-regular or (r1, r2)-semiregular bipartite
    with r^2 = r1 r2 = sum t2^2 / sum c2^2.  The kind and params name the
    first edge-bearing component: R_REGULAR (r,), or SEMIREGULAR_BIPARTITE
    (r1, r2) with r1 > r2; EMPTY (n,) when the reduction has no arc.
    ``profile`` is the walk profile of ``d`` and ``reduced`` its cycle-arc
    reduction (``d`` without the arcs that lie on no cycle).
    """
    removed = tuple(sorted(d.arcs - reduced.arcs))
    if not walk_ratio_attained(adjacency_matrix(reduced), profile):
        return StructureVerdict(KIND_NONE, (), False, removed)
    g = underlying_graph_if_symmetric(reduced)
    for comp in g.component_vertex_sets:
        if len(comp) > 1:
            # The edge test leaves one degree (regular) or two (the sides).
            degs = tuple(sorted({g.degrees[v] for v in comp}, reverse=True))
            kind = KIND_R_REGULAR if len(degs) == 1 else KIND_SEMIREGULAR_BIPARTITE
            return StructureVerdict(kind, degs, True, removed)
    return StructureVerdict(KIND_EMPTY, (g.n,), True, removed)


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
