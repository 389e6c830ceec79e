"""Verdict operations tying a digraph to the equality characterizations of
the walk-based bounds, each decided by one integer test on adjacency
matrices that the verdicts and the verification harness share.

The radius bound sqrt(sum t2^2 / sum c2^2) is attained when, after deleting
the arcs that lie on no cycle, the digraph is the symmetric digraph of a
graph whose edge-bearing components are each pseudo-regular (t2/c2 = p on
every vertex, p^2 = q) or pseudo-semiregular bipartite (t2/c2 = p1 and p2
on the sides, p1 p2 = q), q being the walk ratio: the equality case of the
graph bound (Yu, Lu & Tian, 2004).  This departs from the paper's
"r-regular or (r1, r2)-semiregular bipartite with r^2 = r1 r2 = q", a
special case that misses P5, pseudo-semiregular with (2, 3/2).  One edge
test decides the shape (``walk_ratio_attained``): t2_i t2_j = q c2_i c2_j
on every edge.  The bound is also attained when the strong components with
a one-way arc hold no digon and have radius at most sqrt(q), as a digon
beside a directed 3-cycle; that case is not predicted yet.  The matching
energy bound is attained exactly on symmetric digraphs of: the empty
graph, the complete graph, a disjoint union of single edges covering every
vertex, or a connected non-complete strongly regular graph whose two
non-Perron eigenvalues share the modulus sqrt((a - q)/(n - 1)), that is,
one with lam = mu.  One identity decides
that family (``energy_bound_attained``): A^2 = k I + mu (J - I).  Every
fact here is decided in integers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .digraph import ClosedWalkProfile

KIND_R_REGULAR = "R_REGULAR"
KIND_SEMIREGULAR_BIPARTITE = "SEMIREGULAR_BIPARTITE"
KIND_COMPLETE = "COMPLETE"
KIND_PERFECT_MATCHING_UNION = "PERFECT_MATCHING_UNION"
KIND_STRONGLY_REGULAR = "STRONGLY_REGULAR"
KIND_EMPTY = "EMPTY"
KIND_NONE = "NONE"


class StructureVerdict(NamedTuple):
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


def walk_ratio_attained(reduced: np.ndarray, profile: ClosedWalkProfile):
    """Does the walk-ratio radius bound hold with equality, given the 0-1
    adjacency ``reduced`` of a cycle-arc reduction and the walk profile?

    True exactly when ``reduced`` is symmetric and t2_i t2_j sum c2^2 =
    c2_i c2_j sum t2^2 on each of its arcs (i, j).  A symmetric reduction
    keeps every digon, so it is the digon graph S.  Along a path
    (t2_i / c2_i)(t2_j / c2_j) = q makes vertices at even distance share
    t2/c2, so a component with an odd cycle is pseudo-regular with p^2 = q
    and any other is bipartite with sides of constant ratio p1 p2 = q: the
    equality case of rho(S) >= sqrt(q) for a graph (Yu, Lu & Tian, 2004),
    at the one q of all components.  The paper's regular or semiregular
    shape is the case of constant degrees, and its degree test
    (c2_i c2_j = q) misses P5.  Takes one ``(n, n)`` adjacency and
    profile, or a ``(K, n, n)`` stack and a stacked profile, and returns a
    bool or a ``(K,)`` mask.  The products stay below 6e14 at n = 128, so
    int64 is exact.
    """
    c2 = np.asarray(profile.c2_seq, dtype=np.int64)
    t2 = np.asarray(profile.t2_seq, dtype=np.int64)
    sum_c2_sq = np.asarray(profile.sum_c2_sq, dtype=np.int64)[..., None, None]
    sum_t2_sq = np.asarray(profile.sum_t2_sq, dtype=np.int64)[..., None, None]
    on_arc = t2[..., :, None] * t2[..., None, :] * sum_c2_sq == c2[..., :, None] * c2[..., None, :] * sum_t2_sq
    symmetric = reduced == reduced.swapaxes(-1, -2)
    return (symmetric & ((reduced == 0) | on_arc)).all(axis=(-2, -1))


def equality_verdict_rho_lower(
    adjacency: np.ndarray, profile: ClosedWalkProfile, reduced: np.ndarray
) -> StructureVerdict:
    """Does the walk-ratio radius bound hold with equality?

    ``predicted_equality`` is ``walk_ratio_attained``: after removing the
    arcs on no cycle, the digraph is symmetric and every edge-bearing
    component of its graph is pseudo-regular (t2/c2 = p on every vertex,
    p^2 = q) or pseudo-semiregular bipartite (p1 p2 = q), with
    q = sum t2^2 / sum c2^2 (Yu, Lu & Tian, 2004), in place of the paper's
    "r-regular or (r1, r2)-semiregular bipartite", which misses P5.  The
    kind and params read the degrees at the first edge: R_REGULAR (r,)
    when its ends share degree r, else SEMIREGULAR_BIPARTITE (r1, r2) with
    r1 > r2 (P5 reads (2, 1)); EMPTY (n,) when the reduction has no arc.
    On a regular or semiregular component they name its shape.
    ``adjacency`` is the digraph's 0-1 adjacency, ``profile`` its walk
    profile and ``reduced`` the 0-1 adjacency of its cycle-arc reduction
    (the digraph without the arcs that lie on no cycle).
    """
    removed = tuple(map(tuple, np.argwhere(adjacency != reduced).tolist()))
    if not walk_ratio_attained(reduced, profile):
        return StructureVerdict(KIND_NONE, (), False, removed)
    degrees = reduced.sum(axis=1).tolist()
    # Components are ordered by smallest vertex, so the first edge-bearing
    # one holds the first vertex v with an edge, and (v, u) is its first edge.
    v = next((v for v, deg in enumerate(degrees) if deg), None)
    if v is None:
        return StructureVerdict(KIND_EMPTY, (len(degrees),), True, removed)
    u = int(np.flatnonzero(reduced[v])[0])
    degs = tuple(sorted({degrees[v], degrees[u]}, reverse=True))
    kind = KIND_R_REGULAR if len(degs) == 1 else KIND_SEMIREGULAR_BIPARTITE
    return StructureVerdict(kind, degs, True, removed)


def energy_bound_attained(adjacency: np.ndarray):
    """Does the walk-ratio energy bound hold with equality, given a 0-1
    adjacency A?

    True exactly when A is symmetric and A^2 = k I + mu (J - I), that is,
    A^2 has a constant diagonal and a constant off-diagonal.  With mu = 0
    no two vertices share a neighbour, so k <= 1 and the graph is empty or
    a perfect matching.  With mu > 0 every pair shares mu neighbours, so the
    graph is connected and k-regular with lam = mu: complete (mu = n - 2)
    or strongly regular.  Takes one ``(n, n)`` adjacency or a ``(K, n, n)``
    stack and returns a bool or a ``(K,)`` mask.  The entries of A^2 are at
    most n, so int64 is exact.
    """
    return _square_identity(adjacency)[2]


def _square_identity(adjacency: np.ndarray):
    """A in int64, A^2 and ``energy_bound_attained``: the identity and the
    energy verdict's kind naming share the one product A^2."""
    a = np.asarray(adjacency, dtype=np.int64)
    a2 = a @ a
    diagonal = np.diagonal(a2, axis1=-2, axis2=-1)
    off_diagonal = a2[..., ~np.eye(a.shape[-1], dtype=bool)]
    symmetric = (a == a.swapaxes(-1, -2)).all(axis=(-2, -1))
    return a, a2, (symmetric & (diagonal == diagonal[..., :1]).all(axis=-1)
                   & (off_diagonal == off_diagonal[..., :1]).all(axis=-1))


def equality_verdict_energy_upper(adjacency: np.ndarray) -> StructureVerdict:
    """Does the walk-ratio energy bound hold with equality?

    ``predicted_equality`` is ``energy_bound_attained`` on the digraph's 0-1
    ``adjacency`` A: the digraph is the symmetric digraph of the empty
    graph, the complete graph, a perfect matching, or a connected
    non-complete strongly regular graph (n, k, lam, mu) with lam == mu.
    The moduli of its two non-Perron eigenvalues differ by |lam - mu|; when
    lam == mu, k(k - lam - 1) = (n - k - 1) mu makes both sqrt(k - mu) =
    sqrt((a - q)/(n - 1)), the bound's target (a = nk, q = k^2).  A
    connected pseudo-regular graph with spectrum {p, +-b} (the graph
    corollary) is regular, because A^2 = b^2 I + c d d^T forces every degree
    to D - (p - 1)/c, so it falls under the strongly regular case.

    The kind and params name the first shape that fits, read off A and
    A^2: NONE when the digraph is not symmetric; EMPTY (n,); COMPLETE (n,);
    PERFECT_MATCHING_UNION (n/2,) when every degree (the diagonal of A^2)
    is 1; STRONGLY_REGULAR (n, k, lam, mu) when A^2 is constant k on the
    diagonal, lam on the arcs and mu > 0 on the other pairs (mu > 0 makes
    the graph connected); NONE otherwise.
    """
    a, a2, attained = _square_identity(adjacency)
    attained = bool(attained)
    n = a.shape[-1]
    if (a != a.T).any():
        return StructureVerdict(KIND_NONE, (), attained)
    if not a.any():
        return StructureVerdict(KIND_EMPTY, (n,), attained)
    if a.sum() == n * (n - 1):
        return StructureVerdict(KIND_COMPLETE, (n,), attained)
    k = set(np.diagonal(a2).tolist())
    lam = set(a2[a == 1].tolist())
    mu = set(a2[(a == 0) & ~np.eye(n, dtype=bool)].tolist())
    if k == {1}:
        return StructureVerdict(KIND_PERFECT_MATCHING_UNION, (n // 2,), attained)
    if len(k) == len(lam) == len(mu) == 1 and min(mu) > 0:
        return StructureVerdict(KIND_STRONGLY_REGULAR, (n, *k, *lam, *mu), attained)
    return StructureVerdict(KIND_NONE, (), attained)
