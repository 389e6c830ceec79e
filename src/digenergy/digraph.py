"""Digraph and graph models, edge-list I/O, walk counts, and reductions.

Vertices are dense 0-based integers.  Digraphs have no loops and no multiple
arcs; a graph is identified with the symmetric digraph obtained by replacing
each edge with the two opposite arcs.  All types are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence

import numpy as np

from . import kernels
from .errors import DigraphValidationError, EdgeListParseError

# Largest vertex count that parsing and random generation accept.  Analyzing
# a random digraph of this order with p = 0.4 takes about 22 s on a 2-vCPU
# x86_64 host; past it the residual gate's (1 + rho)^n overflows (n = 192),
# and a header such as 100000 would allocate gigabytes before any arc is read.
MAX_VERTICES = 128


def _integers(n, pairs: Iterable[tuple[int, int]]) -> tuple[int, frozenset[tuple[int, int]]]:
    """``n`` and the pairs of vertex labels, each number read with
    ``operator.index`` as a plain int, so that a float or a string is
    rejected and not truncated or parsed, and a bool or a numpy integer
    is stored as the int it stands for."""
    index = operator.index
    try:
        return index(n), frozenset((index(i), index(j)) for i, j in pairs)
    except TypeError as exc:
        raise DigraphValidationError(f"the vertex count and labels must be integers: {exc}") from None


@dataclass(frozen=True)
class Digraph:
    """A digraph on vertices 0..n-1: no loops, no multiple arcs."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        n, arcs = _integers(n, arcs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        self._validate()

    def _validate(self) -> None:
        if self.n < 0:
            raise DigraphValidationError(f"vertex count must be a non-negative integer, got {self.n!r}")
        for i, j in self.arcs:
            if i == j:
                raise DigraphValidationError(f"loop ({i},{i}) is not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise DigraphValidationError(f"arc ({i},{j}) out of range for n={self.n}")

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @cached_property
    def sorted_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.arcs))

    @cached_property
    def out_masks(self) -> tuple[int, ...]:
        """Bit j of entry i is set iff (i, j) is an arc."""
        rows = [0] * self.n
        for i, j in self.arcs:
            rows[i] |= 1 << j
        return tuple(rows)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        rows = [0] * self.n
        for i, j in self.arcs:
            rows[j] |= 1 << i
        return tuple(rows)


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph; edges stored as (i, j) with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n, edges = _integers(n, edges)
        object.__setattr__(self, "n", n)
        norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
        object.__setattr__(self, "edges", norm)
        if n < 0:
            raise DigraphValidationError(f"vertex count must be non-negative, got {n}")
        for i, j in norm:
            if i == j:
                raise DigraphValidationError(f"loop ({i},{i}) is not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise DigraphValidationError(f"edge ({i},{j}) out of range for n={n}")


@dataclass(frozen=True)
class ClosedWalkProfile:
    """Per-vertex closed-2-walk data and its exact integer aggregates.

    ``c2_seq[i]`` counts the vertices doubly adjacent to i (equivalently the
    closed walks of length 2 through i); ``t2_seq[i]`` sums ``c2_seq[j]``
    over those vertices.  A block of K digraphs stacks its profiles into
    one: the sequences as ``(K, n)`` arrays and the aggregates as ``(K,)``
    arrays, which the bound functions take as they take one profile.
    """

    c2_seq: tuple[int, ...]
    t2_seq: tuple[int, ...]
    a: int
    c2_total: int
    sum_c2_sq: int
    sum_t2_sq: int

    @property
    def n(self) -> int:
        return np.shape(self.c2_seq)[-1]


@dataclass(frozen=True)
class SccPartition:
    """Strong components as dense ids, ordered by smallest member vertex."""

    component_id: tuple[int, ...]
    component_count: int


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(token: str):
    """The exact value of an ASCII decimal token ``-?[0-9]+``, or None for
    any other token: ``int`` alone also reads ``+3``, ``1_0`` and
    non-ASCII digits.  A token longer than ``int`` converts reads as a
    ``Decimal``."""
    if _DECIMAL.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # past the digit limit of int(); rare, so imported here
            from decimal import Decimal
            return Decimal(token)
    return None


def parse_edge_list(text: str) -> Digraph:
    """Parse the edge-list format: a line with n, then one ``i j`` per arc,
    each number an ASCII decimal ``-?[0-9]+``.

    ``#`` starts a comment, blank lines are ignored, duplicate arc lines
    collapse.  Raises EdgeListParseError (with line number) on malformed
    input or a vertex count above ``MAX_VERTICES``, checked on the header
    line before any arc is read, and DigraphValidationError on loops or
    out-of-range vertices.
    """
    n: Optional[int] = None
    arcs: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise EdgeListParseError("expected a single vertex count", lineno)
            n = _decimal(tokens[0])
            if n is None:
                raise EdgeListParseError(f"vertex count is not an integer: {tokens[0]!r}", lineno)
            if n < 0:
                raise EdgeListParseError(f"vertex count must be non-negative, got {n}", lineno)
            if n > MAX_VERTICES:
                raise EdgeListParseError(f"vertex count {n} exceeds the cap of {MAX_VERTICES}", lineno)
            n = int(n)
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(f"expected 'i j', got {line!r}", lineno)
        i, j = map(_decimal, tokens)
        if i is None or j is None:
            raise EdgeListParseError(f"non-integer vertex in {line!r}", lineno)
        if i == j:
            raise DigraphValidationError(f"line {lineno}: loop ({i},{i}) is not allowed")
        if not (0 <= i < n and 0 <= j < n):
            raise DigraphValidationError(f"line {lineno}: arc ({i},{j}) out of range for n={n}")
        arcs.add((int(i), int(j)))
    if n is None:
        raise EdgeListParseError("empty input: no vertex count line", 1)
    return Digraph(n, arcs)


def serialize_edge_list(d: Digraph) -> str:
    """Inverse of parse_edge_list: n, then arcs in lexicographic order."""
    lines = [str(d.n)]
    lines.extend(f"{i} {j}" for i, j in d.sorted_arcs)
    return "\n".join(lines) + "\n"


def adjacency_matrix(d: Digraph) -> np.ndarray:
    """0-1 adjacency matrix with zero diagonal; entry (i,j)=1 iff (i,j) is an arc."""
    return adjacency_matrices([d])[0]


def adjacency_matrices(digraphs: Sequence[Digraph]) -> np.ndarray:
    """The adjacency matrices of digraphs of one order n, from their arcs,
    stacked as one ``(K, n, n)`` int64 array."""
    orders = {d.n for d in digraphs}
    if len(orders) > 1:
        raise ValueError(f"digraphs of one order expected, got orders {sorted(orders)}")
    n = orders.pop() if orders else 0
    counts = [len(d.arcs) for d in digraphs]
    ends = np.fromiter(chain.from_iterable(chain.from_iterable(d.arcs for d in digraphs)), dtype=np.intp,
                       count=2 * sum(counts)).reshape(-1, 2)
    owner = np.repeat(np.arange(len(digraphs)), counts)
    a = np.zeros(len(digraphs) * n * n, dtype=np.int64)
    a[(owner * n + ends[:, 0]) * n + ends[:, 1]] = 1  # one flat index per arc
    return a.reshape(len(digraphs), n, n)


def geometric_symmetrization(m: np.ndarray) -> np.ndarray:
    """Entrywise sqrt(m_ij * m_ji) of a square matrix, or of every matrix of
    a ``(K, n, n)`` stack; symmetric, and 0-1 for 0-1 input."""
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    prod = m * m.swapaxes(-1, -2)
    if np.issubdtype(prod.dtype, np.integer) and prod.max(initial=0) <= 1:
        return prod
    return np.sqrt(prod.astype(float))


def walk_profile(d: Digraph) -> ClosedWalkProfile:
    """Closed-2-walk sequences and their exact aggregates.

    ``c2_seq`` equals the row sums of the geometric symmetrization of the
    adjacency matrix, and ``t2_seq`` equals that matrix applied to
    ``c2_seq``; the sequence totals satisfy sum(t2) == sum(c2**2).
    """
    c2, t2 = kernels.walk_counts(d.n, d.out_masks, d.in_masks)
    return ClosedWalkProfile(
        c2_seq=tuple(c2),
        t2_seq=tuple(t2),
        a=d.arc_count,
        c2_total=sum(c2),
        sum_c2_sq=sum(c * c for c in c2),
        sum_t2_sq=sum(t * t for t in t2),
    )


def strongly_connected_components(d: Digraph) -> SccPartition:
    ids, count = kernels.scc_ids(d.n, d.out_masks, d.in_masks)
    return SccPartition(component_id=tuple(ids), component_count=count)


def cycle_arc_reduction(d: Digraph) -> Digraph:
    """Delete every arc that lies on no directed cycle.

    An arc lies on a directed cycle iff both endpoints share a strong
    component, so this keeps exactly the intra-component arcs.  The result
    has the same geometric symmetrization and the same characteristic
    polynomial as the input.  A digraph that keeps every arc is returned
    itself.
    """
    cid = strongly_connected_components(d).component_id
    kept = [arc for arc in d.arcs if cid[arc[0]] == cid[arc[1]]]
    return d if len(kept) == len(d.arcs) else Digraph(d.n, kept)


def from_graph(g: Graph) -> Digraph:
    """The symmetric digraph of g: each edge becomes two opposite arcs."""
    arcs = []
    for i, j in g.edges:
        arcs.append((i, j))
        arcs.append((j, i))
    return Digraph(g.n, arcs)
