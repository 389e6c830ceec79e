"""Graph and digraph builders shared across the test modules, the graph
invariants the tests take as references (neighbour masks, degrees and
connected components), and the spectrum of a lone digraph from its own
pieces."""

from itertools import combinations, product

from hypothesis import strategies as st

from digenergy import (
    Digraph,
    Graph,
    adjacency_matrix,
    characteristic_polynomial,
    eigenvalues,
    from_graph,
)
from digenergy import kernels


def neighbor_masks(g: Graph) -> tuple[int, ...]:
    """The neighbours of each vertex of g as a bitmask."""
    rows = [0] * g.n
    for i, j in g.edges:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return tuple(rows)


def degrees(g: Graph) -> tuple[int, ...]:
    return tuple(m.bit_count() for m in neighbor_masks(g))


def component_vertex_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The connected components of g, ordered by smallest member vertex."""
    nbr, seen, comps = neighbor_masks(g), 0, []
    for start in range(g.n):
        if not (seen >> start) & 1:
            comp = kernels.reach(start, nbr)
            seen |= comp
            comps.append(tuple(kernels._bits(comp)))
    return tuple(comps)


def spectrum_of(d: Digraph):
    """The certified spectrum of d from its per-digraph pieces, apart from
    any block of the harness."""
    return eigenvalues(characteristic_polynomial(d), adjacency_matrix(d))


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    return Graph(n, ())


def cycle_graph(n: int) -> Graph:
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, ((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def matching_graph(copies: int) -> Graph:
    return Graph(2 * copies, ((2 * i, 2 * i + 1) for i in range(copies)))


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, i + 5))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


def complement(g: Graph) -> Graph:
    return Graph(g.n, set(combinations(range(g.n), 2)) - set(g.edges))


def rook_graph(m: int) -> Graph:
    """K_m x K_m: cells of an m x m board, adjacent in one row or column."""
    cells = list(product(range(m), repeat=2))
    return Graph(m * m, ((i, j) for (i, a), (j, b) in combinations(enumerate(cells), 2)
                         if a[0] == b[0] or a[1] == b[1]))


def shrikhande_graph() -> Graph:
    """The Cayley graph on Z4 x Z4 with connection set +-(1,0), +-(0,1),
    +-(1,1): SRG(16, 6, 2, 2), cospectral with the 4 x 4 rook's graph."""
    cells = list(product(range(4), repeat=2))
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph(16, ((i, j) for (i, a), (j, b) in combinations(enumerate(cells), 2)
                      if ((a[0] - b[0]) % 4, (a[1] - b[1]) % 4) in steps))


def clebsch_graph() -> Graph:
    """The folded 5-cube: Z2^4, adjacent when differing in one coordinate
    or in all four; SRG(16, 5, 0, 2)."""
    return Graph(16, ((i, j) for i, j in combinations(range(16), 2)
                      if bin(i ^ j).count("1") in (1, 4)))


def triangular_graph(m: int) -> Graph:
    """T(m), the line graph of K_m: SRG(m(m-1)/2, 2(m-2), m-2, 4)."""
    pairs = list(combinations(range(m), 2))
    return Graph(len(pairs), ((i, j) for (i, a), (j, b) in combinations(enumerate(pairs), 2)
                              if set(a) & set(b)))


def paley_graph(q: int) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): x ~ y when x - y is a nonzero
    square mod q; SRG(q, (q-1)/2, (q-5)/4, (q-1)/4)."""
    squares = {x * x % q for x in range(1, q)}
    return Graph(q, ((i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares))


def sym(g: Graph) -> Digraph:
    return from_graph(g)


def directed_cycle(n: int) -> Digraph:
    return Digraph(n, (((i, (i + 1) % n)) for i in range(n)))


def directed_path(n: int) -> Digraph:
    return Digraph(n, ((i, i + 1) for i in range(n - 1)))


def all_graphs(n: int):
    """All labeled simple graphs on n vertices."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, (pairs[k] for k in range(len(pairs)) if (mask >> k) & 1))


def all_regular_graphs(n: int):
    """All labeled regular graphs on n vertices (any degree)."""
    for g in all_graphs(n):
        degs = set(degrees(g)) or {0}
        if len(degs) == 1:
            yield g


@st.composite
def graphs(draw, max_n: int = 10):
    """Hypothesis strategy: a graph on at most max_n vertices.  Half the
    draws keep only the edges across a random 2-coloring, so they are
    bipartite."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    if draw(st.booleans()):
        color = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        pairs = [(i, j) for i, j in pairs if color[i] != color[j]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)
