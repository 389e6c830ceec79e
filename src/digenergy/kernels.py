"""The per-digraph hot kernels, on adjacency bitmask rows.

``out_masks[i]`` has bit ``j`` set iff the arc (i, j) is present.  The walk
counts and the breadth-first layers run on Python integers, at any n.  Strong
components come from reachability: the component of v is what v reaches
along ``out_masks`` that also reaches v.  The characteristic polynomial runs
its matrix recurrence in numpy on a whole block of matrices at once (the
verification harness works in blocks and hands it a block of digraphs and
their cycle-arc reductions; a lone digraph is a block of one), on int64
when a bound proves that no value can overflow and on Python integers
(``dtype=object``) otherwise, so every result is exact at any size.  It is
the one numeric layer built from the bit rows: the harness builds its QR
and symmetrization stacks from the arcs, an independent route.  Every
kernel returns plain Python ints.
"""

from __future__ import annotations

import numpy as np

# The one numeric backend, recorded by benchmark runs.
BACKEND = "pure"


def walk_counts(n: int, out_masks, in_masks):
    """Per-vertex closed-2-walk counts and their doubly-adjacent sums.

    Returns ``(c2, t2)`` where ``c2[i]`` counts vertices doubly adjacent to
    ``i`` and ``t2[i]`` sums ``c2[j]`` over those vertices.
    """
    c2 = [(out_masks[i] & in_masks[i]).bit_count() for i in range(n)]
    t2 = []
    for i in range(n):
        m = out_masks[i] & in_masks[i]
        s = 0
        while m:
            j = (m & -m).bit_length() - 1
            s += c2[j]
            m &= m - 1
        t2.append(s)
    return c2, t2


def bfs_layers(start: int, masks):
    """Breadth-first layers from ``start`` along the bitmask rows ``masks``.

    Yields bitmasks: layer k holds the vertices at distance exactly k.
    """
    seen = layer = 1 << start
    while layer:
        yield layer
        nxt = 0
        while layer:
            low = layer & -layer
            nxt |= masks[low.bit_length() - 1]
            layer ^= low
        layer = nxt & ~seen
        seen |= layer


def reach(start: int, masks) -> int:
    """Bitmask of the vertices reachable from ``start`` along ``masks``."""
    seen = 0
    for layer in bfs_layers(start, masks):
        seen |= layer
    return seen


def scc_ids(n: int, out_masks, in_masks):
    """Strongly connected components from reachability.

    The component of v is what v reaches that also reaches v.  Returns
    ``(ids, count)``; taking v as the smallest unassigned vertex orders the
    ids by smallest member vertex.
    """
    ids = [-1] * n
    count = 0
    for v in range(n):
        if ids[v] < 0:
            comp = reach(v, out_masks) & reach(v, in_masks)
            while comp:
                low = comp & -comp
                ids[low.bit_length() - 1] = count
                comp ^= low
            count += 1
    return ids, count


def charpoly_from_masks(n: int, rows):
    """Exact characteristic polynomials of a block of 0-1 adjacency matrices.

    ``rows`` holds one ``out_masks`` tuple per matrix, all of order n; the
    block is a stacked ``(K, n, n)`` array and each step of the
    Faddeev-LeVerrier recurrence ``M_1 = A``, ``c_k = -tr(M_k) / k``,
    ``M_k = A M_{k-1} + c_{k-1} A`` is one stacked matmul.  Returns, per
    row, the n+1 coefficients in ascending order (``coeffs[k]`` multiplies
    x**k; ``coeffs[n] == 1``) as plain Python ints.  The verification
    harness works in blocks and calls it once per block, on the block's
    digraphs and their cycle-arc reductions; a lone matrix is a block of
    one.  It is the only stack built from bit rows: the harness builds its
    QR and symmetrization stacks from the arcs.

    The recurrence runs on int64 and moves the whole block to Python ints
    (``dtype=object``) before any value could overflow.  With r the largest
    out-degree in the block, a row of A holds at most r ones, so every
    partial sum of ``A M + c A`` is at most r (max|M| + |c|) and every
    partial sum of its trace at most n r (max|M| + |c|), with the maxima
    over the block.  Each step needs n r (max|M_{k-1}| + max|c_{k-1}|) <
    2^63.  It tests that against the proven bound
    max|M_k| <= r (max|M_{k-1}| + max|c_{k-1}|) and, only when that bound
    is too large, against the measured max|M_{k-1}|.  A priori
    |c_k| <= C(n, k) r^k and max|M_k| <= 2^n r^k, so int64 is certain for
    n <= 12; in practice the values stay far smaller (below 2^46 on random
    digraphs and tournaments up to n = 32).
    """
    if n == 0:
        return [[1] for _ in rows]
    r = max(mask.bit_count() for masks in rows for mask in masks)
    limit = 2 ** 63 // (n * max(r, 1))
    a = _matrix_stack(n, rows)
    m = a
    bound = 1  # proven upper bound on max|M_{k-1}|
    c = [-t for t in _traces(a).tolist()]
    cs = [[1] * len(rows), c]  # cs[k][row] is the coefficient of x**(n-k)
    for k in range(2, n + 1):
        cmax = max(map(abs, c))
        if m.dtype != object and bound + cmax >= limit:
            bound = int(np.abs(m).max())
            if bound + cmax >= limit:
                a, m = a.astype(object), m.astype(object)
        m = a @ m
        m += np.array(c, dtype=m.dtype)[:, None, None] * a
        bound = r * (bound + cmax)
        c = []
        for t in _traces(m).tolist():
            q, rem = divmod(-t, k)
            assert rem == 0, "Faddeev-LeVerrier trace not divisible"
            c.append(q)
        cs.append(c)
    return [list(coeffs) for coeffs in zip(*reversed(cs))]


def _matrix_stack(n: int, rows) -> np.ndarray:
    """The ``(K, n, n)`` int64 0-1 matrices of the bitmask rows, at any n."""
    width = (n + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for masks in rows for mask in masks)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(rows), n, 8 * width)[:, :, :n].astype(np.int64)


def _mask_rows(stack: np.ndarray) -> list[tuple[int, ...]]:
    """The ``out_masks`` tuple of every matrix of a ``(K, n, n)`` 0-1 stack,
    the inverse of ``_matrix_stack``, at any n."""
    n = stack.shape[-1]
    if n == 0:
        return [()] * len(stack)
    width = (n + 7) // 8
    packed = np.packbits(stack, axis=-1, bitorder="little").tobytes()
    masks = [int.from_bytes(packed[at:at + width], "little") for at in range(0, len(packed), width)]
    return [tuple(masks[at:at + n]) for at in range(0, len(masks), n)]


def _traces(m: np.ndarray) -> np.ndarray:
    """The trace of every matrix of a ``(K, n, n)`` stack."""
    n = m.shape[-1]
    return m.reshape(len(m), n * n)[:, ::n + 1].sum(axis=1)
