"""Integer kernels on adjacency bitmask rows and adjacency stacks.

``out_masks[i]`` has bit ``j`` set iff the arc (i, j) is present.  The
characteristic polynomial is the kernel that the verification harness and
``analyze`` call: it runs its matrix recurrence in numpy on a whole
``(K, n, n)`` stack of 0-1 matrices at once (the harness hands it the stack
of a block's digraphs and of their cycle-arc reductions; a lone digraph is
a block of one), on int64 while the values measured at a step leave room
for the next and on Python integers (``dtype=object``) from then on, so
every result is exact at any size.  ``_matrix_stack`` packs bit rows into
such a stack once; the harness builds its QR and symmetrization stacks
from the arcs, an independent route.  The kernel keeps the name
``charpoly_from_masks`` from when it took bit rows itself, because
benchmark traces name it.

The walk counts and the strong components run on Python integers, one
digraph at a time, at any n.  The harness computes both as stacked arrays
instead; these are the reference routes (``walk_profile`` and
``cycle_arc_reduction``) that the tests compare the stacked pieces with.
Strong components come from reachability: the component of v is what v
reaches along ``out_masks`` that also reaches v.  Every kernel returns
plain Python ints.
"""

from __future__ import annotations

import numpy as np

# The one numeric backend, recorded by benchmark runs.
BACKEND = "pure"


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def walk_counts(n: int, out_masks, in_masks):
    """Per-vertex closed-2-walk counts and their doubly-adjacent sums.

    Returns ``(c2, t2)`` where ``c2[i]`` counts vertices doubly adjacent to
    ``i`` and ``t2[i]`` sums ``c2[j]`` over those vertices.
    """
    c2 = [(out_masks[i] & in_masks[i]).bit_count() for i in range(n)]
    t2 = [sum(c2[j] for j in _bits(out_masks[i] & in_masks[i])) for i in range(n)]
    return c2, t2


def reach(start: int, masks) -> int:
    """Bitmask of the vertices reachable from ``start`` along the bitmask
    rows ``masks``, one breadth-first layer at a time."""
    seen = layer = 1 << start
    while layer:
        nxt = 0
        for j in _bits(layer):
            nxt |= masks[j]
        layer = nxt & ~seen
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
            for j in _bits(reach(v, out_masks) & reach(v, in_masks)):
                ids[j] = count
            count += 1
    return ids, count


def charpoly_from_masks(a: np.ndarray):
    """Exact characteristic polynomials of a block of 0-1 adjacency matrices.

    ``a`` is a ``(K, n, n)`` 0-1 int64 stack (``_matrix_stack`` builds one
    from bit rows), and each step of the Faddeev-LeVerrier recurrence
    ``M_0 = 0``, ``c_0 = 1``, ``M_k = A M_{k-1} + c_{k-1} A``,
    ``c_k = -tr(M_k) / k`` is one stacked matmul and one exact array
    division.  Returns, per matrix, the n+1 coefficients in ascending order
    (``coeffs[k]`` multiplies x**k; ``coeffs[n] == 1``) as plain Python
    ints.  The verification harness works in blocks and calls it once per
    block, on the stack of the block's digraphs and of the reductions that
    drop an arc; a lone matrix is a block of one.  The name is kept from
    when it took bit rows, since benchmark traces name it.

    The recurrence runs on int64 and moves the whole block to Python ints
    (``dtype=object``) before any value could overflow.  With r the largest
    out-degree in the block, a row of A holds at most r ones, so every
    partial sum of a step's products and of its trace is at most
    n r (max|M_{k-1}| + max|c_{k-1}|), with the maxima measured over the
    block; the step runs on int64 while that is below 2^63.  In practice
    the values stay far below it (under 2^46 on random digraphs and
    tournaments up to n = 32).
    """
    n = a.shape[-1]
    limit = 2 ** 63 // max(n * int(a.sum(axis=2).max(initial=0)), 1)
    m = np.zeros_like(a)
    c = np.ones(len(a), dtype=np.int64)
    cs = [c]  # cs[k][row] is the coefficient of x**(n-k)
    for k in range(1, n + 1):
        if m.dtype != object and int(abs(m).max(initial=0)) + int(abs(c).max(initial=0)) >= limit:
            a, m, c = a.astype(object), m.astype(object), c.astype(object)
        m = a @ m
        m += c[:, None, None] * a
        t = _traces(m)
        c = -t // k
        assert not (t % k).any(), "Faddeev-LeVerrier trace not divisible"
        cs.append(c)
    return np.stack(cs[::-1], axis=1).tolist()


def _matrix_stack(n: int, rows) -> np.ndarray:
    """The ``(K, n, n)`` int64 0-1 matrices of the bitmask rows, at any n."""
    width = (n + 7) // 8
    packed = b"".join(mask.to_bytes(width, "little") for masks in rows for mask in masks)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(rows), n, 8 * width)[:, :, :n].astype(np.int64)


def _traces(m: np.ndarray) -> np.ndarray:
    """The trace of every matrix of a ``(K, n, n)`` stack."""
    n = m.shape[-1]
    return m.reshape(len(m), n * n)[:, ::n + 1].sum(axis=1)
