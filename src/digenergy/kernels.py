"""The per-digraph hot kernels, on adjacency bitmask rows.

``out_masks[i]`` has bit ``j`` set iff the arc (i, j) is present.  The walk
counts and the strong components run on Python integers, at any n.  The
characteristic polynomial runs its matrix recurrence in numpy, on int64
when a bound proves that no value can overflow and on Python integers
(``dtype=object``) otherwise, so every result is exact at any size.  Every
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


def scc_ids(n: int, out_masks):
    """Strongly connected components via iterative Tarjan.

    Returns ``(ids, count)`` with component ids renumbered so that components
    are ordered by their smallest member vertex.
    """
    UNSET = -1
    index = [UNSET] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [UNSET] * n
    stack: list[int] = []
    counter = 0
    n_comps = 0

    for root in range(n):
        if index[root] != UNSET:
            continue
        # Frame: (vertex, remaining-successor mask).
        frames = [(root, out_masks[root])]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while frames:
            v, rem = frames[-1]
            if rem:
                w = (rem & -rem).bit_length() - 1
                frames[-1] = (v, rem & (rem - 1))
                if index[w] == UNSET:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    frames.append((w, out_masks[w]))
                elif on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            else:
                frames.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = n_comps
                        if w == v:
                            break
                    n_comps += 1
                if frames:
                    u = frames[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]

    # Renumber so ids follow the smallest contained vertex.
    remap = [UNSET] * n_comps
    next_id = 0
    for v in range(n):
        if remap[comp[v]] == UNSET:
            remap[comp[v]] = next_id
            next_id += 1
    return [remap[comp[v]] for v in range(n)], n_comps


def charpoly_from_masks(n: int, out_masks):
    """Exact characteristic polynomial of the 0-1 adjacency matrix.

    Faddeev-LeVerrier: ``M_1 = A``, ``c_k = -tr(M_k) / k`` and
    ``M_k = A (M_{k-1} + c_{k-1} I)``.  Returns the n+1 coefficients in
    ascending order (``coeffs[k]`` multiplies x**k; ``coeffs[n] == 1``) as
    plain Python ints.

    The recurrence runs on int64 and moves to Python ints
    (``dtype=object``) before any value could overflow.  With r the largest
    out-degree, a row of A holds at most r ones, so every partial sum of
    ``A T`` is at most r max|T| and every partial sum of its trace at most
    n r max|T|, where max|T| <= max|M_{k-1}| + |c_{k-1}|.  Each step needs
    n r max|T| < 2^63.  It tests that against the proven bound
    max|M_k| <= r (max|M_{k-1}| + |c_{k-1}|) and, only when that bound is
    too large, against the measured max|M_{k-1}|.  A priori
    |c_k| <= C(n, k) r^k and max|M_k| <= 2^n r^k, so int64 is certain for
    n <= 12; in practice the values stay far smaller (below 2^46 on random
    digraphs and tournaments up to n = 32).
    """
    if n == 0:
        return [1]
    r = max(mask.bit_count() for mask in out_masks)
    limit = 2 ** 63 // (n * max(r, 1))
    a = np.array([[(out_masks[i] >> j) & 1 for j in range(n)] for i in range(n)], dtype=np.int64)
    diag = np.arange(n)
    m = a
    bound = 1  # proven upper bound on max|M_{k-1}|
    cs = [1, -int(a.trace())]  # cs[k] is the coefficient of x**(n-k)
    for k in range(2, n + 1):
        c = cs[k - 1]
        if m.dtype != object and bound + abs(c) >= limit:
            bound = int(np.abs(m).max())
            if bound + abs(c) >= limit:
                a, m = a.astype(object), m.astype(object)
        t = m.copy()
        t[diag, diag] += c
        m = a @ t
        bound = r * (bound + abs(c))
        q, rem = divmod(-int(m.trace()), k)
        assert rem == 0, "Faddeev-LeVerrier trace not divisible"
        cs.append(q)
    return cs[::-1]
