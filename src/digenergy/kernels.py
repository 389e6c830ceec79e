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

The exact polynomial layer lives here too, beside the charpoly it reads:
integer polynomials as ascending coefficient tuples, Yun's square-free
decomposition over Z (``_yun``, on primitive pseudo-remainders) and the
square-free certificate over Z/P, P = 2^31 - 1, that spares most
polynomials Yun.  ``square_free_decompositions`` takes a block's new
polynomials in one stacked Euclid on a ``(K, n+1)`` int64 array of
residues (``_coprime_to_derivative_mod_p``); only a row that fails runs
Yun.  The floating work on these polynomials is in ``spectrum``.

The walk counts and the strong components run on Python integers, one
digraph at a time, at any n.  The harness computes both as stacked arrays
instead; these are the reference routes (``walk_profile`` and
``cycle_arc_reduction``) that the tests compare the stacked pieces with.
Strong components come from reachability: the component of v is what v
reaches along ``out_masks`` that also reaches v.  Every kernel returns
plain Python ints, and the certificate a bool array.
"""

from __future__ import annotations

import math
from typing import Sequence

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



# --- exact polynomial arithmetic over Z and Z/P -------------------------------

# The prime modulus of the square-free certificate (a Mersenne prime): every
# residue lies below 2^31, so the product of two fits in int64.
_PRIME = 2 ** 31 - 1


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deriv(p: Sequence[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with lc(b)^e * a = q * b + r, e = max(0, deg a - deg b + 1)
    and deg r < deg b; plain exact division when b is monic and divides a."""
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lead, db = b[-1], len(b) - 1
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + db]
        if lead != 1:
            a = [lead * c for c in a]
            q = [lead * c for c in q]
        q[k] = coeff
        if coeff:
            for j in range(db):
                a[k + j] -= coeff * b[j]
    return _trim(q), _trim(a[:db])


def _monic_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd(a, b) of integer polynomials whose gcd divides a monic one.

    The last term of the primitive pseudo-remainder sequence (Brown &
    Traub, 1971), made positive: a primitive divisor of a monic integer
    polynomial has leading coefficient +-1 (Gauss's lemma).  Each divisor is
    made primitive before it divides, which keeps the coefficients from
    growing exponentially along the sequence.
    """
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        content = math.gcd(*b)
        b = [c // content for c in b]
        a, b = b, _pseudo_divmod(a, b)[1]
    return a if a[-1] > 0 else [-c for c in a]


def _yun(coeffs: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The square-free decomposition of a monic integer polynomial of
    degree >= 1 by Yun's algorithm over the integers.

    Every gcd Yun takes divides the monic p, so by Gauss's lemma it is a
    monic integer polynomial (``_monic_gcd``), and every division is by a
    monic divisor and exact in integers, p'/gcd(p, p') included.
    """
    # Step 0 divides out g = gcd(p, p'); step m >= 1 finds the factor of
    # multiplicity m.
    b, d = list(coeffs), _deriv(coeffs)
    out = []
    mult = 0
    while len(b) > 1:
        a = _monic_gcd(b, d)
        if mult and len(a) > 1:
            out.append((tuple(a), mult))
        b, c = _pseudo_divmod(b, a)[0], _pseudo_divmod(d, a)[0]
        db = _deriv(b)
        d = _trim([x - y for x, y in zip(c + [0] * len(db), db + [0] * len(c))])
        mult += 1
    return out


def _zero_roots(coeffs: Sequence[int]) -> int:
    """The multiplicity of the root 0: the number of low zero coefficients."""
    return next(k for k, c in enumerate(coeffs) if c)


def _coprime_to_derivative_mod_p(a: np.ndarray, degree: np.ndarray) -> np.ndarray:
    """Whether gcd(f mod P, f' mod P) is a nonzero constant, P = 2^31 - 1,
    for each row f of the ``(K, w)`` int64 residues ``a``: coefficients
    descending from the leading one in column 0, zeros after column
    ``degree[row]``, a degree below P.

    Euclid's algorithm over Z/P on every row at once, free of inverses.
    Each row holds a pair (A, B), first (f, f'), with lc(B) != 0.  A step
    swaps the rows whose A has a nonzero lead and a lower degree than B,
    then replaces every A by lc(B) A - lc(A) x^(deg A - deg B) B, whose
    vanished lead it shifts out: one step of the division of A by B, up to
    the unit lc(B), or the stripping of a zero lead.  Each step lowers
    deg A + deg B by one from 2 deg f - 1, so after 2 deg f steps A is zero
    and B is the gcd up to a unit; a finished row stays as it is.  f is
    coprime to f' iff deg B <= 0 (deg B = -1 only for the constant f).
    """
    a = a.copy()
    b = a * np.maximum(degree[:, None] - np.arange(a.shape[1]), 0) % _PRIME
    da, db = degree.copy(), degree - 1
    for _ in range(2 * int(degree.max())):
        swap = (da < db) & (a[:, 0] != 0)
        if swap.any():
            at = swap[:, None]
            a, b = np.where(at, b, a), np.where(at, a, b)
            da, db = np.where(swap, db, da), np.where(swap, da, db)
        tail = b[:, :1] * a[:, 1:]
        tail -= a[:, :1] * b[:, 1:]
        a[:, :-1] = tail % _PRIME
        a[:, -1] = 0
        da -= 1
    return db <= 0


def square_free_certificates(polys: Sequence[Sequence[int]]) -> np.ndarray:
    """Whether each monic integer polynomial p (ascending coefficients) is
    certified square-free by a trivial gcd(p, p') modulo the prime
    P = 2^31 - 1, all in one stacked Euclid (``_coprime_to_derivative_mod_p``).

    A pass proves p square-free: a repeated factor f^2 of p can be taken
    monic and integral (Gauss's lemma), so it stays a repeated factor of the
    same degree mod P and divides p' mod P.  A fail means a repeated root,
    or P dividing the discriminant.  For p = x^k q with k >= 2 and
    q(0) != 0, x divides p and p' mod P, so p always fails and q is
    certified instead: when q passes, it is square-free and coprime to x.
    """
    width = max(map(len, polys))
    a = np.array([[c % _PRIME for c in reversed(p)] + [0] * (width - len(p)) for p in polys],
                 dtype=np.int64)
    shifts = [_zero_roots(p) for p in polys]
    degree = np.array([len(p) - 1 - (k if k >= 2 else 0) for p, k in zip(polys, shifts)], dtype=np.int64)
    return _coprime_to_derivative_mod_p(a, degree)


def square_free_decompositions(polys: Sequence[tuple[int, ...]]) -> list[list[tuple[tuple[int, ...], int]]]:
    """The square-free decomposition of each monic integer polynomial
    (ascending coefficients): p = product of factor**multiplicity, every
    factor square-free and monic, multiplicities ascending.

    One stacked certificate (``square_free_certificates``) takes every
    polynomial; only one that fails it runs Yun (``_yun``).  A certified p
    is its own decomposition, and a certified cofactor q of p = x^k q,
    k >= 2, gives [(q, 1), (x, k)], or [(x, k)] for q = 1.  On the
    polynomials of 200 random n = 10 digraphs the certificate takes about
    2 ms, against 10 to 17 ms for a per-polynomial Python Euclid; Yun's
    integer gcd(p, p') costs about 3.4 ms at n = 32 and 171 ms at n = 64.
    """
    out = []
    for p, certified in zip(polys, square_free_certificates(polys).tolist()):
        k = _zero_roots(p)
        if not certified:
            out.append(_yun(p))
        elif k >= 2:
            out.append(([(p[k:], 1)] if len(p) > k + 1 else []) + [((0, 1), k)])
        else:
            out.append([(p, 1)])
    return out
