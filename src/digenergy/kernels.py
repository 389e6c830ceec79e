"""Integer kernels on adjacency bitmask rows and adjacency stacks.

``out_masks[i]`` has bit ``j`` set iff the arc (i, j) is present.  The
characteristic polynomial is the kernel that the verification harness and
``analyze`` call: it runs its matrix recurrence in numpy on a whole
``(K, n, n)`` stack of 0-1 matrices at once (the harness hands it the stack
of a block's digraphs and of their cycle-arc reductions; a lone digraph is
a block of one), on float64 BLAS products, exact on the integers up to
``FLOAT64_MAX_ORDER`` and on their residues modulo primes above it, so
every result is exact at any size.  It returns the coefficients as one
``(K, n+1)`` array, which the harness dedupes into its table of distinct
polynomials without a tuple per row.  The harness computes the stack of
its corpus from the corpus's own arithmetic (``oracle``); a block built
from digraphs, such as a lone ``analyze``, takes its stack from
``digraph.adjacency_matrices``, the one builder from arcs.  The kernel keeps the name ``charpoly_from_masks`` from when it took
bit rows itself, because benchmark traces name it.

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

# The largest order at which no 0-1 matrix, loops included, can take the
# charpoly recurrence past 2^53, where float64 stops holding every integer:
# the bound recurrence of tests/test_spectrum.py first reaches it at n = 14.
FLOAT64_MAX_ORDER = 13

# The prime modulus of the square-free certificate (a Mersenne prime): every
# residue lies below 2^31, so the product of two fits in int64.
_PRIME = 2 ** 31 - 1

# The moduli of the charpoly recurrence above FLOAT64_MAX_ORDER, the largest
# primes below 2^31: 12 cover every order up to 128, and a 13th checks them.
_PRIMES = (_PRIME, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543,
           2147483497, 2147483489, 2147483477, 2147483423, 2147483399, 2147483353)


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def walk_counts(out_masks, in_masks):
    """Per-vertex closed-2-walk counts and their doubly-adjacent sums.

    Returns ``(c2, t2)`` where ``c2[i]`` counts vertices doubly adjacent to
    ``i`` and ``t2[i]`` sums ``c2[j]`` over those vertices.
    """
    c2 = [(out & into).bit_count() for out, into in zip(out_masks, in_masks)]
    t2 = [sum(c2[j] for j in _bits(out & into)) for out, into in zip(out_masks, in_masks)]
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


def scc_ids(out_masks, in_masks):
    """Strongly connected components from reachability.

    The component of v is what v reaches that also reaches v.  Returns
    ``(ids, count)``; taking v as the smallest unassigned vertex orders the
    ids by smallest member vertex.
    """
    ids = [-1] * len(out_masks)
    count = 0
    for v in range(len(ids)):
        if ids[v] < 0:
            for j in _bits(reach(v, out_masks) & reach(v, in_masks)):
                ids[j] = count
            count += 1
    return ids, count


def charpoly_from_masks(a: np.ndarray) -> np.ndarray:
    """Exact characteristic polynomials of a block of 0-1 adjacency matrices.

    ``a`` is a ``(K, n, n)`` 0-1 int64 stack, and each step of the
    Faddeev-LeVerrier recurrence ``M_0 = 0``, ``c_0 = 1``,
    ``M_k = A (M_{k-1} + c_{k-1} I)``, ``c_k = -tr(M_k) / k`` is one
    diagonal add, one stacked float64 matmul and one division of the
    traces.  Returns a ``(K, n+1)`` array, one row of coefficients per
    matrix in ascending order (``row[k]`` multiplies x**k; ``row[n] == 1``):
    int64 up to ``FLOAT64_MAX_ORDER``, else ``dtype=object`` holding plain
    Python ints; a lone matrix is a block of one.  The name is kept from
    when it took bit rows, since benchmark traces name it.

    The order alone picks the route.  Up to ``FLOAT64_MAX_ORDER`` the
    recurrence runs on the integers, every partial sum below 2^53 (a test
    replays the bound), and the division by k is asserted exact.  Above
    it, it runs modulo each of ``_crt_primes(n)``, a member's matrices of
    every prime side by side in one matmul; an entry stays below
    n 2^32 <= 2^39, so ``m - p floor(m / p)`` reduces it exactly.  It divides
    by k through k^-1 mod p, and ``_garner`` combines the residues.  BLAS
    must sum each entry's n products plainly, as OpenBLAS and MKL gemm do,
    and not by Strassen's method.
    """
    n = a.shape[-1]
    primes = _crt_primes(n) if n > FLOAT64_MAX_ORDER else ()
    q = np.array(primes, dtype=np.int64)
    inverses = np.array([[pow(k, -1, p) for p in primes] for k in range(1, n + 1)]) if primes else None
    a = a.astype(np.float64)
    m = np.zeros((len(a), n, len(primes) or 1, n))  # a member's M of each prime side by side
    c = np.ones((len(a), m.shape[2]), dtype=np.int64)
    cs = [c]  # cs[k][row, prime] is the coefficient of x**(n-k), or its residue
    for k in range(1, n + 1):
        diagonal = np.einsum("kipi->kpi", m)  # a writeable view of every diagonal
        diagonal += c[..., None]
        m = (a @ m.reshape(len(a), n, -1)).reshape(m.shape)
        t = np.einsum("kipi->kpi", m).astype(np.int64).sum(axis=2)
        if primes:
            m -= q[:, None] * np.floor(m / q[:, None])
            c = -t % q * inverses[k - 1] % q
        else:
            c = -t // k
            assert not (t % k).any(), "Faddeev-LeVerrier trace not divisible"
        cs.append(c)
    coeffs = np.stack(cs[::-1], axis=2)
    return _garner(coeffs.transpose(1, 0, 2), primes) if primes else coeffs[:, 0]


def _crt_primes(n: int) -> tuple[int, ...]:
    """The fewest leading ``_PRIMES`` whose product exceeds twice the bound
    C(n, k) (k+1)^((k+1)/2) / 2^k on |c_k|, C(n, k) principal 0-1 minors
    within Hadamard's bound, for every k, and one more, the check prime."""
    bound_sq = max(-(-math.comb(n, k) ** 2 * (k + 1) ** (k + 1) // 4 ** k) for k in range(n + 1))
    for count in range(1, len(_PRIMES)):
        if math.prod(_PRIMES[:count]) ** 2 > 4 * bound_sq:
            return _PRIMES[:count + 1]
    raise ValueError(f"an exact charpoly of order {n} needs more than {len(_PRIMES)} primes")


def _garner(residues: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """The Python ints of least absolute value with the ``(P, ...)``
    ``residues`` modulo all but the last of ``primes``, by Garner's
    mixed-radix Chinese remaindering, checked against the last prime."""
    *moduli, check = primes
    values, radix = np.zeros(residues.shape[1:], dtype=object), 1
    for r, p in zip(residues, moduli):
        values = values + (r - values % p) * pow(radix, -1, p) % p * radix
        radix *= p
    values = np.where(values > radix // 2, values - radix, values)
    assert (values % check == residues[-1]).all(), "charpoly residues fail the check prime"
    return values


# --- exact polynomial arithmetic over Z and Z/P -------------------------------

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
