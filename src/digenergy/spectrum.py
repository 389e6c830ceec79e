"""Spectra of digraphs: exact characteristic polynomials, certified complex
eigenvalues with their radius, energy and second-moment sums, and the
Coulson-type integral representation of the energy.

The floating eigenvalues come from Hessenberg reduction + implicitly shifted
QR (LAPACK via numpy), are refined by Aberth-Ehrlich iteration against the
exact integer characteristic polynomial, and are forced into exact conjugate
pairs before any derived quantity is computed.

The Coulson integral is an independent route to the energy: adaptive
Gauss-Legendre quadrature of its even integrand over half the path, from 16
start panels, that evaluates the integrand once per refinement level, over
all panels of that level, with a fixed panel budget.

Both layers work on stacks, for a block of digraphs of one order
(``certify_spectra`` and ``coulson_energies``), once per distinct
polynomial: one Aberth call per degree refines, for each distinct
square-free polynomial, the QR values of its first member, and the roots of
the factors of the others, one stacked distance array checks every member's
QR values against the exact roots of its repeated-root polynomial, and one
quadrature integrates every distinct polynomial of the block.  Each row of
a stack gets the bits it gets alone, and ``eigenvalues`` and
``coulson_energy`` are the blocks of one.

The work done per distinct polynomial (its exact roots, certified spectrum
and Coulson integral) is kept in a ``Memo`` that the caller owns: one per
verification run, and a fresh one for a lone digraph.  The module keeps no
state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .digraph import Digraph
from .errors import EigensolverError, PurelyImaginaryEigenvalueError

# Eigenvalues with |Im| below this (scaled by 1 + rho) are snapped to real.
_SNAP_REL = 1e-10
# Residual gate |phi(z)| / (1 + rho)^n above which the solver result is rejected.
_RESIDUAL_GATE = 1e-6
# Most Aberth-Ehrlich sweeps per refinement.
_ABERTH_SWEEPS = 24
# The prime modulus of the square-free certificate (a Mersenne prime).
_CERT_PRIME = 2 ** 61 - 1


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients ascending.

    ``coeffs[k]`` multiplies x**k and ``coeffs[-1] == 1``.
    """

    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue multiset with the derived radius/energy/moment sums.

    Eigenvalues are sorted by (Re desc, Im desc) and non-real values occur
    in exact conjugate pairs.  ``charpoly`` is the exact polynomial they
    were certified against.
    """

    eigenvalues: tuple[complex, ...]
    rho: float
    energy: float
    sum_re_sq: float
    sum_im_sq: float
    charpoly: CharPoly


@dataclass
class Memo:
    """The per-polynomial work of one run, keyed on exact coefficients.

    ``roots`` holds the exact roots of a repeated-root polynomial (None for
    a square-free one), ``spectra`` the spectrum certified for a polynomial
    (from the QR values of its first digraph when square-free; a rejected
    one is not kept), and ``integrals`` the Coulson integral, keyed on
    ``(coeffs, rel_tol)`` (a pole is not kept).  It is
    never trimmed: it holds one entry per distinct polynomial of the run.
    """

    roots: dict = field(default_factory=dict)
    spectra: dict = field(default_factory=dict)
    integrals: dict = field(default_factory=dict)


def characteristic_polynomial(d: Digraph) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix.

    Computed by the Faddeev-LeVerrier recurrence on a block of one (see
    ``kernels.charpoly_from_masks``); arbitrary-precision integers make the
    result exact at any order.
    """
    (coeffs,) = kernels.charpoly_from_masks(kernels._matrix_stack(d.n, [d.out_masks]))
    return CharPoly(tuple(coeffs))


def _horner_steps(rows: Sequence[Sequence[int]], width: int) -> np.ndarray:
    """The float coefficients of each ascending integer row as a
    ``(width, K, 1)`` array: step s holds every row's coefficient of
    x^(width - 1 - s), highest first, as ``np.polyval`` takes them."""
    desc = np.array([[float(c) for c in reversed(row)] for row in rows]).reshape(len(rows), width)
    return desc.T[:, :, None]


def _polyval_rows(steps: Iterable[np.ndarray], z: np.ndarray) -> np.ndarray:
    """The polynomials with the coefficient arrays ``steps`` (highest first,
    each broadcast against ``z``, as from ``_horner_steps``) at the points
    ``z``, elementwise: ``np.polyval``'s Horner steps, so every value is
    bit for bit what ``np.polyval`` returns for its coefficients."""
    acc = np.zeros_like(z)
    for c in steps:
        acc *= z
        acc += c
    return acc


def _aberth_refine(rows: Sequence[Sequence[int]], roots: np.ndarray) -> np.ndarray:
    """Simultaneous Newton-style refinement of all roots of each exact
    polynomial of ``rows`` (ascending integer coefficients, all of one
    degree m) from the matching row of the ``(K, m)`` stack ``roots``,
    accepting a correction only when it reduces |p(z)|.

    Each row stops at the first sweep that improves none of its roots or
    moves them by at most 1e-15 * (1 + max|start|), and after
    ``_ABERTH_SWEEPS`` at most; the rows still active sweep together.
    Every operation acts on one row at a time, so a row refines to the same
    bits in any stack, alone included.
    """
    z = np.array(roots, dtype=complex)
    k, m = z.shape
    if k == 0 or m == 0:
        return z
    p_steps = _horner_steps(rows, m + 1)
    dp_steps = _horner_steps([_deriv(row) for row in rows], m)
    scale = 1.0 + np.abs(z).max(axis=1)
    pz = _polyval_rows(p_steps, z)
    diagonal = np.arange(m)
    active = np.arange(k)
    for _ in range(_ABERTH_SWEEPS):
        rows_at = slice(None) if len(active) == k else active  # views while all sweep
        za, pa, sa = z[rows_at], pz[rows_at], scale[rows_at, None]
        dpz = _polyval_rows(dp_steps[:, rows_at], za)
        safe = np.abs(dpz) > 1e-300
        newton = np.zeros_like(za)
        np.divide(pa, dpz, out=newton, where=safe)
        diff = za[:, :, None] - za[:, None, :]
        diff[:, diagonal, diagonal] = np.inf
        diff[np.abs(diff) < 1e-14 * sa[:, :, None]] = np.inf
        repulsion = (1.0 / diff).sum(axis=2)
        denom = 1.0 - newton * repulsion
        w = np.where(np.abs(denom) > 1e-12, newton / np.where(denom == 0, 1.0, denom), newton)
        z_try = za - w
        p_try = _polyval_rows(p_steps[:, rows_at], z_try)
        better = np.abs(p_try) < np.abs(pa)
        z[rows_at] = np.where(better, z_try, za)
        pz[rows_at] = np.where(better, p_try, pa)
        # A row with no better root moved by 0 and stops too.
        moved = np.abs(np.where(better, w, 0.0)).max(axis=1)
        active = active[moved > 1e-15 * sa[:, 0]]
        if not len(active):
            break
    return z


# --- exact square-free decomposition (Yun's algorithm over the integers) ----


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


def _coprime_to_derivative_mod_q(coeffs: Sequence[int]) -> bool:
    """Whether gcd(p mod q, p' mod q) is a nonzero constant, q = 2^61 - 1.

    Euclid's algorithm over the field Z/qZ, on ascending coefficient lists.
    """
    q = _CERT_PRIME
    a = _trim([c % q for c in coeffs])
    b = _trim([c % q for c in _deriv(coeffs)])
    while b:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):
            f = a[k] * inv % q
            if f:
                off = k - db
                for j in range(db):
                    a[off + j] = (a[off + j] - f * b[j]) % q
        a, b = b, _trim(a[:db])
    return len(a) == 1


def _square_free_decomposition(coeffs: Sequence[int]) -> list[tuple[tuple[int, ...], int]]:
    """coeffs (ascending, exact, monic) = product of factor**multiplicity
    with every factor square-free; Yun's algorithm over the integers.

    Every gcd Yun takes divides the monic p, so by Gauss's lemma it is a
    monic integer polynomial (``_monic_gcd``), and every division is by a
    monic divisor and exact in integers, p'/gcd(p, p') included.

    A trivial gcd(p, p') modulo the prime q = 2^61 - 1 certifies at once
    that p is square-free: a repeated factor f^2 of p can be taken monic and
    integral (Gauss's lemma), so it stays a repeated factor of the same
    degree mod q and divides p' mod q.  Only a nontrivial gcd mod q (a
    repeated root, or q dividing the discriminant) runs Yun.  On square-free
    random digraphs the certificate takes about 0.8 ms at n = 32 and 2.5 ms
    at n = 64, against about 3.4 ms and 171 ms for the integer gcd(p, p').
    """
    coeffs = tuple(coeffs)
    zeros = next(k for k, c in enumerate(coeffs) if c)
    # p = x^k q with k >= 2 and q(0) != 0: x divides p and p' mod q, so the
    # certificate on p always fails, and only q is certified.  When q
    # passes, it is square-free and coprime to x, so p = q * x^k needs no
    # Yun.  Either way each polynomial takes one certificate.
    if zeros >= 2:
        if _coprime_to_derivative_mod_q(coeffs[zeros:]):
            return ([(coeffs[zeros:], 1)] if len(coeffs) > zeros + 1 else []) + [((0, 1), zeros)]
    elif _coprime_to_derivative_mod_q(coeffs):
        return [(coeffs, 1)]
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


def _factor_roots(factors: Sequence[tuple[int, ...]]) -> dict[tuple[int, ...], np.ndarray]:
    """The roots of each square-free factor: ``np.roots`` starts refined
    against the exact factor, one Aberth call per degree."""
    by_degree: dict[int, list] = {}
    for factor in factors:
        by_degree.setdefault(len(factor) - 1, []).append(factor)
    refined = {}
    for rows in by_degree.values():
        starts = np.array([np.roots([float(c) for c in reversed(f)]) for f in rows], dtype=complex)
        refined.update(zip(rows, _aberth_refine(rows, starts)))
    return refined


def _repeated_roots(polys: Iterable[tuple[int, ...]], roots: dict) -> None:
    """Store in ``roots``, for each polynomial it lacks, all its roots when
    it has a repeated one, from its exact square-free decomposition, and
    None when it is square-free.

    Each root is a simple root of its factor, so the refinement converges
    to machine precision regardless of multiplicity.  The factors of all
    the new polynomials are refined together.
    """
    decomps = {c: _square_free_decomposition(c) for c in dict.fromkeys(polys) if c not in roots}
    repeated = {c: dec for c, dec in decomps.items() if not (len(dec) == 1 and dec[0][1] == 1)}
    refined = _factor_roots(list(dict.fromkeys(f for dec in repeated.values() for f, _ in dec)))
    for c in decomps:
        roots[c] = (tuple(complex(z) for f, mult in repeated[c] for z in refined[f] for _ in range(mult))
                    if c in repeated else None)


def _pair_conjugates(values: np.ndarray) -> list[complex]:
    """Snap near-real values to real and force exact conjugate pairing."""
    if len(values) == 0:
        return []
    rho0 = float(np.max(np.abs(values)))
    snap = _SNAP_REL * (1.0 + rho0)
    reals: list[complex] = []
    pos: list[complex] = []
    neg: list[complex] = []
    for z in values:
        z = complex(z)
        if abs(z.imag) <= snap:
            reals.append(complex(z.real, 0.0))
        elif z.imag > 0:
            pos.append(z)
        else:
            neg.append(z)
    pos.sort(key=lambda z: (z.real, z.imag))
    out = list(reals)
    for u in pos:
        if not neg:
            out.append(complex(u.real, 0.0))
            continue
        target = u.conjugate()
        k = min(range(len(neg)), key=lambda i: abs(neg[i] - target))
        w = neg.pop(k)
        mean = (u + w.conjugate()) / 2.0
        out.append(mean)
        out.append(mean.conjugate())
    out.extend(complex(w.real, 0.0) for w in neg)
    return out


def qr_values(a: np.ndarray) -> np.ndarray:
    """Floating eigenvalues of an adjacency matrix, or of each matrix of a
    ``(K, n, n)`` stack, from LAPACK: the symmetric solver for the
    symmetric members and Hessenberg QR for the others, one stacked call
    each.  The values of a matrix are the last axis of the result.

    Each matrix's values are bit for bit those of the per-matrix call, as
    complex: values that are all real have +0.0 imaginary parts, as the
    per-matrix ``eigvals`` returns them.
    """
    a = np.asarray(a, dtype=float)
    stack = a.reshape(math.prod(a.shape[:-2]), *a.shape[-2:])
    out = np.empty(stack.shape[:2], dtype=complex)
    symmetric = (stack == stack.transpose(0, 2, 1)).all(axis=(1, 2))
    general = ~symmetric
    try:
        if symmetric.any():
            out[symmetric] = np.linalg.eigvalsh(stack[symmetric])
        if general.any():
            values = np.linalg.eigvals(stack[general]).astype(complex)
            real = (values.imag == 0.0).all(axis=1)
            values[real] = values[real].real
            out[general] = values
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed: {exc}") from exc
    return out.reshape(a.shape[:-1])


def unwrap(outcome):
    """One member's result of a stacked call: its value, or the exception
    stored in its place, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def certify_spectra(polys: Sequence[CharPoly], index: np.ndarray, qr: np.ndarray,
                    memo: Memo) -> tuple[list, dict[int, EigensolverError]]:
    """The certified spectra of a block of digraphs of one order n, from
    ``polys``, the distinct exact characteristic polynomials of its members
    (each the polynomial of at least one member), ``index``, the ``(K,)``
    row of ``polys`` of each member, and ``qr``, the members' ``(K, n)`` QR
    values.

    Returns the outcome of each polynomial, its certified ``Spectrum`` or
    the EigensolverError that rejects it (see ``eigenvalues``), and, by
    member position, the EigensolverError of each member whose own QR
    values miss the exact roots of its repeated-root polynomial, which
    replaces the polynomial's outcome for that member.

    Each polynomial that ``memo.spectra`` lacks is certified once: a
    repeated-root one from its exact roots, a square-free one from the QR
    values of its first member, and the square-free ones in one Aberth
    call.  A spectrum that passes the residual gate is stored; a rejected
    one is not.  The members' QR values are checked against the repeated
    roots of their polynomials in one stacked ``(M, n, n)`` distance array
    over the M members that have one: each exact root must lie within
    1e-2 * (1 + rho) of one of the member's values.
    """
    n = qr.shape[-1]
    coeffs = [p.coeffs for p in polys]
    _repeated_roots(coeffs, memo.roots)
    roots = [memo.roots[c] for c in coeffs]
    outcomes: list = [memo.spectra.get(c) for c in coeffs]
    for p, r in enumerate(roots):
        if r is not None and len(r) != n:
            outcomes[p] = EigensolverError(
                f"square-free decomposition yielded {len(r)} roots, expected {n}")
    todo = [p for p, s in enumerate(outcomes) if s is None]
    _, first = np.unique(index, return_index=True)  # the first member of each polynomial
    values = np.array([qr[first[p]] if roots[p] is None else roots[p] for p in todo],
                      dtype=complex).reshape(len(todo), n)
    square_free = [k for k, p in enumerate(todo) if roots[p] is None]
    if square_free:
        values[square_free] = _aberth_refine([coeffs[todo[k]] for k in square_free], values[square_free])
    paired = [sorted(_pair_conjugates(row), key=lambda z: (-z.real, -z.imag)) for row in values]
    at = np.array(paired, dtype=complex).reshape(len(todo), n)
    steps = _horner_steps([coeffs[p] for p in todo], n + 1)
    residuals = np.abs(_polyval_rows(steps, at)).max(axis=1, initial=0.0)
    for p, vals, residual in zip(todo, paired, residuals.tolist()):
        rho = max((abs(z) for z in vals), default=0.0)
        if residual > _RESIDUAL_GATE * (1.0 + rho) ** n:
            outcomes[p] = EigensolverError(
                f"eigenvalue residual {residual:.3e} exceeds gate for n={n}", partial=tuple(vals))
            continue
        outcomes[p] = memo.spectra[coeffs[p]] = Spectrum(
            eigenvalues=tuple(vals),
            rho=rho,
            energy=float(sum(abs(z.real) for z in vals)),
            sum_re_sq=float(sum(z.real * z.real for z in vals)),
            sum_im_sq=float(sum(z.imag * z.imag for z in vals)),
            charpoly=polys[p],
        )
    repeated = [p for p, r in enumerate(roots) if r is not None and len(r) == n]
    return outcomes, (_check_spreads(qr, index, roots, repeated) if repeated else {})


def _check_spreads(qr: np.ndarray, index: np.ndarray, roots: Sequence,
                   repeated: Sequence[int]) -> dict[int, EigensolverError]:
    """The EigensolverError, by member position, of each member of a block
    whose polynomial is one of the rows ``repeated`` (n exact roots each,
    in ``roots``) and whose own row of the ``(K, n)`` QR values ``qr`` lies
    farther than 1e-2 * (1 + rho) from one of those roots; ``index`` is
    each member's row.  One ``(M, n, n)`` distance array over the M members
    with a repeated-root polynomial gives each spread bit for bit as a
    member alone gets it."""
    n = qr.shape[-1]
    row = np.full(len(roots), -1)
    row[repeated] = np.arange(len(repeated))
    members = np.flatnonzero(row[index] >= 0)
    exact = np.array([roots[p] for p in repeated], dtype=complex).reshape(len(repeated), n)
    limit = 1e-2 * (1.0 + np.abs(exact).max(axis=1))
    at = row[index[members]]
    spread = np.abs(qr[members][:, None, :] - exact[at][:, :, None]).min(axis=2).max(axis=1)
    return {int(members[k]): EigensolverError(
                f"QR values and exact-polynomial roots disagree by {float(spread[k]):.3e}",
                partial=roots[index[members[k]]])
            for k in np.flatnonzero(spread > limit[at]).tolist()}


def eigenvalues(poly: CharPoly, qr: np.ndarray) -> Spectrum:
    """All n eigenvalues of a digraph with certified backward error, from
    its exact characteristic polynomial ``poly`` and its n floating QR
    values ``qr`` (a row of ``qr_values``); ``certify_spectra`` on a block
    of one, with a fresh ``Memo``.

    A square-free spectrum is the QR values refined by Aberth-Ehrlich
    iteration against the exact polynomial.  With repeated eigenvalues,
    every root is simple inside its square-free factor, which sidesteps the
    sqrt(eps) accuracy floor of polishing multiple roots on the full
    polynomial; the QR values must then lie near the exact roots.  The
    values are paired into exact conjugates and rejected (EigensolverError)
    if any residual |phi(z)| exceeds the gate of 1e-6 * (1 + rho)^n; in
    practice residuals sit far below 1e-8 after refinement.
    """
    n = len(poly.coeffs) - 1
    if len(qr) != n:
        raise ValueError(f"expected {n} QR values for a polynomial of degree {n}, got {len(qr)}")
    outcomes, errors = certify_spectra([poly], np.zeros(1, dtype=np.intp), np.asarray(qr)[None], Memo())
    return unwrap(errors.get(0, outcomes[0]))


# --- Coulson-type integral ---------------------------------------------------

_GL_LO = np.polynomial.legendre.leggauss(8)
_GL_HI = np.polynomial.legendre.leggauss(16)
_POLE_REL = 1e-13
# Smallest rel_tol a Coulson integral accepts.  Below it a pole-free
# polynomial can use up ``_MAX_PANELS`` and read as a pole: over 76
# pole-free spectra of random digraphs (n = 4 to 48, p = 0.2 and 0.4), no
# false pole at 1e-10 or 1e-11 and one at 1e-12 (random 16 0.2 1, whose
# eigenvalue nearest the imaginary axis is 0.0033 from it); n = 64 and 96
# reach their energy at 1e-10.
REL_TOL_FLOOR = 1e-10
# Depth of the 2^4 level-0 panels of (0, pi/2) (width pi / 2^5), and depth at
# which a panel (width pi / 2^49) is accepted whatever its error.
_START_DEPTH = 4
_MAX_DEPTH = 48
# Panels one quadrature of (0, pi/2) may evaluate, the 16 of level 0 included.
# Polynomials from the harness and from `analyze` use at most about 50 (200
# random n = 10 digraphs, p = 0.3, peak at 38 to 40, the n = 8 to 32 cells
# of the benchmark's `analyze-cli` at 46); only a pole between the nodes,
# which refinement never resolves, comes near this.
_MAX_PANELS = 1024
# Panels of one level whose nodes go to the integrand in one call: 1,152
# nodes, so the integrand's temporaries stay near 0.2 MB however many
# polynomials share the quadrature (200 random n = 10 digraphs peak at
# 1.41 MB of Python allocations in all, against 1.48 MB with 64 panels
# and 1.31 MB with 32).
_CHUNK_PANELS = 48


class _Integrand:
    """Real integrands of the energy integrals of a stack of polynomials,
    after x = tan(theta).

    With phi monic of degree n, n - i x phi'(ix)/phi(ix) equals
    N(ix)/phi(ix) where N(y) = sum_{k<n} (n - k) a_k y^k has degree
    <= n - 2, so the ratio decays like 1/x^2 without a subtraction.  For
    |x| > 1 the reversed polynomials are evaluated in u = 1/(ix): the
    ascending coefficient array of phi doubles as the descending array of
    phi(ix)/(ix)^n, and likewise for N, which keeps every evaluation free
    of overflow.

    Each polynomial has three Horner rows per branch: phi, N and |phi| (the
    absolute coefficients, at |y| or |u|), descending for |x| <= 1 and
    ascending for |x| > 1.  Rows are padded to one length with leading
    zeros in Horner order, which keep the accumulator at +0 until the first
    coefficient, so padding changes no bit.  A call takes one Horner pass
    over all its nodes, each with the rows of its own polynomial and
    branch; each step does per element exactly the multiply-add of
    ``np.polyval``, so every value, guard decision and pole abscissa is bit
    for bit what three ``np.polyval`` calls per branch give.

    Every phi must have phi(0) != 0 (see ``coulson_energy``), so that the
    absolute-coefficient scale is at least 1 on both branches and every
    small |phi(ix)| is a pole, i.e. an eigenvalue on the imaginary axis.
    """

    def __init__(self, polys: Sequence[Sequence[int]]):
        self.count = len(polys)
        width = max(len(coeffs) for coeffs in polys)
        rows = np.zeros((3, 2 * self.count, width))
        for k, coeffs in enumerate(polys):
            n = len(coeffs) - 1
            num = np.array([float((n - j) * c) for j, c in enumerate(coeffs)][:n] or [0.0])
            den = np.array([float(c) for c in coeffs])
            rows[0, k, width - n - 1:] = den[::-1]
            rows[1, k, width - len(num):] = num[::-1]
            rows[0, self.count + k, width - n - 1:] = den
            rows[1, self.count + k, width - len(num):] = num
        rows[2] = np.abs(rows[0])
        # One (3, 2K) table per Horner step: columns k < K hold the |x| <= 1
        # rows of polynomial k, columns K + k its |x| > 1 rows.  Complex, as
        # numpy casts a real coefficient before it adds it to a complex value.
        self.steps = rows.transpose(2, 0, 1).astype(complex)

    def __call__(self, theta: np.ndarray, poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The integrand of polynomial ``poly[j]`` at each node ``theta[j]``,
        the abscissae x = tan(theta), and the mask of the nodes where
        |phi(ix)| reads as a pole (their values are void)."""
        x = np.tan(theta)
        large = ~(np.abs(x) <= 1.0)
        z = 1j * x
        np.divide(1.0, z, out=z, where=large)  # u = 1/(ix) where |x| > 1
        r = np.abs(x)
        np.abs(z, out=r, where=large)
        # den = phi(ix) or phi(ix) / (ix)^n, num = N(ix) or N(ix) / (ix)^(n-1),
        # and scale the |phi| row at the real r, whose imaginary parts stay 0.
        column = poly + self.count * large
        steps = (table.take(column, axis=1, mode="clip") for table in self.steps)
        den, num, scale = _polyval_rows(steps, np.stack([z, z, r]))
        pole = np.abs(den) <= _POLE_REL * scale.real
        np.multiply(num, z, out=num, where=large)  # restores the degree gap of one
        values = (num / np.where(pole, 1.0, den)).real * (1.0 + x * x)
        return values, x, pole


def _level_synchronous_gl(f: _Integrand, b: float, rel_tol: float) -> list:
    """Integral of each even integrand of ``f`` over (-b, b): twice an
    adaptive Gauss-Legendre quadrature over (0, b), one refinement level at
    a time for all of them.  Returns, per polynomial, the integral or the
    PurelyImaginaryEigenvalueError that stopped it.

    Level 0 is 16 equal panels of (0, b) per polynomial, depth 4 of a
    binary tree whose depth-0 panels are the halves of (-b, b); their
    doubled 16-node sums estimate the integral and set the polynomial's
    tol0 = 0.25 * rel_tol * max(1, |estimate|).  A panel at depth k is
    accepted when its 8- and 16-node sums agree within tol0 / 2^k, a
    tolerance set by its width alone, or at depth ``_MAX_DEPTH``; every
    other panel is split in two for the next level.  Each panel carries the
    index of its polynomial, and the panels of one polynomial keep the
    order they have in a quadrature of their own.  The nodes of a level go
    to f ``_CHUNK_PANELS`` panels at a time, and each rule's panel sums are
    one row-wise sum, bit-identical to a panel evaluated on its own.  The
    accepted 16-node sums are added pairwise in the order of the panel
    tree, sibling by sibling, and each polynomial's 16 level-0 totals by
    ``np.sum``, so no result depends on which polynomials share the call.

    A polynomial stops with PurelyImaginaryEigenvalueError when one of its
    nodes reads as a pole (at its first such node of the level with
    |x| <= 1, else its first one), or when its next level would take its
    panel count past ``_MAX_PANELS``, at the midpoint of the panel of its
    last level (all of them are equally narrow) whose two sums disagree
    most: a pole between the nodes keeps refinement going there.  A pole at
    a level-0 midpoint (theta an odd multiple of pi/64 on the Coulson path)
    is not seen: both rules are symmetric about it, so the odd singularity
    cancels in both sums.
    """
    lo_nodes, lo_weights = _GL_LO
    hi_nodes, hi_weights = _GL_HI
    nodes = np.concatenate([lo_nodes, hi_nodes])
    n_lo = len(lo_nodes)
    start = 2 ** _START_DEPTH
    edges = np.linspace(0.0, b, start + 1)
    left, right = np.tile(edges[:-1], f.count), np.tile(edges[1:], f.count)
    owner = np.repeat(np.arange(f.count), start)  # the polynomial of each panel
    outcomes: list = [None] * f.count
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (fine sums, accepted) per level
    panels = np.zeros(f.count, dtype=np.int64)
    depth = _START_DEPTH
    while len(owner):
        mids = 0.5 * (left + right)
        halves = 0.5 * (right - left)
        coarse, fine = np.empty(len(mids)), np.empty(len(mids))
        poles: dict[int, float] = {}
        for lo in range(0, len(mids), _CHUNK_PANELS):
            chunk = slice(lo, lo + _CHUNK_PANELS)
            theta = (mids[chunk, None] + halves[chunk, None] * nodes).ravel()
            values, x, pole = f(theta, np.repeat(owner[chunk], len(nodes)))
            values = values.reshape(-1, len(nodes))
            coarse[chunk] = halves[chunk] * (values[:, :n_lo] * lo_weights).sum(axis=1)
            fine[chunk] = halves[chunk] * (values[:, n_lo:] * hi_weights).sum(axis=1)
            if pole.any():
                for j in np.flatnonzero(pole).tolist():
                    k, abscissa = int(owner[lo + j // len(nodes)]), float(x[j])
                    if k not in poles or (abs(poles[k]) > 1.0 and abs(abscissa) <= 1.0):
                        poles[k] = abscissa
        if not levels:  # the doubled level-0 sums estimate the integrals
            estimate = 2.0 * fine.reshape(f.count, start).sum(axis=1)
            tol = 0.25 * rel_tol * np.fmax(1.0, np.abs(estimate)) / start
        error = np.abs(fine - coarse)
        accepted = (error <= tol[owner]) | (depth >= _MAX_DEPTH)
        panels += np.bincount(owner, minlength=f.count)
        over = panels + 2 * np.bincount(owner[~accepted], minlength=f.count) > _MAX_PANELS
        for k in np.flatnonzero(over).tolist():
            if k not in poles:
                mine = np.flatnonzero(owner == k)
                worst = mine[0] + int(np.argmax(np.where(accepted[mine], -1.0, error[mine])))
                poles[k] = float(np.tan(mids[worst]))
        if poles:  # a stopped polynomial opens no panel, and its sums are void
            for k, x in poles.items():
                outcomes[k] = PurelyImaginaryEigenvalueError(x)
            stopped = np.zeros(f.count, dtype=bool)
            stopped[list(poles)] = True
            stopped = stopped[owner]
            fine[stopped] = 0.0
            accepted |= stopped
        levels.append((fine, accepted))
        split = ~accepted
        next_left, next_right = np.empty(2 * int(split.sum())), np.empty(2 * int(split.sum()))
        next_left[0::2], next_left[1::2] = left[split], mids[split]
        next_right[0::2], next_right[1::2] = mids[split], right[split]
        left, right, owner = next_left, next_right, np.repeat(owner[split], 2)
        tol = tol / 2.0
        depth += 1
    if not levels:
        return []
    sums = levels[-1][0]
    for fine, accepted in reversed(levels[:-1]):
        total = fine.copy()
        total[~accepted] = sums[0::2] + sums[1::2]
        sums = total
    return [2.0 * float(np.sum(sums[k * start:(k + 1) * start])) if outcome is None else outcome
            for k, outcome in enumerate(outcomes)]


def coulson_energies(spectra: Sequence[Spectrum], rel_tol: float, memo: Memo) -> list:
    """The Coulson integral of each spectrum, or in its place the
    PurelyImaginaryEigenvalueError that skips it (see ``coulson_energy``).

    The pole guard reads each spectrum once, so a caller passes each
    polynomial's spectrum once: a block of the harness passes one per
    distinct polynomial of its members.  Every distinct polynomial that
    ``memo.integrals`` lacks is integrated in one level-synchronous
    quadrature, with its own tolerance, panel budget and pole, and its
    integral is stored there; a pole is not.  ``rel_tol`` lies in
    [``REL_TOL_FLOOR``, 1).
    """
    if not (REL_TOL_FLOOR <= rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in [{REL_TOL_FLOOR:g}, 1), got {rel_tol}")
    out: list = [0.0] * len(spectra)
    polys: dict[int, tuple[int, ...]] = {}
    for i, spec in enumerate(spectra):
        guard = 1e-9 * (1.0 + spec.rho)
        pole = next((z for z in spec.eigenvalues if abs(z.real) <= guard and abs(z) > guard), None)
        if pole is not None:
            out[i] = PurelyImaginaryEigenvalueError(pole.imag)
        elif spec.eigenvalues:
            coeffs = spec.charpoly.coeffs
            polys[i] = coeffs[next(k for k, c in enumerate(coeffs) if c):]
    found = {c: memo.integrals[c, rel_tol] for c in polys.values() if (c, rel_tol) in memo.integrals}
    todo = [c for c in dict.fromkeys(polys.values()) if c not in found]
    if todo:
        for c, value in zip(todo, _level_synchronous_gl(_Integrand(todo), math.pi / 2.0, rel_tol)):
            if not isinstance(value, Exception):
                value /= math.pi
                memo.integrals[c, rel_tol] = value
            found[c] = value
    for i, c in polys.items():
        out[i] = found[c]
    return out


def coulson_energy(spectrum: Spectrum, rel_tol: float = 1e-6) -> float:
    """Energy via the integral (1/pi) * int (n - i x phi'(ix)/phi(ix)) dx,
    with phi the characteristic polynomial ``spectrum`` was certified
    against; ``coulson_energies`` on a block of one, with a fresh ``Memo``.

    Evaluated with x = tan(theta) as twice the integral of the even
    integrand over (0, pi/2) (see ``_level_synchronous_gl``); the integrand
    is even, since phi and N, real polynomials, take conjugate values at ix
    and -ix.  Raises PurelyImaginaryEigenvalueError when an eigenvalue sits
    on the imaginary axis away from zero (the integrand then has a pole on
    the path): found on the spectrum, or by the quadrature, at an x > 0, at
    a node or when refinement near the pole uses up ``_MAX_PANELS``.  The
    empty spectrum has energy 0.

    The exact factor x^k of phi is divided out first: zero eigenvalues add
    nothing to the energy and leave the integrand unchanged, but they make
    |phi(ix)| ~ |x|^k so small near x = 0 that it would read as a pole.
    """
    return unwrap(coulson_energies([spectrum], rel_tol, Memo())[0])
