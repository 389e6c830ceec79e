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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .digraph import Digraph
from .errors import EigensolverError, PurelyImaginaryEigenvalueError

# Eigenvalues with |Im| below this (scaled by 1 + rho) are snapped to real.
_SNAP_REL = 1e-10
# Residual gate |phi(z)| / (1 + rho)^n above which the solver result is rejected.
_RESIDUAL_GATE = 1e-6
# Entries of each memo, both keyed on the coefficients of a characteristic
# polynomial.  Exhaustive n=5 has 718 distinct characteristic polynomials,
# so one exhaustive run never evicts.  The polynomials themselves are not
# memoized: the harness works in blocks and computes those of a whole block
# of digraphs and their cycle-arc reductions in one kernel call (a lone
# digraph is a block of one), next to QR values from stacks built from arcs.
_MEMO_SIZE = 4096
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


def characteristic_polynomial(d: Digraph) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix.

    Computed by the Faddeev-LeVerrier recurrence on a block of one (see
    ``kernels.charpoly_from_masks``); arbitrary-precision integers make the
    result exact at any order.
    """
    return CharPoly(tuple(kernels.charpoly_from_masks(d.n, [d.out_masks])[0]))


def _poly_arrays(coeffs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Descending-order float coefficient arrays for p and p'."""
    desc = np.array([float(c) for c in reversed(coeffs)])
    dcoeffs = np.array([float(k * c) for k, c in enumerate(coeffs)][1:][::-1])
    return desc, dcoeffs


def _aberth_refine(coeffs: Sequence[int], roots: np.ndarray) -> np.ndarray:
    """Simultaneous Newton-style refinement of all roots of the exact
    polynomial, accepting a correction only when it reduces |p(z)|."""
    n = len(roots)
    if n == 0:
        return roots
    p_desc, dp_desc = _poly_arrays(coeffs)
    z = roots.astype(complex).copy()
    scale = 1.0 + float(np.max(np.abs(z)))
    pz = np.polyval(p_desc, z)
    for _ in range(_ABERTH_SWEEPS):
        dpz = np.polyval(dp_desc, z)
        safe = np.abs(dpz) > 1e-300
        newton = np.zeros_like(z)
        np.divide(pz, dpz, out=newton, where=safe)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        tiny = np.abs(diff) < 1e-14 * scale
        diff[tiny] = np.inf
        repulsion = (1.0 / diff).sum(axis=1)
        denom = 1.0 - newton * repulsion
        w = np.where(np.abs(denom) > 1e-12, newton / np.where(denom == 0, 1.0, denom), newton)
        z_try = z - w
        p_try = np.polyval(p_desc, z_try)
        better = np.abs(p_try) < np.abs(pz)
        if not np.any(better):
            break
        z = np.where(better, z_try, z)
        pz = np.where(better, p_try, pz)
        if np.max(np.abs(np.where(better, w, 0.0))) <= 1e-15 * scale:
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
    if _coprime_to_derivative_mod_q(coeffs):
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


def _roots_from_decomposition(decomp, n: int) -> tuple[complex, ...]:
    """Assemble the n-root multiset; each factor root is simple, so the
    refinement converges to machine precision regardless of multiplicity."""
    roots: list[complex] = []
    for factor, mult in decomp:
        deg = len(factor) - 1
        if deg == 0:
            continue
        starts = np.roots([float(c) for c in reversed(factor)])
        refined = _aberth_refine(factor, np.asarray(starts, dtype=complex))
        for z in refined:
            roots.extend([complex(z)] * mult)
    if len(roots) != n:
        raise EigensolverError(
            f"square-free decomposition yielded {len(roots)} roots, expected {n}")
    return tuple(roots)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _repeated_roots(coeffs: tuple[int, ...]) -> Optional[tuple[complex, ...]]:
    """All roots of a polynomial with a repeated root, from its exact
    square-free decomposition; None when it is square-free.

    A pure function of the exact coefficients, so it is memoized: digraphs
    that share a characteristic polynomial share this work.
    """
    decomp = _square_free_decomposition(coeffs)
    if len(decomp) == 1 and decomp[0][1] == 1:
        return None
    return _roots_from_decomposition(decomp, len(coeffs) - 1)


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


def _check_spread(qr: np.ndarray, repeated: tuple[complex, ...]) -> None:
    """Raise EigensolverError unless every exact root lies within
    1e-2 * (1 + rho) of one of the digraph's QR values."""
    exact = np.array(repeated, dtype=complex)
    spread = float(np.abs(qr[None, :] - exact[:, None]).min(axis=1).max())
    if spread > 1e-2 * (1.0 + float(np.max(np.abs(exact)))):
        raise EigensolverError(
            f"QR values and exact-polynomial roots disagree by {spread:.3e}",
            partial=repeated,
        )


def eigenvalues(poly: CharPoly, qr: np.ndarray, certified: Optional[Spectrum] = None) -> Spectrum:
    """All n eigenvalues of a digraph with certified backward error, from
    its exact characteristic polynomial ``poly`` and its n floating QR
    values ``qr`` (a row of ``qr_values``).

    The QR values are refined against the exact polynomial and rejected
    (EigensolverError) if any residual |phi(z)| exceeds the gate of
    1e-6 * (1 + rho)^n; in practice residuals sit far below 1e-8 after
    refinement.

    ``certified``, when given, must be a spectrum this function returned
    for another digraph with the same characteristic polynomial; it is
    returned in place of a new one.  With a repeated root, this digraph's
    QR values are still checked against the exact roots first; with a
    square-free polynomial nothing is refined.  Refinement starts from the
    QR values, so a spectrum certified for another digraph can differ from
    this digraph's own in the last bits.
    """
    n = len(poly.coeffs) - 1
    if len(qr) != n:
        raise ValueError(f"expected {n} QR values for a polynomial of degree {n}, got {len(qr)}")
    if n == 0:
        return Spectrum((), 0.0, 0.0, 0.0, 0.0, poly)
    repeated = _repeated_roots(poly.coeffs)
    if certified is not None:
        if repeated is not None:
            _check_spread(qr, repeated)
        return certified
    if repeated is None:
        # Square-free spectrum: refine the QR values directly.
        vals = _aberth_refine(poly.coeffs, qr)
    else:
        # Repeated eigenvalues: every root is simple inside its square-free
        # factor, which sidesteps the sqrt(eps) accuracy floor of polishing
        # multiple roots on the full polynomial.  The QR values stay as a
        # consistency reference.
        _check_spread(qr, repeated)
        vals = np.array(repeated, dtype=complex)
    paired = _pair_conjugates(vals)
    paired.sort(key=lambda z: (-z.real, -z.imag))
    rho = max((abs(z) for z in paired), default=0.0)
    p_desc, _ = _poly_arrays(poly.coeffs)
    residual = float(np.max(np.abs(np.polyval(p_desc, np.array(paired, dtype=complex)))))
    if residual > _RESIDUAL_GATE * (1.0 + rho) ** n:
        raise EigensolverError(
            f"eigenvalue residual {residual:.3e} exceeds gate for n={n}", partial=tuple(paired)
        )
    return Spectrum(
        eigenvalues=tuple(paired),
        rho=rho,
        energy=float(sum(abs(z.real) for z in paired)),
        sum_re_sq=float(sum(z.real * z.real for z in paired)),
        sum_im_sq=float(sum(z.imag * z.imag for z in paired)),
        charpoly=poly,
    )


# --- Coulson-type integral ---------------------------------------------------

_GL_LO = np.polynomial.legendre.leggauss(8)
_GL_HI = np.polynomial.legendre.leggauss(16)
_POLE_REL = 1e-13
# Depth of the 2^4 level-0 panels of (0, pi/2) (width pi / 2^5), and depth at
# which a panel (width pi / 2^49) is accepted whatever its error.
_START_DEPTH = 4
_MAX_DEPTH = 48
# Panels one quadrature of (0, pi/2) may evaluate, the 16 of level 0 included.
# Polynomials from the harness and from `analyze` use at most about 50; only a
# pole between the nodes, which refinement never resolves, comes near this.
_MAX_PANELS = 1024


class _Integrand:
    """Real integrand of the energy integral, after x = tan(theta).

    With phi monic of degree n, n - i x phi'(ix)/phi(ix) equals
    N(ix)/phi(ix) where N(y) = sum_{k<n} (n - k) a_k y^k has degree
    <= n - 2, so the ratio decays like 1/x^2 with no cancellation.  For
    |x| > 1 the reversed polynomials are evaluated in u = 1/(ix): the
    ascending coefficient array of phi doubles as the descending array of
    phi(ix)/(ix)^n, and likewise for N, which keeps every evaluation free
    of overflow.

    Each branch takes one Horner pass over three stacked rows: phi, N
    padded with one leading zero, and |phi| (the absolute coefficients) at
    |y| or |u|.  Each step does per element exactly the multiply-add of
    ``np.polyval``, so every value, guard decision and pole abscissa is bit
    for bit what three ``np.polyval`` calls give, and a call allocates
    O(3 x nodes).

    phi must have phi(0) != 0 (see ``coulson_energy``), so that the
    absolute-coefficient scale is at least 1 on both branches and every
    small |phi(ix)| is a pole, i.e. an eigenvalue on the imaginary axis.
    """

    def __init__(self, coeffs: Sequence[int]):
        n = len(coeffs) - 1
        num = [(n - k) * c for k, c in enumerate(coeffs)][:n] or [0]
        num_asc = np.array([float(c) for c in num])
        den_asc = np.array([float(c) for c in coeffs])
        pad = np.zeros(n + 1 - len(num_asc))
        den_desc = den_asc[::-1]
        self.rows_desc = np.stack([den_desc, np.concatenate([pad, num_asc[::-1]]), np.abs(den_desc)])
        self.rows_asc = np.stack([den_asc, np.concatenate([pad, num_asc]), np.abs(den_asc)])

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        x = np.tan(theta)
        out = np.empty_like(x)
        small = np.abs(x) <= 1.0
        if np.any(small):
            xs = x[small]
            y = 1j * xs
            den, num, scale = _horner(self.rows_desc, y, np.abs(xs))
            self._guard(den, scale, xs)
            out[small] = (num / den).real * (1.0 + xs * xs)
        if np.any(~small):
            xl = x[~small]
            u = 1.0 / (1j * xl)
            # den = phi(ix) / (ix)^n, num = N(ix) / (ix)^(n-1)
            den, num, scale = _horner(self.rows_asc, u, np.abs(u))
            self._guard(den, scale, xl)
            ratio = (num * u) / den             # restores the degree gap of one
            out[~small] = ratio.real * (1.0 + xl * xl)
        return out

    def _guard(self, den: np.ndarray, scale: np.ndarray, x: np.ndarray) -> None:
        bad = np.abs(den) <= _POLE_REL * scale
        if np.any(bad):
            raise PurelyImaginaryEigenvalueError(float(x[bad][0]))


def _horner(rows: np.ndarray, z: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first two rows of descending coefficients at z and the third at
    the real r, in one complex Horner pass.  Like ``np.polyval`` it starts
    from zero and does ``acc = acc * z + c`` per coefficient; the third
    row's imaginary parts stay zero, so its real parts are the real
    ``np.polyval`` values."""
    at = np.empty((3, len(z)), dtype=complex)
    at[:2] = z
    at[2] = r
    acc = np.zeros_like(at)
    for c in rows.T:
        acc *= at
        acc += c[:, None]
    return acc[0], acc[1], acc[2].real


def _level_synchronous_gl(f, b: float, rel_tol: float) -> float:
    """Integral of the even f over (-b, b): twice an adaptive
    Gauss-Legendre quadrature over (0, b), one refinement level at a time.

    Level 0 is 16 equal panels of (0, b), depth 4 of a binary tree whose
    depth-0 panels are the halves of (-b, b); their doubled 16-node sums
    estimate the integral and set tol0 = 0.25 * rel_tol * max(1, |estimate|).
    A panel at depth k is accepted when its 8- and 16-node sums agree
    within tol0 / 2^k, a tolerance set by its width alone, or at depth
    ``_MAX_DEPTH``; every other panel is split in two for the next level.
    All nodes of a level go to f in one call, and each rule's panel sums
    are one row-wise sum, bit-identical to a panel evaluated on its own.
    The accepted 16-node sums are added pairwise in the order of the panel
    tree, sibling by sibling, and the 16 level-0 totals by ``np.sum``, so
    the result does not depend on how many panels share a call.

    Raises PurelyImaginaryEigenvalueError when the next level would take
    the panel count past ``_MAX_PANELS``, at the midpoint of the panel of
    the last level (all of its panels are equally narrow) whose two sums
    disagree most: a pole between the nodes keeps refinement going there.
    A pole at a level-0 midpoint (theta an odd multiple of pi/64 on the
    Coulson path) is not seen: both rules are symmetric about it, so the
    odd singularity cancels in both sums.
    """
    lo_nodes, lo_weights = _GL_LO
    hi_nodes, hi_weights = _GL_HI
    nodes = np.concatenate([lo_nodes, hi_nodes])
    n_lo = len(lo_nodes)
    edges = np.linspace(0.0, b, 2 ** _START_DEPTH + 1)
    left, right = edges[:-1], edges[1:]
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (fine sums, accepted) per level
    panels, depth = 0, _START_DEPTH
    while True:
        mids = 0.5 * (left + right)
        halves = 0.5 * (right - left)
        values = f((mids[:, None] + halves[:, None] * nodes).ravel()).reshape(len(mids), -1)
        coarse = halves * (values[:, :n_lo] * lo_weights).sum(axis=1)
        fine = halves * (values[:, n_lo:] * hi_weights).sum(axis=1)
        if not levels:  # the doubled level-0 sums estimate the integral
            tol = 0.25 * rel_tol * max(1.0, abs(2.0 * float(np.sum(fine)))) / 2 ** _START_DEPTH
        error = np.abs(fine - coarse)
        accepted = (error <= tol) | (depth >= _MAX_DEPTH)
        levels.append((fine, accepted))
        panels += len(mids)
        split = ~accepted
        if not split.any():
            break
        opened = 2 * int(split.sum())
        if panels + opened > _MAX_PANELS:
            worst = int(np.argmax(np.where(split, error, -1.0)))
            raise PurelyImaginaryEigenvalueError(float(np.tan(mids[worst])))
        next_left, next_right = np.empty(opened), np.empty(opened)
        next_left[0::2], next_left[1::2] = left[split], mids[split]
        next_right[0::2], next_right[1::2] = mids[split], right[split]
        left, right = next_left, next_right
        tol /= 2.0
        depth += 1
    sums = levels[-1][0]
    for fine, accepted in reversed(levels[:-1]):
        total = fine.copy()
        total[~accepted] = sums[0::2] + sums[1::2]
        sums = total
    return 2.0 * float(np.sum(sums))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _coulson_integral(coeffs: tuple[int, ...], rel_tol: float) -> float:
    """The energy integral of ``coeffs`` (ascending, exact, monic, nonzero
    constant term), memoized like ``_repeated_roots``; its integrand is even,
    since phi and N, real polynomials, take conjugate values at ix and -ix."""
    return _level_synchronous_gl(_Integrand(coeffs), math.pi / 2.0, rel_tol) / math.pi


def coulson_energy(spectrum: Spectrum, rel_tol: float = 1e-6) -> float:
    """Energy via the integral (1/pi) * int (n - i x phi'(ix)/phi(ix)) dx,
    with phi the characteristic polynomial ``spectrum`` was certified against.

    Evaluated with x = tan(theta) as twice the integral of the even
    integrand over (0, pi/2) (see ``_level_synchronous_gl``).  Raises
    PurelyImaginaryEigenvalueError when an eigenvalue sits on the imaginary
    axis away from zero (the integrand then has a pole on the path): found
    on the spectrum, or by the quadrature, at an x > 0, at a node or when
    refinement near the pole uses up ``_MAX_PANELS``.  The empty spectrum
    has energy 0.

    The exact factor x^k of phi is divided out first: zero eigenvalues add
    nothing to the energy and leave the integrand unchanged, but they make
    |phi(ix)| ~ |x|^k so small near x = 0 that it would read as a pole.
    """
    if not (0.0 < rel_tol < 1.0):
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if not spectrum.eigenvalues:
        return 0.0
    guard = 1e-9 * (1.0 + spectrum.rho)
    for z in spectrum.eigenvalues:
        if abs(z.real) <= guard and abs(z) > guard:
            raise PurelyImaginaryEigenvalueError(z.imag)
    coeffs = spectrum.charpoly.coeffs
    zeros = next(k for k, c in enumerate(coeffs) if c)
    return _coulson_integral(coeffs[zeros:], rel_tol)
