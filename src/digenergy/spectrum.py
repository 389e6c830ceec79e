"""Spectra of digraphs: exact characteristic polynomials, certified complex
eigenvalues, spectral radius, energy, moment identities, and the
Coulson-type integral representation of the energy.

The floating eigenvalues come from Hessenberg reduction + implicitly shifted
QR (LAPACK via numpy), are refined by Aberth-Ehrlich iteration against the
exact integer characteristic polynomial, and are forced into exact conjugate
pairs before any derived quantity is computed.

The Coulson integral is an independent route to the energy: adaptive
Gauss-Legendre quadrature that evaluates the integrand once per refinement
level, over all panels of that level, with a fixed panel budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .digraph import Digraph, adjacency_matrix, walk_profile
from .errors import EigensolverError, PurelyImaginaryEigenvalueError

# Eigenvalues with |Im| below this (scaled by 1 + rho) are snapped to real.
_SNAP_REL = 1e-10
# Residual gate |phi(z)| / (1 + rho)^n above which the solver result is rejected.
_RESIDUAL_GATE = 1e-6
# Entries of each memo.  Exhaustive n=5 has 718 distinct characteristic
# polynomials, so one exhaustive run never evicts from the memos keyed on
# coefficients; the charpoly memo, keyed on the adjacency, holds all 4,096
# digraphs of n=4.
_MEMO_SIZE = 4096
# The prime modulus of the square-free certificate (a Mersenne prime).
_CERT_PRIME = 2 ** 61 - 1


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients ascending.

    ``coeffs[k]`` multiplies x**k and ``coeffs[degree] == 1``.
    """

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


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


@dataclass(frozen=True)
class MomentIdentities:
    """Spectral moment sums and their gaps against the walk counts.

    ``c2_residual`` is (sum Re^2 - sum Im^2) - c2 (identically ~0) and
    ``arc_slack`` is a - (sum Re^2 + sum Im^2) (non-negative up to noise).
    """

    sum_re_sq: float
    sum_im_sq: float
    c2_residual: float
    arc_slack: float


def characteristic_polynomial(d: Digraph) -> CharPoly:
    """Exact integer characteristic polynomial of the adjacency matrix.

    Computed by the Faddeev-LeVerrier recurrence; arbitrary-precision
    integers make the result exact at any order.  Memoized on the
    adjacency (``d.n``, ``d.out_masks``): the result is exact, so a hit
    returns what a cold call would.
    """
    return _charpoly_of_masks(d.n, d.out_masks)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _charpoly_of_masks(n: int, out_masks: tuple[int, ...]) -> CharPoly:
    return CharPoly(tuple(kernels.charpoly_from_masks(n, out_masks)))


def _poly_arrays(coeffs: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Descending-order float coefficient arrays for p and p'."""
    desc = np.array([float(c) for c in reversed(coeffs)])
    n = len(coeffs) - 1
    dcoeffs = np.array([float(k * c) for k, c in enumerate(coeffs)][1:][::-1])
    if n == 0:
        dcoeffs = np.zeros(1)
    return desc, dcoeffs


def _aberth_refine(coeffs: Sequence[int], roots: np.ndarray, max_sweeps: int = 24) -> np.ndarray:
    """Simultaneous Newton-style refinement of all roots of the exact
    polynomial, accepting a correction only when it reduces |p(z)|."""
    n = len(roots)
    if n == 0:
        return roots
    p_desc, dp_desc = _poly_arrays(coeffs)
    z = roots.astype(complex).copy()
    scale = 1.0 + float(np.max(np.abs(z)))
    pz = np.polyval(p_desc, z)
    for _ in range(max_sweeps):
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


# --- exact square-free decomposition (Yun's algorithm over rationals) -------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_deriv(p: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def _frac_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = a[k + len(b) - 1] * inv_lead
        q[k] = coeff
        if coeff:
            for j in range(len(b)):
                a[k + j] -= coeff * b[j]
    return _trim(q), _trim(a[: len(b) - 1])


def _frac_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        _, r = _frac_divmod(a, b)
        a, b = b, r
    if not a:
        return [Fraction(1)]
    lead = a[-1]
    return [c / lead for c in a]


def _frac_to_int_primitive(p: list[Fraction]) -> tuple[int, ...]:
    denom = math.lcm(*(c.denominator for c in p))
    ints = [int(c * denom) for c in p]
    g = math.gcd(*(abs(c) for c in ints))
    if g:
        ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _coprime_to_derivative_mod_q(coeffs: Sequence[int]) -> bool:
    """Whether gcd(p mod q, p' mod q) is a nonzero constant, q = 2^61 - 1.

    Euclid's algorithm over the field Z/qZ, on ascending coefficient lists.
    """
    q = _CERT_PRIME
    a = _trim([c % q for c in coeffs])
    b = _trim([k * c % q for k, c in enumerate(coeffs)][1:])
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
    with every factor square-free; Yun's algorithm over exact rationals.

    A trivial gcd(p, p') modulo the prime q = 2^61 - 1 certifies at once
    that p is square-free: a repeated factor f^2 of a monic integer p can be
    taken monic and integral (Gauss's lemma), so it stays a repeated factor
    of the same degree mod q and divides p' mod q.  Only a nontrivial gcd
    mod q (a repeated root, or q dividing the discriminant) runs Yun.

    A factor x^k with k >= 2 (zero eigenvalues, common in sparse digraphs)
    is split off exactly first and the certificate is run on the monic
    cofactor c: when c is square-free the result is Yun's own
    ``[(c, 1), (x, k)]``, or ``[(x, n)]`` for p = x^n.
    """
    coeffs = tuple(coeffs)
    k = next(i for i, c in enumerate(coeffs) if c)
    if k < 2:
        if len(coeffs) <= 2 or _coprime_to_derivative_mod_q(coeffs):
            return [(coeffs, 1)]
    elif k == len(coeffs) - 1:
        return [((0, 1), k)]
    elif len(coeffs) - k <= 2 or _coprime_to_derivative_mod_q(coeffs[k:]):
        return [(coeffs[k:], 1), ((0, 1), k)]
    p = [Fraction(c) for c in coeffs]
    dp = _frac_deriv(p)
    g = _frac_gcd(p, dp)
    if len(g) == 1:
        return [(coeffs, 1)]
    b, _ = _frac_divmod(p, g)
    c, _ = _frac_divmod(dp, g)
    d = _trim([x - y for x, y in
               zip(c + [Fraction(0)] * len(b), _frac_deriv(b) + [Fraction(0)] * len(c))])
    out = []
    mult = 1
    while len(b) > 1:
        a = _frac_gcd(b, d)
        if len(a) > 1:
            out.append((_frac_to_int_primitive(a), mult))
        b, _ = _frac_divmod(b, a)
        c, _ = _frac_divmod(d, a)
        d = _trim([x - y for x, y in
                   zip(c + [Fraction(0)] * len(b), _frac_deriv(b) + [Fraction(0)] * len(c))])
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


def _qr_values(d: Digraph) -> np.ndarray:
    """Floating eigenvalues of the adjacency matrix from LAPACK: the
    symmetric solver for symmetric digraphs, Hessenberg QR otherwise."""
    a = adjacency_matrix(d).astype(float)
    try:
        if d.is_symmetric:
            return np.linalg.eigvalsh(a).astype(complex)
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed: {exc}") from exc


def _check_spread(qr: np.ndarray, repeated: tuple[complex, ...]) -> None:
    """Raise EigensolverError unless every exact root lies within
    1e-2 * (1 + rho) of one of the digraph's QR values."""
    exact = np.array(repeated, dtype=complex)
    spread = max(float(np.min(np.abs(qr - z))) for z in exact)
    if spread > 1e-2 * (1.0 + float(np.max(np.abs(exact)))):
        raise EigensolverError(
            f"QR values and exact-polynomial roots disagree by {spread:.3e}",
            partial=repeated,
        )


def eigenvalues(d: Digraph, poly: Optional[CharPoly] = None,
                certified: Optional[Spectrum] = None) -> Spectrum:
    """All n eigenvalues with certified backward error.

    QR eigenvalues are refined against the exact characteristic polynomial
    and rejected (EigensolverError) if any residual |phi(z)| exceeds the
    gate of 1e-6 * (1 + rho)^n; in practice residuals sit far below 1e-8
    after refinement.  ``poly``, when given, must be
    ``characteristic_polynomial(d)``; it saves recomputing it.

    ``certified``, when given, must be a spectrum this function returned
    for another digraph with the same characteristic polynomial; it is
    returned in place of a new one.  With a repeated root, this digraph's
    QR values are still checked against the exact roots first; a
    square-free spectrum needs no numeric work.  Refinement starts from
    the QR values, so a spectrum certified for another digraph can differ
    from this digraph's own in the last bits.
    """
    n = d.n
    if n == 0:
        return Spectrum((), 0.0, 0.0, 0.0, 0.0, CharPoly((1,)))
    if poly is None:
        poly = characteristic_polynomial(d)
    repeated = _repeated_roots(poly.coeffs)
    if certified is not None:
        if repeated is not None:
            _check_spread(_qr_values(d), repeated)
        return certified
    vals = _qr_values(d)
    if repeated is None:
        # Square-free spectrum: refine the QR values directly.
        vals = _aberth_refine(poly.coeffs, vals)
    else:
        # Repeated eigenvalues: every root is simple inside its square-free
        # factor, which sidesteps the sqrt(eps) accuracy floor of polishing
        # multiple roots on the full polynomial.  The QR values stay as a
        # consistency reference.
        _check_spread(vals, repeated)
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


def spectral_radius(d: Digraph) -> float:
    """Maximum modulus over all eigenvalues."""
    return eigenvalues(d).rho


def energy(d: Digraph) -> float:
    """Sum of |Re z| over the eigenvalues; equals the usual graph energy
    when the digraph is the symmetric digraph of a graph."""
    return eigenvalues(d).energy


def moment_identities(d: Digraph) -> MomentIdentities:
    """Moment sums against the walk counts: the sign-split second moments
    satisfy sum Re^2 - sum Im^2 = c2 and sum Re^2 + sum Im^2 <= a."""
    spec = eigenvalues(d)
    prof = walk_profile(d)
    return MomentIdentities(
        sum_re_sq=spec.sum_re_sq,
        sum_im_sq=spec.sum_im_sq,
        c2_residual=(spec.sum_re_sq - spec.sum_im_sq) - prof.c2_total,
        arc_slack=prof.a - (spec.sum_re_sq + spec.sum_im_sq),
    )


# --- Coulson-type integral ---------------------------------------------------

_GL_LO = np.polynomial.legendre.leggauss(8)
_GL_HI = np.polynomial.legendre.leggauss(16)
_POLE_REL = 1e-13
# Depth at which a panel (width pi / 2^49) is accepted whatever its error.
_MAX_DEPTH = 48
# Panels one quadrature may evaluate.  Polynomials from the harness and from
# `analyze` use at most about 100; only a pole between the nodes, which
# refinement never resolves, comes near this.
_MAX_PANELS = 2048


class _Integrand:
    """Real integrand of the energy integral, after x = tan(theta).

    With phi monic of degree n, n - i x phi'(ix)/phi(ix) equals
    N(ix)/phi(ix) where N(y) = sum_{k<n} (n - k) a_k y^k has degree
    <= n - 2, so the ratio decays like 1/x^2 with no cancellation.  For
    |x| > 1 the reversed polynomials are evaluated in u = 1/(ix): the
    ascending coefficient array of phi doubles as the descending array of
    phi(ix)/(ix)^n, and likewise for N, which keeps every evaluation free
    of overflow.

    phi must have phi(0) != 0 (see ``coulson_energy``), so that the
    absolute-coefficient scale is at least 1 on both branches and every
    small |phi(ix)| is a pole, i.e. an eigenvalue on the imaginary axis.
    """

    def __init__(self, coeffs: Sequence[int]):
        n = len(coeffs) - 1
        self.n = n
        num = [(n - k) * c for k, c in enumerate(coeffs)][:n] or [0]
        self.num_asc = np.array([float(c) for c in num])
        self.den_asc = np.array([float(c) for c in coeffs])
        self.num_desc = self.num_asc[::-1].copy()
        self.den_desc = self.den_asc[::-1].copy()
        self.abs_den_desc = np.abs(self.den_desc)
        self.abs_den_asc = np.abs(self.den_asc)

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        x = np.tan(theta)
        out = np.empty_like(x)
        small = np.abs(x) <= 1.0
        if np.any(small):
            xs = x[small]
            y = 1j * xs
            den = np.polyval(self.den_desc, y)
            num = np.polyval(self.num_desc, y)
            scale = np.polyval(self.abs_den_desc, np.abs(xs))
            self._guard(den, scale, xs)
            out[small] = (num / den).real * (1.0 + xs * xs)
        if np.any(~small):
            xl = x[~small]
            u = 1.0 / (1j * xl)
            den = np.polyval(self.den_asc, u)   # phi(ix) / (ix)^n
            num = np.polyval(self.num_asc, u)   # N(ix) / (ix)^(n-1)
            scale = np.polyval(self.abs_den_asc, np.abs(u))
            self._guard(den, scale, xl)
            ratio = (num * u) / den             # restores the degree gap of one
            out[~small] = ratio.real * (1.0 + xl * xl)
        return out

    def _guard(self, den: np.ndarray, scale: np.ndarray, x: np.ndarray) -> None:
        bad = np.abs(den) <= _POLE_REL * scale
        if np.any(bad):
            raise PurelyImaginaryEigenvalueError(float(x[bad][0]))


def _panel_sums(weights: np.ndarray, values: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sums of the panels whose node values are the rows of
    ``values``.  One ``np.dot`` per row keeps each sum bit-identical to a
    panel evaluated on its own, whatever the number of panels."""
    return halves * np.array([np.dot(weights, row) for row in values])


def _level_synchronous_gl(f, a: float, b: float, rel_tol: float) -> float:
    """Adaptive Gauss-Legendre quadrature of f over (a, b), one refinement
    level at a time.

    The halves of (a, b) form level 0.  A panel is accepted when its 8- and
    16-node sums agree within the tolerance of its level, or at depth
    ``_MAX_DEPTH``; every other panel is split in two for the next level,
    with the tolerance halved.  Level 0 starts from
    ``0.25 * rel_tol * max(1, |16-node sum over (a, b)|)``.  All nodes of a
    level go to f in one call.  The accepted 16-node sums are added
    pairwise in the order of the binary panel tree, sibling by sibling, so
    the result does not depend on how many panels share a call.

    Raises PurelyImaginaryEigenvalueError when the next level would take
    the panel count past ``_MAX_PANELS``, at the midpoint of the panel of
    the last level (all of its panels are equally narrow) whose two sums
    disagree most: a pole between the nodes keeps refinement going there.
    """
    lo_nodes, lo_weights = _GL_LO
    hi_nodes, hi_weights = _GL_HI
    nodes = np.concatenate([lo_nodes, hi_nodes])
    n_lo = len(lo_nodes)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    estimate = half * float(np.dot(hi_weights, f(mid + half * hi_nodes)))
    tol = 0.25 * rel_tol * max(1.0, abs(estimate))
    left, right = np.array([a, mid]), np.array([mid, b])
    levels: list[tuple[np.ndarray, np.ndarray]] = []  # (fine sums, accepted) per level
    panels = 0
    depth = 0
    while True:
        mids = 0.5 * (left + right)
        halves = 0.5 * (right - left)
        values = f((mids[:, None] + halves[:, None] * nodes).ravel()).reshape(len(mids), -1)
        coarse = _panel_sums(lo_weights, values[:, :n_lo], halves)
        fine = _panel_sums(hi_weights, values[:, n_lo:], halves)
        error = np.abs(fine - coarse)
        accepted = (error <= tol) | (depth >= _MAX_DEPTH)
        levels.append((fine, accepted))
        panels += len(mids)
        split = ~accepted
        if not split.any():
            break
        if panels + 2 * int(split.sum()) > _MAX_PANELS:
            worst = int(np.argmax(np.where(split, error, -1.0)))
            raise PurelyImaginaryEigenvalueError(float(np.tan(mids[worst])))
        left = np.stack([left[split], mids[split]], axis=1).ravel()
        right = np.stack([mids[split], right[split]], axis=1).ravel()
        tol /= 2.0
        depth += 1
    sums = levels[-1][0]
    for fine, accepted in reversed(levels[:-1]):
        total = fine.copy()
        total[~accepted] = sums[0::2] + sums[1::2]
        sums = total
    return float(sums[0] + sums[1])


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _coulson_integral(coeffs: tuple[int, ...], rel_tol: float) -> float:
    """The energy integral of the polynomial ``coeffs`` (ascending, exact,
    monic, nonzero constant term); memoized like ``_repeated_roots``."""
    half_pi = math.pi / 2.0
    return _level_synchronous_gl(_Integrand(coeffs), -half_pi, half_pi, rel_tol) / math.pi


def coulson_energy(spectrum: Spectrum, rel_tol: float = 1e-6) -> float:
    """Energy via the integral (1/pi) * int (n - i x phi'(ix)/phi(ix)) dx,
    with phi the characteristic polynomial ``spectrum`` was certified against.

    Evaluated with the substitution x = tan(theta) and adaptive
    Gauss-Legendre panels on (-pi/2, pi/2), one refinement level at a time
    (see ``_level_synchronous_gl``).  Raises PurelyImaginaryEigenvalueError
    when an eigenvalue sits on the imaginary axis away from zero (the
    integrand then has a pole on the path): found on the spectrum, at a node
    of the quadrature, or when refinement near the pole uses up
    ``_MAX_PANELS``.  The empty spectrum has energy 0.

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
