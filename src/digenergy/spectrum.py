"""Spectra of digraphs: certified complex eigenvalues with their radius,
energy and second-moment sums, and the Coulson-type integral representation
of the energy.  The module does the floating work; the exact characteristic
polynomial and its square-free decomposition come from ``kernels``.

A spectrum is certified from its polynomial alone: every eigenvalue is a
simple root of a factor of the exact square-free decomposition of the
integer characteristic polynomial (a square-free polynomial is its own one
factor), started from its ``np.roots`` value (one stacked companion-matrix
``eigvals`` per degree and count of zero roots), refined by Aberth-Ehrlich
iteration against that exact factor, and forced into exact conjugate pairs
before any derived quantity is computed.  Pairing, sorting and the
radius, energy and moment sums are array passes over a block's ``(P, n)``
values, with the sums taken left to right.  A digraph's floating QR values
(Hessenberg reduction + implicitly shifted QR, LAPACK via numpy) serve one
check only, ``check_spreads``: when its polynomial has a repeated root,
each certified eigenvalue must lie near one of them.

The Coulson integral is an independent route to the energy: adaptive
Gauss-Legendre quadrature of its even integrand over half the path, from 16
start panels, that evaluates the integrand once per refinement level, over
all panels of that level, with a fixed panel budget.  The integrand's
points are purely imaginary, so its Horner rows run as real pairs, with
one coefficient gather per panel, and the absolute-coefficient row of the
pole guard runs only at the nodes where a pole is possible.  The level-0
nodes are the same for every polynomial, and are computed once.

Both layers work on stacks, for a block of digraphs of one order
(``certify_spectra`` and ``coulson_energies``), once per distinct
polynomial: one Aberth call per degree refines the distinct square-free
factors of all of them, one ``qr_values`` call and one stacked distance
array check the members with a repeated-root polynomial
(``check_spreads``), and one quadrature, after one pole-guard mask per
order, integrates every distinct polynomial of the block.  Each row of a
stack gets the bits it gets alone, so a spectrum does not depend on which
digraph, block or run it came from, and ``eigenvalues`` and
``coulson_energy`` are the blocks of one.

The work done per distinct polynomial (its exact roots, certified spectrum
and Coulson integral) and per distinct square-free factor (its refined
roots) is kept in a ``Memo`` that the caller owns: one per
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

    ``factors`` holds the refined roots of each square-free factor, a
    square-free polynomial being its own one factor, so that a certified
    polynomial is a key of it iff it has no repeated root; ``spectra`` the
    spectrum certified for a polynomial from its factors' roots (a
    rejected one is not kept), and ``integrals`` the Coulson integral,
    keyed on ``(coeffs, rel_tol)`` (a pole is not kept).
    What it holds depends only on the polynomials, so a hit gives the bits
    a fresh ``Memo`` gives.
    It is never trimmed: it holds one entry per distinct polynomial, and
    per distinct factor, of the run.
    """

    factors: dict = field(default_factory=dict)
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
    desc = np.array(rows, dtype=float).reshape(len(rows), width)[:, ::-1]
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
    dp_steps = _horner_steps([kernels._deriv(row) for row in rows], m)
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


def _eigvals(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of a matrix, or of each matrix of a ``(K, m, m)``
    stack, from one LAPACK Hessenberg QR call, as complex, bit for bit
    those of the per-matrix ``eigvals``: values that are all real have
    +0.0 imaginary parts, as the per-matrix call returns them."""
    values = np.linalg.eigvals(a).astype(complex)
    values.imag[(values.imag == 0.0).all(axis=-1)] = 0.0
    return values


def _root_starts(rows: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The ``np.roots`` values of each square-free factor of ``rows``
    (monic, ascending integers, all of one degree m) as a ``(K, m)``
    complex array, bit for bit.  For each count k of zero roots, one
    stacked ``eigvals`` (see ``_eigvals``) takes the companion matrices
    that ``np.roots`` builds for those rows, from the descending float
    coefficients p without their k zeros: ones below the diagonal and
    -p[1:] / p[0] in the first row; the k zeros follow."""
    m = len(rows[0]) - 1
    zeros = [kernels._zero_roots(f) for f in rows]
    starts = np.zeros((len(rows), m), dtype=complex)
    for k in sorted(set(zeros)):
        at, d = [i for i, z in enumerate(zeros) if z == k], m - k
        desc = np.array([rows[i][k:] for i in at], dtype=float)[:, ::-1]
        companion = np.zeros((len(at), d, d))
        companion[:, np.arange(1, d), np.arange(d - 1)] = 1.0
        companion[:, :1] = -desc[:, None, 1:] / desc[:, None, :1]
        starts[at, :d] = _eigvals(companion)
    return starts


def _factor_roots(factors: Iterable[tuple[int, ...]], refined: dict) -> None:
    """Store in ``refined`` the roots of each square-free factor it lacks:
    its ``np.roots`` values (``_root_starts``) refined against the exact
    factor, one Aberth call per degree.  A factor refines alone as in any
    stack, so what is stored does not depend on which factors share the
    call."""
    by_degree: dict[int, list] = {}
    for factor in dict.fromkeys(factors):
        if factor not in refined:
            by_degree.setdefault(len(factor) - 1, []).append(factor)
    for rows in by_degree.values():
        refined.update(zip(rows, _aberth_refine(rows, _root_starts(rows))))


def _exact_roots(polys: Sequence[tuple[int, ...]], memo: Memo) -> list[tuple[complex, ...]]:
    """All the roots of each polynomial of ``polys``, each root of a
    square-free factor repeated by its multiplicity, from the refined roots
    of its factors, which are stored in ``memo.factors``.

    Each root is a simple root of its factor, so the refinement converges
    to machine precision regardless of multiplicity.  The distinct
    polynomials take one stacked decomposition
    (``kernels.square_free_decompositions``), and their factors that
    ``memo.factors`` lacks are refined together.
    """
    new = list(dict.fromkeys(polys))
    decomps = dict(zip(new, kernels.square_free_decompositions(new) if new else []))
    _factor_roots((f for dec in decomps.values() for f, _ in dec), memo.factors)
    return [tuple(complex(z) for f, mult in decomps[c] for z in memo.factors[f] for _ in range(mult))
            for c in polys]


def _paired_spectra(values: np.ndarray) -> np.ndarray:
    """Each row of the ``(P, n)`` values with near-real values snapped to
    real and the others forced into exact conjugate pairs, sorted by
    (Re desc, Im desc), stably.

    A value with |Im| <= 1e-10 * (1 + max|value|) of its row is real.  The
    positive ones, in (Re, Im) order, are matched greedily: each takes the
    nearest negative one still free (the first of equals) and both become
    the mean (u + conj(w)) / 2, computed as Python's complex division
    computes it, and its conjugate.  A value left without a partner keeps
    its real part.  The rows step together, one free-partner ``argmin``
    per rank of the positive values, so a block takes at most n / 2 steps.
    """
    p, n = values.shape
    re, im = values.real, values.imag
    snap = _SNAP_REL * (1.0 + np.abs(values).max(axis=1, initial=0.0))
    real = np.abs(im) <= snap[:, None]
    pos = ~real & (im > 0.0)
    free = ~real & ~pos
    order = np.lexsort((im, re, ~pos))  # the positive values first, by (Re, Im)
    steps = np.minimum(pos.sum(axis=1), free.sum(axis=1))
    depth = int(steps.max(initial=0))
    # The distance from the conjugate of the t-th positive value to each value.
    near = values[:, None, :] - np.conj(np.take_along_axis(values, order[:, :depth], axis=1))[:, :, None]
    distance = np.hypot(near.real, near.imag)
    partner = np.zeros((p, depth), dtype=np.intp)
    for t in range(depth):
        rows = np.flatnonzero(steps > t)
        partner[rows, t] = at = np.where(free[rows], distance[rows, t], np.inf).argmin(axis=1)
        free[rows, at] = False
    rows, t = np.nonzero(np.arange(depth) < steps[:, None])
    u_at, w_at = order[rows, t], partner[rows, t]
    total = values[rows, u_at] + np.conj(values[rows, w_at])
    # (a + ib) / 2.0 is a / complex(2.0, 0.0): ((a + b * 0.0) / 2, (b - a * 0.0) / 2).
    mean_re = (total.real + total.imag * 0.0) / 2.0
    mean_im = (total.imag - total.real * 0.0) / 2.0
    out_re, out_im = re.copy(), np.zeros((p, n))
    out_re[rows, u_at] = out_re[rows, w_at] = mean_re
    out_im[rows, u_at], out_im[rows, w_at] = mean_im, -mean_im
    # Ties of the final sort keep the order of the reals, then each positive
    # value with its partner, then the unmatched negative values.
    place = np.empty_like(order)  # each value's place in ``order``
    np.put_along_axis(place, order, np.broadcast_to(np.arange(n), order.shape), axis=1)
    rank = np.where(pos, n + 2 * place, np.where(free, 3 * n, 0) + np.arange(n))
    rank[rows, w_at] = rank[rows, u_at] + 1
    out = np.empty((p, n), dtype=complex)
    out.real, out.imag = out_re, out_im
    return np.take_along_axis(out, np.lexsort((rank, -out_im, -out_re)), axis=1)


def _left_to_right_sums(terms: np.ndarray) -> np.ndarray:
    """The sums over the last axis of ``terms``, each taken left to right
    from 0.0, one column at a time: the bits of a plain float loop, which
    neither ``np.sum``'s pairwise sums nor ``sum()`` on every Python
    version give."""
    total = np.zeros(terms.shape[:-1])
    for column in np.moveaxis(terms, -1, 0):
        total += column
    return total


def qr_values(a: np.ndarray) -> np.ndarray:
    """Floating eigenvalues of an adjacency matrix, or of each matrix of a
    ``(K, n, n)`` stack, from one LAPACK Hessenberg QR call (``_eigvals``),
    bit for bit those of the per-matrix ``eigvals``; the values of a matrix
    are the last axis of the result.  A symmetric matrix is normal, so its
    values too lie within about eps * ||A|| of its eigenvalues.
    """
    try:
        return _eigvals(np.asarray(a, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration failed: {exc}") from exc


def unwrap(outcome):
    """One member's result of a stacked call: its value, or the exception
    stored in its place, raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def certify_spectra(polys: Sequence[CharPoly], memo: Memo) -> list:
    """The certified spectrum of each of ``polys``, exact characteristic
    polynomials of one degree n, or in its place the EigensolverError that
    rejects it (see ``eigenvalues``).

    Each polynomial that ``memo.spectra`` lacks is decomposed and
    certified once, from the refined roots of its exact square-free factors
    (``_exact_roots``), whatever digraph it came from.  A spectrum that
    passes the residual gate is stored; a rejected one is not.  The
    spectrum is the polynomial's alone: a digraph's QR values are checked
    against it after (``check_spreads``).
    """
    n = len(polys[0].coeffs) - 1
    coeffs = [p.coeffs for p in polys]
    outcomes: list = [memo.spectra.get(c) for c in coeffs]
    new = [p for p, s in enumerate(outcomes) if s is None]
    roots = dict(zip(new, _exact_roots([coeffs[p] for p in new], memo)))
    for p, r in roots.items():
        if len(r) != n:
            outcomes[p] = EigensolverError(
                f"square-free decomposition yielded {len(r)} roots, expected {n}")
    todo = [p for p, s in enumerate(outcomes) if s is None]
    at = _paired_spectra(np.array([roots[p] for p in todo], dtype=complex).reshape(len(todo), n))
    steps = _horner_steps([coeffs[p] for p in todo], n + 1)
    residuals = np.abs(_polyval_rows(steps, at)).max(axis=1, initial=0.0)
    rho = np.hypot(at.real, at.imag).max(axis=1, initial=0.0)
    sums = _left_to_right_sums(np.stack([np.abs(at.real), at.real * at.real, at.imag * at.imag]))
    for p, vals, residual, r, (energy, sum_re_sq, sum_im_sq) in zip(
            todo, at.tolist(), residuals.tolist(), rho.tolist(), sums.T.tolist()):
        if residual > _RESIDUAL_GATE * (1.0 + r) ** n:
            outcomes[p] = EigensolverError(
                f"eigenvalue residual {residual:.3e} exceeds gate for n={n}", partial=tuple(vals))
            continue
        outcomes[p] = memo.spectra[coeffs[p]] = Spectrum(
            eigenvalues=tuple(vals), rho=r, energy=energy, sum_re_sq=sum_re_sq, sum_im_sq=sum_im_sq,
            charpoly=polys[p])
    return outcomes


def check_spreads(spectra: Sequence, adjacency: np.ndarray, memo: Memo) -> list:
    """The outcomes ``spectra`` of the digraphs with the ``(K, n, n)``
    adjacency stack ``adjacency`` (a ``Spectrum`` from
    ``certify_spectra`` on ``memo``, or the exception in its place), with
    the EigensolverError of each digraph whose QR values miss its spectrum
    in place of that spectrum.

    A certified spectrum whose polynomial has a repeated root (is not a key
    of ``memo.factors``) is checked against the digraph's own QR values:
    each of its eigenvalues must lie within 1e-2 * (1 + rho) of one of
    them.  Those digraphs alone take QR values, in one ``qr_values`` call,
    and one ``(M, n, n)`` distance array gives each spread bit for bit as a
    digraph alone gets it.  A rejected spectrum keeps its own error.
    """
    out = list(spectra)
    at = [k for k, s in enumerate(spectra) if isinstance(s, Spectrum) and s.charpoly.coeffs not in memo.factors]
    if at:
        certified = np.array([spectra[k].eigenvalues for k in at], dtype=complex)
        limit = 1e-2 * (1.0 + np.array([spectra[k].rho for k in at]))
        spread = np.abs(qr_values(adjacency[at])[:, None, :] - certified[:, :, None]).min(axis=2).max(axis=1)
        for i in np.flatnonzero(spread > limit).tolist():
            out[at[i]] = EigensolverError(f"QR values and exact-polynomial roots disagree by {spread[i]:.3e}",
                                          partial=spectra[at[i]].eigenvalues)
    return out


def eigenvalues(poly: CharPoly, a: np.ndarray) -> Spectrum:
    """All n eigenvalues of a digraph with certified backward error, from
    its exact characteristic polynomial ``poly`` and its ``(n, n)``
    adjacency matrix ``a``: ``certify_spectra`` and ``check_spreads`` on a
    block of one, with a fresh ``Memo``.

    The spectrum depends on the polynomial alone: every eigenvalue is a
    simple root of an exact square-free factor, from its ``np.roots``
    start refined by Aberth-Ehrlich iteration against that factor, which
    also sidesteps the sqrt(eps) accuracy floor of polishing multiple roots
    on the full polynomial.  The values are paired into exact conjugates
    and rejected (EigensolverError) if any residual |phi(z)| exceeds the
    gate of 1e-6 * (1 + rho)^n; in practice residuals sit far below 1e-8
    after refinement.  With a repeated root, each eigenvalue must also lie
    near one of the QR values of ``a`` (``check_spreads``); they play no
    other part.
    """
    n = len(poly.coeffs) - 1
    if np.shape(a) != (n, n):
        raise ValueError(f"a degree-{n} polynomial needs an ({n}, {n}) adjacency matrix, got {np.shape(a)}")
    memo = Memo()
    return unwrap(check_spreads(certify_spectra([poly], memo), np.asarray(a)[None], memo)[0])


# --- Coulson-type integral ---------------------------------------------------

# The 8- and 16-node Gauss-Legendre rules on (-1, 1), (nodes, weights), bit
# for bit those of numpy.polynomial.legendre.leggauss(8) and leggauss(16).
_GL_LO = (
    np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
              0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362]),
    np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
              0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]),
)
_GL_HI = (
    np.array([-0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
              -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
              0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
              0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499]),
    np.array([0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
              0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
              0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
              0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176]),
)
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
# Panels of one level whose nodes go to the integrand in one call: 4,608
# nodes, whose temporaries take about 0.5 MB at n = 10 however many
# polynomials share the quadrature.  It must be a multiple of the 16
# level-0 panels (see ``_level_synchronous_gl``).  A quadrature of 200
# random n = 10 digraphs (p = 0.3) peaks at 1.08 MB of Python allocations
# and takes 14.7-18.2 ms, against 0.72 MB and 16.6-19.7 ms with 96 panels,
# 1.83 MB and 16.5-21.4 ms with 384, and 0.55 MB and 20.2-27.3 ms with 48
# (medians of 6 interleaved passes over 10 such blocks in each of two runs,
# 2-vCPU x86_64 host, numpy 2.4).
_CHUNK_PANELS = 192


def _nodes(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the integrand reads of a ``(P, m)`` array of abscissae x: x,
    the mask of |x| > 1, the imaginary part y of its point +-0 + iy (ix,
    or u = 1/(ix) where |x| > 1) and the weight 1 + x^2 of dx/dtheta."""
    large = ~(np.abs(x) <= 1.0)
    z = 1j * x
    np.divide(1.0, z, out=z, where=large)  # u = 1/(ix) where |x| > 1
    return x, large, z.imag, 1.0 + x * x


class _Integrand:
    """Real integrands of the energy integrals of a stack of polynomials,
    after x = tan(theta).

    With phi monic of degree n, n - i x phi'(ix)/phi(ix) equals
    N(ix)/phi(ix) where N(y) = sum_{k<n} (n - k) a_k y^k has degree
    <= n - 2, so the ratio decays like 1/x^2 without a subtraction.  For
    |x| > 1 the reversed polynomials are evaluated in u = 1/(ix): the
    ascending coefficient array of phi doubles as the descending array of
    phi(ix)/(ix)^n, and that of N with a trailing zero (a factor u) as the
    array of N(ix)/(ix)^n, which keeps every evaluation free of overflow.

    The point z = ix or u is purely imaginary, +-0 + iy, so the Horner
    step acc * z + c of ``np.polyval`` with a real coefficient c is, bit
    for bit but for the sign of an exact zero, the real pair step
    (re, im) <- (c - im * y, re * y).  Each node runs that step for phi
    and N together, with the rows of its own polynomial and branch,
    descending for |x| <= 1 and ascending for |x| > 1; rows are padded to
    one length with leading zeros, which keep the pair at zero until the
    first coefficient.  When every row of nodes of a call lies on one
    branch, as in every call of the quadrature unless a panel straddles
    |x| = 1, each row gathers its coefficients once, for all steps; else
    each node does.

    The pole guard |phi| <= 1e-13 * s, with s the polynomial of phi's
    absolute coefficients at |y|, needs s only where |phi| <= 1e-13 * 2
    sum |a_k|: at |y| <= 1 the computed s is at most sum |a_k| (1 + eps)^n,
    so no other node can pass the guard.  So s runs only at those nodes,
    in real arithmetic, as ``np.polyval`` runs it, and every value, guard
    decision and pole abscissa is bit for bit what three ``np.polyval``
    calls per branch give.

    Every phi must have phi(0) != 0 (see ``coulson_energy``), so that the
    absolute-coefficient scale is at least 1 on both branches and every
    small |phi(ix)| is a pole, i.e. an eigenvalue on the imaginary axis.
    """

    def __init__(self, polys: Sequence[Sequence[int]]):
        self.count = k = len(polys)
        width = max(len(coeffs) for coeffs in polys)
        # Row j < K holds phi (0) and N (1) of polynomial j for |x| <= 1,
        # row K + j for |x| > 1.
        rows = np.zeros((2, 2 * k, width))
        by_degree: dict[int, list[int]] = {}
        for j, coeffs in enumerate(polys):
            by_degree.setdefault(len(coeffs) - 1, []).append(j)
        for n, at in by_degree.items():
            exact = np.array([polys[j] for j in at], dtype=object).reshape(len(at), n + 1)
            den = exact.astype(float)
            num = (exact[:, :n] * np.arange(n, 0, -1).astype(object)).astype(float)
            at = np.array(at)
            rows[0, at, width - n - 1:] = den[:, ::-1]
            rows[1, at, width - n:] = num[:, ::-1]
            rows[0, k + at, width - n - 1:] = den
            rows[1, k + at, width - n - 1:width - 1] = num
        self.steps = rows.transpose(2, 0, 1).copy()  # (width, 2, 2K): one (2, 2K) table per step
        absolute = np.abs(rows[0])
        self.scale_steps = absolute.T  # (width, 2K)
        self.limit = _POLE_REL * (2.0 * absolute.sum(axis=1))

    def __call__(self, nodes: tuple[np.ndarray, ...], poly: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The integrand of polynomial ``poly[i]`` at each node ``[i, j]``
        of the ``(P, m)`` arrays ``nodes`` (see ``_nodes``), the abscissae
        x, and the mask of the nodes where |phi(ix)| reads as a pole (their
        values are void)."""
        x, large, y, weight = nodes
        column = poly[:, None] + self.count * large
        if (large == large[:, :1]).all():
            column = column[:, :1]
        den, num = self.pair(y, column)
        size = np.abs(den)
        # The candidates; the scale row decides which of them are poles.
        pole = ~(size > self.limit.take(column, mode="clip"))
        if pole.any():
            at = np.nonzero(pole)
            rows = self.scale_steps.take(np.broadcast_to(column, pole.shape)[at], axis=1, mode="clip")
            pole[at] = size[at] <= _POLE_REL * _polyval_rows(rows, np.abs(y[at]))
            np.copyto(den, 1.0, where=pole)
        return (num / den).real * weight, x, pole

    def pair(self, y: np.ndarray, column: np.ndarray) -> np.ndarray:
        """phi and N, as a ``(2, P, m)`` complex array, at the points
        +-0 + iy of a ``(P, m)`` array with the rows ``column``, ``(P, 1)``
        or ``(P, m)``.  The Horner pair runs node-major, on ``(m, 2, P)``
        arrays, so that a step's coefficients broadcast over one axis."""
        steps = self.steps.take(column.T, axis=-1, mode="clip").swapaxes(1, 2)
        ys = np.empty((y.shape[1], 2, y.shape[0]))
        ys[...] = y.T[:, None]
        im = np.zeros(ys.shape)
        re = im + steps[0]
        for c in steps[1:]:
            im *= ys
            np.subtract(c, im, out=im)
            re *= ys
            re, im = im, re
        pair = np.empty((2, *y.shape), dtype=complex)
        pair.real, pair.imag = re.transpose(1, 2, 0), im.transpose(1, 2, 0)
        return pair


def _level_synchronous_gl(f: _Integrand, b: float, rel_tol: float) -> list:
    """Integral of each even integrand of ``f`` (one at least) over
    (-b, b): twice an adaptive Gauss-Legendre quadrature over (0, b), one
    refinement level at a time for all of them.  Returns, per polynomial,
    the integral or the PurelyImaginaryEigenvalueError that stopped it.

    Level 0 is 16 equal panels of (0, b) per polynomial, depth 4 of a
    binary tree whose depth-0 panels are the halves of (-b, b); their
    doubled 16-node sums estimate the integral and set the polynomial's
    tol0 = 0.25 * rel_tol * max(1, |estimate|).  A panel at depth k is
    accepted when its 8- and 16-node sums agree within tol0 / 2^k, a
    tolerance set by its width alone, or at depth ``_MAX_DEPTH``; every
    other panel is split in two for the next level.  Each panel carries the
    index of its polynomial, and the panels of one polynomial keep the
    order they have in a quadrature of their own.  The nodes of a level go
    to f ``_CHUNK_PANELS`` panels at a time, one row per panel, and each
    rule's panel sums are one row-wise sum, bit-identical to a panel
    evaluated on its own.  Every polynomial has the same 16 level-0 panels,
    so their ``_nodes`` are computed once per quadrature.  The accepted
    16-node sums are added pairwise in the order of the panel tree, sibling
    by sibling, and each polynomial's 16 level-0 totals by one row-wise sum
    over all polynomials (numpy's pairwise sum of each contiguous row, as
    ``np.sum`` of that row alone), so no result depends on which
    polynomials share the call.

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
    # Every polynomial starts from the same 16 panels, and a chunk of level 0
    # holds whole polynomials (``_CHUNK_PANELS`` is a multiple of 16), so
    # every chunk of level 0 reads the first rows of one tiled node array.
    theta0 = 0.5 * (edges[:-1] + edges[1:])[:, None] + 0.5 * (edges[1:] - edges[:-1])[:, None] * nodes
    level0 = tuple(np.tile(a, (min(_CHUNK_PANELS // start, f.count), 1)) for a in _nodes(np.tan(theta0)))
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
            if levels:
                at = _nodes(np.tan(mids[chunk, None] + halves[chunk, None] * nodes))
            else:
                at = tuple(a[:len(halves[chunk])] for a in level0)
            values, x, pole = f(at, owner[chunk])
            coarse[chunk] = halves[chunk] * (values[:, :n_lo] * lo_weights).sum(axis=1)
            fine[chunk] = halves[chunk] * (values[:, n_lo:] * hi_weights).sum(axis=1)
            if pole.any():
                for i, j in np.argwhere(pole).tolist():
                    k, abscissa = int(owner[lo + i]), float(x[i, j])
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
    sums = levels[-1][0]
    for fine, accepted in reversed(levels[:-1]):
        total = fine.copy()
        total[~accepted] = sums[0::2] + sums[1::2]
        sums = total
    totals = sums.reshape(f.count, start).sum(axis=1)
    return [2.0 * float(total) if outcome is None else outcome for total, outcome in zip(totals, outcomes)]


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
    by_order: dict[int, list[int]] = {}
    for i, spec in enumerate(spectra):
        by_order.setdefault(len(spec.eigenvalues), []).append(i)
    by_order.pop(0, None)  # the empty spectrum has energy 0
    poles: dict[int, float] = {}  # the first eigenvalue on the axis, by spectrum
    for n, members in by_order.items():
        z = np.array([spectra[i].eigenvalues for i in members], dtype=complex).reshape(len(members), n)
        guard = 1e-9 * (1.0 + np.array([spectra[i].rho for i in members]))[:, None]
        pole = (np.abs(z.real) <= guard) & (np.hypot(z.real, z.imag) > guard)
        first = z[np.arange(len(members)), pole.argmax(axis=1)].imag
        poles.update((i, x) for i, hit, x in zip(members, pole.any(axis=1).tolist(), first.tolist()) if hit)
    for i, spec in enumerate(spectra):
        if i in poles:
            out[i] = PurelyImaginaryEigenvalueError(poles[i])
        elif spec.eigenvalues:
            coeffs = spec.charpoly.coeffs
            polys[i] = coeffs[kernels._zero_roots(coeffs):]
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
