"""Per-digraph analysis and the exhaustive and randomized verification
harness.

``Analysis`` memoizes every quantity of one digraph (profile, spectrum,
bounds, equality verdicts, Coulson integral) and is the one record that
both the ``analyze`` command and the harness read.  The harness enumerates
labeled loop-free digraphs (or samples them reproducibly) in blocks whose
numeric layers are computed as stacked arrays, evaluates a registry of
named checks on the ``Analysis`` of each digraph, and reports every
violation with the offending digraph serialized in the edge-list format.
The checks recompute each bound formula inline from profile integers, so a
drifted formula in ``bounds`` is caught directly and not merely when an
inequality happens to invert.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import kernels
from .digraph import (
    MAX_VERTICES,
    Digraph,
    adjacency_matrices,
    cycle_arc_reduction,
    geometric_symmetrization,
    serialize_edge_list,
    walk_profile,
)
from .errors import BoundInapplicableError, PurelyImaginaryEigenvalueError, UnknownCheckError
from .spectrum import CharPoly, Memo, Spectrum, certify_spectra, coulson_energies, qr_values, unwrap
from .structure import equality_verdict_energy_upper, equality_verdict_rho_lower

EXHAUSTIVE_MAX_N = 5
RANDOM_MAX_N = 12
IFF_TOL = 1e-7
PIN_TOL = 1e-12
# Digraphs per block of the harness: each block computes its exact and
# floating layers as stacked arrays.  Blocks stay small next to a corpus
# (exhaustive n = 5 has 1,048,576 digraphs), which is never held whole.
# Blocks of 64 run verify_all(4) and random n = 10 as fast as blocks of
# 128 or 256 (within run-to-run noise on a 2-vCPU x86_64 host) and hold
# less: 200 random n = 10 digraphs peak at about 1.0 MB of Python
# allocations with blocks of 64, against 2.6 MB with blocks of 256.
BLOCK_SIZE = 64

_MASK64 = (1 << 64) - 1


def _pair_list(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """All 2^(n(n-1)) labeled loop-free digraphs, in arc-bitmask order."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration needs 1 <= n <= {EXHAUSTIVE_MAX_N}, got {n}")
    pairs = _pair_list(n)
    for mask in range(1 << len(pairs)):
        arcs = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
        yield Digraph(n, arcs)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z, state


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Each ordered pair included independently with probability p.

    Reproducible across platforms: a SplitMix64 stream seeded with ``seed``
    draws one 64-bit word per ordered pair (lexicographic order) and the
    arc is included iff the word is below floor(p * 2^64).  ``n`` is at
    most ``MAX_VERTICES``.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    threshold = int(p * (1 << 64))
    state = seed & _MASK64
    arcs = []
    for pair in _pair_list(n):
        word, state = _splitmix64(state)
        if word < threshold:
            arcs.append(pair)
    return Digraph(n, arcs)


@dataclass(frozen=True)
class Violation:
    digraph_text: str
    check: str
    lhs: float
    rhs: float
    gap: float

    def to_dict(self) -> dict:
        return {
            "digraph": self.digraph_text,
            "check": self.check,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "gap": self.gap,
        }


@dataclass
class CheckStats:
    passed: int = 0
    failed: int = 0
    skipped: int = 0


@dataclass(frozen=True)
class VerificationReport:
    n: int
    mode: str
    digraphs_checked: int
    checks_run: dict[str, CheckStats]
    violations: tuple[Violation, ...]
    bound_inapplicable: tuple[str, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "mode": self.mode,
            "digraphs_checked": self.digraphs_checked,
            "checks": {
                name: {"passed": s.passed, "failed": s.failed, "skipped": s.skipped}
                for name, s in self.checks_run.items()
            },
            "violations": [v.to_dict() for v in self.violations],
            "bound_inapplicable": list(self.bound_inapplicable),
            "elapsed_seconds": self.elapsed,
        }


class _Block:
    """The stacked numeric pieces of a block of digraphs of one order.

    Each piece is computed for the whole block on its first read: the
    characteristic polynomials of the digraphs and of their cycle-arc
    reductions in one kernel call on their ``out_masks``; the adjacency
    stack, built from the arcs; from it the floating QR values and the
    geometric symmetrizations; and from those the spectral radii of S and
    S^2, one stacked ``eigvalsh`` each.  The charpoly stack and the QR and
    S stacks thus come from two independent routes.  From the charpolys and
    the QR values come the certified spectra (one Aberth call per degree)
    and from those the Coulson integrals (one quadrature), each member's
    value or the exception that rejects it.

    ``memo`` is the run's store of per-polynomial work (see ``Memo``): the
    block reads and fills it, its spectra in member order.
    """

    def __init__(self, digraphs: Sequence[Digraph], memo: Memo):
        self.digraphs = list(digraphs)
        orders = {d.n for d in self.digraphs}
        if len(orders) != 1:
            raise ValueError(f"a block holds digraphs of one order, got orders {sorted(orders)}")
        (self.n,) = orders
        self.memo = memo

    def analyses(self, tol: float) -> Iterator["Analysis"]:
        """One ``Analysis`` per digraph, all reading this block, made as
        they are read, so that a block does not keep its analyses alive."""
        for index, d in enumerate(self.digraphs):
            analysis = Analysis(d, tol)
            analysis._block, analysis._index = self, index
            yield analysis

    @cached_property
    def reductions(self) -> list[Digraph]:
        return [cycle_arc_reduction(d) for d in self.digraphs]

    @cached_property
    def charpolys(self) -> dict[tuple[int, ...], CharPoly]:
        """``CharPoly`` by ``out_masks``, for every digraph and reduction."""
        rows = list(dict.fromkeys(d.out_masks for d in self.digraphs + self.reductions))
        coeffs = kernels.charpoly_from_masks(self.n, rows)
        return {masks: CharPoly(tuple(c)) for masks, c in zip(rows, coeffs)}

    @cached_property
    def spectra(self) -> list:
        """The certified ``Spectrum`` of each member, or its EigensolverError."""
        polys = [self.charpolys[d.out_masks] for d in self.digraphs]
        return certify_spectra(polys, self.qr, self.memo)

    @cached_property
    def coulson(self) -> list:
        """The Coulson integral (rel_tol 1e-6) of each member, or the
        exception that skips it: its PurelyImaginaryEigenvalueError, or the
        EigensolverError of its spectrum."""
        spectra = [s for s in self.spectra if isinstance(s, Spectrum)]
        values = iter(coulson_energies(spectra, 1e-6, self.memo))
        return [next(values) if isinstance(s, Spectrum) else s for s in self.spectra]

    @cached_property
    def adjacency(self) -> np.ndarray:
        return adjacency_matrices(self.digraphs)

    @cached_property
    def qr(self) -> np.ndarray:
        return qr_values(self.adjacency)

    @cached_property
    def symmetrization(self) -> np.ndarray:
        return geometric_symmetrization(self.adjacency)

    @cached_property
    def symmetrization_radii(self) -> tuple[np.ndarray, np.ndarray]:
        """rho(S) and rho(S^2) of every member."""
        s = self.symmetrization.astype(float)
        rho_s = np.abs(np.linalg.eigvalsh(s)).max(axis=1, initial=0.0)
        rho_s2 = np.abs(np.linalg.eigvalsh(s @ s)).max(axis=1, initial=0.0)
        return rho_s, rho_s2


class Analysis:
    """Everything the library computes for one digraph, each piece at most
    once; the entry point for every per-digraph result.

    A lazy memo: the closed-walk profile, the exact characteristic
    polynomials of the digraph and of its cycle-arc reduction, the certified
    spectrum, the geometric symmetrization and its spectral radii, the
    cycle-arc reduction, the edge-list text, the bound chain at ``tol``,
    both equality verdicts and the Coulson integral (rel_tol 1e-6) are
    computed on first use and shared by every later reader.  The functions
    behind them take their pieces as arguments; this class is the one place
    that wires pieces to results.  The verification checks and the
    ``analyze`` command both read one, and ``to_dict()`` is the
    ``analyze --json`` document.

    The polynomials, QR values, symmetrization and radii, spectrum and
    Coulson integral come from a block of digraphs (``_Block``) that
    computes each of them for all members at once.  The harness builds one
    block per ``BLOCK_SIZE`` digraphs, all sharing the run's ``Memo``; a
    lone ``Analysis(d)`` is a block of one with a fresh ``Memo``, so its
    spectrum is the digraph's own.
    """

    _index = 0

    def __init__(self, d: Digraph, tol: float = bounds_mod.DEFAULT_TOL):
        self.d = d
        self.tol = tol

    @cached_property
    def _block(self) -> _Block:
        return _Block([self.d], Memo())

    @cached_property
    def profile(self):
        return walk_profile(self.d)

    @cached_property
    def charpoly(self) -> CharPoly:
        return self._block.charpolys[self.d.out_masks]

    @cached_property
    def reduced_charpoly(self) -> CharPoly:
        return self._block.charpolys[self.reduced.out_masks]

    @cached_property
    def spectrum(self) -> Spectrum:
        return unwrap(self._block.spectra[self._index])

    @cached_property
    def symmetrization(self):
        return self._block.symmetrization[self._index]

    @cached_property
    def symmetrization_radii(self) -> tuple[float, float]:
        """rho(S) and rho(S^2) for the geometric symmetrization S."""
        rho_s, rho_s2 = self._block.symmetrization_radii
        return float(rho_s[self._index]), float(rho_s2[self._index])

    @cached_property
    def reduced(self):
        return self._block.reductions[self._index]

    @cached_property
    def text(self):
        return serialize_edge_list(self.d)

    @cached_property
    def bounds(self):
        return bounds_mod.bound_chain_report(self.profile, self.spectrum, self.tol)

    @cached_property
    def verdict_rho(self):
        return equality_verdict_rho_lower(self.d, self.profile, self.reduced)

    @cached_property
    def verdict_energy(self):
        return equality_verdict_energy_upper(self.d)

    @cached_property
    def _coulson(self) -> tuple[Optional[float], Optional[str]]:
        try:
            return unwrap(self._block.coulson[self._index]), None
        except PurelyImaginaryEigenvalueError as exc:
            return None, str(exc)

    @property
    def coulson(self) -> Optional[float]:
        """The Coulson integral, or None when a pole lies on its path."""
        return self._coulson[0]

    @property
    def warnings(self) -> tuple[str, ...]:
        """The bound chain's notes, then the pole that skipped the integral."""
        pole = self._coulson[1]
        skipped = (f"coulson integral skipped: {pole}",) if pole is not None else ()
        return tuple(self.bounds.notes) + skipped

    def to_dict(self) -> dict:
        d, profile, spec = self.d, self.profile, self.spectrum
        return {
            "digraph": {
                "n": d.n,
                "arc_count": d.arc_count,
                "arcs": [list(a) for a in d.sorted_arcs],
            },
            "profile": {
                "c2_seq": list(profile.c2_seq),
                "t2_seq": list(profile.t2_seq),
                "c2_total": profile.c2_total,
                "sum_c2_sq": profile.sum_c2_sq,
                "sum_t2_sq": profile.sum_t2_sq,
                "arc_count": profile.a,
            },
            "spectrum": {
                "eigenvalues": [[z.real, z.imag] for z in spec.eigenvalues],
                "rho": spec.rho,
                "energy": spec.energy,
            },
            "bounds": self.bounds.to_dict(),
            "verdicts": {
                "radius_lower": self.verdict_rho.to_dict(),
                "energy_upper": self.verdict_energy.to_dict(),
            },
            "coulson_energy": self.coulson,
            "warnings": list(self.warnings),
        }


# Each check returns a list of (lhs, rhs, gap) violations, or the string
# "skip" when its precondition does not apply to the digraph.


def _check_walk_rowsum(ctx: Analysis):
    rows = np.asarray(ctx.symmetrization).sum(axis=1)
    out = []
    for i, c in enumerate(ctx.profile.c2_seq):
        if int(rows[i]) != c:
            out.append((float(c), float(rows[i]), abs(float(rows[i]) - c)))
    return out


def _check_walk_sum_identity(ctx: Analysis):
    lhs = sum(ctx.profile.t2_seq)
    rhs = ctx.profile.sum_c2_sq
    return [] if lhs == rhs else [(float(lhs), float(rhs), float(abs(lhs - rhs)))]


def _check_symmetrization_radius(ctx: Analysis):
    out = []
    rho_s, rho_s2 = ctx.symmetrization_radii
    rho_a = ctx.spectrum.rho
    if rho_a < rho_s - 1e-9:
        out.append((rho_a, rho_s, rho_s - rho_a))
    if abs(rho_s - math.sqrt(rho_s2)) > 1e-9:
        out.append((rho_s, math.sqrt(rho_s2), abs(rho_s - math.sqrt(rho_s2))))
    return out


def _check_moment_difference(ctx: Analysis):
    spec = ctx.spectrum
    residual = (spec.sum_re_sq - spec.sum_im_sq) - ctx.profile.c2_total
    if abs(residual) > 1e-8:
        return [(spec.sum_re_sq - spec.sum_im_sq, float(ctx.profile.c2_total), abs(residual))]
    return []


def _check_moment_total(ctx: Analysis):
    spec = ctx.spectrum
    total = spec.sum_re_sq + spec.sum_im_sq
    if total > ctx.profile.a + 1e-8:
        return [(total, float(ctx.profile.a), total - ctx.profile.a)]
    return []


def _inline_rho_lowers(profile, n):
    mean = profile.c2_total / n
    rms = math.sqrt(profile.sum_c2_sq / n)
    ratio = math.sqrt(profile.sum_t2_sq / profile.sum_c2_sq) if profile.sum_c2_sq else 0.0
    return mean, rms, ratio


def _check_rho_chain(ctx: Analysis):
    out = []
    profile, n, tol = ctx.profile, ctx.d.n, ctx.tol
    mean_i, rms_i, ratio_i = _inline_rho_lowers(profile, n)
    mean = bounds_mod.rho_lower_walk_mean(profile, n)
    rms = bounds_mod.rho_lower_walk_rms(profile, n)
    ratio = bounds_mod.rho_lower_walk_ratio(profile)
    # Formula pins: the module values must match the inline recomputation.
    for got, want in ((mean, mean_i), (rms, rms_i), (ratio, ratio_i)):
        if not bounds_mod.close_tol(got, want, PIN_TOL):
            out.append((got, want, abs(got - want)))
    rho = ctx.spectrum.rho
    if not bounds_mod.leq_tol(mean_i, rms_i, tol):
        out.append((mean_i, rms_i, mean_i - rms_i))
    if profile.c2_total > 0 and not bounds_mod.leq_tol(rms_i, ratio_i, tol):
        out.append((rms_i, ratio_i, rms_i - ratio_i))
    for low in (mean_i, rms_i, ratio_i):
        if not bounds_mod.leq_tol(low, rho, tol):
            out.append((low, rho, low - rho))
    return out


def _inline_energy_uppers(profile, n, rho):
    def f(x):
        return x + math.sqrt(max(0.0, (n - 1) * (profile.a - x * x)))

    mean, rms, ratio = _inline_rho_lowers(profile, n)
    mc = math.sqrt(n * (profile.a + profile.c2_total) / 2.0)
    return mc, f(rho), f(mean), f(rms), f(ratio)


def _check_energy_bounds(ctx: Analysis):
    out = []
    profile, n, tol = ctx.profile, ctx.d.n, ctx.tol
    spec = ctx.spectrum
    mc_i, radius_i, mean_i, rms_i, ratio_i = _inline_energy_uppers(profile, n, spec.rho)
    mc = bounds_mod.energy_upper_mcclelland(profile, n)
    e_mean = bounds_mod.energy_upper_walk_mean(profile, n)
    e_rms = bounds_mod.energy_upper_walk_rms(profile, n)
    radius = bounds_mod.energy_upper_radius(profile, n, spec.rho)
    try:
        e_ratio = bounds_mod.energy_upper_walk_ratio(profile, n)
    except BoundInapplicableError:
        e_ratio = None
    for got, want in ((mc, mc_i), (radius, radius_i), (e_mean, mean_i), (e_rms, rms_i)):
        if not bounds_mod.close_tol(got, want, PIN_TOL):
            out.append((got, want, abs(got - want)))
    if e_ratio is not None and not bounds_mod.close_tol(e_ratio, ratio_i, PIN_TOL):
        out.append((e_ratio, ratio_i, abs(e_ratio - ratio_i)))
    uppers = [mc_i, radius_i, mean_i, rms_i, ratio_i]
    for upper in uppers:
        if not bounds_mod.leq_tol(spec.energy, upper, tol):
            out.append((spec.energy, upper, spec.energy - upper))
    return out


def _check_dominance_chain(ctx: Analysis):
    profile, n, tol = ctx.profile, ctx.d.n, ctx.tol
    if profile.a * n >= profile.c2_total ** 2:
        return "skip"
    out = []
    spec = ctx.spectrum
    mean, rms, ratio = _inline_rho_lowers(profile, n)
    sqrt_an = math.sqrt(profile.a / n)
    sqrt_a = math.sqrt(profile.a)
    chain = [sqrt_an, mean, rms, ratio, spec.rho, sqrt_a]
    for lo, hi in zip(chain, chain[1:]):
        if not bounds_mod.leq_tol(lo, hi, tol):
            out.append((lo, hi, lo - hi))
    _, _, f_mean, f_rms, f_ratio = _inline_energy_uppers(profile, n, spec.rho)
    for lo, hi in ((f_ratio, f_rms), (f_rms, f_mean)):
        if not bounds_mod.leq_tol(lo, hi, tol):
            out.append((lo, hi, lo - hi))
    if not bounds_mod.leq_tol(spec.energy, f_ratio, tol):
        out.append((spec.energy, f_ratio, spec.energy - f_ratio))
    return out


def _check_charpoly_reduction_invariance(ctx: Analysis):
    p1 = ctx.charpoly.coeffs
    p2 = ctx.reduced_charpoly.coeffs
    if p1 != p2:
        gap = max(abs(a - b) for a, b in zip(p1, p2))
        return [(float(p1[0]), float(p2[0]), float(gap))]
    return []


def _check_coulson_match(ctx: Analysis):
    spec = ctx.spectrum
    for z in spec.eigenvalues:
        if abs(z.real) <= 1e-6 and abs(z) > 1e-6:
            return "skip"
    integral = ctx.coulson
    if integral is None:
        return "skip"
    diff = abs(integral - spec.energy) / max(1.0, spec.energy)
    if diff > 1e-6:
        return [(integral, spec.energy, diff)]
    return []


def _check_equality_iff_rho(ctx: Analysis):
    _, _, ratio = _inline_rho_lowers(ctx.profile, ctx.d.n)
    numeric = abs(ratio - ctx.spectrum.rho) <= IFF_TOL
    predicted = ctx.verdict_rho.predicted_equality
    if predicted != numeric:
        return [(float(predicted), float(numeric), abs(ratio - ctx.spectrum.rho))]
    return []


def _check_equality_iff_energy(ctx: Analysis):
    profile, n = ctx.profile, ctx.d.n
    _, _, _, _, f_ratio = _inline_energy_uppers(profile, n, ctx.spectrum.rho)
    numeric = abs(f_ratio - ctx.spectrum.energy) <= IFF_TOL
    predicted = ctx.verdict_energy.predicted_equality
    if predicted != numeric:
        return [(float(predicted), float(numeric), abs(f_ratio - ctx.spectrum.energy))]
    return []


_CHECKS = {
    "walk_rowsum": _check_walk_rowsum,
    "walk_sum_identity": _check_walk_sum_identity,
    "symmetrization_radius": _check_symmetrization_radius,
    "moment_difference": _check_moment_difference,
    "moment_total": _check_moment_total,
    "rho_chain": _check_rho_chain,
    "energy_bounds": _check_energy_bounds,
    "dominance_chain": _check_dominance_chain,
    "charpoly_reduction_invariance": _check_charpoly_reduction_invariance,
    "coulson_match": _check_coulson_match,
    "equality_iff_rho": _check_equality_iff_rho,
    "equality_iff_energy": _check_equality_iff_energy,
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECKS)


def verify_all(
    n: int,
    checks: Optional[Sequence[str]] = None,
    mode: str = "exhaustive",
    *,
    count: int = 1000,
    p: float = 0.5,
    seed: int = 0,
    tol: float = bounds_mod.DEFAULT_TOL,
) -> VerificationReport:
    """Run the named checks over every digraph of the requested corpus.

    ``mode="exhaustive"`` walks all labeled digraphs (n <= 5);
    ``mode="random"`` samples ``count`` digraphs with arc probability ``p``
    from seeds seed, seed+1, ... (n <= 12).  Reports are deterministic for
    a fixed configuration, including violation order.

    The corpus is taken in blocks of ``BLOCK_SIZE`` digraphs, in order,
    and each block computes its characteristic polynomials (of the digraphs
    and their cycle-arc reductions, from ``out_masks``), QR values and
    symmetrization radii (from stacks built from the arcs), certified
    spectra and Coulson integrals as stacks; the checks then run digraph
    by digraph.  A stacked result is bit for bit the per-digraph one, so
    the report does not depend on the block size, and a lone
    ``Analysis(d)`` is a block of one.  The corpus is never held whole.

    The blocks of one call share one ``Memo``: each distinct
    characteristic polynomial is decomposed, certified and integrated once,
    the first digraph with it certifies its spectrum, and later digraphs
    with that polynomial reuse the spectrum (after checking their own QR
    values against a repeated root).  The memo ends with the call, so a
    report depends only on its configuration.
    """
    if checks is None:
        selected = list(CHECK_NAMES)
    else:
        selected = list(checks)
        unknown = [c for c in selected if c not in _CHECKS]
        if unknown:
            raise UnknownCheckError(f"unknown check name(s): {', '.join(unknown)}; "
                                    f"known: {', '.join(CHECK_NAMES)}")
    if mode == "exhaustive":
        if not 1 <= n <= EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive mode needs 1 <= n <= {EXHAUSTIVE_MAX_N}, got {n}")
        source = enumerate_digraphs(n)
        mode_desc = "exhaustive"
    elif mode == "random":
        if not 1 <= n <= RANDOM_MAX_N:
            raise ValueError(f"random mode needs 1 <= n <= {RANDOM_MAX_N}, got {n}")
        if count < 1:
            raise ValueError(f"need count >= 1, got {count}")
        source = (random_digraph(n, p, seed + k) for k in range(count))
        mode_desc = f"random(count={count}, p={p}, seed={seed})"
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'random'")

    stats = {name: CheckStats() for name in selected}
    violations: list[Violation] = []
    inapplicable: list[str] = []
    memo = Memo()
    checked = 0
    started = time.monotonic()
    while digraphs := list(itertools.islice(source, BLOCK_SIZE)):
        for ctx in _Block(digraphs, memo).analyses(tol):
            checked += 1
            if ctx.d.arc_count and ctx.d.n:
                prof = ctx.profile
                if prof.sum_t2_sq > prof.a * prof.sum_c2_sq:
                    inapplicable.append(ctx.text)
            for name in selected:
                result = _CHECKS[name](ctx)
                if result == "skip":
                    stats[name].skipped += 1
                elif result:
                    stats[name].failed += 1
                    for lhs, rhs, gap in result:
                        violations.append(Violation(ctx.text, name, float(lhs), float(rhs), float(gap)))
                else:
                    stats[name].passed += 1
    return VerificationReport(
        n=n,
        mode=mode_desc,
        digraphs_checked=checked,
        checks_run=stats,
        violations=tuple(violations),
        bound_inapplicable=tuple(inapplicable),
        elapsed=time.monotonic() - started,
    )
