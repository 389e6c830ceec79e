"""Per-digraph analysis and the exhaustive and randomized verification
harness.

The harness enumerates labeled loop-free digraphs (or samples them
reproducibly) in blocks (``_Block``) whose pieces are computed as stacked
arrays: the closed-walk profiles, the cycle-arc reductions, the exact
characteristic polynomials, the certified spectra and their scalars, the
symmetrization radii and the Coulson integrals.  Each named check is one
function of a block that returns masks of the members it fails and skips,
and a violation is reported, with the offending digraph serialized in the
edge-list format, only for a failing member.  The checks recompute each
bound formula inline from the profile arrays, so a drifted formula in
``bounds`` is caught directly and not merely when an inequality happens to
invert.

``Analysis`` is the record of one digraph that the ``analyze`` command
reads (profile, spectrum, bounds, equality verdicts, Coulson integral):
its row of a block of one.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from . import bounds as bounds_mod
from . import kernels
from .digraph import (
    MAX_VERTICES,
    ClosedWalkProfile,
    Digraph,
    adjacency_matrices,
    geometric_symmetrization,
    serialize_edge_list,
)
from .errors import PurelyImaginaryEigenvalueError, UnknownCheckError
from .spectrum import CharPoly, Memo, Spectrum, certify_spectra, check_spreads, coulson_energies, unwrap
from .structure import (
    energy_bound_attained,
    equality_verdict_energy_upper,
    equality_verdict_rho_lower,
    walk_ratio_attained,
)

EXHAUSTIVE_MAX_N = 5
RANDOM_MAX_N = 12
IFF_TOL = 1e-7
PIN_TOL = 1e-12
# Digraphs per block of the harness: each block computes its exact and
# floating layers as stacked arrays, and its per-polynomial work once per
# distinct polynomial.  verify_all holds one block at a time, never the
# corpus (exhaustive n = 5 has 1,048,576 digraphs).  One cold verify_all
# call in a fresh process, its time and the process's peak RSS with blocks
# of 256 / 512 / 1024 (medians of 15, interleaved; one CPU, one BLAS
# thread; 2-vCPU x86_64 host, Python 3.11, numpy 2.4):
#   verify_all(4)                     0.089 / 0.079 / 0.072 s   33.0 / 33.5 / 35.0 MB
#   first 65,536 digraphs of n = 5    1.68 / 1.57 / 1.43 s      33.1 / 34.3 / 36.7 MB
#   random n = 10 x 1,000, p = 0.3    0.174 / 0.163 / 0.162 s   36.0 / 39.5 / 43.9 MB
#   random n = 12 x 2,000, p = 0.3    0.450 / 0.420 / 0.432 s   38.7 / 43.0 / 50.5 MB
# At n <= 5 much of a block of 256 is fixed per-block cost; at n = 12 a
# block of 1024 costs 12 MB more than one of 256, for a time within noise.
BLOCK_SIZE = 1024

_MASK64 = (1 << 64) - 1


@functools.cache
def _pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """The ordered pairs of distinct vertices of order n, lexicographic."""
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def enumerate_digraphs(n: int) -> Iterator[Digraph]:
    """All 2^(n(n-1)) labeled loop-free digraphs, in arc-bitmask order."""
    if not 1 <= n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive enumeration needs 1 <= n <= {EXHAUSTIVE_MAX_N}, got {n}")
    pairs = _pair_list(n)
    for mask in range(1 << len(pairs)):
        arcs = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
        yield Digraph(n, arcs)


def random_digraph(n: int, p: float, seed: int) -> Digraph:
    """Each ordered pair included independently with probability p.

    Reproducible across platforms: a SplitMix64 stream seeded with ``seed``
    draws one 64-bit word per ordered pair (lexicographic order) and the
    arc is included iff the word is below floor(p * 2^64).  ``n`` is at
    most ``MAX_VERTICES``.  The stream's state after k draws is
    seed + k * gamma, with gamma = 0x9E3779B97F4A7C15, so word k is the mix
    of seed + (k + 1) * gamma (mod 2^64), and one ``uint64`` expression,
    which wraps as the stream does, computes every word.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    pairs = _pair_list(n)
    z = np.arange(1, len(pairs) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z += np.uint64(seed & _MASK64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    threshold = int(p * (1 << 64))
    return Digraph(n, [pair for pair, word in zip(pairs, z.tolist()) if word < threshold])


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
    """The stacked pieces of a block of digraphs of one order.

    Each piece is computed for the whole block on its first read, as a
    ``(K,)``, ``(K, n)`` or ``(K, n, n)`` array or a list of K members.
    Two adjacency stacks come from two independent routes:

    - ``bits``, packed once from the ``out_masks`` bit rows, gives the
      closed-walk profile (S = A o A^T, c2 = S 1, t2 = S c2 and their sums,
      in int64) and the cycle-arc reductions ``reduced_bits`` (an arc
      (i, j) lies on a cycle iff j reaches i, read off a boolean
      reachability closure);
    - ``adjacency``, from the arcs, goes to the spread check of the
      spectra (``check_spreads``, which takes the QR values of the members
      with a repeated-root polynomial) and gives the geometric
      symmetrizations, and from those the spectral radii of S and S^2, one
      stacked ``eigvalsh`` each.

    The characteristic polynomials of the digraphs and of their reductions
    come from one kernel call on ``bits`` and the rows of ``reduced_bits``
    that drop an arc, and form the block's table ``polys`` of distinct
    polynomials, keyed by coefficients: each member holds
    one integer row of it for itself (``poly_index``) and one for its
    reduction (``reduced_index``).  Every per-polynomial step runs once per
    row: the certified spectra (``certified``, one Aberth call per degree
    of the exact square-free factors) and from those the Coulson integrals
    (the pole guard once per spectrum, one quadrature), whose
    PurelyImaginaryEigenvalueError is the one record of a pole on the
    path, the one a member's ``coulson_match`` skip reads.  ``spectra`` gives
    each member its row of ``certified`` through one ``check_spreads``
    call, so a member whose QR values miss its repeated roots gets its own
    EigensolverError.  The spectral scalars, the integrals and the
    reduction invariance reach the members by the index.  A check reads the
    spectral scalars through ``spectral``, which raises the EigensolverError
    of the first rejected member among those the check reads.  The equality
    predictions are the verdicts' own integer tests on stacked arrays:
    ``walk_ratio_attained`` on the reductions and profiles for the radius
    (``equality_verdict_rho_lower``), ``energy_bound_attained`` on ``bits``
    for the energy (``equality_verdict_energy_upper``).  The checks of
    ``verify_all`` read these pieces; a lone ``Analysis`` is a block of
    one that reads row 0 and hands its rows of ``bits`` and
    ``reduced_bits`` to the verdicts.

    ``memo`` is the run's store of per-polynomial work (see ``Memo``): the
    block reads and fills it, and a spectrum it holds is the one the
    polynomial gets in any block.
    """

    def __init__(self, digraphs: Sequence[Digraph], memo: Memo):
        self.digraphs = list(digraphs)
        orders = {d.n for d in self.digraphs}
        if len(orders) != 1:
            raise ValueError(f"a block holds digraphs of one order, got orders {sorted(orders)}")
        (self.n,) = orders
        self.memo = memo

    @cached_property
    def bits(self) -> np.ndarray:
        return kernels._matrix_stack(self.n, [d.out_masks for d in self.digraphs])

    @cached_property
    def digons(self) -> np.ndarray:
        """S = A o A^T of every member, from ``bits``."""
        return self.bits * self.bits.swapaxes(1, 2)

    @cached_property
    def profile(self) -> ClosedWalkProfile:
        """The closed-walk profiles of the members, stacked."""
        c2 = self.digons.sum(axis=2)
        t2 = np.einsum("kij,kj->ki", self.digons, c2)
        return ClosedWalkProfile(c2_seq=c2, t2_seq=t2, a=self.bits.sum(axis=(1, 2)),
                                 c2_total=c2.sum(axis=1), sum_c2_sq=(c2 * c2).sum(axis=1),
                                 sum_t2_sq=(t2 * t2).sum(axis=1))

    def profile_row(self, k: int) -> ClosedWalkProfile:
        """Member k's closed-walk profile, in Python ints."""
        p = self.profile
        return ClosedWalkProfile(tuple(p.c2_seq[k].tolist()), tuple(p.t2_seq[k].tolist()),
                                 *(int(x[k]) for x in (p.a, p.c2_total, p.sum_c2_sq, p.sum_t2_sq)))

    @cached_property
    def reduced_bits(self) -> np.ndarray:
        """The adjacency stack of the cycle-arc reductions.  (I + A)^(2^m)
        with 2^m >= n, by m squarings, holds the reachability: in float64
        clamped to 0-1 each step, so every sum is at most n and exact."""
        reach = self.bits + np.eye(self.n)
        for _ in range(max(self.n - 1, 0).bit_length()):
            reach = np.minimum(reach @ reach, 1.0)
        return self.bits * (reach.swapaxes(1, 2) > 0)

    @cached_property
    def drops_arcs(self) -> np.ndarray:
        """Which members lose an arc to their reduction."""
        return (self.reduced_bits != self.bits).any(axis=(1, 2))

    @cached_property
    def _poly_table(self) -> tuple[list[CharPoly], np.ndarray, np.ndarray]:
        size = len(self.digraphs)
        drops = np.flatnonzero(self.drops_arcs)
        coeffs = kernels.charpoly_from_masks(np.concatenate([self.bits, self.reduced_bits[drops]]))
        table: dict[tuple[int, ...], int] = {}
        rows = np.array([table.setdefault(tuple(c), len(table)) for c in coeffs], dtype=np.intp)
        reduced = rows[:size].copy()  # a member that keeps every arc is its own reduction
        reduced[drops] = rows[size:]
        return [CharPoly(c) for c in table], rows[:size], reduced

    @property
    def polys(self) -> list[CharPoly]:
        """The distinct characteristic polynomials of the members and of
        their reductions, the members' first, in order of first use."""
        return self._poly_table[0]

    @property
    def poly_index(self) -> np.ndarray:
        """The ``(K,)`` row of ``polys`` of each member."""
        return self._poly_table[1]

    @property
    def reduced_index(self) -> np.ndarray:
        """The ``(K,)`` row of ``polys`` of each member's reduction."""
        return self._poly_table[2]

    @cached_property
    def certified(self) -> list:
        """``certify_spectra`` on the members' rows of ``polys``: the
        certified ``Spectrum`` of each, or its EigensolverError."""
        return certify_spectra(self.polys[:int(self.poly_index.max()) + 1], self.memo)

    @cached_property
    def spectra(self) -> list:
        """Each member's spectrum, or the EigensolverError that rejects it:
        its row of ``certified`` through ``check_spreads``."""
        return check_spreads([self.certified[p] for p in self.poly_index.tolist()], self.adjacency, self.memo)

    @cached_property
    def rejected(self) -> np.ndarray:
        """The members whose spectrum is rejected."""
        return np.array([isinstance(s, Exception) for s in self.spectra], dtype=bool)

    @cached_property
    def _spectral(self) -> tuple[np.ndarray, ...]:
        rows = np.array([(s.rho, s.energy, s.sum_re_sq, s.sum_im_sq) if isinstance(s, Spectrum)
                         else (0.0,) * 4 for s in self.certified], dtype=float)
        return tuple(rows[self.poly_index].T)

    def spectral(self, rows: Optional[np.ndarray] = None) -> tuple[np.ndarray, ...]:
        """rho, energy, sum_re_sq and sum_im_sq of every member, as (K,)
        arrays, for a check that reads the spectra of the members in the
        mask ``rows`` (all by default).  If one of them is rejected, this
        raises the EigensolverError of the first such member, as a check of
        that member alone would; a member outside ``rows`` is not read."""
        read = np.flatnonzero(self.rejected if rows is None else self.rejected & rows)
        if len(read):
            unwrap(self.spectra[read[0]])
        return self._spectral

    @cached_property
    def integrals(self) -> list:
        """The Coulson integral (rel_tol 1e-6) of each member polynomial
        (the rows of ``certified``), or the exception that skips it: its
        PurelyImaginaryEigenvalueError, or the EigensolverError of its
        spectrum."""
        values = iter(coulson_energies([s for s in self.certified if isinstance(s, Spectrum)], 1e-6, self.memo))
        return [next(values) if isinstance(s, Spectrum) else s for s in self.certified]

    @cached_property
    def adjacency(self) -> np.ndarray:
        return adjacency_matrices(self.digraphs)

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

    @cached_property
    def walk_lowers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three radius lower bounds, recomputed here from the profile
        (mean, rms, ratio) so that a drifted formula in ``bounds`` shows."""
        p, n = self.profile, self.n
        ratio = np.where(p.sum_c2_sq > 0, p.sum_t2_sq / np.maximum(p.sum_c2_sq, 1), 0.0)
        return p.c2_total / n, np.sqrt(p.sum_c2_sq / n), np.sqrt(ratio)

    def energy_shape(self, x: np.ndarray) -> np.ndarray:
        """f(x) = x + sqrt((n-1)(a - x^2)) of every member, recomputed here
        like ``walk_lowers``."""
        return x + np.sqrt(np.maximum(0.0, (self.n - 1) * (self.profile.a - x * x)))

    @cached_property
    def ratio_applies(self) -> np.ndarray:
        """The members the walk-ratio energy bound applies to: sum t2^2 <=
        a sum c2^2, that is q <= a, which every digraph satisfies (see
        ``energy_upper_walk_ratio``), so this checks the computed profiles.
        On the others ``energy_upper_walk_ratio`` raises
        BoundInapplicableError."""
        p = self.profile
        return p.sum_t2_sq <= p.a * p.sum_c2_sq

    @cached_property
    def walk_uppers(self) -> tuple[np.ndarray, ...]:
        """The energy upper bounds of the profile alone, recomputed here:
        McClelland's, then f at the three radius lower bounds."""
        p = self.profile
        return (np.sqrt(self.n * (p.a + p.c2_total) / 2.0), *map(self.energy_shape, self.walk_lowers))

    @cached_property
    def predicted_rho(self) -> np.ndarray:
        """``equality_verdict_rho_lower(...).predicted_equality`` of every
        member: the one edge test ``walk_ratio_attained`` on the stacked
        reductions and profiles."""
        return walk_ratio_attained(self.reduced_bits, self.profile)

    @cached_property
    def predicted_energy(self) -> np.ndarray:
        """``equality_verdict_energy_upper(...).predicted_equality`` of every
        member: the one identity ``energy_bound_attained`` on the stacked
        adjacencies."""
        return energy_bound_attained(self.bits)


class Analysis:
    """Everything the library computes for one digraph, each piece at most
    once; the entry point for every per-digraph result.

    A lazy memo: the closed-walk profile, the certified spectrum, the bound
    chain at ``tol``, both equality verdicts and the Coulson integral
    (rel_tol 1e-6) are computed on first use and shared by every later
    reader.  The functions behind them take their pieces as arguments; this
    class is the one place that wires pieces to results.  The ``analyze``
    command reads one, and ``to_dict()`` is the ``analyze --json`` document.

    It is a block of one (``_Block([d], Memo())``) and reads row 0 of it:
    the profile, the spectrum and the Coulson integral of row 0 of
    ``polys``, which is the digraph's own polynomial, and the verdicts on
    its rows of the block's adjacency and reduction stacks.  Its spectrum
    is its polynomial's, as in any block.
    """

    def __init__(self, d: Digraph, tol: float = bounds_mod.DEFAULT_TOL):
        self.d = d
        self.tol = tol
        self._block = _Block([d], Memo())

    @cached_property
    def profile(self) -> ClosedWalkProfile:
        return self._block.profile_row(0)

    @cached_property
    def spectrum(self) -> Spectrum:
        return unwrap(self._block.spectra[0])

    @cached_property
    def bounds(self):
        return bounds_mod.bound_chain_report(self.profile, self.spectrum, self.tol)

    @cached_property
    def verdict_rho(self):
        return equality_verdict_rho_lower(self._block.bits[0], self.profile, self._block.reduced_bits[0])

    @cached_property
    def verdict_energy(self):
        return equality_verdict_energy_upper(self._block.bits[0])

    @cached_property
    def _coulson(self) -> tuple[Optional[float], Optional[str]]:
        self.spectrum  # a rejected spectrum raises its own error
        try:
            return unwrap(self._block.integrals[0]), None
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


# Each check reads a block and returns (skip, slots): a (K,) mask of the
# members its precondition does not apply to, and its possible violations in
# emission order, each a (fail, lhs, rhs, gap) tuple of (K,) arrays whose
# mask ``fail`` holds no skipped member.


def _never(block: _Block) -> np.ndarray:
    return np.zeros(len(block.digraphs), dtype=bool)


def _check_walk_rowsum(block: _Block, tol: float):
    c2 = block.profile.c2_seq
    rows = block.symmetrization.sum(axis=2)
    gap = np.abs(rows - c2)
    return _never(block), [(gap[:, i] != 0, c2[:, i], rows[:, i], gap[:, i]) for i in range(block.n)]


def _check_walk_sum_identity(block: _Block, tol: float):
    lhs = block.profile.t2_seq.sum(axis=1)
    rhs = block.profile.sum_c2_sq
    return _never(block), [(lhs != rhs, lhs, rhs, np.abs(lhs - rhs))]


def _check_symmetrization_radius(block: _Block, tol: float):
    rho_s, rho_s2 = block.symmetrization_radii
    rho_a = block.spectral()[0]
    root = np.sqrt(rho_s2)
    return _never(block), [(rho_a < rho_s - 1e-9, rho_a, rho_s, rho_s - rho_a),
                           (np.abs(rho_s - root) > 1e-9, rho_s, root, np.abs(rho_s - root))]


def _check_moment_difference(block: _Block, tol: float):
    _, _, re, im = block.spectral()
    residual = (re - im) - block.profile.c2_total
    return _never(block), [(np.abs(residual) > 1e-8, re - im, block.profile.c2_total, np.abs(residual))]


def _check_moment_total(block: _Block, tol: float):
    _, _, re, im = block.spectral()
    total = re + im
    a = block.profile.a
    return _never(block), [(total > a + 1e-8, total, a, total - a)]


def _check_rho_chain(block: _Block, tol: float):
    profile, n = block.profile, block.n
    mean_i, rms_i, ratio_i = block.walk_lowers
    mean = bounds_mod.rho_lower_walk_mean(profile, n)
    rms = bounds_mod.rho_lower_walk_rms(profile, n)
    ratio = bounds_mod.rho_lower_walk_ratio(profile)
    # Formula pins: the module values must match the inline recomputation.
    out = [(~bounds_mod.close_tol(got, want, PIN_TOL), got, want, np.abs(got - want))
           for got, want in ((mean, mean_i), (rms, rms_i), (ratio, ratio_i))]
    rho = block.spectral()[0]
    out.append((~bounds_mod.leq_tol(mean_i, rms_i, tol), mean_i, rms_i, mean_i - rms_i))
    out.append(((profile.c2_total > 0) & ~bounds_mod.leq_tol(rms_i, ratio_i, tol),
                rms_i, ratio_i, rms_i - ratio_i))
    out += [(~bounds_mod.leq_tol(low, rho, tol), low, rho, low - rho) for low in (mean_i, rms_i, ratio_i)]
    return _never(block), out


def _rows(profile: ClosedWalkProfile, keep: np.ndarray) -> ClosedWalkProfile:
    """The members ``keep`` of a stacked profile."""
    return ClosedWalkProfile(*(getattr(profile, f.name)[keep] for f in fields(profile)))


def _check_energy_bounds(block: _Block, tol: float):
    profile, n = block.profile, block.n
    rho, energy, _, _ = block.spectral()
    mc_i, mean_i, rms_i, ratio_i = block.walk_uppers
    radius_i = block.energy_shape(rho)
    mc = bounds_mod.energy_upper_mcclelland(profile, n)
    e_mean = bounds_mod.energy_upper_walk_mean(profile, n)
    e_rms = bounds_mod.energy_upper_walk_rms(profile, n)
    radius = bounds_mod.energy_upper_radius(profile, n, rho)
    # The walk-ratio bound raises BoundInapplicableError on the members it
    # does not apply to, so it is evaluated, and pinned, on the others only.
    applies = block.ratio_applies
    e_ratio = np.zeros(len(applies))
    e_ratio[applies] = bounds_mod.energy_upper_walk_ratio(_rows(profile, applies), n)
    out = [(~bounds_mod.close_tol(got, want, PIN_TOL), got, want, np.abs(got - want))
           for got, want in ((mc, mc_i), (radius, radius_i), (e_mean, mean_i), (e_rms, rms_i))]
    out.append((applies & ~bounds_mod.close_tol(e_ratio, ratio_i, PIN_TOL),
                e_ratio, ratio_i, np.abs(e_ratio - ratio_i)))
    out += [(~bounds_mod.leq_tol(energy, upper, tol), energy, upper, energy - upper)
            for upper in (mc_i, radius_i, mean_i, rms_i, ratio_i)]
    return _never(block), out


def _check_dominance_chain(block: _Block, tol: float):
    profile, n = block.profile, block.n
    skip = profile.a * n >= profile.c2_total ** 2
    if skip.all():
        return skip, []
    rho, energy, _, _ = block.spectral(~skip)
    mean, rms, ratio = block.walk_lowers
    chain = [np.sqrt(profile.a / n), mean, rms, ratio, rho, np.sqrt(profile.a)]
    _, f_mean, f_rms, f_ratio = block.walk_uppers
    pairs = [*zip(chain, chain[1:]), (f_ratio, f_rms), (f_rms, f_mean), (energy, f_ratio)]
    return skip, [(~skip & ~bounds_mod.leq_tol(lo, hi, tol), lo, hi, lo - hi) for lo, hi in pairs]


def _check_charpoly_reduction_invariance(block: _Block, tol: float):
    # ``polys`` holds each distinct polynomial once, so equal rows are equal
    # polynomials.
    fail = block.poly_index != block.reduced_index
    lhs, rhs, gap = (np.zeros(len(fail)) for _ in range(3))
    for k in np.flatnonzero(fail).tolist():
        p1, p2 = block.polys[block.poly_index[k]].coeffs, block.polys[block.reduced_index[k]].coeffs
        lhs[k], rhs[k], gap[k] = p1[0], p2[0], max(abs(a - b) for a, b in zip(p1, p2))
    return _never(block), [(fail, lhs, rhs, gap)]


def _check_coulson_match(block: _Block, tol: float):
    # Skips exactly the members whose integral has a pole on its path:
    # ``coulson_energies`` alone decides that.  Per member polynomial, then
    # gathered by ``poly_index``; ``spectral`` has raised already if a
    # member's spectrum is rejected.
    _, energy, _, _ = block.spectral()
    skip = np.array([isinstance(v, PurelyImaginaryEigenvalueError) for v in block.integrals], dtype=bool)
    integral = np.array([0.0 if isinstance(v, Exception) else v for v in block.integrals])
    skip, integral = skip[block.poly_index], integral[block.poly_index]
    diff = np.abs(integral - energy) / np.maximum(1.0, energy)
    return skip, [(~skip & (diff > 1e-6), integral, energy, diff)]


def _check_equality_iff_rho(block: _Block, tol: float):
    gap = np.abs(block.walk_lowers[2] - block.spectral()[0])
    numeric = gap <= IFF_TOL
    predicted = block.predicted_rho
    return _never(block), [(predicted != numeric, predicted * 1.0, numeric * 1.0, gap)]


def _check_equality_iff_energy(block: _Block, tol: float):
    gap = np.abs(block.walk_uppers[3] - block.spectral()[1])
    numeric = gap <= IFF_TOL
    predicted = block.predicted_energy
    return _never(block), [(predicted != numeric, predicted * 1.0, numeric * 1.0, gap)]


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


def _verify_block(source: Iterator[Digraph], memo: Memo, selected: list[str], tol: float,
                  stats: dict[str, CheckStats], violations: list[Violation], inapplicable: list[str]) -> int:
    """Take the next ``BLOCK_SIZE`` digraphs of ``source`` as one block and
    run the ``selected`` checks on it: add its counts to ``stats``, its
    violations to ``violations``, and to ``inapplicable`` the edge lists of
    its members that the walk-ratio bound does not apply to.  Returns the
    number of digraphs taken, 0 once ``source`` is spent.

    A check's outcome arrays are kept only when some member fails it, and
    the block, its pieces and its digraphs die on return, before the next
    slice of the corpus is pulled.
    """
    digraphs = list(itertools.islice(source, BLOCK_SIZE))
    if not digraphs:
        return 0
    block = _Block(digraphs, memo)
    for k in np.flatnonzero(~block.ratio_applies).tolist():
        inapplicable.append(serialize_edge_list(digraphs[k]))
    outcomes = []  # (name, failed, slots) of each check some member fails
    failing = _never(block)
    for name in selected:
        skip, slots = _CHECKS[name](block, tol)
        failed = _never(block)
        for fail, *_ in slots:
            failed |= fail
        stats[name].skipped += int(skip.sum())
        stats[name].failed += int(failed.sum())
        stats[name].passed += int((~skip & ~failed).sum())
        if failed.any():
            outcomes.append((name, failed, slots))
            failing |= failed
    for k in np.flatnonzero(failing).tolist():
        text = serialize_edge_list(digraphs[k])
        for name, failed, slots in outcomes:
            if failed[k]:
                violations += [Violation(text, name, float(lhs[k]), float(rhs[k]), float(gap[k]))
                               for fail, lhs, rhs, gap in slots if fail[k]]
    return len(digraphs)


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

    The corpus is taken in blocks of ``BLOCK_SIZE`` digraphs, in order.
    Each check runs once per block (``_Block``), on its stacked pieces, and
    yields masks of the members it passes, fails and skips; a
    ``Violation``, with the digraph's edge-list text, is built only for a
    failing member, in member order, then check order, then the check's own
    order.  A stacked result is bit for bit the per-digraph one, so the
    report does not depend on the block size, and a lone ``Analysis(d)``
    is a block of one.  The corpus is never held whole, and one block is
    held at a time (``_verify_block``).  A check raises
    where it reads a spectrum the eigensolver rejects: the EigensolverError
    of the first rejected member among the members it reads ends the call.
    With every check run, the first to read spectra reads all members, so
    the error is that of the block's first rejected member.

    The blocks of one call share one ``Memo``: each distinct
    characteristic polynomial is decomposed, certified and integrated once,
    from its exact square-free factors, and every digraph with that
    polynomial takes the spectrum, the one it gets alone, after its own QR
    values are checked against it when it has a repeated root
    (``check_spreads``).  ``coulson_match`` skips exactly the digraphs whose
    polynomial's integral raised PurelyImaginaryEigenvalueError.  The memo
    ends with the call.
    """
    if checks is None:
        selected = list(CHECK_NAMES)
    else:
        # A name given twice runs once, so each check counts every digraph once.
        selected = list(dict.fromkeys(checks))
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
    while taken := _verify_block(source, memo, selected, tol, stats, violations, inapplicable):
        checked += taken
    return VerificationReport(
        n=n,
        mode=mode_desc,
        digraphs_checked=checked,
        checks_run=stats,
        violations=tuple(violations),
        bound_inapplicable=tuple(inapplicable),
        elapsed=time.monotonic() - started,
    )
