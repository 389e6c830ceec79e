"""Per-digraph analysis and the exhaustive and randomized verification
harness.

The harness enumerates labeled loop-free digraphs (or samples them
reproducibly) in blocks (``_Block``) whose pieces are computed as stacked
arrays: the closed-walk profiles, the cycle-arc reductions, the exact
characteristic polynomials, the certified spectra and their scalars, the
symmetrization radii and the Coulson integrals.  Each named check is one
function of a block that returns masks of the members it fails and skips,
and a violation is reported, with the member's row of the block's adjacency
stack serialized in the edge-list format, only for a failing member.  The
checks recompute each bound formula inline from the profile arrays, so a
drifted formula in ``bounds`` is caught directly and not merely when an
inequality happens to invert.

``Analysis`` is the record of one digraph that the ``analyze`` command
reads (profile, spectrum, bounds, equality verdicts, Coulson integral):
its row of a block of one.
"""

from __future__ import annotations

import functools
import itertools
import time
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

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
from .spectrum import (COULSON_REL_TOL, REL_TOL_FLOOR, CharPoly, Memo, Spectrum, certify_spectra, check_spreads,
                       coulson_energies, coulson_energy, unwrap)
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
# ``Analysis`` warns when its Coulson integral, asked for REL_TOL_FLOOR,
# and the certified energy differ by more than this, relative to
# max(1, energy).
ENERGY_GAP_TOL = 1e-9
# Digraphs per block of the harness: each block computes its exact and
# floating layers as stacked arrays, and its per-polynomial work once per
# distinct polynomial.  verify_all holds one block at a time, never the
# corpus (exhaustive n = 5 has 1,048,576 digraphs).  One cold verify_all
# call in a fresh process, its time and the process's peak RSS with blocks
# of 256 / 512 / 1024 (medians of 15, interleaved; one CPU, one BLAS
# thread; 2-vCPU x86_64 host, Python 3.11, numpy 2.4):
#   verify_all(4)                     0.073 / 0.062 / 0.057 s   31.7 / 32.4 / 33.6 MB
#   first 65,536 digraphs of n = 5    1.36 / 1.25 / 1.15 s      32.1 / 33.2 / 35.3 MB
#   random n = 10 x 1,000, p = 0.3    0.165 / 0.150 / 0.152 s   35.5 / 39.3 / 44.0 MB
#   random n = 12 x 2,000, p = 0.3    0.418 / 0.398 / 0.395 s   39.2 / 42.6 / 49.8 MB
# At n <= 5 much of a block of 256 is fixed per-block cost; at n = 12 a
# block of 1024 costs 11 MB more than one of 256, for 5% less time.
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
    most ``MAX_VERTICES``.  The words are ``_arc_draws``'s, the formula the
    harness also computes its random blocks' ``bits`` with.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    arcs = _arc_draws(n, p, np.array([seed & _MASK64], dtype=np.uint64))[0]
    return Digraph(n, list(itertools.compress(_pair_list(n), arcs.tolist())))


def _arc_draws(n: int, p: float, seeds: np.ndarray) -> np.ndarray:
    """Whether each ordered pair of order n (``_pair_list``) is an arc of
    ``random_digraph(n, p, seed)``, for each ``uint64`` seed: a
    ``(K, n(n-1))`` bool array.

    The stream's state after k draws is seed + k * gamma, with
    gamma = 0x9E3779B97F4A7C15, so word k is the mix of
    seed + (k + 1) * gamma (mod 2^64), and one ``uint64`` expression, which
    wraps as the stream does, computes every word of every seed.  At p = 1
    floor(p * 2^64) = 2^64 lies above every word.
    """
    z = seeds[:, None] + np.arange(1, n * (n - 1) + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    threshold = int(p * (1 << 64))
    return z < np.uint64(threshold) if threshold <= _MASK64 else np.ones(z.shape, dtype=bool)


def _arc_stack(n: int, arcs: np.ndarray) -> np.ndarray:
    """The ``(K, n, n)`` int64 0-1 matrices of the rows of ``arcs``, a
    ``(K, n(n-1))`` array whose column k says whether pair k of
    ``_pair_list(n)`` is an arc."""
    stack = np.zeros((len(arcs), n * n), dtype=np.int64)
    stack[:, [i * n + j for i, j in _pair_list(n)]] = arcs
    return stack.reshape(len(arcs), n, n)


def _first_use_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 2-D array ``rows`` in order of first use:
    the index of each one's first row, ascending, and the ``(len(rows),)``
    rank of every row among them.

    One stable ``lexsort`` over the columns puts equal rows together, each
    group led by its first row; a row-wise ``!=`` of neighbours marks where
    a group starts, and a running count over the marked first rows ranks
    the groups in order of first use.  It compares the entries as they
    are, so int64 coefficient rows, rows of Python ints and packed
    ``uint8`` bit rows take the same route, and no row becomes a tuple.
    Rows of width 0 are all equal, one group.
    """
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(len(rows))
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[starts]  # each group's first row, the groups in sorted order
    leads = np.zeros(len(rows), dtype=bool)
    leads[first] = True
    rank = np.cumsum(leads) - 1  # at a first row, the rank of its group
    out = np.empty(len(rows), dtype=np.intp)
    out[order] = rank[first][np.cumsum(starts) - 1]
    return np.flatnonzero(leads), out


class Violation(NamedTuple):
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


class CheckStats:
    """The passed, failed and skipped counts of one check, added to block
    by block.  Mutable, so unhashable; equal to a CheckStats with the same
    counts."""

    __hash__ = None

    def __init__(self, passed: int = 0, failed: int = 0, skipped: int = 0):
        self.passed, self.failed, self.skipped = passed, failed, skipped

    def __repr__(self) -> str:
        return f"CheckStats(passed={self.passed!r}, failed={self.failed!r}, skipped={self.skipped!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.passed, self.failed, self.skipped) == (other.passed, other.failed, other.skipped)
        return NotImplemented


class VerificationReport(NamedTuple):
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
    ``(K,)``, ``(K, n)`` or ``(K, n, n)`` array or a list of K members,
    from one adjacency stack: ``bits``, the ``(K, n, n)`` int64 stack the
    block is built with.  ``verify_all``'s block sources compute it from
    the corpus's own arithmetic (the arc-mask counter of the enumeration,
    or the SplitMix64 words of the seeds), and ``from_digraphs`` builds it
    from the members' arcs (``adjacency_matrices``).  It gives the digon
    graphs ``digons`` (S = A o A^T, the geometric symmetrization of a 0-1
    matrix), the closed-walk profile (c2 = S 1, t2 = S c2 and their sums,
    in int64), the spectral radii of S and S^2 (one stacked ``eigvalsh``
    each over the block's distinct S, which ``_first_use_rows`` finds
    among their packed bit rows), the QR values of the spread check
    (``check_spreads``), the cycle-arc reductions ``reduced_bits`` (an
    arc (i, j) lies on a cycle iff j reaches i, read off a boolean
    reachability closure) and the edge-list text of a member (``text``).
    In ``verify_all`` the members' arcs are an independent second route
    that only the ``walk_rowsum`` check reads, entry by entry against
    ``bits``.

    The characteristic polynomials of the digraphs and of their reductions
    come from one kernel call on ``bits`` and the rows of ``reduced_bits``
    that drop an arc, and form the block's table ``polys`` of distinct
    polynomials: one sort of the kernel's coefficient array
    (``_first_use_rows``) dedupes its rows, and a ``CharPoly`` is built per
    distinct row only.  Each member holds one integer row of the table for
    itself (``poly_index``) and one for its reduction (``reduced_index``).
    Every per-polynomial step runs once per row: the certified spectra
    (``certified``, one Aberth call per degree of the exact square-free
    factors) and from those the Coulson integrals (the pole guard once per
    spectrum, one quadrature), whose PurelyImaginaryEigenvalueError is the
    one record of a pole on the path, the one a member's ``coulson_match``
    skip reads.  One ``check_spreads`` call (``spread_errors``) decides per
    row whether its polynomial has a repeated root, and gives a member of
    such a row whose QR values miss the roots its own EigensolverError.  A
    member's ``outcome`` is that error, else its row of ``certified``,
    and ``rejected`` marks the members of a rejected row and those with a
    spread error.  The spectral scalars, the integrals and the reduction
    invariance reach the members by the index.  A check reads the spectral
    scalars through ``spectral``, which raises the EigensolverError of the
    first rejected member among those the check reads.  The equality
    predictions are the verdicts' own integer tests on stacked arrays:
    ``walk_ratio_attained`` on the reductions and profiles for the radius
    (``equality_verdict_rho_lower``), ``energy_bound_attained`` on ``bits``
    for the energy (``equality_verdict_energy_upper``).  The checks of
    ``verify_all`` read these pieces; a lone ``Analysis`` is a block of
    one (``from_digraphs``) that reads row 0, its spectrum ``outcome(0)``,
    and hands its rows of ``bits`` and ``reduced_bits`` to the verdicts.

    ``memo`` is the run's store of per-polynomial work (see ``Memo``): the
    block reads and fills it, and a spectrum it holds is the one the
    polynomial gets in any block.
    """

    def __init__(self, digraphs: Sequence[Digraph], bits: np.ndarray, memo: Memo):
        self.digraphs = list(digraphs)
        self.n = bits.shape[-1]
        if bits.shape != (len(self.digraphs), self.n, self.n):
            raise ValueError(f"a block of {len(self.digraphs)} digraphs needs a "
                             f"({len(self.digraphs)}, n, n) adjacency stack, got {bits.shape}")
        self.bits = bits
        self.memo = memo

    @classmethod
    def from_digraphs(cls, digraphs: Sequence[Digraph], memo: Memo) -> "_Block":
        """The block of ``digraphs``, of one order, its ``bits`` built from
        their arcs (``adjacency_matrices``)."""
        return cls(digraphs, adjacency_matrices(digraphs), memo)

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

    def text(self, k: int) -> str:
        """Member k's row of ``bits`` in the edge-list format."""
        return serialize_edge_list(Digraph(self.n, np.argwhere(self.bits[k]).tolist()))

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
    def _poly_table(self) -> tuple[list[CharPoly], np.ndarray, np.ndarray]:
        size = len(self.bits)
        drops = np.flatnonzero((self.reduced_bits != self.bits).any(axis=(1, 2)))  # members that lose an arc
        coeffs = kernels.charpoly_from_masks(np.concatenate([self.bits, self.reduced_bits[drops]]))
        first, rows = _first_use_rows(coeffs)
        reduced = rows[:size].copy()  # a member that keeps every arc is its own reduction
        reduced[drops] = rows[size:]
        return [CharPoly(tuple(c)) for c in coeffs[first].tolist()], rows[:size], reduced

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
    def spread_errors(self) -> dict:
        """The EigensolverError of each member whose QR values miss its row
        of ``certified``, keyed by member (``check_spreads``)."""
        return check_spreads(self.certified, self.poly_index, self.bits, self.memo)

    def outcome(self, k: int):
        """Member k's spectrum, or the EigensolverError that rejects it: its
        own spread error, else its row of ``certified``."""
        return self.spread_errors.get(k, self.certified[self.poly_index[k]])

    @cached_property
    def rejected(self) -> np.ndarray:
        """The members whose spectrum is rejected: those of a rejected row
        of ``certified``, and those with a spread error."""
        rejected = np.array([isinstance(s, Exception) for s in self.certified], dtype=bool)[self.poly_index]
        rejected[list(self.spread_errors)] = True
        return rejected

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
            unwrap(self.outcome(int(read[0])))
        return self._spectral

    @cached_property
    def integrals(self) -> list:
        """The Coulson integral (``COULSON_REL_TOL``) of each member polynomial
        (the rows of ``certified``), or the exception that skips it: its
        PurelyImaginaryEigenvalueError, or the EigensolverError of its
        spectrum."""
        spectra = [s for s in self.certified if isinstance(s, Spectrum)]
        values = iter(coulson_energies(spectra, COULSON_REL_TOL, self.memo))
        return [next(values) if isinstance(s, Spectrum) else s for s in self.certified]

    @cached_property
    def symmetrization_radii(self) -> tuple[np.ndarray, np.ndarray]:
        """rho(S) and rho(S^2) of every member, computed once per distinct S
        of the block and gathered back by member: ``_first_use_rows`` on
        the packed bit rows of the S finds them.  LAPACK gives each matrix
        the same bits in any stack, so the radii are those of per-member
        calls."""
        s = self.digons
        first, index = _first_use_rows(np.packbits(s.reshape(len(s), -1), axis=1))
        distinct = s[first].astype(float)
        rho_s = np.abs(np.linalg.eigvalsh(distinct)).max(axis=1, initial=0.0)
        rho_s2 = np.abs(np.linalg.eigvalsh(distinct @ distinct)).max(axis=1, initial=0.0)
        return rho_s[index], rho_s2[index]

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
    chain at ``tol``, both equality verdicts and the Coulson integral are
    computed on first use and shared by every later reader.  The functions
    behind them take their pieces as arguments; this class is the one place
    that wires pieces to results.  The ``analyze`` command reads one, and
    ``to_dict()`` is the ``analyze --json`` document.

    It is a block of one (``_Block.from_digraphs([d], Memo())``) and reads
    row 0 of it: the profile, the spectrum (``outcome(0)``) and the
    verdicts on its rows of the block's adjacency and reduction stacks.
    The Coulson integral is that spectrum's at ``REL_TOL_FLOOR``, tighter
    than the harness's ``COULSON_REL_TOL``, so that ``warnings`` can flag
    an energy that misses it.  Its spectrum is its polynomial's, as in any
    block.  It builds one adjacency stack, from the arcs of ``d``, and the
    QR values of a repeated-root spread check come from that stack too.
    """

    def __init__(self, d: Digraph, tol: float = bounds_mod.DEFAULT_TOL):
        self.d = d
        self.tol = tol
        self._block = _Block.from_digraphs([d], Memo())

    @cached_property
    def profile(self) -> ClosedWalkProfile:
        return self._block.profile_row(0)

    @cached_property
    def spectrum(self) -> Spectrum:
        return unwrap(self._block.outcome(0))

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
        try:  # a rejected spectrum raises its own error
            return coulson_energy(self.spectrum, REL_TOL_FLOOR), None
        except PurelyImaginaryEigenvalueError as exc:
            return None, str(exc)

    @property
    def coulson(self) -> Optional[float]:
        """The Coulson integral, or None when a pole lies on its path."""
        return self._coulson[0]

    @property
    def warnings(self) -> tuple[str, ...]:
        """The bound chain's notes, then the pole that skipped the integral,
        or the integral's gap from the energy when it exceeds
        ``ENERGY_GAP_TOL``."""
        value, pole = self._coulson
        if pole is not None:
            return (*self.bounds.notes, f"coulson integral skipped: {pole}")
        gap = abs(value - self.spectrum.energy) / max(1.0, self.spectrum.energy)
        if gap > ENERGY_GAP_TOL:
            return (*self.bounds.notes, f"coulson integral differs from the energy by {gap:.3e} relative")
        return tuple(self.bounds.notes)

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
    return np.zeros(len(block.bits), dtype=bool)


def _check_walk_rowsum(block: _Block, tol: float):
    # The one check that reads the arcs: c2 from ``bits`` against the row
    # sums of S from the arcs, then the two stacks themselves: the arc
    # counts and the number of entries that differ.
    adjacency = adjacency_matrices(block.digraphs)
    c2 = block.profile.c2_seq
    rows = geometric_symmetrization(adjacency).sum(axis=2)
    gap = np.abs(rows - c2)
    differ = (block.bits != adjacency).sum(axis=(1, 2))
    return _never(block), [*((gap[:, i] != 0, c2[:, i], rows[:, i], gap[:, i]) for i in range(block.n)),
                           (differ != 0, block.profile.a, adjacency.sum(axis=(1, 2)), differ)]


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
    profile = block.profile
    mean_i, rms_i, ratio_i = block.walk_lowers
    mean = bounds_mod.rho_lower_walk_mean(profile)
    rms = bounds_mod.rho_lower_walk_rms(profile)
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
    """The members ``keep`` of a stacked profile, of its order n even if none."""
    return ClosedWalkProfile(*(field[keep] for field in profile))


def _check_energy_bounds(block: _Block, tol: float):
    profile = block.profile
    rho, energy, _, _ = block.spectral()
    mc_i, mean_i, rms_i, ratio_i = block.walk_uppers
    radius_i = block.energy_shape(rho)
    mc = bounds_mod.energy_upper_mcclelland(profile)
    # The radius, walk-mean and walk-rms bounds raise ValueError on the
    # members whose x exceeds sqrt(a) (rho, c2 / n and the rms walk count;
    # the last two only on a profile that comes from no digraph), and the
    # walk-ratio bound BoundInapplicableError on those it does not apply
    # to, so each is evaluated, and pinned, on the others only; an x above
    # sqrt(a) fails a slot of its own.
    n = block.n
    _, outside = bounds_mod._radicand(rho, n, profile.a)
    mean_ok = profile.c2_total ** 2 <= profile.a * n * n
    rms_ok = profile.sum_c2_sq <= profile.a * n
    applies = block.ratio_applies
    radius, e_mean, e_rms, e_ratio = (np.zeros(len(rho)) for _ in range(4))
    radius[~outside] = bounds_mod.energy_upper_radius(_rows(profile, ~outside), rho[~outside])
    e_mean[mean_ok] = bounds_mod.energy_upper_walk_mean(_rows(profile, mean_ok))
    e_rms[rms_ok] = bounds_mod.energy_upper_walk_rms(_rows(profile, rms_ok))
    e_ratio[applies] = bounds_mod.energy_upper_walk_ratio(_rows(profile, applies))
    pins = ((mc, mc_i, True), (radius, radius_i, ~outside), (e_mean, mean_i, mean_ok), (e_rms, rms_i, rms_ok),
            (e_ratio, ratio_i, applies))
    out = [(domain & ~bounds_mod.close_tol(got, want, PIN_TOL), got, want, np.abs(got - want))
           for got, want, domain in pins]
    root_a = np.sqrt(profile.a)
    mean_x, rms_x, _ = block.walk_lowers
    out += [(fail, x, root_a, x - root_a) for fail, x in ((outside, rho), (~mean_ok, mean_x), (~rms_ok, rms_x))]
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
    return skip, [(~skip & (diff > COULSON_REL_TOL), integral, energy, diff)]


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


def _exhaustive_blocks(n: int, memo: Memo) -> Iterator[_Block]:
    """Every digraph of order n, in blocks of ``BLOCK_SIZE``: the digraphs
    are pulled from ``enumerate_digraphs``, and a block's ``bits`` are read
    off the arc masks start, start + 1, ... that the enumeration counts
    through, bit k for pair k."""
    digraphs = enumerate_digraphs(n)
    width = len(_pair_list(n))
    for start in range(0, 1 << width, BLOCK_SIZE):
        masks = np.arange(start, min(start + BLOCK_SIZE, 1 << width))
        yield _Block(list(itertools.islice(digraphs, len(masks))),
                     _arc_stack(n, (masks[:, None] >> np.arange(width)) & 1), memo)


def _random_blocks(n: int, p: float, seed: int, count: int, memo: Memo) -> Iterator[_Block]:
    """``random_digraph(n, p, seed + k)`` for k < count, in blocks of
    ``BLOCK_SIZE``: the digraphs are drawn one at a time, and a block's
    ``bits`` come from one ``_arc_draws`` call on its seeds."""
    for start in range(0, count, BLOCK_SIZE):
        size = min(BLOCK_SIZE, count - start)
        seeds = np.uint64((seed + start) & _MASK64) + np.arange(size, dtype=np.uint64)
        yield _Block([random_digraph(n, p, seed + start + k) for k in range(size)],
                     _arc_stack(n, _arc_draws(n, p, seeds)), memo)


def _verify_block(block: _Block, selected: list[str], tol: float,
                  stats: dict[str, CheckStats], violations: list[Violation], inapplicable: list[str]) -> None:
    """Run the ``selected`` checks on ``block``: add its counts to
    ``stats``, its violations to ``violations``, and to ``inapplicable``
    the edge lists of its members that the walk-ratio bound does not apply
    to.

    A check's outcome arrays are kept only when some member fails it, and
    they die on return.
    """
    inapplicable += [block.text(k) for k in np.flatnonzero(~block.ratio_applies).tolist()]
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
        text = block.text(k)
        for name, failed, slots in outcomes:
            if failed[k]:
                violations += [Violation(text, name, float(lhs[k]), float(rhs[k]), float(gap[k]))
                               for fail, lhs, rhs, gap in slots if fail[k]]


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

    The corpus is taken in blocks of ``BLOCK_SIZE`` digraphs, in order
    (``_exhaustive_blocks``, ``_random_blocks``): the digraphs come one at a
    time from ``enumerate_digraphs`` or ``random_digraph``, and each block's
    adjacency stack ``bits`` from the corpus's own arithmetic.  Every check
    reads ``bits`` alone, except ``walk_rowsum``, which checks it against
    the digraphs' arcs.  Each check runs once per block (``_Block``), on
    its stacked pieces, and yields masks of the members it passes, fails
    and skips; a ``Violation``, with the edge-list text of the member's row
    of ``bits`` (the matrix that was checked), is built only for a failing
    member, in member order, then check order, then the check's own
    order.  A stacked result is bit for bit the per-digraph one, so the
    report does not depend on the block size, and a lone ``Analysis(d)``
    is a block of one.  The corpus is never held whole: each block goes
    to ``_verify_block`` and is dropped before the next one is built, so
    one block is held at a time.  A check raises
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
    memo = Memo()
    if mode == "exhaustive":
        if not 1 <= n <= EXHAUSTIVE_MAX_N:
            raise ValueError(f"exhaustive mode needs 1 <= n <= {EXHAUSTIVE_MAX_N}, got {n}")
        blocks = _exhaustive_blocks(n, memo)
        mode_desc = "exhaustive"
    elif mode == "random":
        if not 1 <= n <= RANDOM_MAX_N:
            raise ValueError(f"random mode needs 1 <= n <= {RANDOM_MAX_N}, got {n}")
        if count < 1:
            raise ValueError(f"need count >= 1, got {count}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"need 0 <= p <= 1, got {p}")
        blocks = _random_blocks(n, p, seed, count, memo)
        mode_desc = f"random(count={count}, p={p}, seed={seed})"
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'exhaustive' or 'random'")

    stats = {name: CheckStats() for name in selected}
    violations: list[Violation] = []
    inapplicable: list[str] = []
    checked = 0
    started = time.monotonic()
    for block in blocks:
        _verify_block(block, selected, tol, stats, violations, inapplicable)
        checked += len(block.bits)
        del block  # with its pieces and digraphs, before the next block is built
    return VerificationReport(
        n=n,
        mode=mode_desc,
        digraphs_checked=checked,
        checks_run=stats,
        violations=tuple(violations),
        bound_inapplicable=tuple(inapplicable),
        elapsed=time.monotonic() - started,
    )
