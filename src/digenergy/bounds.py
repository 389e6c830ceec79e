"""Spectral-radius lower bounds and energy upper bounds from walk counts.

Three radius lower bounds, in increasing strength (the last two coincide
with the radius exactly on the structured families recognized in
``structure``):

    walk_mean   c2 / n
    walk_rms    sqrt(sum_i c2_i^2 / n)
    walk_ratio  sqrt(sum_i t2_i^2 / sum_i c2_i^2)

Every energy upper bound except McClelland's is f(x) = x + sqrt((n-1)(a - x^2))
evaluated at one of those radius estimates; f increases on [0, sqrt(a/n)] and
decreases on [sqrt(a/n), sqrt(a)].  On walk-dominated digraphs (a*n < c2^2)
the three f-based bounds are provably ordered:

    energy <= f(walk_ratio) <= f(walk_rms) <= f(walk_mean).

Each bound takes one profile, or the stacked profile of a block of K
digraphs with rho as a (K,) array, and is then one (K,) array: the same
float per row, since ``np.sqrt`` is correctly rounded like ``math.sqrt``
and the profile integers convert to float64 exactly.  The order n is the
profile's own (the last axis of its sequences, so a stack cut to no rows
keeps it), and one guard raises for n < 1 in the six bounds whose
formulas need it.  A domain guard raises when any row fails it.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import NamedTuple, Optional

import numpy as np

from .digraph import ClosedWalkProfile
from .errors import BoundInapplicableError
from .spectrum import Spectrum

DEFAULT_TOL = 1e-8

# The bound functions ``inject_fault`` can drift.
_BOUND_NAMES = (
    "rho_lower_walk_mean", "rho_lower_walk_rms", "rho_lower_walk_ratio",
    "energy_upper_mcclelland", "energy_upper_radius", "energy_upper_walk_mean",
    "energy_upper_walk_rms", "energy_upper_walk_ratio",
)


@contextmanager
def inject_fault(name: str, delta: float):
    """Temporarily add ``delta`` to the named bound's output (testing aid).

    Swaps ``bounds.<name>`` for a wrapper while the block is open, so only
    callers that look the bound up on this module at call time see the
    drift.  Faults nest; not for concurrent use.
    """
    if name not in _BOUND_NAMES:
        raise ValueError(f"unknown bound {name!r}; expected one of {', '.join(_BOUND_NAMES)}")
    original = globals()[name]

    @functools.wraps(original)
    def drifted(*args, **kwargs):
        return original(*args, **kwargs) + delta

    globals()[name] = drifted
    try:
        yield
    finally:
        globals()[name] = original


def leq_tol(lhs, rhs, tol: float):
    """lhs <= rhs within an absolute tolerance normalized by max(1, |values|);
    elementwise on arrays."""
    return lhs <= rhs + tol * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def close_tol(lhs, rhs, tol: float):
    """|lhs - rhs| within the same normalized tolerance; elementwise on arrays."""
    return np.abs(lhs - rhs) <= tol * np.maximum(np.maximum(1.0, np.abs(lhs)), np.abs(rhs))


def _first(values, bad):
    """The value of ``values`` at the first row where ``bad`` holds."""
    return np.broadcast_to(values, np.shape(bad)).flat[np.argmax(bad)]


def _order(profile: ClosedWalkProfile) -> int:
    """The order n of ``profile``, for a bound that divides by n or takes
    sqrt((n-1) ...); raises ValueError when n < 1."""
    n = profile.n
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n


def rho_lower_walk_mean(profile: ClosedWalkProfile) -> float:
    """Radius lower bound c2 / n."""
    return profile.c2_total / _order(profile)


def rho_lower_walk_rms(profile: ClosedWalkProfile) -> float:
    """Radius lower bound sqrt(sum c2_i^2 / n)."""
    return np.sqrt(profile.sum_c2_sq / _order(profile))


def walk_ratio(profile: ClosedWalkProfile) -> float:
    """The squared walk-ratio bound q = sum t2_i^2 / sum c2_i^2 (0 if no digons)."""
    c2 = profile.sum_c2_sq
    # The factor (c2 != 0) makes the no-digon rows 0 and the divisor keeps
    # them from dividing by zero; both are exact on the other rows.
    return (c2 != 0) * profile.sum_t2_sq / np.maximum(c2, 1)


def rho_lower_walk_ratio(profile: ClosedWalkProfile) -> float:
    """Radius lower bound sqrt(walk_ratio); 0 when no digons."""
    return np.sqrt(walk_ratio(profile))


def _radicand(x, n: int, a):
    """The radicand (n-1)(a - x^2) of f(x), and the rows where it is
    negative beyond rounding: there x exceeds sqrt(a) and f is undefined."""
    radicand = (n - 1) * (a - x * x)
    return radicand, radicand < -1e-9 * np.maximum(1.0, np.abs(a))


def _f_energy(x: float, n: int, a: int) -> float:
    """f(x) = x + sqrt((n-1)(a - x^2)), the shared energy-bound shape;
    raises ValueError if x exceeds sqrt(a) on any row."""
    radicand, bad = _radicand(x, n, a)
    if np.any(bad):
        raise ValueError(f"negative radicand {_first(radicand, bad):.3e} in energy bound "
                         f"(x={_first(x, bad)}, n={n}, a={_first(a, bad)})")
    return x + np.sqrt(np.maximum(0.0, radicand))


def energy_upper_mcclelland(profile: ClosedWalkProfile) -> float:
    """McClelland-type bound sqrt(n (a + c2) / 2)."""
    return np.sqrt(_order(profile) * (profile.a + profile.c2_total) / 2.0)


def energy_upper_radius(profile: ClosedWalkProfile, rho: float) -> float:
    """Energy bound f(rho) = rho + sqrt((n-1)(a - rho^2)) at the spectral
    radius ``rho``."""
    return _f_energy(rho, profile.n, profile.a)


def energy_upper_walk_mean(profile: ClosedWalkProfile) -> float:
    """Energy bound f(c2/n).  The radicand cannot go negative for a valid
    digraph (c2 <= a and c2 <= n(n-1)); this is asserted exactly."""
    n = _order(profile)
    if np.any(profile.c2_total ** 2 > profile.a * n * n):
        raise ValueError("mean walk count exceeds sqrt(a); profile is not from a valid digraph")
    return _f_energy(profile.c2_total / n, n, profile.a)


def energy_upper_walk_rms(profile: ClosedWalkProfile) -> float:
    """Energy bound f(sqrt(sum c2_i^2 / n)); same unreachable-domain guard."""
    n = _order(profile)
    if np.any(profile.sum_c2_sq > profile.a * n):
        raise ValueError("rms walk count exceeds sqrt(a); profile is not from a valid digraph")
    return _f_energy(np.sqrt(profile.sum_c2_sq / n), n, profile.a)


def energy_upper_walk_ratio(profile: ClosedWalkProfile) -> float:
    """Energy bound f(sqrt(q)) with q the walk ratio.

    q <= a, that is sum t2^2 <= a sum c2^2, holds for every digraph, in
    integers.  t2_i sums c2_j over the c2_i digon neighbours j of i, so by
    Cauchy-Schwarz t2_i^2 <= c2_i sum_{j~i} c2_j^2; summed over i, and
    since the digon relation is symmetric, sum t2^2 <= sum_j c2_j^2 t2_j.
    Then t2_j <= c2_total <= a (c2_total counts the arcs that lie on a
    digon), so sum t2^2 <= c2_total sum c2^2 <= a sum c2^2.  A profile
    that violates it comes from no digraph: the bound is inapplicable and
    this raises BoundInapplicableError rather than clamping.
    """
    n = _order(profile)
    q = walk_ratio(profile)
    bad = profile.sum_t2_sq > profile.a * profile.sum_c2_sq
    if np.any(bad):
        raise BoundInapplicableError(_first(q, bad), _first(profile.a, bad))
    return _f_energy(np.sqrt(q), n, profile.a)


class BoundReport(NamedTuple):
    """Every bound value for one digraph, plus the ordering verdicts.

    ``walk_dominated`` is the exact integer test a*n < c2^2; on that family
    the three f-based energy bounds are ordered walk_ratio <= walk_rms <=
    walk_mean.  ``chain_ok`` records whether every applicable ordering held
    within tolerance.  Bounds that could not be evaluated are None, with a
    reason appended to ``notes``.
    """

    n: int
    arc_count: int
    c2_total: int
    rho: float
    energy: float
    rho_lower_walk_mean: Optional[float]
    rho_lower_walk_rms: Optional[float]
    rho_lower_walk_ratio: float
    energy_upper_mcclelland: Optional[float]
    energy_upper_radius: Optional[float]
    energy_upper_walk_mean: Optional[float]
    energy_upper_walk_rms: Optional[float]
    energy_upper_walk_ratio: Optional[float]
    walk_dominated: bool
    chain_ok: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {**self._asdict(), "notes": list(self.notes)}


def bound_chain_report(
    profile: ClosedWalkProfile, spectrum: Spectrum, tol: float = DEFAULT_TOL
) -> BoundReport:
    """Evaluate every bound plus rho and energy and check their orderings.

    n and a come from ``profile``.  ``spectrum`` may be one certified for
    another digraph with the same characteristic polynomial.
    """
    n, a = profile.n, profile.a
    notes: list[str] = []

    def attempt(fn, *args):
        try:
            return fn(*args)
        except (ValueError, BoundInapplicableError) as exc:
            notes.append(f"{fn.__name__}: {exc}")
            return None

    mean = attempt(rho_lower_walk_mean, profile)
    rms = attempt(rho_lower_walk_rms, profile)
    ratio = rho_lower_walk_ratio(profile)
    e_mc = attempt(energy_upper_mcclelland, profile)
    e_radius = attempt(energy_upper_radius, profile, spectrum.rho)
    e_mean = attempt(energy_upper_walk_mean, profile)
    e_rms = attempt(energy_upper_walk_rms, profile)
    e_ratio = attempt(energy_upper_walk_ratio, profile)

    dominated = a * n < profile.c2_total ** 2

    ok = True
    if mean is not None and rms is not None:
        ok &= leq_tol(mean, rms, tol)
    if rms is not None and profile.c2_total > 0:
        ok &= leq_tol(rms, ratio, tol)
    ok &= leq_tol(ratio, spectrum.rho, tol)
    if mean is not None:
        ok &= leq_tol(mean, spectrum.rho, tol)
    # A rho above sqrt(a), where f(rho) is undefined, breaks rho <= sqrt(a).
    ok &= e_radius is not None and leq_tol(spectrum.energy, e_radius, tol)
    if e_ratio is not None:
        ok &= leq_tol(spectrum.energy, e_ratio, tol)
    if dominated and None not in (e_ratio, e_rms, e_mean):
        ok &= leq_tol(e_ratio, e_rms, tol) and leq_tol(e_rms, e_mean, tol)

    return BoundReport(
        n=n,
        arc_count=a,
        c2_total=profile.c2_total,
        rho=spectrum.rho,
        energy=spectrum.energy,
        rho_lower_walk_mean=mean,
        rho_lower_walk_rms=rms,
        rho_lower_walk_ratio=ratio,
        energy_upper_mcclelland=e_mc,
        energy_upper_radius=e_radius,
        energy_upper_walk_mean=e_mean,
        energy_upper_walk_rms=e_rms,
        energy_upper_walk_ratio=e_ratio,
        walk_dominated=dominated,
        chain_ok=bool(ok),
        notes=tuple(notes),
    )
