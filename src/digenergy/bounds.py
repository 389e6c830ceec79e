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
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .digraph import ClosedWalkProfile
from .errors import BoundInapplicableError
from .spectrum import Spectrum

DEFAULT_TOL = 1e-8

# Test-only fault injection: named offsets added to bound outputs so the
# verification harness can prove it notices a drifted formula.
_FAULTS: dict[str, float] = {}


@contextmanager
def inject_fault(name: str, delta: float):
    """Temporarily add ``delta`` to the named bound's output (testing aid)."""
    _FAULTS[name] = _FAULTS.get(name, 0.0) + delta
    try:
        yield
    finally:
        _FAULTS[name] -= delta
        if _FAULTS[name] == 0.0:
            del _FAULTS[name]


def _fault(name: str) -> float:
    return _FAULTS.get(name, 0.0)


def leq_tol(lhs: float, rhs: float, tol: float = DEFAULT_TOL) -> bool:
    """lhs <= rhs within an absolute tolerance normalized by max(1, |values|)."""
    return lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs))


def close_tol(lhs: float, rhs: float, tol: float = DEFAULT_TOL) -> bool:
    return abs(lhs - rhs) <= tol * max(1.0, abs(lhs), abs(rhs))


def rho_lower_walk_mean(profile: ClosedWalkProfile, n: int) -> float:
    """Radius lower bound c2 / n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return profile.c2_total / n + _fault("rho_lower_walk_mean")


def rho_lower_walk_rms(profile: ClosedWalkProfile, n: int) -> float:
    """Radius lower bound sqrt(sum c2_i^2 / n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.sqrt(profile.sum_c2_sq / n) + _fault("rho_lower_walk_rms")


def rho_lower_walk_ratio(profile: ClosedWalkProfile) -> float:
    """Radius lower bound sqrt(sum t2_i^2 / sum c2_i^2); 0 when no digons."""
    if profile.sum_c2_sq == 0:
        return 0.0 + _fault("rho_lower_walk_ratio")
    return math.sqrt(profile.sum_t2_sq / profile.sum_c2_sq) + _fault("rho_lower_walk_ratio")


def walk_ratio(profile: ClosedWalkProfile) -> float:
    """The squared walk-ratio bound q = sum t2_i^2 / sum c2_i^2 (0 if no digons)."""
    if profile.sum_c2_sq == 0:
        return 0.0
    return profile.sum_t2_sq / profile.sum_c2_sq


def _f_energy(x: float, n: int, a: int) -> float:
    """f(x) = x + sqrt((n-1)(a - x^2)), the shared energy-bound shape."""
    radicand = (n - 1) * (a - x * x)
    if radicand < -1e-9 * max(1.0, abs(a)):
        raise ValueError(f"negative radicand {radicand:.3e} in energy bound (x={x}, n={n}, a={a})")
    return x + math.sqrt(max(0.0, radicand))


def energy_upper_mcclelland(profile: ClosedWalkProfile, n: int) -> float:
    """McClelland-type bound sqrt(n (a + c2) / 2)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return math.sqrt(n * (profile.a + profile.c2_total) / 2.0) + _fault("energy_upper_mcclelland")


def energy_upper_radius(profile: ClosedWalkProfile, n: int, rho: float) -> float:
    """Energy bound f(rho) = rho + sqrt((n-1)(a - rho^2)) at the spectral
    radius ``rho``."""
    return _f_energy(rho, n, profile.a) + _fault("energy_upper_radius")


def energy_upper_walk_mean(profile: ClosedWalkProfile, n: int) -> float:
    """Energy bound f(c2/n).  The radicand cannot go negative for a valid
    digraph (c2 <= a and c2 <= n(n-1)); this is asserted exactly."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if profile.c2_total ** 2 > profile.a * n * n:
        raise ValueError("mean walk count exceeds sqrt(a); profile is not from a valid digraph")
    return _f_energy(profile.c2_total / n, n, profile.a) + _fault("energy_upper_walk_mean")


def energy_upper_walk_rms(profile: ClosedWalkProfile, n: int) -> float:
    """Energy bound f(sqrt(sum c2_i^2 / n)); same unreachable-domain guard."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if profile.sum_c2_sq > profile.a * n:
        raise ValueError("rms walk count exceeds sqrt(a); profile is not from a valid digraph")
    return _f_energy(math.sqrt(profile.sum_c2_sq / n), n, profile.a) + _fault("energy_upper_walk_rms")


def energy_upper_walk_ratio(profile: ClosedWalkProfile, n: int) -> float:
    """Energy bound f(sqrt(q)) with q the walk ratio.

    q <= a holds for every valid digraph (q <= rho^2 <= a); if a profile
    ever violates it the bound is inapplicable and this raises
    BoundInapplicableError rather than clamping.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if profile.sum_t2_sq > profile.a * profile.sum_c2_sq:
        raise BoundInapplicableError(walk_ratio(profile), profile.a)
    q = walk_ratio(profile)
    return _f_energy(math.sqrt(q), n, profile.a) + _fault("energy_upper_walk_ratio")


@dataclass(frozen=True)
class BoundReport:
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
    energy_upper_radius: float
    energy_upper_walk_mean: Optional[float]
    energy_upper_walk_rms: Optional[float]
    energy_upper_walk_ratio: Optional[float]
    walk_dominated: bool
    chain_ok: bool
    notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "arc_count": self.arc_count,
            "c2_total": self.c2_total,
            "rho": self.rho,
            "energy": self.energy,
            "rho_lower_walk_mean": self.rho_lower_walk_mean,
            "rho_lower_walk_rms": self.rho_lower_walk_rms,
            "rho_lower_walk_ratio": self.rho_lower_walk_ratio,
            "energy_upper_mcclelland": self.energy_upper_mcclelland,
            "energy_upper_radius": self.energy_upper_radius,
            "energy_upper_walk_mean": self.energy_upper_walk_mean,
            "energy_upper_walk_rms": self.energy_upper_walk_rms,
            "energy_upper_walk_ratio": self.energy_upper_walk_ratio,
            "walk_dominated": self.walk_dominated,
            "chain_ok": self.chain_ok,
            "notes": list(self.notes),
        }


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

    mean = attempt(rho_lower_walk_mean, profile, n)
    rms = attempt(rho_lower_walk_rms, profile, n)
    ratio = rho_lower_walk_ratio(profile)
    e_mc = attempt(energy_upper_mcclelland, profile, n)
    e_radius = energy_upper_radius(profile, n, spectrum.rho)
    e_mean = attempt(energy_upper_walk_mean, profile, n)
    e_rms = attempt(energy_upper_walk_rms, profile, n)
    e_ratio = attempt(energy_upper_walk_ratio, profile, n)

    dominated = a * n < profile.c2_total ** 2

    ok = True
    if mean is not None and rms is not None:
        ok &= leq_tol(mean, rms, tol)
    if rms is not None and profile.c2_total > 0:
        ok &= leq_tol(rms, ratio, tol)
    ok &= leq_tol(ratio, spectrum.rho, tol)
    if mean is not None:
        ok &= leq_tol(mean, spectrum.rho, tol)
    ok &= leq_tol(spectrum.energy, e_radius, tol)
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
