import math

import pytest

from digenergy import (
    BoundInapplicableError,
    ClosedWalkProfile,
    Digraph,
    bound_chain_report,
    eigenvalues,
    energy,
    energy_upper_mcclelland,
    energy_upper_radius,
    energy_upper_walk_mean,
    energy_upper_walk_ratio,
    energy_upper_walk_rms,
    inject_fault,
    rho_lower_walk_mean,
    rho_lower_walk_ratio,
    rho_lower_walk_rms,
    spectral_radius,
    walk_profile,
    walk_ratio,
)
from digenergy.bounds import _f_energy

from families import complete_graph, directed_cycle, star_graph, sym


def prof(d):
    return walk_profile(d)


def report(d):
    return bound_chain_report(prof(d), eigenvalues(d))


K3 = sym(complete_graph(3))
K2 = sym(complete_graph(2))
STAR = sym(star_graph(2))
C3 = directed_cycle(3)


class TestRadiusLowerBounds:
    def test_walk_mean(self):
        assert rho_lower_walk_mean(prof(K3), 3) == pytest.approx(2.0, abs=1e-12)
        assert rho_lower_walk_mean(prof(C3), 3) == 0.0
        assert rho_lower_walk_mean(prof(STAR), 3) == pytest.approx(4 / 3, abs=1e-12)

    def test_walk_rms(self):
        assert rho_lower_walk_rms(prof(K3), 3) == pytest.approx(2.0, abs=1e-12)
        assert rho_lower_walk_rms(prof(STAR), 3) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rho_lower_walk_rms(prof(C3), 3) == 0.0

    def test_walk_ratio(self):
        assert rho_lower_walk_ratio(prof(K3)) == pytest.approx(2.0, abs=1e-12)
        assert rho_lower_walk_ratio(prof(STAR)) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_walk_ratio_with_pendant_arc(self):
        # a 4-cycle of digons plus one arc into a fresh vertex: the profile
        # gains only zeros, so the ratio bound stays 2 = rho
        from families import cycle_graph, from_graph

        base = from_graph(cycle_graph(4))
        d = Digraph(5, set(base.arcs) | {(0, 4)})
        p = prof(d)
        assert (p.sum_t2_sq, p.sum_c2_sq) == (64, 16)
        assert rho_lower_walk_ratio(p) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_ratio_is_zero(self):
        assert rho_lower_walk_ratio(prof(C3)) == 0.0
        assert walk_ratio(prof(C3)) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rho_lower_walk_mean(prof(K3), 0)
        with pytest.raises(ValueError):
            rho_lower_walk_rms(prof(K3), 0)


class TestEnergyUpperBounds:
    def test_mcclelland(self):
        assert energy_upper_mcclelland(prof(K2), 2) == pytest.approx(2.0, abs=1e-12)
        assert energy_upper_mcclelland(prof(K3), 3) == pytest.approx(math.sqrt(18), abs=1e-12)
        assert energy_upper_mcclelland(prof(Digraph(3)), 3) == 0.0

    def test_radius_form(self):
        assert energy_upper_radius(prof(K2), 2, spectral_radius(K2)) == pytest.approx(2.0, abs=1e-12)
        assert energy_upper_radius(prof(K3), 3, spectral_radius(K3)) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_radius(prof(C3), 3, spectral_radius(C3)) == pytest.approx(3.0, abs=1e-12)

    def test_walk_mean_form(self):
        assert energy_upper_walk_mean(prof(K3), 3) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_walk_mean(prof(K2), 2) == pytest.approx(2.0, abs=1e-12)
        assert energy_upper_walk_mean(prof(C3), 3) == pytest.approx(math.sqrt(6), abs=1e-12)

    def test_walk_rms_form(self):
        assert energy_upper_walk_rms(prof(K3), 3) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_walk_rms(prof(STAR), 3) == pytest.approx(math.sqrt(2) + 2, abs=1e-12)
        assert energy_upper_walk_rms(prof(Digraph(2)), 2) == 0.0

    def test_walk_ratio_form(self):
        assert energy_upper_walk_ratio(prof(K3), 3) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_walk_ratio(prof(K2), 2) == pytest.approx(2.0, abs=1e-12)
        bound = energy_upper_walk_ratio(prof(STAR), 3)
        assert bound == pytest.approx(math.sqrt(2) + 2, abs=1e-12)
        assert bound >= energy(STAR)  # strict inequality case: E = 2*sqrt(2)
        assert energy(STAR) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_inapplicable_ratio_raises(self):
        # hand-built inconsistent profile with q > a
        fake = ClosedWalkProfile(c2_seq=(1, 1), t2_seq=(3, 3), a=2, c2_total=2,
                                 sum_c2_sq=2, sum_t2_sq=18)
        with pytest.raises(BoundInapplicableError):
            energy_upper_walk_ratio(fake, 2)


class TestFMonotonicity:
    @pytest.mark.parametrize("n,a", [(3, 4), (4, 6), (5, 8), (6, 12)])
    def test_unimodal_shape(self, n, a):
        peak = math.sqrt(a / n)
        top = math.sqrt(a)
        rising = [peak * k / 40 for k in range(41)]
        for x1, x2 in zip(rising, rising[1:]):
            assert _f_energy(x1, n, a) <= _f_energy(x2, n, a) + 1e-12
        falling = [peak + (top - peak) * k / 40 for k in range(41)]
        for x1, x2 in zip(falling, falling[1:]):
            assert _f_energy(x1, n, a) >= _f_energy(x2, n, a) - 1e-12


class TestChainReport:
    def test_sym_triangle(self):
        rep = report(K3)
        assert rep.walk_dominated is True  # 6*3 < 36
        assert rep.chain_ok is True
        for value in (rep.energy_upper_radius, rep.energy_upper_walk_mean,
                      rep.energy_upper_walk_rms, rep.energy_upper_walk_ratio):
            assert value == pytest.approx(4.0, abs=1e-9)

    def test_directed_triangle(self):
        rep = report(C3)
        assert rep.walk_dominated is False
        assert rep.rho_lower_walk_mean == 0.0
        assert rep.rho_lower_walk_rms == 0.0
        assert rep.rho_lower_walk_ratio == 0.0
        assert rep.chain_ok is True

    def test_sym_star(self):
        rep = report(STAR)
        assert rep.walk_dominated is True  # 4*3 < 16
        assert rep.energy_upper_walk_ratio == pytest.approx(rep.energy_upper_walk_rms, abs=1e-12)
        assert rep.energy_upper_walk_ratio == pytest.approx(math.sqrt(2) + 2, abs=1e-9)
        # f at c2/n evaluated by hand: 4/3 + sqrt(2*(4 - 16/9))
        assert rep.energy_upper_walk_mean == pytest.approx(4 / 3 + math.sqrt(40 / 9), abs=1e-9)
        assert rep.energy_upper_walk_ratio <= rep.energy_upper_walk_mean
        assert rep.chain_ok is True

    def test_empty_digraph_report(self):
        rep = report(Digraph(0))
        assert rep.rho == 0.0 and rep.energy == 0.0
        assert rep.rho_lower_walk_mean is None  # n = 0: mean undefined
        assert rep.notes

    def test_to_dict_roundtrips_values(self):
        d = report(K3).to_dict()
        assert d["energy"] == pytest.approx(4.0)
        assert d["walk_dominated"] is True


class TestFaultInjection:
    def test_offsets_apply_and_clear(self):
        base = rho_lower_walk_mean(prof(K3), 3)
        with inject_fault("rho_lower_walk_mean", 1e-3):
            assert rho_lower_walk_mean(prof(K3), 3) == pytest.approx(base + 1e-3)
        assert rho_lower_walk_mean(prof(K3), 3) == pytest.approx(base)

    def test_nested_faults_accumulate(self):
        base = energy_upper_mcclelland(prof(K3), 3)
        with inject_fault("energy_upper_mcclelland", 1e-3):
            with inject_fault("energy_upper_mcclelland", 1e-3):
                assert energy_upper_mcclelland(prof(K3), 3) == pytest.approx(base + 2e-3)
            assert energy_upper_mcclelland(prof(K3), 3) == pytest.approx(base + 1e-3)
        assert energy_upper_mcclelland(prof(K3), 3) == pytest.approx(base)
