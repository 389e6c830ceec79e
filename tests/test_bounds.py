import math

import numpy as np
import pytest

from digenergy import (
    Analysis,
    BoundInapplicableError,
    ClosedWalkProfile,
    Digraph,
    bound_chain_report,
    energy_upper_mcclelland,
    energy_upper_radius,
    energy_upper_walk_mean,
    energy_upper_walk_ratio,
    energy_upper_walk_rms,
    enumerate_digraphs,
    inject_fault,
    random_digraph,
    rho_lower_walk_mean,
    rho_lower_walk_ratio,
    rho_lower_walk_rms,
    walk_profile,
    walk_ratio,
)
from digenergy import bounds as bounds_mod
from digenergy.bounds import _f_energy
from digenergy.oracle import _Block, _rows
from digenergy.spectrum import Memo

from families import complete_graph, directed_cycle, spectrum_of, star_graph, sym
from test_acceptance import BOUND_NAMES


def prof(d):
    return walk_profile(d)


def report(d):
    return bound_chain_report(prof(d), spectrum_of(d))


K3 = sym(complete_graph(3))
K2 = sym(complete_graph(2))
STAR = sym(star_graph(2))
C3 = directed_cycle(3)


class TestRadiusLowerBounds:
    def test_walk_mean(self):
        assert rho_lower_walk_mean(prof(K3)) == pytest.approx(2.0, abs=1e-12)
        assert rho_lower_walk_mean(prof(C3)) == 0.0
        assert rho_lower_walk_mean(prof(STAR)) == pytest.approx(4 / 3, abs=1e-12)

    def test_walk_rms(self):
        assert rho_lower_walk_rms(prof(K3)) == pytest.approx(2.0, abs=1e-12)
        assert rho_lower_walk_rms(prof(STAR)) == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rho_lower_walk_rms(prof(C3)) == 0.0

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



# The bounds whose formulas need n >= 1, in ``bound_chain_report``'s order.
GUARDED = [rho_lower_walk_mean, rho_lower_walk_rms, energy_upper_mcclelland, energy_upper_walk_mean,
           energy_upper_walk_rms, energy_upper_walk_ratio]


class TestOrder:
    """Every bound reads n from its profile: one profile's sequences, or the
    last axis of a stacked profile's, which a cut to no rows keeps."""

    @pytest.mark.parametrize("bound", GUARDED, ids=lambda f: f.__name__)
    def test_order_0_raises(self, bound):
        with pytest.raises(ValueError, match=r"^need n >= 1, got 0$"):
            bound(prof(Digraph(0)))

    def test_order_0_report_keeps_its_six_notes(self):
        rep = report(Digraph(0))
        assert rep.notes == tuple(f"{f.__name__}: need n >= 1, got 0" for f in GUARDED)
        assert rep.energy_upper_radius == 0.0 and rep.rho_lower_walk_ratio == 0.0

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_rows_of_a_stack_keep_its_order(self, n):
        ds = [random_digraph(n, 0.5, seed) for seed in range(40)]
        block = _Block.from_digraphs(ds, Memo())
        p, rho = block.profile, block.spectral()[0]
        for keep in (np.zeros(len(ds), dtype=bool), np.arange(len(ds)) % 3 == 0, np.ones(len(ds), dtype=bool)):
            rows = _rows(p, keep)
            assert rows.n == n and rows.c2_seq.shape == (int(keep.sum()), n)
            for bound in GUARDED + [rho_lower_walk_ratio]:
                assert bound(rows).tobytes() == bound(p)[keep].tobytes(), bound.__name__
            assert energy_upper_radius(rows, rho[keep]).tobytes() == energy_upper_radius(p, rho)[keep].tobytes()


class TestEnergyUpperBounds:
    def test_mcclelland(self):
        assert energy_upper_mcclelland(prof(K2)) == pytest.approx(2.0, abs=1e-12)
        assert energy_upper_mcclelland(prof(K3)) == pytest.approx(math.sqrt(18), abs=1e-12)
        assert energy_upper_mcclelland(prof(Digraph(3))) == 0.0

    def test_radius_form(self):
        assert energy_upper_radius(prof(K2), spectrum_of(K2).rho) == pytest.approx(2.0, abs=1e-12)
        assert energy_upper_radius(prof(K3), spectrum_of(K3).rho) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_radius(prof(C3), spectrum_of(C3).rho) == pytest.approx(3.0, abs=1e-12)

    def test_walk_mean_form(self):
        assert energy_upper_walk_mean(prof(K3)) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_walk_mean(prof(K2)) == pytest.approx(2.0, abs=1e-12)
        assert energy_upper_walk_mean(prof(C3)) == pytest.approx(math.sqrt(6), abs=1e-12)

    def test_walk_rms_form(self):
        assert energy_upper_walk_rms(prof(K3)) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_walk_rms(prof(STAR)) == pytest.approx(math.sqrt(2) + 2, abs=1e-12)
        assert energy_upper_walk_rms(prof(Digraph(2))) == 0.0

    def test_walk_ratio_form(self):
        assert energy_upper_walk_ratio(prof(K3)) == pytest.approx(4.0, abs=1e-12)
        assert energy_upper_walk_ratio(prof(K2)) == pytest.approx(2.0, abs=1e-12)
        bound = energy_upper_walk_ratio(prof(STAR))
        assert bound == pytest.approx(math.sqrt(2) + 2, abs=1e-12)
        assert bound >= spectrum_of(STAR).energy  # strict inequality case: E = 2*sqrt(2)
        assert spectrum_of(STAR).energy == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_inapplicable_ratio_raises(self):
        # hand-built inconsistent profile with q > a
        fake = ClosedWalkProfile(c2_seq=(1, 1), t2_seq=(3, 3), a=2, c2_total=2,
                                 sum_c2_sq=2, sum_t2_sq=18)
        with pytest.raises(BoundInapplicableError):
            energy_upper_walk_ratio(fake)

    @pytest.mark.parametrize("corpus", ["exhaustive-n1-4", "random-n6-12"])
    def test_walk_ratio_bound_always_applies(self, corpus):
        # q <= a, that is sum t2^2 <= a sum c2^2, in integers: Cauchy-Schwarz
        # over the c2_i digon neighbours of i gives t2_i^2 <= c2_i
        # sum_{j~i} c2_j^2, so sum t2^2 <= sum_j c2_j^2 t2_j; then t2_j <=
        # c2_total <= a.  The guard of energy_upper_walk_ratio stays for
        # profiles that come from no digraph.
        groups = ([list(enumerate_digraphs(n)) for n in range(1, 5)] if corpus == "exhaustive-n1-4"
                  else [[random_digraph(n, p, seed) for p in (0.3, 0.5) for seed in range(200)]
                        for n in (6, 8, 10, 12)])
        for ds in groups:
            p = _Block.from_digraphs(ds, Memo()).profile
            assert np.all(p.sum_t2_sq <= (p.c2_seq ** 2 * p.t2_seq).sum(axis=1))
            assert np.all(p.sum_t2_sq <= p.c2_total * p.sum_c2_sq)
            assert np.all(p.c2_total <= p.a)


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
    """``inject_fault`` swaps ``digenergy.bounds.<name>`` for a drifted
    wrapper while its block is open, so the bounds are read through the
    module here: a name imported before the block keeps the original."""

    def test_offsets_apply_and_clear(self):
        base = bounds_mod.rho_lower_walk_mean(prof(K3))
        with inject_fault("rho_lower_walk_mean", 1e-3):
            assert bounds_mod.rho_lower_walk_mean(prof(K3)) == pytest.approx(base + 1e-3)
            assert rho_lower_walk_mean(prof(K3)) == base
        assert bounds_mod.rho_lower_walk_mean(prof(K3)) == pytest.approx(base)

    def test_nested_faults_accumulate(self):
        base = bounds_mod.energy_upper_mcclelland(prof(K3))
        with inject_fault("energy_upper_mcclelland", 1e-3):
            with inject_fault("energy_upper_mcclelland", 1e-3):
                assert bounds_mod.energy_upper_mcclelland(prof(K3)) == pytest.approx(base + 2e-3)
            assert bounds_mod.energy_upper_mcclelland(prof(K3)) == pytest.approx(base + 1e-3)
        assert bounds_mod.energy_upper_mcclelland(prof(K3)) == pytest.approx(base)

    def test_no_digon_branch_drifts(self):
        with inject_fault("rho_lower_walk_ratio", 0.5):
            assert bounds_mod.rho_lower_walk_ratio(prof(C3)) == 0.5

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_original_restored_after_exit_and_after_raise(self, name):
        original = getattr(bounds_mod, name)
        with inject_fault(name, 1.0):
            assert getattr(bounds_mod, name) is not original
        assert getattr(bounds_mod, name) is original
        with pytest.raises(RuntimeError):
            with inject_fault(name, 1.0):
                raise RuntimeError("inside the block")
        assert getattr(bounds_mod, name) is original

    @pytest.mark.parametrize("name", BOUND_NAMES)
    def test_wrapper_keeps_the_bound_name(self, name):
        with inject_fault(name, 1.0):
            assert getattr(bounds_mod, name).__name__ == name

    def test_chain_report_notes_name_the_drifted_bound(self):
        # n = 0: the mean bound raises, and its note names it
        with inject_fault("rho_lower_walk_mean", 1.0):
            rep = report(Digraph(0))
        assert rep.rho_lower_walk_mean is None
        assert any(note.startswith("rho_lower_walk_mean: ") for note in rep.notes)

    def test_fault_reaches_analysis_bounds(self):
        base = Analysis(K3).bounds
        with inject_fault("energy_upper_walk_ratio", 1.0):
            drifted = Analysis(K3).bounds
        assert drifted.energy_upper_walk_ratio == base.energy_upper_walk_ratio + 1.0
        assert drifted.energy_upper_walk_rms == base.energy_upper_walk_rms

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="rho_lower_walk_mean") as exc:
            with inject_fault("rho_lower_walk_man", 1.0):
                pass
        for name in BOUND_NAMES:
            assert name in str(exc.value)
