import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digenergy import (
    Digraph,
    Graph,
    PurelyImaginaryEigenvalueError,
    characteristic_polynomial,
    coulson_energy,
    cycle_arc_reduction,
    eigenvalues,
    energy,
    enumerate_digraphs,
    from_graph,
    moment_identities,
    random_digraph,
    spectral_radius,
    walk_profile,
)
from digenergy import spectrum as spectrum_mod
from digenergy.spectrum import (
    _charpoly_of_masks,
    _coprime_to_derivative_mod_q,
    _coulson_integral,
    _repeated_roots,
    _square_free_decomposition,
)

from families import (
    complete_graph,
    directed_cycle,
    directed_path,
    path_graph,
    petersen_graph,
    star_graph,
    sym,
)
from test_digraph import digraphs


class TestCharPoly:
    def test_sym_edge(self):
        # det(xI - [[0,1],[1,0]]) = x^2 - 1
        assert characteristic_polynomial(sym(complete_graph(2))).coeffs == (-1, 0, 1)

    def test_directed_triangle(self):
        assert characteristic_polynomial(directed_cycle(3)).coeffs == (-1, 0, 0, 1)

    def test_sym_triangle(self):
        # (x-2)(x+1)^2 = x^3 - 3x - 2
        assert characteristic_polynomial(sym(complete_graph(3))).coeffs == (-2, -3, 0, 1)

    def test_empty_and_single(self):
        assert characteristic_polynomial(Digraph(0)).coeffs == (1,)
        assert characteristic_polynomial(Digraph(1)).coeffs == (0, 1)

    def test_monic_with_zero_trace(self):
        p = characteristic_polynomial(sym(petersen_graph()))
        assert p.coeffs[-1] == 1
        assert p.coeffs[-2] == 0  # no loops

    def test_digon_free_quadratic_coefficient_zero(self):
        p = characteristic_polynomial(directed_cycle(4))
        assert p.coeffs[2] == 0

    @given(digraphs(max_n=6))
    @settings(max_examples=60)
    def test_second_coefficient_counts_digons(self, d):
        if d.n < 2:
            return
        p = characteristic_polynomial(d)
        assert p.coeffs[d.n - 2] == -walk_profile(d).c2_total // 2

    @given(digraphs(max_n=5))
    @settings(max_examples=60)
    def test_against_numpy(self, d):
        # Independent float route: numpy builds the polynomial from
        # the QR eigenvalues of the adjacency matrix.
        from digenergy import adjacency_matrix

        exact = characteristic_polynomial(d).coeffs
        approx = np.poly(adjacency_matrix(d).astype(float)) if d.n else np.array([1.0])
        assert np.allclose(approx[::-1], [float(c) for c in exact], atol=1e-6)

    def test_evaluation(self):
        p = characteristic_polynomial(sym(complete_graph(3)))
        assert p(2) == 0
        assert p(-1) == 0
        assert p(0) == -2


def _reference_charpoly(n, out_masks):
    """Faddeev-LeVerrier on nested lists of Python ints: the exact reference
    for the numpy recurrence."""
    if n == 0:
        return [1]
    a = [[(out_masks[i] >> j) & 1 for j in range(n)] for i in range(n)]
    rng = range(n)
    m = [row[:] for row in a]
    cs = [0] * (n + 1)  # cs[k] is the coefficient of x**(n-k)
    cs[0] = 1
    cs[1] = -sum(m[i][i] for i in rng)
    for k in range(2, n + 1):
        ck = cs[k - 1]
        t = [[m[i][j] + (ck if i == j else 0) for j in rng] for i in rng]
        m = [
            [sum(a[i][l] * t[l][j] for l in rng if a[i][l]) for j in rng]
            for i in rng
        ]
        tr = sum(m[i][i] for i in rng)
        q, r = divmod(-tr, k)
        assert r == 0
        cs[k] = q
    return [cs[n - k] for k in range(n + 1)]


def _poly_mul(*factors):
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                prod[i + j] += x * y
        out = prod
    return tuple(out)


def _power(f, k):
    return _poly_mul(*[f] * k)


def _root_power(root, k):
    """(x - root)^k, ascending."""
    return _power((-root, 1), k)


def _transitive_tournament(n):
    return Digraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# Orders on both sides of the int64/object switch of the charpoly recurrence:
# int64 is proven safe in advance up to n = 12; past that the recurrence
# checks its values step by step.  At n = 64, J - I and the transitive
# tournament move to Python ints part way through; the directed cycle
# stays on int64 throughout.
CLOSED_FORM_ORDERS = (0, 1, 2, 12, 13, 16, 32, 64)

RANDOM_CORPUS = [random_digraph(n, p, seed)
                 for n in range(1, 21) for p in (0.1, 0.3, 0.6) for seed in (1, 2)]


class TestCharPolyExactness:
    """The numpy recurrence is exact and returns plain ints at every order."""

    @pytest.mark.parametrize("n", CLOSED_FORM_ORDERS)
    def test_complete_digraph(self, n):
        coeffs = characteristic_polynomial(sym(complete_graph(n))).coeffs
        want = (1,) if n == 0 else _poly_mul(_root_power(n - 1, 1), _root_power(-1, n - 1))
        assert coeffs == want
        assert all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("n", CLOSED_FORM_ORDERS)
    def test_directed_cycle(self, n):
        d = directed_cycle(n) if n >= 2 else Digraph(n)
        coeffs = characteristic_polynomial(d).coeffs
        # x^n - 1; the orders 0 and 1 have no cycle and give x^n.
        want = (-1,) + (0,) * (n - 1) + (1,) if n >= 2 else (0,) * n + (1,)
        assert coeffs == want
        assert all(type(c) is int for c in coeffs)

    @pytest.mark.parametrize("n", CLOSED_FORM_ORDERS)
    def test_transitive_tournament_is_nilpotent(self, n):
        coeffs = characteristic_polynomial(_transitive_tournament(n)).coeffs
        assert coeffs == (0,) * n + (1,)
        assert all(type(c) is int for c in coeffs)

    def test_matches_python_int_reference(self):
        for d in RANDOM_CORPUS:
            coeffs = characteristic_polynomial(d).coeffs
            assert list(coeffs) == _reference_charpoly(d.n, d.out_masks)
            assert all(type(c) is int for c in coeffs)

    def test_matches_reference_after_moving_to_python_ints(self):
        # Dense enough that the recurrence leaves int64 part way through.
        d = random_digraph(48, 0.5, 1)
        coeffs = characteristic_polynomial(d).coeffs
        assert list(coeffs) == _reference_charpoly(d.n, d.out_masks)
        assert all(type(c) is int for c in coeffs)

    def test_sink_rows_after_moving_to_python_ints(self):
        # The digraph above with two sinks added, one inside the vertex
        # order and one last: zero rows of A in the product on Python ints,
        # which this digraph also enters.  A sink adds a factor x to the
        # characteristic polynomial.
        d = random_digraph(48, 0.5, 1)
        arcs = [(i + (i >= 20), j + (j >= 20)) for i, j in d.arcs] + [(0, 20), (3, 20), (7, 49)]
        coeffs = characteristic_polynomial(Digraph(50, arcs)).coeffs
        assert coeffs == (0, 0) + characteristic_polynomial(d).coeffs
        assert all(type(c) is int for c in coeffs)


class TestSquareFreeDecomposition:
    def test_square_free_passthrough(self):
        assert _square_free_decomposition((-1, 0, 0, 1)) == [((-1, 0, 0, 1), 1)]

    def test_double_pair(self):
        assert _square_free_decomposition((1, 0, -2, 0, 1)) == [((-1, 0, 1), 2)]

    def test_nilpotent(self):
        assert _square_free_decomposition((0, 0, 0, 1)) == [((0, 1), 3)]

    def test_mixed(self):
        assert _square_free_decomposition((-2, -3, 0, 1)) == [((-2, 1), 1), ((1, 1), 2)]

    def test_zero_eigenvalues_split_off(self):
        # x^3 (x^2 - 2) and x^2 (x - 1)
        assert _square_free_decomposition((0, 0, 0, -2, 0, 1)) == [((-2, 0, 1), 1), ((0, 1), 3)]
        assert _square_free_decomposition((0, 0, -1, 1)) == [((-1, 1), 1), ((0, 1), 2)]
        assert _square_free_decomposition((0, -2, 0, 1)) == [((0, -2, 0, 1), 1)]


def _rational_yun(coeffs, monkeypatch):
    """The decomposition with the modular certificate switched off."""
    with monkeypatch.context() as m:
        m.setattr(spectrum_mod, "_coprime_to_derivative_mod_q", lambda c: False)
        return _square_free_decomposition(coeffs)


REPEATED_ROOT_POLYS = [
    _poly_mul(_root_power(2, 2), _root_power(-1, 1)),
    _poly_mul(_power((1, 0, 1), 2), _root_power(0, 3)),
    _poly_mul(_root_power(3, 1), _power((-2, 0, 1), 3), _root_power(-1, 4)),
    _power((-1, -1, 1), 2),
    _root_power(0, 9),
    # The characteristic polynomial of J - I at n = 20: (x - 19)(x + 1)^19.
    _poly_mul(_root_power(19, 1), _root_power(-1, 19)),
]


# Symmetric digraphs of sparse random graphs, at orders of `analyze`.
SPARSE_SYMMETRIC_CORPUS = [
    from_graph(Graph(n, [(i, j) for i, j in random_digraph(n, p, seed).arcs if i < j]))
    for n in (16, 32) for p in (0.08, 0.15) for seed in (1, 2, 3)
]


class TestModularCertificate:
    """A trivial gcd(p, p') mod 2^61 - 1 short-cuts Yun; nothing else may change."""

    def test_matches_rational_yun_on_charpolys(self, monkeypatch):
        square_free = 0
        for d in RANDOM_CORPUS:
            coeffs = characteristic_polynomial(d).coeffs
            got = _square_free_decomposition(coeffs)
            assert got == _rational_yun(coeffs, monkeypatch)
            square_free += got == [(coeffs, 1)]
        assert 0 < square_free < len(RANDOM_CORPUS)

    @pytest.mark.parametrize("coeffs", REPEATED_ROOT_POLYS)
    def test_repeated_roots_are_never_certified(self, coeffs, monkeypatch):
        assert not _coprime_to_derivative_mod_q(coeffs)
        got = _square_free_decomposition(coeffs)
        assert got == _rational_yun(coeffs, monkeypatch)
        assert max(mult for _, mult in got) > 1

    def test_matches_rational_yun_on_sparse_symmetric_charpolys(self, monkeypatch):
        # Sparse graphs have many zero eigenvalues; the certificate then
        # runs on the cofactor of x^k.
        split_off = 0
        for d in SPARSE_SYMMETRIC_CORPUS:
            coeffs = characteristic_polynomial(d).coeffs
            got = _square_free_decomposition(coeffs)
            assert got == _rational_yun(coeffs, monkeypatch)
            k = next(i for i, c in enumerate(coeffs) if c)
            split_off += k >= 2 and got == [(coeffs[k:], 1), ((0, 1), k)]
        assert split_off > 0

    def test_square_free_but_not_mod_q_falls_back_to_yun(self):
        # x (x - q) is square-free over Q but x^2 mod q.
        q = spectrum_mod._CERT_PRIME
        coeffs = (0, -q, 1)
        assert not _coprime_to_derivative_mod_q(coeffs)
        assert _square_free_decomposition(coeffs) == [(coeffs, 1)]

    def test_square_free_certified(self):
        assert _coprime_to_derivative_mod_q((-1, 0, 0, 1))
        assert _coprime_to_derivative_mod_q(characteristic_polynomial(directed_cycle(64)).coeffs)


class TestEigenvalues:
    def test_sym_edge(self):
        spec = eigenvalues(sym(complete_graph(2)))
        assert spec.eigenvalues == (1, -1)
        assert spec.rho == pytest.approx(1.0, abs=1e-12)
        assert spec.energy == pytest.approx(2.0, abs=1e-12)

    def test_directed_triangle(self):
        spec = eigenvalues(directed_cycle(3))
        want = sorted([1, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)],
                      key=lambda z: (-z.real, -z.imag))
        assert all(abs(a - b) < 1e-12 for a, b in zip(spec.eigenvalues, want))
        assert spec.rho == pytest.approx(1.0, abs=1e-12)
        assert spec.energy == pytest.approx(2.0, abs=1e-12)

    def test_sym_triangle(self):
        spec = eigenvalues(sym(complete_graph(3)))
        assert spec.rho == pytest.approx(2.0, abs=1e-12)
        assert spec.energy == pytest.approx(4.0, abs=1e-12)
        assert [z.real for z in spec.eigenvalues] == pytest.approx([2, -1, -1], abs=1e-12)

    def test_nilpotent_path(self):
        assert energy(directed_path(3)) == 0.0

    def test_star_radius(self):
        assert spectral_radius(sym(star_graph(2))) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_sorted_by_re_desc_im_desc(self):
        spec = eigenvalues(directed_cycle(4))
        keys = [(-z.real, -z.imag) for z in spec.eigenvalues]
        assert keys == sorted(keys)

    def test_empty(self):
        spec = eigenvalues(Digraph(0))
        assert spec.eigenvalues == () and spec.rho == 0.0

    @given(digraphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_residuals_and_structure(self, d):
        spec = eigenvalues(d)
        poly = characteristic_polynomial(d)
        n = d.n
        if n == 0:
            return
        # residual certificate
        worst = max(abs(poly(z)) for z in spec.eigenvalues)
        assert worst / (1.0 + spec.rho) ** n <= 1e-8
        # zero trace; exact conjugate symmetry
        assert abs(sum(spec.eigenvalues)) <= 1e-9
        assert sorted((z.real, z.imag) for z in spec.eigenvalues) == pytest.approx(
            sorted((z.real, -z.imag) for z in spec.eigenvalues)
        )
        assert spec.rho >= max(abs(z.real) for z in spec.eigenvalues) - 1e-12

    @given(digraphs(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_symmetric_spectra_real(self, d):
        if not d.is_symmetric:
            return
        spec = eigenvalues(d)
        assert all(z.imag == 0 for z in spec.eigenvalues)

    def test_energy_agrees_with_direct_eig(self):
        # Independent route: raw LAPACK eigenvalues, no refinement.
        from digenergy import adjacency_matrix

        for d in (sym(petersen_graph()), directed_cycle(5), sym(star_graph(3))):
            raw = np.linalg.eigvals(adjacency_matrix(d).astype(float))
            assert energy(d) == pytest.approx(float(np.abs(raw.real).sum()), abs=1e-9)


class TestMomentIdentities:
    def test_sym_edge(self):
        m = moment_identities(sym(complete_graph(2)))
        assert m.sum_re_sq == pytest.approx(2.0, abs=1e-12)
        assert m.sum_im_sq == pytest.approx(0.0, abs=1e-12)
        assert m.c2_residual == pytest.approx(0.0, abs=1e-12)
        assert m.arc_slack == pytest.approx(0.0, abs=1e-12)

    def test_directed_triangle(self):
        m = moment_identities(directed_cycle(3))
        assert m.sum_re_sq == pytest.approx(1.5, abs=1e-12)
        assert m.sum_im_sq == pytest.approx(1.5, abs=1e-12)
        assert m.c2_residual == pytest.approx(0.0, abs=1e-12)
        assert m.arc_slack == pytest.approx(0.0, abs=1e-12)

    def test_digon_plus_tail_has_slack(self):
        m = moment_identities(Digraph(3, [(0, 1), (1, 0), (1, 2)]))
        assert m.c2_residual == pytest.approx(0.0, abs=1e-9)
        assert m.arc_slack == pytest.approx(1.0, abs=1e-9)

    @given(digraphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_identities_hold(self, d):
        if d.n == 0:
            return
        m = moment_identities(d)
        assert abs(m.c2_residual) <= 1e-8
        assert m.arc_slack >= -1e-8


class TestCoulson:
    def test_sym_edge_is_two(self):
        # integrand reduces to 2/(1+x^2); the integral is exactly 2
        assert coulson_energy(eigenvalues(sym(complete_graph(2)))) == pytest.approx(2.0, rel=1e-9)

    def test_sym_triangle_matches_energy(self):
        d = sym(complete_graph(3))
        assert coulson_energy(eigenvalues(d), rel_tol=1e-6) == pytest.approx(energy(d), rel=1e-6)

    def test_directed_four_cycle_pole(self):
        with pytest.raises(PurelyImaginaryEigenvalueError) as exc:
            coulson_energy(eigenvalues(directed_cycle(4)))
        assert abs(abs(exc.value.x) - 1.0) < 1e-6

    def test_rel_tol_validated(self):
        with pytest.raises(ValueError):
            coulson_energy(eigenvalues(sym(complete_graph(2))), rel_tol=0.0)
        with pytest.raises(ValueError):
            coulson_energy(eigenvalues(sym(complete_graph(2))), rel_tol=1.5)
        with pytest.raises(ValueError):
            coulson_energy(eigenvalues(Digraph(0)), rel_tol=0.0)

    def test_zero_eigenvalue_is_not_a_pole(self):
        d = sym(star_graph(2))  # spectrum {sqrt(2), 0, -sqrt(2)}
        assert coulson_energy(eigenvalues(d)) == pytest.approx(energy(d), rel=1e-6)

    def test_empty_digraph(self):
        assert coulson_energy(eigenvalues(Digraph(3))) == pytest.approx(0.0, abs=1e-12)
        assert coulson_energy(eigenvalues(Digraph(0))) == 0.0

    def test_many_zero_eigenvalues_are_not_poles(self):
        # x^10 (x^2 - 3): |phi(ix)| ~ |x|^10 near 0 must not read as a pole.
        d = from_graph(Graph(12, [(0, 1), (0, 2), (0, 3)]))
        assert coulson_energy(eigenvalues(d)) == pytest.approx(2 * math.sqrt(3), rel=1e-6)


class _PanelBudgetExceeded(Exception):
    pass


def _reference_coulson(coeffs, rel_tol=1e-6, max_panels=math.inf):
    """The depth-first recursive quadrature, one integrand call per panel
    and rule: the reference for the level-synchronous one.  Raises
    _PanelBudgetExceeded when it would evaluate more than ``max_panels``
    panels."""
    f = spectrum_mod._Integrand(coeffs)
    panels = 0

    def panel(a, b, rule):
        nodes, weights = rule
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * float(np.dot(weights, f(mid + half * nodes)))

    def adaptive(a, b, tol, depth):
        nonlocal panels
        panels += 1
        if panels > max_panels:
            raise _PanelBudgetExceeded
        coarse = panel(a, b, spectrum_mod._GL_LO)
        fine = panel(a, b, spectrum_mod._GL_HI)
        if abs(fine - coarse) <= tol or depth >= 48:
            return fine
        mid = 0.5 * (a + b)
        return adaptive(a, mid, tol / 2.0, depth + 1) + adaptive(mid, b, tol / 2.0, depth + 1)

    half_pi = math.pi / 2.0
    estimate = panel(-half_pi, half_pi, spectrum_mod._GL_HI)
    tol = 0.25 * rel_tol * max(1.0, abs(estimate))
    return (adaptive(-half_pi, 0.0, tol, 0) + adaptive(0.0, half_pi, tol, 0)) / math.pi


def _integral_input(d):
    """The polynomial ``coulson_energy`` integrates: x^k divided out."""
    coeffs = characteristic_polynomial(d).coeffs
    return coeffs[next(k for k, c in enumerate(coeffs) if c):]


COULSON_CORPORA = {
    "n8": [random_digraph(8, p, s) for p in (0.2, 0.4) for s in range(50)],
    # The first 50 samples of verify_all(10, mode="random", p=0.3, seed=10**6).
    "verify-random-n10": [random_digraph(10, 0.3, 1_000_000 + k) for k in range(50)],
    "n32": [random_digraph(32, p, 1) for p in (0.3, 0.4, 0.5)],
}

# Eigenvalues on the imaginary axis: (x^2 + 1)(x^2 + 4), x^6 + 1,
# (x^2 + 1)(x^2 + 9).
GUARDED_POLE_POLYS = [(4, 0, 5, 0, 1), (1, 0, 0, 0, 0, 0, 1), (9, 0, 10, 0, 1)]
# x^4 - 1 and x^2 + 1 have their poles at x = +-1, the midpoints of the two
# level-0 panels.  Both rules are symmetric about a panel midpoint, so the
# odd singularity cancels in both sums and neither quadrature raises: a
# known defect, recorded as FOUND in CHANGES.md.
MIDPOINT_POLE_POLYS = [(-1, 0, 0, 0, 1), (1, 0, 1)]


def _outcomes(coeffs):
    """What the reference (stopped past the panel budget) and the
    level-synchronous quadrature return, with "raises" for a pole."""
    def outcome(integral):
        try:
            return integral()
        except (PurelyImaginaryEigenvalueError, _PanelBudgetExceeded):
            return "raises"
    want = outcome(lambda: _reference_coulson(coeffs, max_panels=spectrum_mod._MAX_PANELS))
    got = outcome(lambda: _coulson_integral.__wrapped__(coeffs, 1e-6))
    return want, got


class TestLevelSynchronousQuadrature:
    """One integrand call per refinement level returns exactly what the
    recursive quadrature returns, raises exactly when it raises or would
    pass the panel budget, and a pole cannot make it run away."""

    @pytest.mark.parametrize("corpus", sorted(COULSON_CORPORA))
    def test_bit_identical_to_reference(self, corpus):
        values = 0
        for d in COULSON_CORPORA[corpus]:
            want, got = _outcomes(_integral_input(d))
            assert got == want
            values += want != "raises"
        assert values >= 0.9 * len(COULSON_CORPORA[corpus])

    @pytest.mark.parametrize("coeffs", GUARDED_POLE_POLYS + MIDPOINT_POLE_POLYS)
    def test_poles_raise_exactly_when_reference_raises(self, coeffs):
        want, got = _outcomes(coeffs)
        assert (got == "raises") == (want == "raises")

    @pytest.mark.parametrize("coeffs", GUARDED_POLE_POLYS)
    def test_poles_raise(self, coeffs):
        _, got = _outcomes(coeffs)
        assert got == "raises"

    @pytest.mark.xfail(reason="a pole at a panel midpoint cancels in both rules (FOUND in CHANGES.md)")
    @pytest.mark.parametrize("coeffs", MIDPOINT_POLE_POLYS)
    def test_midpoint_poles_raise(self, coeffs):
        _, got = _outcomes(coeffs)
        assert got == "raises"

    def test_pole_between_nodes_hits_panel_budget(self):
        # The integrand guard never fires on (x^2 + 1)(x^2 + 4): refinement
        # closes in on the pole without a node landing on it.
        started = time.perf_counter()
        with pytest.raises(PurelyImaginaryEigenvalueError) as exc:
            _coulson_integral.__wrapped__((4, 0, 5, 0, 1), 1e-6)
        assert time.perf_counter() - started < 1.0
        assert min(abs(abs(exc.value.x) - 1.0), abs(abs(exc.value.x) - 2.0)) < 1e-3


def _clear_memos():
    _charpoly_of_masks.cache_clear()
    _repeated_roots.cache_clear()
    _coulson_integral.cache_clear()


class TestExactMemo:
    """Per-polynomial work is memoized; no result may depend on the memo."""

    CORPUS = list(enumerate_digraphs(3)) + [random_digraph(8, p, seed)
                                            for p in (0.2, 0.4) for seed in range(10)]

    def test_precomputed_poly_is_bit_identical(self):
        for d in self.CORPUS:
            poly = characteristic_polynomial(d)
            eigenvalues(d, poly)
            warm = eigenvalues(d, poly)
            _clear_memos()
            cold = eigenvalues(d)
            assert repr(warm) == repr(cold)

    def test_coulson_with_spectrum_matches_cold_call(self):
        for d in self.CORPUS:
            spec = eigenvalues(d)
            try:
                coulson_energy(spec)
            except PurelyImaginaryEigenvalueError:
                continue
            warm = coulson_energy(spec)
            _clear_memos()
            assert coulson_energy(eigenvalues(d)) == warm

    def test_relabelings_share_the_memo(self):
        d = sym(path_graph(4))
        perm = (2, 0, 3, 1)
        relabeled = Digraph(4, [(perm[i], perm[j]) for i, j in d.arcs])
        assert relabeled != d
        coulson_energy(eigenvalues(d))
        roots_hits = _repeated_roots.cache_info().hits
        integral_hits = _coulson_integral.cache_info().hits
        coulson_energy(eigenvalues(relabeled))
        assert _repeated_roots.cache_info().hits > roots_hits
        assert _coulson_integral.cache_info().hits > integral_hits

    def test_charpoly_memo_serves_relabelings_and_reductions(self):
        # The path P4 plus an isolated vertex 4.
        d = Digraph(5, sym(path_graph(4)).arcs)
        _clear_memos()
        poly = characteristic_polynomial(d)
        # Reversing the path is an automorphism: a new digraph object with
        # the same adjacency.
        perm = (3, 2, 1, 0, 4)
        relabeled = Digraph(5, [(perm[i], perm[j]) for i, j in d.arcs])
        assert relabeled is not d and relabeled == d
        hits = _charpoly_of_masks.cache_info().hits
        assert characteristic_polynomial(relabeled) is poly
        assert _charpoly_of_masks.cache_info().hits == hits + 1
        # Arcs into the sink 4 lie on no cycle, so the reduction is d again.
        tailed = Digraph(5, list(d.arcs) + [(0, 4), (3, 4)])
        assert characteristic_polynomial(tailed) == poly
        hits = _charpoly_of_masks.cache_info().hits
        reduced = cycle_arc_reduction(tailed)
        assert reduced == d
        assert characteristic_polynomial(reduced) is poly
        assert _charpoly_of_masks.cache_info().hits == hits + 1
