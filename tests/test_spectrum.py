import math
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digenergy import (
    Analysis,
    Digraph,
    EigensolverError,
    Graph,
    PurelyImaginaryEigenvalueError,
    adjacency_matrix,
    characteristic_polynomial,
    coulson_energy,
    cycle_arc_reduction,
    eigenvalues,
    enumerate_digraphs,
    from_graph,
    qr_values,
    random_digraph,
    walk_profile,
)
import digenergy
from digenergy import kernels as kernels_mod
from digenergy import spectrum as spectrum_mod
from digenergy.digraph import MAX_VERTICES, adjacency_matrices
from digenergy.oracle import BLOCK_SIZE, _Block
from digenergy.spectrum import Memo, unwrap

from families import (
    complete_graph,
    directed_cycle,
    directed_path,
    outcomes,
    path_graph,
    petersen_graph,
    star_graph,
    spectrum_of,
    sym,
)
from test_digraph import digraphs


def _horner(coeffs, z):
    """The polynomial with ascending ``coeffs`` at ``z``."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


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
        exact = characteristic_polynomial(d).coeffs
        approx = np.poly(adjacency_matrix(d).astype(float)) if d.n else np.array([1.0])
        assert np.allclose(approx[::-1], [float(c) for c in exact], atol=1e-6)

    def test_evaluation(self):
        coeffs = characteristic_polynomial(sym(complete_graph(3))).coeffs
        assert _horner(coeffs, 2) == 0
        assert _horner(coeffs, -1) == 0
        assert _horner(coeffs, 0) == -2


def _reference_charpoly(n, out_masks):
    """Faddeev-LeVerrier on nested lists of Python ints: the exact reference
    for the numpy recurrence."""
    rng = range(n)
    heads = [[j for j in rng if (out_masks[i] >> j) & 1] for i in rng]
    m = [[0] * n for _ in rng]
    cs = [1] + [0] * n  # cs[k] is the coefficient of x**(n-k)
    for k in range(1, n + 1):
        for i in rng:
            m[i][i] += cs[k - 1]
        # Row i of A M sums the rows of M at the out-neighbours of i.
        m = [[sum(column) for column in zip(*(m[j] for j in heads[i]))] if heads[i] else [0] * n
             for i in rng]
        cs[k], r = divmod(-sum(m[i][i] for i in rng), k)
        assert r == 0
    return cs[::-1]


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


def _kernel_run(ds):
    """The block kernel's coefficients on the digraphs ``ds``."""
    return kernels_mod.charpoly_from_masks(adjacency_matrices(ds)).tolist()


# Orders on both sides of the kernel's two routes: float64 up to n = 13
# (``FLOAT64_MAX_ORDER``), residues modulo 2 to 13 primes from n = 14 on,
# up to the cap of 128 vertices.
CLOSED_FORM_ORDERS = (0, 1, 2, 12, 13, 14, 15, 16, 32, 64, 96, 128)

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

    @pytest.mark.parametrize("n", [96, 128])
    def test_matches_reference_at_large_orders(self, n):
        # Coefficients of up to 156 and 232 bits, combined from 9 and 13
        # primes, the most any order takes at n = 128.
        d = random_digraph(n, 0.4, 1)
        coeffs = characteristic_polynomial(d).coeffs
        assert list(coeffs) == _reference_charpoly(n, d.out_masks)
        assert all(type(c) is int for c in coeffs)

    def test_sink_rows_after_moving_to_python_ints(self):
        # random 48 0.5 1 with two sinks added, one inside the vertex order
        # and one last: zero rows of A in the product modulo each prime,
        # and Python ints out.  A sink adds a factor x to the
        # characteristic polynomial.
        d = random_digraph(48, 0.5, 1)
        arcs = [(i + (i >= 20), j + (j >= 20)) for i, j in d.arcs] + [(0, 20), (3, 20), (7, 49)]
        coeffs = characteristic_polynomial(Digraph(50, arcs)).coeffs
        assert coeffs == (0, 0) + characteristic_polynomial(d).coeffs
        assert all(type(c) is int for c in coeffs)


def _permutation_digraph(cycles, n):
    return Digraph(n, [(c[k], c[(k + 1) % len(c)]) for c in cycles for k in range(len(c))])


class TestBlockKernel:
    """One kernel call on a block equals one call per row, on both routes."""

    @staticmethod
    def _assert_block_equals_rows(ds):
        block = _kernel_run(ds)
        assert block == [_kernel_run([d])[0] for d in ds]
        assert all(type(c) is int for coeffs in block for c in coeffs)
        return block

    def test_orders_zero_and_one(self):
        assert self._assert_block_equals_rows([Digraph(0), Digraph(0)]) == [[1], [1]]
        assert self._assert_block_equals_rows([Digraph(1)]) == [[0, 1]]

    def test_all_n3_digraphs(self):
        ds = list(enumerate_digraphs(3))
        block = self._assert_block_equals_rows(ds)
        assert block == [_reference_charpoly(3, d.out_masks) for d in ds]

    @pytest.mark.parametrize("n", [10, 12, 14, 20])
    def test_random_digraphs(self, n):
        ds = [random_digraph(n, p, seed) for p in (0.1, 0.3, 0.6) for seed in range(20)]
        block = self._assert_block_equals_rows(ds)
        assert block == [_reference_charpoly(n, d.out_masks) for d in ds]

    def test_directed_path_and_permutation_matrix(self):
        # Nilpotent next to a root of unity: x^8 and (x^3 - 1)(x^2 - 1)(x^3 - 1).
        path, perm = directed_path(8), _permutation_digraph([(0, 3, 6), (1, 7), (2, 4, 5)], 8)
        block = self._assert_block_equals_rows([path, perm])
        assert block[0] == [0] * 8 + [1]
        assert tuple(block[1]) == _poly_mul((-1, 0, 0, 1), (-1, 0, 1), (-1, 0, 0, 1))

    @pytest.mark.parametrize("n", [13, 14, 52])
    def test_block_of_j_minus_i_and_the_cycle(self, n):
        # The largest coefficients of their order next to the smallest, on
        # the float64 route (n = 13) and modulo 2 and 5 primes.
        ds = [directed_cycle(n), sym(complete_graph(n))]
        block = self._assert_block_equals_rows(ds)
        assert block[0] == [-1] + [0] * (n - 1) + [1]
        assert tuple(block[1]) == _poly_mul(_root_power(n - 1, 1), _root_power(-1, n - 1))


def _guard_bounds(n, r):
    """Bounds on max|M_{k-1}| + max|c_{k-1}| before each step k = 1..n of
    the recurrence on 0-1 matrices of order n whose rows hold at most r
    ones: an entry of M_k = A M_{k-1} + c_{k-1} A sums at most r entries of
    M_{k-1}, plus c_{k-1} or 0, and |c_k| = |tr M_k| / k <= n max|M_k| / k."""
    m, c = 0, 1
    for k in range(1, n + 1):
        yield m + c
        m = r * m + c
        c = n * m // k


def test_float64_holds_every_value_up_to_the_threshold():
    # Every partial sum of a step's product is at most r (max|M| + max|c|),
    # exact in float64 below 2^53.  The bound recurrence keeps below that
    # for every r <= n <= 13, loops included (r = n), and first reaches it
    # at n = 14, so the kernel runs on float64 up to FLOAT64_MAX_ORDER = 13.
    def reaches(n, r):
        return any(r * b >= 2 ** 53 for b in _guard_bounds(n, r))

    assert kernels_mod.FLOAT64_MAX_ORDER == 13
    assert not any(reaches(n, r) for n in range(14) for r in range(n + 1))
    assert [r for r in range(15) if reaches(14, r)] == [13, 14]
    # The bounds hold on J, the densest 0-1 matrix, at n = 14.
    j, m, c = np.ones((14, 14), dtype=object), np.zeros((14, 14), dtype=object), 1
    for k, bound in enumerate(_guard_bounds(14, 14), 1):
        assert abs(m).max() + abs(c) <= bound
        m = j @ m + c * j
        c = -m.trace() // k


def _is_prime(p):
    return p > 1 and all(p % f for f in range(2, math.isqrt(p) + 1))


class TestModularRoute:
    """The primes of the charpoly recurrence above FLOAT64_MAX_ORDER, and
    the Chinese remaindering that combines its residues."""

    def test_primes_are_distinct_and_below_2_to_31(self):
        primes = kernels_mod._PRIMES
        assert len(set(primes)) == len(primes)
        assert all(p < 2 ** 31 and _is_prime(p) for p in primes)
        assert primes[0] == kernels_mod._PRIME

    def test_primes_cover_twice_the_bound_and_a_check_prime(self):
        # |c_k| <= C(n, k) (k+1)^((k+1)/2) / 2^k: C(n, k) principal minors,
        # each a 0-1 determinant of order k.
        for n in range(kernels_mod.FLOAT64_MAX_ORDER + 1, MAX_VERTICES + 1):
            *moduli, check = kernels_mod._crt_primes(n)
            product = math.prod(moduli)
            assert moduli and check not in moduli
            for k in range(n + 1):
                bound_sq = Fraction(math.comb(n, k) ** 2 * (k + 1) ** (k + 1), 4 ** k)
                assert product ** 2 > 4 * bound_sq, (n, k)
        assert kernels_mod._crt_primes(MAX_VERTICES) == kernels_mod._PRIMES
        with pytest.raises(ValueError, match="needs more than 13 primes"):
            characteristic_polynomial(directed_cycle(160))

    def test_modulus_covers_j_minus_i_at_the_cap(self):
        # (x - 127)(x + 1)^127, the densest loopless 0-1 matrix at n = 128.
        coeffs = _poly_mul(_root_power(MAX_VERTICES - 1, 1), _root_power(-1, MAX_VERTICES - 1))
        *moduli, _ = kernels_mod._crt_primes(MAX_VERTICES)
        assert math.prod(moduli) > 2 * max(map(abs, coeffs))

    def test_garner_recovers_signed_coefficients(self):
        coeffs = _poly_mul(_root_power(31, 1), _root_power(-1, 31))  # J - I at n = 32
        primes = kernels_mod._crt_primes(32)
        residues = np.array([[[c % p for c in coeffs]] for p in primes], dtype=np.int64)
        assert kernels_mod._garner(residues, primes).tolist() == [list(coeffs)]

    @pytest.mark.parametrize("prime", [0, -1], ids=["modulus", "check"])
    def test_one_corrupted_residue_trips_the_check_prime(self, prime):
        coeffs = _poly_mul(_root_power(31, 1), _root_power(-1, 31))
        primes = kernels_mod._crt_primes(32)
        residues = np.array([[[c % p for c in coeffs]] for p in primes], dtype=np.int64)
        residues[prime, 0, 5] = (residues[prime, 0, 5] + 1) % primes[prime]
        with pytest.raises(AssertionError, match="check prime"):
            kernels_mod._garner(residues, primes)


def _square_free_decomposition(coeffs):
    """The stacked decomposition on a block of one."""
    (decomp,) = kernels_mod.square_free_decompositions([tuple(coeffs)])
    return decomp


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

    def test_order_zero(self):
        assert _square_free_decomposition((1,)) == [((1,), 1)]


def _yun_without_certificate(coeffs):
    """The decomposition without the modular certificate: Yun on every
    polynomial, square-free or not."""
    return kernels_mod._yun(tuple(coeffs))


def _coprime_mod_p(coeffs, q=kernels_mod._PRIME):
    """Whether gcd(p mod q, p' mod q) is a nonzero constant: Euclid's
    algorithm over Z/qZ on ascending coefficient lists, one polynomial at a
    time, with modular inverses.  The reference for the stacked Euclid."""
    a = kernels_mod._trim([c % q for c in coeffs])
    b = kernels_mod._trim([c % q for c in kernels_mod._deriv(coeffs)])
    while b:
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):
            f = a[k] * inv % q
            if f:
                off = k - db
                for j in range(db):
                    a[off + j] = (a[off + j] - f * b[j]) % q
        a, b = b, kernels_mod._trim(a[:db])
    return len(a) == 1


def _certificate_reference(coeffs):
    """The certificate's verdict one polynomial at a time: p = x^k q with
    k >= 2 certifies q, any other p itself."""
    k = next(i for i, c in enumerate(coeffs) if c)
    return _coprime_mod_p(coeffs[k:] if k >= 2 else coeffs)


REPEATED_ROOT_POLYS = [
    _poly_mul(_root_power(2, 2), _root_power(-1, 1)),
    _poly_mul(_power((1, 0, 1), 2), _root_power(0, 3)),
    _poly_mul(_root_power(3, 1), _power((-2, 0, 1), 3), _root_power(-1, 4)),
    _power((-1, -1, 1), 2),
    _root_power(0, 9),
    # The characteristic polynomial of J - I at n = 20: (x - 19)(x + 1)^19.
    _poly_mul(_root_power(19, 1), _root_power(-1, 19)),
    # Two disjoint copies of a dense n = 32 digraph: q^2 with q of degree 32.
    characteristic_polynomial(Digraph(64, [(i + k, j + k) for i, j in random_digraph(32, 0.3, 1).arcs
                                           for k in (0, 32)])).coeffs,
]


# Symmetric digraphs of sparse random graphs, at orders of `analyze`.
SPARSE_SYMMETRIC_CORPUS = [
    from_graph(Graph(n, [(i, j) for i, j in random_digraph(n, p, seed).arcs if i < j]))
    for n in (16, 32) for p in (0.08, 0.15) for seed in (1, 2, 3)
]


def _charpolys_up_to_4():
    return list(dict.fromkeys(characteristic_polynomial(d).coeffs
                              for n in range(1, 5) for d in enumerate_digraphs(n)))


def _random_charpolys_6_to_12():
    return list(dict.fromkeys(characteristic_polynomial(random_digraph(n, p, seed)).coeffs
                              for n in range(6, 13) for p in (0.1, 0.2, 0.3) for seed in range(20)))


def _large_rows():
    """Rows at n = 64 and n = 128: random digraphs (88-bit coefficients at
    n = 64), x^n - 1 and (x - n + 1)(x + 1)^(n - 1), the polynomial of J - I."""
    return [characteristic_polynomial(random_digraph(64, 0.4, 1)).coeffs,
            characteristic_polynomial(random_digraph(128, 0.02, 1)).coeffs,
            *[(-1,) + (0,) * (n - 1) + (1,) for n in (64, 128)],
            *[_poly_mul(_root_power(n - 1, 1), _root_power(-1, n - 1)) for n in (64, 128)]]


# x (x - P) is square-free over Z but x^2 mod P.
NOT_SQUARE_FREE_MOD_P = (0, -kernels_mod._PRIME, 1)

CERTIFICATE_CORPORA = {
    "charpolys-n1-4": _charpolys_up_to_4,
    "random-n6-12": _random_charpolys_6_to_12,
    "repeated-roots": lambda: REPEATED_ROOT_POLYS,
    "n64-n128": _large_rows,
    "order-0": lambda: [(1,)],
    "mixed-block": lambda: [(-1, 0, 0, 1), NOT_SQUARE_FREE_MOD_P, (1,), (0, 0, -1, 1),
                            characteristic_polynomial(directed_cycle(64)).coeffs, (-2, -3, 0, 1), (5, 1)],
}


class TestModularCertificate:
    """A trivial gcd(p, p') mod 2^31 - 1 short-cuts Yun; nothing else may
    change.  The stacked Euclid agrees with the per-polynomial one, and the
    reference decomposition is Yun without the certificate."""

    @pytest.mark.parametrize("corpus", CERTIFICATE_CORPORA)
    def test_stacked_matches_per_polynomial_euclid(self, corpus):
        polys = CERTIFICATE_CORPORA[corpus]()
        got = kernels_mod.square_free_certificates(polys)
        assert got.dtype == bool
        assert got.tolist() == [_certificate_reference(c) for c in polys]

    def test_square_free_but_not_mod_p_falls_back_to_yun(self):
        # In a mixed block only x (x - P) and (x - 2)(x + 1)^2 fail; Yun
        # returns x (x - P) unchanged.
        polys = CERTIFICATE_CORPORA["mixed-block"]()
        got = kernels_mod.square_free_certificates(polys).tolist()
        assert got == [c not in (NOT_SQUARE_FREE_MOD_P, (-2, -3, 0, 1)) for c in polys]
        assert kernels_mod.square_free_decompositions(polys)[1] == [(NOT_SQUARE_FREE_MOD_P, 1)]

    def test_matches_yun_without_certificate_on_charpolys(self):
        square_free = 0
        for d in RANDOM_CORPUS:
            coeffs = characteristic_polynomial(d).coeffs
            got = _square_free_decomposition(coeffs)
            assert got == _yun_without_certificate(coeffs)
            square_free += got == [(coeffs, 1)]
        assert 0 < square_free < len(RANDOM_CORPUS)

    @pytest.mark.parametrize("coeffs", REPEATED_ROOT_POLYS)
    def test_repeated_roots_are_never_certified(self, coeffs):
        assert not _coprime_mod_p(coeffs)
        got = _square_free_decomposition(coeffs)
        assert got == _yun_without_certificate(coeffs)
        assert max(mult for _, mult in got) > 1

    def test_matches_yun_without_certificate_on_sparse_symmetric_charpolys(self):
        # Sparse graphs have many zero eigenvalues, a repeated root that the
        # certificate rejects; Yun then returns x^k apart from a square-free
        # cofactor on most of them.
        split_off = 0
        for d in SPARSE_SYMMETRIC_CORPUS:
            coeffs = characteristic_polynomial(d).coeffs
            got = _square_free_decomposition(coeffs)
            assert got == _yun_without_certificate(coeffs)
            k = next(i for i, c in enumerate(coeffs) if c)
            split_off += k >= 2 and got == [(coeffs[k:], 1), ((0, 1), k)]
        assert split_off > 0

    def test_zero_root_split_matches_yun(self):
        # p = x^k q, k >= 2, with q certified square-free skips Yun and
        # returns [(q, 1), (x, k)], or [(x, k)] for q = 1.  Pinned on every
        # distinct charpoly of n <= 4 and on seeded random ones, in one
        # stacked call.
        polys = _charpolys_up_to_4() + _random_charpolys_6_to_12()
        assert kernels_mod.square_free_decompositions(polys) == [_yun_without_certificate(c) for c in polys]
        split_off = 0
        for coeffs in polys:
            k = next(i for i, c in enumerate(coeffs) if c)
            split_off += k >= 2 and not _coprime_mod_p(coeffs) and _coprime_mod_p(coeffs[k:])
        assert split_off > 100

    @pytest.mark.parametrize("corpus", ["exhaustive-n1-4", "random-n10"])
    def test_one_certificate_call_per_block(self, corpus, monkeypatch):
        # The blocks of the harness take one stacked certificate call each,
        # with one row per polynomial of its members that the memo lacks.
        # The random corpus is the first round of the benchmark's
        # verify-random-n10 workload at seed 1.
        if corpus == "exhaustive-n1-4":
            orders = [[Digraph(0)]] + [list(enumerate_digraphs(n)) for n in range(1, 5)]
        else:
            orders = [[random_digraph(10, 0.3, 1_000_000 + k) for k in range(200)]]
        calls = []
        certificates = kernels_mod.square_free_certificates
        monkeypatch.setattr(kernels_mod, "square_free_certificates",
                            lambda polys: calls.append(list(polys)) or certificates(polys))
        memo, seen, want = Memo(), set(), []
        for ds in orders:
            for start in range(0, len(ds), BLOCK_SIZE):
                block = ds[start:start + BLOCK_SIZE]
                new = [c for c in dict.fromkeys(characteristic_polynomial(d).coeffs for d in block)
                       if c not in seen]
                seen.update(new)
                want += [new] if new else []
                _Block.from_digraphs(block, memo).certified
        assert calls == want
        # A polynomial is its own one factor iff it has no repeated root;
        # Yun gives the constant (1,) the empty product, square-free too.
        polys = [c for rows in want for c in rows]
        assert [c in memo.factors for c in polys] == [
            _yun_without_certificate(c) in ([(c, 1)], []) for c in polys]


@st.composite
def factored_polys(draw):
    """A product of small monic integer factors of degree 1 or 2, each to a
    random power, of total degree at most 12.  Factors may repeat or share
    roots, so the drawn factorization is not the square-free one."""
    factor = st.lists(st.integers(-3, 3), min_size=1, max_size=2).map(lambda c: tuple(c) + (1,))
    powers = draw(st.lists(st.tuples(factor, st.integers(1, 4)), min_size=1, max_size=4)
                  .filter(lambda fs: sum((len(f) - 1) * k for f, k in fs) <= 12))
    return _poly_mul(*[_power(f, k) for f, k in powers])


def _assert_square_free_decomposition(coeffs, decomp):
    """The defining properties, checked without Yun: the product of the
    factor powers is coeffs, the factors are monic with strictly increasing
    multiplicities, and their product is square-free (coprime to its
    derivative mod P), so each factor is square-free and the factors are
    pairwise coprime."""
    assert _poly_mul(*[_power(f, k) for f, k in decomp]) == tuple(coeffs)
    assert all(len(f) >= 2 and f[-1] == 1 for f, _ in decomp)
    mults = [k for _, k in decomp]
    assert mults == sorted(set(mults))
    assert _coprime_mod_p(_poly_mul(*[f for f, _ in decomp]))


class TestSquareFreeOracle:
    """The decomposition against its definition, not against itself."""

    @given(factored_polys())
    @settings(max_examples=200, deadline=None)
    def test_random_products(self, coeffs):
        _assert_square_free_decomposition(coeffs, _square_free_decomposition(coeffs))

    @pytest.mark.parametrize("coeffs", REPEATED_ROOT_POLYS)
    def test_repeated_root_polys(self, coeffs):
        _assert_square_free_decomposition(coeffs, _square_free_decomposition(coeffs))


class TestEigenvalues:
    def test_sym_edge(self):
        spec = spectrum_of(sym(complete_graph(2)))
        assert spec.eigenvalues == (1, -1)
        assert spec.rho == pytest.approx(1.0, abs=1e-12)
        assert spec.energy == pytest.approx(2.0, abs=1e-12)

    def test_directed_triangle(self):
        spec = spectrum_of(directed_cycle(3))
        want = sorted([1, complex(-0.5, math.sqrt(3) / 2), complex(-0.5, -math.sqrt(3) / 2)],
                      key=lambda z: (-z.real, -z.imag))
        assert all(abs(a - b) < 1e-12 for a, b in zip(spec.eigenvalues, want))
        assert spec.rho == pytest.approx(1.0, abs=1e-12)
        assert spec.energy == pytest.approx(2.0, abs=1e-12)

    def test_sym_triangle(self):
        spec = spectrum_of(sym(complete_graph(3)))
        assert spec.rho == pytest.approx(2.0, abs=1e-12)
        assert spec.energy == pytest.approx(4.0, abs=1e-12)
        assert [z.real for z in spec.eigenvalues] == pytest.approx([2, -1, -1], abs=1e-12)

    def test_nilpotent_path(self):
        assert spectrum_of(directed_path(3)).energy == 0.0

    def test_star_radius(self):
        assert spectrum_of(sym(star_graph(2))).rho == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_sorted_by_re_desc_im_desc(self):
        spec = spectrum_of(directed_cycle(4))
        keys = [(-z.real, -z.imag) for z in spec.eigenvalues]
        assert keys == sorted(keys)

    def test_empty(self):
        spec = spectrum_of(Digraph(0))
        assert spec.eigenvalues == () and spec.rho == 0.0

    @given(digraphs(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_residuals_and_structure(self, d):
        spec = spectrum_of(d)
        poly = characteristic_polynomial(d)
        n = d.n
        if n == 0:
            return
        # residual certificate
        worst = max(abs(_horner(poly.coeffs, z)) for z in spec.eigenvalues)
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
        if d.arcs != {(j, i) for i, j in d.arcs}:
            return
        spec = spectrum_of(d)
        assert all(z.imag == 0 for z in spec.eigenvalues)

    def test_energy_agrees_with_direct_eig(self):
        # Independent route: raw LAPACK eigenvalues, no refinement.
        for d in (sym(petersen_graph()), directed_cycle(5), sym(star_graph(3))):
            raw = np.linalg.eigvals(adjacency_matrix(d).astype(float))
            assert spectrum_of(d).energy == pytest.approx(float(np.abs(raw.real).sum()), abs=1e-9)


class TestResidualGate:
    """A spectrum whose residual exceeds the gate is rejected for every
    member with its polynomial and is not kept, so a later block tries
    again.  A gate of -1 rejects every spectrum."""

    def test_eigenvalues_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "_RESIDUAL_GATE", -1.0)
        d = directed_cycle(3)
        with pytest.raises(EigensolverError, match="exceeds gate"):
            eigenvalues(characteristic_polynomial(d), adjacency_matrix(d))

    def test_rejection_reaches_every_member_and_is_not_kept(self, monkeypatch):
        # Two relabelings of the directed triangle: one square-free x^3 - 1.
        ds = [directed_cycle(3), Digraph(3, [(1, 0), (0, 2), (2, 1)])]
        memo = Memo()
        with monkeypatch.context() as m:
            m.setattr(spectrum_mod, "_RESIDUAL_GATE", -1.0)
            for outcome in outcomes(_Block.from_digraphs(ds, memo)):
                with pytest.raises(EigensolverError, match="exceeds gate"):
                    unwrap(outcome)
        assert (-1, 0, 0, 1) not in memo.spectra
        block = _Block.from_digraphs(ds, memo)
        first, second = outcomes(block)
        assert first is second is memo.spectra[-1, 0, 0, 1]
        assert first.energy == pytest.approx(2.0, abs=1e-12)

    def test_rejected_polynomial_keeps_its_error_and_takes_no_qr_values(self, monkeypatch):
        # x^3 has a repeated root, but only a certified spectrum is checked
        # against a digraph's QR values: one the gate rejects keeps its
        # polynomial's error.  LAPACK itself is patched to move every 3 x 3
        # matrix's values far from 0, so that no module's own reference
        # to ``qr_values`` escapes the patch; the starts of the factor x
        # take no 3 x 3 call.
        eigvals, taken = np.linalg.eigvals, []

        def shifted(a):
            if np.shape(a)[-1] == 3:
                taken.append(a)
            return eigvals(a) + 100.0

        monkeypatch.setattr(spectrum_mod, "_RESIDUAL_GATE", -1.0)
        monkeypatch.setattr(np.linalg, "eigvals", shifted)
        with pytest.raises(EigensolverError, match="exceeds gate"):
            Analysis(Digraph(3, [(0, 1)])).spectrum
        assert taken == []


def _per_matrix_qr_values(a):
    """One LAPACK call on one matrix, as the stacked call must reproduce."""
    return np.linalg.eigvals(a).astype(complex)


STACK_CORPORA = {
    "n4": list(enumerate_digraphs(4)),
    "n10": [random_digraph(10, 0.3, seed) for seed in range(200)]
           + [from_graph(Graph(10, [(i, j) for i, j in random_digraph(10, 0.3, seed).arcs if i < j]))
              for seed in range(200)],
}


class TestStackedQrValues:
    @pytest.mark.parametrize("corpus", sorted(STACK_CORPORA))
    def test_stack_equals_per_matrix_calls(self, corpus):
        a = adjacency_matrices(STACK_CORPORA[corpus]).astype(float)
        stacked = qr_values(a)
        assert stacked.shape == a.shape[:2] and stacked.dtype == complex
        for k in range(len(a)):
            want = _per_matrix_qr_values(a[k])
            assert np.array_equal(stacked[k], want)
            assert stacked[k].tobytes() == want.tobytes()  # signed zeros too
            assert qr_values(a[k]).tobytes() == want.tobytes()

    def test_empty_matrices(self):
        assert qr_values(np.zeros((3, 0, 0))).shape == (3, 0)
        assert qr_values(np.zeros((0, 0))).shape == (0,)

    def test_eigenvalues_needs_an_n_by_n_adjacency_matrix(self):
        d = directed_cycle(3)
        for a in (adjacency_matrix(directed_cycle(4)), adjacency_matrix(d)[:, :2], adjacency_matrix(d)[None]):
            with pytest.raises(ValueError, match=r"needs an \(3, 3\) adjacency matrix"):
                eigenvalues(characteristic_polynomial(d), a)


def _pair_conjugates(values):
    """Snap near-real values to real and force exact conjugate pairing: the
    one-row Python reference for ``spectrum._paired_spectra``, which also
    sorts each row by (Re desc, Im desc)."""
    if len(values) == 0:
        return []
    rho0 = float(np.max(np.abs(values)))
    snap = spectrum_mod._SNAP_REL * (1.0 + rho0)
    reals = []
    pos = []
    neg = []
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


def _reference_pairing(row):
    """The paired row, sorted as ``_paired_spectra`` sorts it."""
    paired = sorted(_pair_conjugates(row), key=lambda z: (-z.real, -z.imag))
    return np.array(paired, dtype=complex).reshape(len(row))


def _assert_pairing_matches_reference(values):
    """Each row of the ``(P, n)`` values, paired in one stack, has the bits
    of the reference, zero signs included."""
    got = spectrum_mod._paired_spectra(values)
    assert got.shape == values.shape and got.dtype == complex
    for row, paired in zip(values, got):
        assert paired.tobytes() == _reference_pairing(row).tobytes(), row


def _random_blocks():
    """Blocks of random digraphs and of symmetric ones, n = 4 to 32."""
    blocks = []
    for n in (4, 5, 6, 8, 10, 12, 16, 24, 32):
        ds = [random_digraph(n, p, seed) for p in (0.2, 0.5) for seed in range(12)]
        blocks.append(ds + [from_graph(Graph(n, [(i, j) for i, j in d.arcs if i < j])) for d in ds[::2]])
    return blocks


PAIRING_BLOCKS = {"n4": [STACK_CORPORA["n4"]], "n10": [STACK_CORPORA["n10"]], "random-n4-32": _random_blocks(),
                  # Spectra of equal moduli, where rho is a complex value's abs() for some n.
                  "directed-cycles": [[directed_cycle(n)] for n in range(2, 25)]}


def _certified_block_rows(monkeypatch, blocks):
    """Every ``(P, n)`` array the certification of ``blocks`` pairs, and
    the spectra it certifies."""
    seen, spectra = [], []
    pair = spectrum_mod._paired_spectra

    def recording(values):
        seen.append(values.copy())
        return pair(values)

    with monkeypatch.context() as m:
        m.setattr(spectrum_mod, "_paired_spectra", recording)
        for ds in blocks:
            certified = _Block.from_digraphs(ds, Memo()).certified
            spectra += [s for s in certified if not isinstance(s, Exception)]
    return seen, spectra


def _hand_made_rows():
    """Rows that reach each rule of the pairing, by order n."""
    s = spectrum_mod._SNAP_REL * (1.0 + 3.0)  # the snap of a row whose largest |value| is 3
    above = np.nextafter(s, 1.0)
    a, b = 0.35062408447265625, 0.1369609832763672
    h = abs(complex(a, b))
    return {
        0: [[]],
        1: [[2.0], [1j], [-1j], [-0.0], [complex(-0.0, -0.0)]],
        2: [[1 + 2j, 3.0],  # a positive value left without a partner
            [1 - 2j, 0.5],  # a negative value left without one
            [complex(-0.0, 1.0), complex(-0.0, -1.0)],  # (-0.0 + -0.0) / 2 is +0.0 as complex division
            [complex(-0.0, -1.0), complex(-0.0, 1.0)],
            [complex(0.0, 1.0), complex(-0.0, -1.0)]],
        # Two partners at one distance h from 1j's conjugate, as Python's
        # abs() takes it: hypot(a, b) and h.  numpy's complex absolute, a
        # different algorithm, reads the first as one ulp more.
        3: [[1j, complex(a, b - 1.0), complex(h, -1.0)],
            [1j, complex(h, -1.0), complex(a, b - 1.0)]],
        4: [[1j, 1 + 1j, 0.6 - 1j, -1 - 1j],  # greedy: 1j takes 0.6 - 1j, the nearer, though both pairs are worse
            [1j, -0.5 - 1j, 0.5 - 1j, 0.5 + 0.25j],  # equally near partners: the first is taken
            [3.0, 1 + s * 1j, 1 - above * 1j, 2 + above * 1j],  # |Im| at the snap and just past it
            [3.0, 1 - s * 1j, 0.0, -0.0]],
        5: [[3.0, -1.0, -1.0, 0.0, -0.0],  # all real
            [2 + 1j, 2 + 1j, 2 - 1j, 2 - 1j, 2.0],
            [1 + 2j, 1 + 1j, 1 - 1j, 1 - 2j, -3.0]],
        6: [[1 + 1j, 2 + 1j, 3 + 1j, 1 - 1.5j, 2 - 0.5j, 2.5 - 1j]],
    }


class TestConjugatePairing:
    """One stacked pass pairs every row as the one-row Python reference
    does, bit for bit."""

    @pytest.mark.parametrize("corpus", sorted(PAIRING_BLOCKS))
    def test_every_row_the_certification_pairs(self, monkeypatch, corpus):
        seen, _ = _certified_block_rows(monkeypatch, PAIRING_BLOCKS[corpus])
        assert sum(len(values) for values in seen) >= 20
        for values in seen:
            _assert_pairing_matches_reference(values)

    def test_hand_made_rows(self):
        for n, rows in _hand_made_rows().items():
            stack = np.array(rows, dtype=complex).reshape(len(rows), n)
            _assert_pairing_matches_reference(stack)  # the rows step together
            for row in stack:
                _assert_pairing_matches_reference(row[None])
        assert spectrum_mod._paired_spectra(np.zeros((0, 3), dtype=complex)).shape == (0, 3)


def _left_to_right(terms):
    """A float sum taken left to right from 0.0, as a plain loop takes it."""
    total = 0.0
    for term in terms:
        total += term
    return total


class TestSpectrumSums:
    @pytest.mark.parametrize("corpus", sorted(PAIRING_BLOCKS))
    def test_sums_are_left_to_right_loops(self, monkeypatch, corpus):
        # Not sum(), whose float algorithm changed in Python 3.12.
        _, spectra = _certified_block_rows(monkeypatch, PAIRING_BLOCKS[corpus])
        for spec in spectra:
            vals = spec.eigenvalues
            assert spec.rho == max((abs(z) for z in vals), default=0.0)
            assert spec.energy == _left_to_right(abs(z.real) for z in vals)
            assert spec.sum_re_sq == _left_to_right(z.real * z.real for z in vals)
            assert spec.sum_im_sq == _left_to_right(z.imag * z.imag for z in vals)
            assert all(type(v) is float for v in (spec.rho, spec.energy, spec.sum_re_sq, spec.sum_im_sq))
            assert all(type(z) is complex for z in vals)


def _moment_gaps(d):
    """(sum Re^2 - sum Im^2) - c2, identically ~0, and a - (sum Re^2 +
    sum Im^2), non-negative up to noise."""
    spec, prof = spectrum_of(d), walk_profile(d)
    return ((spec.sum_re_sq - spec.sum_im_sq) - prof.c2_total,
            prof.a - (spec.sum_re_sq + spec.sum_im_sq))


class TestMomentIdentities:
    def test_sym_edge(self):
        d = sym(complete_graph(2))
        spec = spectrum_of(d)
        c2_residual, arc_slack = _moment_gaps(d)
        assert spec.sum_re_sq == pytest.approx(2.0, abs=1e-12)
        assert spec.sum_im_sq == pytest.approx(0.0, abs=1e-12)
        assert c2_residual == pytest.approx(0.0, abs=1e-12)
        assert arc_slack == pytest.approx(0.0, abs=1e-12)

    def test_directed_triangle(self):
        d = directed_cycle(3)
        spec = spectrum_of(d)
        c2_residual, arc_slack = _moment_gaps(d)
        assert spec.sum_re_sq == pytest.approx(1.5, abs=1e-12)
        assert spec.sum_im_sq == pytest.approx(1.5, abs=1e-12)
        assert c2_residual == pytest.approx(0.0, abs=1e-12)
        assert arc_slack == pytest.approx(0.0, abs=1e-12)

    def test_digon_plus_tail_has_slack(self):
        c2_residual, arc_slack = _moment_gaps(Digraph(3, [(0, 1), (1, 0), (1, 2)]))
        assert c2_residual == pytest.approx(0.0, abs=1e-9)
        assert arc_slack == pytest.approx(1.0, abs=1e-9)

    @given(digraphs(max_n=5))
    @settings(max_examples=60, deadline=None)
    def test_identities_hold(self, d):
        if d.n == 0:
            return
        c2_residual, arc_slack = _moment_gaps(d)
        assert abs(c2_residual) <= 1e-8
        assert arc_slack >= -1e-8


class TestPublicSurface:
    @pytest.mark.parametrize("name", ["spectral_radius", "energy", "moment_identities",
                                      "MomentIdentities"])
    def test_deleted_wrappers_are_gone(self, name):
        # a Spectrum carries rho, energy and the moment sums
        assert not hasattr(digenergy, name)
        assert not hasattr(spectrum_mod, name)
        assert name not in digenergy.__all__

    def test_charpoly_is_not_callable(self):
        assert not callable(characteristic_polynomial(Digraph(2)))

    def test_every_exported_name_resolves(self):
        missing = [name for name in digenergy.__all__ if not hasattr(digenergy, name)]
        assert missing == []


class TestCoulson:
    def test_sym_edge_is_two(self):
        # integrand reduces to 2/(1+x^2); the integral is exactly 2
        assert coulson_energy(spectrum_of(sym(complete_graph(2)))) == pytest.approx(2.0, rel=1e-9)

    def test_sym_triangle_matches_energy(self):
        d = sym(complete_graph(3))
        assert coulson_energy(spectrum_of(d), rel_tol=1e-6) == pytest.approx(spectrum_of(d).energy, rel=1e-6)

    def test_directed_four_cycle_pole(self):
        with pytest.raises(PurelyImaginaryEigenvalueError) as exc:
            coulson_energy(spectrum_of(directed_cycle(4)))
        assert abs(abs(exc.value.x) - 1.0) < 1e-6

    def test_rel_tol_validated(self):
        with pytest.raises(ValueError):
            coulson_energy(spectrum_of(sym(complete_graph(2))), rel_tol=0.0)
        with pytest.raises(ValueError):
            coulson_energy(spectrum_of(sym(complete_graph(2))), rel_tol=1.5)
        with pytest.raises(ValueError):
            coulson_energy(spectrum_of(Digraph(0)), rel_tol=0.0)

    def test_rel_tol_floor_reaches_the_energy(self):
        # Below the floor this pole-free spectrum used up its panel budget
        # and read as a pole; at the floor the quadrature reaches its energy.
        spec = spectrum_of(random_digraph(16, 0.2, 1))
        with pytest.raises(ValueError):
            coulson_energy(spec, rel_tol=spectrum_mod.REL_TOL_FLOOR / 100)
        got = coulson_energy(spec, rel_tol=spectrum_mod.REL_TOL_FLOOR)
        assert got == pytest.approx(spec.energy, rel=spectrum_mod.REL_TOL_FLOOR)

    def test_zero_eigenvalue_is_not_a_pole(self):
        d = sym(star_graph(2))  # spectrum {sqrt(2), 0, -sqrt(2)}
        assert coulson_energy(spectrum_of(d)) == pytest.approx(spectrum_of(d).energy, rel=1e-6)

    def test_empty_digraph(self):
        assert coulson_energy(spectrum_of(Digraph(3))) == pytest.approx(0.0, abs=1e-12)
        assert coulson_energy(spectrum_of(Digraph(0))) == 0.0

    def test_many_zero_eigenvalues_are_not_poles(self):
        # x^10 (x^2 - 3): |phi(ix)| ~ |x|^10 near 0 must not read as a pole.
        d = from_graph(Graph(12, [(0, 1), (0, 2), (0, 3)]))
        assert coulson_energy(spectrum_of(d)) == pytest.approx(2 * math.sqrt(3), rel=1e-6)


class _PanelBudgetExceeded(Exception):
    pass


def _reference_coulson(coeffs, rel_tol=1e-6, max_panels=math.inf):
    """The depth-first recursive quadrature, one integrand call per panel
    and rule: the reference for the level-synchronous one.  Twice the
    integral over (0, pi/2) from 16 equal start panels at depth 4, each
    panel sum one row-wise sum, the 16 totals added by ``np.sum``.  Raises
    _PanelBudgetExceeded when it would evaluate more than ``max_panels``
    panels."""
    f = _integrand_of(coeffs)
    panels = 0

    def panel(a, b, rule):
        nodes, weights = rule
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        return half * (f(np.tan(mid + half * nodes)) * weights).sum()

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

    edges = np.linspace(0.0, math.pi / 2.0, 17)
    start = list(zip(edges[:-1], edges[1:]))
    estimate = 2.0 * float(np.sum([panel(a, b, spectrum_mod._GL_HI) for a, b in start]))
    tol = 0.25 * rel_tol * max(1.0, abs(estimate)) / 16
    return 2.0 * float(np.sum([adaptive(a, b, tol, 4) for a, b in start])) / math.pi


def _integrand_of(coeffs):
    """The integrand of one polynomial as a function of the abscissae
    x = tan(theta) that raises PurelyImaginaryEigenvalueError as the
    quadrature stops: at the first pole node with |x| <= 1, else at the
    first pole node."""
    f = spectrum_mod._Integrand([coeffs])

    def integrand(x):
        # One row of nodes, whatever their branches: a per-node gather.
        nodes = spectrum_mod._nodes(np.ravel(x)[None])
        values, x, pole = (a.ravel() for a in f(nodes, np.zeros(1, dtype=np.intp)))
        xs = x[pole]
        if len(xs):
            small = xs[np.abs(xs) <= 1.0]
            raise PurelyImaginaryEigenvalueError(float((small if len(small) else xs)[0]))
        return values
    return integrand


def _quadrature(coeffs, rel_tol=1e-6):
    """The quadrature of one polynomial, past the memo: the integral, or
    the PurelyImaginaryEigenvalueError raised."""
    f = spectrum_mod._Integrand([coeffs])
    (outcome,) = spectrum_mod._level_synchronous_gl(f, rel_tol)
    return spectrum_mod.unwrap(outcome)


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
# x^4 - 1 and x^2 + 1 have their poles at x = +-1, theta = pi/4 on the half
# path: a level-0 panel edge.  At a panel midpoint the odd singularity would
# cancel in both rules, which are symmetric about it.
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
    got = outcome(lambda: _quadrature(coeffs))
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

    @pytest.mark.parametrize("coeffs", MIDPOINT_POLE_POLYS)
    def test_midpoint_poles_raise(self, coeffs):
        _, got = _outcomes(coeffs)
        assert got == "raises"

    @pytest.mark.parametrize("corpus", sorted(COULSON_CORPORA))
    def test_within_1e_10_of_the_certified_energy(self, corpus):
        values = 0
        for d in COULSON_CORPORA[corpus]:
            spec = spectrum_of(d)
            try:
                integral = coulson_energy(spec)
            except PurelyImaginaryEigenvalueError:
                continue
            assert integral == pytest.approx(spec.energy, rel=1e-10)
            values += 1
        assert values >= 0.9 * len(COULSON_CORPORA[corpus])

    def test_pole_between_nodes_hits_panel_budget(self):
        # The integrand guard never fires on (x^2 + 1)(x^2 + 4): refinement
        # closes in on the pole without a node landing on it.
        started = time.perf_counter()
        with pytest.raises(PurelyImaginaryEigenvalueError) as exc:
            _quadrature((4, 0, 5, 0, 1))
        assert time.perf_counter() - started < 1.0
        assert min(abs(abs(exc.value.x) - 1.0), abs(abs(exc.value.x) - 2.0)) < 1e-3


def _reference_rows(coeffs, x):
    """Per branch of ``_Integrand``, the abscissae x, the point z and the
    real r it evaluates at, and phi(z), N(z) and the scale |phi|(r), by one
    ``np.polyval`` call each: z = ix, r = |x| for |x| <= 1, and z = 1/(ix),
    r = |z| with the reversed polynomials for |x| > 1, where the integrand
    takes N(z) * z."""
    n = len(coeffs) - 1
    num = [(n - k) * c for k, c in enumerate(coeffs)][:n] or [0]
    num_asc = np.array([float(c) for c in num])
    den_asc = np.array([float(c) for c in coeffs])
    small = np.abs(x) <= 1.0
    xs, xl = x[small], x[~small]
    y, u = 1j * xs, 1.0 / (1j * xl)
    branches = []
    for xb, z, r, den, num in ((xs, y, np.abs(xs), den_asc[::-1], num_asc[::-1]),
                               (xl, u, np.abs(u), den_asc, num_asc)):
        branches.append((xb, z, r, np.polyval(den, z), np.polyval(num, z), np.polyval(np.abs(den), r)))
    return small, branches


def _reference_integrand(coeffs, x):
    """``_Integrand`` with three ``np.polyval`` calls per branch at the
    abscissae ``x``: the reference the one-pass Horner integrand must match
    bit for bit."""
    small, branches = _reference_rows(coeffs, x)
    out = np.empty_like(x)
    for large, (where, (xb, z, _, den, num, scale)) in enumerate(zip((small, ~small), branches)):
        bad = np.abs(den) <= spectrum_mod._POLE_REL * scale
        if np.any(bad):
            raise PurelyImaginaryEigenvalueError(float(xb[bad][0]))
        out[where] = ((num * z if large else num) / den).real * (1.0 + xb * xb)
    return out


def _integrand_outcome(integrand, x):
    """The values of one call, or ("raises", abscissa) for a pole."""
    try:
        return integrand(x)
    except PurelyImaginaryEigenvalueError as exc:
        return ("raises", exc.x)


def _assert_same_integrand(coeffs, x):
    """Values, raise and abscissa of one call at the abscissae ``x``, and
    every Horner row of both branches (the scale row decides only the
    guard), match the reference."""
    x = np.ravel(x)
    want = _integrand_outcome(lambda t: _reference_integrand(coeffs, t), x)
    got = _integrand_outcome(_integrand_of(coeffs), x)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple) and np.array_equal(got, want)
    _, branches = _reference_rows(coeffs, x)
    f = spectrum_mod._Integrand([coeffs])
    # Row 0 holds the |x| <= 1 rows of the one polynomial, row 1 the others.
    for column, (_, z, r, den, num, scale) in enumerate(branches):
        got_den, got_num = f.pair(z.imag[None], np.full((1, 1), column))[:, 0]
        assert np.array_equal(got_den, den)
        assert np.array_equal(got_num, num * z if column else num)
        rows = f.scale_steps.take(np.full(len(z), column), axis=1)
        assert np.array_equal(spectrum_mod._polyval_rows(rows, r), scale)


def _assert_same_pole_guard(coeffs, x):
    """At every abscissa of ``x`` (one row per panel), the integrand's pole
    mask is the full guard |phi| <= 1e-13 * |phi|(r) on the reference
    rows, and 2 sum |a_k| bounds the scale row, as its shortcut assumes."""
    rows = np.atleast_2d(x)
    f = spectrum_mod._Integrand([coeffs])
    _, _, pole = f(spectrum_mod._nodes(rows), np.zeros(len(rows), dtype=np.intp))
    small, branches = _reference_rows(coeffs, rows.ravel())
    want = np.empty(rows.size, dtype=bool)
    bound = 2.0 * sum(abs(float(c)) for c in coeffs)
    for column, (where, (_, _, _, den, _, scale)) in enumerate(zip((small, ~small), branches)):
        want[where] = np.abs(den) <= spectrum_mod._POLE_REL * scale
        assert (scale <= bound).all()
        assert (spectrum_mod._POLE_REL * scale <= f.limit[column]).all()
    assert np.array_equal(pole.ravel(), want)
    return int(want.sum())


class _Recorder(spectrum_mod._Integrand):
    """An integrand that keeps the abscissae of every call."""

    def __init__(self, polys):
        super().__init__(polys)
        self.seen = []

    def __call__(self, nodes, poly):
        self.seen.append(nodes[0].copy())
        return super().__call__(nodes, poly)


def _visited_nodes(coeffs):
    """The abscissae of every node array the quadrature of ``coeffs``
    passes to the integrand."""
    f = _Recorder([coeffs])
    spectrum_mod._level_synchronous_gl(f, 1e-6)
    return f.seen


def _analyze_cli_n32(seed, block):
    """The n = 32 digraphs of one ``analyze-cli`` benchmark block, drawn as
    ``analyze_block`` in perfbench/worker.py draws them."""
    rng = random.Random(f"analyze-cli:{seed}:{block}")
    cells = [(n, kind, p) for n in (8, 12, 16) for kind in ("digraph", "symmetric") for p in (0.1, 0.3)]
    cells += [(32, "symmetric", p) for p in (0.08, 0.3, 0.4, 0.5)]
    cells += [(32, "digraph", p) for p in (0.3, 0.4, 0.5, 0.6)]
    rng.shuffle(cells)
    digraphs = []
    for n, kind, p in cells:
        if kind == "digraph":
            arcs = [(i, j) for i in range(n) for j in range(n) if i != j and rng.random() < p]
        else:
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            arcs = edges + [(j, i) for i, j in edges]
        if n == 32:
            digraphs.append(Digraph(n, arcs))
    return digraphs


INTEGRAND_CORPORA = {**COULSON_CORPORA, "analyze-cli-n32": _analyze_cli_n32(1, 0)}
# The characteristic polynomials (x - (n - 1)) (x + 1)^(n - 1) of K_n.
COMPLETE_DIGRAPH_POLYS = {n: _poly_mul(_root_power(n - 1, 1), _root_power(-1, n - 1)) for n in (76, 78, 80)}


class TestHornerIntegrand:
    """The one-pass Horner integrand returns the bits of three
    ``np.polyval`` calls per branch, and raises at the same abscissa."""

    @pytest.mark.parametrize("corpus", sorted(INTEGRAND_CORPORA))
    def test_every_visited_node_array(self, corpus):
        for d in INTEGRAND_CORPORA[corpus]:
            coeffs = _integral_input(d)
            for x in _visited_nodes(coeffs):
                _assert_same_integrand(coeffs, x)

    @pytest.mark.parametrize("corpus", sorted(INTEGRAND_CORPORA))
    def test_even_on_every_visited_node_array(self, corpus):
        # The quadrature integrates over theta > 0 only and doubles the sum.
        for d in INTEGRAND_CORPORA[corpus]:
            coeffs = _integral_input(d)
            f = _integrand_of(coeffs)
            for x in _visited_nodes(coeffs):
                want = _integrand_outcome(f, x)
                got = _integrand_outcome(f, -x)
                if isinstance(want, tuple):
                    assert got == ("raises", -want[1])
                else:
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("coeffs", GUARDED_POLE_POLYS)
    def test_guarded_poles(self, coeffs):
        for x in _visited_nodes(coeffs):
            _assert_same_integrand(coeffs, x)
        # A node on the pole at x = 1 (small branch, all three) or at x = 2
        # or 3 (large branch, where the polynomial has it).
        for x in (1.0, 2.0, 3.0):
            _assert_same_integrand(coeffs, np.tan([-0.3, 0.1, math.atan(x), 1.2]))
        f = _integrand_of(coeffs)
        assert _integrand_outcome(f, np.tan([0.1, math.atan(1.0)]))[0] == "raises"

    def test_pole_guard_shortcut_equals_full_guard(self):
        # The scale row runs only where |phi| <= 1e-13 * 2 sum |a_k|; no
        # other node may read as a pole.  K_78 and K_80 read false poles.
        polys = ([_integral_input(d) for corpus in INTEGRAND_CORPORA.values() for d in corpus]
                 + GUARDED_POLE_POLYS + [COMPLETE_DIGRAPH_POLYS[n] for n in (76, 78, 80)])
        poles = sum(_assert_same_pole_guard(coeffs, x)
                    for coeffs in polys for x in _visited_nodes(coeffs))
        for coeffs in GUARDED_POLE_POLYS:
            for x in (1.0, 2.0, 3.0):
                poles += _assert_same_pole_guard(coeffs, np.tan([-0.3, 0.1, math.atan(x), 1.2]))
        assert poles >= 5

    def test_one_branch_calls(self):
        # No double has a tangent of exactly 1, so these abscissae come from
        # no quadrature: |x| == 1 belongs to the small branch.
        cases = [
            np.linspace(-1.0, 1.0, 41),
            np.array([1.0, -1.0]),
            np.array([-1.0, 0.5, 1.0]),
            np.concatenate([np.linspace(-40.0, -1.0, 20), np.linspace(1.0, 40.0, 20)])[1:-1],
            np.array([np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), 1e8]),
            np.array([-1.0, np.nextafter(1.0, 2.0), 1.0, 3.5]),
        ]
        for d in COULSON_CORPORA["n8"][:20] + COULSON_CORPORA["n32"]:
            coeffs = _integral_input(d)
            for x in cases:
                _assert_same_integrand(coeffs, x)

    def test_panel_rows_equal_one_row_and_per_panel_calls(self):
        # A row per panel gathers its coefficients once; one row of all the
        # nodes gathers them per node.
        for d in COULSON_CORPORA["n8"][:20] + COULSON_CORPORA["n32"]:
            f = spectrum_mod._Integrand([_integral_input(d)])
            for x in _visited_nodes(_integral_input(d)):
                rows = f(spectrum_mod._nodes(x), np.zeros(len(x), dtype=np.intp))
                one_row = f(spectrum_mod._nodes(x.ravel()[None]), np.zeros(1, dtype=np.intp))
                per_panel = [f(spectrum_mod._nodes(panel[None]), np.zeros(1, dtype=np.intp)) for panel in x]
                for k, got in enumerate(rows):
                    assert np.array_equal(got.ravel(), one_row[k].ravel())
                    assert np.array_equal(got, np.concatenate([call[k] for call in per_panel]))


class TestCompleteDigraphIntegrals:
    """The Coulson integrals of K_76, K_78 and K_80, whose spectra are real:
    from K_78 on, |phi(ix)| falls below the guard's 1e-13 * sum |a_k| |x|^k
    by cancellation and reads as a pole that is not there.  Pinned bit for
    bit, false poles included, until the imaginary axis is decided exactly."""

    def test_k76_integrates(self):
        assert _quadrature(COMPLETE_DIGRAPH_POLYS[76]) == 149.99999698457287

    @pytest.mark.parametrize("n, x", [(78, 0.9900265009498296), (80, 1.1757598981575976)])
    def test_false_poles(self, n, x):
        with pytest.raises(PurelyImaginaryEigenvalueError) as exc:
            _quadrature(COMPLETE_DIGRAPH_POLYS[n])
        assert exc.value.x == x


class TestGaussLegendreRules:
    @pytest.mark.parametrize("rule, n", [("_GL_LO", 8), ("_GL_HI", 16)])
    def test_literals_are_leggauss_bit_for_bit(self, rule, n):
        for got, want in zip(getattr(spectrum_mod, rule), np.polynomial.legendre.leggauss(n)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_cli_import_leaves_numpy_polynomial_out(self):
        src = str(pathlib.Path(digenergy.__file__).resolve().parent.parent)
        code = "import sys, digenergy.cli; print('numpy.polynomial' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stdout.strip()) == (0, "False"), proc.stderr


def _block_outcomes(d, memo):
    """The spectrum and Coulson outcome of ``d`` as a block of one that
    reads and fills ``memo``, as text."""
    block = _Block.from_digraphs([d], memo)
    (spec,) = outcomes(block)
    return repr(spec), _outcome_text(spec if isinstance(spec, Exception) else block.integrals[0])


class TestExactMemo:
    """Per-polynomial work is kept in the run's ``Memo``; no result may
    depend on what it already holds."""

    CORPUS = list(enumerate_digraphs(3)) + [random_digraph(8, p, seed)
                                            for p in (0.2, 0.4) for seed in range(10)]

    def test_warm_memos_are_bit_identical(self):
        # The spectrum is certified again from warm exact roots and taken
        # with a warm integral: both equal a cold block's.
        for d in self.CORPUS:
            memo = Memo()
            cold = _block_outcomes(d, memo)
            memo.spectra.clear()
            assert _block_outcomes(d, memo) == cold

    def test_coulson_with_spectrum_matches_cold_call(self):
        memo = Memo()
        for d in self.CORPUS:
            spec = spectrum_of(d)
            first = spectrum_mod.coulson_energies([spec], 1e-6, memo)[0]
            warm = spectrum_mod.coulson_energies([spec], 1e-6, memo)[0]
            if isinstance(first, PurelyImaginaryEigenvalueError):
                continue
            assert warm == first == coulson_energy(spectrum_of(d))

    def test_relabelings_share_the_memo(self, monkeypatch):
        d = sym(path_graph(4))
        perm = (2, 0, 3, 1)
        relabeled = Digraph(4, [(perm[i], perm[j]) for i, j in d.arcs])
        assert relabeled != d
        memo = Memo()
        first = _Block.from_digraphs([d], memo)
        (integral,) = first.integrals
        coeffs = characteristic_polynomial(d).coeffs
        assert coeffs in memo.factors
        assert memo.integrals[coeffs, 1e-6] == integral
        assert memo.spectra[coeffs] is first.outcome(0)

        def forbidden(*args):
            raise AssertionError("a memo hit recomputed")

        # The memo serves a second block: no decomposition, no quadrature.
        monkeypatch.setattr(kernels_mod, "square_free_decompositions", forbidden)
        monkeypatch.setattr(spectrum_mod, "_level_synchronous_gl", forbidden)
        second = _Block.from_digraphs([relabeled], memo)
        assert second.outcome(0) is memo.spectra[coeffs]
        assert second.integrals[0] == integral

    def test_one_kernel_call_serves_relabelings_and_reductions(self, monkeypatch):
        # The path P4 plus an isolated vertex 4.
        d = Digraph(5, sym(path_graph(4)).arcs)
        # Reversing the path is an automorphism: a new digraph object with
        # the same adjacency.
        perm = (3, 2, 1, 0, 4)
        relabeled = Digraph(5, [(perm[i], perm[j]) for i, j in d.arcs])
        assert relabeled is not d and relabeled == d
        # Arcs into the sink 4 lie on no cycle, so the reduction is d again.
        tailed = Digraph(5, list(d.arcs) + [(0, 4), (3, 4)])
        assert cycle_arc_reduction(tailed) == d
        calls = []
        kernel = kernels_mod.charpoly_from_masks

        def counting(stack):
            calls.append(stack.copy())
            return kernel(stack)

        monkeypatch.setattr(kernels_mod, "charpoly_from_masks", counting)
        block = _Block.from_digraphs([d, relabeled, tailed], Memo())
        poly = block.polys[block.poly_index[0]]
        assert block.polys[block.poly_index[1]] is poly and block.polys[block.reduced_index[2]] is poly
        assert block.polys[block.poly_index[2]] == poly == characteristic_polynomial(d)
        # One kernel call, on the three members and then the one reduction
        # that drops an arc, tailed's; the table is keyed by coefficients,
        # so repeated adjacencies share one row of it.
        want = np.array([adjacency_matrix(x) for x in (d, relabeled, tailed, d)])
        assert np.array_equal(calls[0], want)
        assert len(calls) == 2  # the second is characteristic_polynomial(d) above
        # The spectrum depends on the polynomial alone: a relabeling that
        # is no automorphism and the transpose, each in a block of its own,
        # get the block's spectrum, bit for bit.
        shuffled = Digraph(5, [((i + 2) % 5, (j + 2) % 5) for i, j in d.arcs])
        transpose = Digraph(5, [(j, i) for i, j in tailed.arcs])
        assert shuffled != d and transpose != tailed
        for image in (shuffled, transpose):
            assert Analysis(image).spectrum == block.outcome(0) == block.outcome(2)

    @pytest.mark.parametrize("corpus", ["n4", "random-n5-16"])
    def test_relabeling_and_transpose_keep_spectrum_and_bounds(self, corpus):
        ds = (list(enumerate_digraphs(4))[::16] if corpus == "n4"
              else [random_digraph(n, 0.3, seed) for n in range(5, 17) for seed in range(3)])
        rng = random.Random(2024)
        for d in ds:
            perm = list(range(d.n))
            rng.shuffle(perm)
            want = Analysis(d).to_dict()
            for image in (Digraph(d.n, [(perm[i], perm[j]) for i, j in d.arcs]),
                          Digraph(d.n, [(j, i) for i, j in d.arcs])):
                got = Analysis(image).to_dict()
                assert got["spectrum"] == want["spectrum"], (d, image)
                assert got["bounds"] == want["bounds"], (d, image)


def _reference_aberth(coeffs, roots):
    """The refinement of one polynomial with ``np.polyval``, as it ran one
    polynomial at a time: the reference for the stacked one.  Returns the
    roots and the number of sweeps it ran."""
    p_desc = np.array([float(c) for c in reversed(coeffs)])
    dp_desc = np.array([float(k * c) for k, c in enumerate(coeffs)][1:][::-1])
    z = np.array(roots, dtype=complex)
    scale = 1.0 + float(np.max(np.abs(z)))
    pz = np.polyval(p_desc, z)
    for sweep in range(1, spectrum_mod._ABERTH_SWEEPS + 1):
        dpz = np.polyval(dp_desc, z)
        newton = np.zeros_like(z)
        np.divide(pz, dpz, out=newton, where=np.abs(dpz) > 1e-300)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        diff[np.abs(diff) < 1e-14 * scale] = np.inf
        denom = 1.0 - newton * (1.0 / diff).sum(axis=1)
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
    return z, sweep


def _square_free_charpolys_and_qr(ds):
    rows, starts = [], []
    for d in ds:
        coeffs = characteristic_polynomial(d).coeffs
        if _square_free_decomposition(coeffs) == [(coeffs, 1)]:
            rows.append(coeffs)
            starts.append(qr_values(adjacency_matrix(d)))
    return rows, np.array(starts)


class TestStackedAberth:
    """A stacked refinement gives every row the bits it gets in a stack of
    one, and a stack of one the bits of the per-polynomial loop."""

    def _assert_rows_as_alone(self, rows, starts):
        stacked = spectrum_mod._aberth_refine(rows, starts)
        sweeps = []
        for k, row in enumerate(rows):
            alone = spectrum_mod._aberth_refine([row], starts[k:k + 1])
            want, ran = _reference_aberth(row, starts[k])
            assert np.array_equal(stacked[k], alone[0]) and np.array_equal(alone[0], want)
            sweeps.append(ran)
        return sweeps

    def test_rows_that_stop_at_different_sweeps(self):
        rows, starts = _square_free_charpolys_and_qr(
            [random_digraph(10, 0.3, 1_000_000 + k) for k in range(40)])
        # Starts moved off the roots by up to 1e-2 take more sweeps.
        starts[::3] += np.linspace(1e-6, 1e-2, len(starts[::3]))[:, None] * (1 + 1j)
        sweeps = self._assert_rows_as_alone(rows, starts)
        assert len(set(sweeps)) >= 3

    def test_linear_factors(self):
        rows = [(-2, 1), (3, 1), (0, 1), (7, 1)]
        starts = np.array([[2.1], [-2.9 + 0.1j], [0.05], [-7.0]], dtype=complex)
        self._assert_rows_as_alone(rows, starts)

    def test_rows_of_every_degree_of_a_block(self):
        # One call per degree: the factors of repeated-root polynomials and
        # of sparse symmetric charpolys, from their np.roots starts.
        polys = REPEATED_ROOT_POLYS + [characteristic_polynomial(d).coeffs for d in SPARSE_SYMMETRIC_CORPUS]
        factors = list(dict.fromkeys(f for coeffs in polys for f, _ in _square_free_decomposition(coeffs)))
        degrees = [len(f) - 1 for f in factors]
        assert len(set(degrees)) >= 8 and min(degrees) == 1 and max(degrees) == 32
        refined = {}
        spectrum_mod._factor_roots(factors, refined)
        assert sorted(refined) == sorted(factors)
        for f in factors:
            start = np.roots([float(c) for c in reversed(f)]).astype(complex)
            assert np.array_equal(refined[f], spectrum_mod._aberth_refine([f], start[None])[0])
            assert np.array_equal(refined[f], _reference_aberth(f, start)[0])

    def test_refines_only_the_factors_it_lacks(self, monkeypatch):
        factors = [(-2, 1), (1, 0, 1), (0, -2, 0, 1), (3, 1)]
        refined = {(1, 0, 1): "kept"}
        rows = []
        refine = spectrum_mod._aberth_refine
        monkeypatch.setattr(spectrum_mod, "_aberth_refine", lambda fs, z: rows.extend(fs) or refine(fs, z))
        spectrum_mod._factor_roots(factors + factors, refined)
        assert rows == [(-2, 1), (3, 1), (0, -2, 0, 1)]
        assert refined[(1, 0, 1)] == "kept" and len(refined) == 4

    def test_starts_are_np_roots_bit_for_bit(self):
        # The factors of every distinct charpoly of n <= 4, of seeded random
        # ones, of the repeated-root polynomials and of sparse symmetric
        # charpolys, those with a zero root among them.
        polys = (_charpolys_up_to_4() + _random_charpolys_6_to_12() + REPEATED_ROOT_POLYS
                 + [characteristic_polynomial(d).coeffs for d in SPARSE_SYMMETRIC_CORPUS])
        by_degree = {}
        for dec in kernels_mod.square_free_decompositions(polys):
            for f, _ in dec:
                by_degree.setdefault(len(f) - 1, {})[f] = None
        for rows in map(list, by_degree.values()):
            for f, got in zip(rows, spectrum_mod._root_starts(rows)):
                want = np.roots([float(c) for c in reversed(f)]).astype(complex)
                assert got.tobytes() == want.tobytes()
        factors = [f for rows in by_degree.values() for f in rows]
        assert len(factors) > 200 and sum(f[0] == 0 for f in factors) > 20

    def test_exact_roots_of_a_block_equal_one_at_a_time(self):
        polys = (REPEATED_ROOT_POLYS + [characteristic_polynomial(d).coeffs for d in SPARSE_SYMMETRIC_CORPUS]
                 + _random_charpolys_6_to_12()[::7] + [(1,), (-1, 0, 0, 1)])
        together = Memo()
        roots = spectrum_mod._exact_roots(polys, together)
        assert [len(r) for r in roots] == [len(c) - 1 for c in polys]
        for coeffs, got in zip(polys, roots):
            alone = Memo()
            (want,) = spectrum_mod._exact_roots([coeffs], alone)
            assert np.array(want, dtype=complex).tobytes() == np.array(got, dtype=complex).tobytes()
            assert all(np.array_equal(z, together.factors[f]) for f, z in alone.factors.items())
            if coeffs in alone.factors:  # square-free: its own one factor
                assert list(alone.factors) == [coeffs]

    def test_float_rows_round_as_float(self):
        # Coefficients past int64 and past 2^200 round to float64 as
        # float() rounds them, in the Horner rows and in the companion
        # matrices of the starts; the derivative rows stay exact until then.
        big = [2 ** 63 + 1025, -(2 ** 64) - 3, 2 ** 200 + 2 ** 147 + 1, 3 ** 140, -(7 ** 200)]
        rows = [(big[0], big[1], 0, 1), (big[2], 5, big[3], 1), (0, big[4], -1, 1), (-1, 0, 0, 1)]
        steps = spectrum_mod._horner_steps(rows, 4)
        assert steps.shape == (4, 4, 1)
        for k, row in enumerate(rows):
            want = [float(c) for c in reversed(row)]
            assert steps[:, k, 0].tolist() == want
        deriv = [kernels_mod._deriv(row) for row in rows]
        assert deriv[1][1] == 2 * big[3] and type(deriv[1][1]) is int
        assert spectrum_mod._horner_steps(deriv, 3)[:, 1, 0].tolist() == [float(c) for c in reversed(deriv[1])]
        for f, got in zip(rows, spectrum_mod._root_starts(rows)):
            want = np.roots([float(c) for c in reversed(f)]).astype(complex)
            assert got.tobytes() == want.tobytes()

    def test_empty_stack(self):
        assert spectrum_mod._aberth_refine([], np.empty((0, 3))).shape == (0, 3)


# Polynomials of degree 1 to 10 with phi(0) != 0, among them one that uses up
# its panel budget, one with a pole at a node and the charpoly of the random
# n = 10 digraph whose integral once missed its tolerance.
_SEED9 = Digraph(10, [(0, 4), (0, 5), (0, 6), (0, 7), (0, 9), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6),
                      (2, 7), (3, 0), (3, 4), (3, 5), (4, 0), (4, 3), (5, 0), (5, 4), (5, 9), (7, 2),
                      (7, 6), (7, 8), (8, 1), (8, 6), (8, 9), (9, 1), (9, 5), (9, 6), (9, 7), (9, 8)])
STACKED_COULSON_POLYS = (
    [(2, 1), (-1, 0, 1), (4, 0, 5, 0, 1), (-1, 0, 0, 0, 1), _integral_input(_SEED9), (1,),
     _poly_mul(*[_root_power(r, 1) for r in (1, -2, 3, -4, 5, -6)])]
    + [_integral_input(random_digraph(n, 0.4, seed)) for n in range(3, 11) for seed in range(3)]
)


def _outcome_text(outcome):
    return f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else outcome


def _energies_per_order(spectra):
    """``coulson_energies`` (rel_tol 1e-6) of spectra of several orders: one
    call per order, each over that order's spectra in their order."""
    memo, out, by_order = Memo(), [None] * len(spectra), {}
    for i, spec in enumerate(spectra):
        by_order.setdefault(len(spec.eigenvalues), []).append(i)
    for rows in by_order.values():
        for i, outcome in zip(rows, spectrum_mod.coulson_energies([spectra[i] for i in rows], 1e-6, memo)):
            out[i] = outcome
    return out


class TestStackedCoulson:
    """One quadrature over many polynomials gives each of them what a
    quadrature of its own gives: the same value, or the same pole."""

    def _one_call(self, polys):
        f = spectrum_mod._Integrand(polys)
        return [_outcome_text(o) for o in spectrum_mod._level_synchronous_gl(f, 1e-6)]

    def test_one_call_equals_calls_of_one(self):
        polys = STACKED_COULSON_POLYS
        assert {len(c) - 1 for c in polys} >= set(range(1, 11))
        together = self._one_call(polys)
        alone = [self._one_call([coeffs])[0] for coeffs in polys]
        assert together == alone
        poles = [o for o in together if isinstance(o, str)]
        assert len(poles) == 2 and all("pole" in o for o in poles)

    def test_poles_leave_their_neighbours_unchanged(self):
        poles = [(4, 0, 5, 0, 1), (-1, 0, 0, 0, 1)]
        others = [c for c in STACKED_COULSON_POLYS if c not in poles]
        with_poles = dict(zip(STACKED_COULSON_POLYS, self._one_call(STACKED_COULSON_POLYS)))
        assert [with_poles[c] for c in others] == self._one_call(others)

    def test_energies_of_spectra_equal_calls_of_one(self):
        ds = ([directed_cycle(4), Digraph(0), Digraph(5), _SEED9, sym(path_graph(4))]
              + [random_digraph(n, 0.4, seed) for n in range(3, 11) for seed in range(4)])
        spectra = [spectrum_of(d) for d in ds]
        together = [_outcome_text(o) for o in _energies_per_order(spectra)]
        alone = []
        for spec in spectra:
            try:
                alone.append(coulson_energy(spec))
            except PurelyImaginaryEigenvalueError as exc:
                alone.append(_outcome_text(exc))
        assert together == alone
        assert together[:3] == [_outcome_text(PurelyImaginaryEigenvalueError(1.0)), 0.0, 0.0]

    def test_pole_guard_is_the_per_eigenvalue_rule(self):
        # One mask per call (one order) finds the first eigenvalue with
        # |Re| <= g and |z| > g, g = 1e-9 (1 + rho), as a loop over each
        # spectrum finds it.
        spectra = [spectrum_of(d) for d in [directed_cycle(4), directed_cycle(8), Digraph(0), Digraph(3), _SEED9]
                   + [random_digraph(n, 0.4, seed) for n in range(3, 9) for seed in range(3)]]
        base = spectrum_of(sym(path_graph(4)))
        guard = 1e-9 * (1.0 + base.rho)
        for re in (guard, np.nextafter(guard, 1.0), -guard, 0.0):
            for im in (2.0, guard, np.nextafter(guard, 1.0)):
                spectra.append(base._replace(eigenvalues=(1.0, complex(re, im), complex(re, -im), -1.0)))
        want = []
        for spec in spectra:
            g = 1e-9 * (1.0 + spec.rho)
            want.append(next((z.imag for z in spec.eigenvalues if abs(z.real) <= g and abs(z) > g), None))
        got = _energies_per_order(spectra)
        assert [o.x if isinstance(o, PurelyImaginaryEigenvalueError) else None for o in got] == want
        assert sum(x is not None for x in want) >= 6

    def test_no_spectra_and_order_0(self):
        assert spectrum_mod.coulson_energies([], 1e-6, Memo()) == []
        empty = spectrum_of(Digraph(0))
        assert spectrum_mod.coulson_energies([empty, empty], 1e-6, Memo()) == [0.0, 0.0]

    def test_mixed_degrees_and_poles_share_the_level0_nodes(self, monkeypatch):
        # One quadrature of polynomials of degree 1 to 10 and of every
        # guarded pole computes the tangents of its 16 x 24 level-0 nodes
        # once, and each polynomial gets the bits it gets alone.
        polys = list(STACKED_COULSON_POLYS) + [c for c in GUARDED_POLE_POLYS if c not in STACKED_COULSON_POLYS]
        calls = []
        nodes = spectrum_mod._nodes
        monkeypatch.setattr(spectrum_mod, "_nodes", lambda x: calls.append(x.copy()) or nodes(x))
        f = _Recorder(polys)
        together = spectrum_mod._level_synchronous_gl(f, 1e-6)
        monkeypatch.undo()
        assert spectrum_mod._CHUNK_PANELS % 16 == 0  # a chunk of level 0 holds whole polynomials
        level0 = -(-16 * len(polys) // spectrum_mod._CHUNK_PANELS)  # integrand calls of level 0
        assert len(calls) == 1 + len(f.seen) - level0 and calls[0].shape == (16, 24)
        # The shared nodes have the bits of each panel's own tangents.
        edges = np.linspace(0.0, math.pi / 2, 17)
        rule = np.concatenate([spectrum_mod._GL_LO[0], spectrum_mod._GL_HI[0]])
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
            assert np.tan(0.5 * (a + b) + 0.5 * (b - a) * rule).tobytes() == calls[0][k].tobytes()
        assert np.concatenate(f.seen[:level0]).tobytes() == np.tile(calls[0], (len(polys), 1)).tobytes()
        poles = 0
        for coeffs, outcome in zip(polys, together):
            (alone,) = spectrum_mod._level_synchronous_gl(spectrum_mod._Integrand([coeffs]), 1e-6)
            assert type(outcome) is type(alone)
            if isinstance(alone, PurelyImaginaryEigenvalueError):
                assert outcome.x == alone.x
                poles += 1
            else:
                assert outcome == alone
        assert poles == len(GUARDED_POLE_POLYS) + 1

    def test_a_pole_with_x_at_most_1_is_reported_first(self):
        # As a quadrature of its own checks its |x| <= 1 nodes first: a level
        # with pole nodes on both sides of x = 1 stops at the first of those.
        class Poles:
            count = 2

            def __call__(self, nodes, poly):
                x = np.full(nodes[0].shape, 0.25)
                pole = np.zeros(x.shape, dtype=bool)
                for k in range(self.count):
                    first = np.flatnonzero(poly == k)[0]
                    x[first, [3, 7, 9]] = 4.0 + k, 0.5 + k / 4, 0.75
                    pole[first, [3, 7, 9]] = True
                return np.zeros(x.shape), x, pole

        outcomes = spectrum_mod._level_synchronous_gl(Poles(), 1e-6)
        assert [o.x for o in outcomes] == [0.5, 0.75]
