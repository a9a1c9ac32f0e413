import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codesmooth import codes as cd
from codesmooth import hypercube as hc
from codesmooth import kernels as kn
from codesmooth import smoothing as sm

from conftest import seeded_rng
from oracles import binary_renyi_mp, lift_exact, renyi_entropy

INF = math.inf


class TestKernelLifts:
    def test_unbiased_bernoulli_is_uniform(self):
        k = kn.Kernel.bernoulli(4, Fraction(1, 2))
        assert all(v == Fraction(1, 16) for v in lift_exact(k))

    def test_ball_kernel_support_and_mass(self):
        k = kn.Kernel.ball(7, 1)
        lifted = lift_exact(k)
        support = [i for i in range(128) if lifted[i] != 0]
        assert len(support) == 8  # V_1(7) = 8 by count
        assert all(lifted[i] == Fraction(1, 8) for i in support)
        assert all(i.bit_count() <= 1 for i in support)

    def test_sphere_kernel(self):
        k = kn.Kernel.sphere(6, 2)
        lifted = lift_exact(k)
        wt = hc.weights_table(6)
        for x in range(64):
            expected = Fraction(1, math.comb(6, 2)) if wt[x] == 2 else 0
            assert lifted[x] == expected

    def test_every_form_lifts_to_exact_pmf(self):
        forms = [
            kn.Kernel.bernoulli(5, Fraction(3, 10)),
            kn.Kernel.ball(5, 2),
            kn.Kernel.sphere(5, 3),
            kn.Kernel.subcube(5, [0, 2]),
            kn.Kernel.radial(5, _random_radial_pmf(5, seed=1)),
        ]
        for k in forms:
            assert sum(lift_exact(k)) == 1

    def test_lift_rounds_each_exact_value_once(self):
        forms = [
            kn.Kernel.bernoulli(5, Fraction(3, 10)),
            kn.Kernel.ball(5, 2),
            kn.Kernel.subcube(5, [0, 2]),
        ]
        for k in forms:
            lifted = k.lift()
            assert lifted.dtype == np.float64
            assert lifted.tolist() == [float(v) for v in lift_exact(k)], k

    def test_radius(self):
        assert kn.Kernel.ball(9, 4).radius() == 4
        assert kn.Kernel.sphere(9, 3).radius() == 3
        assert kn.Kernel.bernoulli(9, Fraction(1, 10)).radius() == 9
        assert kn.Kernel.bernoulli(9, 0).radius() == 0
        assert kn.Kernel.subcube(4, [0, 1]).radius() == 2
        # n - |S|, with no 2^40-point lift, which the memory cap refuses
        assert kn.Kernel.subcube(40, [0]).radius() == 39
        assert kn.Kernel.subcube(40, [3, 3, 7]).radius() == 38
        assert kn.Kernel.subcube(40, range(40)).radius() == 0

    @pytest.mark.parametrize("n", [1, 5, 14, 23])
    def test_bernoulli_profile_equals_fraction_powers(self, n):
        for d in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 20), Fraction(3, 10),
                  Fraction(0.1)):
            want = [d ** i * (1 - d) ** (n - i) for i in range(n + 1)]
            got = kn.Kernel.bernoulli(n, d).profile
            assert got == want and all(type(v) is Fraction for v in got), d

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            kn.Kernel.ball(4, 5)
        with pytest.raises(ValueError):
            kn.Kernel.bernoulli(4, Fraction(3, 2))

    def test_subcube_convolution_is_conditional_average(self):
        # direct definition: average f over the coordinates outside Gamma
        rng = seeded_rng(20)
        n = 6
        f = rng.random(1 << n)
        for gamma in ([0, 3], [1, 2, 5], []):
            k = kn.Kernel.subcube(n, gamma)
            conv = hc.convolve(f, k.lift())
            mask = sum(1 << c for c in gamma)
            direct = np.empty(1 << n)
            for x in range(1 << n):
                fiber = [f[y] for y in range(1 << n)
                         if (y & mask) == (x & mask)]
                direct[x] = sum(fiber) / len(fiber)
            assert np.allclose(conv, direct, atol=1e-12)


def _random_radial_pmf(n, seed):
    rng = seeded_rng(100 + seed)
    raw = [Fraction(int(a) + 1, 64) for a in rng.integers(0, 8, n + 1)]
    total = hc.radial_sum(n, raw)
    return [v / total for v in raw]


class TestRenyiEntropy:
    def test_uniform_every_order(self):
        u = np.full(64, 1 / 64)
        for alpha in (0, 0.5, 1, 2, 4, INF):
            assert math.isclose(sm.divergence_to_uniform(u, alpha).d_alpha, 0.0, abs_tol=1e-12)

    def test_bernoulli_entropy_factorizes(self):
        # H_2(beta_0.3) = n h_2(0.3), cross-checked against a direct power sum
        n, alpha = 8, 2
        k = kn.Kernel.bernoulli(n, Fraction(3, 10))
        lifted = lift_exact(k)
        direct = -math.log2(float(sum(Fraction(v) ** 2 for v in lifted)))
        assert math.isclose(k.renyi_entropy(alpha), direct, rel_tol=1e-12)
        assert math.isclose(direct, n * kn.binary_renyi(alpha, 0.3), rel_tol=1e-12)

    def test_ball_min_entropy_support(self):
        assert math.isclose(kn.Kernel.ball(7, 1).renyi_entropy(0), 3.0)

    def test_no_noise_distribution_entropies(self):
        # uniform on the two points that are 0 on coordinates 1..4
        k = kn.Kernel.subcube(5, [1, 2, 3, 4])
        assert math.isclose(k.renyi_entropy(1), 1.0)
        assert math.isclose(k.renyi_entropy(INF), 1.0)

    def test_monotone_in_order_50_random_pmfs(self):
        # D_alpha = n - H_alpha rises with the order
        rng = seeded_rng(21)
        grid = [0, 0.5, 1, 2, 4, INF]
        for _ in range(50):
            n = int(rng.integers(2, 7))
            p = rng.random(1 << n)
            p /= p.sum()
            vals = [sm.divergence_to_uniform(p, a).d_alpha for a in grid]
            assert all(vals[i] <= vals[i + 1] + 1e-10 for i in range(len(vals) - 1))

    def test_radial_shortcut_matches_dense(self):
        k = kn.Kernel.ball(10, 3)
        dense = np.array([float(v) for v in lift_exact(k)])
        for alpha in (0, 0.5, 1, 2, 3.5, INF):
            assert math.isclose(k.renyi_entropy(alpha), renyi_entropy(dense, alpha),
                                rel_tol=1e-10)

    def test_rejects_non_pmf(self):
        with pytest.raises(ValueError):
            sm.divergence_to_uniform(np.full(8, 0.25), 2)


class TestBinaryRenyi:
    def test_fair_coin_all_orders(self):
        for alpha in (0, 0.3, 1, 2, 7, INF):
            assert kn.binary_renyi(alpha, 0.5) == 1.0

    def test_min_entropy_matches_erasure_rate_form(self):
        # 1 - h_inf(d) = 1 + log2(1-d) for d <= 1/2
        for d in (0.05, 0.1, 0.3, 0.45):
            assert math.isclose(kn.binary_renyi(INF, d), -math.log2(1 - d))
            assert math.isclose(1 - kn.binary_renyi(INF, d), 1 + math.log2(1 - d))

    def test_order_two_value(self):
        assert math.isclose(kn.binary_renyi(2, 0.25), -math.log2(0.625))

    def test_monotone_non_increasing_in_order(self):
        for d in (0.1, 0.2, 0.4):
            vals = [kn.binary_renyi(a, d) for a in (0, 0.5, 1, 2, 4, 16, INF)]
            assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))

    def test_inverse_lookup(self):
        for alpha in (1, 2, INF):
            for d in (0.05, 0.2, 0.35):
                v = kn.binary_renyi(alpha, d)
                assert math.isclose(kn.binary_renyi_inverse(alpha, v), d,
                                    abs_tol=1e-10)
        assert kn.binary_renyi_inverse(2, 0.0) == 0.0
        assert kn.binary_renyi_inverse(2, 1.0) == 0.5

    @pytest.mark.parametrize("alpha", [0, 0.3, 0.9999, 1, 1.0000001, 1.000001, 1.0286,
                                       1.5, 2, 3, 7.5, 50, 1000, INF])
    def test_within_4_ulp_of_60_digits(self, alpha):
        # near alpha = 1, and at a small delta, the power sum is near 1, and
        # log2 of its float value is off by 1/|1 - alpha| or 1/delta times
        # its round-off: 1.1e7 ulp at (1.0000001, 0.2), 54 at (1.0286, 0.3);
        # log2 of the rounded 1 - delta put the limits 1 and inf 4.9e9 and
        # 1.6e11 ulp off at delta = 1e-12
        deltas = [0, 0.1, 0.2, 0.3, 0.46365, 0.5, 0.7, 1, Fraction(1, 3), 1e-5, 1e-9, 1e-12]
        for d in deltas:
            want = binary_renyi_mp(alpha, d)
            got = kn.binary_renyi(alpha, d)
            assert abs(got - want) <= 4 * math.ulp(want), (d, got, want)
        for d in (0, 1, 0.5):
            assert kn.binary_renyi(alpha, d) == (1.0 if d == 0.5 else 0.0)
        with pytest.raises(ValueError, match="order"):
            kn.binary_renyi(-alpha if alpha else -0.5, 0.3)

    @given(st.floats(min_value=1e-6, max_value=0.5),
           st.floats(min_value=0.1, max_value=50))
    @example(d=0.49999999999999994, alpha=0.5)   # h is flat there: d is lost
    @settings(max_examples=100, deadline=None)
    def test_inverse_roundtrip_property(self, d, alpha):
        h = functools.partial(kn.binary_renyi, alpha)
        v = h(d)
        inv = kn.binary_renyi_inverse(alpha, v)
        # the contract h(inv) == v on the float grid: the computed h steps
        # across v at inv (its round-off near alpha = 1 exceeds 2 ulp)
        assert h(inv) >= v
        assert v in (0.0, 1.0) or h(math.nextafter(inv, 0)) < v
        # d comes back to 1e-8 wherever h moves by more than its round-off
        # within 1e-8 of d; the round-off is a few ulps of v, plus a few of
        # the power sum near 1 divided by |1 - alpha|
        noise = 4 * math.ulp(v) + (8 * math.ulp(1.0) / abs(1 - alpha) if alpha != 1 else 0)
        if h(d - 1e-8) < v - noise and (d + 1e-8 >= 0.5 or h(d + 1e-8) > v + noise):
            assert math.isclose(inv, d, abs_tol=1e-8)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=16),
           st.floats(min_value=0.0, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_monotone_property(self, d, a1, a2):
        lo, hi = sorted((a1, a2))
        assert kn.binary_renyi(lo, d) >= kn.binary_renyi(hi, d) - 1e-10


class TestKernelSpecGrammar:
    def test_parse_forms(self):
        for spec, direct in (("bernoulli:0.1", kn.Kernel.bernoulli(6, Fraction(1, 10))),
                             ("ball:3", kn.Kernel.ball(6, 3)),
                             ("sphere:2", kn.Kernel.sphere(6, 2))):
            k = kn.parse_kernel_spec(spec, 6)
            assert k.spec_string() == spec
            assert k.radial_profile() == direct.radial_profile()
        k = kn.parse_kernel_spec("subcube:0,2,5", 6)
        assert k.spec_string() == "subcube:0,2,5"
        assert k.coords == (0, 2, 5)

    def test_parse_radial_file(self, tmp_path):
        n = 4
        prof = _random_radial_pmf(n, seed=2)
        path = tmp_path / "prof.csv"
        path.write_text(",".join(str(v) for v in prof) + "\n")
        k = kn.parse_kernel_spec(f"radial:@{path}", n)
        assert k.radial_profile() == prof

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            kn.parse_kernel_spec("gauss:1", 4)
        with pytest.raises(ValueError):
            kn.parse_kernel_spec("radial:inline", 4)


class TestSpectrum:
    def test_matches_the_transform_of_the_lift(self):
        # every kernel form, exact and float, and the support's transform
        n, points = 6, np.arange(64)
        for k in (kn.Kernel.bernoulli(n, Fraction(1, 10)), kn.Kernel.ball(n, 2),
                  kn.Kernel.sphere(n, 3), kn.Kernel.subcube(n, [0, 2])):
            want = hc.wht_natural(lift_exact(k))
            counts, denom = k.spectrum(points, exact=True)
            assert [Fraction(int(t), denom) for t in counts] == want.tolist(), k
            assert np.allclose(k.spectrum(points), want.astype(float), rtol=1e-14, atol=1e-15), k
            support, one = k.spectrum(points, exact=True, support=True)
            assert one == 1 and support.tolist() == \
                hc.wht_natural((k.lift() > 0).astype(np.int64)).tolist(), k
            # the whole cube, in index order, with no points given
            for exact, support in ((False, False), (True, False), (True, True)):
                whole = k.spectrum(exact=exact, support=support)
                at_points = k.spectrum(points, exact=exact, support=support)
                if exact:
                    (whole, denom), (at_points, want_denom) = whole, at_points
                    assert denom == want_denom, k
                assert whole.dtype == at_points.dtype and np.array_equal(whole, at_points), k


    @pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
    @pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 10), Fraction(3, 10),
                                       Fraction(1, 2), Fraction(1), Fraction(0.1)],
                             ids=["0", "1/10", "3/10", "1/2", "1", "binary-0.1"])
    def test_bernoulli_closed_form_equals_the_radial_transform(self, n, delta):
        # T(w) = (q - 2p)^w q^(n - w) over D = q^n against the Krawtchouk
        # recurrence on the integer profile, at one point of each weight
        k = kn.Kernel.bernoulli(n, delta)
        ints, denom = hc._scale_to_int(k.profile)
        points = [(1 << w) - 1 for w in range(n + 1)]
        counts, got_denom = k.spectrum(points, exact=True)
        assert got_denom == denom == k.denominator
        want = hc.radial_transform(n, ints.tolist())
        assert [int(t) for t in counts] == want
        assert k.spectrum(points).tolist() == [t / denom for t in want]


def _gf32_minimal_poly(power: int) -> int:
    """Minimal polynomial over GF(2) of a^power, a a root of x^5 + x^2 + 1,
    as a bit mask (coefficient of x^i in bit i)."""
    exp = [1]
    for _ in range(30):
        v = exp[-1] << 1
        exp.append(v ^ 0b100101 if v & 32 else v)
    log = {v: i for i, v in enumerate(exp)}
    poly = [1]   # coefficients in GF(32), lowest first: the product of (x + conjugate)
    for c in {power * 2 ** j % 31 for j in range(5)}:
        beta = exp[c]
        times = [0 if v == 0 else exp[(log[v] + log[beta]) % 31] for v in poly]
        poly = [a ^ b for a, b in zip([0] + poly, times + [0])]
    assert set(poly) <= {0, 1}
    return sum(b << i for i, b in enumerate(poly))


def _bch_31_21() -> cd.LinearCode:
    """The cyclic [31, 21] two-error-correcting BCH code, g = m1 m3."""
    m1, m3, g = _gf32_minimal_poly(1), _gf32_minimal_poly(3), 0
    for i in range(m3.bit_length()):
        g ^= m1 << i if m3 >> i & 1 else 0
    return cd.LinearCode(np.array([[(g << i) >> j & 1 for j in range(31)] for i in range(21)],
                                  dtype=np.uint8))


def _punctured_nordstrom_robinson() -> cd.ExplicitCode:
    """The (15, 256, 5) punctured Preparata code of length 15: the extended
    Golay words that restrict to 0 or e_i + e_j0 on one octad (j0 fixed),
    with the octad deleted and one more coordinate punctured."""
    words = cd.golay23().codeword_ints()
    ext = words | (np.bitwise_count(words).astype(np.int64) & 1) << 23
    octad = int(ext[np.bitwise_count(ext) == 8][0])
    coords = [j for j in range(24) if octad >> j & 1]
    allowed = {0} | {1 << i | 1 << coords[0] for i in coords[1:]}
    rest = [j for j in range(24) if not octad >> j & 1][1:]
    return cd.ExplicitCode(15, [sum((int(w) >> j & 1) << t for t, j in enumerate(rest))
                                for w in ext if int(w) & octad in allowed])


def _nordstrom_robinson_cosets() -> cd.Code:
    """The same code as 8 cosets of its linear kernel {v : v + C = C}, a
    [15, 5] code: 2^10 cells in place of 2^15 points."""
    words = _punctured_nordstrom_robinson().codeword_ints()
    kernel = words[np.isin(words[:, None] ^ words, words).all(axis=1)]
    rref, _ = cd.gf2_rref(kernel[:, None] >> np.arange(15) & 1)
    return cd.Code(rref, words)


class TestPackedFamilyKernels:
    def test_profiles_are_pmfs_with_expected_support(self):
        k = kn.two_error_bch_profile(31)
        prof = k.radial_profile()
        assert sum(math.comb(31, i) * prof[i] for i in range(32)) == 1
        assert prof[0] == prof[1] and prof[2] == prof[3]
        assert prof[2] == prof[0] * Fraction(6, 30)
        assert all(v == 0 for v in prof[4:])
        assert k.radius() == 3

        kp = kn.preparata_profile(15)
        pp = kp.radial_profile()
        assert pp[2] == pp[0] * Fraction(3, 15)
        assert kp.radius() == 3

    @pytest.mark.parametrize("build, right, wrong, rho, spectrum", [
        (_bch_31_21, kn.two_error_bch_profile, kn.preparata_profile, 3, {12, 16, 20}),
        (_punctured_nordstrom_robinson, kn.preparata_profile, kn.two_error_bch_profile, 3,
         {6, 8, 10}),
        (_nordstrom_robinson_cosets, kn.preparata_profile, kn.two_error_bch_profile, 3,
         {6, 8, 10}),
    ], ids=["bch-31-21", "nordstrom-robinson-15", "nordstrom-robinson-15-cosets"])
    def test_each_profile_smooths_its_code(self, build, right, wrong, rho, spectrum):
        code = build()
        n = code.n
        assert cd.covering_radius(code) == rho
        dist = cd.distance_distribution(code)
        if not code.is_linear:
            assert {i: int(v) for i, v in enumerate(dist) if v} == \
                {0: 1, 5: 42, 6: 70, 7: 15, 8: 15, 9: 70, 10: 42, 15: 1}
        dual = cd.dual_distance_distribution(dist, code.size)
        assert {j for j in range(1, n + 1) if dual[j]} == spectrum
        assert code.dual_weights() == sorted(spectrum)
        assert sm.perfect_kernel_search(code).radial_profile() == right(n).radial_profile()
        # the cell certificate, and the spectral one: rhat vanishes on the dual support
        assert sm.is_perfectly_smoothed(code, right(n))
        assert not sm.is_perfectly_smoothed(code, wrong(n))
        for profile, smooths in ((right(n), True), (wrong(n), False)):
            rhat = hc.radial_transform(n, profile.radial_profile())
            assert all(rhat[j] == 0 for j in spectrum) == smooths


class TestNordstromRobinsonCosets:
    def test_shape(self):
        code = _nordstrom_robinson_cosets()
        assert (code.k, code.reps.size, code.size, code.cells) == (5, 8, 256, 1 << 10)
        assert not code.is_linear
        assert np.array_equal(np.sort(code.codeword_ints()),
                              _punctured_nordstrom_robinson().codeword_ints())

    @pytest.mark.parametrize("build", [
        lambda: kn.Kernel.bernoulli(15, Fraction(1, 10)), lambda: kn.Kernel.ball(15, 2),
        lambda: kn.preparata_profile(15)], ids=["bernoulli-1/10", "ball-2", "preparata"])
    def test_cell_pmf_sums_the_point_pmf(self, build):
        # T_r f_C is constant on the cosets of the kernel: each coset's mass
        # is the sum of the word list's masses on its 32 points
        cosets, kernel = _nordstrom_robinson_cosets(), build()
        per_coset = [Fraction(0)] * cosets.cells
        points = sm.cell_pmf(_punctured_nordstrom_robinson(), kernel, exact=True)
        for cell, mass in zip(cosets.cube_cells().tolist(), points):
            per_coset[cell] += mass
        assert sm.cell_pmf(cosets, kernel, exact=True).tolist() == per_coset
        assert np.allclose(sm.cell_pmf(cosets, kernel), [float(v) for v in per_coset],
                           rtol=1e-12, atol=0)

    def test_file_roundtrip(self, tmp_path):
        # written as its 256 words, the same file as the word list's
        path, twin = tmp_path / "cosets.code", tmp_path / "words.code"
        cd.save_code(path, _nordstrom_robinson_cosets())
        cd.save_code(twin, _punctured_nordstrom_robinson())
        assert path.read_text().splitlines()[0] == "explicit 15 256"
        assert path.read_text() == twin.read_text()
        loaded = cd.load_code(path)
        assert np.array_equal(loaded.codeword_ints(),
                              _punctured_nordstrom_robinson().codeword_ints())
