import math
from fractions import Fraction

import numpy as np
import pytest

from codesmooth import codes as cd

from conftest import random_linear_code, seeded_rng
from oracles import gf2_rref_columns


def enumerate_codewords_oracle(gen: np.ndarray) -> set[int]:
    """Independent 2^k span enumeration from raw generator rows."""
    k, n = gen.shape
    rows = [sum(int(b) << j for j, b in enumerate(r)) for r in gen]
    words = set()
    for m in range(1 << k):
        w = 0
        for i in range(k):
            if (m >> i) & 1:
                w ^= rows[i]
        words.add(w)
    return words


def _random_matrices():
    rng = seeded_rng(70)
    shapes = [(0, 0), (0, 5), (4, 0), (1, 1), (13, 14), (14, 13), (40, 70)]
    shapes += [(int(rng.integers(0, 14)), int(rng.integers(0, 15))) for _ in range(200)]
    for rows, cols in shapes:
        # sparse and dense draws, so rank-deficient matrices come up too
        yield (rng.random((rows, cols)) < rng.choice([0.1, 0.5])).astype(np.uint8)
    yield np.zeros((5, 9), dtype=np.uint8)
    yield np.ones((6, 3), dtype=np.uint8)
    yield cd.golay23().generator
    yield cd.reed_muller(2, 5).generator


def test_gf2_rref_matches_column_elimination():
    for mat in _random_matrices():
        rref, pivots = cd.gf2_rref(mat)
        want, want_pivots = gf2_rref_columns(mat)
        assert pivots == want_pivots, mat.shape
        assert rref.dtype == want.dtype and rref.shape == want.shape, mat.shape
        assert np.array_equal(rref, want), mat.shape
        assert cd.gf2_rank(mat) == len(want_pivots)


class TestFamilies:
    def test_hamming3_weight_enumerator(self, hamming7):
        # enumerate all 16 codewords independently
        words = enumerate_codewords_oracle(hamming7.generator)
        assert len(words) == 16
        counts = [0] * 8
        for w in words:
            counts[bin(w).count("1")] += 1
        assert counts == [1, 0, 0, 7, 7, 0, 0, 1]
        assert cd.distance_distribution(hamming7) == counts

    def test_reed_muller_dimensions(self):
        rm = cd.reed_muller(1, 3)
        assert (rm.n, rm.k) == (8, 4)
        assert cd.reed_muller(2, 4).k == 1 + 4 + 6

    def test_reed_muller_dual_is_reed_muller(self):
        # row-reduced generators are canonical, so row-space equality is
        # matrix equality
        assert np.array_equal(cd.reed_muller(1, 4).dual().generator,
                              cd.reed_muller(2, 4).generator)
        assert np.array_equal(cd.reed_muller(1, 3).dual().generator,
                              cd.reed_muller(1, 3).generator)  # self-dual

    def test_hamming_dual_orthogonality(self, hamming7):
        dual = hamming7.dual()
        prod = (hamming7.generator @ dual.generator.T) % 2
        assert not prod.any()

    def test_family_dispatch(self):
        assert cd.family("repetition", [5]).k == 1
        assert cd.family("parity", [5]).k == 4
        assert cd.family("rm", [1, 4]).n == 16
        assert cd.family("golay23", None).k == 12
        with pytest.raises(ValueError):
            cd.family("turbo", [1])

    def test_random_linear_deterministic(self):
        a = cd.random_linear(10, 5, seed=7)
        b = cd.random_linear(10, 5, seed=7)
        assert np.array_equal(a.generator, b.generator)
        assert a.k == 5

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            cd.LinearCode(np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8))


class TestDistanceDistribution:
    def test_repetition3(self):
        assert cd.distance_distribution(cd.repetition(3)) == [1, 0, 0, 1]

    def test_full_space(self):
        dist = cd.distance_distribution(cd.full_space(4))
        assert dist == [math.comb(4, i) for i in range(5)]

    def test_golay_spot_values(self, golay):
        dist = cd.distance_distribution(golay)
        assert dist[0] == 1
        assert dist[7] == 253
        assert sum(dist) == golay.size

    def test_explicit_code_pair_normalization(self):
        # {000, 011, 101}: 9 ordered pairs, A_i = pair counts / 3
        code = cd.ExplicitCode(3, [0b000, 0b110, 0b101])
        dist = cd.distance_distribution(code)
        assert dist[0] == 1
        assert dist[2] == 2
        assert sum(dist) == code.size

    def test_mass_identity_random(self):
        rng = seeded_rng(30)
        for _ in range(10):
            code = random_linear_code(rng, 12)
            dist = cd.distance_distribution(code)
            assert dist[0] == 1
            assert sum(dist) == code.size
            assert all(v >= 0 for v in dist)

    def test_enumeration_budget(self):
        code = cd.random_linear(29, 27, seed=1)
        with pytest.raises(cd.BudgetExceeded):
            cd.distance_distribution(code)


class TestDualDistribution:
    def test_hamming_dual_is_simplex(self, hamming7):
        dist = cd.distance_distribution(hamming7)
        dual = cd.dual_distance_distribution(dist, hamming7.size)
        assert dual == [1, 0, 0, 0, 7, 0, 0, 0]
        # oracle: enumerate the dual code directly
        assert dual == cd.distance_distribution(hamming7.dual())

    def test_full_space_dual_is_origin(self):
        code = cd.full_space(5)
        dual = cd.dual_distance_distribution(
            cd.distance_distribution(code), code.size)
        assert dual == [1, 0, 0, 0, 0, 0]

    def test_involution(self):
        rng = seeded_rng(31)
        for _ in range(10):
            code = random_linear_code(rng, 14)
            dist = [Fraction(v) for v in cd.distance_distribution(code)]
            dual = cd.dual_distance_distribution(dist, code.size)
            back = cd.dual_distance_distribution(
                dual, (1 << code.n) // code.size)
            assert back == dist

    def test_transform_matches_dual_enumeration_50_codes(self):
        rng = seeded_rng(32)
        for _ in range(50):
            code = random_linear_code(rng, 16)
            dist = cd.distance_distribution(code)
            via_transform = cd.dual_distance_distribution(dist, code.size)
            via_enumeration = cd.distance_distribution(code.dual())
            assert via_transform == via_enumeration


class TestCoveringAndExternal:
    def test_hamming(self, hamming7):
        assert cd.covering_radius(hamming7) == 1
        assert cd.external_distance(hamming7) == 1

    def test_hamming5_reads_the_dual_words(self):
        # the 32 simplex words, where the distance distribution would
        # enumerate all 2^26 codewords
        assert cd.external_distance(cd.hamming(5)) == 1

    def test_golay_covering_radius(self, golay):
        assert cd.covering_radius(golay) == 3
        assert cd.external_distance(golay) == 3

    def test_repetition4(self):
        assert cd.covering_radius(cd.repetition(4)) == 2

    def test_covering_at_most_external(self):
        rng = seeded_rng(33)
        for _ in range(15):
            code = random_linear_code(rng, 10)
            assert cd.covering_radius(code) <= cd.external_distance(code)


class TestCodeFiles:
    def test_linear_roundtrip(self, tmp_path):
        code = cd.reed_muller(1, 3)
        path = tmp_path / "rm13.code"
        cd.save_code(path, code)
        text = path.read_text().splitlines()
        assert text[0] == "linear 8 4"
        loaded = cd.load_code(path)
        assert loaded.is_linear
        assert np.array_equal(loaded.generator, code.generator)

    def test_explicit_roundtrip(self, tmp_path):
        code = cd.ExplicitCode(5, [0, 3, 17, 30])
        path = tmp_path / "words.code"
        cd.save_code(path, code)
        assert path.read_text().splitlines()[0] == "explicit 5 4"
        loaded = cd.load_code(path)
        assert not loaded.is_linear
        assert list(loaded.codeword_ints()) == [0, 3, 17, 30]

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("linear 3\n")
        with pytest.raises(ValueError):
            cd.load_code(path)


class TestBallCode:
    def test_ball_code_words(self):
        code = cd.ball_code(5, 1)
        assert code.size == 6
        assert all(int(w).bit_count() <= 1 for w in code.codeword_ints())

    def test_subcode_relation(self):
        assert cd.reed_muller(1, 4).is_subcode_of(cd.reed_muller(2, 4))
        assert not cd.reed_muller(2, 4).is_subcode_of(cd.reed_muller(1, 4))
