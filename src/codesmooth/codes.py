"""Binary codes: GF(2) linear algebra, standard families, distance spectra.

Linear codes carry a row-reduced generator matrix (numpy uint8).  Codewords
are materialized as integer arrays (coordinate i in bit i) by repeated
doubling; `hypercube.admit` refuses enumerations too large to hold.
Distance distributions follow the pair-count normalization A_i =
#pairs-at-distance-i / |C|, which for linear codes is the weight
distribution of the code itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import hypercube as hc
from .hypercube import BudgetExceeded  # noqa: F401  (re-exported)

WORD_BITS = 62   # codewords are int64 words, and 2^n must fit one too


# ---------------------------------------------------------------------------
# GF(2) matrix helpers
# ---------------------------------------------------------------------------

def gf2_rref(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form over GF(2); returns (rref, pivot columns)."""
    a = (np.asarray(mat) & 1).astype(np.uint8).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def gf2_rank(mat: np.ndarray) -> int:
    return len(gf2_rref(mat)[1])


def rows_to_ints(mat: np.ndarray) -> list[int]:
    """Pack matrix rows into ints, coordinate j in bit j."""
    return [int(sum(int(b) << j for j, b in enumerate(row))) for row in mat]


def int_to_row(x: int, n: int) -> np.ndarray:
    return np.array([(x >> j) & 1 for j in range(n)], dtype=np.uint8)


def _check_length(n: int) -> None:
    if n > WORD_BITS:
        raise ValueError(f"code length {n} exceeds the {WORD_BITS} bits of a packed codeword")


class _Code:
    """Dense 2^n arrays over the codewords, shared by both representations."""

    def indicator(self) -> np.ndarray:
        """Dense int64 0/1 indicator of the code."""
        return self._on_codewords(1, np.int64)

    def pmf(self, exact: bool = False) -> np.ndarray:
        """Uniform code distribution as a dense pmf (float64 or Fractions)."""
        if exact:
            return self._on_codewords(Fraction(1, self.size), object)
        return self._on_codewords(1.0 / self.size, np.float64)

    def _on_codewords(self, value, dtype) -> np.ndarray:
        hc.admit("dense code array", nbytes=8 << self.n)
        words = self.codeword_ints()
        out = np.empty(1 << self.n, dtype=dtype)
        out.fill(Fraction(0) if dtype is object else 0)
        out[words] = value
        return out


class LinearCode(_Code):
    """An [n, k] binary linear code with a row-reduced generator."""

    def __init__(self, generator: np.ndarray):
        gen = (np.asarray(generator) & 1).astype(np.uint8)
        if gen.ndim != 2:
            raise ValueError("generator must be a 2-D 0/1 matrix")
        _check_length(gen.shape[1])
        rref, pivots = gf2_rref(gen)
        if rref.shape[0] != gen.shape[0]:
            raise ValueError("generator rows are linearly dependent")
        self.generator = rref
        self.pivots = pivots
        self.k, self.n = rref.shape
        self._codewords: np.ndarray | None = None
        self._dual: LinearCode | None = None
        self._weights: np.ndarray | None = None
        self.rank_profile_cache: dict | None = None

    @property
    def size(self) -> int:
        return 1 << self.k

    @property
    def rate(self) -> float:
        return self.k / self.n

    def codeword_ints(self) -> np.ndarray:
        """All 2^k codewords as int64 values (doubling enumeration)."""
        if self._codewords is None:
            hc.admit("codeword enumeration", nbytes=16 << self.k)
            cw = np.zeros(1, dtype=np.int64)
            for r in rows_to_ints(self.generator):
                cw = np.concatenate([cw, cw ^ r])
            self._codewords = cw
        return self._codewords

    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = np.bitwise_count(self.codeword_ints())
        return self._weights

    def contains(self, word: int) -> bool:
        v = int_to_row(word, self.n)
        stacked = np.vstack([self.generator, v])
        return gf2_rank(stacked) == self.k

    def is_subcode_of(self, other: "LinearCode") -> bool:
        if self.n != other.n:
            return False
        stacked = np.vstack([other.generator, self.generator])
        return gf2_rank(stacked) == other.k

    def dual(self) -> "LinearCode":
        """Parity-check dual from the pivot structure of the RREF generator."""
        if self._dual is None:
            n, k = self.n, self.k
            piv = self.pivots
            free = [c for c in range(n) if c not in piv]
            h = np.zeros((n - k, n), dtype=np.uint8)
            for idx, c in enumerate(free):
                h[idx, c] = 1
                for r, pc in enumerate(piv):
                    h[idx, pc] = self.generator[r, c]
            self._dual = LinearCode(h) if n > k else LinearCode(np.zeros((0, n), np.uint8))
        return self._dual

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k})"


class ExplicitCode(_Code):
    """A code given by an explicit list of codewords (not necessarily linear)."""

    def __init__(self, n: int, words):
        _check_length(n)
        ws = sorted(set(int(w) for w in words))
        if not ws:
            raise ValueError("explicit code must be non-empty")
        if ws[0] < 0 or ws[-1] >= 1 << n:
            raise ValueError("codeword outside the cube")
        self.n = n
        self.words = np.array(ws, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def rate(self) -> float:
        return math.log2(self.size) / self.n

    def codeword_ints(self) -> np.ndarray:
        return self.words

    def __repr__(self):
        return f"ExplicitCode(n={self.n}, size={self.size})"


def ball_code(n: int, t: int) -> ExplicitCode:
    """All words of weight <= t: the metric ball around zero as a code."""
    wt = hc.weights_table(n)
    return ExplicitCode(n, np.nonzero(wt <= t)[0])


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def repetition(n: int) -> LinearCode:
    return LinearCode(np.ones((1, n), dtype=np.uint8))


def parity(n: int) -> LinearCode:
    g = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        g[i, i] = 1
        g[i, n - 1] = 1
    return LinearCode(g)


def full_space(n: int) -> LinearCode:
    return LinearCode(np.eye(n, dtype=np.uint8))


def hamming(m: int) -> LinearCode:
    """The [2^m - 1, 2^m - 1 - m] Hamming code."""
    n = (1 << m) - 1
    h = np.zeros((m, n), dtype=np.uint8)
    for col in range(1, n + 1):
        for bit in range(m):
            h[bit, col - 1] = (col >> bit) & 1
    return LinearCode(h).dual()


def reed_muller(r: int, m: int) -> LinearCode:
    """RM(r, m): evaluations of degree-<=r monomials on {0,1}^m."""
    if not 0 <= r <= m:
        raise ValueError(f"invalid Reed-Muller order r={r}, m={m}")
    n = 1 << m
    pts = [[(x >> j) & 1 for j in range(m)] for x in range(n)]
    rows = []
    from itertools import combinations
    for deg in range(r + 1):
        for subset in combinations(range(m), deg):
            rows.append([int(all(p[j] for j in subset)) for p in pts])
    return LinearCode(np.array(rows, dtype=np.uint8))


_GOLAY23_GEN_POLY = 0b101011100011  # x^11+x^9+x^7+x^6+x^5+x+1

def golay23() -> LinearCode:
    """The perfect [23, 12, 7] binary Golay code (cyclic construction)."""
    rows = np.zeros((12, 23), dtype=np.uint8)
    for i in range(12):
        for j in range(12):
            rows[i, i + j] = (_GOLAY23_GEN_POLY >> j) & 1
    return LinearCode(rows)


def random_linear(n: int, k: int, seed: int) -> LinearCode:
    """A uniformly random [n, k] code (resampled until full rank)."""
    if not 0 < k <= n:
        raise ValueError(f"invalid parameters n={n}, k={k}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x0C0DE5]))
    while True:
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2_rank(g) == k:
            return LinearCode(g)


def family(name: str, params) -> LinearCode:
    """Construct a named family member: hamming(m), golay23, repetition(n),
    parity(n), reed_muller(r, m), random_linear(n, k, seed)."""
    name = name.lower()
    p = list(params) if params is not None else []
    if name == "hamming":
        return hamming(*p)
    if name == "golay23":
        return golay23()
    if name == "repetition":
        return repetition(*p)
    if name == "parity":
        return parity(*p)
    if name in ("reed_muller", "rm"):
        return reed_muller(*p)
    if name == "random_linear":
        return random_linear(*p)
    if name in ("full", "full_space"):
        return full_space(*p)
    raise ValueError(f"unknown code family {name!r}")


# ---------------------------------------------------------------------------
# Distance distributions
# ---------------------------------------------------------------------------

def distance_distribution(code) -> list:
    """A_i = #{pairs at distance i} / |C|; weight counts for linear codes.

    Entries are Python ints for linear codes and Fractions in general.
    """
    if isinstance(code, LinearCode):
        hc.admit("distance distribution", nbytes=17 << code.k)
        counts = np.bincount(code.weights(), minlength=code.n + 1)
        return [int(c) for c in counts]
    words = code.codeword_ints()
    m = len(words)
    hc.admit("pairwise distance enumeration", nbytes=9 * m * m)
    diffs = words[:, None] ^ words[None, :]
    wt = np.bitwise_count(diffs)
    counts = np.bincount(wt.ravel(), minlength=code.n + 1)
    return [Fraction(int(c), m) for c in counts]


def dual_distance_distribution(dist, size: int) -> list[Fraction]:
    """Weight-transform dual spectrum A'_j = (1/|C|) sum_i A_i K_j(i).

    Exact in rationals; negative outputs flag an inconsistent input
    distribution and raise.
    """
    n = len(dist) - 1
    out = []
    for j in range(n + 1):
        row = hc.krawtchouk_row(n, j)
        acc = sum(Fraction(dist[i]) * row[i] for i in range(n + 1))
        val = acc / size
        if val < 0:
            raise ValueError(f"dual spectrum entry A'_{j} = {val} is negative")
        out.append(val)
    return out


def covering_radius(code) -> int:
    """max_x min_c d(x, c) by breadth-first expansion over the full cube."""
    n = code.n
    hc.admit("covering radius sweep", nbytes=3 << n)
    covered = np.zeros(1 << n, dtype=bool)
    covered[code.codeword_ints()] = True
    rho = 0
    while not covered.all():
        grown = covered.copy()
        for i in range(n):
            grown |= covered.reshape(-1, 2, 1 << i)[:, ::-1, :].reshape(-1)
        covered = grown
        rho += 1
    return rho


def external_distance(code) -> int:
    """Number of nonzero weights in the dual spectrum (zero excluded)."""
    dist = distance_distribution(code)
    dual = dual_distance_distribution(dist, code.size)
    return sum(1 for j in range(1, len(dual)) if dual[j] != 0)


# ---------------------------------------------------------------------------
# Code file I/O
# ---------------------------------------------------------------------------

def save_code(path: str, code) -> None:
    """Line-oriented text format, diffable for golden-file fixtures."""
    with open(path, "w") as fh:
        if isinstance(code, LinearCode):
            fh.write(f"linear {code.n} {code.k}\n")
            for row in code.generator:
                fh.write("".join(str(int(b)) for b in row) + "\n")
        else:
            fh.write(f"explicit {code.n} {code.size}\n")
            for w in code.codeword_ints():
                fh.write("".join(str((int(w) >> j) & 1) for j in range(code.n)) + "\n")


def load_code(path: str):
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed code file header in {path}")
        kind, n, count = header[0], int(header[1]), int(header[2])
        rows = []
        for line in fh:
            line = line.strip()
            if line:
                rows.append(line)
        if len(rows) != count:
            raise ValueError(f"expected {count} rows, found {len(rows)}")
        if kind == "linear":
            mat = np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)
            return LinearCode(mat)
        if kind == "explicit":
            words = [sum(int(c) << j for j, c in enumerate(row)) for row in rows]
            return ExplicitCode(n, words)
        raise ValueError(f"unknown code kind {kind!r}")
