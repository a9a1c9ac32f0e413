"""Binary codes: GF(2) linear algebra, standard families, distance spectra.

Linear codes carry a row-reduced generator matrix (numpy uint8).  Codewords
are materialized as integer arrays (coordinate i in bit i) by repeated
doubling; `hypercube.admit` refuses enumerations too large to hold.
A linear code also works on its 2^(n-k) cosets, indexed by syndrome: a
function whose transform vanishes off the dual code is read on them by one
transform of its values on the dual codewords (`cell_transform`); an
explicit code's cells are its points, and its `cell_transform` weighs the
values by W(1_C) first.  Both take exact integers or floats.
Distance distributions follow the pair-count normalization A_i =
#pairs-at-distance-i / |C|, which for linear codes is the weight
distribution of the code itself.
"""

from __future__ import annotations

import functools
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


def span(gens) -> np.ndarray:
    """XOR of every subset of the int words `gens`: entry a combines
    gens[j] for each set bit j of a (doubling enumeration)."""
    out = np.zeros(1 << len(gens), dtype=np.int64)
    for j, g in enumerate(gens):
        np.bitwise_xor(out[:1 << j], g, out=out[1 << j:2 << j])
    return out


def _check_length(n: int) -> None:
    if n > WORD_BITS:
        raise ValueError(f"code length {n} exceeds the {WORD_BITS} bits of a packed codeword")


class _Code:
    """Dense 2^n arrays over the codewords, shared by both representations,
    which also split the cube into `cells` (cosets of a linear code, points
    otherwise) on which `radial_counts` is constant; `cell_of` finds them."""

    transform_bytes = 0   # per cell, built by each `cell_transform` call

    def indicator(self) -> np.ndarray:
        """Dense int64 0/1 indicator of the code."""
        return self._on_codewords(1, np.int64)

    def pmf(self, exact: bool = False) -> np.ndarray:
        """Uniform code distribution as a dense pmf (float64 or Fractions)."""
        if exact:
            return self._on_codewords(Fraction(1, self.size), object)
        return self._on_codewords(1.0 / self.size, np.float64)

    def radial_counts(self, profiles) -> list[np.ndarray]:
        """Exact x -> sum_c p(|x^c|) on each cell, for integer profiles p
        (sum_i p(i) N_i(s) on coset s, with N_i(s) weight-i words): the cell
        transform of p's radial transform at |u|, over the number of cells."""
        weights = np.bitwise_count(self.spectrum_points())
        return [self.cell_transform(hc.int_array(hc.radial_transform(self.n, p))[weights],
                                    hc.radial_sum(self.n, [abs(v) for v in p]))
                >> self.cells.bit_length() - 1 for p in profiles]

    def cube_cells(self) -> np.ndarray:
        """The cell of every point, in point order: `cell_of` is linear over
        GF(2), so this is the span of the unit vectors' cells."""
        return span(self.cell_of(1 << np.arange(self.n)))

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
        self._cell_tables: list[np.ndarray] | None = None
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
            self._codewords = span(rows_to_ints(self.generator))
        return self._codewords

    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = np.bitwise_count(self.codeword_ints())
        return self._weights

    @property
    def cells(self) -> int:
        return 1 << (self.n - self.k)

    def cell_of(self, points) -> np.ndarray:
        """Syndrome of each point: bit j is its parity on row j of the dual
        generator.  Looked up 12 coordinates at a time in tables built on
        the first call and cached."""
        pts = np.asarray(points, dtype=np.int64)
        if self._cell_tables is None:
            cols = rows_to_ints(self.dual().generator.T)  # syndromes of unit vectors
            self._cell_tables = [span(cols[lo:lo + 12]) for lo in range(0, self.n, 12)]
        out = np.zeros(pts.shape, dtype=np.int64)
        for i, table in enumerate(self._cell_tables):
            out ^= table[(pts >> 12 * i) & 0xFFF]
        return out

    def code_cells(self) -> np.ndarray:
        return np.zeros(1, dtype=np.int64)   # every codeword lies in coset 0

    def spectrum_points(self) -> np.ndarray:
        return self.dual().codeword_ints()

    def dual_weights(self) -> list[int]:
        """The distinct nonzero weights of the dual codewords."""
        return [int(w) for w in np.unique(np.bitwise_count(self.spectrum_points())) if w]

    def cell_transform(self, values: np.ndarray, mass: int) -> np.ndarray:
        """s -> sum_a values[a] (-1)^{a.s} for values on the dual codewords
        (`spectrum_points()`, index bits = syndrome bits): 2^(n-k) times g on
        coset s, for g whose transform is `values` on the dual code and 0 off
        it; a float64 transform of float64 values, exact for integers with
        sum |g| <= mass (`hc.wht_exact`)."""
        return hc.wht_exact(values, mass << self.n - self.k)

    def contains(self, word: int) -> bool:
        return not self.cell_of(word)

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

    transform_bytes = 8   # W(1_C), one int64 per point, built by the first call

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

    @property
    def cells(self) -> int:
        return 1 << self.n

    def cell_of(self, points) -> np.ndarray:
        return np.asarray(points, dtype=np.int64)

    def code_cells(self) -> np.ndarray:
        return self.words

    def spectrum_points(self) -> np.ndarray:
        return np.arange(1 << self.n)

    def dual_weights(self) -> list[int]:
        """The distinct weights of the points u != 0 where W(1_C)(u) != 0:
        the support of the dual distance distribution, zero excluded."""
        return [int(w) for w in np.unique(np.bitwise_count(
            np.flatnonzero(self._indicator_spectrum))) if w]

    def cell_transform(self, values: np.ndarray, mass: int) -> np.ndarray:
        """x -> sum_u W(1_C)(u) values[u] (-1)^{u.x} = 2^n (1_C * g)(x) for g with
        transform `values`: a float64 transform of float64 values, exact for
        integers with sum |g| <= mass (`hc.wht_exact`).  Like the linear
        class, it may overwrite `values`."""
        if values.dtype == np.int64 and not hc._int64_exact(self.n, mass):
            values = values.astype(object)
        values *= self._indicator_spectrum
        return hc.wht_exact(values, mass << self.n)

    @functools.cached_property
    def _indicator_spectrum(self) -> np.ndarray:
        """W(1_C), read-only, built once per code: at most |C|, so exact in int64."""
        spectrum = hc._wht_inplace(self.indicator())
        spectrum.flags.writeable = False
        return spectrum

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
    for j, row in enumerate(hc.krawtchouk_matrix(n)):
        acc = sum(Fraction(dist[i]) * row[i] for i in range(n + 1))
        val = acc / size
        if val < 0:
            raise ValueError(f"dual spectrum entry A'_{j} = {val} is negative")
        out.append(val)
    return out


def covering_radius(code) -> int:
    """max_x min_c d(x, c): the depth of a breadth-first search over the
    cells of the code from those of the codewords (coset 0 of a linear
    code), each step adding the cell of one unit vector."""
    # the reached flags, then two int64 layers and one shifted copy at most
    hc.admit("covering radius sweep", nbytes=26 * code.cells)
    units, reached = code.cell_of(1 << np.arange(code.n)), np.zeros(code.cells, dtype=bool)
    layer, rho = code.code_cells(), -1
    reached[layer] = True
    while layer.size:
        rho, grown = rho + 1, []
        for unit in units:
            step = layer ^ unit
            step = step[~reached[step]]
            reached[step] = True
            grown.append(step)
        layer = np.concatenate(grown)
    return rho


def external_distance(code) -> int:
    """Number of nonzero weights in the dual spectrum (zero excluded)."""
    return len(code.dual_weights())


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
        mat = np.array([[int(c) for c in row] for row in rows], dtype=np.uint8)
        if kind == "linear":
            return LinearCode(mat)
        if kind == "explicit":
            return ExplicitCode(n, rows_to_ints(mat))
        raise ValueError(f"unknown code kind {kind!r}")
