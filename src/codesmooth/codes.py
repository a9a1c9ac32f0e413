"""Binary codes: GF(2) linear algebra, standard families, distance spectra.

Every code is a union of cosets of a linear code L, C = union_j (c_j + L):
a linear code is one coset, L itself, and an explicit word list takes
L = {0}.  L carries a row-reduced generator matrix (numpy uint8).
Codewords are materialized as integer arrays (coordinate i in bit i) by
repeated doubling; `hypercube.admit` refuses enumerations too large to
hold.  A code works on L's 2^(n-k) cosets, indexed by syndrome: a function
whose transform vanishes off L's dual is read on them by one transform of
its values on the dual words, weighed first by the character sum
chi(u) = sum_j (-1)^<u, c_j> unless the code is linear (`cell_transform`),
in exact integers or floats.  Distance distributions follow the pair-count
normalization A_i = #pairs-at-distance-i / |C|, which for linear codes is
the weight distribution of the code itself.
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
    """Row-reduced echelon form over GF(2); returns (rref, pivot columns).

    Works on one Python int per row, coordinate j in bit j.  Each row in
    turn is reduced by the basis so far, a word per pivot bit (its lowest
    set bit) that no other basis word holds; a nonzero remainder adds its
    lowest bit as a pivot and is XORed out of the basis words holding it.
    The basis in pivot order is the reduced echelon form, which is unique.
    """
    a = (np.asarray(mat) & 1).astype(np.uint8)
    _, cols = a.shape
    basis = {}
    for row in np.packbits(a, axis=1, bitorder="little").tolist():
        w = int.from_bytes(row, "little")
        for bit, v in basis.items():
            if w & bit:
                w ^= v
        if w:
            low = w & -w
            for bit, v in basis.items():
                if v & low:
                    basis[bit] = v ^ w
            basis[low] = w
    order = sorted(basis)
    width = (cols + 7) // 8
    packed = np.frombuffer(b"".join(basis[bit].to_bytes(width, "little") for bit in order),
                           dtype=np.uint8).reshape(len(order), width)
    return (np.unpackbits(packed, axis=1, count=cols, bitorder="little"),
            [bit.bit_length() - 1 for bit in order])


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


class Code:
    """A binary code C = union_j (c_j + L): the cosets of a linear code L,
    given by a generator (k x n, k = 0 allowed, kept row-reduced), through
    one representative c_j per coset, its word with zeros at L's pivots.
    `LinearCode` is the one coset L itself and `ExplicitCode` takes L = {0}.
    The cube splits into L's 2^(n-k) cosets, the `cells`, indexed by
    syndrome (`cell_of`), on each of which `radial_counts` and every noisy
    code distribution are constant."""

    def __init__(self, generator: np.ndarray, reps):
        gen = (np.asarray(generator) & 1).astype(np.uint8)
        if gen.ndim != 2:
            raise ValueError("generator must be a 2-D 0/1 matrix")
        if gen.shape[1] > WORD_BITS:
            raise ValueError(f"code length {gen.shape[1]} exceeds the {WORD_BITS} bits "
                             "of a packed codeword")
        rref, pivots = gf2_rref(gen)
        if rref.shape[0] != gen.shape[0]:
            raise ValueError("generator rows are linearly dependent")
        self.generator = rref
        self.pivots = pivots
        self.k, self.n = rref.shape
        ws = sorted(set(int(w) for w in reps))
        if not ws:
            raise ValueError("explicit code must be non-empty")
        if ws[0] < 0 or ws[-1] >= 1 << self.n:
            raise ValueError("codeword outside the cube")
        self.reps = np.array(ws, dtype=np.int64)
        if self.k and ws[-1]:   # a row of the reduced generator is the only one set at its pivot
            rows = rref.astype(np.int64) @ (1 << np.arange(self.n, dtype=np.int64))
            at_pivots = self.reps[:, None] >> pivots & 1
            self.reps = np.unique(self.reps ^ np.bitwise_xor.reduce(at_pivots * rows, axis=1))
        self.is_linear = self.reps.size == 1 and not self.reps[0]
        self.transform_bytes = 0 if self.is_linear else 8   # chi: one int64 per cell
        self._codewords: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self.rank_profile_cache: dict | None = None

    @property
    def size(self) -> int:
        return self.reps.size << self.k

    @property
    def rate(self) -> float:
        return math.log2(self.size) / self.n

    @property
    def cells(self) -> int:
        return 1 << (self.n - self.k)

    def require_linear(self, what: str) -> None:
        if not self.is_linear:
            raise ValueError(f"{what} needs a linear code, not {self!r}")

    def codeword_ints(self) -> np.ndarray:
        """All codewords as int64 values: each representative XOR the words
        of L (doubling enumeration)."""
        if self._codewords is None:
            hc.admit("codeword enumeration", nbytes=16 * self.size)
            words = span(rows_to_ints(self.generator))
            self._codewords = words if self.is_linear else (self.reps[:, None] ^ words).ravel()
        return self._codewords

    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = np.bitwise_count(self.codeword_ints())
        return self._weights

    def indicator(self) -> np.ndarray:
        """Dense int64 0/1 indicator of the code."""
        return self._on_codewords(1, np.int64)

    def pmf(self, exact: bool = False) -> np.ndarray:
        """Uniform code distribution as a dense pmf (float64 or Fractions)."""
        if exact:
            return self._on_codewords(Fraction(1, self.size), object)
        return self._on_codewords(1.0 / self.size, np.float64)

    def cell_of(self, points) -> np.ndarray:
        """Syndrome of each point: bit j is its parity on row j of L's dual
        generator.  Looked up 12 coordinates at a time in tables built on
        the first call and cached; the points themselves when L = {0}."""
        pts = np.asarray(points, dtype=np.int64)
        if not self.k:
            return pts
        out = np.zeros(pts.shape, dtype=np.int64)
        for i, table in enumerate(self._cell_tables):
            out ^= table[(pts >> 12 * i) & 0xFFF]
        return out

    @functools.cached_property
    def _cell_tables(self) -> list[np.ndarray]:
        cols = rows_to_ints(self._parity.generator.T)  # syndromes of unit vectors
        return [span(cols[lo:lo + 12]) for lo in range(0, self.n, 12)]

    def cube_cells(self) -> np.ndarray:
        """The cell of every point, in point order: `cell_of` is linear over
        GF(2), so this is the span of the unit vectors' cells."""
        return span(self.cell_of(1 << np.arange(self.n)))

    def spectrum_points(self) -> np.ndarray:
        """The words of L's dual, on which the code's transform lives: every
        point when L = {0}, enumerated per call rather than held."""
        return self._parity.codeword_ints() if self.k else np.arange(self.cells)

    def spectrum_support(self) -> np.ndarray:
        """The nonzero words of L's dual where chi != 0: off 0, the support
        of the code's transform."""
        points = self.spectrum_points()
        points = points if self.is_linear else points[self._characters != 0]
        return points[points != 0]

    def dual_weights(self) -> list[int]:
        """The distinct weights of `spectrum_support`."""
        return np.unique(np.bitwise_count(self.spectrum_support())).tolist()

    def cell_transform(self, values: np.ndarray, mass: int) -> np.ndarray:
        """s -> sum_a chi(a) values[a] (-1)^{a.s} for values on L's dual words
        (`spectrum_points()`, index bits = syndrome bits) and chi = 1 on a
        linear code: 2^(n-k) times (1_C * g) on coset s, for g whose
        transform is `values` on L's dual and 0 off it; a float64 transform
        of float64 values, exact for integers with sum |g| <= mass
        (`hc.wht_exact`).  It may overwrite `values`."""
        if not self.is_linear:
            if values.dtype == np.int64 and not hc._int64_exact(self.n - self.k, mass):
                values = values.astype(object)
            values *= self._characters
        return hc.wht_exact(values, mass << self.n - self.k)

    @functools.cached_property
    def _characters(self) -> np.ndarray:
        """chi(a) = sum_j (-1)^{a.s_j} over the cells s_j of the representatives,
        the transform of their cell counts (W(1_C) when L = {0}), read-only,
        built once per code: at most J, so exact in int64."""
        hc.admit("character sum", nbytes=8 * self.cells)
        chi = hc._wht_inplace(np.bincount(self.cell_of(self.reps), minlength=self.cells))
        chi.flags.writeable = False
        return chi

    def radial_counts(self, profiles) -> list[np.ndarray]:
        """Exact x -> sum_c p(|x^c|) on each cell, for integer profiles p
        (sum_i p(i) N_i(s) on coset s, with N_i(s) weight-i words): the cell
        transform of p's radial transform at |u|, over the number of cells."""
        weights = np.bitwise_count(self.spectrum_points())
        return [self.cell_transform(hc.int_array(hc.radial_transform(self.n, p))[weights],
                                    hc.radial_sum(self.n, [abs(v) for v in p]))
                >> self.cells.bit_length() - 1 for p in profiles]

    def contains(self, word: int) -> bool:
        return self.cell_of(word) in self.cell_of(self.reps)

    def is_subcode_of(self, other: "Code") -> bool:
        """Containment of one linear code in another: every row of the
        generator has syndrome 0."""
        return self.n == other.n and not other.cell_of(rows_to_ints(self.generator)).any()

    def dual(self) -> "Code":
        self.require_linear("the dual code")
        return self._parity

    @functools.cached_property
    def _parity(self) -> "Code":
        """L's dual, from the pivot structure of the RREF generator."""
        free = [c for c in range(self.n) if c not in self.pivots]
        h = np.zeros((len(free), self.n), dtype=np.uint8)
        h[np.arange(len(free)), free] = 1
        h[:, self.pivots] = self.generator[:, free].T
        return LinearCode(h)

    def _on_codewords(self, value, dtype) -> np.ndarray:
        hc.admit("dense code array", nbytes=8 << self.n)
        words = self.codeword_ints()
        out = np.empty(1 << self.n, dtype=dtype)
        out.fill(Fraction(0) if dtype is object else 0)
        out[words] = value
        return out

    def __repr__(self):
        if self.is_linear:
            return f"LinearCode(n={self.n}, k={self.k})"
        if not self.k:
            return f"ExplicitCode(n={self.n}, size={self.size})"
        return f"Code(n={self.n}, k={self.k}, cosets={self.reps.size})"


def LinearCode(generator: np.ndarray) -> Code:
    """An [n, k] binary linear code: one coset, L itself."""
    return Code(generator, [0])


def ExplicitCode(n: int, words) -> Code:
    """A code given by an explicit list of codewords (not necessarily
    linear): L = {0}, so every word is its own coset."""
    return Code(np.zeros((0, n), dtype=np.uint8), words)


def ball_code(n: int, t: int) -> Code:
    """All words of weight <= t: the metric ball around zero as a code."""
    wt = hc.weights_table(n)
    return ExplicitCode(n, np.nonzero(wt <= t)[0])


# ---------------------------------------------------------------------------
# Standard families
# ---------------------------------------------------------------------------

def repetition(n: int) -> Code:
    return LinearCode(np.ones((1, n), dtype=np.uint8))


def parity(n: int) -> Code:
    g = np.zeros((n - 1, n), dtype=np.uint8)
    for i in range(n - 1):
        g[i, i] = 1
        g[i, n - 1] = 1
    return LinearCode(g)


def full_space(n: int) -> Code:
    return LinearCode(np.eye(n, dtype=np.uint8))


def hamming(m: int) -> Code:
    """The [2^m - 1, 2^m - 1 - m] Hamming code."""
    n = (1 << m) - 1
    h = np.zeros((m, n), dtype=np.uint8)
    for col in range(1, n + 1):
        for bit in range(m):
            h[bit, col - 1] = (col >> bit) & 1
    return LinearCode(h).dual()


def reed_muller(r: int, m: int) -> Code:
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

def golay23() -> Code:
    """The perfect [23, 12, 7] binary Golay code (cyclic construction)."""
    rows = np.zeros((12, 23), dtype=np.uint8)
    for i in range(12):
        for j in range(12):
            rows[i, i + j] = (_GOLAY23_GEN_POLY >> j) & 1
    return LinearCode(rows)


def random_linear(n: int, k: int, seed: int) -> Code:
    """A uniformly random [n, k] code (resampled until full rank)."""
    if not 0 < k <= n:
        raise ValueError(f"invalid parameters n={n}, k={k}")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x0C0DE5]))
    while True:
        g = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
        if gf2_rank(g) == k:
            return LinearCode(g)


def family(name: str, params) -> Code:
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
    """A_i = #{pairs at distance i} / |C|: by the L-invariance of C, the
    weights of C seen from each representative, over J.  So a linear code
    reads its 2^k weight counts, and L = {0} the J^2 pairs of points.

    Entries are Python ints for linear codes and Fractions in general.
    """
    m = code.reps.size
    hc.admit("distance distribution", nbytes=(9 * m + 8) * code.size)
    weights = code.weights() if code.is_linear else \
        np.bitwise_count(code.reps[:, None] ^ code.codeword_ints())
    counts = np.bincount(weights.ravel(), minlength=code.n + 1)
    return [int(c) if m == 1 else Fraction(int(c), m) for c in counts]


def dual_distance_distribution(dist, size: int) -> list[Fraction]:
    """Weight-transform dual spectrum A'_j = (1/|C|) sum_i A_i K_j(i).

    As C(n,i) K_j(i) = C(n,j) K_i(j), this is C(n,j) / |C| times the
    radial transform of A_i / C(n,i) at j.  Exact in rationals; negative
    outputs flag an inconsistent input distribution and raise.
    """
    n = len(dist) - 1
    per = hc.radial_transform(n, [Fraction(a) / math.comb(n, i) for i, a in enumerate(dist)])
    out = []
    for j, acc in enumerate(per):
        val = acc * Fraction(math.comb(n, j), size)
        if val < 0:
            raise ValueError(f"dual spectrum entry A'_{j} = {val} is negative")
        out.append(val)
    return out


def covering_radius(code) -> int:
    """max_x min_c d(x, c): the depth of a breadth-first search over the
    cells of the code from those of its representatives (coset 0 of a
    linear code), each step adding the cell of one unit vector."""
    # the reached flags, then two int64 layers and one shifted copy at most
    hc.admit("covering radius sweep", nbytes=26 * code.cells)
    units, reached = code.cell_of(1 << np.arange(code.n)), np.zeros(code.cells, dtype=bool)
    layer, rho = code.cell_of(code.reps), -1
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
    """Line-oriented text format, diffable for golden-file fixtures: the
    generator of a linear code, the sorted codewords of any other."""
    with open(path, "w") as fh:
        if code.is_linear:
            fh.write(f"linear {code.n} {code.k}\n")
            for row in code.generator:
                fh.write("".join(str(int(b)) for b in row) + "\n")
        else:
            fh.write(f"explicit {code.n} {code.size}\n")
            for w in np.sort(code.codeword_ints()):
                fh.write("".join(str((int(w) >> j) & 1) for j in range(code.n)) + "\n")


def load_code(path: str) -> Code:
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
            return LinearCode(mat.reshape(count, n))
        if kind == "explicit":
            return ExplicitCode(n, rows_to_ints(mat))
        raise ValueError(f"unknown code kind {kind!r}")
