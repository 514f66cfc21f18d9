"""Double sequences on the quarter-plane grid.

A double sequence is one evaluation rule over non-negative integer indices:
normally a vectorised `grid_rule` that fills [0, M] x [0, N].  Nothing here
ever materialises an infinite object: every operation takes an explicit
finite Window or Truncation.  Grids are cached per sequence, grow-only, and
point queries and window means read that cache, so an index has one value
however it is reached.

The module also ships a small corpus of named witness sequences that the rest
of the package (and its test battery) leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

__all__ = [
    "Index",
    "Window",
    "Truncation",
    "DoubleSequence",
    "PartialSumGrid",
    "from_array",
    "sup_abs",
    "window_mean",
    "abs_window_mean",
    "norm_Cf",
    "norm_strong",
    "lq_norm",
    "partial_sums",
    "corpus",
    "corpus_names",
]


@dataclass(frozen=True)
class Index:
    """A grid position; both coordinates are non-negative integers."""

    k: int
    l: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0:
            raise ValueError(f"Index coordinates must be non-negative, got ({self.k}, {self.l})")


@dataclass(frozen=True)
class Window:
    """Rectangular averaging window: rows m..m+q, columns n..n+qp (inclusive)."""

    m: int
    n: int
    q: int
    qp: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("window base must be non-negative")
        if self.q < 0 or self.qp < 0:
            raise ValueError("window extents must be non-negative")

    @property
    def cardinality(self) -> int:
        return (self.q + 1) * (self.qp + 1)


@dataclass(frozen=True)
class Truncation:
    """Finite grid [0, M] x [0, N], both bounds inclusive."""

    M: int
    N: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1:
            raise ValueError("truncation bounds must be at least 1")

    @property
    def cell_count(self) -> int:
        return (self.M + 1) * (self.N + 1)


@dataclass(frozen=True, eq=False)
class DoubleSequence:
    """A lazily evaluated double sequence.

    `grid_rule(M, N)` returns the values on [0, M] x [0, N]; `grid` caches
    them grow-only, and a point query `x(k, l)` reads that cache.  A sequence
    given only a scalar `rule(k, l)` fills its grid cell by cell.  When both
    are given, point queries use `rule` and grids use `grid_rule`.
    """

    rule: Optional[Callable[[int, int], float]] = None
    name: str = ""
    description: str = ""
    grid_rule: Optional[Callable[[int, int], np.ndarray]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.rule is None and self.grid_rule is None:
            raise ValueError(f"sequence {self.name!r} needs a rule or a grid_rule")

    def __call__(self, k: int, l: int) -> float:
        if k < 0 or l < 0:
            raise ValueError("sequence indices must be non-negative")
        if self.rule is None:
            return float(self.grid(k, l)[k, l])
        return float(self.rule(k, l))

    def grid(self, M: int, N: int) -> np.ndarray:
        """Values on [0, M] x [0, N] as a float array of shape (M+1, N+1)."""
        cached = self._cache.get("grid")
        if cached is not None and cached.shape[0] >= M + 1 and cached.shape[1] >= N + 1:
            return cached[: M + 1, : N + 1]
        bm = max(M, cached.shape[0] - 1) if cached is not None else M
        bn = max(N, cached.shape[1] - 1) if cached is not None else N
        if self.grid_rule is not None:
            g = np.asarray(self.grid_rule(bm, bn), dtype=float)
            if g.shape != (bm + 1, bn + 1):
                raise ValueError(f"grid_rule returned shape {g.shape}, expected {(bm + 1, bn + 1)}")
        else:
            g = np.empty((bm + 1, bn + 1), dtype=float)
            for k in range(bm + 1):
                for l in range(bn + 1):
                    g[k, l] = self.rule(k, l)
        self._cache["grid"] = g
        return g[: M + 1, : N + 1]


def from_array(values, name: str = "array") -> DoubleSequence:
    """Wrap a finite 2-D array as a sequence; indexing past it is an error."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("from_array expects a 2-D array")

    def grid_rule(M: int, N: int) -> np.ndarray:
        if M + 1 > arr.shape[0] or N + 1 > arr.shape[1]:
            raise ValueError(
                f"array-backed sequence of shape {arr.shape} cannot cover truncation ({M}, {N})"
            )
        return arr[: M + 1, : N + 1]

    return DoubleSequence(name=name, grid_rule=grid_rule)


# ---------------------------------------------------------------------------
# prefix-sum plumbing shared by the window scans

def padded_prefix(grid: np.ndarray) -> np.ndarray:
    """Zero-padded 2-D inclusive prefix sums: P[i, j] = sum(grid[:i, :j])."""
    P = np.zeros((grid.shape[0] + 1, grid.shape[1] + 1), dtype=float)
    P[1:, 1:] = grid.cumsum(axis=0).cumsum(axis=1)
    return P

def window_sum_table(P: np.ndarray, q: int, qp: int) -> np.ndarray:
    """All window sums of extent (q, qp): entry [m, n] covers rows m..m+q, cols n..n+qp.

    P is a padded prefix table for a grid of shape (R, C); the result has shape
    (R - q, C - qp).
    """
    R, C = P.shape[0] - 1, P.shape[1] - 1
    if q >= R or qp >= C:
        raise ValueError("window does not fit inside the grid")
    h, w = q + 1, qp + 1
    return (
        P[h : R + 1, w : C + 1]
        - P[0 : R + 1 - h, w : C + 1]
        - P[h : R + 1, 0 : C + 1 - w]
        + P[0 : R + 1 - h, 0 : C + 1 - w]
    )


# ---------------------------------------------------------------------------
# point statistics and norms

def sup_abs(x: DoubleSequence, tr: Truncation) -> float:
    """max |x| over the truncated grid."""
    return float(np.max(np.abs(x.grid(tr.M, tr.N))))


def _window_values(x: DoubleSequence, w: Window) -> list:
    # row-major, read from the cached grid
    return x.grid(w.m + w.q, w.n + w.qp)[w.m :, w.n :].ravel().tolist()


def window_mean(x: DoubleSequence, w: Window) -> float:
    """Arithmetic mean of x over the window, summed in row-major order."""
    # a plain running sum: np.sum is pairwise and sum() is compensated on
    # Python >= 3.12, and either would change the low bits
    total = 0.0
    for v in _window_values(x, w):
        total += v
    return total / w.cardinality


def abs_window_mean(x: DoubleSequence, w: Window, L: float = 0.0) -> float:
    """Mean of |x - L| over the window (the strong-mean building block)."""
    total = 0.0
    for v in _window_values(x, w):
        total += abs(v - L)
    return total / w.cardinality


def _sup_over_windows(grid: np.ndarray) -> float:
    """sup of |window mean| over every window inside the grid.

    A non-finite cell is refused: every window holding it would have no
    finite mean, and the sup over the rest would not be the norm.
    """
    bad = np.argwhere(~np.isfinite(grid))
    if len(bad):
        k, l = bad[0]
        raise ValueError(f"the window norms need finite values; the grid has {grid[k, l]} at ({k}, {l})")
    P = padded_prefix(grid)
    R, C = grid.shape
    best = -1.0
    for q in range(R):
        for qp in range(C):
            means = np.abs(window_sum_table(P, q, qp)) / ((q + 1) * (qp + 1))
            best = max(best, float(means.max()))
    return best


def norm_Cf(x: DoubleSequence, tr: Truncation) -> float:
    """sup over all windows inside tr of |window mean of x|."""
    return _sup_over_windows(x.grid(tr.M, tr.N))


def norm_strong(x: DoubleSequence, tr: Truncation) -> float:
    """sup over all windows inside tr of the window mean of |x|."""
    return _sup_over_windows(np.abs(x.grid(tr.M, tr.N)))


def lq_norm(x: DoubleSequence, tr: Truncation, q: float) -> float:
    """(sum over the grid of |x|^q)^(1/q); requires q >= 1."""
    if q < 1:
        raise ValueError(f"lq_norm requires q >= 1, got {q}")
    g = np.abs(x.grid(tr.M, tr.N))
    if q == 1:
        return float(g.sum())
    return float((g ** q).sum() ** (1.0 / q))


@dataclass(frozen=True, eq=False)
class PartialSumGrid:
    """Rectangular partial sums s[m, n] = sum of x over [0, m] x [0, n]."""

    source: DoubleSequence
    _cache: dict = field(default_factory=dict, repr=False)

    def array(self, M: int, N: int) -> np.ndarray:
        cached = self._cache.get("arr")
        if cached is not None and cached.shape[0] >= M + 1 and cached.shape[1] >= N + 1:
            return cached[: M + 1, : N + 1]
        g = self.source.grid(M, N)
        arr = g.cumsum(axis=0).cumsum(axis=1)
        self._cache["arr"] = arr
        return arr

    def value(self, m: int, n: int) -> float:
        return float(self.array(m, n)[m, n])

    def second_difference(self, m: int, n: int) -> float:
        """Recovers the source entry at (m, n) from the four surrounding sums."""
        s = self.array(m, n)
        v = s[m, n]
        if m > 0:
            v = v - s[m - 1, n]
        if n > 0:
            v = v - s[m, n - 1]
        if m > 0 and n > 0:
            v = v + s[m - 1, n - 1]
        return float(v)


def partial_sums(x: DoubleSequence) -> PartialSumGrid:
    return PartialSumGrid(source=x)


# ---------------------------------------------------------------------------
# witness corpus

def _require_params(name: str, params):
    if params is None:
        raise ValueError(f"corpus entry {name!r} needs band parameters (r, s, t, u)")
    return params


def _seq_e() -> DoubleSequence:
    return DoubleSequence(
        name="e",
        description="constant one",
        grid_rule=lambda M, N: np.ones((M + 1, N + 1)),
    )


def _seq_zero() -> DoubleSequence:
    return DoubleSequence(
        name="zero",
        description="constant zero",
        grid_rule=lambda M, N: np.zeros((M + 1, N + 1)),
    )


def _seq_impulse() -> DoubleSequence:
    def grid_rule(M, N):
        g = np.zeros((M + 1, N + 1))
        g[0, 0] = 1.0
        return g

    return DoubleSequence(
        name="impulse",
        description="unit impulse at the origin",
        grid_rule=grid_rule,
    )


def _seq_boos() -> DoubleSequence:
    # Unbounded along row zero, identically zero elsewhere.
    def grid_rule(M, N):
        g = np.zeros((M + 1, N + 1))
        g[0, :] = np.arange(N + 1, dtype=float)
        return g

    return DoubleSequence(
        name="boos",
        description="row zero counts its column index, all other rows vanish",
        grid_rule=grid_rule,
    )


def _seq_alt_col() -> DoubleSequence:
    def grid_rule(M, N):
        row = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)
        return np.tile(row, (M + 1, 1))

    return DoubleSequence(
        name="alt-col",
        description="alternating sign down the columns, constant along rows",
        grid_rule=grid_rule,
    )


def _seq_checkerboard() -> DoubleSequence:
    def grid_rule(M, N):
        k = np.arange(M + 1)[:, None]
        l = np.arange(N + 1)[None, :]
        return np.where((k + l) % 2 == 0, 1.0, 0.0)

    return DoubleSequence(
        name="checkerboard",
        description="one on even parity cells, zero on odd",
        grid_rule=grid_rule,
    )


def _seq_k_over_rt(params) -> DoubleSequence:
    rt = params.r * params.t

    def grid_rule(M, N):
        col = np.arange(M + 1, dtype=float) / rt
        return np.tile(col[:, None], (1, N + 1))

    return DoubleSequence(
        name="k-over-rt",
        description="row index scaled by 1/(r*t)",
        grid_rule=grid_rule,
    )


def _seq_alt_k_over_rt(params) -> DoubleSequence:
    rt = params.r * params.t

    def grid_rule(M, N):
        k = np.arange(M + 1, dtype=float)[:, None]
        sign = np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)[None, :]
        return k * sign / rt

    return DoubleSequence(
        name="alt-k-over-rt",
        description="row index with alternating column sign, scaled by 1/(r*t)",
        grid_rule=grid_rule,
    )


def _seq_alt_col_preimage(params) -> DoubleSequence:
    # The sequence whose banded forward transform is the alternating-column
    # sequence: geometric back-substitution of (-1)^l.
    sigma, tau = params.sigma, params.tau
    rt = params.r * params.t

    def grid_rule(M, N):
        y = np.tile(np.where(np.arange(N + 1) % 2 == 0, 1.0, -1.0)[None, :], (M + 1, 1))
        acc = np.empty_like(y)
        acc[0, :] = y[0, :]
        for k in range(1, M + 1):
            acc[k, :] = y[k, :] + sigma * acc[k - 1, :]
        out = np.empty_like(acc)
        out[:, 0] = acc[:, 0]
        for l in range(1, N + 1):
            out[:, l] = acc[:, l] + tau * out[:, l - 1]
        return out / rt

    return DoubleSequence(
        name="alt-col-preimage",
        description="preimage of the alternating-column sequence under the banded transform",
        grid_rule=grid_rule,
    )


_PLAIN = {
    "e": _seq_e,
    "zero": _seq_zero,
    "impulse": _seq_impulse,
    "boos": _seq_boos,
    "alt-col": _seq_alt_col,
    "checkerboard": _seq_checkerboard,
}

_PARAMETRIC = {
    "k-over-rt": _seq_k_over_rt,
    "alt-k-over-rt": _seq_alt_k_over_rt,
    "alt-col-preimage": _seq_alt_col_preimage,
}


def corpus_names() -> list[str]:
    return sorted([*_PLAIN, *_PARAMETRIC])


def corpus(name: str, params=None) -> DoubleSequence:
    """Fetch a named witness sequence.

    Entries that depend on the band parameters (r, s, t, u) require `params`
    (any object with r, s, t, u, sigma, tau attributes, see matrix4d.BParams).
    """
    if name in _PLAIN:
        return _PLAIN[name]()
    if name in _PARAMETRIC:
        return _PARAMETRIC[name](_require_params(name, params))
    raise ValueError(f"unknown corpus entry {name!r}; known: {', '.join(corpus_names())}")
