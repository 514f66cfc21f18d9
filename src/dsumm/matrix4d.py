"""Four-dimensional matrix kernels and the banded difference transform.

A four-dimensional matrix is a pure rule (m, n, k, l) -> float; row (m, n)
acts on a double sequence by summing a_{mnkl} x_{kl} over the column pair
(k, l).  The central objects are the banded kernel built from four nonzero
reals (r, s, t, u), its triangular inverse, and three derived kernels used
by the duality and class-characterization checks:

  * the band places su, st, ru, rt at columns (m-1, n-1), (m-1, n),
    (m, n-1), (m, n) and is zero elsewhere,
  * the inverse has entries sigma^(m-k) tau^(n-l) / (r t) on the triangle
    k <= m, l <= n, with sigma = -s/r and tau = -u/t,
  * D(a) folds a coefficient sequence through the inverse geometry,
    E(A) folds each row of a matrix through it, and G(A) is the band
    applied to the rows of A.

Everything is evaluated on finite truncations.  Dense 4-D blocks are the
workhorse representation for the condition suites; they are cached per
matrix and built vectorized whenever the kernel has enough structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .seqcore import DoubleSequence, Truncation, from_array, norm_strong

__all__ = [
    "BParams",
    "FourDimMatrix",
    "ApplyResult",
    "matrix_from_array",
    "b_kernel",
    "b_transform",
    "f_kernel",
    "inverse_transform",
    "apply",
    "compose",
    "d_kernel",
    "e_kernel",
    "g_kernel",
    "cesaro_kernel",
    "identity_kernel",
    "zero_kernel",
    "norm_BCf",
]

# Dense 4-D blocks beyond this many cells are refused rather than allocated.
_BLOCK_CELL_LIMIT = 40_000_000


@dataclass(frozen=True)
class BParams:
    """The four nonzero reals of the banded kernel, with derived ratios."""

    r: float
    s: float
    t: float
    u: float

    def __post_init__(self):
        for name in ("r", "s", "t", "u"):
            if getattr(self, name) == 0:
                raise ValueError(f"band parameter {name} must be nonzero")

    @property
    def sigma(self) -> float:
        return -self.s / self.r

    @property
    def tau(self) -> float:
        return -self.u / self.t

    @property
    def rt(self) -> float:
        return self.r * self.t

    @property
    def contractive(self) -> bool:
        """True when both inverse ratios have modulus below one."""
        return abs(self.sigma) < 1.0 and abs(self.tau) < 1.0


def _check_block_size(K: int, L: int, I: int, J: int):
    cells = (K + 1) * (L + 1) * (I + 1) * (J + 1)
    if cells > _BLOCK_CELL_LIMIT:
        raise ValueError(
            f"4-D block of {cells} cells exceeds the dense limit; use smaller stages"
        )


@dataclass(frozen=True, eq=False)
class FourDimMatrix:
    """A lazily evaluated 4-D kernel.

    `entry` is the scalar rule.  The optional `*_rule` hooks provide
    vectorized evaluation and must agree with `entry` exactly:

      * block4_rule(K, L, I, J): dense array indexed [m, n, k, l],
      * row_block_rule(m, n, K, L): one row as an array indexed [k, l],
      * apply_rule(x_grid): the transform of a grid, same shape, exact for
        triangular kernels.

    Dense blocks are cached grow-only, keyed by nothing: one block per
    matrix, extended as larger truncations are requested.
    """

    entry: Callable[[int, int, int, int], float]
    triangular: bool = False
    band: Optional[str] = None
    name: str = ""
    block4_rule: Optional[Callable[[int, int, int, int], np.ndarray]] = None
    row_block_rule: Optional[Callable[[int, int, int, int], np.ndarray]] = None
    apply_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, m: int, n: int, k: int, l: int) -> float:
        if min(m, n, k, l) < 0:
            raise ValueError("matrix indices must be non-negative")
        if self.triangular and (k > m or l > n):
            return 0.0
        return float(self.entry(m, n, k, l))

    def block4(self, K: int, L: int, I: int, J: int) -> np.ndarray:
        """Dense entries for rows (m, n) <= (K, L) and columns (k, l) <= (I, J)."""
        _check_block_size(K, L, I, J)
        cached = self._cache.get("block4")
        if cached is not None and all(
            cached.shape[d] >= want
            for d, want in enumerate((K + 1, L + 1, I + 1, J + 1))
        ):
            return cached[: K + 1, : L + 1, : I + 1, : J + 1]
        dims = (K, L, I, J)
        if cached is not None:
            dims = tuple(max(d, c - 1) for d, c in zip(dims, cached.shape))
            _check_block_size(*dims)
        bK, bL, bI, bJ = dims
        if self.block4_rule is not None:
            blk = np.asarray(self.block4_rule(bK, bL, bI, bJ), dtype=float)
        else:
            blk = np.empty((bK + 1, bL + 1, bI + 1, bJ + 1), dtype=float)
            for m in range(bK + 1):
                for n in range(bL + 1):
                    blk[m, n] = self.row_block(m, n, bI, bJ)
        self._cache["block4"] = blk
        return blk[: K + 1, : L + 1, : I + 1, : J + 1]

    def row_block(self, m: int, n: int, K: int, L: int) -> np.ndarray:
        """Row (m, n) restricted to columns (k, l) <= (K, L) as a dense array."""
        if self.row_block_rule is not None:
            return np.asarray(self.row_block_rule(m, n, K, L), dtype=float)
        cached = self._cache.get("block4")
        if (
            cached is not None
            and cached.shape[0] > m
            and cached.shape[1] > n
            and cached.shape[2] >= K + 1
            and cached.shape[3] >= L + 1
        ):
            return cached[m, n, : K + 1, : L + 1]
        out = np.zeros((K + 1, L + 1), dtype=float)
        kmax = min(K, m) if self.triangular else K
        lmax = min(L, n) if self.triangular else L
        for k in range(kmax + 1):
            for l in range(lmax + 1):
                out[k, l] = self.entry(m, n, k, l)
        return out


def matrix_from_array(values, triangular: bool = False, name: str = "array-kernel") -> FourDimMatrix:
    """Wrap a dense 4-D array (indexed [m, n, k, l]) as a matrix."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 4:
        raise ValueError("matrix_from_array expects a 4-D array")

    def entry(m, n, k, l):
        if m >= arr.shape[0] or n >= arr.shape[1]:
            raise ValueError(f"row ({m}, {n}) outside the stored array {arr.shape}")
        if k >= arr.shape[2] or l >= arr.shape[3]:
            return 0.0
        return float(arr[m, n, k, l])

    def block4_rule(K, L, I, J):
        if K >= arr.shape[0] or L >= arr.shape[1]:
            raise ValueError("requested rows outside the stored array")
        out = np.zeros((K + 1, L + 1, I + 1, J + 1), dtype=float)
        ci = min(I + 1, arr.shape[2])
        cj = min(J + 1, arr.shape[3])
        out[:, :, :ci, :cj] = arr[: K + 1, : L + 1, :ci, :cj]
        return out

    return FourDimMatrix(
        entry=entry,
        triangular=triangular,
        name=name,
        block4_rule=block4_rule,
    )


# ---------------------------------------------------------------------------
# the banded kernel and its inverse

def b_kernel(p: BParams) -> FourDimMatrix:
    """The banded difference kernel: su, st, ru, rt on a 2x2 column block."""
    su, st = p.s * p.u, p.s * p.t
    ru, rt = p.r * p.u, p.r * p.t

    def entry(m, n, k, l):
        if k == m and l == n:
            return rt
        if k == m - 1 and l == n:
            return st
        if k == m and l == n - 1:
            return ru
        if k == m - 1 and l == n - 1:
            return su
        return 0.0

    def block4_rule(K, L, I, J):
        blk = np.zeros((K + 1, L + 1, I + 1, J + 1), dtype=float)
        for dm, dn, val in ((0, 0, rt), (1, 0, st), (0, 1, ru), (1, 1, su)):
            m_hi = min(K, I + dm)
            n_hi = min(L, J + dn)
            if m_hi < dm or n_hi < dn:
                continue
            mm = np.arange(dm, m_hi + 1)
            nn = np.arange(dn, n_hi + 1)
            blk[mm[:, None], nn[None, :], (mm - dm)[:, None], (nn - dn)[None, :]] = val
        return blk

    def apply_rule(g):
        s11 = np.zeros_like(g)
        s11[1:, 1:] = g[:-1, :-1]
        s10 = np.zeros_like(g)
        s10[1:, :] = g[:-1, :]
        s01 = np.zeros_like(g)
        s01[:, 1:] = g[:, :-1]
        return su * s11 + st * s10 + ru * s01 + rt * g

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        band="columns {m-1,m} x {n-1,n}",
        name="b",
        block4_rule=block4_rule,
        apply_rule=apply_rule,
    )


def b_transform(x: DoubleSequence, p: BParams) -> DoubleSequence:
    """The banded transform of x; terms with a negative index contribute zero."""
    su, st = p.s * p.u, p.s * p.t
    ru, rt = p.r * p.u, p.r * p.t

    def grid_rule(M, N):
        g = x.grid(M, N)
        s11 = np.zeros_like(g)
        s11[1:, 1:] = g[:-1, :-1]
        s10 = np.zeros_like(g)
        s10[1:, :] = g[:-1, :]
        s01 = np.zeros_like(g)
        s01[:, 1:] = g[:, :-1]
        return su * s11 + st * s10 + ru * s01 + rt * g

    label = x.name or "x"
    return DoubleSequence(
        name=f"B[{label}]",
        description=f"banded transform of {label}",
        grid_rule=grid_rule,
    )


def _power_lower_triangle(ratio: float, rows: int, cols: int) -> np.ndarray:
    """P[a, b] = ratio^(a-b) for b <= a, else 0; shape (rows, cols)."""
    d = np.arange(rows)[:, None] - np.arange(cols)[None, :]
    with np.errstate(invalid="ignore"):
        P = np.where(d >= 0, np.power(float(ratio), np.maximum(d, 0).astype(float)), 0.0)
    return P


def f_kernel(p: BParams) -> FourDimMatrix:
    """Triangular inverse of the banded kernel."""
    sigma, tau, rt = p.sigma, p.tau, p.rt

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return sigma ** (m - k) * tau ** (n - l) / rt

    def block4_rule(K, L, I, J):
        P = _power_lower_triangle(sigma, K + 1, I + 1)
        Q = _power_lower_triangle(tau, L + 1, J + 1)
        return P[:, None, :, None] * Q[None, :, None, :] / rt

    def apply_rule(g):
        return _inverse_scan(g, sigma, tau, rt)

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        band="full lower triangle",
        name="f",
        block4_rule=block4_rule,
        apply_rule=apply_rule,
    )


def _inverse_scan(y: np.ndarray, sigma: float, tau: float, rt: float) -> np.ndarray:
    # two geometric prefix recursions, one per axis, then the 1/rt scale
    acc = np.empty_like(y)
    acc[0, :] = y[0, :]
    for m in range(1, y.shape[0]):
        acc[m, :] = y[m, :] + sigma * acc[m - 1, :]
    out = np.empty_like(acc)
    out[:, 0] = acc[:, 0]
    for n in range(1, y.shape[1]):
        out[:, n] = acc[:, n] + tau * out[:, n - 1]
    return out / rt


def inverse_transform(y: DoubleSequence, p: BParams) -> DoubleSequence:
    """Recovers x from y = Bx by geometric back-substitution."""
    sigma, tau, rt = p.sigma, p.tau, p.rt

    def grid_rule(M, N):
        return _inverse_scan(y.grid(M, N), sigma, tau, rt)

    label = y.name or "y"
    return DoubleSequence(
        name=f"F[{label}]",
        description=f"inverse banded transform of {label}",
        grid_rule=grid_rule,
    )


# ---------------------------------------------------------------------------
# general transform application and composition

@dataclass(frozen=True)
class ApplyResult:
    """A matrix transform on a truncation plus inner-sum diagnostics.

    For triangular kernels the inner sums are finite and `exact` is True.
    Otherwise each entry is a truncated sum and `tail_change` records how
    much it moved between the half-depth and full-depth truncations; the
    transform "exists" at desk scale when every entry stabilized.
    """

    sequence: DoubleSequence
    grid: np.ndarray
    exact: bool
    tail_change: np.ndarray
    all_stabilized: bool
    mode: str


def apply(A: FourDimMatrix, x: DoubleSequence, mode: str = "bp", tr: Truncation = Truncation(32, 32)) -> ApplyResult:
    """(Ax) on the grid [0, M] x [0, N] with existence diagnostics.

    `mode` tags which summability notion the inner sums are meant in; the
    stabilization probe itself is the same for all three (compare the
    truncated sum against its half-depth restriction).
    """
    if mode not in ("p", "bp", "r"):
        raise ValueError(f"unknown convergence mode {mode!r}")
    M, N = tr.M, tr.N
    xg = x.grid(M, N)
    if A.apply_rule is not None:
        grid = np.asarray(A.apply_rule(xg), dtype=float)
        tail = np.zeros_like(grid)
        return ApplyResult(
            sequence=from_array(grid, name=f"{A.name or 'A'}[{x.name or 'x'}]"),
            grid=grid,
            exact=A.triangular,
            tail_change=tail,
            all_stabilized=True,
            mode=mode,
        )
    grid = np.empty((M + 1, N + 1), dtype=float)
    tail = np.zeros((M + 1, N + 1), dtype=float)
    for m in range(M + 1):
        for n in range(N + 1):
            K = min(m, M) if A.triangular else M
            L = min(n, N) if A.triangular else N
            row = A.row_block(m, n, K, L)
            full = float(np.sum(row * xg[: K + 1, : L + 1]))
            grid[m, n] = full
            if not A.triangular:
                half = float(np.sum(row[: K // 2 + 1, : L // 2 + 1] * xg[: K // 2 + 1, : L // 2 + 1]))
                tail[m, n] = abs(full - half)
    stabilized = bool(np.max(tail) <= 1e-9 * max(1.0, float(np.max(np.abs(grid))))) if not A.triangular else True
    return ApplyResult(
        sequence=from_array(grid, name=f"{A.name or 'A'}[{x.name or 'x'}]"),
        grid=grid,
        exact=A.triangular,
        tail_change=tail,
        all_stabilized=stabilized,
        mode=mode,
    )


def compose(A: FourDimMatrix, B: FourDimMatrix, tr: Truncation = Truncation(32, 32)) -> FourDimMatrix:
    """Matrix product: entry(m,n,k,l) = sum over (i,j) of A(m,n,i,j) B(i,j,k,l).

    The inner pair (i, j) ranges over [0, tr.M] x [0, tr.N]; when both factors
    are triangular that range already contains every nonzero term for entries
    inside the truncation, so the product is exact there.
    """
    both_tri = A.triangular and B.triangular

    def entry(m, n, k, l):
        ihi = min(m, tr.M) if A.triangular else tr.M
        jhi = min(n, tr.N) if A.triangular else tr.N
        ilo = k if B.triangular else 0
        jlo = l if B.triangular else 0
        acc = 0.0
        for i in range(ilo, ihi + 1):
            for j in range(jlo, jhi + 1):
                acc += A(m, n, i, j) * B(i, j, k, l)
        return acc

    def block4_rule(K, L, I, J):
        A4 = A.block4(K, L, tr.M, tr.N)
        B4 = B.block4(tr.M, tr.N, I, J)
        left = A4.reshape((K + 1) * (L + 1), (tr.M + 1) * (tr.N + 1))
        right = B4.reshape((tr.M + 1) * (tr.N + 1), (I + 1) * (J + 1))
        return (left @ right).reshape(K + 1, L + 1, I + 1, J + 1)

    return FourDimMatrix(
        entry=entry,
        triangular=both_tri,
        name=f"({A.name or 'A'}*{B.name or 'B'})",
        block4_rule=block4_rule,
    )


# ---------------------------------------------------------------------------
# folded kernels consumed by the dual and class checkers

def _fold_row(R: np.ndarray, sigma: float, tau: float) -> np.ndarray:
    """W[k, l] = sum over x in [k, K], y in [l, L] of sigma^(x-k) tau^(y-l) R[x, y].

    Two geometric suffix recursions; direct summation, no closed forms.
    """
    U = np.empty_like(R)
    U[:, -1] = R[:, -1]
    for l in range(R.shape[1] - 2, -1, -1):
        U[:, l] = R[:, l] + tau * U[:, l + 1]
    W = np.empty_like(U)
    W[-1, :] = U[-1, :]
    for k in range(R.shape[0] - 2, -1, -1):
        W[k, :] = U[k, :] + sigma * W[k + 1, :]
    return W


def d_kernel(a: DoubleSequence, p: BParams) -> FourDimMatrix:
    """Triangular kernel folding the coefficient sequence a through the inverse geometry.

    Row (m, n), column (k, l), for k <= m and l <= n:
    sum over j in [k, m], i in [l, n] of sigma^(j-k) tau^(i-l) a(j, i) / (r t).
    """
    sigma, tau, rt = p.sigma, p.tau, p.rt

    def row_block_rule(m, n, K, L):
        R = a.grid(m, n)
        W = _fold_row(R, sigma, tau) / rt
        out = np.zeros((K + 1, L + 1), dtype=float)
        ck = min(K, m) + 1
        cl = min(L, n) + 1
        out[:ck, :cl] = W[:ck, :cl]
        return out

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return float(row_block_rule(m, n, m, n)[k, l])

    def block4_rule(K, L, I, J):
        R = a.grid(K, L)
        P = _power_lower_triangle(sigma, K + 1, I + 1)
        Q = _power_lower_triangle(tau, L + 1, J + 1)
        W = R[:, :, None, None] * P[:, None, :, None] * Q[None, :, None, :]
        return W.cumsum(axis=0).cumsum(axis=1) / rt

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name=f"d[{a.name or 'a'}]",
        block4_rule=block4_rule,
        row_block_rule=row_block_rule,
    )


def e_kernel(A: FourDimMatrix, p: BParams) -> FourDimMatrix:
    """Folds each row of A through the inverse geometry.

    Row (m, n), column (k, l), for k <= m and l <= n:
    sum over i in [k, m], j in [l, n] of sigma^(i-k) tau^(j-l) A(m, n, i, j) / (r t).
    """
    sigma, tau, rt = p.sigma, p.tau, p.rt

    def row_block_rule(m, n, K, L):
        R = A.row_block(m, n, m, n)
        W = _fold_row(R, sigma, tau) / rt
        out = np.zeros((K + 1, L + 1), dtype=float)
        ck = min(K, m) + 1
        cl = min(L, n) + 1
        out[:ck, :cl] = W[:ck, :cl]
        return out

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return float(row_block_rule(m, n, m, n)[k, l])

    def block4_rule(K, L, I, J):
        A4 = A.block4(K, L, K, L)
        P = _power_lower_triangle(sigma, K + 1, I + 1)
        Q = _power_lower_triangle(tau, L + 1, J + 1)
        # contract the row's column indices against the geometric triangles
        T = np.tensordot(A4, Q, axes=([3], [0]))
        E4 = np.tensordot(T.transpose(0, 1, 3, 2), P, axes=([3], [0]))
        return E4.transpose(0, 1, 3, 2) / rt

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name=f"e[{A.name or 'A'}]",
        block4_rule=block4_rule,
        row_block_rule=row_block_rule,
    )


def g_kernel(A: FourDimMatrix, p: BParams) -> FourDimMatrix:
    """The band applied to the rows of A; terms with a negative row index vanish."""
    su, st = p.s * p.u, p.s * p.t
    ru, rt = p.r * p.u, p.r * p.t

    def entry(m, n, k, l):
        acc = su * (A(m - 1, n - 1, k, l) if m > 0 and n > 0 else 0.0)
        acc = acc + st * (A(m - 1, n, k, l) if m > 0 else 0.0)
        acc = acc + ru * (A(m, n - 1, k, l) if n > 0 else 0.0)
        return acc + rt * A(m, n, k, l)

    def block4_rule(K, L, I, J):
        A4 = A.block4(K, L, I, J)
        s11 = np.zeros_like(A4)
        s11[1:, 1:] = A4[:-1, :-1]
        s10 = np.zeros_like(A4)
        s10[1:, :] = A4[:-1, :]
        s01 = np.zeros_like(A4)
        s01[:, 1:] = A4[:, :-1]
        return su * s11 + st * s10 + ru * s01 + rt * A4

    return FourDimMatrix(
        entry=entry,
        triangular=A.triangular,
        name=f"g[{A.name or 'A'}]",
        block4_rule=block4_rule,
    )


# ---------------------------------------------------------------------------
# named reference kernels

def cesaro_kernel() -> FourDimMatrix:
    """Rectangular averaging kernel: 1 / ((m+1)(n+1)) on the lower triangle."""

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return 1.0 / ((m + 1) * (n + 1))

    def block4_rule(K, L, I, J):
        w = 1.0 / np.outer(np.arange(1, K + 2, dtype=float), np.arange(1, L + 2, dtype=float))
        mk = (np.arange(I + 1)[None, :] <= np.arange(K + 1)[:, None]).astype(float)
        nl = (np.arange(J + 1)[None, :] <= np.arange(L + 1)[:, None]).astype(float)
        return w[:, :, None, None] * mk[:, None, :, None] * nl[None, :, None, :]

    def apply_rule(g):
        sums = g.cumsum(axis=0).cumsum(axis=1)
        w = np.outer(np.arange(1, g.shape[0] + 1, dtype=float), np.arange(1, g.shape[1] + 1, dtype=float))
        return sums / w

    def row_block_rule(m, n, K, L):
        out = np.zeros((K + 1, L + 1), dtype=float)
        out[: min(K, m) + 1, : min(L, n) + 1] = 1.0 / ((m + 1) * (n + 1))
        return out

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name="cesaro",
        block4_rule=block4_rule,
        row_block_rule=row_block_rule,
        apply_rule=apply_rule,
    )


def identity_kernel() -> FourDimMatrix:
    def entry(m, n, k, l):
        return 1.0 if (k == m and l == n) else 0.0

    def block4_rule(K, L, I, J):
        blk = np.zeros((K + 1, L + 1, I + 1, J + 1), dtype=float)
        mm = np.arange(min(K, I) + 1)
        nn = np.arange(min(L, J) + 1)
        blk[mm[:, None], nn[None, :], mm[:, None], nn[None, :]] = 1.0
        return blk

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name="identity",
        block4_rule=block4_rule,
        apply_rule=lambda g: g.copy(),
    )


def zero_kernel() -> FourDimMatrix:
    return FourDimMatrix(
        entry=lambda m, n, k, l: 0.0,
        triangular=True,
        name="zero",
        block4_rule=lambda K, L, I, J: np.zeros((K + 1, L + 1, I + 1, J + 1)),
        row_block_rule=lambda m, n, K, L: np.zeros((K + 1, L + 1)),
        apply_rule=lambda g: np.zeros_like(g),
    )


def norm_BCf(x: DoubleSequence, p: BParams, tr: Truncation) -> float:
    """The domain norm: strong window-mean norm of the banded transform of x."""
    return norm_strong(b_transform(x, p), tr)
