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

Everything is evaluated on finite truncations.  A kernel hands out its
entries one row slab [n, k, l] at a time, built vectorized from elementwise
formulas; the condition suites reduce each slab as it comes, and no kernel
caches a dense 4-D block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

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

# 4-D blocks beyond this many cells are refused, whether assembled or streamed.
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

      * slab_rule(m0, K, L, I, J): yields the row slabs of rows m = m0..K in
        order, each an array indexed [n, k, l] for n <= L, k <= I, l <= J,
      * row_block_rule(m, n, K, L): one row as an array indexed [k, l],
      * apply_rule(x_grid): the transform of a grid, same shape, exact for
        triangular kernels.

    A kernel holds no arrays: the class suites and duals reduce its row
    slabs one m at a time, the derived kernels d, e and g stream theirs
    from their base's slabs, and `block4` assembles a dense block from the
    slabs only for whole-block products and tests.  A kernel without a slab
    rule builds its slabs and rows from `entry`, and one with a slab rule but
    no row rule takes its rows from a slab.
    """

    entry: Callable[[int, int, int, int], float]
    triangular: bool = False
    band: Optional[str] = None
    name: str = ""
    slab_rule: Optional[Callable[[int, int, int, int, int], Iterable[np.ndarray]]] = None
    row_block_rule: Optional[Callable[[int, int, int, int], np.ndarray]] = None
    apply_rule: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, m: int, n: int, k: int, l: int) -> float:
        if min(m, n, k, l) < 0:
            raise ValueError("matrix indices must be non-negative")
        if self.triangular and (k > m or l > n):
            return 0.0
        return float(self.entry(m, n, k, l))

    def slabs(self, K: int, L: int, I: int, J: int, start: int = 0) -> Iterator[np.ndarray]:
        """Row slabs [n, k, l] of the block (K, L, I, J) for m = start..K, in order.

        Each slab is C-contiguous, so a reduction over it adds in the order
        of the same reduction over the whole block.
        """
        _check_block_size(K, L, I, J)
        if self.slab_rule is not None:
            # map holds no slab between calls, so a slab lives only as long as its reader keeps it
            return map(lambda s: np.ascontiguousarray(s, dtype=float), self.slab_rule(start, K, L, I, J))
        return (self._slab_from_entries(m, L, I, J) for m in range(start, K + 1))

    def _slab_from_entries(self, m: int, L: int, I: int, J: int) -> np.ndarray:
        return np.stack([self._row_from_entries(m, n, I, J) for n in range(L + 1)])

    def _row_from_entries(self, m: int, n: int, K: int, L: int) -> np.ndarray:
        out = np.zeros((K + 1, L + 1), dtype=float)
        kmax = min(K, m) if self.triangular else K
        lmax = min(L, n) if self.triangular else L
        for k in range(kmax + 1):
            for l in range(lmax + 1):
                out[k, l] = self.entry(m, n, k, l)
        return out

    def block4(self, K: int, L: int, I: int, J: int) -> np.ndarray:
        """Dense entries for rows (m, n) <= (K, L) and columns (k, l) <= (I, J)."""
        slabs = self.slabs(K, L, I, J)
        out = np.empty((K + 1, L + 1, I + 1, J + 1), dtype=float)
        for m, slab in enumerate(slabs):
            out[m] = slab
        return out

    def row_block(self, m: int, n: int, K: int, L: int) -> np.ndarray:
        """Row (m, n) restricted to columns (k, l) <= (K, L) as a dense array."""
        if self.row_block_rule is not None:
            return np.asarray(self.row_block_rule(m, n, K, L), dtype=float)
        if self.slab_rule is None:
            return self._row_from_entries(m, n, K, L)
        # one side^3 slab, so the dense-block limit on (m, n, K, L) does not apply
        return np.asarray(next(iter(self.slab_rule(m, m, n, K, L)))[n], dtype=float)


def matrix_from_array(values, triangular: bool = False, name: str = "array-kernel") -> FourDimMatrix:
    """Wrap a dense 4-D array (indexed [m, n, k, l]) as a matrix.

    With triangular, nonzero entries past the triangle (k > m or l > n) read
    as 0.0 on every path; a stored -0.0 there is kept.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 4:
        raise ValueError("matrix_from_array expects a 4-D array")
    if triangular:
        past = (
            (np.arange(arr.shape[2])[None, None, :, None] > np.arange(arr.shape[0])[:, None, None, None])
            | (np.arange(arr.shape[3])[None, None, None, :] > np.arange(arr.shape[1])[None, :, None, None])
        )
        past &= arr != 0.0
        if past.any():
            arr = np.where(past, 0.0, arr)

    def entry(m, n, k, l):
        if m >= arr.shape[0] or n >= arr.shape[1]:
            raise ValueError(f"row ({m}, {n}) outside the stored array {arr.shape}")
        if k >= arr.shape[2] or l >= arr.shape[3]:
            return 0.0
        return float(arr[m, n, k, l])

    def slab_rule(m0, K, L, I, J):
        if K >= arr.shape[0] or L >= arr.shape[1]:
            raise ValueError("requested rows outside the stored array")
        ci = min(I + 1, arr.shape[2])
        cj = min(J + 1, arr.shape[3])
        for m in range(m0, K + 1):
            slab = np.zeros((L + 1, I + 1, J + 1), dtype=float)
            slab[:, :ci, :cj] = arr[m, : L + 1, :ci, :cj]
            yield slab

    return FourDimMatrix(
        entry=entry,
        triangular=triangular,
        name=name,
        slab_rule=slab_rule,
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

    def slab_rule(m0, K, L, I, J):
        for m in range(m0, K + 1):
            slab = np.zeros((L + 1, I + 1, J + 1), dtype=float)
            for dm, dn, val in ((0, 0, rt), (1, 0, st), (0, 1, ru), (1, 1, su)):
                if 0 <= m - dm <= I:
                    nn = np.arange(dn, min(L, J + dn) + 1)
                    slab[nn, m - dm, nn - dn] = val
            yield slab

    def row_block_rule(m, n, K, L):
        out = np.zeros((K + 1, L + 1), dtype=float)
        for dm, dn, val in ((0, 0, rt), (1, 0, st), (0, 1, ru), (1, 1, su)):
            if 0 <= m - dm <= K and 0 <= n - dn <= L:
                out[m - dm, n - dn] = val
        return out

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
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
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

    def slab_rule(m0, K, L, I, J):
        P = _power_lower_triangle(sigma, K + 1, I + 1)
        Q = _power_lower_triangle(tau, L + 1, J + 1)
        for m in range(m0, K + 1):
            yield P[m, None, :, None] * Q[:, None, :] / rt

    def row_block_rule(m, n, K, L):
        P = _power_lower_triangle(sigma, m + 1, K + 1)
        Q = _power_lower_triangle(tau, n + 1, L + 1)
        return P[m, :, None] * Q[n, None, :] / rt

    def apply_rule(g):
        return _inverse_scan(g, sigma, tau, rt)

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        band="full lower triangle",
        name="f",
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
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

    def slab_rule(m0, K, L, I, J):
        # one whole-block matmul, so every entry rounds as in a single product
        A4 = A.block4(K, L, tr.M, tr.N)
        B4 = B.block4(tr.M, tr.N, I, J)
        left = A4.reshape((K + 1) * (L + 1), (tr.M + 1) * (tr.N + 1))
        right = B4.reshape((tr.M + 1) * (tr.N + 1), (I + 1) * (J + 1))
        yield from (left @ right).reshape(K + 1, L + 1, I + 1, J + 1)[m0:]

    return FourDimMatrix(
        entry=entry,
        triangular=both_tri,
        name=f"({A.name or 'A'}*{B.name or 'B'})",
        slab_rule=slab_rule,
    )


# ---------------------------------------------------------------------------
# folded kernels consumed by the dual and class checkers

def _fold_rows(R: np.ndarray, n0: int, sigma: float, tau: float) -> np.ndarray:
    """Fold the rows n = n0, n0+1, ... of one m through the inverse geometry.

    R[i] holds row n = n0 + i, indexed [k, l]; its entries past column n are
    never read.  Returns W with, for l <= n,
    W[i, k, l] = sum over x in [k, K], y in [l, n] of sigma^(x-k) tau^(y-l) R[i, x, y].
    Two geometric suffix recursions, direct summation, no closed forms; the
    l-recursion of row n starts at column n by a copy.
    """
    U = np.zeros(R.shape)
    for l in range(R.shape[2] - 1, -1, -1):
        i = l - n0
        if i >= 0:
            U[i, :, l] = R[i, :, l]
        i = max(i + 1, 0)
        if i < len(R):
            U[i:, :, l] = R[i:, :, l] + tau * U[i:, :, l + 1]
    W = np.empty_like(U)
    W[:, -1, :] = U[:, -1, :]
    for k in range(R.shape[1] - 2, -1, -1):
        W[:, k, :] = U[:, k, :] + sigma * W[:, k + 1, :]
    return W


def _folded_row(R: np.ndarray, m: int, n: int, K: int, L: int, sigma, tau, rt) -> np.ndarray:
    """Row (m, n) of a fold, restricted to columns (k, l) <= (K, L), from its base row R."""
    W = _fold_rows(R[None], n, sigma, tau)[0] / rt
    out = np.zeros((K + 1, L + 1), dtype=float)
    ck = min(K, m) + 1
    cl = min(L, n) + 1
    out[:ck, :cl] = W[:ck, :cl]
    return out


def _apply_folded_rows(base_rows, g: np.ndarray, sigma, tau, rt) -> np.ndarray:
    """The transform of g by a fold, one m at a time.

    base_rows(m) stacks the base rows (m, 0..N) for the fold, [n, k, l].
    """
    M, N = g.shape[0] - 1, g.shape[1] - 1
    out = np.empty_like(g, dtype=float)
    for m in range(M + 1):
        W = _fold_rows(base_rows(m), 0, sigma, tau) / rt
        for n in range(N + 1):
            out[m, n] = float(np.sum(W[n, :, : n + 1] * g[: m + 1, : n + 1]))
    return out


def d_kernel(a: DoubleSequence, p: BParams) -> FourDimMatrix:
    """Triangular kernel folding the coefficient sequence a through the inverse geometry.

    Row (m, n), column (k, l), for k <= m and l <= n:
    sum over j in [k, m], i in [l, n] of sigma^(j-k) tau^(i-l) a(j, i) / (r t).
    """
    sigma, tau, rt = p.sigma, p.tau, p.rt

    def row_block_rule(m, n, K, L):
        return _folded_row(a.grid(m, n), m, n, K, L, sigma, tau, rt)

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return float(row_block_rule(m, n, m, n)[k, l])

    def apply_rule(g):
        # every row (m, n) folds the corner [0, m] x [0, n] of one grid
        M, N = g.shape[0] - 1, g.shape[1] - 1
        ag = a.grid(M, N)
        return _apply_folded_rows(
            lambda m: np.broadcast_to(ag[: m + 1], (N + 1, m + 1, N + 1)), g, sigma, tau, rt
        )

    def slab_rule(m0, K, L, I, J):
        R = a.grid(K, L)
        P = _power_lower_triangle(sigma, K + 1, I + 1)
        Q = _power_lower_triangle(tau, L + 1, J + 1)
        # running sum over the row index m, then a cumsum over n inside the slab
        acc = None
        for m in range(K + 1):
            W = R[m, :, None, None] * P[m, None, :, None] * Q[:, None, :]
            acc = W if acc is None else acc + W
            if m >= m0:
                yield acc.cumsum(axis=0) / rt

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name=f"d[{a.name or 'a'}]",
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
        apply_rule=apply_rule,
    )


def e_kernel(A: FourDimMatrix, p: BParams) -> FourDimMatrix:
    """Folds each row of A through the inverse geometry.

    Row (m, n), column (k, l), for k <= m and l <= n:
    sum over i in [k, m], j in [l, n] of sigma^(i-k) tau^(j-l) A(m, n, i, j) / (r t).

    The fold stops at column (m, n), which is exact only for triangular A;
    for any other A it would be an infinite series, so A must be triangular.
    """
    if not A.triangular:
        raise ValueError(
            f"e_kernel needs a triangular kernel: {A.name or 'A'} is not triangular, "
            "so its folded rows would be infinite series, not finite sums up to (m, n)"
        )
    sigma, tau, rt = p.sigma, p.tau, p.rt

    def row_block_rule(m, n, K, L):
        return _folded_row(A.row_block(m, n, m, n), m, n, K, L, sigma, tau, rt)

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return float(row_block_rule(m, n, m, n)[k, l])

    def apply_rule(g):
        N = g.shape[1] - 1

        def base_rows(m):
            R = np.zeros((N + 1, m + 1, N + 1))
            for n in range(N + 1):
                R[n, :, : n + 1] = A.row_block(m, n, m, n)
            return R

        return _apply_folded_rows(base_rows, g, sigma, tau, rt)

    def slab_rule(m0, K, L, I, J):
        P = _power_lower_triangle(sigma, K + 1, I + 1)
        Q = _power_lower_triangle(tau, L + 1, J + 1)
        # contract each base slab's column indices against the geometric triangles
        # and drop each temporary as soon as it is read, so one slab's worth is held at a yield
        for slab in A.slabs(K, L, K, L, m0):
            T = np.tensordot(slab, Q, axes=([2], [0]))
            del slab
            E3 = np.tensordot(T.transpose(0, 2, 1), P, axes=([2], [0]))
            del T
            E3 /= rt
            yield E3.transpose(0, 2, 1)
            del E3

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name=f"e[{A.name or 'A'}]",
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
        apply_rule=apply_rule,
    )


def g_kernel(A: FourDimMatrix, p: BParams) -> FourDimMatrix:
    """The band applied to the rows of A; terms with a negative row index vanish."""
    su, st = p.s * p.u, p.s * p.t
    ru, rt = p.r * p.u, p.r * p.t

    def row_block_rule(m, n, K, L):
        zero = np.zeros((K + 1, L + 1), dtype=float)
        s11 = A.row_block(m - 1, n - 1, K, L) if m and n else zero
        s10 = A.row_block(m - 1, n, K, L) if m else zero
        s01 = A.row_block(m, n - 1, K, L) if n else zero
        return su * s11 + st * s10 + ru * s01 + rt * A.row_block(m, n, K, L)

    def entry(m, n, k, l):
        return float(row_block_rule(m, n, k, l)[k, l])

    def slab_rule(m0, K, L, I, J):
        first = max(m0 - 1, 0)
        prev = None
        for m, slab in enumerate(A.slabs(K, L, I, J, first), start=first):
            if m >= m0:
                s10 = prev if m else np.zeros_like(slab)
                s11 = np.zeros_like(slab)
                s11[1:] = s10[:-1]
                s01 = np.zeros_like(slab)
                s01[1:] = slab[:-1]
                yield su * s11 + st * s10 + ru * s01 + rt * slab
            prev = slab

    return FourDimMatrix(
        entry=entry,
        triangular=A.triangular,
        name=f"g[{A.name or 'A'}]",
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
    )


# ---------------------------------------------------------------------------
# named reference kernels

def cesaro_kernel() -> FourDimMatrix:
    """Rectangular averaging kernel: 1 / ((m+1)(n+1)) on the lower triangle."""

    def entry(m, n, k, l):
        if k > m or l > n:
            return 0.0
        return 1.0 / ((m + 1) * (n + 1))

    def slab_rule(m0, K, L, I, J):
        w = 1.0 / np.outer(np.arange(1, K + 2, dtype=float), np.arange(1, L + 2, dtype=float))
        mk = (np.arange(I + 1)[None, :] <= np.arange(K + 1)[:, None]).astype(float)
        nl = (np.arange(J + 1)[None, :] <= np.arange(L + 1)[:, None]).astype(float)
        for m in range(m0, K + 1):
            yield w[m, :, None, None] * mk[m, None, :, None] * nl[:, None, :]

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
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
        apply_rule=apply_rule,
    )


def identity_kernel() -> FourDimMatrix:
    def entry(m, n, k, l):
        return 1.0 if (k == m and l == n) else 0.0

    def slab_rule(m0, K, L, I, J):
        nn = np.arange(min(L, J) + 1)
        for m in range(m0, K + 1):
            slab = np.zeros((L + 1, I + 1, J + 1), dtype=float)
            if m <= I:
                slab[nn, m, nn] = 1.0
            yield slab

    def row_block_rule(m, n, K, L):
        out = np.zeros((K + 1, L + 1), dtype=float)
        if m <= K and n <= L:
            out[m, n] = 1.0
        return out

    return FourDimMatrix(
        entry=entry,
        triangular=True,
        name="identity",
        slab_rule=slab_rule,
        row_block_rule=row_block_rule,
        apply_rule=lambda g: g.copy(),
    )


def zero_kernel() -> FourDimMatrix:
    return FourDimMatrix(
        entry=lambda m, n, k, l: 0.0,
        triangular=True,
        name="zero",
        slab_rule=lambda m0, K, L, I, J: (np.zeros((L + 1, I + 1, J + 1)) for _ in range(m0, K + 1)),
        row_block_rule=lambda m, n, K, L: np.zeros((K + 1, L + 1)),
        apply_rule=lambda g: np.zeros_like(g),
    )


def norm_BCf(x: DoubleSequence, p: BParams, tr: Truncation) -> float:
    """The domain norm: strong window-mean norm of the banded transform of x."""
    return norm_strong(b_transform(x, p), tr)
