"""Reference formulas the tests compare the library against.

Scalar oracles evaluate one entry difference, window mean or index-set count
straight from the definitions.  `sup_over_windows` is the window-norm sweep
as one window-sum table per extent; the chunked sweep must reproduce it bit
for bit.  Whole-block oracles are the dense-array expressions the kernels,
class suites and derived-kernel builders used before they streamed one row
slab at a time: they make side^4 temporaries, and the streamed code must
reproduce their results bit for bit.
"""

from __future__ import annotations

import numpy as np

from dsumm.convergence import canonical_extents, stage_extent_pairs
from dsumm.matrix4d import _power_lower_triangle
from dsumm.seqcore import padded_prefix, window_sum_table

PROBES = range(3)


# ---------------------------------------------------------------------------
# scalar oracles

def delta10(A, m, n, k, l):
    """Forward difference of row (m, n) in the first column index."""
    return A(m, n, k, l) - A(m, n, k + 1, l)


def delta01(A, m, n, k, l):
    return A(m, n, k, l) - A(m, n, k, l + 1)


def delta11(A, m, n, k, l):
    """Mixed second difference; equals delta10 applied after delta01."""
    return (
        A(m, n, k, l)
        - A(m, n, k + 1, l)
        - A(m, n, k, l + 1)
        + A(m, n, k + 1, l + 1)
    )


def matrix_window_mean(A, i, j, q, qp, m, n):
    """Mean of column (i, j) over the window of rows [m, m+q] x [n, n+qp]."""
    if min(i, j, q, qp, m, n) < 0:
        raise ValueError("window-mean arguments must be non-negative")
    acc = 0.0
    for k in range(m, m + q + 1):
        for l in range(n, n + qp + 1):
            acc += A(k, l, i, j)
    return acc / ((q + 1) * (qp + 1))


def count_in_rectangle(E, m, n, p, q):
    """Exact count of the index set E inside {m <= j <= m+p-1, n <= k <= n+q-1}."""
    total = 0
    for j in range(m, m + p):
        for k in range(n, n + q):
            if E.contains(j, k):
                total += 1
    return total


def sup_over_windows(grid):
    """sup of |window mean| over every window inside the grid, one extent at a time."""
    P = padded_prefix(grid)
    R, C = grid.shape
    best = -1.0
    for q in range(R):
        for qp in range(C):
            means = np.abs(window_sum_table(P, q, qp)) / ((q + 1) * (qp + 1))
            best = max(best, float(means.max()))
    return best


# ---------------------------------------------------------------------------
# whole-block plain kernels

def b_block(p, K, L, I, J):
    su, st, ru, rt = p.s * p.u, p.s * p.t, p.r * p.u, p.r * p.t
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


def f_block(p, K, L, I, J):
    P = _power_lower_triangle(p.sigma, K + 1, I + 1)
    Q = _power_lower_triangle(p.tau, L + 1, J + 1)
    return P[:, None, :, None] * Q[None, :, None, :] / p.rt


def cesaro_block(K, L, I, J):
    w = 1.0 / np.outer(np.arange(1, K + 2, dtype=float), np.arange(1, L + 2, dtype=float))
    mk = (np.arange(I + 1)[None, :] <= np.arange(K + 1)[:, None]).astype(float)
    nl = (np.arange(J + 1)[None, :] <= np.arange(L + 1)[:, None]).astype(float)
    return w[:, :, None, None] * mk[:, None, :, None] * nl[None, :, None, :]


def identity_block(K, L, I, J):
    blk = np.zeros((K + 1, L + 1, I + 1, J + 1), dtype=float)
    mm = np.arange(min(K, I) + 1)
    nn = np.arange(min(L, J) + 1)
    blk[mm[:, None], nn[None, :], mm[:, None], nn[None, :]] = 1.0
    return blk


def array_block(arr, K, L, I, J):
    """The block of matrix_from_array(arr): stored entries, zero past the stored columns."""
    out = np.zeros((K + 1, L + 1, I + 1, J + 1), dtype=float)
    ci = min(I + 1, arr.shape[2])
    cj = min(J + 1, arr.shape[3])
    out[:, :, :ci, :cj] = arr[: K + 1, : L + 1, :ci, :cj]
    return out


# ---------------------------------------------------------------------------
# whole-block derived kernels

def d_block(a, p, K, L, I, J):
    R = a.grid(K, L)
    P = _power_lower_triangle(p.sigma, K + 1, I + 1)
    Q = _power_lower_triangle(p.tau, L + 1, J + 1)
    W = R[:, :, None, None] * P[:, None, :, None] * Q[None, :, None, :]
    return W.cumsum(axis=0).cumsum(axis=1) / p.rt


def e_block(A, p, K, L, I, J):
    A4 = A.block4(K, L, K, L)
    P = _power_lower_triangle(p.sigma, K + 1, I + 1)
    Q = _power_lower_triangle(p.tau, L + 1, J + 1)
    T = np.tensordot(A4, Q, axes=([3], [0]))
    E4 = np.tensordot(T.transpose(0, 1, 3, 2), P, axes=([3], [0]))
    return E4.transpose(0, 1, 3, 2) / p.rt


def g_block(A, p, K, L, I, J):
    su, st, ru, rt = p.s * p.u, p.s * p.t, p.r * p.u, p.r * p.t
    A4 = A.block4(K, L, I, J)
    s11 = np.zeros_like(A4)
    s11[1:, 1:] = A4[:-1, :-1]
    s10 = np.zeros_like(A4)
    s10[1:, :] = A4[:-1, :]
    s01 = np.zeros_like(A4)
    s01[:, 1:] = A4[:, :-1]
    return su * s11 + st * s10 + ru * s01 + rt * A4


# ---------------------------------------------------------------------------
# folded rows, one row at a time

def fold_row(R, sigma, tau):
    """W[k, l] = sum over x in [k, K], y in [l, L] of sigma^(x-k) tau^(y-l) R[x, y].

    Two geometric suffix recursions over one row; direct summation.
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


def fold_transform(base_row, g, p):
    """The transform of the grid g by a fold, row by row.

    base_row(m, n) is the row (indexed [k, l], k <= m, l <= n) that row
    (m, n) of the fold folds: a's corner for d, A's row for e.
    """
    out = np.empty(g.shape)
    for m in range(g.shape[0]):
        for n in range(g.shape[1]):
            W = fold_row(base_row(m, n), p.sigma, p.tau) / p.rt
            out[m, n] = float(np.sum(W * g[: m + 1, : n + 1]))
    return out


# ---------------------------------------------------------------------------
# whole-block condition reductions
#
# Each returns a list of (condition id, trend, constants) in report order.

def _tail_lo(side):
    return (side + 1) // 2


def shift_neg(arr, axis):
    """arr advanced one step along axis, zero-filled at the far edge."""
    out = np.zeros_like(arr)
    src = [slice(None)] * arr.ndim
    dst = [slice(None)] * arr.ndim
    src[axis] = slice(1, None)
    dst[axis] = slice(None, -1)
    out[tuple(dst)] = arr[tuple(src)]
    return out


def row_abs_sup(B4, stages):
    rows_abs = np.abs(B4).sum(axis=(2, 3))
    trend = [(side, float(rows_abs[: side + 1, : side + 1].max())) for side in stages]
    return ("row-abs-sup", trend, {"sup": trend[-1][1]})


def cbp_conditions(B4, stages, regular):
    S = max(stages)
    tl_big = _tail_lo(S)
    if regular:
        a_hat = np.zeros((S + 1, S + 1))
        v_hat = 1.0
    else:
        a_hat = B4[tl_big:, tl_big:, :, :].mean(axis=(0, 1))
        v_hat = float(B4[tl_big:, tl_big:, :, :].sum(axis=(2, 3)).mean())
    row_sums = B4.sum(axis=(2, 3))
    entry_trend, total_trend, col_trend, row_trend = [], [], [], []
    for side in stages:
        tl = _tail_lo(side)
        tail4 = B4[tl: side + 1, tl: side + 1]
        entry_res = 0.0
        for k in PROBES:
            for l in PROBES:
                entry_res = max(entry_res, float(np.max(np.abs(tail4[:, :, k, l] - a_hat[k, l]))))
        entry_trend.append((side, entry_res))
        total_trend.append(
            (side, float(np.max(np.abs(row_sums[tl: side + 1, tl: side + 1] - v_hat))))
        )
        col_res = 0.0
        for l0 in PROBES:
            strip = np.abs(tail4[:, :, : side + 1, l0] - a_hat[None, None, : side + 1, l0])
            col_res = max(col_res, float(strip.sum(axis=2).max()))
        col_trend.append((side, col_res))
        row_res = 0.0
        for k0 in PROBES:
            strip = np.abs(tail4[:, :, k0, : side + 1] - a_hat[None, None, k0, : side + 1])
            row_res = max(row_res, float(strip.sum(axis=2).max()))
        row_trend.append((side, row_res))
    consts = {"total": v_hat}
    if not regular:
        for k in PROBES:
            for l in PROBES:
                consts[f"a[{k},{l}]"] = float(a_hat[k, l])
    return [
        row_abs_sup(B4, stages),
        ("entry-limits", entry_trend, consts),
        ("row-sum-limit", total_trend, {"total": v_hat}),
        ("column-strips", col_trend, {}),
        ("row-strips", row_trend, {}),
    ]


def sparse_delta_conditions(B4, E_sets, stages, kinds, prefix="sparse-delta"):
    S = B4.shape[0] - 1
    shifted_k = shift_neg(B4, 2)
    shifted_l = shift_neg(B4, 3)
    diffs = {
        "k": np.abs(B4 - shifted_k),
        "l": np.abs(B4 - shifted_l),
        "kl": np.abs(B4 - shifted_k - shifted_l + shift_neg(shifted_k, 3)),
    }
    out = []
    for E in E_sets:
        mask = E.mask(S, S)
        for kind in kinds:
            trend = []
            for side in stages:
                tl = _tail_lo(side)
                block = diffs[kind][tl: side + 1, tl: side + 1, : side + 1, : side + 1]
                msk = mask[: side + 1, : side + 1]
                sums = (block * msk[None, None, :, :]).sum(axis=(2, 3))
                trend.append((side, float(sums.max())))
            out.append((f"{prefix}-{kind}({E.name})", trend, {}))
    return out


def row_prefix_table(B4):
    """P[m+1, n+1, i, j]: sum of column (i, j) over rows (m', n') <= (m, n).

    Row 0 and column 0 are zero.
    """
    K, L, I, J = B4.shape
    P = np.zeros((K + 1, L + 1, I, J))
    P[1:, 1:] = B4.cumsum(axis=0).cumsum(axis=1)
    return P


def window_mean_tables(B4, side):
    """Yield (q, qp, means) with means[m, n, i, j] the window mean of column (i, j)."""
    P = row_prefix_table(B4[: side + 1, : side + 1, : side + 1, : side + 1])
    for q, qp in stage_extent_pairs(side):
        sums = (
            P[q + 1:, qp + 1:]
            - P[: -q - 1, qp + 1:]
            - P[q + 1:, : -qp - 1]
            + P[: -q - 1, : -qp - 1]
        )
        yield q, qp, sums / float((q + 1) * (qp + 1))


def almost_conditions(B4, stages, regular, with_deltas):
    S = max(stages)
    if regular:
        a_hat = np.zeros((S + 1, S + 1))
        u_hat = 1.0
    else:
        q_hi, _ = canonical_extents(S)
        for q, qp, means in window_mean_tables(B4, S):
            if (q, qp) == (q_hi, q_hi):
                a_hat = means.mean(axis=(0, 1))
                u_hat = float(means.sum(axis=(2, 3)).mean())
                break
    entry_trend, total_trend, col_trend, row_trend = [], [], [], []
    dk_trend, dl_trend = [], []
    for side in stages:
        entry_res = total_res = col_res = row_res = dk_res = dl_res = 0.0
        for q, qp, means in window_mean_tables(B4, side):
            for i in PROBES:
                for j in PROBES:
                    entry_res = max(entry_res, float(np.max(np.abs(means[:, :, i, j] - a_hat[i, j]))))
            totals = means.sum(axis=(2, 3))
            total_res = max(total_res, float(np.max(np.abs(totals - u_hat))))
            for j0 in PROBES:
                strip = np.abs(means[:, :, :, j0] - a_hat[None, None, : side + 1, j0])
                col_res = max(col_res, float(strip.sum(axis=2).max()))
            for i0 in PROBES:
                strip = np.abs(means[:, :, i0, :] - a_hat[None, None, i0, : side + 1])
                row_res = max(row_res, float(strip.sum(axis=2).max()))
            if with_deltas:
                dk = np.abs(means - shift_neg(means, 2)).sum(axis=(2, 3))
                dl = np.abs(means - shift_neg(means, 3)).sum(axis=(2, 3))
                dk_res = max(dk_res, float(dk.max()))
                dl_res = max(dl_res, float(dl.max()))
        entry_trend.append((side, entry_res))
        total_trend.append((side, total_res))
        col_trend.append((side, col_res))
        row_trend.append((side, row_res))
        dk_trend.append((side, dk_res))
        dl_trend.append((side, dl_res))
    consts = {"total": u_hat}
    if not regular:
        for i in PROBES:
            for j in PROBES:
                consts[f"a[{i},{j}]"] = float(a_hat[i, j])
    out = [
        row_abs_sup(B4, stages),
        ("window-entry-limits", entry_trend, consts),
        ("window-total-limit", total_trend, {"total": u_hat}),
        ("window-column-strips", col_trend, {}),
        ("window-row-strips", row_trend, {}),
    ]
    if with_deltas:
        out.append(("window-delta-k-total", dk_trend, {}))
        out.append(("window-delta-l-total", dl_trend, {}))
    return out
