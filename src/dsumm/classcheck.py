"""Finite-stage checkers for 4-D matrix classes and dual-set membership.

A matrix class is characterized by a handful of scalar conditions: bounded
row sums, entry limits, strip sums that must vanish, sparse difference sums
over zero-density index sets, and window-mean analogues of all of these.
Each condition is evaluated over a schedule of stage sides and reported as
a trend plus a three-way verdict (pass, fail, inconclusive), reusing the
residual and boundedness engines from the convergence module.  A class
report is the conjunction of its condition reports.

Regular variants pin the target constants (entry limits zero, total sum
one); conservative variants estimate them from the largest stage.  The
B-domain classes are checked by delegating to these suites on the derived
kernels E(A) and G(A).

Dual-set membership follows the same pattern on the folded kernel D(a).
Three of the seven conditions compare the unscaled fold (no 1/(r t) factor)
against entrywise limit constants; the remaining four act on the scaled
kernel.  The beta report is the conjunction of all seven; the gamma report
combines bounded fold rows with partial-sum boundedness probes.

Memory contract: every condition is a reduction over the columns (k, l) of
one row (m, n), so a suite makes one pass over the kernel's row slabs [m]
(see `FourDimMatrix.slabs`) and reduces each slab, while it is in cache,
into side x side tables and side^3 probe strips.  No suite holds a dense
block; the window-mean suites hold one side^4 row-prefix table, their only
array of that size.  Each slab reduction adds in the same order as the
whole-block expression it replaces, so results are bit-for-bit those of the
whole-block formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .seqcore import (
    DoubleSequence,
    Truncation,
    corpus,
    lq_norm,
    padded_prefix,
    window_sum_table,
)
from .matrix4d import BParams, FourDimMatrix, d_kernel, e_kernel, g_kernel
from .convergence import (
    CONVERGES,
    DIVERGES,
    ToleranceConfig,
    canonical_extents,
    decide_residuals,
    decide_sups,
    stage_extent_pairs,
)

__all__ = [
    "PASS",
    "FAIL",
    "UNDECIDED",
    "IndexSet",
    "diagonal_set",
    "full_plane_set",
    "first_row_set",
    "ConditionReport",
    "ClassReport",
    "zero_density_check",
    "check_cbp_conservative",
    "check_cbp_regular",
    "check_strong_to_bp",
    "check_almost_conservative",
    "check_almost_regular",
    "check_strongly_regular",
    "check_strong_almost_to_almost",
    "check_Cf_to_Mu",
    "check_B_domain_class",
    "B_DOMAIN_CLASS_IDS",
    "dual_membership",
    "beta_dual_report",
    "gamma_dual_report",
    "DUAL_CONDITION_IDS",
]

PASS = "pass"
FAIL = "fail"
UNDECIDED = "inconclusive"

_DECISION_TO_VERDICT = {CONVERGES: PASS, DIVERGES: FAIL}

DEFAULT_STAGES = (8, 16, 32)

B_DOMAIN_CLASS_IDS = (
    "BSCf_to_Cf",
    "BSCf_to_Mu",
    "BSCf_to_Cbp",
    "SCf_to_BMu",
    "SCf_to_BCbp",
)

DUAL_CONDITION_IDS = ("d1", "d2", "d3", "d4", "d5", "d6", "d7", "alpha")

_PROBE_RANGE = range(3)


def _verdict(decision: str) -> str:
    return _DECISION_TO_VERDICT.get(decision, UNDECIDED)


def _tail_lo(side: int) -> int:
    return (side + 1) // 2


# ---------------------------------------------------------------------------
# index sets

@dataclass(frozen=True, eq=False)
class IndexSet:
    """A subset of the index plane given by a membership predicate."""

    contains: Callable[[int, int], bool]
    name: str
    mask_rule: Optional[Callable[[int, int], np.ndarray]] = None

    def mask(self, M: int, N: int) -> np.ndarray:
        """Boolean grid of shape (M+1, N+1); cell (k, l) says (k, l) in E."""
        if self.mask_rule is not None:
            out = np.asarray(self.mask_rule(M, N), dtype=bool)
            if out.shape != (M + 1, N + 1):
                raise ValueError("mask_rule returned a grid of the wrong shape")
            return out
        out = np.empty((M + 1, N + 1), dtype=bool)
        for k in range(M + 1):
            for l in range(N + 1):
                out[k, l] = bool(self.contains(k, l))
        return out


def diagonal_set() -> IndexSet:
    return IndexSet(
        contains=lambda k, l: k == l,
        name="diagonal",
        mask_rule=lambda M, N: np.eye(M + 1, N + 1, dtype=bool),
    )


def full_plane_set() -> IndexSet:
    return IndexSet(
        contains=lambda k, l: True,
        name="full-plane",
        mask_rule=lambda M, N: np.ones((M + 1, N + 1), dtype=bool),
    )


def first_row_set() -> IndexSet:
    return IndexSet(
        contains=lambda k, l: k == 0,
        name="first-row",
        mask_rule=lambda M, N: (np.arange(M + 1) == 0)[:, None] & np.ones((1, N + 1), dtype=bool),
    )


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ConditionReport:
    condition_id: str
    trend: tuple
    verdict: str
    constants: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ClassReport:
    class_id: str
    conditions: tuple
    overall: str

    @staticmethod
    def from_conditions(class_id: str, conditions) -> "ClassReport":
        conds = tuple(conditions)
        if any(c.verdict == FAIL for c in conds):
            overall = FAIL
        elif all(c.verdict == PASS for c in conds):
            overall = PASS
        else:
            overall = UNDECIDED
        return ClassReport(class_id=class_id, conditions=conds, overall=overall)


# ---------------------------------------------------------------------------
# zero density

def zero_density_check(
    E: IndexSet,
    sides: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ConditionReport:
    """Worst window density of E over square windows of the given sides.

    For side p the density is max over bases (m, n) <= (2p, 2p) of
    count(E in the p x p window at (m, n)) / p^2; the set passes when the
    trend decides to zero.
    """
    trend = []
    for p in sides:
        if p < 1:
            raise ValueError("window sides must be positive")
        L = 3 * p
        mask = E.mask(L, L).astype(float)
        P = padded_prefix(mask)
        counts = window_sum_table(P, p - 1, p - 1)
        trend.append((p, float(counts.max()) / float(p * p)))
    decision = decide_residuals([v for _, v in trend], tol)
    return ConditionReport(
        condition_id=f"zero-density({E.name})",
        trend=tuple(trend),
        verdict=_verdict(decision),
        constants={"max-density": trend[-1][1]},
    )


def _require_zero_density(E_sets, stages, tol):
    for E in E_sets:
        rep = zero_density_check(E, stages, tol)
        if rep.verdict != PASS:
            raise ValueError(
                f"index set {E.name!r} fails the zero-density requirement"
            )


# ---------------------------------------------------------------------------
# entrywise suites

def _residual_condition(condition_id, trend, tol, constants=None):
    decision = decide_residuals([v for _, v in trend], tol)
    return ConditionReport(condition_id, tuple(trend), _verdict(decision), constants or {})


def _sup_condition(condition_id, trend, tol, constants=None):
    decision = decide_sups([v for _, v in trend], tol)
    return ConditionReport(condition_id, tuple(trend), _verdict(decision), constants or {})


# ---------------------------------------------------------------------------
# one pass over a kernel's row slabs
#
# A reducer takes the row slabs [n, k, l] of one side-S block in order of m
# through add(m, slab) and keeps only the tables its conditions read.

def _reduce_slabs(slabs, *reducers):
    """Feed each row slab to every reducer, in order of m.

    Callers pass A.slabs(...) first, so an over-large block is refused
    before any reducer allocates its tables.
    """
    for m, slab in enumerate(slabs):
        for reducer in reducers:
            reducer.add(m, slab)
        del slab  # before the next slab is built
    return reducers


def _require_probe_columns(side: int):
    top = max(_PROBE_RANGE)
    if side < top:
        raise ValueError(
            f"stage side {side} is below {top}: the suite probes columns 0..{top}"
        )


class _RowAbsSums:
    """Sum of |entries| over the columns of each row (m, n)."""

    def __init__(self, S: int):
        self.table = np.empty((S + 1, S + 1))

    def add(self, m, slab):
        self.table[m] = np.abs(slab).sum(axis=(1, 2))

    def sup_trend(self, stages):
        return [(side, float(self.table[: side + 1, : side + 1].max())) for side in stages]


class _ProbeStrips:
    """Each row's total and its strips through the probe columns.

    cols[m, n, k, l0] and rows[m, n, k0, l] hold the entries of the column
    strips l = l0 and the row strips k = k0 for the probes l0, k0.
    """

    def __init__(self, S: int):
        _require_probe_columns(S)
        probes = len(_PROBE_RANGE)
        self.totals = np.empty((S + 1, S + 1))
        self.cols = np.empty((S + 1, S + 1, S + 1, probes))
        self.rows = np.empty((S + 1, S + 1, probes, S + 1))

    def add(self, m, slab):
        self.totals[m] = slab.sum(axis=(1, 2))
        self.cols[m] = slab[:, :, : len(_PROBE_RANGE)]
        self.rows[m] = slab[:, : len(_PROBE_RANGE), :]


def _cbp_conditions(rows_abs: _RowAbsSums, strips: _ProbeStrips, stages, tol, regular: bool):
    S = max(stages)
    tl_big = _tail_lo(S)
    if regular:
        a_col = np.zeros((S + 1, len(_PROBE_RANGE)))
        a_row = np.zeros((len(_PROBE_RANGE), S + 1))
        v_hat = 1.0
    else:
        # a_col[:, l0] and a_row[k0, :] are the column and row strips of the
        # mean row over the largest stage's tail
        a_col = strips.cols[tl_big:, tl_big:].mean(axis=(0, 1))
        a_row = strips.rows[tl_big:, tl_big:].mean(axis=(0, 1))
        v_hat = float(strips.totals[tl_big:, tl_big:].mean())

    sup_trend = rows_abs.sup_trend(stages)
    entry_trend, total_trend, col_trend, row_trend = [], [], [], []
    for side in stages:
        tl = _tail_lo(side)
        cols = strips.cols[tl: side + 1, tl: side + 1]
        rows = strips.rows[tl: side + 1, tl: side + 1]
        entry_res = 0.0
        for k in _PROBE_RANGE:
            for l in _PROBE_RANGE:
                entry_res = max(
                    entry_res,
                    float(np.max(np.abs(cols[:, :, k, l] - a_col[k, l]))),
                )
        entry_trend.append((side, entry_res))
        total_trend.append(
            (side, float(np.max(np.abs(strips.totals[tl: side + 1, tl: side + 1] - v_hat))))
        )
        col_res = 0.0
        for l0 in _PROBE_RANGE:
            strip = np.abs(cols[:, :, : side + 1, l0] - a_col[None, None, : side + 1, l0])
            col_res = max(col_res, float(strip.sum(axis=2).max()))
        col_trend.append((side, col_res))
        row_res = 0.0
        for k0 in _PROBE_RANGE:
            strip = np.abs(rows[:, :, k0, : side + 1] - a_row[None, None, k0, : side + 1])
            row_res = max(row_res, float(strip.sum(axis=2).max()))
        row_trend.append((side, row_res))

    consts = {"total": v_hat}
    if not regular:
        for k in _PROBE_RANGE:
            for l in _PROBE_RANGE:
                consts[f"a[{k},{l}]"] = float(a_col[k, l])
    return [
        _sup_condition("row-abs-sup", sup_trend, tol, {"sup": sup_trend[-1][1]}),
        _residual_condition("entry-limits", entry_trend, tol, consts),
        _residual_condition("row-sum-limit", total_trend, tol, {"total": v_hat}),
        _residual_condition("column-strips", col_trend, tol),
        _residual_condition("row-strips", row_trend, tol),
    ]


def _cbp_suite(class_id, A, stages, tol, regular):
    S = max(stages)
    tables = _reduce_slabs(A.slabs(S, S, S, S), _RowAbsSums(S), _ProbeStrips(S))
    return ClassReport.from_conditions(class_id, _cbp_conditions(*tables, stages, tol, regular))


def check_cbp_conservative(
    A: FourDimMatrix,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Bounded rows plus entry, total, and strip limits with free constants."""
    return _cbp_suite("cbp-conservative", A, stages, tol, regular=False)


def check_cbp_regular(
    A: FourDimMatrix,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Same conditions with entry limits pinned at zero and total at one."""
    return _cbp_suite("cbp-regular", A, stages, tol, regular=True)


def _abs_delta(slab: np.ndarray, kind: str) -> np.ndarray:
    """|difference| of a row slab [n, k, l] in the column indices.

    kind is "k", "l" or the mixed "kl"; zero fill past the block edge.  The
    terms are subtracted and added in place, in the order
    ((x[k, l] - x[k+1, l]) - x[k, l+1]) + x[k+1, l+1]; a term past the edge is
    skipped rather than added as zero, which can only change the sign of a
    zero, and the absolute value drops that.
    """
    out = slab.copy()
    if kind in ("k", "kl"):
        out[:, :-1, :] -= slab[:, 1:, :]
    if kind in ("l", "kl"):
        out[:, :, :-1] -= slab[:, :, 1:]
    if kind == "kl":
        out[:, :-1, :-1] += slab[:, 1:, 1:]
    return np.abs(out, out=out)


class _SparseDeltas:
    """Largest tail-row sum of |delta entries| over each mask's cells, per stage.

    Each stage sums the columns (k, l) <= (side, side) of rows (m, n) in its
    tail square; a column past the stage reads its real neighbour.
    """

    def __init__(self, masks, stages, kinds):
        S = max(stages)
        self.masks, self.stages, self.kinds = masks, stages, kinds
        self.lo = min(_tail_lo(side) for side in stages)
        self.tables = {(i, kind, side): np.empty((S + 1, S + 1))
                       for i in range(len(masks)) for kind in kinds for side in stages}

    def add(self, m, slab):
        if m < self.lo:
            return
        lo = self.lo
        diffs = {kind: _abs_delta(slab[lo:], kind) for kind in self.kinds}
        for (i, kind, side), table in self.tables.items():
            tl = _tail_lo(side)
            if tl <= m <= side:
                block = diffs[kind][tl - lo: side + 1 - lo, : side + 1, : side + 1]
                msk = self.masks[i][: side + 1, : side + 1]
                table[m, tl: side + 1] = (block * msk[None, :, :]).sum(axis=(1, 2))

    def trend(self, i: int, kind: str):
        out = []
        for side in self.stages:
            tl = _tail_lo(side)
            out.append((side, float(self.tables[i, kind, side][tl: side + 1, tl: side + 1].max())))
        return out


def _sparse_delta_conditions(deltas: _SparseDeltas, E_sets, tol):
    """Tail-row sums of |delta entries| over each sparse set, per kind."""
    return [
        _residual_condition(f"sparse-delta-{kind}({E.name})", deltas.trend(i, kind), tol)
        for i, E in enumerate(E_sets)
        for kind in deltas.kinds
    ]


def check_strong_to_bp(
    A: FourDimMatrix,
    E_sets: Optional[Sequence[IndexSet]] = None,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Regular conditions plus vanishing sparse difference sums per index set."""
    E_sets = tuple(E_sets) if E_sets is not None else (diagonal_set(),)
    _require_zero_density(E_sets, stages, tol)
    S = max(stages)
    rows_abs, strips, deltas = _reduce_slabs(
        A.slabs(S, S, S, S), _RowAbsSums(S), _ProbeStrips(S),
        _SparseDeltas([E.mask(S, S) for E in E_sets], stages, ("k", "l")),
    )
    conds = _cbp_conditions(rows_abs, strips, stages, tol, regular=True)
    conds.extend(_sparse_delta_conditions(deltas, E_sets, tol))
    return ClassReport.from_conditions("strong-to-bp", conds)


# ---------------------------------------------------------------------------
# window-mean suites

def _window_means(far: np.ndarray, near: np.ndarray, q: int, qp: int) -> np.ndarray:
    """means[n, i, j]: average of column (i, j) over rows [m, m+q] x [n, n+qp].

    far and near are one stage's row-prefix rows m+q+1 and m (see
    _WindowMeans); n runs over every base that fits.
    """
    means = far[qp + 1:] - near[qp + 1:]
    means -= far[: -qp - 1]
    means += near[: -qp - 1]
    means /= float((q + 1) * (qp + 1))
    return means


class _ExtentStats:
    """Per-base reductions of one (stage, extent) pair's window means.

    Tables are indexed [m, n, ...]: total holds the sum of the means over
    all columns, dk and dl the totals of |forward difference| (with_deltas),
    and cols and rows the means in the strips through the probe columns,
    cols[m, n, i, j0] and rows[m, n, i0, j], kept until the constants they
    are compared with are known.
    """

    def __init__(self, side: int, q: int, qp: int, with_deltas: bool):
        bm, bn = side + 1 - q, side + 1 - qp
        probes = len(_PROBE_RANGE)
        self.total = np.empty((bm, bn))
        self.cols = np.empty((bm, bn, side + 1, probes))
        self.rows = np.empty((bm, bn, probes, side + 1))
        self.dk = np.empty((bm, bn)) if with_deltas else None
        self.dl = np.empty((bm, bn)) if with_deltas else None

    def add(self, m: int, means: np.ndarray):
        self.total[m] = means.sum(axis=(1, 2))
        self.cols[m] = means[:, :, : len(_PROBE_RANGE)]
        self.rows[m] = means[:, : len(_PROBE_RANGE), :]
        if self.dk is not None:
            self.dk[m] = _abs_delta(means, "k").sum(axis=(1, 2))
            self.dl[m] = _abs_delta(means, "l").sum(axis=(1, 2))


class _WindowMeans:
    """Window means of the rows of A for every (stage, extent) pair, in one pass.

    The window sums come from the row-prefix table
    P[m+1, n+1, i, j] = sum of column (i, j) over rows (m', n') <= (m, n),
    whose row 0 and column 0 are zero; a stage reads its corner
    [: side + 2, : side + 2, : side + 1, : side + 1], since a running sum up to
    row m reads no later row.  Only the last q_hi(S) + 2 prefix rows are
    kept, in a ring: when slab m brings prefix row m+1, each pair reduces the
    base whose far row that is.  The running sum over m starts as a copy of
    row 0 (not zero plus row 0), so a -0.0 entry keeps its sign, as in a
    cumsum over the whole block.

    With estimate, the means of the largest stage's widest square windows
    are also summed, base by base in (m, n) order, into the column limits and
    total of the conservative suite (see estimates).
    """

    def __init__(self, stages, with_deltas: bool, estimate: bool):
        S = max(stages)
        q_hi, _ = canonical_extents(S)
        self.ring = np.empty((q_hi + 2, S + 2, S + 1, S + 1))
        self.ring[0] = 0.0
        self.ring[:, 0] = 0.0
        self.pairs = {
            (side, q, qp): _ExtentStats(side, q, qp, with_deltas)
            for side in stages for q, qp in stage_extent_pairs(side)
        }
        self.widest = (S, q_hi, q_hi) if estimate else None
        self._acc = None
        self._col_sums = None

    def add(self, m, slab):
        if self._acc is None:
            self._acc = slab.copy()
        else:
            self._acc += slab
        ring = self.ring
        far = ring[(m + 1) % len(ring)]
        np.cumsum(self._acc, axis=0, out=far[1:])
        for (side, q, qp), stats in self.pairs.items():
            base = m - q  # prefix row m+1 is the far row of base m-q
            if base < 0 or m > side:
                continue
            corner = (slice(side + 2), slice(side + 1), slice(side + 1))
            means = _window_means(far[corner], ring[base % len(ring)][corner], q, qp)
            stats.add(base, means)
            if (side, q, qp) == self.widest:
                # bases are added one at a time in (m, n) order, as a mean over
                # the whole table adds them; a per-m partial sum would round differently
                self._col_sums = (means.sum(axis=0) if self._col_sums is None
                                  else np.concatenate((self._col_sums[None], means)).sum(axis=0))

    def estimates(self):
        """Column limits and total estimated from the largest stage's widest square windows."""
        total = self.pairs[self.widest].total
        return self._col_sums / float(total.size), float(total.mean())


def _almost_conditions(rows_abs: _RowAbsSums, windows: _WindowMeans, stages, tol,
                       regular: bool, with_deltas: bool):
    S = max(stages)
    if regular:
        a_hat = np.zeros((S + 1, S + 1))
        u_hat = 1.0
    else:
        a_hat, u_hat = windows.estimates()

    sup_trend = rows_abs.sup_trend(stages)
    entry_trend, total_trend = [], []
    col_trend, row_trend = [], []
    dk_trend, dl_trend = [], []
    for side in stages:
        entry_res = total_res = col_res = row_res = 0.0
        dk_res = dl_res = 0.0
        for q, qp in stage_extent_pairs(side):
            stats = windows.pairs[side, q, qp]
            for i in _PROBE_RANGE:
                for j in _PROBE_RANGE:
                    entry_res = max(entry_res, float(np.max(np.abs(stats.cols[:, :, i, j] - a_hat[i, j]))))
            total_res = max(total_res, float(np.max(np.abs(stats.total - u_hat))))
            for j0 in _PROBE_RANGE:
                strip = np.abs(stats.cols[:, :, :, j0] - a_hat[None, None, : side + 1, j0])
                col_res = max(col_res, float(strip.sum(axis=2).max()))
            for i0 in _PROBE_RANGE:
                strip = np.abs(stats.rows[:, :, i0, :] - a_hat[None, None, i0, : side + 1])
                row_res = max(row_res, float(strip.sum(axis=2).max()))
            if with_deltas:
                dk_res = max(dk_res, float(stats.dk.max()))
                dl_res = max(dl_res, float(stats.dl.max()))
        entry_trend.append((side, entry_res))
        total_trend.append((side, total_res))
        col_trend.append((side, col_res))
        row_trend.append((side, row_res))
        if with_deltas:
            dk_trend.append((side, dk_res))
            dl_trend.append((side, dl_res))

    consts = {"total": u_hat}
    if not regular:
        for i in _PROBE_RANGE:
            for j in _PROBE_RANGE:
                consts[f"a[{i},{j}]"] = float(a_hat[i, j])
    conds = [
        _sup_condition("row-abs-sup", sup_trend, tol, {"sup": sup_trend[-1][1]}),
        _residual_condition("window-entry-limits", entry_trend, tol, consts),
        _residual_condition("window-total-limit", total_trend, tol, {"total": u_hat}),
        _residual_condition("window-column-strips", col_trend, tol),
        _residual_condition("window-row-strips", row_trend, tol),
    ]
    if with_deltas:
        conds.append(_residual_condition("window-delta-k-total", dk_trend, tol))
        conds.append(_residual_condition("window-delta-l-total", dl_trend, tol))
    return conds


def _window_tables(A: FourDimMatrix, stages, with_deltas, estimate, extra=()):
    """Row |sums| and the window means of A (plus any extra reducers), in one pass."""
    for side in stages:
        _require_probe_columns(side)
    S = max(stages)
    return _reduce_slabs(
        A.slabs(S, S, S, S), _RowAbsSums(S), _WindowMeans(stages, with_deltas, estimate), *extra
    )


def _almost_suite(class_id, A, stages, tol, regular, with_deltas):
    rows_abs, windows = _window_tables(A, stages, with_deltas, estimate=not regular)
    return ClassReport.from_conditions(
        class_id, _almost_conditions(rows_abs, windows, stages, tol, regular, with_deltas)
    )


def check_almost_conservative(
    A: FourDimMatrix,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Window-mean limits of columns, totals, and strips with free constants."""
    return _almost_suite("almost-conservative", A, stages, tol, regular=False, with_deltas=False)


def check_almost_regular(
    A: FourDimMatrix,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Window-mean conditions with column limits zero and total one."""
    return _almost_suite("almost-regular", A, stages, tol, regular=True, with_deltas=False)


def check_strongly_regular(
    A: FourDimMatrix,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Almost regularity plus vanishing window-mean difference totals."""
    return _almost_suite("strongly-regular", A, stages, tol, regular=True, with_deltas=True)


def check_strong_almost_to_almost(
    A: FourDimMatrix,
    E_sets: Optional[Sequence[IndexSet]] = None,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Almost regularity plus vanishing mixed-difference sums per sparse set."""
    E_sets = tuple(E_sets) if E_sets is not None else (diagonal_set(),)
    _require_zero_density(E_sets, stages, tol)
    S = max(stages)
    rows_abs, windows, deltas = _window_tables(
        A, stages, with_deltas=False, estimate=False,
        extra=(_SparseDeltas([E.mask(S, S) for E in E_sets], stages, ("kl",)),),
    )
    conds = _almost_conditions(rows_abs, windows, stages, tol, regular=True, with_deltas=False)
    conds.extend(_sparse_delta_conditions(deltas, E_sets, tol))
    return ClassReport.from_conditions("strong-almost-to-almost", conds)


# ---------------------------------------------------------------------------
# rows-into-bounded suite

_BETA_PROBE_WITNESSES = ("e", "alt-col", "checkerboard")


def check_Cf_to_Mu(
    A: FourDimMatrix,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Bounded row sums plus a row-pairing stabilization probe.

    The pairing probe stands in for per-row dual membership: a handful of
    fixed rows are paired against bounded witnesses with window limits and
    their truncated products must stabilize as the column range grows.
    """
    S = max(stages)
    rows_abs, = _reduce_slabs(A.slabs(S, S, S, S), _RowAbsSums(S))
    sup_trend = rows_abs.sup_trend(stages)

    s0 = stages[0]
    probe_rows = ((s0, s0), (s0, s0 // 2), (s0 // 2, s0))
    witnesses = [corpus(name) for name in _BETA_PROBE_WITNESSES]
    sides_ext = [max(1, s0 // 2)] + list(stages)
    partials = np.empty((len(probe_rows), len(witnesses), len(sides_ext)))
    for a_i, (m, n) in enumerate(probe_rows):
        for w_i, x in enumerate(witnesses):
            xg = x.grid(max(stages), max(stages))
            for s_i, side in enumerate(sides_ext):
                row = A.row_block(m, n, side, side)
                partials[a_i, w_i, s_i] = float(
                    np.sum(row * xg[: side + 1, : side + 1])
                )
    probe_trend = []
    for s_i, side in enumerate(stages):
        move = float(np.max(np.abs(partials[:, :, s_i + 1] - partials[:, :, s_i])))
        probe_trend.append((side, move))

    conds = [
        _sup_condition("row-abs-sup", sup_trend, tol, {"sup": sup_trend[-1][1]}),
        _residual_condition("rows-beta-probe", probe_trend, tol),
    ]
    return ClassReport.from_conditions("Cf-to-Mu", conds)


# ---------------------------------------------------------------------------
# B-domain classes via derived kernels

def check_B_domain_class(
    A: FourDimMatrix,
    class_id: str,
    p: BParams,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
    E_sets: Optional[Sequence[IndexSet]] = None,
) -> ClassReport:
    """Check one of the five B-domain classes on the matching derived kernel."""
    if class_id not in B_DOMAIN_CLASS_IDS:
        raise ValueError(
            f"unknown class id {class_id!r}; known: {', '.join(B_DOMAIN_CLASS_IDS)}"
        )
    if class_id.startswith("BSCf"):
        derived = e_kernel(A, p)
    else:
        derived = g_kernel(A, p)
    if class_id == "BSCf_to_Cf":
        rep = check_strong_almost_to_almost(derived, E_sets, stages, tol)
    elif class_id == "BSCf_to_Cbp":
        rep = check_strong_to_bp(derived, E_sets, stages, tol)
    elif class_id == "BSCf_to_Mu":
        rep = check_Cf_to_Mu(derived, stages, tol)
    elif class_id == "SCf_to_BMu":
        rep = check_Cf_to_Mu(derived, stages, tol)
    else:  # SCf_to_BCbp
        rep = check_strong_to_bp(derived, E_sets, stages, tol)
    return ClassReport(class_id=class_id, conditions=rep.conditions, overall=rep.overall)


# ---------------------------------------------------------------------------
# dual sets

def _geom_weights(ratio: float, count: int) -> np.ndarray:
    return np.power(float(ratio), np.arange(count, dtype=float))


def _fold_cube_fixed_l(ag: np.ndarray, sigma: float, tau: float, l0: int) -> np.ndarray:
    """T[m, n, k] = sum over j in [k, m], i in [l0, n] of sigma^(j-k) tau^(i-l0) a[j, i]."""
    X = ag.shape[0] - 1
    W = np.zeros_like(ag)
    if l0 <= ag.shape[1] - 1:
        w = _geom_weights(tau, ag.shape[1] - l0)
        W[:, l0:] = (ag[:, l0:] * w[None, :]).cumsum(axis=1)
    T = np.zeros((X + 1, ag.shape[1], X + 1))
    for k in range(X, -1, -1):
        if k < X:
            T[:, :, k] = sigma * T[:, :, k + 1]
        T[k:, :, k] += W[k, :][None, :]
    return T


def _fold_cube_fixed_k(ag: np.ndarray, sigma: float, tau: float, k0: int) -> np.ndarray:
    """T[m, n, l] = sum over j in [k0, m], i in [l, n] of sigma^(j-k0) tau^(i-l) a[j, i]."""
    Y = ag.shape[1] - 1
    V = np.zeros_like(ag)
    if k0 <= ag.shape[0] - 1:
        w = _geom_weights(sigma, ag.shape[0] - k0)
        V[k0:, :] = (ag[k0:, :] * w[:, None]).cumsum(axis=0)
    T = np.zeros((ag.shape[0], Y + 1, Y + 1))
    for l in range(Y, -1, -1):
        if l < Y:
            T[:, :, l] = tau * T[:, :, l + 1]
        T[:, l:, l] += V[:, l][:, None]
    return T


class _DualScans:
    """Shared computations for the seven dual conditions on one (a, p) pair.

    Constants are estimated on an extension grid twice the largest stage;
    stage residuals are read off the same arrays so the two stay coherent.
    The scaled fold D(a) is read in one pass over its row slabs, which
    yields its row |sums| and the sparse delta sums over E of each kind in
    delta_kinds.  The unscaled fold cubes of side 2S+1 are built one at a
    time; only their per-stage maxima and constants are kept.
    """

    def __init__(self, a: DoubleSequence, p: BParams, stages, E: Optional[IndexSet] = None,
                 delta_kinds=()):
        self.a = a
        self.p = p
        self.stages = tuple(stages)
        self.S = max(stages)
        self.X = 2 * self.S
        self.E = E if E is not None else diagonal_set()
        self.delta_kinds = tuple(delta_kinds)
        self._memo = {}

    def ext_grid(self) -> np.ndarray:
        if "ag" not in self._memo:
            self._memo["ag"] = self.a.grid(self.X, self.X)
        return self._memo["ag"]

    def fold_pass(self):
        """Row |sums| (and sparse deltas, with delta_kinds) of the scaled fold, in one pass."""
        if "fold" not in self._memo:
            S = self.S
            slabs = d_kernel(self.a, self.p).slabs(S, S, S, S)
            reducers = [_RowAbsSums(S)]
            if self.delta_kinds:
                reducers.append(_SparseDeltas([self.E.mask(S, S)], self.stages, self.delta_kinds))
            self._memo["fold"] = _reduce_slabs(slabs, *reducers)
        return self._memo["fold"]

    def _entry_deviations(self, cube: np.ndarray, l0: int, consts: dict, per_stage: dict):
        """The tail means of the sheets k = k0 of cube_l(l0), and their worst deviations."""
        for k0 in _PROBE_RANGE:
            sheet = cube[:, :, k0]
            beta = self._tail_mean(sheet)
            consts[f"beta[{k0},{l0}]"] = beta
            for s in self.stages:
                t = _tail_lo(s)
                dev = float(np.max(np.abs(sheet[t: s + 1, t: s + 1] - beta)))
                per_stage[s] = max(per_stage[s], dev)

    def _strip_deviations(self, cube: np.ndarray, per_stage: dict):
        """The worst deviation of the tail strips of one fold cube from their mean."""
        t_ext = _tail_lo(self.X)
        beta_vec = cube[t_ext:, t_ext:, :].mean(axis=(0, 1))
        for s in self.stages:
            t = _tail_lo(s)
            dev = np.abs(cube[t: s + 1, t: s + 1, : s + 1] - beta_vec[None, None, : s + 1])
            per_stage[s] = max(per_stage[s], float(dev.sum(axis=2).max()))

    def cube_l_scan(self):
        """d2's constants and per-stage maxima, and d4's maxima, from cube_l(0..2).

        Each cube is built once and dropped before the next is built.
        """
        if "cl" not in self._memo:
            consts = {}
            entry = {s: 0.0 for s in self.stages}
            strips = {s: 0.0 for s in self.stages}
            for l0 in _PROBE_RANGE:
                cube = _fold_cube_fixed_l(self.ext_grid(), self.p.sigma, self.p.tau, l0)
                self._entry_deviations(cube, l0, consts, entry)
                self._strip_deviations(cube, strips)
                del cube
            self._memo["cl"] = (consts, entry, strips)
        return self._memo["cl"]

    def cube_k_scan(self):
        """d5's per-stage maxima from cube_k(0..2), built and dropped one at a time."""
        if "ck" not in self._memo:
            strips = {s: 0.0 for s in self.stages}
            for k0 in _PROBE_RANGE:
                cube = _fold_cube_fixed_k(self.ext_grid(), self.p.sigma, self.p.tau, k0)
                self._strip_deviations(cube, strips)
                del cube
            self._memo["ck"] = strips
        return self._memo["ck"]

    def row_sum_grid(self) -> np.ndarray:
        # total of the scaled fold row: cumulative sums against geometric prefixes
        if "rs" not in self._memo:
            ag = self.ext_grid()
            g1 = np.cumsum(_geom_weights(self.p.sigma, ag.shape[0]))
            g2 = np.cumsum(_geom_weights(self.p.tau, ag.shape[1]))
            w = ag * g1[:, None] * g2[None, :]
            self._memo["rs"] = w.cumsum(axis=0).cumsum(axis=1) / self.p.rt
        return self._memo["rs"]

    def _tail_mean(self, grid2d: np.ndarray) -> float:
        t = _tail_lo(self.X)
        return float(grid2d[t:, t:].mean())


# sparse delta kind of each dual condition that reads one
_DUAL_DELTA_KINDS = {"d6": "l", "d7": "k"}


def _dual_condition(scans: _DualScans, which: str, tol: ToleranceConfig) -> ConditionReport:
    stages = scans.stages
    if which == "d1":
        trend = scans.fold_pass()[0].sup_trend(stages)
        return _sup_condition("transform-row-abs-sup", trend, tol, {"sup": trend[-1][1]})

    if which == "d2":
        consts, entry, _ = scans.cube_l_scan()
        trend = [(s, entry[s]) for s in stages]
        return _residual_condition("transform-entry-limits", trend, tol, consts)

    if which == "d3":
        rs = scans.row_sum_grid()
        u_hat = scans._tail_mean(rs)
        trend = []
        for s in stages:
            t = _tail_lo(s)
            trend.append((s, float(np.max(np.abs(rs[t: s + 1, t: s + 1] - u_hat)))))
        return _residual_condition("transform-total-limit", trend, tol, {"total": u_hat})

    if which == "d4":
        strips = scans.cube_l_scan()[2]
        trend = [(s, strips[s]) for s in stages]
        return _residual_condition("transform-column-strips", trend, tol)

    if which == "d5":
        strips = scans.cube_k_scan()
        trend = [(s, strips[s]) for s in stages]
        return _residual_condition("transform-row-strips", trend, tol)

    if which in _DUAL_DELTA_KINDS:
        kind = _DUAL_DELTA_KINDS[which]
        trend = scans.fold_pass()[1].trend(0, kind)
        return _residual_condition(f"transform-sparse-delta-{kind}({scans.E.name})", trend, tol)

    if which == "alpha":
        if not scans.p.contractive:
            raise ValueError(
                "the absolute-summability dual requires |s/r| < 1 and |u/t| < 1"
            )
        trend = [
            (s, lq_norm(scans.a, Truncation(s, s), 1.0)) for s in stages
        ]
        return _sup_condition("abs-sum-trend", trend, tol, {"sum": trend[-1][1]})

    raise ValueError(f"unknown dual condition {which!r}; known: {', '.join(DUAL_CONDITION_IDS)}")


def dual_membership(
    a: DoubleSequence,
    which: str,
    p: BParams,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
    E: Optional[IndexSet] = None,
) -> ConditionReport:
    """One dual condition for the coefficient sequence a under parameters p."""
    kinds = (_DUAL_DELTA_KINDS[which],) if which in _DUAL_DELTA_KINDS else ()
    scans = _DualScans(a, p, stages, E, kinds)
    if kinds:
        _require_zero_density((scans.E,), stages, tol)
    return _dual_condition(scans, which, tol)


def beta_dual_report(
    a: DoubleSequence,
    p: BParams,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
    E: Optional[IndexSet] = None,
) -> ClassReport:
    """Conjunction of the seven fold conditions."""
    scans = _DualScans(a, p, stages, E, delta_kinds=("l", "k"))
    _require_zero_density((scans.E,), stages, tol)
    conds = [
        _dual_condition(scans, w, tol)
        for w in ("d1", "d2", "d3", "d4", "d5", "d6", "d7")
    ]
    return ClassReport.from_conditions("beta-dual", conds)


_GAMMA_WITNESSES = ("e", "zero", "k-over-rt")


def gamma_dual_report(
    a: DoubleSequence,
    p: BParams,
    stages: Sequence[int] = DEFAULT_STAGES,
    tol: ToleranceConfig = ToleranceConfig(),
) -> ClassReport:
    """Bounded fold rows joined with bounded partial-sum probes.

    The probes pair a against fixed witnesses from the banded domain and
    ask only that the truncated products stay bounded.
    """
    scans = _DualScans(a, p, stages)
    d1 = _dual_condition(scans, "d1", tol)
    S = max(stages)
    trend = []
    grids = []
    for name in _GAMMA_WITNESSES:
        x = corpus(name, p) if name == "k-over-rt" else corpus(name)
        grids.append(x.grid(S, S))
    ag = a.grid(S, S)
    for s in stages:
        worst = 0.0
        for xg in grids:
            prod = ag[: s + 1, : s + 1] * xg[: s + 1, : s + 1]
            worst = max(worst, abs(float(prod.sum())))
        trend.append((s, worst))
    probe = _sup_condition("product-partial-sums-bounded", trend, tol)
    return ClassReport.from_conditions("gamma-dual", (d1, probe))
