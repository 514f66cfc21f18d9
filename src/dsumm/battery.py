"""The twelve-item verification battery.

Each item exercises one advertised behavior end to end and reports a list
of labeled checks.  The battery is deterministic: randomness comes from a
fixed seed through splitmix-style integer mixing and numpy's PCG64, so two
runs produce identical output.  The command line prints these items and
the acceptance tests assert their checks one by one.

Two items fail by design: the strongly-regular window suite accepts the
rectangular averaging kernel's companion (the identity), and the sparse
difference dual conditions reject the unit impulse.  Both outcomes follow
the implemented definitions literally and are cross-checked against brute
force oracles in the unit tests; the battery reports them honestly rather
than bending the conditions to match the advertised expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seqcore import (
    DoubleSequence,
    Truncation,
    corpus,
    corpus_names,
    norm_strong,
    padded_prefix,
    window_sum_table,
)
from .matrix4d import (
    BParams,
    apply,
    b_kernel,
    b_transform,
    cesaro_kernel,
    compose,
    e_kernel,
    f_kernel,
    identity_kernel,
    inverse_transform,
    matrix_from_array,
    norm_BCf,
)
from .convergence import (
    CONVERGES,
    DIVERGES,
    ToleranceConfig,
    TruncationSchedule,
    almost_cauchy,
    almost_limit,
    bounded,
    bp_limit,
    canonical_extents,
    membership,
    p_limit,
    stage_extent_pairs,
    strong_almost_limit,
)
from .classcheck import (
    FAIL,
    PASS,
    beta_dual_report,
    check_almost_regular,
    check_cbp_conservative,
    check_cbp_regular,
    check_strong_almost_to_almost,
    check_strong_to_bp,
    check_strongly_regular,
    dual_membership,
    gamma_dual_report,
)

__all__ = [
    "BATTERY_SEED",
    "BatteryItem",
    "run_all",
    "random_bounded_sequence",
    "random_bparams",
    "random_triangular_kernel",
    "geometric_sequence",
]

BATTERY_SEED = 20240801

_PARAMETRIC = ("k-over-rt", "alt-k-over-rt", "alt-col-preimage")


@dataclass(frozen=True)
class BatteryItem:
    number: int
    item_id: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def lines(self):
        return tuple(
            f"{'ok' if ok else 'FAIL'}: {label}" for label, ok in self.checks
        )


# ---------------------------------------------------------------------------
# deterministic generators

_MASK = (1 << 64) - 1
_SALT_K = 0x9E3779B97F4A7C15
_SALT_L = 0xC2B2AE3D27D4EB4F
_FIN1 = 0xBF58476D1CE4E5B9
_FIN2 = 0x94D049BB133111EB


def _finalize_py(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _FIN1) & _MASK
    z = ((z ^ (z >> 27)) * _FIN2) & _MASK
    return z ^ (z >> 31)


def random_bounded_sequence(tag: int) -> DoubleSequence:
    """A reproducible noise sequence with values in [-1, 1)."""
    base = _finalize_py(tag * 0x632BE59BD9B4E019 + 0xD1B54A32D192ED03)

    def grid_rule(M, N):
        kk = (np.arange(M + 1, dtype=np.uint64) * np.uint64(_SALT_K))[:, None]
        ll = (np.arange(N + 1, dtype=np.uint64) * np.uint64(_SALT_L))[None, :]
        z = kk ^ ll ^ np.uint64(base)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_FIN1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_FIN2)
        z = z ^ (z >> np.uint64(31))
        return 2.0 * (z.astype(np.float64) / 2.0 ** 64) - 1.0

    return DoubleSequence(
        name=f"noise-{tag}",
        description="deterministic bounded noise",
        grid_rule=grid_rule,
    )


def random_bparams(rng: np.random.Generator) -> BParams:
    """Band parameters with inverse ratios strictly inside the unit interval."""

    def signed(lo, hi):
        mag = float(rng.uniform(lo, hi))
        return mag if rng.random() < 0.5 else -mag

    r = signed(0.5, 2.0)
    t = signed(0.5, 2.0)
    sigma = signed(0.1, 0.9)
    tau = signed(0.1, 0.9)
    return BParams(r=r, s=-sigma * r, t=t, u=-tau * t)


def random_triangular_kernel(rng: np.random.Generator, side: int):
    vals = rng.uniform(-1.0, 1.0, size=(side + 1,) * 4)
    rows = np.arange(side + 1)
    tri = (rows[None, None, :, None] <= rows[:, None, None, None]) & (
        rows[None, None, None, :] <= rows[None, :, None, None]
    )
    return matrix_from_array(vals * tri, triangular=True, name="random-triangular")


def geometric_sequence() -> DoubleSequence:
    def grid_rule(M, N):
        pk = np.power(2.0, -np.arange(M + 1, dtype=float))
        pl = np.power(2.0, -np.arange(N + 1, dtype=float))
        return np.outer(pk, pl)

    return DoubleSequence(name="geometric", grid_rule=grid_rule)


# ---------------------------------------------------------------------------
# items

def _item_01_roundtrip(seed: int) -> BatteryItem:
    rng = np.random.default_rng(seed)
    params = [random_bparams(rng) for _ in range(10)]
    worst = 0.0
    for i in range(100):
        x = random_bounded_sequence(seed * 1000 + i)
        xg = x.grid(64, 64)
        scale = max(1.0, float(np.max(np.abs(xg))))
        for p in params:
            back = inverse_transform(b_transform(x, p), p).grid(64, 64)
            worst = max(worst, float(np.max(np.abs(back - xg))) / scale)
    checks = (
        (
            f"inverse recovers 100 noise sequences under 10 parameter draws, worst relative error {worst:.3e} <= 1e-9",
            worst <= 1e-9,
        ),
    )
    return BatteryItem(1, "roundtrip-inverse", checks)


def _item_02_compose(seed: int) -> BatteryItem:
    checks = []
    tr = Truncation(32, 32)
    I4 = identity_kernel().block4(32, 32, 32, 32)
    for p in (BParams(2, 1, 3, 1), BParams(1, -1, 1, -1)):
        B = b_kernel(p)
        F = f_kernel(p)
        err_fb = float(np.max(np.abs(compose(F, B, tr).block4(32, 32, 32, 32) - I4)))
        err_bf = float(np.max(np.abs(compose(B, F, tr).block4(32, 32, 32, 32) - I4)))
        err = max(err_fb, err_bf)
        checks.append(
            (
                f"compose(F,B) and compose(B,F) match the identity at r={p.r:g}, s={p.s:g}, t={p.t:g}, u={p.u:g}, error {err:.3e} <= 1e-12",
                err <= 1e-12,
            )
        )
    return BatteryItem(2, "compose-inverse-identity", tuple(checks))


def _item_03_ramp_image(seed: int) -> BatteryItem:
    rng = np.random.default_rng(seed + 3)
    checks = []
    for _ in range(5):
        mags = rng.uniform(0.5, 2.0, size=2)
        signs = np.where(rng.random(2) < 0.5, 1.0, -1.0)
        r, t = float(mags[0] * signs[0]), float(mags[1] * signs[1])
        p = BParams(r, -r, t, -t)
        x = corpus("k-over-rt", p)
        yg = b_transform(x, p).grid(64, 64)
        off_column = bool(np.all(yg[:, 1:] == 0.0)) and yg[0, 0] == 0.0
        first_col = float(np.max(np.abs(yg[1:, 0] - 1.0)))
        verdict = membership(x, "BSCf0", p)
        checks.append(
            (
                f"r={r:.4g}, t={t:.4g}: image vanishes off the first column exactly",
                off_column,
            )
        )
        checks.append(
            (
                f"r={r:.4g}, t={t:.4g}: first column within {first_col:.3e} of one (<= 1e-12)",
                first_col <= 1e-12,
            )
        )
        checks.append(
            (
                f"r={r:.4g}, t={t:.4g}: ramp lands in the null banded strong space",
                verdict.decision == CONVERGES,
            )
        )
    return BatteryItem(3, "ramp-difference-image", tuple(checks))


def _item_04_checkerboard(seed: int) -> BatteryItem:
    checks = []
    x = corpus("checkerboard")
    for r, t in ((1, 1), (2, 0.5), (0.5, 4), (1, 2), (2, 2)):
        p = BParams(r, -r, t, -t)
        target = 2.0 * abs(p.rt)
        y = b_transform(x, p)
        exact = True
        for side in (8, 16, 32, 64, 128):
            g = np.abs(y.grid(side, side))[1:, 1:]
            P = padded_prefix(g)
            for q, qp in stage_extent_pairs(side):
                means = window_sum_table(P, q, qp) / float((q + 1) * (qp + 1))
                if not bool(np.all(means == target)):
                    exact = False
        verdict = membership(x, "BSCf0", p)
        checks.append(
            (
                f"r={r:g}, t={t:g}: interior strong window means equal {target:g} exactly at every stage",
                exact,
            )
        )
        checks.append(
            (
                f"r={r:g}, t={t:g}: checkerboard stays outside the null banded strong space",
                verdict.decision == DIVERGES,
            )
        )
    return BatteryItem(4, "checkerboard-window-exactness", tuple(checks))


def _item_05_alternating(seed: int) -> BatteryItem:
    x = corpus("alt-col")
    v = almost_limit(x)
    bound_ok = True
    for tr, value in v.residual_trace:
        q_lo = canonical_extents(min(tr.M, tr.N))[1]
        if value > 1.0 / (q_lo + 1) + 1e-12:
            bound_ok = False
    s = strong_almost_limit(x)
    strong_res_ok = all(value >= 1.0 - 1e-3 for _, value in s.residual_trace)
    checks = (
        ("alternating columns almost converge", v.decision == CONVERGES),
        ("almost candidate is exactly zero", v.candidate_limit == 0.0),
        ("almost residuals obey the 1/(q+1) parity bound", bound_ok),
        ("strong window means refuse to settle", s.decision == DIVERGES),
        ("strong residuals stay at one", strong_res_ok),
    )
    return BatteryItem(5, "alternating-columns", checks)


def _item_06_boos(seed: int) -> BatteryItem:
    x = corpus("boos")
    pv = p_limit(x)
    bv = bounded(x)
    cv = almost_cauchy(x)
    checks = (
        ("tail-rectangle limit is exactly zero", pv.decision == CONVERGES and pv.candidate_limit == 0.0),
        ("tail residuals vanish identically", all(v == 0.0 for _, v in pv.residual_trace)),
        ("sup trace doubles, so boundedness fails", bv.decision == DIVERGES),
        ("the almost-Cauchy scan refuses to certify the sequence", cv.decision != CONVERGES),
    )
    return BatteryItem(6, "first-row-blowup", checks)


_CHAIN = ("Cbp", "SCf", "Cf", "Mu")


def _item_07_chain(seed: int) -> BatteryItem:
    p0 = BParams(1, -1, 1, -1)
    xs = [corpus(name) for name in ("e", "zero", "impulse", "boos", "alt-col", "checkerboard")]
    xs += [corpus(name, p0) for name in _PARAMETRIC]
    xs += [random_bounded_sequence(seed * 77 + i) for i in range(50)]
    schedule = TruncationSchedule.default()
    tol = ToleranceConfig()
    violations = []
    limit_gaps = []
    for x in xs:
        verdicts = {
            "Cbp": bp_limit(x, schedule, tol),
            "SCf": strong_almost_limit(x, schedule, tol),
            "Cf": almost_limit(x, schedule, tol),
            "Mu": bounded(x, schedule, tol),
        }
        for smaller, larger in zip(_CHAIN, _CHAIN[1:]):
            if verdicts[smaller].decision == CONVERGES and verdicts[larger].decision == DIVERGES:
                violations.append(f"{x.name}: {smaller} in, {larger} out")
        a, b = verdicts["Cbp"], verdicts["Cf"]
        if a.decision == CONVERGES and b.decision == CONVERGES:
            gap = abs(a.candidate_limit - b.candidate_limit)
            if gap > tol.decision_tol:
                limit_gaps.append(f"{x.name}: {gap:.3e}")
    checks = (
        (
            f"no inclusion violated across {len(xs)} sequences"
            + (f"; offenders: {'; '.join(violations)}" if violations else ""),
            not violations,
        ),
        (
            "tail and window limits agree whenever both settle"
            + (f"; gaps: {'; '.join(limit_gaps)}" if limit_gaps else ""),
            not limit_gaps,
        ),
    )
    return BatteryItem(7, "membership-chain", checks)


def _item_08_row_fold(seed: int) -> BatteryItem:
    rng = np.random.default_rng(seed + 8)
    tr = Truncation(8, 8)
    worst = 0.0
    for i in range(20):
        A = random_triangular_kernel(rng, 8)
        p = random_bparams(rng)
        x = random_bounded_sequence(seed * 991 + i)
        left = apply(A, x, "bp", tr).grid
        right = apply(e_kernel(A, p), b_transform(x, p), "bp", tr).grid
        worst = max(worst, float(np.max(np.abs(left - right))))
    checks = (
        (
            f"A x equals E(A) applied to the banded image for 20 random kernels, worst gap {worst:.3e} <= 1e-9",
            worst <= 1e-9,
        ),
    )
    return BatteryItem(8, "row-fold-identity", checks)


def _item_09_class_suites(seed: int) -> BatteryItem:
    C = cesaro_kernel()
    I = identity_kernel()
    checks = (
        ("averaging kernel is conservative", check_cbp_conservative(C).overall == PASS),
        ("averaging kernel is regular", check_cbp_regular(C).overall == PASS),
        ("averaging kernel passes the sparse-difference suite", check_strong_to_bp(C).overall == PASS),
        ("averaging kernel is almost regular", check_almost_regular(C).overall == PASS),
        ("averaging kernel is strongly regular", check_strongly_regular(C).overall == PASS),
        ("averaging kernel maps strong windows to windows", check_strong_almost_to_almost(C).overall == PASS),
        ("identity kernel is regular", check_cbp_regular(I).overall == PASS),
        ("identity kernel is almost regular", check_almost_regular(I).overall == PASS),
        ("identity kernel fails the sparse-difference suite", check_strong_to_bp(I).overall == FAIL),
        ("identity kernel fails the mixed-difference suite", check_strong_almost_to_almost(I).overall == FAIL),
        ("identity kernel fails the strongly-regular suite", check_strongly_regular(I).overall == FAIL),
    )
    return BatteryItem(9, "class-suites", checks)


def _item_10_averaged_limits(seed: int) -> BatteryItem:
    # Strong almost convergent corpus members with a known limit.  The
    # impulse check is red at this stage: the centered window estimate of
    # the averaged impulse sits near 1.13e-3, slightly above the gate.
    C = cesaro_kernel()
    schedule = TruncationSchedule.squares((8, 16, 32, 64))
    checks = []
    for name, L in (("e", 1.0), ("zero", 0.0), ("impulse", 0.0)):
        y = apply(C, corpus(name), "bp", Truncation(64, 64)).sequence
        v = almost_limit(y, schedule)
        gap = abs(v.candidate_limit - L)
        checks.append(
            (
                f"averaged {name} almost converges to {L:g} (gap {gap:.3e} <= 1e-3)",
                v.decision == CONVERGES and gap <= 1e-3,
            )
        )
    return BatteryItem(10, "averaged-window-limits", tuple(checks))


def _item_11_duals(seed: int) -> BatteryItem:
    p = BParams(2, 1, 3, 1)
    checks = []
    rep = beta_dual_report(corpus("impulse"), p)
    for cond in rep.conditions:
        checks.append(
            (f"impulse fold condition {cond.condition_id} passes", cond.verdict == PASS)
        )
    p1 = BParams(1, -1, 1, -1)
    d1 = dual_membership(corpus("e"), "d1", p1)
    checks.append(("constant sequence fails the fold row-sum bound", d1.verdict == FAIL))
    # geometric absolute sums close fast but the 8 -> 16 step is still
    # 1.6e-2 wide; one deeper stage lets the stabilization gate see it
    alpha = dual_membership(geometric_sequence(), "alpha", p, stages=(8, 16, 32, 64))
    gap = abs(alpha.constants["sum"] - 4.0)
    checks.append(
        (
            f"geometric absolute sums settle at 4 (gap {gap:.3e} <= 1e-6)",
            alpha.verdict == PASS and gap <= 1e-6,
        )
    )
    zero_beta = beta_dual_report(corpus("zero"), p)
    zero_gamma = gamma_dual_report(corpus("zero"), p)
    checks.append(("zero sequence passes every fold condition", zero_beta.overall == PASS))
    checks.append(("zero sequence passes the bounded-pairing report", zero_gamma.overall == PASS))
    return BatteryItem(11, "dual-conditions", tuple(checks))


def _item_12_norm_identity(seed: int) -> BatteryItem:
    p = BParams(2, 1, 3, 1)
    tr = Truncation(24, 24)
    mismatches = []
    for name in corpus_names():
        x = corpus(name, p) if name in _PARAMETRIC else corpus(name)
        a = norm_BCf(x, p, tr)
        b = norm_strong(b_transform(x, p), tr)
        if a != b:
            mismatches.append(name)
    checks = (
        (
            "domain norm equals the strong norm of the banded image for the whole corpus"
            + (f"; mismatches: {', '.join(mismatches)}" if mismatches else ""),
            not mismatches,
        ),
    )
    return BatteryItem(12, "norm-identity", checks)


_ITEMS = (
    _item_01_roundtrip,
    _item_02_compose,
    _item_03_ramp_image,
    _item_04_checkerboard,
    _item_05_alternating,
    _item_06_boos,
    _item_07_chain,
    _item_08_row_fold,
    _item_09_class_suites,
    _item_10_averaged_limits,
    _item_11_duals,
    _item_12_norm_identity,
)


def run_all(seed: int = BATTERY_SEED):
    """Run the twelve items in order; deterministic for a fixed seed."""
    return tuple(fn(seed) for fn in _ITEMS)
