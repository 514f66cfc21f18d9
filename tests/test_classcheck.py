import dataclasses
import tracemalloc

import numpy as np
import pytest

from dsumm.seqcore import DoubleSequence, corpus
from dsumm.matrix4d import (
    BParams,
    FourDimMatrix,
    apply,
    b_kernel,
    cesaro_kernel,
    d_kernel,
    e_kernel,
    f_kernel,
    g_kernel,
    identity_kernel,
    matrix_from_array,
)
from dsumm.seqcore import Truncation
from dsumm.convergence import ToleranceConfig, almost_limit, canonical_extents
from dsumm.classcheck import (
    B_DOMAIN_CLASS_IDS,
    DUAL_CONDITION_IDS,
    FAIL,
    PASS,
    UNDECIDED,
    IndexSet,
    beta_dual_report,
    check_B_domain_class,
    check_Cf_to_Mu,
    check_almost_conservative,
    check_almost_regular,
    check_cbp_conservative,
    check_cbp_regular,
    check_strong_almost_to_almost,
    check_strong_to_bp,
    check_strongly_regular,
    diagonal_set,
    dual_membership,
    first_row_set,
    full_plane_set,
    gamma_dual_report,
    zero_density_check,
)
from dsumm import classcheck
from dsumm.classcheck import _WindowMeans

import oracles
from oracles import count_in_rectangle, delta01, delta10, delta11, matrix_window_mean

P0 = BParams(1, -1, 1, -1)
P1 = BParams(2, 1, 3, 1)
SMALL = (4, 6, 8)


def condition(report, cid):
    hits = [c for c in report.conditions if c.condition_id == cid]
    assert hits, f"no condition {cid!r} in {[c.condition_id for c in report.conditions]}"
    return hits[0]


def values(cond):
    return [v for _, v in cond.trend]


# ---------------------------------------------------------------------------
# index sets

def test_index_set_masks_and_counts():
    d = diagonal_set()
    assert d.mask(3, 5).sum() == 4
    assert count_in_rectangle(d, 2, 3, 4, 4) == 3
    f = first_row_set()
    assert f.mask(3, 5).sum() == 6
    assert count_in_rectangle(f, 1, 0, 3, 7) == 0
    assert full_plane_set().mask(2, 2).all()
    bad = IndexSet(
        contains=lambda k, l: True,
        name="bad",
        mask_rule=lambda M, N: np.ones((M, N), dtype=bool),
    )
    with pytest.raises(ValueError):
        bad.mask(4, 4)


def test_zero_density_pinned_trends():
    d = zero_density_check(diagonal_set())
    assert d.verdict == PASS
    assert d.trend == ((8, 1 / 8), (16, 1 / 16), (32, 1 / 32))
    f = zero_density_check(first_row_set())
    assert f.verdict == PASS
    assert f.trend == ((8, 1 / 8), (16, 1 / 16), (32, 1 / 32))
    p = zero_density_check(full_plane_set())
    assert p.verdict == FAIL
    assert values(p) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        zero_density_check(diagonal_set(), sides=(0, 1, 2))


def test_dense_sets_are_rejected_up_front():
    with pytest.raises(ValueError, match="zero-density"):
        check_strong_to_bp(cesaro_kernel(), E_sets=(full_plane_set(),), stages=SMALL)
    with pytest.raises(ValueError, match="zero-density"):
        beta_dual_report(corpus("impulse"), P1, stages=SMALL, E=full_plane_set())
    with pytest.raises(ValueError, match="zero-density"):
        dual_membership(corpus("impulse"), "d6", P1, stages=SMALL, E=full_plane_set())


# ---------------------------------------------------------------------------
# entry differences and window means

def test_delta_identities():
    A = cesaro_kernel()
    for m, n, k, l in ((3, 4, 1, 2), (5, 5, 0, 0), (4, 2, 4, 1)):
        assert delta11(A, m, n, k, l) == pytest.approx(
            delta10(A, m, n, k, l) - delta10(A, m, n, k, l + 1), abs=1e-15
        )
        assert delta11(A, m, n, k, l) == pytest.approx(
            delta01(A, m, n, k, l) - delta01(A, m, n, k + 1, l), abs=1e-15
        )
    # the averaging kernel is flat inside its triangle: only edges survive
    assert delta10(A, 3, 4, 1, 2) == 0.0
    assert delta10(A, 3, 4, 3, 2) == pytest.approx(1 / 20)


def test_matrix_window_mean_identity_kernel():
    I = identity_kernel()
    # column (2, 2) is hit by exactly one row of the 5x5 window at the origin
    assert matrix_window_mean(I, 2, 2, 4, 4, 0, 0) == 1 / 25
    assert matrix_window_mean(I, 9, 9, 4, 4, 0, 0) == 0.0
    with pytest.raises(ValueError):
        matrix_window_mean(I, 2, 2, -1, 4, 0, 0)


def test_window_entry_trend_matches_loop_oracle():
    from dsumm.convergence import stage_extent_pairs

    A = cesaro_kernel()
    rep = check_almost_regular(A, stages=SMALL)
    cond = condition(rep, "window-entry-limits")
    for side, got in cond.trend:
        worst = 0.0
        for q, qp in stage_extent_pairs(side):
            for i in range(3):
                for j in range(3):
                    for m in range(side - q + 1):
                        for n in range(side - qp + 1):
                            worst = max(
                                worst, abs(matrix_window_mean(A, i, j, q, qp, m, n))
                            )
        assert got == pytest.approx(worst, rel=1e-12)


def test_window_strip_trend_matches_loop_oracle():
    from dsumm.convergence import stage_extent_pairs

    A = cesaro_kernel()
    rep = check_almost_regular(A, stages=SMALL)
    cond = condition(rep, "window-column-strips")
    for side, got in cond.trend:
        worst = 0.0
        for q, qp in stage_extent_pairs(side):
            for j0 in range(3):
                for m in range(side - q + 1):
                    for n in range(side - qp + 1):
                        strip = sum(
                            abs(matrix_window_mean(A, i, j0, q, qp, m, n))
                            for i in range(side + 1)
                        )
                        worst = max(worst, strip)
        assert got == pytest.approx(worst, rel=1e-12)


# ---------------------------------------------------------------------------
# suite verdicts on the reference kernels

def test_cesaro_passes_the_regular_suites():
    C = cesaro_kernel()
    assert check_cbp_conservative(C).overall == PASS
    assert check_cbp_regular(C).overall == PASS
    assert check_almost_conservative(C).overall == PASS
    assert check_almost_regular(C).overall == PASS
    assert check_strongly_regular(C).overall == PASS
    assert check_strong_to_bp(C).overall == PASS
    assert check_strong_almost_to_almost(C).overall == PASS
    assert check_Cf_to_Mu(C).overall == PASS


def test_cesaro_pinned_trends():
    C = cesaro_kernel()
    bp = check_cbp_regular(C)
    strips = condition(bp, "column-strips")
    assert np.allclose(values(strips), [1 / 5, 1 / 9, 1 / 17], rtol=1e-13)
    # each row sums (m+1)(n+1) copies of its reciprocal, so ulps accumulate
    assert condition(bp, "row-abs-sup").constants["sup"] == pytest.approx(1.0, rel=1e-12)
    assert condition(bp, "row-sum-limit").constants["total"] == 1.0

    sb = check_strong_to_bp(C)
    sparse_k = condition(sb, "sparse-delta-k(diagonal)")
    assert values(sparse_k) == [1 / 25, 1 / 81, 1 / 289]
    sparse_l = condition(sb, "sparse-delta-l(diagonal)")
    assert values(sparse_l) == [1 / 25, 1 / 81, 1 / 289]

    ar = check_almost_regular(C)
    entries = condition(ar, "window-entry-limits")
    want = [(sum(1 / (k + 1) for k in range(q + 1)) / (q + 1)) ** 2 for q in (2, 6, 14)]
    assert np.allclose(values(entries), want, rtol=1e-12)
    col = condition(ar, "window-column-strips")
    assert col.trend[0][1] == pytest.approx(11 / 18, rel=1e-12)


def test_sparse_delta_trend_matches_loop_oracle():
    C = cesaro_kernel()
    rep = check_strong_to_bp(C, stages=SMALL)
    cond = condition(rep, "sparse-delta-k(diagonal)")
    S = max(SMALL)
    B4 = C.block4(S, S, S, S)
    for side, got in cond.trend:
        tl = (side + 1) // 2
        worst = 0.0
        for m in range(tl, side + 1):
            for n in range(tl, side + 1):
                acc = 0.0
                for k in range(side + 1):
                    nxt = B4[m, n, k + 1, k] if k + 1 <= S else 0.0
                    acc += abs(B4[m, n, k, k] - nxt)
                worst = max(worst, acc)
        assert got == pytest.approx(worst, rel=1e-12, abs=1e-15)


def test_identity_kernel_suite_verdicts():
    I = identity_kernel()
    assert check_cbp_regular(I).overall == PASS
    assert check_almost_regular(I).overall == PASS
    # pointwise copying destroys no window mean, so the delta totals decay
    sr = check_strongly_regular(I)
    assert sr.overall == PASS
    dk = condition(sr, "window-delta-k-total")
    assert np.allclose(values(dk), [2 / 3, 2 / 7, 2 / 15], rtol=1e-12)
    assert values(condition(sr, "window-delta-l-total")) == values(dk)
    # but the sparse difference sums sit at 1 forever
    sb = check_strong_to_bp(I)
    assert sb.overall == FAIL
    assert values(condition(sb, "sparse-delta-k(diagonal)")) == [1.0, 1.0, 1.0]
    sa = check_strong_almost_to_almost(I)
    assert sa.overall == FAIL
    assert values(condition(sa, "sparse-delta-kl(diagonal)")) == [2.0, 2.0, 2.0]


def test_growing_rows_fail_bounded_row_sums():
    grow = FourDimMatrix(
        entry=lambda m, n, k, l: float(m + 1) if (k == m and l == n) else 0.0,
        triangular=True,
        name="growing-diagonal",
    )
    rep = check_Cf_to_Mu(grow, stages=SMALL)
    assert rep.overall == FAIL
    assert condition(rep, "row-abs-sup").verdict == FAIL
    assert values(condition(rep, "row-abs-sup")) == [5.0, 7.0, 9.0]
    assert check_Cf_to_Mu(cesaro_kernel(), stages=SMALL).overall == PASS


def test_b_domain_classes_delegate_to_derived_kernels():
    C = cesaro_kernel()
    with pytest.raises(ValueError, match="unknown class id"):
        check_B_domain_class(C, "BSCf_to_Cr", P1)
    rep = check_B_domain_class(C, "BSCf_to_Mu", P1, stages=SMALL)
    assert rep.class_id == "BSCf_to_Mu"
    direct = check_Cf_to_Mu(e_kernel(C, P1), stages=SMALL)
    assert rep.overall == direct.overall
    assert [c.trend for c in rep.conditions] == [c.trend for c in direct.conditions]

    rep2 = check_B_domain_class(C, "SCf_to_BCbp", P1, stages=SMALL)
    direct2 = check_strong_to_bp(g_kernel(C, P1), stages=SMALL)
    assert rep2.class_id == "SCf_to_BCbp"
    assert rep2.overall == direct2.overall
    assert [c.trend for c in rep2.conditions] == [c.trend for c in direct2.conditions]
    assert set(B_DOMAIN_CLASS_IDS) == {
        "BSCf_to_Cf", "BSCf_to_Mu", "BSCf_to_Cbp", "SCf_to_BMu", "SCf_to_BCbp",
    }


def test_averaging_preserves_window_limits_of_members():
    # the strongly-regular kernel sends each member to its window limit
    C = cesaro_kernel()
    assert check_strongly_regular(C).overall == PASS
    for name, L in (("e", 1.0), ("zero", 0.0), ("impulse", 0.0)):
        y = apply(C, corpus(name), "bp", Truncation(128, 128)).sequence
        v = almost_limit(y)
        assert v.decision == "converges", name
        assert abs(v.candidate_limit - L) <= 1e-3, name


# ---------------------------------------------------------------------------
# dual conditions

def test_dual_condition_ids_and_unknown():
    assert DUAL_CONDITION_IDS == ("d1", "d2", "d3", "d4", "d5", "d6", "d7", "alpha")
    with pytest.raises(ValueError, match="unknown dual condition"):
        dual_membership(corpus("impulse"), "d9", P1)


def test_impulse_dual_conditions_pinned():
    a = corpus("impulse")
    d1 = dual_membership(a, "d1", P1)
    assert d1.condition_id == "transform-row-abs-sup"
    assert d1.verdict == PASS
    assert values(d1) == [1 / 6, 1 / 6, 1 / 6]
    assert d1.constants["sup"] == 1 / 6

    d2 = dual_membership(a, "d2", P1)
    assert d2.verdict == PASS
    assert values(d2) == [0.0, 0.0, 0.0]
    # the unscaled fold of the impulse is identically one at the origin column
    assert d2.constants["beta[0,0]"] == 1.0
    assert all(
        v == 0.0 for k, v in d2.constants.items() if k != "beta[0,0]"
    )

    d3 = dual_membership(a, "d3", P1)
    assert d3.verdict == PASS
    assert values(d3) == [0.0, 0.0, 0.0]
    assert d3.constants["total"] == 1 / 6

    for which in ("d4", "d5"):
        rep = dual_membership(a, which, P1)
        assert rep.verdict == PASS
        assert values(rep) == [0.0, 0.0, 0.0]

    # the lone spike never smooths out: the difference sums stay at 1/(r t)
    for which, cid in (("d6", "transform-sparse-delta-l(diagonal)"),
                       ("d7", "transform-sparse-delta-k(diagonal)")):
        rep = dual_membership(a, which, P1)
        assert rep.condition_id == cid
        assert rep.verdict == FAIL
        assert values(rep) == [1 / 6, 1 / 6, 1 / 6]

    full = beta_dual_report(a, P1)
    assert full.overall == FAIL
    verdicts = {c.condition_id: c.verdict for c in full.conditions}
    assert sum(1 for v in verdicts.values() if v == FAIL) == 2


def test_d1_matches_fold_kernel_rows():
    a = corpus("checkerboard")
    rep = dual_membership(a, "d1", P1, stages=SMALL)
    D4 = d_kernel(a, P1).block4(max(SMALL), max(SMALL), max(SMALL), max(SMALL))
    rows = np.abs(D4).sum(axis=(2, 3))
    for side, got in rep.trend:
        assert got == float(rows[: side + 1, : side + 1].max())


def test_zero_sequence_passes_beta():
    rep = beta_dual_report(corpus("zero"), P1, stages=SMALL)
    assert rep.overall == PASS
    assert all(values(c) == [0.0, 0.0, 0.0] for c in rep.conditions if c.condition_id != "transform-row-abs-sup")


def test_alpha_requires_contractive_band():
    with pytest.raises(ValueError, match="absolute-summability"):
        dual_membership(corpus("e"), "alpha", P0)


def test_alpha_on_geometric_coefficients():
    a = DoubleSequence(
        rule=lambda k, l: 0.5 ** k * 0.5 ** l,
        name="geometric",
        description="separable geometric decay",
    )
    # the default stages stop while the l1 trend is still moving
    short = dual_membership(a, "alpha", P1, stages=(8, 16, 32))
    assert short.condition_id == "abs-sum-trend"
    assert short.verdict == UNDECIDED
    long = dual_membership(a, "alpha", P1, stages=(8, 16, 32, 64))
    assert long.verdict == PASS
    assert long.constants["sum"] == 4.0


def test_gamma_reports():
    rep = gamma_dual_report(corpus("zero"), P1, stages=SMALL)
    assert rep.overall == PASS
    rep2 = gamma_dual_report(corpus("e"), P1, stages=SMALL)
    assert rep2.overall == FAIL
    verdicts = [c.verdict for c in rep2.conditions]
    assert verdicts == [FAIL, FAIL]
    ids = [c.condition_id for c in rep2.conditions]
    assert ids == ["transform-row-abs-sup", "product-partial-sums-bounded"]


# ---------------------------------------------------------------------------
# streamed reductions against the whole-block formulas

STREAM_STAGES = (8, 16, 32)
S_MAX = max(STREAM_STAGES)


def _plain_kernels():
    return {
        "cesaro": cesaro_kernel,
        "identity": identity_kernel,
        "b": lambda: b_kernel(P1),
        "f": lambda: f_kernel(P1),
    }


def _stream_kernels():
    kernels = dict(_plain_kernels())
    for name, make in _plain_kernels().items():
        kernels[f"e[{name}]"] = lambda make=make: e_kernel(make(), P1)
        kernels[f"g[{name}]"] = lambda make=make: g_kernel(make(), P1)
    kernels["d[checkerboard]"] = lambda: d_kernel(corpus("checkerboard"), P1)
    kernels["non-triangular"] = lambda: matrix_from_array(
        np.random.default_rng(17).uniform(-1.0, 1.0, size=(S_MAX + 1,) * 4), name="non-triangular"
    )
    kernels["signed-zeros"] = lambda: matrix_from_array(
        -cesaro_kernel().block4(S_MAX, S_MAX, S_MAX, S_MAX), triangular=True, name="signed-zeros"
    )
    return kernels


def _exact(conditions):
    """(id, trend, constants) with every float as hex, so that -0.0 != 0.0."""
    return [
        (cid, [(side, float(v).hex()) for side, v in trend], {k: float(v).hex() for k, v in consts.items()})
        for cid, trend, consts in conditions
    ]


def _reported(report):
    return [(c.condition_id, c.trend, c.constants) for c in report.conditions]


SPARSE_SETS = (diagonal_set(), first_row_set())


def _suite_pairs(B4, st):
    """(streamed suite, whole-block oracle conditions) for every dense suite."""
    return [
        (lambda A: check_cbp_conservative(A, st), oracles.cbp_conditions(B4, st, regular=False)),
        (lambda A: check_cbp_regular(A, st), oracles.cbp_conditions(B4, st, regular=True)),
        (
            lambda A: check_strong_to_bp(A, SPARSE_SETS, st),
            oracles.cbp_conditions(B4, st, regular=True)
            + oracles.sparse_delta_conditions(B4, SPARSE_SETS, st, ("k", "l")),
        ),
        (lambda A: check_almost_conservative(A, st), oracles.almost_conditions(B4, st, False, False)),
        (lambda A: check_almost_regular(A, st), oracles.almost_conditions(B4, st, True, False)),
        (lambda A: check_strongly_regular(A, st), oracles.almost_conditions(B4, st, True, True)),
        (
            lambda A: check_strong_almost_to_almost(A, SPARSE_SETS, st),
            oracles.almost_conditions(B4, st, True, False)
            + oracles.sparse_delta_conditions(B4, SPARSE_SETS, st, ("kl",)),
        ),
        # the row-pairing probe reads single rows and is not a block reduction
        (lambda A: check_Cf_to_Mu(A, st), [oracles.row_abs_sup(B4, st)]),
    ]


@pytest.mark.parametrize("name", sorted(_stream_kernels()))
def test_streamed_suites_match_whole_block_formulas(name):
    A = _stream_kernels()[name]()
    B4 = A.block4(S_MAX, S_MAX, S_MAX, S_MAX)
    for suite, want in _suite_pairs(B4, STREAM_STAGES):
        got = [c for c in _reported(suite(A)) if c[0] != "rows-beta-probe"]
        assert _exact(got) == _exact(want)


@pytest.mark.parametrize("name", ["signed-zeros", "non-triangular", "d[checkerboard]"])
def test_prefix_ring_rows_match_whole_block_cumsum(name):
    A = _stream_kernels()[name]()
    want = oracles.row_prefix_table(A.block4(S_MAX, S_MAX, S_MAX, S_MAX))
    windows = _WindowMeans(STREAM_STAGES, with_deltas=False, estimate=False)
    ring = windows.ring
    assert len(ring) == canonical_extents(S_MAX)[0] + 2
    assert ring[0].tobytes() == want[0].tobytes()
    for m, slab in enumerate(A.slabs(S_MAX, S_MAX, S_MAX, S_MAX)):
        windows.add(m, slab)
        assert ring[(m + 1) % len(ring)].tobytes() == want[m + 1].tobytes()


@pytest.mark.parametrize("name", ["checkerboard", "impulse", "boos", "alt-col"])
def test_streamed_duals_match_whole_block_formulas(name):
    a = corpus(name)
    D4 = oracles.d_block(a, P1, S_MAX, S_MAX, S_MAX, S_MAX)
    st = STREAM_STAGES
    _, trend, consts = oracles.row_abs_sup(D4, st)
    want = [("transform-row-abs-sup", trend, consts)]
    want += oracles.sparse_delta_conditions(D4, (diagonal_set(),), st, ("l", "k"), "transform-sparse-delta")
    got = [dual_membership(a, which, P1, st) for which in ("d1", "d6", "d7")]
    assert _exact([(c.condition_id, c.trend, c.constants) for c in got]) == _exact(want)


def test_beta_report_builds_each_fold_cube_once(monkeypatch):
    built = []
    for name in ("_fold_cube_fixed_l", "_fold_cube_fixed_k"):
        def counting(ag, sigma, tau, j, real=getattr(classcheck, name), name=name):
            built.append((name, j))
            return real(ag, sigma, tau, j)

        monkeypatch.setattr(classcheck, name, counting)
    beta_dual_report(corpus("checkerboard"), P1, SMALL)
    assert sorted(built) == [(name, j) for name in ("_fold_cube_fixed_k", "_fold_cube_fixed_l") for j in range(3)]


def test_suites_and_duals_never_build_a_block(monkeypatch):
    def refuse(self, *dims):
        raise AssertionError(f"block4{dims} called on {self.name}")

    monkeypatch.setattr(FourDimMatrix, "block4", refuse)
    suites = (
        check_cbp_conservative, check_cbp_regular, check_strong_to_bp, check_almost_conservative,
        check_almost_regular, check_strongly_regular, check_strong_almost_to_almost, check_Cf_to_Mu,
    )
    C = cesaro_kernel()
    for A in (C, b_kernel(P1), e_kernel(C, P1), g_kernel(C, P1), d_kernel(corpus("boos"), P1)):
        for suite in suites:
            suite(A, stages=SMALL)
    for cls in B_DOMAIN_CLASS_IDS:
        check_B_domain_class(C, cls, P1, SMALL)
    a = corpus("checkerboard")
    beta_dual_report(a, P1, SMALL)
    gamma_dual_report(a, P1, SMALL)
    for which in DUAL_CONDITION_IDS:
        dual_membership(a, which, P1, SMALL)
    # and no kernel has a field to keep one in
    assert "_cache" not in {f.name for f in dataclasses.fields(FourDimMatrix)}


# ---------------------------------------------------------------------------
# memory: each suite streams its kernel's row slabs

BLOCK_BYTES = (S_MAX + 1) ** 4 * 8


def _traced_peak_blocks(run):
    """Peak traced allocation of run() in units of one dense S_MAX block."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / BLOCK_BYTES


# Ceilings, from the traced peaks with a little room: no suite holds a block.
# The window-mean suites hold a ring of q_hi + 2 = 17 row-prefix rows
# (17 34 33^2 / 33^4 = 0.53) and the means' probe strips (side^3, 0.14);
# the bp suites hold side^3 probe strips (6/33); the B-domain suites add the
# base kernel's slab and the fold's temporaries; the beta duals hold one fold
# cube of side 2 S_MAX + 1 at a time (65^3 / 33^4 = 0.23).
MEMORY_CEILINGS = [
    ("cbp-regular", lambda: check_cbp_regular(cesaro_kernel(), STREAM_STAGES), 0.3),
    ("cbp-conservative", lambda: check_cbp_conservative(cesaro_kernel(), STREAM_STAGES), 0.3),
    ("strong-to-bp", lambda: check_strong_to_bp(cesaro_kernel(), stages=STREAM_STAGES), 0.35),
    ("Cf-to-Mu", lambda: check_Cf_to_Mu(cesaro_kernel(), STREAM_STAGES), 0.1),
    ("almost-conservative", lambda: check_almost_conservative(cesaro_kernel(), STREAM_STAGES), 0.82),
    ("almost-regular", lambda: check_almost_regular(cesaro_kernel(), STREAM_STAGES), 0.82),
    ("strongly-regular", lambda: check_strongly_regular(cesaro_kernel(), STREAM_STAGES), 0.82),
    (
        "strong-almost-to-almost",
        lambda: check_strong_almost_to_almost(cesaro_kernel(), stages=STREAM_STAGES),
        0.82,
    ),
    ("BSCf_to_Cf", lambda: check_B_domain_class(cesaro_kernel(), "BSCf_to_Cf", P1, STREAM_STAGES), 0.87),
    ("BSCf_to_Mu", lambda: check_B_domain_class(cesaro_kernel(), "BSCf_to_Mu", P1, STREAM_STAGES), 0.15),
    ("BSCf_to_Cbp", lambda: check_B_domain_class(cesaro_kernel(), "BSCf_to_Cbp", P1, STREAM_STAGES), 0.36),
    ("SCf_to_BMu", lambda: check_B_domain_class(cesaro_kernel(), "SCf_to_BMu", P1, STREAM_STAGES), 0.25),
    ("SCf_to_BCbp", lambda: check_B_domain_class(cesaro_kernel(), "SCf_to_BCbp", P1, STREAM_STAGES), 0.45),
    ("beta", lambda: beta_dual_report(corpus("checkerboard"), P1, STREAM_STAGES), 0.3),
    ("gamma", lambda: gamma_dual_report(corpus("checkerboard"), P1, STREAM_STAGES), 0.15),
]


@pytest.mark.parametrize("name, run, ceiling", MEMORY_CEILINGS, ids=[c[0] for c in MEMORY_CEILINGS])
def test_suite_memory_stays_under_its_block_ceiling(name, run, ceiling):
    assert _traced_peak_blocks(run) <= ceiling
