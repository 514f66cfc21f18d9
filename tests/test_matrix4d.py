import numpy as np
import pytest

from dsumm.seqcore import DoubleSequence, Truncation, corpus, norm_strong, from_array
from dsumm.matrix4d import (
    BParams,
    FourDimMatrix,
    apply,
    b_kernel,
    b_transform,
    cesaro_kernel,
    compose,
    d_kernel,
    e_kernel,
    f_kernel,
    g_kernel,
    identity_kernel,
    inverse_transform,
    matrix_from_array,
    norm_BCf,
    zero_kernel,
)

import oracles

P1 = BParams(2, 1, 3, 1)
P0 = BParams(1, -1, 1, -1)
PC = BParams(2, 1, 3, 1)  # sigma=-1/2, tau=-1/3, contractive


def random_triangular(rng, side):
    vals = rng.uniform(-1.0, 1.0, size=(side + 1,) * 4)
    idx = np.arange(side + 1)
    tri = (idx[None, None, :, None] <= idx[:, None, None, None]) & (
        idx[None, None, None, :] <= idx[None, :, None, None]
    )
    return matrix_from_array(vals * tri, triangular=True, name="rand")


# ---------------------------------------------------------------------------
# parameters

def test_bparams_validation_and_ratios():
    with pytest.raises(ValueError):
        BParams(0, 1, 1, 1)
    with pytest.raises(ValueError):
        BParams(1, 1, 0, 1)
    p = BParams(2, 1, 3, 1)
    assert p.sigma == -0.5
    assert p.tau == pytest.approx(-1 / 3)
    assert p.rt == 6.0
    assert p.contractive
    assert not BParams(1, -1, 1, -1).contractive


# ---------------------------------------------------------------------------
# band kernel

def test_b_kernel_band_entries():
    B = b_kernel(P1)  # su=1, st=3, ru=2, rt=6
    m, n = 4, 5
    assert B(m, n, m - 1, n - 1) == 1.0
    assert B(m, n, m - 1, n) == 3.0
    assert B(m, n, m, n - 1) == 2.0
    assert B(m, n, m, n) == 6.0
    assert B(m, n, m - 2, n) == 0.0
    assert B(m, n, m, n + 1) == 0.0
    # first row and column lose the negative-index terms
    assert B(0, 0, 0, 0) == 6.0
    assert B(0, 3, 0, 2) == 2.0
    assert B(3, 0, 2, 0) == 3.0


def test_b_kernel_block_matches_entries():
    B = b_kernel(P1)
    blk = B.block4(5, 4, 5, 4)
    for m in range(6):
        for n in range(5):
            for k in range(6):
                for l in range(5):
                    assert blk[m, n, k, l] == B(m, n, k, l)


def test_b_transform_matches_brute_force():
    x = corpus("boos")
    y = b_transform(x, P1)
    g = y.grid(6, 6)
    for m in range(7):
        for n in range(7):
            brute = 0.0
            if m >= 1 and n >= 1:
                brute += 1.0 * x(m - 1, n - 1)
            if m >= 1:
                brute += 3.0 * x(m - 1, n)
            if n >= 1:
                brute += 2.0 * x(m, n - 1)
            brute += 6.0 * x(m, n)
            assert g[m, n] == brute
            assert y(m, n) == brute


def test_b_transform_checkerboard_witness():
    # with s=-r, u=-t the interior image is exactly +-2rt
    for r, t in ((1.0, 1.0), (2.0, 0.5), (3.0, 1.0)):
        p = BParams(r, -r, t, -t)
        g = b_transform(corpus("checkerboard"), p).grid(8, 8)
        interior = np.abs(g[1:, 1:])
        assert np.all(interior == 2.0 * abs(r * t))


# ---------------------------------------------------------------------------
# inverse kernel

def test_f_kernel_entries():
    F = f_kernel(P1)
    m, n = 3, 3
    assert F(m, n, m, n) == pytest.approx(1 / 6)
    assert F(m, n, m - 1, n) == pytest.approx(-1 / 12)
    assert F(m, n, m, n - 1) == pytest.approx(-1 / 18)
    assert F(m, n, m + 1, n) == 0.0
    # general entry sigma^(m-k) tau^(n-l) / rt
    assert F(4, 5, 1, 2) == pytest.approx(((-0.5) ** 3) * ((-1 / 3) ** 3) / 6)


def test_inverse_of_impulse_is_geometric():
    y = corpus("impulse")
    x = inverse_transform(y, P1)
    g = x.grid(8, 8)
    mm, nn = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
    want = ((-0.5) ** mm) * ((-1 / 3) ** nn) / 6.0
    assert np.max(np.abs(g - want)) < 1e-15


def test_roundtrip_both_directions():
    for name in ("boos", "checkerboard", "alt-col"):
        x = corpus(name)
        for p in (P0, P1):
            back = inverse_transform(b_transform(x, p), p)
            assert np.max(np.abs(back.grid(24, 24) - x.grid(24, 24))) < 1e-10
            # forward after backward as well
            fwd = b_transform(inverse_transform(x, p), p)
            assert np.max(np.abs(fwd.grid(24, 24) - x.grid(24, 24))) < 1e-10


def test_inverse_scalar_rule_matches_grid():
    y = corpus("alt-col")
    x = inverse_transform(y, P1)
    g = x.grid(10, 10)
    for m in range(0, 11, 3):
        for n in range(0, 11, 2):
            assert x(m, n) == g[m, n]


# ---------------------------------------------------------------------------
# composition

def test_compose_inverse_pairs_give_identity():
    tr = Truncation(12, 12)
    I4 = identity_kernel().block4(12, 12, 12, 12)
    for p in (P0, P1):
        left = compose(f_kernel(p), b_kernel(p), tr).block4(12, 12, 12, 12)
        right = compose(b_kernel(p), f_kernel(p), tr).block4(12, 12, 12, 12)
        assert np.max(np.abs(left - I4)) < 1e-12
        assert np.max(np.abs(right - I4)) < 1e-12


def test_compose_matches_brute_force():
    rng = np.random.default_rng(3)
    A = random_triangular(rng, 6)
    B = b_kernel(P1)
    tr = Truncation(6, 6)
    C = compose(A, B, tr)
    for m in range(7):
        for n in range(7):
            for k in range(m + 1):
                for l in range(n + 1):
                    brute = 0.0
                    for mp in range(7):
                        for np_ in range(7):
                            brute += A(m, n, mp, np_) * B(mp, np_, k, l)
                    assert C(m, n, k, l) == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# derived kernels

def test_d_kernel_constant_sequence_counts_cells():
    # sigma = tau = 1 turns the fold into plain counting
    D = d_kernel(corpus("e"), P0)
    for m, n, k, l in ((3, 4, 1, 2), (5, 5, 0, 0), (2, 2, 2, 2)):
        assert D(m, n, k, l) == (m - k + 1) * (n - l + 1)
    assert D(3, 4, 4, 0) == 0.0


def test_d_kernel_matches_direct_sum():
    a = corpus("checkerboard")
    D = d_kernel(a, PC)
    sigma, tau, rt = PC.sigma, PC.tau, PC.rt
    blk = D.block4(6, 6, 6, 6)
    for m in range(7):
        for n in range(7):
            for k in range(m + 1):
                for l in range(n + 1):
                    brute = 0.0
                    for j in range(k, m + 1):
                        for i in range(l, n + 1):
                            brute += sigma ** (j - k) * tau ** (i - l) * a(j, i)
                    brute /= rt
                    assert blk[m, n, k, l] == pytest.approx(brute, abs=1e-13)
                    assert D(m, n, k, l) == pytest.approx(brute, abs=1e-13)


def test_d_kernel_impulse_single_entry():
    D = d_kernel(corpus("impulse"), P1)
    for m in range(4):
        for n in range(4):
            assert D(m, n, 0, 0) == pytest.approx(1 / 6)
    assert D(3, 3, 1, 0) == 0.0
    assert D(3, 3, 0, 2) == 0.0


def test_e_kernel_matches_direct_sum():
    rng = np.random.default_rng(5)
    A = random_triangular(rng, 6)
    E = e_kernel(A, PC)
    sigma, tau, rt = PC.sigma, PC.tau, PC.rt
    for m in range(7):
        for n in range(7):
            for k in range(m + 1):
                for l in range(n + 1):
                    brute = 0.0
                    for i in range(k, m + 1):
                        for j in range(l, n + 1):
                            brute += sigma ** (i - k) * tau ** (j - l) * A(m, n, i, j)
                    brute /= rt
                    assert E(m, n, k, l) == pytest.approx(brute, abs=1e-13)


def test_e_kernel_apply_identity():
    # A x == E(A) (B x) entry for entry on the truncation
    rng = np.random.default_rng(9)
    A = random_triangular(rng, 8)
    x = from_array(rng.uniform(-1, 1, size=(9, 9)))
    tr = Truncation(8, 8)
    left = apply(A, x, "bp", tr).grid
    right = apply(e_kernel(A, PC), b_transform(x, PC), "bp", tr).grid
    assert np.max(np.abs(left - right)) < 1e-12


def test_g_kernel_matches_shifted_rows():
    rng = np.random.default_rng(13)
    A = random_triangular(rng, 5)
    G = g_kernel(A, P1)  # su=1, st=3, ru=2, rt=6
    blk = G.block4(5, 5, 5, 5)
    for m in range(6):
        for n in range(6):
            for k in range(6):
                for l in range(6):
                    brute = 6.0 * A(m, n, k, l)
                    if m >= 1 and n >= 1:
                        brute += 1.0 * A(m - 1, n - 1, k, l)
                    if m >= 1:
                        brute += 3.0 * A(m - 1, n, k, l)
                    if n >= 1:
                        brute += 2.0 * A(m, n - 1, k, l)
                    assert blk[m, n, k, l] == pytest.approx(brute, abs=1e-13)
                    assert G(m, n, k, l) == pytest.approx(brute, abs=1e-13)


def test_fold_transforms_match_the_row_loop():
    # d and e fold all rows of one m together; each row must round as when folded alone
    negative = from_array(np.random.default_rng(2).uniform(-1.0, -0.5, size=(10, 10)))
    x = from_array(np.random.default_rng(3).uniform(-1.0, 1.0, size=(10, 10)))
    # a row of -0.0 starts its recursion by a copy: -0.0 + tau * 0.0 is +0.0 for tau > 0
    signed_zeros = from_array(np.full((10, 10), -0.0))
    cases = [(d_kernel(a, p), a.grid, p)
             for a in (corpus("checkerboard"), corpus("boos"), negative, signed_zeros)
             for p in (PC, P0, BParams(-1, 3, 2, -5))]
    for A in _derived_bases():
        cases.append((e_kernel(A, PC), lambda m, n, A=A: A.row_block(m, n, m, n), PC))
    for fold, base_row, p in cases:
        for M, N in ((9, 6), (3, 9), (1, 1)):
            want = oracles.fold_transform(base_row, x.grid(M, N), p)
            assert _bits_equal(apply(fold, x, "bp", Truncation(M, N)).grid, want)
        for m, n in ((7, 3), (2, 9), (0, 0)):
            W = oracles.fold_row(base_row(m, n), p.sigma, p.tau) / p.rt
            row = fold.row_block(m, n, 10, 10)
            assert _bits_equal(row[: m + 1, : n + 1], W)
            assert not row[m + 1:].any() and not row[:, n + 1:].any()


def test_e_kernel_refuses_non_triangular_kernels():
    full = matrix_from_array(np.ones((4, 4, 4, 4)), triangular=False, name="full")
    with pytest.raises(ValueError, match="triangular"):
        e_kernel(full, PC)
    e_kernel(matrix_from_array(np.ones((4, 4, 4, 4)), triangular=True), PC)


def _bits_equal(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _derived_bases():
    rng = np.random.default_rng(21)
    signed_zeros = -cesaro_kernel().block4(9, 9, 9, 9)  # -0.0 off the triangle
    return [
        cesaro_kernel(),
        identity_kernel(),
        b_kernel(P1),
        f_kernel(PC),
        random_triangular(rng, 9),
        matrix_from_array(signed_zeros, triangular=True, name="signed-zeros"),
    ]


@pytest.mark.parametrize("dims", [(9, 9, 9, 9), (9, 7, 5, 8), (4, 9, 9, 2)])
def test_slab_built_blocks_match_whole_block_formulas(dims):
    # a negative a(0, 0) makes -0.0 entries that a running sum must keep
    negative = from_array(np.random.default_rng(2).uniform(-1.0, -0.5, size=(10, 10)))
    for p in (P1, P0, BParams(-1, 3, 2, -5)):
        for a in (corpus("checkerboard"), corpus("boos"), corpus("impulse"), negative):
            assert _bits_equal(d_kernel(a, p).block4(*dims), oracles.d_block(a, p, *dims))
        for A in _derived_bases():
            assert _bits_equal(g_kernel(A, p).block4(*dims), oracles.g_block(A, p, *dims))
            assert _bits_equal(e_kernel(A, p).block4(*dims), oracles.e_block(A, p, *dims))
    rng = np.random.default_rng(3)
    full = matrix_from_array(rng.uniform(-1, 1, size=(10, 10, 10, 10)), name="full")
    assert _bits_equal(g_kernel(full, P1).block4(*dims), oracles.g_block(full, P1, *dims))


def _plain_and_derived_kernels():
    """(name, kernel, whole-block oracle of (K, L, I, J)) for every built-in kernel."""
    rng = np.random.default_rng(31)
    signed_zeros = -oracles.cesaro_block(9, 9, 9, 9)  # -0.0 off the triangle
    full = rng.uniform(-1.0, 1.0, size=(10, 10, 10, 10))
    a = corpus("checkerboard")
    return [
        ("b", b_kernel(P1), lambda *d: oracles.b_block(P1, *d)),
        ("f", f_kernel(PC), lambda *d: oracles.f_block(PC, *d)),
        ("cesaro", cesaro_kernel(), oracles.cesaro_block),
        ("identity", identity_kernel(), oracles.identity_block),
        ("zero", zero_kernel(), lambda K, L, I, J: np.zeros((K + 1, L + 1, I + 1, J + 1))),
        (
            "signed-zeros",
            matrix_from_array(signed_zeros, triangular=True),
            lambda *d: oracles.array_block(signed_zeros, *d),
        ),
        ("non-triangular", matrix_from_array(full), lambda *d: oracles.array_block(full, *d)),
        ("d", d_kernel(a, PC), lambda *d: oracles.d_block(a, PC, *d)),
        ("e", e_kernel(cesaro_kernel(), PC), lambda *d: oracles.e_block(cesaro_kernel(), PC, *d)),
        ("g", g_kernel(f_kernel(PC), P1), lambda *d: oracles.g_block(f_kernel(PC), P1, *d)),
        ("g-full", g_kernel(matrix_from_array(full), P1),
         lambda *d: oracles.g_block(matrix_from_array(full), P1, *d)),
    ]


@pytest.mark.parametrize("dims", [(9, 9, 9, 9), (9, 7, 5, 8), (4, 9, 9, 2)])
def test_kernel_slabs_match_whole_block_formulas(dims):
    for name, A, block in _plain_and_derived_kernels():
        want = block(*dims)
        assert _bits_equal(A.block4(*dims), want), name
        for start in (0, 3):
            slabs = list(A.slabs(*dims, start=start))
            assert len(slabs) == dims[0] + 1 - start, name
            assert all(s.flags.c_contiguous for s in slabs), name
            assert _bits_equal(np.stack(slabs), want[start:]), name


def test_rows_match_block_rows():
    # rows from a row rule or, without one, from a slab; d and e fold each row
    # on its own, which rounds differently from their block formulas
    for name, A, block in _plain_and_derived_kernels():
        if name in ("d", "e"):
            continue
        want = block(9, 9, 9, 9)
        for m, n, K, L in ((0, 0, 9, 9), (5, 3, 4, 9), (9, 9, 2, 6), (7, 0, 9, 0)):
            assert _bits_equal(A.row_block(m, n, K, L), want[m, n, : K + 1, : L + 1]), name


def test_g_row_rule_matches_its_block_rows():
    rng = np.random.default_rng(13)
    bases = (random_triangular(rng, 9), cesaro_kernel(),
             matrix_from_array(rng.uniform(-1.0, 1.0, size=(10,) * 4), name="full"))
    for A in bases:
        for p in (P1, BParams(-1, 3, 2, -5)):
            G = g_kernel(A, p)
            blk = oracles.g_block(A, p, 9, 9, 9, 9)
            for m in range(10):
                for n in range(10):
                    assert _bits_equal(G.row_block(m, n, 9, 9), blk[m, n])


def test_rows_past_the_dense_block_limit_still_evaluate():
    # a row is one side^2 array: the limit on (m+1)(n+1)(K+1)(L+1) refuses no row
    S = 80
    B = b_kernel(P1)
    B_slabs_only = FourDimMatrix(entry=B.entry, triangular=True, slab_rule=B.slab_rule)

    def b_row(m, n):
        return np.array([[B(m, n, k, l) for l in range(S + 1)] for k in range(S + 1)])

    assert _bits_equal(B_slabs_only.row_block(S, S, S, S), b_row(S, S))
    assert _bits_equal(B.row_block(S, S, S, S), b_row(S, S))
    su, st, ru, rt = P1.s * P1.u, P1.s * P1.t, P1.r * P1.u, P1.r * P1.t
    want_g = su * b_row(S - 1, S - 1) + st * b_row(S - 1, S) + ru * b_row(S, S - 1) + rt * b_row(S, S)
    for base in (B, B_slabs_only):
        assert _bits_equal(g_kernel(base, P1).row_block(S, S, S, S), want_g)
    k = np.arange(S + 1)[:, None]
    l = np.arange(S + 1)[None, :]
    want_e = np.zeros((S + 1, S + 1))
    for i, j, val in ((S - 1, S - 1, su), (S - 1, S, st), (S, S - 1, ru), (S, S, rt)):
        with np.errstate(divide="ignore"):
            term = val * P1.sigma ** (i - k).astype(float) * P1.tau ** (j - l).astype(float) / rt
        want_e += np.where((k <= i) & (l <= j), term, 0.0)
    for base in (B, B_slabs_only):
        np.testing.assert_allclose(e_kernel(base, P1).row_block(S, S, S, S), want_e, rtol=1e-12, atol=1e-15)


def test_entry_only_rows_evaluate_one_row():
    calls = []

    def entry(m, n, k, l):
        calls.append((m, n))
        return float(m + 2 * n - k * l)

    A = FourDimMatrix(entry=entry)
    row = A.row_block(5, 3, 4, 6)
    assert set(calls) == {(5, 3)} and len(calls) == 5 * 7
    assert _bits_equal(row, next(A.slabs(5, 3, 4, 6, start=5))[3])


def test_slabs_keep_the_dense_block_limit():
    with pytest.raises(ValueError, match="exceeds the dense limit"):
        cesaro_kernel().slabs(79, 79, 79, 79)
    cesaro_kernel().slabs(78, 78, 78, 78)
    with pytest.raises(ValueError, match="exceeds the dense limit"):
        e_kernel(cesaro_kernel(), P1).block4(79, 79, 79, 79)


def test_g_of_identity_is_band():
    G = g_kernel(identity_kernel(), P1)
    B = b_kernel(P1)
    for m in range(5):
        for n in range(5):
            for k in range(5):
                for l in range(5):
                    assert G(m, n, k, l) == B(m, n, k, l)


# ---------------------------------------------------------------------------
# named kernels and application

def test_cesaro_kernel_entries_and_fixed_point():
    C = cesaro_kernel()
    assert C(3, 4, 1, 2) == pytest.approx(1 / 20)
    assert C(3, 4, 4, 0) == 0.0
    out = apply(C, corpus("e"), "bp", Truncation(16, 16))
    assert np.array_equal(out.grid, np.ones((17, 17)))
    assert out.exact


def test_cesaro_averages_impulse():
    out = apply(cesaro_kernel(), corpus("impulse"), "bp", Truncation(8, 8))
    mm, nn = np.meshgrid(np.arange(9), np.arange(9), indexing="ij")
    want = 1.0 / ((mm + 1.0) * (nn + 1.0))
    assert np.max(np.abs(out.grid - want)) < 1e-15


def test_identity_and_zero_kernels():
    x = corpus("boos")
    tr = Truncation(10, 10)
    assert np.array_equal(apply(identity_kernel(), x, "bp", tr).grid, x.grid(10, 10))
    assert np.all(apply(zero_kernel(), x, "bp", tr).grid == 0.0)


def test_apply_rejects_unknown_mode():
    with pytest.raises(ValueError):
        apply(identity_kernel(), corpus("e"), "weird", Truncation(4, 4))


def test_apply_reports_tail_diagnostics_for_full_kernel():
    # rows that keep summing forever should be flagged as not stabilized
    ones = np.ones((9, 9, 9, 9))
    A = matrix_from_array(ones, triangular=False, name="all-ones")
    out = apply(A, corpus("e"), "bp", Truncation(8, 8))
    assert not out.exact
    assert not out.all_stabilized
    assert np.max(out.tail_change) > 0


def test_matrix_from_array_triangle_enforcement():
    arr = np.ones((3, 3, 3, 3))
    A = matrix_from_array(arr, triangular=True, name="clip")
    assert A(1, 1, 2, 0) == 0.0
    assert A(1, 1, 1, 1) == 1.0
    B = matrix_from_array(arr, triangular=False, name="full")
    assert B(1, 1, 2, 0) == 1.0
    with pytest.raises(ValueError):
        A(-1, 0, 0, 0)
    with pytest.raises(ValueError):
        matrix_from_array(np.ones((2, 2)), triangular=True)


def test_triangular_array_kernels_agree_on_every_path():
    arr = np.ones((3, 3, 3, 3))
    arr[2, 1, 2, 2] = -0.0  # a stored signed zero past the triangle is kept
    A = matrix_from_array(arr, triangular=True)
    block = A.block4(2, 2, 2, 2)
    slabs = np.stack(list(A.slabs(2, 2, 2, 2)))
    for m, n, k, l in np.ndindex(arr.shape):
        tri = k <= m and l <= n
        assert A(m, n, k, l) == (1.0 if tri else 0.0)
        assert block[m, n, k, l] == A(m, n, k, l)
        assert slabs[m, n, k, l] == A(m, n, k, l)
        assert A.row_block(m, n, 2, 2)[k, l] == A(m, n, k, l)
    assert np.signbit(block[2, 1, 2, 2]) and np.signbit(A.row_block(2, 1, 2, 2)[2, 2])
    assert arr[1, 1, 2, 0] == 1.0  # the caller's array is not changed


# ---------------------------------------------------------------------------
# norm identity

def test_norm_BCf_is_strong_norm_of_image():
    tr = Truncation(16, 16)
    for name in ("e", "boos", "checkerboard", "alt-col"):
        x = corpus(name)
        for p in (P0, P1):
            assert norm_BCf(x, p, tr) == norm_strong(b_transform(x, p), tr)
