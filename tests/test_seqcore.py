import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsumm.seqcore import (
    DoubleSequence,
    Index,
    Truncation,
    Window,
    abs_window_mean,
    corpus,
    corpus_names,
    from_array,
    lq_norm,
    norm_Cf,
    norm_strong,
    padded_prefix,
    partial_sums,
    sup_abs,
    window_mean,
    window_sum_table,
)
from dsumm.matrix4d import BParams

P0 = BParams(1, -1, 1, -1)
P1 = BParams(2, 1, 3, 1)

PARAMETRIC = ("k-over-rt", "alt-k-over-rt", "alt-col-preimage")


def entry(name, params=P0):
    return corpus(name, params) if name in PARAMETRIC else corpus(name)


# ---------------------------------------------------------------------------
# primitives

def test_index_rejects_negative():
    with pytest.raises(ValueError):
        Index(-1, 0)
    with pytest.raises(ValueError):
        Index(0, -2)


def test_window_cardinality():
    assert Window(0, 0, 0, 0).cardinality == 1
    assert Window(3, 5, 2, 4).cardinality == 15
    with pytest.raises(ValueError):
        Window(0, 0, -1, 0)


def test_truncation_bounds():
    assert Truncation(4, 7).cell_count == 40
    with pytest.raises(ValueError):
        Truncation(0, 5)


def test_sequence_rejects_negative_index():
    x = corpus("e")
    with pytest.raises(ValueError):
        x(-1, 0)


def test_grid_cache_grows_consistently():
    x = corpus("checkerboard")
    small = x.grid(4, 4).copy()
    big = x.grid(9, 9)
    assert np.array_equal(big[:5, :5], small)
    assert x.grid(3, 8).shape == (4, 9)


def test_point_queries_read_the_cached_grid():
    calls = []

    def grid_rule(M, N):
        calls.append((M, N))
        k = np.arange(M + 1, dtype=float)[:, None]
        l = np.arange(N + 1, dtype=float)[None, :]
        return np.sin(k + 0.1) / (l + 3.0)

    x = DoubleSequence(name="counted", grid_rule=grid_rule)
    g = x.grid(8, 8).copy()
    assert calls == [(8, 8)]
    for k in range(9):
        for l in range(9):
            assert x(k, l) == g[k, l], (k, l)
    assert calls == [(8, 8)]
    x(10, 3)
    assert calls == [(8, 8), (10, 8)]
    assert np.array_equal(x.grid(8, 8), g)


def test_sequence_needs_a_rule():
    with pytest.raises(ValueError):
        DoubleSequence(name="x")


def test_from_array_bounds():
    x = from_array([[1.0, 2.0], [3.0, 4.0]])
    assert x(1, 0) == 3.0
    with pytest.raises(ValueError):
        x.grid(5, 5)
    with pytest.raises(ValueError):
        from_array([1.0, 2.0])


# ---------------------------------------------------------------------------
# corpus values

def test_corpus_names_complete():
    assert corpus_names() == sorted(
        [
            "e",
            "zero",
            "impulse",
            "boos",
            "alt-col",
            "checkerboard",
            "k-over-rt",
            "alt-k-over-rt",
            "alt-col-preimage",
        ]
    )
    with pytest.raises(ValueError):
        corpus("nosuch")
    with pytest.raises(ValueError):
        corpus("k-over-rt")  # needs parameters


def test_corpus_pinned_values():
    assert corpus("boos")(0, 7) == 7.0
    assert corpus("boos")(3, 7) == 0.0
    assert corpus("e")(12, 3) == 1.0
    assert corpus("zero")(5, 5) == 0.0
    assert corpus("impulse")(0, 0) == 1.0
    assert corpus("impulse")(0, 1) == 0.0
    assert corpus("alt-col")(4, 3) == -1.0
    assert corpus("alt-col")(7, 0) == 1.0
    assert corpus("checkerboard")(2, 2) == 1.0
    assert corpus("checkerboard")(2, 3) == 0.0


def test_parametric_corpus_values():
    x = corpus("k-over-rt", P1)  # rt = 6
    assert x(0, 9) == 0.0
    assert x(12, 0) == 12 / 6
    y = corpus("alt-k-over-rt", P1)
    assert y(5, 0) == 5 / 6
    assert y(5, 1) == -5 / 6


def test_corpus_grid_matches_scalar_rule():
    for name in corpus_names():
        for params in (P0, P1):
            x = entry(name, params)
            g = x.grid(12, 9)
            for k in range(13):
                for l in range(10):
                    assert g[k, l] == x(k, l), (name, k, l)


def test_alt_col_preimage_maps_to_alt_col():
    from dsumm.matrix4d import b_transform

    target = corpus("alt-col").grid(16, 16)
    # integer band: the back-substitution is exact arithmetic, so bit-equal
    y0 = b_transform(corpus("alt-col-preimage", P0), P0)
    assert np.array_equal(y0.grid(16, 16), target)
    # fractional band: round trip is correct to a few ulp
    y1 = b_transform(corpus("alt-col-preimage", P1), P1)
    assert np.max(np.abs(y1.grid(16, 16) - target)) < 1e-12


# ---------------------------------------------------------------------------
# window plumbing

def test_padded_prefix_shape_and_values():
    g = np.arange(6.0).reshape(2, 3)
    P = padded_prefix(g)
    assert P.shape == (3, 4)
    assert P[0].tolist() == [0, 0, 0, 0]
    assert P[2, 3] == g.sum()


def test_window_sum_table_against_loops():
    rng = np.random.default_rng(7)
    g = rng.uniform(-1, 1, size=(9, 7))
    P = padded_prefix(g)
    for q in range(4):
        for qp in range(4):
            table = window_sum_table(P, q, qp)
            assert table.shape == (9 - q, 7 - qp)
            for m in range(table.shape[0]):
                for n in range(table.shape[1]):
                    brute = g[m : m + q + 1, n : n + qp + 1].sum()
                    assert abs(table[m, n] - brute) < 1e-12
    with pytest.raises(ValueError):
        window_sum_table(P, 9, 0)


def test_window_mean_single_cell_is_pointwise():
    x = corpus("boos")
    for k, l in ((0, 4), (3, 2), (5, 0)):
        assert window_mean(x, Window(k, l, 0, 0)) == x(k, l)


def test_window_mean_alt_col_column_strip():
    x = corpus("alt-col")
    # columns 0..2 contribute +1 -1 +1
    assert window_mean(x, Window(0, 0, 0, 2)) == pytest.approx(1 / 3)
    assert window_mean(x, Window(2, 1, 3, 1)) == 0.0


def test_abs_window_mean_recenter():
    x = corpus("alt-col")
    w = Window(0, 0, 1, 1)
    assert abs_window_mean(x, w) == 1.0
    assert abs_window_mean(x, w, L=1.0) == 1.0  # |1-1|=0 and |-1-1|=2 average to 1
    assert abs_window_mean(corpus("e"), w, L=1.0) == 0.0


# ---------------------------------------------------------------------------
# norms

def test_norm_values_pinned():
    tr = Truncation(4, 4)
    assert norm_Cf(corpus("e"), tr) == 1.0
    assert norm_Cf(corpus("zero"), tr) == 0.0
    assert norm_Cf(corpus("alt-col"), tr) == 1.0
    assert norm_strong(corpus("alt-col"), tr) == 1.0
    assert sup_abs(corpus("boos"), Truncation(10, 10)) == 10.0


def test_norm_chain_on_corpus():
    tr = Truncation(12, 12)
    for name in corpus_names():
        x = entry(name)
        a, b, c = norm_Cf(x, tr), norm_strong(x, tr), sup_abs(x, tr)
        assert a <= b + 1e-15, name
        assert b <= c + 1e-15, name


def test_norm_monotone_in_truncation():
    x = corpus("boos")
    assert norm_Cf(x, Truncation(4, 4)) <= norm_Cf(x, Truncation(8, 8))
    assert norm_strong(x, Truncation(4, 4)) <= norm_strong(x, Truncation(8, 8))


def test_norm_homogeneity_dyadic():
    base = corpus("checkerboard").grid(8, 8)
    tr = Truncation(8, 8)
    x = from_array(base)
    for c in (2.0, 0.5, -4.0):
        y = from_array(c * base)
        assert norm_Cf(y, tr) == abs(c) * norm_Cf(x, tr)
        assert norm_strong(y, tr) == abs(c) * norm_strong(x, tr)
        assert sup_abs(y, tr) == abs(c) * sup_abs(x, tr)


def test_lq_norm_values():
    assert lq_norm(corpus("e"), Truncation(9, 9), 1.0) == 100.0
    assert lq_norm(corpus("zero"), Truncation(9, 9), 1.0) == 0.0
    with pytest.raises(ValueError):
        lq_norm(corpus("e"), Truncation(4, 4), 0.5)


def test_lq_norm_geometric_trend():
    def rule(k, l):
        return float(2.0 ** (-k) * 2.0 ** (-l))

    x = DoubleSequence(rule=rule, name="geometric")
    values = [lq_norm(x, Truncation(s, s), 1.0) for s in (8, 16, 32)]
    expected = [(2.0 - 2.0 ** (-s)) ** 2 for s in (8, 16, 32)]
    for got, want in zip(values, expected):
        assert got == pytest.approx(want, rel=1e-12)
    assert abs(values[-1] - 4.0) < 1e-6


def test_lq_norm_q2_matches_direct_sum():
    x = corpus("boos")
    g = np.abs(x.grid(6, 6))
    assert lq_norm(x, Truncation(6, 6), 2.0) == pytest.approx(
        float((g ** 2).sum()) ** 0.5, rel=1e-14
    )


# ---------------------------------------------------------------------------
# partial sums

def test_partial_sums_impulse_all_one():
    s = partial_sums(corpus("impulse"))
    arr = s.array(6, 6)
    assert np.array_equal(arr, np.ones((7, 7)))


def test_partial_sums_value_and_recovery():
    x = corpus("checkerboard")
    s = partial_sums(x)
    assert s.value(1, 1) == 2.0  # two ones in the 2x2 corner
    for m in range(6):
        for n in range(6):
            assert s.second_difference(m, n) == x(m, n)


def test_partial_sums_recover_random_grid():
    rng = np.random.default_rng(11)
    arr = rng.integers(-3, 4, size=(7, 7)).astype(float)
    s = partial_sums(from_array(arr))
    for m in range(7):
        for n in range(7):
            assert s.second_difference(m, n) == arr[m, n]


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_window_mean_constant_sequence(m, n, q, qp):
    assert window_mean(corpus("e"), Window(m, n, q, qp)) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-8, 8, allow_nan=False), min_size=9, max_size=9))
def test_window_scan_bounds_pointwise_sup(values):
    # the 1x1 windows make the strong norm track the sup norm; the scan
    # reads window sums off a prefix table, so allow an ulp of cancellation
    arr = np.array(values).reshape(3, 3)
    x = from_array(arr)
    tr = Truncation(2, 2)
    assert norm_Cf(x, tr) <= sup_abs(x, tr) + 1e-10
    assert norm_strong(x, tr) == pytest.approx(sup_abs(x, tr), rel=1e-10, abs=1e-10)
