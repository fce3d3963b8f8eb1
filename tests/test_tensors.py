"""Tests for the multiway-array toolbox: products, unfoldings, rank-one fits."""

import functools
import math

import numpy as np
import pytest

from hdris.tensors import (
    _CERTIFICATE_TOL,
    _GRAM_SLAB,
    ComplexTensor,
    RankOneFactors,
    _fix_phase,
    _tail_power,
    dominant_left_singular_vector,
    eigh_top,
    fold,
    gram_macs,
    hosvd_rank1,
    hosvd_rank1_macs,
    khatri_rao,
    kron,
    psd_top,
    unfold,
    vec,
)
from oracles import (
    MacCounter,
    counted_matmul,
    crandn,
    dominant_pair_oracle,
    dominant_pairs_oracle,
    hosvd_rank1_oracle,
    identity_tensor,
    n_mode_product,
    phase_distance,
    reconstruct,
    reshape,
    tensorize,
)


def unit(rng, n):
    v = crandn(rng, n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# ComplexTensor container
# ---------------------------------------------------------------------------


def test_tensor_basic_properties():
    # the constructor keeps a complex128 copy of its input
    data = np.arange(24, dtype=complex).reshape(2, 3, 4)
    x = ComplexTensor(data)
    assert x.data.shape == (2, 3, 4)
    assert not np.shares_memory(x.data, data)
    np.testing.assert_array_equal(x.data, data)
    assert ComplexTensor(np.arange(3)).data.dtype == np.complex128


def test_tensor_vec_round_trip():
    rng = np.random.default_rng(0)
    data = crandn(rng, 2, 3, 4)
    x = ComplexTensor(data)
    y = ComplexTensor(vec(x).reshape((2, 3, 4), order="F"))
    assert x == y
    np.testing.assert_array_equal(x.data, y.data)


def test_tensor_vec_is_column_major():
    # first mode varies fastest in the flattened vector
    data = np.array([[1.0, 3.0], [2.0, 4.0]], dtype=complex)
    np.testing.assert_array_equal(vec(ComplexTensor(data)), [1, 2, 3, 4])


def test_tensor_is_immutable():
    x = ComplexTensor(np.ones((2, 2), dtype=complex))
    with pytest.raises(AttributeError):
        x.data = np.zeros((2, 2))
    with pytest.raises(ValueError):
        x.data[0, 0] = 5.0


def test_tensor_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        ComplexTensor(np.array(1.0 + 0j))
    with pytest.raises(ValueError):
        ComplexTensor(np.ones((2, 0, 3), dtype=complex))


def test_tensor_equality_and_inequality():
    a = ComplexTensor(np.ones((2, 2), dtype=complex))
    b = ComplexTensor(np.ones((2, 2), dtype=complex))
    c = ComplexTensor(np.ones((4,), dtype=complex))
    assert a == b
    assert a != c
    assert a != "not a tensor"


# ---------------------------------------------------------------------------
# Kronecker / Khatri-Rao products
# ---------------------------------------------------------------------------


def test_kron_of_identities():
    np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basic_example():
    a = np.array([[1.0], [2.0]])
    b = np.array([[1.0], [0.0]])
    np.testing.assert_array_equal(kron(a, b), [[1.0], [0.0], [2.0], [0.0]])


def test_kron_mixed_product_property():
    # (A (x) B)(C (x) D) == (AC) (x) (BD)
    rng = np.random.default_rng(1)
    a, b = crandn(rng, 3, 2), crandn(rng, 4, 5)
    c, d = crandn(rng, 2, 3), crandn(rng, 5, 2)
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_kron_elementwise_oracle():
    rng = np.random.default_rng(2)
    a, b = crandn(rng, 3, 2), crandn(rng, 2, 4)
    out = kron(a, b)
    for i in range(3):
        for j in range(2):
            for k in range(2):
                for l in range(4):
                    np.testing.assert_allclose(
                        out[i * 2 + k, j * 4 + l], a[i, j] * b[k, l], rtol=1e-13
                    )


@pytest.mark.parametrize(
    "shapes",
    [((4,), (3,)), ((3, 3), (2, 2)), ((3, 2), (2, 5)), ((1, 4), (3, 2)),
     ((3, 2), (1, 4)), ((4, 1), (2, 3)), ((2, 3), (4, 1)), ((4,), (3, 2)),
     ((3, 2), (5,))],
    ids=["vec-vec", "square", "non-square", "row-left", "row-right",
         "column-left", "column-right", "vec-mat", "mat-vec"],
)
def test_kron_matches_np_kron_bitwise(shapes):
    rng = np.random.default_rng(3)
    a, b = (crandn(rng, *shape) for shape in shapes)
    for x, y in ((a, b), (a.real, b), (a, b.real), (a.real, b.real)):
        got, want = kron(x, y), np.kron(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_kron_rejects_other_orders():
    for a, b in ((np.ones((2, 2, 2)), np.ones(2)), (np.ones(2), np.float64(2.0))):
        with pytest.raises(ValueError, match="vectors or matrices"):
            kron(a, b)


def test_khatri_rao_identity_columns():
    out = khatri_rao(np.eye(2), np.eye(2))
    expected = np.zeros((4, 2))
    expected[0, 0] = 1.0  # e1 (x) e1
    expected[3, 1] = 1.0  # e2 (x) e2
    np.testing.assert_array_equal(out, expected)


def test_khatri_rao_columnwise_oracle():
    rng = np.random.default_rng(3)
    a, b = crandn(rng, 3, 5), crandn(rng, 4, 5)
    out = khatri_rao(a, b)
    assert out.shape == (12, 5)
    for n in range(5):
        np.testing.assert_allclose(out[:, n], kron(a[:, n], b[:, n]))


def test_khatri_rao_of_rank_one_matrices():
    # (a b^T) kr (c d^T) has columns b[n] d[n] (a (x) c)
    rng = np.random.default_rng(4)
    a, b = crandn(rng, 3), crandn(rng, 5)
    c, d = crandn(rng, 2), crandn(rng, 5)
    out = khatri_rao(np.outer(a, b), np.outer(c, d))
    for n in range(5):
        np.testing.assert_allclose(out[:, n], b[n] * d[n] * kron(a, c), atol=1e-12)


def test_khatri_rao_input_validation():
    with pytest.raises(ValueError):
        khatri_rao(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValueError):
        khatri_rao(np.ones(3), np.ones((2, 3)))


def test_vec_of_matrix_products():
    # vec(A diag(d) B) == (B^T kr A) d  and vec(A X B) == (B^T (x) A) vec(X)
    rng = np.random.default_rng(5)
    a, b = crandn(rng, 4, 3), crandn(rng, 3, 5)
    d = crandn(rng, 3)
    lhs = vec(a @ np.diag(d) @ b)
    rhs = khatri_rao(b.T, a) @ d
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    x = crandn(rng, 3, 3)
    np.testing.assert_allclose(vec(a @ x @ b), kron(b.T, a) @ vec(x), atol=1e-12)


# ---------------------------------------------------------------------------
# Unfoldings
# ---------------------------------------------------------------------------


def test_unfold_shapes():
    x = ComplexTensor(np.arange(24, dtype=complex).reshape(2, 3, 4, order="F"))
    assert unfold(x, 1).shape == (2, 12)
    assert unfold(x, 2).shape == (3, 8)
    assert unfold(x, 3).shape == (4, 6)


def test_unfold_rank_one_structure():
    # mode-2 unfolding of u o v o w equals outer(v, kron(w, u))
    rng = np.random.default_rng(6)
    u, v, w = crandn(rng, 3), crandn(rng, 4), crandn(rng, 2)
    x = ComplexTensor(np.multiply.outer(np.multiply.outer(u, v), w))
    np.testing.assert_allclose(unfold(x, 2), np.outer(v, kron(w, u)), atol=1e-12)
    np.testing.assert_allclose(unfold(x, 1), np.outer(u, kron(w, v)), atol=1e-12)
    np.testing.assert_allclose(unfold(x, 3), np.outer(w, kron(v, u)), atol=1e-12)


def test_unfold_explicit_index_oracle():
    # column index of the mode-n unfolding: remaining indices in increasing
    # mode order, earlier modes varying fastest
    rng = np.random.default_rng(7)
    dims = (2, 3, 2, 4)
    x = ComplexTensor(crandn(rng, *dims))
    mat = unfold(x, 3)
    for i0 in range(2):
        for i1 in range(3):
            for i2 in range(2):
                for i3 in range(4):
                    col = i0 + 2 * i1 + 6 * i3
                    assert mat[i2, col] == x.data[i0, i1, i2, i3]


def test_fold_round_trips_all_modes():
    rng = np.random.default_rng(8)
    for _ in range(10):
        order = int(rng.integers(1, 7))
        dims = tuple(int(rng.integers(1, 6)) for _ in range(order))
        x = ComplexTensor(crandn(rng, *dims))
        for mode in range(1, order + 1):
            assert fold(unfold(x, mode), mode, dims) == x


def test_fold_rejects_wrong_shape():
    with pytest.raises(ValueError):
        fold(np.ones((2, 5), dtype=complex), 1, (2, 3, 4))


def test_mode_out_of_range():
    x = ComplexTensor(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        unfold(x, 0)
    with pytest.raises(ValueError):
        unfold(x, 3)
    with pytest.raises(ValueError):
        fold(np.ones((2, 3), dtype=complex), 5, (2, 3))


# ---------------------------------------------------------------------------
# n-mode products
# ---------------------------------------------------------------------------


def test_n_mode_identity_is_noop():
    rng = np.random.default_rng(9)
    x = ComplexTensor(crandn(rng, 2, 3, 4))
    for mode, ext in zip((1, 2, 3), (2, 3, 4)):
        assert n_mode_product(x, np.eye(ext), mode) == x


def test_n_mode_product_unfolding_contract():
    rng = np.random.default_rng(10)
    x = ComplexTensor(crandn(rng, 2, 3, 4))
    a = crandn(rng, 5, 3)
    y = n_mode_product(x, a, 2)
    assert y.data.shape == (2, 5, 4)
    np.testing.assert_allclose(unfold(y, 2), a @ unfold(x, 2), atol=1e-12)


def test_n_mode_products_commute_across_modes():
    rng = np.random.default_rng(11)
    x = ComplexTensor(crandn(rng, 2, 3, 4))
    a, b = crandn(rng, 4, 2), crandn(rng, 5, 4)
    y1 = n_mode_product(n_mode_product(x, a, 1), b, 3)
    y2 = n_mode_product(n_mode_product(x, b, 3), a, 1)
    np.testing.assert_allclose(y1.data, y2.data, atol=1e-12)


def test_n_mode_product_explicit_sum():
    rng = np.random.default_rng(12)
    x = ComplexTensor(crandn(rng, 2, 3))
    a = crandn(rng, 4, 3)
    y = n_mode_product(x, a, 2)
    for i in range(2):
        for j in range(4):
            assert np.isclose(y.data[i, j], np.sum(x.data[i, :] * a[j, :]))


def test_identity_tensor_factorization():
    # I x1 A x2 B x3 C has mode-1 unfolding A (C kr B)^T
    rng = np.random.default_rng(13)
    a, b, c = crandn(rng, 4, 3), crandn(rng, 5, 3), crandn(rng, 2, 3)
    x = identity_tensor(3, 3)
    y = n_mode_product(n_mode_product(n_mode_product(x, a, 1), b, 2), c, 3)
    np.testing.assert_allclose(unfold(y, 1), a @ khatri_rao(c, b).T, atol=1e-12)


def test_identity_tensor_entries():
    x = identity_tensor(3, 2)
    assert x.data.shape == (2, 2, 2)
    assert x.data[0, 0, 0] == 1.0 and x.data[1, 1, 1] == 1.0
    assert np.count_nonzero(x.data) == 2
    with pytest.raises(ValueError):
        identity_tensor(0, 2)
    with pytest.raises(ValueError):
        identity_tensor(2, 0)


def test_n_mode_product_validation():
    x = ComplexTensor(np.ones((2, 3), dtype=complex))
    with pytest.raises(ValueError):
        n_mode_product(x, np.ones(3), 2)
    with pytest.raises(ValueError):
        n_mode_product(x, np.ones((4, 2)), 2)  # columns must match extent 3


# ---------------------------------------------------------------------------
# vec / tensorize / reshape
# ---------------------------------------------------------------------------


def test_vec_and_unvec_round_trip():
    # a column-major reshape undoes vec
    rng = np.random.default_rng(14)
    m = crandn(rng, 4, 6)
    np.testing.assert_array_equal(vec(m).reshape(4, 6, order="F"), m)


def test_tensorize_matches_outer_product():
    # stacking vec(a o b o c) back into a box reproduces the outer product,
    # and vec of the outer product is the reversed kron chain
    rng = np.random.default_rng(15)
    a, b, c = crandn(rng, 2), crandn(rng, 3), crandn(rng, 4)
    outer = np.multiply.outer(np.multiply.outer(a, b), c)
    v = kron(c, kron(b, a))
    t = tensorize(v, (2, 3, 4))
    np.testing.assert_allclose(t.data, outer, atol=1e-12)
    np.testing.assert_allclose(vec(ComplexTensor(outer)), v, atol=1e-12)


def test_tensorize_six_factor_chain():
    # same identity at order six, the shape used by the cascaded-channel fit
    rng = np.random.default_rng(16)
    vs = [crandn(rng, n) for n in (2, 3, 2, 2, 3, 2)]
    stacked = functools.reduce(np.multiply.outer, vs)
    chain = functools.reduce(kron, reversed(vs))
    t = tensorize(chain, tuple(v.size for v in vs))
    np.testing.assert_allclose(t.data, stacked, atol=1e-12)


def test_reshape_preserves_vec():
    rng = np.random.default_rng(17)
    x = ComplexTensor(crandn(rng, 2, 3, 4))
    y = reshape(x, (6, 4))
    np.testing.assert_array_equal(vec(y), vec(x))
    with pytest.raises(ValueError):
        reshape(x, (5, 5))


# ---------------------------------------------------------------------------
# dominant singular pair
# ---------------------------------------------------------------------------


def test_dominant_singular_vector_diagonal():
    u = dominant_left_singular_vector(np.diag([3.0, 1.0]).astype(complex))
    np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-12)


def test_dominant_singular_vector_rank_one():
    rng = np.random.default_rng(18)
    a, b = crandn(rng, 6), crandn(rng, 4)
    u = dominant_left_singular_vector(np.outer(a, b.conj()))
    assert np.isclose(abs(np.vdot(a / np.linalg.norm(a), u)), 1.0, atol=1e-10)


@pytest.mark.parametrize("shape", [(8, 6), (6, 8), (7, 7)])
def test_dominant_singular_vector_matches_svd(shape):
    rng = np.random.default_rng(19)
    m = crandn(rng, *shape)
    u = dominant_left_singular_vector(m)
    u_ref = np.linalg.svd(m)[0]
    assert np.isclose(abs(np.vdot(u_ref[:, 0], u)), 1.0, atol=1e-10)
    assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-12)


def test_dominant_singular_vector_zero_matrix():
    with pytest.raises(ValueError):
        dominant_left_singular_vector(np.zeros((3, 3), dtype=complex))


def test_dominant_singular_vector_counts_work():
    # the closed form == the oracle's counted Gram (and back-projection)
    # for wide, square and tall matrices
    rng = np.random.default_rng(21)
    for rows, cols in ((4, 8), (5, 5), (8, 4), (1, 3), (3, 1)):
        counter = MacCounter()
        dominant_pair_oracle(crandn(rng, rows, cols), counter)
        assert gram_macs(rows, cols) == counter.macs > 0
    assert (gram_macs(4, 8), gram_macs(8, 4)) == (4 * 8 * 4, 4 * 8 * 4 + 8 * 4)


@pytest.mark.parametrize("shape", [(3, 4, 7), (10, 7, 4), (1, 1, 1), (2, 1, 5)])
def test_dominant_singular_vector_stack_matches_loop(shape):
    rng = np.random.default_rng(31)
    m = crandn(rng, *shape)
    u = dominant_left_singular_vector(m)
    assert u.shape == shape[:-1]
    oracle = MacCounter()
    for i in range(len(m)):
        u_ref, _ = dominant_pair_oracle(m[i], oracle)
        assert phase_distance(u[i], u_ref) <= 1e-12
    # a single matrix returns one vector; a stack costs its batch times
    # one matrix's closed form
    u_one = dominant_left_singular_vector(m[0])
    assert u_one.shape == shape[-2:-1]
    assert phase_distance(u_one, u[0]) <= 1e-12
    assert oracle.macs == len(m) * gram_macs(*shape[-2:])


def test_dominant_singular_vector_stack_breaks_ties_like_loop():
    # exactly degenerate leading values: each matrix of the stack takes the
    # first eigenvector of the largest eigenvalue, as one call on it would
    m = np.stack([np.eye(3), np.diag([2.0, 2.0, 1.0]), np.diag([1.0, 3.0, 3.0])])
    m = m.astype(complex)
    for stack in (m, m[:, :, :2]):            # wide (square) and tall
        u = dominant_left_singular_vector(stack)
        for i in range(len(stack)):
            assert phase_distance(u[i], dominant_pair_oracle(stack[i])[0]) <= 1e-12
    # every wide member is a tie, so the stack gets eigh_top's bits
    np.testing.assert_array_equal(
        dominant_left_singular_vector(m), eigh_top(m @ m.conj().transpose(0, 2, 1))
    )


@pytest.mark.parametrize("shape", [(3, 4, 7), (10, 7, 4)])
def test_dominant_singular_vector_stack_rejects_any_zero(shape):
    rng = np.random.default_rng(33)
    for idx in (0, shape[0] - 1):
        m = crandn(rng, *shape)
        m[idx] = 0.0
        with pytest.raises(ValueError, match="zero matrix"):
            dominant_left_singular_vector(m)


def test_dominant_singular_vector_rejects_vectors():
    with pytest.raises(ValueError, match="expected a matrix"):
        dominant_left_singular_vector(np.ones(3, dtype=complex))


def test_dominant_singular_vector_rejects_deep_stacks():
    with pytest.raises(ValueError, match="expected a matrix"):
        dominant_left_singular_vector(np.ones((2, 5, 7, 4), dtype=complex))


def _unitary_columns(rng, rows, cols):
    q, _ = np.linalg.qr(crandn(rng, rows, cols))
    return q


def _mixed_stack(rng):
    """4 x 6 members: well separated, exactly rank one, a leading gap of
    relative size 1e-3 in sigma^2, and three exactly degenerate ones whose
    Grams are exact in floating point.  Returns (stack, degenerate idx)."""
    left, right = _unitary_columns(rng, 4, 4), _unitary_columns(rng, 6, 4)
    near = left @ np.diag([1.0, np.sqrt(1.0 - 1e-3), 0.5, 0.25]) @ right.conj().T
    pad = np.zeros((4, 6), dtype=complex)
    hadamard = pad.copy()
    hadamard[:2, :2] = [[1.0, 1.0], [1.0, -1.0]]
    hadamard[2, 2], hadamard[3, 3] = 0.5, 0.25
    phased = pad.copy()
    phased[[0, 1, 2], [3, 1, 5]] = [1.0, 1j, -1.0]
    members = [
        crandn(rng, 4, 6),
        np.outer(crandn(rng, 4), crandn(rng, 6).conj()),
        near,
        hadamard,
        np.eye(4, 6),
        phased,
        crandn(rng, 4, 6),
    ]
    return np.stack(members).astype(complex), [3, 4, 5]


class _RecordingEigh:
    """Stands in for np.linalg.eigh and keeps every matrix stack it gets."""

    def __init__(self):
        self.calls = []
        self._eigh = np.linalg.eigh

    def __call__(self, a):
        self.calls.append(np.array(a))
        return self._eigh(a)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("orient", ["wide", "tall"])
def test_dominant_singular_vector_certifies_or_falls_back(monkeypatch, scale, orient):
    # certified members match the per-matrix eigh oracle; only the exactly
    # degenerate members reach eigh, and they get its bits, whether they
    # come in the stack or one matrix at a time
    stack, degenerate = _mixed_stack(np.random.default_rng(41))
    if orient == "tall":
        stack = stack.transpose(0, 2, 1)
    stack = stack * scale
    refs = [dominant_pair_oracle(m)[0] for m in stack]
    eigh = _RecordingEigh()
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", eigh)
        u = dominant_left_singular_vector(stack)
        singles = [dominant_left_singular_vector(m) for m in stack]
    fallback = stack[degenerate]
    fallback_h = fallback.conj().transpose(0, 2, 1)
    gram = fallback @ fallback_h if orient == "wide" else fallback_h @ fallback
    assert len(eigh.calls) == 1 + len(degenerate)
    np.testing.assert_array_equal(eigh.calls[0], gram)
    for call, one in zip(eigh.calls[1:], gram):
        np.testing.assert_array_equal(call, one[None])
    for i, u_ref in enumerate(refs):
        for got in (u[i], singles[i]):
            if orient == "tall":            # back-projected in an arbitrary phase
                assert phase_distance(got, u_ref) <= 1e-12
            elif i in degenerate:
                np.testing.assert_array_equal(got, u_ref)
            else:
                assert np.linalg.norm(got - u_ref) <= 1e-12
    # a zero member anywhere still raises, before any eigendecomposition
    calls = len(eigh.calls)
    for idx in (0, 3, len(stack) - 1):
        zeroed = stack.copy()
        zeroed[idx] = 0.0
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh)
            with pytest.raises(ValueError, match="zero matrix"):
                dominant_left_singular_vector(zeroed)
    assert len(eigh.calls) == calls


def test_dominant_singular_vector_eigh_sees_only_uncertified(monkeypatch):
    # a well-separated stack never reaches eigh, and neither does a single
    # well-separated matrix, whether 2-D, transposed or a stack of one
    rng = np.random.default_rng(42)
    stack = crandn(rng, 9, 5, 8)
    cases = [stack, stack[0], stack[0].T, stack[:1]]
    refs = [dominant_pairs_oracle(m)[0] for m in cases]
    eigh = _RecordingEigh()
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    for m, u_ref in zip(cases, refs):
        u = dominant_left_singular_vector(m)
        assert u.shape == u_ref.shape
        assert phase_distance(u, u_ref) <= 1e-12
    assert eigh.calls == []


# ---------------------------------------------------------------------------
# psd_top: the matrix-vector tail of the stacked squaring
# ---------------------------------------------------------------------------


def _off_mass(mu, power):
    """1 - ||A^p / tr A^p||_F^2 of a PSD A with descending eigenvalues mu,
    summed without cancellation: sum_i nu_i (1 - nu_i)."""
    w = (np.asarray(mu) / mu[0]) ** power
    nu = w / w.sum()
    return nu[0] * nu[1:].sum() + np.sum(nu[1:] * (1.0 - nu[1:]))


def _bound_power(eps, n):
    """The tail power read off the stated bound, from scratch: the
    smallest p with 2 (s / (1 - s))^p <= 1e-14, or 0 when eps >= 1/2 or
    s > 1/(4n)."""
    if eps >= 0.5:
        return 0
    s = (1.0 - math.sqrt(1.0 - 2.0 * eps)) / 2.0
    if s > 0.25 / n:
        return 0
    p = 1
    while 2.0 * (s / (1.0 - s)) ** p > 1e-14:
        p += 1
    return p


def _longest_tail(n):
    """The longest tail the column rule lets start: the smallest p with
    2 (1 / (4n - 1))^p <= 1e-14, since s <= 1/(4n)."""
    return math.ceil(math.log(2e14) / math.log(4 * n - 1))


def _trace_one_spectra(rng, n, count):
    """Descending trace-one spectra of length n >= 2: the mass t off the
    lead on one eigenvalue (where the bound is tight), spread at random,
    tied across the trailing ones, or a near tie of the leading pair."""
    spectra = []
    for i in range(count):
        t = 10 ** rng.uniform(-7, math.log10(0.6))
        mu = np.zeros(n)
        kind = i % 4
        if kind == 0:
            mu[1] = t
        elif kind == 1:
            mu[1:] = t * rng.dirichlet(np.ones(n - 1))
        elif kind == 2:
            mu[1:] = t / (n - 1)
        else:
            gap = 10 ** rng.uniform(-6, -0.5)
            rest = min(t, 1e-2) if n > 2 else 0.0
            mu[:2] = (1.0 - rest) * np.array([1.0 + gap, 1.0 - gap]) / 2.0
            mu[2:] = rest / (n - 2) if n > 2 else 0.0
        mu[0] = 1.0 - mu[1:].sum()
        spectra.append(np.sort(mu)[::-1])
    return spectra


def test_tail_power_bound_holds_on_exact_spectra():
    # the power the tail reaches certifies every spectrum it starts on,
    # is the shortest the bound allows, and is refused only when the
    # bound cannot start; the column rule bounds its length
    rng = np.random.default_rng(51)
    entered = tight = 0
    for n in (2, 3, 4, 8, 16):
        for mu in _trace_one_spectra(rng, n, 400):
            eps = _off_mass(mu, 1)
            power = _tail_power(eps, n)
            assert power == _bound_power(eps, n)
            if eps >= 0.5:
                assert power == 0
            if power == 0:
                continue
            entered += 1
            assert 1 <= power <= _longest_tail(n)
            assert 1.0 - mu[0] <= 0.25 / n                  # the column rule held
            assert _off_mass(mu, power) <= _CERTIFICATE_TOL
            if np.count_nonzero(mu) == 2 and power > 1:     # tight: one power less fails
                tight += 1
                assert _off_mass(mu, power - 1) > _CERTIFICATE_TOL
    assert entered > 300 and tight > 100, (entered, tight)


def test_tail_power_refuses_without_a_bound():
    for n in (1, 2, 16):
        for eps in (0.5, 0.5 + 1e-12, 0.6, 0.9, 1.0 - 1e-9):
            assert _tail_power(eps, n) == 0
    # the column rule: s just above 1/(4n) refuses, just below starts
    # and the tail it starts there is the longest the rule allows
    for n in (2, 4, 16):
        s = 0.25 / n
        eps = 2.0 * s * (1.0 - s)
        assert _tail_power(eps * (1 + 1e-9), n) == 0
        assert _tail_power(eps * (1 - 1e-9), n) == _longest_tail(n)
    assert [_longest_tail(n) for n in (2, 3, 16)] == [17, 14, 8]


def _psd_stack(rng, spectra):
    """Hermitian PSD Grams (trace 1 to 8) with the given spectra, and the
    leading eigenvector of each."""
    grams, leads = [], []
    for mu in spectra:
        q = _unitary_columns(rng, len(mu), len(mu))
        grams.append(rng.uniform(1, 8) * (q * mu) @ q.conj().T)
        leads.append(q[:, 0])
    grams = np.stack(grams)
    grams = 0.5 * (grams + grams.conj().transpose(0, 2, 1))
    return grams, np.stack(leads)


def _expected_counts(spectra):
    """(squarings, tail products) that the bound prescribes for a stack,
    followed on the exact spectra."""
    mus = [np.asarray(mu, dtype=float) for mu in spectra]
    n = len(mus[0])
    for step in range(17):
        eps = [_off_mass(mu, 1) for mu in mus]
        if max(eps) <= 1e-14 or step == 16:
            return step, 0
        power = _bound_power(max(eps), n)
        if power:
            return step, power - 1
        mus = [mu ** 2 / np.sum(mu ** 2) for mu in mus]


class _RecordingMatmul:
    """Stands in for np.matmul and sorts the stacked calls it gets into
    squarings (A @ A) and tail products (A @ x with x a column stack)."""

    def __init__(self):
        self.kinds = []
        self._matmul = np.matmul

    def __call__(self, a, b, *args, **kwargs):
        if a is b:
            self.kinds.append("square")
        elif np.ndim(a) == 3 and np.shape(b)[-1:] == (1,):
            self.kinds.append("tail")
        else:
            self.kinds.append("other")
        return self._matmul(a, b, *args, **kwargs)


@pytest.mark.parametrize(
    "n, spectra",
    [
        # tight rank-two members entering at once: 2 (t/(1-t))^p <= 1e-14
        # first at p = 8 for t = 0.01
        (8, [[0.99, 0.01] + [0] * 6, [0.995, 0.005] + [0] * 6, [1.0 - 1e-4, 1e-4] + [0] * 6]),
        # one squaring takes t = 0.2 at n = 4 below the column rule's 1/16
        (4, [[0.8, 0.2, 0, 0], [0.9, 0.05, 0.03, 0.02]]),
        # a near tie: eps >= 1/2 for several squarings before any tail
        (4, [[0.5, 0.45, 0.05, 0], [0.7, 0.1, 0.1, 0.1]]),
        # n = 2, t = 0.115: just inside the column rule's 1/8, the tail
        # starts at once and runs to p = 17, 16 products
        (2, [[0.885, 0.115], [0.95, 0.05]]),
    ],
    ids=["at-once", "one-squaring", "near-tie", "n2-long-tail"],
)
def test_squared_top_tail_length(monkeypatch, n, spectra):
    # psd_top's stack route: the squarings stop, and the tail takes
    # exactly p - 1 products, where the bound on the exact spectra says;
    # no product precedes a squaring and no member falls back
    rng = np.random.default_rng(52)
    spectra = [np.asarray(mu, dtype=float) for mu in spectra]
    grams, leads = _psd_stack(rng, spectra)
    trace = np.trace(grams, axis1=1, axis2=2).real
    matmul, eigh = _RecordingMatmul(), _RecordingEigh()
    monkeypatch.setattr(np, "matmul", matmul)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    x = psd_top(grams, trace)
    monkeypatch.undo()
    squarings, products = _expected_counts(spectra)
    assert matmul.kinds == ["square"] * squarings + ["tail"] * products
    assert eigh.calls == []
    for i, lead in enumerate(leads):
        assert np.linalg.norm(_fix_phase(x[i:i + 1])[0] - _fix_phase(lead[None])[0]) <= 1e-13


# ---------------------------------------------------------------------------
# single-matrix squaring
# ---------------------------------------------------------------------------


def _signed_permutation(rng, n):
    """A unitary that is exact in floating point: a permutation matrix with
    entries from {1, 1j, -1, -1j}."""
    q = np.zeros((n, n), dtype=complex)
    q[rng.permutation(n), np.arange(n)] = 1j ** rng.integers(0, 4, n)
    return q


def _psd_cases(rng, n):
    """(name, Hermitian PSD Gram) pairs of size n, from exact rank one
    through shrinking leading gaps to exact ties (Grams exact in floating
    point, so the tie survives every squaring)."""
    v = crandn(rng, n)
    cases = [("rank-one", np.outer(v, v.conj()))]
    for gap in (0.5, 1e-2, 1e-6):
        mu = np.concatenate([[1.0, 1.0 - gap], rng.uniform(0.0, 1.0 - gap, n - 2)])
        q = _unitary_columns(rng, n, n)
        gram = rng.uniform(1, 8) * (q * mu) @ q.conj().T
        cases.append(("gap-%g" % gap, 0.5 * (gram + gram.conj().T)))
    for lead in sorted({2, n}):
        mu = np.concatenate([np.ones(lead), rng.uniform(0.0, 0.9, n - lead)])
        q = _signed_permutation(rng, n)
        cases.append(("tie-%d" % lead, 4.0 * (q * mu) @ q.conj().T))
    return cases


@pytest.mark.parametrize("n", [2, 4, 16, 64])
def test_psd_top_is_the_single_matrix_squared_top(monkeypatch, n):
    # each Gram goes through both routes, as a 2-D Gram, as a stack of one
    # and inside the stack of all cases, at unit and extreme scales: each
    # route makes the same fallback decision, a certified vector agrees
    # across them up to a phase, and a fallback (every exact tie) gets
    # eigh_top's bits
    cases = _psd_cases(np.random.default_rng(60 + n), n)
    decisions = set()
    for scale in (1.0, 1e-150, 1e150):
        grams = scale * np.stack([gram for _, gram in cases])
        traces = np.einsum("bii->b", grams).real
        eigh = _RecordingEigh()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", eigh)
            plain, one, fell_back = [], [], []
            for gram, trace in zip(grams, traces):
                calls = len(eigh.calls)
                plain.append(psd_top(gram, trace))
                fell_back.append(len(eigh.calls) > calls)
                one.append(psd_top(gram[None], trace[None])[0])
                assert len(eigh.calls) == calls + 2 * fell_back[-1]
            mixed = psd_top(grams, traces)
        np.testing.assert_array_equal(eigh.calls[-1], grams[fell_back])
        decisions.update(fell_back)
        for i, (name, _) in enumerate(cases):
            if name.startswith("tie"):
                assert fell_back[i], name
            if fell_back[i]:
                v_ref = eigh_top(grams[i:i + 1])[0]
                for v in (plain[i], one[i], mixed[i]):
                    np.testing.assert_array_equal(v, v_ref)
            else:
                for v in (one[i], mixed[i]):
                    assert phase_distance(v, plain[i]) <= 1e-14, name
    assert decisions == {True, False}


def test_psd_top_falls_back_when_one_over_trace_overflows():
    # member 2's Gram is subnormal, so 1/trace is inf and its scaled Gram
    # and mass are NaN: it never certifies and must reach the eigh
    # fallback, as a stack member and alone; a rule that picks fallbacks
    # by "1 - mass > tol" is false for NaN and returns NaN
    m = crandn(np.random.default_rng(0), 5, 4, 16)
    unscaled = eigh_top(m @ m.conj().transpose(0, 2, 1))
    m[2] *= 1e-160
    grams = m @ m.conj().transpose(0, 2, 1)
    traces = np.einsum("bii->b", grams).real
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(1.0 / traces[2])
        stacked = psd_top(grams, traces)
        alone = psd_top(grams[2], traces[2])
    assert np.isfinite(stacked).all() and np.isfinite(alone).all()
    overlaps = np.abs(np.einsum("bi,bi->b", stacked.conj(), unscaled))
    assert overlaps[2] >= 0.999999999
    np.testing.assert_allclose(np.delete(overlaps, 2), 1.0, atol=1e-12)
    assert abs(np.vdot(alone, unscaled[2])) >= 0.99999999


# ---------------------------------------------------------------------------
# rank-one factor container and the truncated orthogonal fit
# ---------------------------------------------------------------------------


def test_rank_one_factors_validation():
    ok = RankOneFactors(
        vectors=(np.array([1.0 + 0j, 0.0]), np.array([0.0, 1.0 + 0j])),
        core=2.0 + 1j,
    )
    assert reconstruct(ok).shape == (2, 2)
    with pytest.raises(ValueError):
        RankOneFactors(vectors=(np.array([2.0 + 0j, 0.0]),), core=1.0)


def test_hosvd_rank1_recovers_exact_rank_one():
    rng = np.random.default_rng(23)
    dims = (3, 2, 4, 2, 3, 2)
    vs = [unit(rng, n) for n in dims]
    core = 2.3 * np.exp(1.1j)
    x = ComplexTensor(core * functools.reduce(np.multiply.outer, vs))
    fit = hosvd_rank1(x)
    assert abs(abs(fit.core) - abs(core)) < 1e-10
    for v_true, v_hat in zip(vs, fit.vectors):
        assert abs(np.vdot(v_true, v_hat)) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(reconstruct(fit), x.data, atol=1e-10)


def test_hosvd_rank1_noisy_alignment():
    # 20 dB tensor-SNR: every mode vector should stay well aligned
    rng = np.random.default_rng(24)
    dims = (4, 4, 4, 4, 4, 4)
    for _ in range(5):
        vs = [unit(rng, n) for n in dims]
        sig = functools.reduce(np.multiply.outer, vs)
        noise = crandn(rng, *dims)
        noise *= np.linalg.norm(sig) * 10 ** (-20 / 20) / np.linalg.norm(noise)
        fit = hosvd_rank1(ComplexTensor(sig + noise))
        for v_true, v_hat in zip(vs, fit.vectors):
            assert abs(np.vdot(v_true, v_hat)) > 0.99


def test_hosvd_rank1_order_two_matches_svd():
    rng = np.random.default_rng(25)
    m = crandn(rng, 6, 4)
    fit = hosvd_rank1(ComplexTensor(m))
    u, s, vh = np.linalg.svd(m)
    best = s[0] * np.outer(u[:, 0], vh[0])
    np.testing.assert_allclose(reconstruct(fit), best, atol=1e-10)


def test_hosvd_rank1_near_orthogonal_fit_quality():
    # comparator: alternating power iterations converge to a (locally) best
    # rank-one fit; the one-shot orthogonal truncation must stay within a few
    # percent of that error even off the rank-one manifold
    def hopm(x, iters=60):
        data = np.asarray(x.data)
        gen = np.random.default_rng(0)
        vecs = [unit(gen, e) for e in data.shape]
        for _ in range(iters):
            for m in range(data.ndim):
                cur = data
                for j in range(data.ndim - 1, -1, -1):
                    if j != m:
                        cur = np.tensordot(cur, vecs[j].conj(), axes=(j, 0))
                vecs[m] = cur / np.linalg.norm(cur)
        cur = data
        for v in vecs:
            cur = np.tensordot(v.conj(), cur, axes=(0, 0))
        return functools.reduce(np.multiply.outer, vecs) * complex(cur)

    rng = np.random.default_rng(26)
    dims = (3, 2, 4, 2, 3, 2)
    for snr_db, slack in ((10, 1.05), (None, 1.15)):
        for _ in range(3):
            if snr_db is None:
                data = crandn(rng, *dims)
            else:
                vs = [unit(rng, n) for n in dims]
                sig = functools.reduce(np.multiply.outer, vs)
                noise = crandn(rng, *dims)
                noise *= np.linalg.norm(sig) * 10 ** (-snr_db / 20)
                noise /= np.linalg.norm(noise)
                data = sig + noise
            x = ComplexTensor(data)
            err_fit = np.linalg.norm(data - reconstruct(hosvd_rank1(x)))
            err_ref = np.linalg.norm(data - hopm(x))
            assert err_fit <= slack * err_ref


def test_hosvd_rank1_zero_tensor():
    with pytest.raises(ValueError):
        hosvd_rank1(ComplexTensor(np.zeros((2, 2, 2), dtype=complex)))


def test_hosvd_rank1_gauge_invariance():
    # rotating the input by a global phase only rotates the scalar core
    rng = np.random.default_rng(27)
    x = ComplexTensor(crandn(rng, 3, 4, 2))
    f1 = hosvd_rank1(x)
    f2 = hosvd_rank1(ComplexTensor(np.exp(0.9j) * x.data))
    for v1, v2 in zip(f1.vectors, f2.vectors):
        np.testing.assert_allclose(v1, v2, atol=1e-10)
    assert np.isclose(f2.core, np.exp(0.9j) * f1.core, atol=1e-10)


def test_hosvd_rank1_takes_plain_arrays():
    # an ndarray (here a non-contiguous view) gives the same fit as the
    # ComplexTensor wrapping a copy of it
    rng = np.random.default_rng(34)
    data = crandn(rng, 4, 3, 2, 5).transpose(2, 0, 3, 1)
    a, b = hosvd_rank1(data), hosvd_rank1(ComplexTensor(data))
    for va, vb in zip(a.vectors, b.vectors):
        np.testing.assert_allclose(va, vb, atol=1e-12)
    assert a.core == pytest.approx(b.core, rel=1e-12)


# re-indexed tensor layouts (ue_z, bs_z, ris_z, ue_y, bs_y, ris_y) of the
# estimator tests' SMALL, ODD, REF and WIDE dims and of the all-singleton
# plan, a generic order-3 shape, a tall order-2 shape, and a shape whose
# first mode's 7,007 columns take one full column slab of
# _GRAM_SLAB // 3 = 5,461 and a partial one, and whose second mode's
# 3 leading indices take slabs of 2 and 1
HOSVD_SHAPES = {
    "small": (2, 2, 4, 2, 2, 4),
    "odd": (1, 2, 2, 2, 3, 5),
    "ref": (4, 4, 4, 4, 4, 4),
    "wide": (4, 4, 16, 4, 4, 16),
    "singleton": (1, 1, 1, 1, 1, 1),
    "3x4x5": (3, 4, 5),
    "tall-5x2": (5, 2),
    "partial-slab": (3, 7, 11, 13, 7),
}


@pytest.mark.parametrize("shape", list(HOSVD_SHAPES.values()), ids=list(HOSVD_SHAPES))
def test_hosvd_rank1_matches_unfold_oracle(shape):
    # Grams of reshaped views and stacked eigh against one eigh per
    # unfolding; the input is a non-contiguous view, as in hdr
    rng = np.random.default_rng(sum(shape))
    data = crandn(rng, *shape[::-1]).transpose(*range(len(shape) - 1, -1, -1))
    oracle_counter = MacCounter()
    lean = hosvd_rank1(data)
    oracle = hosvd_rank1_oracle(data, counter=oracle_counter)
    assert len(lean.vectors) == len(shape)
    for got, want in zip(lean.vectors, oracle.vectors):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
    assert abs(lean.core - oracle.core) <= 1e-12 * abs(oracle.core)
    recon = reconstruct(oracle)
    assert np.linalg.norm(reconstruct(lean) - recon) <= 1e-12 * np.linalg.norm(recon)
    assert hosvd_rank1_macs(shape) == oracle_counter.macs
    with pytest.raises(ValueError, match="zero tensor"):
        hosvd_rank1(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize(
    "shape",
    [(4, 4, 4, 4, 4, 4), (4, 4, 16, 4, 4, 16), (2, 2, 4, 2, 2, 4), (3, 4, 5), (4, 2, 2),
     (3, 7, 11, 13, 7)],
    ids=["ref", "wide", "small", "3x4x5", "short-first-mode", "partial-slab"],
)
def test_hosvd_rank1_gram_routes(monkeypatch, shape):
    # every mode's Gram is one loop of 2-D GEMMs, each of one slab's d rows
    # with their conjugate: the slabs reassemble to the mode's rows of the
    # (a, d, b) reshape, and none holds more than _GRAM_SLAB entries, so a
    # leading index longer than that is split into column slabs
    data = crandn(np.random.default_rng(53), *shape)
    calls = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        calls.append((np.array(a), np.array(b)))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    hosvd_rank1(data)
    monkeypatch.undo()
    pos, lead = 0, 1
    for d in shape:
        x3 = data.reshape(lead, d, -1)
        trail = x3.shape[2]
        slabs = []
        while sum(slab.shape[1] for slab in slabs) < lead * trail:
            rows, rows_h = calls[pos]
            assert rows.ndim == 2 and rows.shape[0] == d
            np.testing.assert_array_equal(rows_h, rows.conj().T)
            assert rows.size <= _GRAM_SLAB
            slabs.append(rows)
            pos += 1
        np.testing.assert_array_equal(np.hstack(slabs), x3.transpose(1, 0, 2).reshape(d, -1))
        lead *= d
    assert pos == len(calls)


def test_hosvd_rank1_charges_flops():
    # by hand: (3, 4, 5) has Grams 3*60 + 4*60 + 5*60 and contractions
    # 60 + 20 + 5; (5, 2) has the tall mode 2*5*2 + 10, the Gram 2*10 and
    # contractions 10 + 2
    assert hosvd_rank1_macs((3, 4, 5)) == 720 + 85
    assert hosvd_rank1_macs((5, 2)) == 30 + 20 + 12
    assert hosvd_rank1_macs((4,) * 6) == 103764


# ---------------------------------------------------------------------------
# flop counting helpers
# ---------------------------------------------------------------------------


def test_counted_matmul_charges_mac_volume():
    counter = MacCounter()
    rng = np.random.default_rng(30)
    a, b = crandn(rng, 3, 4), crandn(rng, 4, 5)
    out = counted_matmul(a, b, counter)
    np.testing.assert_allclose(out, a @ b)
    assert counter.macs == 3 * 4 * 5


def test_counted_matmul_validation():
    counter = MacCounter()
    with pytest.raises(ValueError):
        counted_matmul(np.ones(3), np.ones((3, 2)), counter)
    with pytest.raises(ValueError):
        counted_matmul(np.ones((2, 3)), np.ones((4, 2)), counter)
