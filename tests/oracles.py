"""Reference routes the package no longer runs, kept for the tests.

Each helper is the plain, general form of something the package does in a
faster or narrower way: MAC-counted 2-D products, the n-mode product with
its diagonal core, column-major tensor relabelling, and the per-trial
perfect-CSI estimate that the se sweep replaced by its closed form.
"""

import dataclasses

import numpy as np

from hdris.estimators import hdr_estimate
from hdris.tensors import ComplexTensor, fold, unfold


def counted_matmul(a, b, counter=None):
    """Matrix product a @ b, charging a.shape[0]*a.shape[1]*b.shape[1] MACs.

    Both operands must be 2-D.  When ``counter`` is None the product is
    computed without accounting.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("counted_matmul expects 2-D operands, got %s and %s" % (a.shape, b.shape))
    if a.shape[1] != b.shape[0]:
        raise ValueError("inner dimensions do not match: %s @ %s" % (a.shape, b.shape))
    if counter is not None:
        counter.add(a.shape[0] * a.shape[1] * b.shape[1])
    return a @ b


def n_mode_product(x, a, mode, counter=None):
    """Contract mode ``mode`` of ComplexTensor ``x`` with the columns of
    matrix ``a``."""
    if not 1 <= mode <= x.order:
        raise ValueError("mode %d out of range for order-%d tensor" % (mode, x.order))
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("n_mode_product factor must be a matrix, got %s" % (a.shape,))
    if a.shape[1] != x.dims[mode - 1]:
        raise ValueError(
            "factor columns (%d) must equal mode-%d extent (%d)"
            % (a.shape[1], mode, x.dims[mode - 1])
        )
    new_dims = list(x.dims)
    new_dims[mode - 1] = a.shape[0]
    return fold(counted_matmul(a, unfold(x, mode), counter), mode, new_dims)


def identity_tensor(order, n):
    """Order-``order`` diagonal tensor with ones where all indices coincide."""
    if order < 1 or n < 1:
        raise ValueError("order and extent must be >= 1")
    arr = np.zeros((n,) * order, dtype=np.complex128)
    arr[(np.arange(n),) * order] = 1.0
    return ComplexTensor(arr)


def tensorize(v, dims):
    """Reassemble a tensor of the given dims from a column-major flat vector."""
    return ComplexTensor.from_vec(v, dims)


def reshape(x, dims):
    """Relabel the flat column-major data of ``x`` with new mode extents."""
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != x.size:
        raise ValueError("cannot reshape %s to %s" % (x.dims, (dims,)))
    return ComplexTensor(x.data.reshape(dims, order="F"))


def ideal_estimate(ch):
    """Perfect-CSI estimate: ``hdr`` fitted to the true cascade, tagged
    ``ideal``.  The se sweep scored this per trial before it switched to
    the closed-form rate."""
    return dataclasses.replace(hdr_estimate(ch.cascade, ch.dims), method="ideal")
