"""Tensor op semantics and gradient correctness.

Every differentiable op is checked against central finite differences in
double precision (the independent oracle); expected values for the worked
examples are computed inline from their definitions before being asserted.
"""

import inspect
import itertools
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from ivit import tensor as T
from ivit.errors import ShapeError
from ivit.gradcheck import ELEMENTWISE_TOL, check_gradients, model_case, op_cases, run_op_checks, run_suite
from ivit.tensor import Tensor
from test_kernels import linear_ref


def t64(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


class TestMatmul:
    def test_identity_right(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_left(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [7.0]])

    def test_shape_mismatch_names_both_shapes(self):
        for shape_a, shape_b in (
            ((3, 4), (5, 2)),     # inner dims disagree
            ((2, 3, 4), (4, 2)),  # stacked rows through one matrix is linear's form, not matmul's
            ((3,), (3, 2)),       # a vector is no matrix
        ):
            with pytest.raises(ShapeError, match=re.escape(f"{shape_a} @ {shape_b}")):
                T.matmul(Tensor(np.zeros(shape_a)), Tensor(np.zeros(shape_b)))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        a = t64(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
        b = t64(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
        coeffs = t64(rng.uniform(-1, 1, (6, 1)))

        def loss():
            return T.reshape(T.matmul(T.reshape(T.matmul(a, b), (1, 6)), coeffs), ())

        assert check_gradients(loss, [a, b]) < 1e-4


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_no_overflow_on_huge_inputs(self):
        out = T.softmax(Tensor([[1000.0, 1000.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_direct_evaluation(self):
        # oracle: e^x / sum e^x computed straight from the definition
        expected = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
        out = T.softmax(Tensor([[1.0, 0.0]]))
        np.testing.assert_allclose(out.data[0], expected, atol=1e-7)
        np.testing.assert_allclose(out.data[0], [0.7311, 0.2689], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = T.softmax(t64(rng.normal(0, 3, (20, 9))))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data >= 0).all() and (out.data <= 1).all()


class TestL2Normalize:
    def test_three_four_five(self):
        out = T.l2_normalize(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_unit_vector_fixed_point(self):
        v = np.array([[0.6, 0.8]], dtype=np.float64)
        out = T.l2_normalize(t64(v))
        np.testing.assert_allclose(out.data, v, atol=1e-10)

    def test_zero_vector_stays_zero(self):
        out = T.l2_normalize(Tensor([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_norms_are_one(self):
        rng = np.random.default_rng(3)
        x = t64(rng.uniform(0.2, 1.0, (10, 6)) * np.sign(rng.normal(size=(10, 6))))
        out = T.l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-10)


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = T.cross_entropy(Tensor([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)

    def test_confident_correct_is_near_zero(self):
        loss = T.cross_entropy(Tensor([[10.0, -10.0]]), np.array([[1.0, 0.0]]))
        assert loss.item() < 1e-4

    def test_target_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            T.cross_entropy(Tensor([[0.0, 0.0]]), np.array([[0.7, 0.7]]))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = t64(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        target = rng.dirichlet(np.ones(5), size=4)
        assert check_gradients(lambda: T.cross_entropy(logits, target), [logits]) < 1e-4


class TestStructuralOps:
    def test_concat_narrow_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 2, 4)).astype(np.float32))
        cat = T.concat([a, b], axis=1)
        back_a = T.narrow(cat, 1, 0, 3)
        back_b = T.narrow(cat, 1, 3, 2)
        assert np.array_equal(back_a.data, a.data)
        assert np.array_equal(back_b.data, b.data)

    def test_batched_dot_of_unit_vectors_bounded(self):
        rng = np.random.default_rng(9)
        a = T.l2_normalize(Tensor(rng.normal(size=(8, 16))))
        b = T.l2_normalize(Tensor(rng.normal(size=(8, 5, 16))))
        out = T.batched_dot(a, b)
        assert (np.abs(out.data) <= 1.0 + 1e-6).all()

    def test_gelu_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0


class TestBackward:
    def test_repeated_backward_returns_equal_unshared_grads(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        loss = T.reshape(T.matmul(x, t64([[1.0], [1.0]])), ())
        first = T.backward(loss)
        second = T.backward(loss)
        assert list(first) == list(second) == [x]
        np.testing.assert_array_equal(second[x], first[x])
        np.testing.assert_array_equal(first[x], [[1.0, 1.0]])
        assert not np.shares_memory(first[x], second[x])

    def test_loss_without_a_graph_has_no_gradients(self):
        assert T.backward(T.scale(Tensor([[2.0]], requires_grad=False), 3.0)) == {}

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            T.backward(T.add(x, x))

    def test_grad_none_until_backward(self):
        x = Tensor([1.0], requires_grad=True)
        assert not hasattr(x, "grad")
        other = Tensor([[2.0]], requires_grad=True)
        assert x not in T.backward(T.reshape(other, ()))
        assert x in T.backward(T.reshape(T.scale(x, 2.0), ()))

    def test_reachable_tensors_get_grads(self):
        """Only leaves get a gradient; an op's result does not."""
        x = t64([[0.3, -0.2]], requires_grad=True)
        y = T.gelu(x)
        loss = T.reshape(T.matmul(y, t64([[0.5], [0.5]])), ())
        grads = T.backward(loss)
        assert x in grads
        assert y not in grads and loss not in grads

    def test_intermediate_gradients_are_freed_once_passed_back(self):
        x = t64(np.ones((1, 4)), requires_grad=True)
        h = x
        received = []  # weak references to the gradient each closure was handed
        alive = []
        for _ in range(3):
            h = T.scale(h, 0.5)

            def bw(g, inner=h._backward):
                alive[:] = [r() is not None for r in received]
                received.append(weakref.ref(g))
                return inner(g)

            h._backward = bw
        grads = T.backward(T.reshape(T.matmul(h, t64(np.ones((4, 1)))), ()))
        # when the last closure runs, the two gradients handed back before it are gone
        assert alive == [False, False]
        np.testing.assert_array_equal(grads[x], np.full((1, 4), 0.125))

    def test_leaves_fed_one_array_get_distinct_grads(self):
        a = t64([[1.0, 2.0]], requires_grad=True)
        b = t64([[3.0, 4.0]], requires_grad=True)
        grads = T.backward(T.reshape(T.matmul(T.add(a, b), t64([[0.5], [2.0]])), ()))
        assert not np.shares_memory(grads[a], grads[b])
        grads[a] *= 3.0  # what gradient clipping does
        np.testing.assert_array_equal(grads[b], [[0.5, 2.0]])

    def test_two_graphs_on_one_model_backward_in_either_order(self):
        """Gradients live only in what backward returns, so one graph's backward leaves another's alone."""
        model, images, prompts, labels = model_case(0)
        other_images = np.random.default_rng(1).uniform(-1.0, 1.0, size=images.shape)
        params = list(model.parameter_dict().values())

        def graph(x):
            return model.total_loss(model.forward(x, prompts), labels)[0]

        def assert_bit_identical(got, want):
            assert list(got) == list(want)
            for p in want:
                assert got[p].dtype == want[p].dtype and got[p].shape == want[p].shape
                assert got[p].tobytes() == want[p].tobytes()

        alone = [T.backward(graph(x)) for x in (images, other_images)]
        assert set(alone[0]) == set(params)
        first, second = graph(images), graph(other_images)
        got_second = T.backward(second)
        got_first = T.backward(first)
        assert_bit_identical(got_first, alone[0])
        assert_bit_identical(got_second, alone[1])
        assert any(not np.array_equal(got_first[p], got_second[p]) for p in params)  # two distinct graphs

        loss = graph(images)
        frozen = model.parameter_dict()["head.weight"]
        frozen.requires_grad = False  # after the forward: the graph still reaches it
        grads = T.backward(loss)
        assert frozen not in grads
        assert_bit_identical(grads, {p: g for p, g in alone[0].items() if p is not frozen})
        assert not hasattr(loss, "grad") and not hasattr(frozen, "grad")

    @pytest.mark.parametrize("batched", [False, True])
    def test_matmul_computes_gradients_only_for_operands_that_need_them(self, batched):
        rng = np.random.default_rng(2)
        shape_a, shape_b = ((2, 3, 4), (2, 4, 5)) if batched else ((3, 4), (4, 5))
        a, b = t64(rng.normal(size=shape_a)), t64(rng.normal(size=shape_b))
        g = rng.normal(size=shape_a[:-1] + shape_b[-1:])
        for need_a, need_b in ((True, True), (True, False), (False, True)):
            a.requires_grad, b.requires_grad = need_a, need_b
            ga, gb = T.matmul(a, b)._backward(g)
            assert (ga is not None, gb is not None) == (need_a, need_b)
            if need_a:
                np.testing.assert_allclose(ga, g @ np.swapaxes(b.data, -1, -2))
            if need_b:
                expected = np.swapaxes(a.data, -1, -2) @ g if batched else a.data.T @ g
                np.testing.assert_allclose(gb, expected)


class TestLinear:
    """``linear`` is ``x @ w + b`` as one node, bit for bit ``linear_ref``: the
    bias added to one GEMM over the stacked rows."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    # on one-row matrices, (2, 1, 4) and (4, 2, 1, 4), numpy's per-matrix
    # product and one GEMM over the stacked rows round differently
    @pytest.mark.parametrize("x_shape", [(5, 4), (2, 5, 4), (2, 1, 4), (4, 2, 1, 4)])
    @pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=3)))
    def test_matches_add_bias_of_matmul(self, dtype, x_shape, flags):
        rng = np.random.default_rng(11)
        x, w, b = (Tensor(rng.normal(size=shape), requires_grad=need, dtype=dtype)
                   for shape, need in zip((x_shape, (4, 3), (3,)), flags))
        out = T.linear(x, w, b)
        g = rng.normal(size=x_shape[:-1] + (3,)).astype(dtype)
        y_ref, grads_ref = linear_ref(x.data, w.data, b.data, g)
        assert out.dtype == y_ref.dtype == dtype
        np.testing.assert_array_equal(out.data, y_ref)
        assert out.requires_grad == any(flags)
        if not any(flags):
            return
        for need, got, want in zip(flags, out._backward(g), grads_ref):
            if need:
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            else:
                assert got is None

    def test_leaf_grads_match_the_stacked_rows_reference(self):
        rng = np.random.default_rng(12)
        x, w, b = (t64(rng.normal(size=s), requires_grad=True) for s in ((2, 3, 4), (4, 3), (3,)))
        c = rng.normal(size=(18, 1))
        leaf_grads = T.backward(T.reshape(T.matmul(T.reshape(T.linear(x, w, b), (1, 18)), t64(c)), ()))
        # the loss's gradient with respect to the linear's output is c, laid out as that output
        _, want = linear_ref(x.data, w.data, b.data, c.reshape(2, 3, 3))
        for got, expected in zip((leaf_grads[x], leaf_grads[w], leaf_grads[b]), want, strict=True):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((4,), (4, 3), (3,)),         # 1-d input
        ((2, 4), (2, 4, 3), (3,)),    # batched weight
        ((2, 5), (4, 3), (3,)),       # inner dims disagree
        ((2, 4), (4, 3), (4,)),       # bias of the input width
        ((2, 4), (4, 3), (1, 3)),     # bias of the wrong rank
    ])
    def test_shape_errors(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError, match="linear"):
            T.linear(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))


def test_all_ops_match_finite_differences():
    """The blanket gradient property: every op in the library, random inputs in [-1, 1]."""
    errors = run_op_checks(seed=123)
    for name, err in errors.items():
        assert err < ELEMENTWISE_TOL, f"{name}: rel err {err:.3e}"


def test_op_case_table_covers_library():
    """Every public differentiable op has a gradient case, and every case is such an op."""
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")}
    assert set(op_cases(0)) - {"matmul_batched"} == public - {"backward", "erf"}


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    w = rng.normal(size=(8, 8)).astype(np.float32)

    def run():
        return T.softmax(T.matmul(Tensor(x), Tensor(w))).data

    assert np.array_equal(run(), run())


def zeros(*shape):
    return Tensor(np.zeros(shape))


@pytest.mark.parametrize("call,message", [
    (lambda: zeros(2).item(), "item() needs a single-element tensor, got shape (2,)"),
    (lambda: T.mul_const(zeros(2, 3), np.ones(3)), "mul_const: mask shape (3,) != tensor shape (2, 3)"),
    (lambda: T.add_bias(zeros(3), zeros(2, 3)), "add_bias: bias shape (2, 3) does not match trailing dims of (3,)"),
    (lambda: T.add_bias(zeros(2, 3), zeros(2)), "add_bias: bias shape (2,) does not match trailing dims of (2, 3)"),
    (lambda: T.broadcast_batch(zeros(3), 0), "broadcast_batch: batch must be >= 1, got 0"),
    (lambda: T.reshape(zeros(2, 3), (4,)), "reshape: cannot view (2, 3) as (4,)"),
    (lambda: T.concat([], axis=0), "concat: need at least one tensor"),
    (lambda: T.concat([zeros(2, 3), zeros(2)], axis=0), "concat: rank mismatch (2, 3) vs (2,)"),
    (lambda: T.concat([zeros(2, 3), zeros(2, 4)], axis=0), "concat: shapes (2, 3) and (2, 4) differ off axis 0"),
    (lambda: T.narrow(zeros(2, 3), 1, 2, 2), "narrow: range [2, 4) out of bounds for axis 1 of (2, 3)"),
    (lambda: T.batched_dot(zeros(2, 3), zeros(2, 3)), "batched_dot: need [B,D] and [B,P,D], got (2, 3) and (2, 3)"),
    (lambda: T.batched_dot(zeros(2, 3), zeros(2, 4, 4)), "batched_dot: shapes (2, 3) and (2, 4, 4) are inconsistent"),
    (lambda: T.layer_norm(zeros(2, 3), zeros(3), zeros(2)),
     "layer_norm: gain/bias must have shape (3,), got (3,) and (2,)"),
], ids=["item", "mul_const", "add_bias-rank", "add_bias-dims", "broadcast_batch", "reshape", "concat-empty",
        "concat-rank", "concat-dims", "narrow", "batched_dot-rank", "batched_dot-dims", "layer_norm"])
def test_shape_errors_name_the_op_and_the_shapes(call, message):
    with pytest.raises(ShapeError) as info:
        call()
    assert str(info.value) == message


def test_repr_names_shape_dtype_and_flag():
    assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == \
        "Tensor(shape=(2, 3), dtype=float64, requires_grad=True)"


def test_no_implicit_broadcasting():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_op_returns_its_input_dtype(dtype):
    """A float32 graph must stay float32: no numpy float64 constant may promote it."""
    for name, (build, inputs) in op_cases(0, dtype).items():
        assert all(t.dtype == dtype for t in inputs), name
        # each loss has the dtype its op returned (the gradcheck reduction follows it)
        assert build().dtype == dtype, name


class TestErf:
    GRID = np.linspace(-6.0, 6.0, 1_200_001)

    def test_float32_close_to_exact(self):
        x = self.GRID.astype(np.float32)
        y = T.erf(x)
        assert y.dtype == np.float32
        assert np.abs(y - erf(x.astype(np.float64))).max() <= 5e-7

    def test_float32_odd_bounded_and_zero_at_zero(self):
        x = self.GRID.astype(np.float32)
        y = T.erf(x)
        assert np.array_equal(T.erf(-x), -y)
        assert (np.abs(y) <= 1.0).all()
        assert T.erf(np.zeros(3, dtype=np.float32)).tolist() == [0.0, 0.0, 0.0]

    def test_float64_gelu_is_the_exact_formula(self):
        x = np.random.default_rng(4).normal(scale=3.0, size=(64, 33))
        expected = 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        assert np.array_equal(T.gelu(t64(x)).data, expected)


# ---------------------------------------------------------------------------
# The per-call fast paths must behave exactly as the numpy calls they replace
# ---------------------------------------------------------------------------


def _accepts_row_sums(row_sums, dtype) -> bool:
    """Whether cross_entropy takes a target whose rows sum to ``row_sums``.

    Each target row is one entry, so its sum is that entry exactly.
    """
    target = np.asarray(row_sums, dtype=dtype).reshape(-1, 1)
    logits = Tensor(np.zeros(target.shape), dtype=dtype)
    try:
        T.cross_entropy(logits, target)
    except ValueError as e:
        assert str(e) == "cross_entropy: target rows must sum to 1"
        return False
    return True


def _allclose_accepts(row_sums, dtype) -> bool:
    return bool(np.allclose(np.asarray(row_sums, dtype=dtype), 1.0, atol=1e-3))


class TestRowSumCheck:
    """On a non-empty batch, cross_entropy accepts exactly the targets
    ``np.allclose(sums, 1, atol=1e-3)`` does."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_boundary_one_ulp_either_side(self, dtype):
        cases = []
        for edge in (1.0 + 0.00101, 1.0 - 0.00101):
            x = dtype(edge)
            cases += [np.nextafter(x, dtype(-np.inf)), x, np.nextafter(x, dtype(np.inf))]
        verdicts = []
        for x in cases:
            assert _accepts_row_sums([x], dtype) == _allclose_accepts([x], dtype), repr(x)
            verdicts.append(_accepts_row_sums([x], dtype))
        # both sides of the threshold are hit, so a shifted threshold cannot agree
        assert True in verdicts and False in verdicts

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_threshold_is_allclose_atol_plus_rtol(self, dtype):
        # allclose's threshold is atol + rtol * |1| = 1.01e-3, not 1.00001e-3
        for inside in (1.001005, 0.998995):
            assert _accepts_row_sums([inside], dtype) and _allclose_accepts([inside], dtype)
        for outside in (1.001015, 0.998985):
            assert not _accepts_row_sums([outside], dtype) and not _allclose_accepts([outside], dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, dtype, bad):
        assert not _accepts_row_sums([1.0, bad], dtype)
        assert not _accepts_row_sums([bad], dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_empty_batch_accepted(self, dtype):
        # not accepted: a batch of no rows has no mean, so it is a shape error
        empty = np.zeros((0, 3), dtype=dtype)
        with pytest.raises(ShapeError, match="empty batch"):
            T.cross_entropy(Tensor(empty), empty)

    @pytest.mark.parametrize("dtype,width", [(np.float32, 32), (np.float64, 64)])
    def test_random_row_sums_match_allclose(self, dtype, width):
        near_one = st.floats(1.0 - 2.0**-9, 1.0 + 2.0**-9, width=width)
        anything = st.floats(width=width)

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(st.lists(st.one_of(near_one, anything), min_size=1, max_size=5))
        def check(row_sums):
            assert _accepts_row_sums(row_sums, dtype) == _allclose_accepts(row_sums, dtype)

        check()


def _layer_norm_reference(x, gain, bias, eps=1e-5):
    """The layer_norm forward written with ndarray.mean, as before the fast path."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_matches_mean_reference_bit_for_bit(dtype):
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
           st.floats(-3, 3))
    def check(shape, seed, log_scale):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=shape) * 10.0 ** log_scale + rng.normal()).astype(dtype)
        d = shape[-1]
        gain, bias = rng.normal(size=d).astype(dtype), rng.normal(size=d).astype(dtype)
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        out = T.layer_norm(xt, Tensor(gain, dtype=dtype), Tensor(bias, dtype=dtype))
        expected, xhat, inv = _layer_norm_reference(x, gain, bias)
        assert out.dtype == expected.dtype == dtype
        np.testing.assert_array_equal(out.data, expected)

        g = rng.normal(size=shape).astype(dtype)
        gxhat = g * gain
        m1 = gxhat.mean(axis=-1, keepdims=True)
        m2 = (gxhat * xhat).mean(axis=-1, keepdims=True)
        np.testing.assert_array_equal(out._backward(g)[0], inv * (gxhat - m1 - xhat * m2))

    check()


class TestTransposePermutations:
    X = np.arange(2 * 3 * 4 * 5, dtype=np.float64).reshape(2, 3, 4, 5)

    @pytest.mark.parametrize("axes", list(itertools.permutations(range(4))))
    def test_round_trip_and_backward_invert(self, axes):
        x = Tensor(self.X, requires_grad=True, dtype=np.float64)
        y = T.transpose(x, axes)
        np.testing.assert_array_equal(y.data, self.X.transpose(axes))
        inverse = tuple(int(i) for i in np.argsort(axes))
        np.testing.assert_array_equal(T.transpose(y, inverse).data, self.X)
        g = np.random.default_rng(0).normal(size=y.shape)
        (gx,) = y._backward(g)
        np.testing.assert_array_equal(gx, g.transpose(inverse))
        np.testing.assert_array_equal(gx.transpose(axes), g)

    @pytest.mark.parametrize("axes", [(0, 1, 1, 3), (0, 1, 2), (0, 1, 2, 4), (-1, 0, 1, 2), (0, 1, 2, 3, 4)])
    def test_non_permutation_message_unchanged(self, axes):
        x = Tensor(self.X)
        expected = f"transpose: axes {axes} are not a permutation for shape (2, 3, 4, 5)"
        with pytest.raises(ShapeError) as info:
            T.transpose(x, list(axes))
        assert str(info.value) == expected


@pytest.mark.parametrize("flags", list(itertools.product([False, True], repeat=3)))
def test_result_records_an_edge_iff_some_parent_requires_grad(flags):
    parents = tuple(Tensor(np.zeros(2), requires_grad=f) for f in flags)

    def bw(g):
        return (g,) * len(parents)

    for k in range(len(parents) + 1):  # zero, one, two and all three parents
        out = T._result(np.ones(2), parents[:k], bw)
        if any(flags[:k]):
            # one handle per parent: the leaf itself if it requires grad, else None
            handles = out._node[1:]
            assert out.requires_grad and out._backward is bw
            assert len(handles) == k
            for h, p in zip(handles, parents):
                assert h is (p if p.requires_grad else None)
        else:
            assert not out.requires_grad and out._node is None and out._backward is None
        assert not hasattr(out, "grad")


#: ``repr`` of every ``run_suite`` error, recorded from the ``any()`` / ``allclose``
#: / ``argsort`` / ``ndarray.mean`` implementation that the fast paths replace
#: (x86-64, numpy 2.4 with its bundled OpenBLAS; another BLAS kernel may round
#: the float64 matmuls differently)
PINNED_SUITE_ERRORS = {
    0: {
        "matmul": 1.2512299936257797e-11,
        "matmul_batched": 8.082312871547593e-12,
        "add": 3.265559350297739e-11,
        "add_bias": 1.9243153824369892e-11,
        "scale": 6.8341835959163025e-12,
        "mul_const": 7.0474659444809986e-12,
        "broadcast_batch": 4.4889455911480285e-12,
        "transpose": 5.907403409346653e-12,
        "reshape": 1.61943114195597e-11,
        "concat": 6.641390097927787e-12,
        "narrow": 5.169748547519349e-12,
        "batched_dot": 5.871647036908271e-12,
        "softmax": 5.867343710407894e-11,
        "l2_normalize": 5.929860949694604e-11,
        "gelu": 2.2677368760220525e-11,
        "layer_norm": 7.717539722964166e-11,
        "cross_entropy": 6.179957869468569e-11,
        "linear": 1.8655076874064422e-11,
        "full_model": 1.2190392652443717e-07,
        "forward_vs_reference": 0.0,
    },
    1: {
        "matmul": 5.536227597384693e-12,
        "matmul_batched": 1.5855622950199666e-11,
        "add": 9.533834552353621e-12,
        "add_bias": 1.9808822888816767e-11,
        "scale": 4.665725368696973e-12,
        "mul_const": 6.526185457420264e-12,
        "broadcast_batch": 1.1831252166983149e-11,
        "transpose": 1.8235235421106773e-11,
        "reshape": 1.2123311192326587e-11,
        "concat": 5.266905644168607e-12,
        "narrow": 1.7896439309512199e-12,
        "batched_dot": 6.6289225436892855e-12,
        "softmax": 3.418230297609323e-11,
        "l2_normalize": 1.5070039845109314e-10,
        "gelu": 4.0890856245266526e-11,
        "layer_norm": 7.26065077027907e-11,
        "cross_entropy": 1.1358583036103257e-10,
        "linear": 6.215418779122619e-11,
        "full_model": 4.7315421899225194e-08,
        "forward_vs_reference": 0.0,
    },
    4: {
        "matmul": 2.67894096566914e-11,
        "matmul_batched": 1.6936177235519402e-11,
        "add": 9.36491988491101e-12,
        "add_bias": 2.0894103331559715e-11,
        "scale": 6.506788873217574e-12,
        "mul_const": 7.939363311815108e-12,
        "broadcast_batch": 1.458978041791801e-11,
        "transpose": 1.0988136018516763e-11,
        "reshape": 4.864800667379407e-12,
        "concat": 4.465467118858149e-12,
        "narrow": 5.339420327832551e-12,
        "batched_dot": 2.7026411039096548e-11,
        "softmax": 4.130464325400385e-11,
        "l2_normalize": 3.2574249477903406e-11,
        "gelu": 1.5728539294061186e-11,
        "layer_norm": 3.1557202232751175e-11,
        "cross_entropy": 9.94032476885953e-11,
        "linear": 4.4811641794539997e-11,
        "full_model": 1.1102230259804091e-05,
        "forward_vs_reference": 0.0,
    },
    67: {
        "matmul": 1.5461917378231704e-11,
        "matmul_batched": 1.3864508056921265e-11,
        "add": 1.4003158665155431e-11,
        "add_bias": 1.6590976639919994e-11,
        "scale": 4.379983984965072e-12,
        "mul_const": 8.374834705042357e-12,
        "broadcast_batch": 7.958792857086009e-12,
        "transpose": 9.712015659112495e-12,
        "reshape": 8.62169344416483e-12,
        "concat": 9.736843325096794e-12,
        "narrow": 6.488627271563173e-12,
        "batched_dot": 9.699685154608534e-12,
        "softmax": 4.092591317478163e-11,
        "l2_normalize": 4.395096052115101e-11,
        "gelu": 2.051047956804296e-11,
        "layer_norm": 3.8168402195886926e-11,
        "cross_entropy": 1.5703444546641277e-10,
        "linear": 2.996394459601239e-11,
        "full_model": 1.1102230137831346e-05,
        "forward_vs_reference": 0.0,
    },
    101: {
        "matmul": 1.6775945301213142e-11,
        "matmul_batched": 1.89678305895637e-11,
        "add": 9.21855092005225e-12,
        "add_bias": 1.943765479501832e-11,
        "scale": 1.4949843896020984e-11,
        "mul_const": 6.581075045818017e-12,
        "broadcast_batch": 1.3436641985106302e-11,
        "transpose": 2.2555729912221317e-11,
        "reshape": 5.848464204095453e-12,
        "concat": 6.078607275491822e-12,
        "narrow": 6.011633966351081e-12,
        "batched_dot": 4.916205218293664e-12,
        "softmax": 4.2951931239568586e-11,
        "l2_normalize": 2.5857304449776214e-11,
        "gelu": 1.8303714415146358e-11,
        "layer_norm": 4.372997860676607e-11,
        "cross_entropy": 5.734574953979435e-11,
        "linear": 1.1509424008493372e-11,
        "full_model": 1.110223033434299e-05,
        "forward_vs_reference": 0.0,
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_SUITE_ERRORS))
def test_run_suite_errors_are_unchanged(seed):
    errors, ok = run_suite(seed)
    assert ok
    assert {name: repr(e) for name, e in errors.items()} == \
        {name: repr(e) for name, e in PINNED_SUITE_ERRORS[seed].items()}
