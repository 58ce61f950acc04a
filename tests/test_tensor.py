"""Tensor op semantics and gradient correctness.

Every differentiable op is checked against central finite differences in
double precision (the independent oracle); expected values for the worked
examples are computed inline from their definitions before being asserted.
"""

import math

import numpy as np
import pytest
from scipy.special import erf

from ivit import tensor as T
from ivit.errors import ShapeError
from ivit.gradcheck import ELEMENTWISE_TOL, check_gradients, op_cases, run_op_checks
from ivit.tensor import Tensor


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
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(5, 2\)"):
            T.matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))

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
        out = T.softmax(Tensor([[0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_no_overflow_on_huge_inputs(self):
        out = T.softmax(Tensor([[1000.0, 1000.0]]), axis=1)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_direct_evaluation(self):
        # oracle: e^x / sum e^x computed straight from the definition
        expected = np.exp([1.0, 0.0]) / np.exp([1.0, 0.0]).sum()
        out = T.softmax(Tensor([[1.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-7)
        np.testing.assert_allclose(out.data[0], [0.7311, 0.2689], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        out = T.softmax(t64(rng.normal(0, 3, (20, 9))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert (out.data >= 0).all() and (out.data <= 1).all()


class TestL2Normalize:
    def test_three_four_five(self):
        out = T.l2_normalize(Tensor([[3.0, 4.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-7)

    def test_unit_vector_fixed_point(self):
        v = np.array([[0.6, 0.8]], dtype=np.float64)
        out = T.l2_normalize(t64(v), axis=1)
        np.testing.assert_allclose(out.data, v, atol=1e-10)

    def test_zero_vector_stays_zero(self):
        out = T.l2_normalize(Tensor([[0.0, 0.0]]), axis=1)
        np.testing.assert_array_equal(out.data, [[0.0, 0.0]])

    def test_norms_are_one(self):
        rng = np.random.default_rng(3)
        x = t64(rng.uniform(0.2, 1.0, (10, 6)) * np.sign(rng.normal(size=(10, 6))))
        out = T.l2_normalize(x, axis=1)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-10)


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = T.cross_entropy(Tensor([[0.0, 0.0]]), Tensor([[1.0, 0.0]]))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-6)

    def test_confident_correct_is_near_zero(self):
        loss = T.cross_entropy(Tensor([[10.0, -10.0]]), Tensor([[1.0, 0.0]]))
        assert loss.item() < 1e-4

    def test_target_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            T.cross_entropy(Tensor([[0.0, 0.0]]), Tensor([[0.7, 0.7]]))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        logits = t64(rng.uniform(-1, 1, (4, 5)), requires_grad=True)
        target = t64(rng.dirichlet(np.ones(5), size=4))
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
        a = T.l2_normalize(Tensor(rng.normal(size=(8, 16))), axis=1)
        b = T.l2_normalize(Tensor(rng.normal(size=(8, 5, 16))), axis=2)
        out = T.batched_dot(a, b)
        assert (np.abs(out.data) <= 1.0 + 1e-6).all()

    def test_gelu_zero(self):
        assert T.gelu(Tensor([0.0])).data[0] == 0.0

    def test_mean_drops_axis(self):
        out = T.mean(Tensor([[1.0, 2.0], [3.0, 4.0]]), axis=0)
        np.testing.assert_allclose(out.data, [2.0, 3.0])

    def test_embedding_select_gathers_rows(self):
        table = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = T.embedding_select(table, [2, 0, 2])
        np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])

    def test_embedding_select_out_of_range(self):
        with pytest.raises(IndexError):
            T.embedding_select(Tensor(np.zeros((4, 3))), [4])


class TestBackward:
    def test_repeated_backward_accumulates(self):
        x = t64([[1.0, 2.0]], requires_grad=True)
        loss = T.reshape(T.matmul(x, t64([[1.0], [1.0]])), ())
        T.backward(loss)
        first = x.grad.copy()
        T.backward(loss)
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            T.backward(T.add(x, x))

    def test_grad_none_until_backward(self):
        x = Tensor([1.0], requires_grad=True)
        assert x.grad is None

    def test_reachable_tensors_get_grads(self):
        x = t64([[0.3, -0.2]], requires_grad=True)
        y = T.gelu(x)
        loss = T.mean(T.reshape(y, (2,)), axis=0)
        T.backward(loss)
        assert x.grad is not None and y.grad is not None

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

    def test_cross_entropy_skips_gradient_of_a_constant_target(self):
        logits = t64([[0.5, -0.5], [0.1, 0.2]], requires_grad=True)
        target = t64([[1.0, 0.0], [0.0, 1.0]])
        g = np.ones(())
        assert T.cross_entropy(logits, target)._backward(g)[1] is None
        target.requires_grad = True
        assert T.cross_entropy(logits, target)._backward(g)[1].shape == (2, 2)


def test_all_ops_match_finite_differences():
    """The blanket gradient property: every op in the library, random inputs in [-1, 1]."""
    errors = run_op_checks(seed=123)
    for name, err in errors.items():
        assert err < ELEMENTWISE_TOL, f"{name}: rel err {err:.3e}"


def test_op_case_table_covers_library():
    names = set(op_cases(0))
    for expected in ("matmul", "softmax", "l2_normalize", "cross_entropy", "layer_norm",
                     "gelu", "add", "scale", "concat", "narrow", "mean",
                     "embedding_select", "batched_dot"):
        assert expected in names


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    w = rng.normal(size=(8, 8)).astype(np.float32)

    def run():
        return T.softmax(T.matmul(Tensor(x), Tensor(w)), axis=1).data

    assert np.array_equal(run(), run())


def test_no_implicit_broadcasting():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))
    # scalar is the sanctioned exception
    out = T.add(Tensor(np.zeros((2, 3))), 1.5)
    assert (out.data == 1.5).all()


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
