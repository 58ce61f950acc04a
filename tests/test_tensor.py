"""Tensor op semantics and gradient correctness.

Every differentiable op is checked against central finite differences in
double precision (the independent oracle); expected values for the worked
examples are computed inline from their definitions before being asserted.
"""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from ivit import tensor as T
from ivit.errors import ShapeError
from ivit.gradcheck import ELEMENTWISE_TOL, check_gradients, op_cases, run_op_checks, run_suite
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
        loss = T.reshape(T.matmul(y, t64([[0.5], [0.5]])), ())
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
    """Every public differentiable op has a gradient case, and every case is such an op."""
    public = {name for name, fn in inspect.getmembers(T, inspect.isfunction)
              if fn.__module__ == T.__name__ and not name.startswith("_")}
    assert set(op_cases(0)) - {"matmul_batched"} == public - {"backward", "erf"}


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


# ---------------------------------------------------------------------------
# The per-call fast paths must behave exactly as the numpy calls they replace
# ---------------------------------------------------------------------------


def _accepts_row_sums(row_sums, dtype) -> bool:
    """Whether cross_entropy takes a target whose rows sum to ``row_sums``.

    Each target row is one entry, so its sum is that entry exactly.
    """
    target = Tensor(np.asarray(row_sums, dtype=dtype).reshape(-1, 1), dtype=dtype)
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
        empty = Tensor(np.zeros((0, 3)), dtype=dtype)
        with pytest.raises(ShapeError, match="empty batch"):
            T.cross_entropy(empty, empty)

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
            assert out.requires_grad and out._parents == parents[:k] and out._backward is bw
        else:
            assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.grad is None


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
        "full_model": 1.2190392652443717e-07,
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
        "full_model": 4.7315421899225194e-08,
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
        "full_model": 1.1102230259804091e-05,
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
        "full_model": 1.1102230137831346e-05,
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
        "full_model": 1.110223033434299e-05,
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_SUITE_ERRORS))
def test_run_suite_errors_are_unchanged(seed):
    errors, ok = run_suite(seed)
    assert ok
    assert {name: repr(e) for name, e in errors.items()} == \
        {name: repr(e) for name, e in PINNED_SUITE_ERRORS[seed].items()}
