"""Autodiff engine: op semantics, gradient correctness, tape contracts."""

import gc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tpp import tensor as T
from tpp.errors import ArgumentError, ShapeError, StateError

from conftest import (finite_difference, rel_err, rel_err_tensor, run_forward_loss,
                      saved_arrays, tsum)


def _rand(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestElementwise:
    def test_add_zeros_is_identity(self):
        x = T.Tensor(_rand((3, 4)))
        out = T.add(x, T.zeros(x.shape))
        assert np.array_equal(out.data, x.data)

    def test_broadcasting_follows_trailing_rules(self):
        a = T.Tensor(_rand((2, 3, 4)))
        b = T.Tensor(_rand((4,)))
        assert T.add(a, b).shape == (2, 3, 4)
        assert T.mul(a, T.Tensor(_rand((3, 1)))).shape == (2, 3, 4)

    def test_non_broadcastable_shapes_raise_with_both_shapes(self):
        with pytest.raises(ShapeError) as exc:
            T.add(T.Tensor(_rand((2, 3))), T.Tensor(_rand((4,))))
        assert "[2, 3]" in str(exc.value) and "[4]" in str(exc.value)

    def test_scale(self):
        x = T.Tensor(_rand((5,)))
        assert np.array_equal(T.mul(x, 2.0).data, x.data * 2.0)

    def test_gelu_at_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_gelu_calls_scipys_erf_ufunc_itself(self):
        # bit identity by identity: a scipy that moves erf out of the compiled
        # module that `tensor` loads fails here, not as drift in the pins
        import scipy.special
        assert T.erf is scipy.special.erf

    def test_gelu_matches_gaussian_cdf_form(self):
        from scipy.special import erf
        x = _rand((50,), seed=3)
        expected = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        assert np.allclose(T.gelu(T.Tensor(x)).data, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("op,builder", [
        ("add", lambda a, b: T.add(a, b)),
        ("mul", lambda a, b: T.mul(a, b)),
    ])
    def test_binary_op_gradients_match_finite_differences(self, op, builder):
        # a stable seed per op: hash(str) changes with each interpreter run
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        a = T.Tensor(rng.standard_normal((5, 10)), requires_grad=True)
        b = T.Tensor(rng.standard_normal((5, 10)) + 3.0, requires_grad=True)
        weights = rng.standard_normal((5, 10))

        def loss():
            return tsum(T.mul(builder(a, b), T.Tensor(weights)))

        T.backward(loss())
        x, y, w = a.data, b.data, weights
        closed_form = {"add": (w, w), "mul": (w * y, w * x)}[op]
        for t, exact in zip((a, b), closed_form):
            assert rel_err(t.grad, exact) <= 1e-12
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err(t.grad, fd) < 1e-5

    def test_gelu_gradient_at_50_random_points(self):
        x = T.Tensor(_rand((50,), seed=7), requires_grad=True)
        weights = _rand((50,), seed=8)

        def loss():
            return tsum(T.mul(T.gelu(x), T.Tensor(weights)))

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), x.data)
        assert rel_err(x.grad, fd) < 1e-6


def gelu_whole_array(x: np.ndarray):
    """The whole-array GELU that `T.gelu`'s blocks must reproduce bit for bit:
    (output, derivative)."""
    from scipy.special import erf
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * cdf, cdf + x * pdf


_GELU_ROWS = T._GELU_BLOCK // 256  # one block's rows at width 256


class TestBlockedGelu:
    @pytest.mark.parametrize("shape", [
        (), (0, 256), (3, 5), (5, 7, 256),
        (_GELU_ROWS - 1, 256), (_GELU_ROWS, 256), (_GELU_ROWS + 1, 256), (2177, 256),
    ], ids=str)
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    def test_output_and_derivative_match_the_whole_array_formula_bitwise(self, shape, grad):
        x = _rand(shape, seed=60) * 4.0
        x.reshape(-1)[:4] = [0.0, -0.0, 40.0, -40.0][:x.size]  # saturated erf, underflowing exp
        want_out, want_d = gelu_whole_array(x)
        leaf = T.Tensor(x, requires_grad=True)
        if grad:
            out = T.gelu(leaf)
            [d] = saved_arrays(out.node)
            assert d.shape == shape and d.tobytes() == want_d.tobytes()
        else:
            with T.no_grad():
                out = T.gelu(leaf)
            assert out.node is None
        assert out.shape == shape and out.data.tobytes() == want_out.tobytes()


PEFT_TERMS = ["plain", "lora", "ssf", "lora+ssf"]


def _linear_inputs(terms: str, shape, m: int, rank: int, seed: int, frozen=()):
    """x, weight, bias and the LoRA/SSF tuples of `terms`; names in `frozen` do not train."""
    rng = np.random.default_rng(seed)
    k = shape[-1]

    def leaf(name, dims, offset=0.0):
        return T.Tensor(rng.standard_normal(dims) + offset, requires_grad=name not in frozen)

    x, weight, bias = leaf("x", shape), leaf("weight", (k, m)), leaf("bias", (m,))
    lora = (leaf("A", (k, rank)), leaf("B", (rank, m)), 0.7) if "lora" in terms else None
    ssf = (leaf("gamma", (m,), 1.0), leaf("beta", (m,))) if "ssf" in terms else None
    return x, weight, bias, lora, ssf


def _gemm(x, w):
    return T.linear(x, w, T.zeros(w.shape[-1]))


def _composed_linear(x, weight, bias, lora, ssf):
    """The primitives `T.linear` replaced, in their op order, with plain GEMMs."""
    out = T.add(_gemm(x, weight), bias)
    if lora is not None:
        a, b, s = lora
        out = T.add(out, T.mul(_gemm(_gemm(x, a), b), s))
    if ssf is not None:
        out = T.add(T.mul(out, ssf[0]), ssf[1])
    return out


class TestLinear:
    def test_identity(self):
        eye = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
        m = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.linear(m, eye, T.zeros(2)).data, m.data)

    def test_hand_checked_inner_product(self):
        out = T.linear(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]), T.Tensor([0.5]))
        assert out.data.tolist() == [[11.5]]

    def test_sum_gradient_equals_ones_times_weight_transpose(self):
        x = T.Tensor(_rand((4, 5), seed=1), requires_grad=True)
        w = T.Tensor(_rand((5, 3), seed=2), requires_grad=True)
        bias = T.Tensor(_rand((3,), seed=3))

        def loss():
            return tsum(T.linear(x, w, bias))

        T.backward(loss())
        assert np.allclose(x.grad, np.ones((4, 3)) @ w.data.T, atol=1e-12)
        # and the independent oracle agrees
        fd = finite_difference(lambda: run_forward_loss(loss), x.data)
        assert rel_err(x.grad, fd) < 1e-6

    @pytest.mark.parametrize("terms", PEFT_TERMS)
    @pytest.mark.parametrize("shape", [(5, 3), (2, 3, 3)])
    @pytest.mark.parametrize("frozen", [(), ("weight",), ("weight", "A")])
    def test_gradients_match_finite_differences(self, terms, shape, frozen):
        x, weight, bias, lora, ssf = _linear_inputs(terms, shape, 4, 2, seed=60, frozen=frozen)
        weights = _rand(shape[:-1] + (4,), seed=61)

        def loss():
            return tsum(T.mul(T.linear(x, weight, bias, lora, ssf), T.Tensor(weights)))

        T.backward(loss())
        for t in (x, weight, bias, *(lora or ())[:2], *(ssf or ())):
            if not t.requires_grad:
                assert t.grad is None
                continue
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err(t.grad, fd, floor=1e-6) < 1e-5

    @pytest.mark.parametrize("terms", PEFT_TERMS)
    @pytest.mark.parametrize("shape", [(40, 16), (4, 9, 16)])
    def test_agrees_with_the_composed_primitives(self, terms, shape):
        x, weight, bias, lora, ssf = _linear_inputs(terms, shape, 24, 3, seed=62)
        leaves = (x, weight, bias, *(lora or ())[:2], *(ssf or ()))
        weights = T.Tensor(_rand(shape[:-1] + (24,), seed=63))
        results = []
        for op in (_composed_linear, T.linear):
            for t in leaves:
                t.grad = None
            out = op(x, weight, bias, lora, ssf)
            T.backward(tsum(T.mul(out, weights)))
            results.append([out.data] + [t.grad for t in leaves])
            T.clear_tape()
        for old, new in zip(*results):
            assert rel_err_tensor(new, old) <= 1e-12

    def test_inner_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match="linear") as exc:
            T.linear(T.Tensor(_rand((2, 3))), T.Tensor(_rand((4, 2))), T.Tensor(np.zeros(2)))
        assert "[2, 3]" in str(exc.value) and "[4, 2]" in str(exc.value)


class TestMatmul:
    """The matrix products inside the fused nodes check their inner dimensions."""

    def test_inner_dimension_mismatch_names_both_shapes(self):
        # a batched x: its leading axes flatten into the GEMM's rows only after the check
        with pytest.raises(ShapeError, match="linear") as exc:
            T.linear(T.Tensor(_rand((2, 5, 3))), T.Tensor(_rand((4, 2))), T.Tensor(np.zeros(2)))
        assert "[2, 5, 3]" in str(exc.value) and "[4, 2]" in str(exc.value)
        # q kᵀ: the query and key widths are the inner dimension
        with pytest.raises(ShapeError, match="attention") as exc:
            T.attention(T.Tensor(_rand((2, 3, 6))), T.Tensor(_rand((2, 3, 4))),
                        T.Tensor(_rand((2, 3, 4))), 2)
        assert "[2, 3, 6]" in str(exc.value) and "[2, 3, 4]" in str(exc.value)


class TestShapeOps:
    @pytest.mark.parametrize("op,args,shape", [
        ("transpose", ((1, 0, 2),), (3, 2, 4)),
        ("reshape", ((6, 4),), (6, 4)),
    ])
    def test_gradients(self, op, args, shape):
        x = T.Tensor(_rand((2, 3, 4), seed=6), requires_grad=True)
        weights = _rand(shape, seed=7)

        def loss():
            y = getattr(T, op)(x, *args)
            return tsum(T.mul(y, T.Tensor(weights)))

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), x.data)
        assert rel_err(x.grad, fd) < 1e-5

    def test_concat_narrow_roundtrip_and_grads(self):
        a = T.Tensor(_rand((2, 3), seed=8), requires_grad=True)
        b = T.Tensor(_rand((2, 2), seed=9), requires_grad=True)
        cat = T.concat([a, b], axis=1)
        assert np.array_equal(T.narrow(cat, 1, 0, 3).data, a.data)
        assert np.array_equal(T.narrow(cat, 1, 3, 2).data, b.data)
        weights = _rand((2, 2), seed=10)

        def loss():
            return tsum(T.mul(T.narrow(T.concat([a, b], axis=1), 1, 2, 2), T.Tensor(weights)))

        T.backward(loss())
        for t in (a, b):
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err(t.grad, fd, floor=1e-6) < 1e-5

    def test_gather_scatter_gradients(self):
        x = T.Tensor(_rand((2, 5, 3), seed=11), requires_grad=True)
        fill = T.Tensor(_rand((3,), seed=12), requires_grad=True)
        idx = np.array([[0, 2, 4], [1, 2, 3]])
        weights = _rand((2, 5, 3), seed=13)

        def loss():
            picked = T.take_tokens(x, idx)
            full = T.scatter_tokens(picked, idx, fill, 5)
            return tsum(T.mul(full, T.Tensor(weights)))

        T.backward(loss())
        for t in (x, fill):
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err(t.grad, fd, floor=1e-6) < 1e-5


def _layer_norm_inputs(shape, seed: int, frozen=()):
    """x, gamma, beta and the SSF (scale, shift) pair; names in `frozen` do not train."""
    rng = np.random.default_rng(seed)
    d = shape[-1]

    def leaf(name, dims, offset=0.0):
        return T.Tensor(rng.standard_normal(dims) + offset, requires_grad=name not in frozen)

    return (leaf("x", shape), leaf("gamma", (d,), 1.0), leaf("beta", (d,)),
            (leaf("scale", (d,), 1.0), leaf("shift", (d,))))


# which of (x, gamma, beta, scale, shift) stay frozen: none; a frozen LayerNorm
# affine; and that with a frozen input too, as in TPP's first block
LN_SSF_FROZEN = [(), ("gamma", "beta"), ("x", "gamma", "beta")]


class TestLayerNorm:
    def test_constant_row_normalizes_to_zero(self):
        x = T.Tensor([[5.0, 5.0, 5.0]])
        out = T.layer_norm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-9)

    def test_unit_gamma_rows_have_zero_mean_unit_variance(self):
        x = T.Tensor(_rand((6, 16), seed=16))
        out = T.layer_norm(x, T.Tensor(np.ones(16)), T.Tensor(np.zeros(16)))
        v = x.data.var(axis=-1)  # eps = 1e-5 shrinks each row's variance to v / (v + eps)
        assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-10
        np.testing.assert_allclose(out.data.var(axis=-1), v / (v + 1e-5), rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        x = T.Tensor(_rand((3, 8), seed=17), requires_grad=True)
        gamma = T.Tensor(_rand((8,), seed=18), requires_grad=True)
        beta = T.Tensor(_rand((8,), seed=19), requires_grad=True)
        weights = _rand((3, 8), seed=20)

        def loss():
            return tsum(T.mul(T.layer_norm(x, gamma, beta), T.Tensor(weights)))

        T.backward(loss())
        for t in (x, gamma, beta):
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err(t.grad, fd, floor=1e-6) < 1e-5

    @pytest.mark.parametrize("frozen", LN_SSF_FROZEN)
    def test_ssf_gradients_match_finite_differences(self, frozen):
        x, gamma, beta, ssf = _layer_norm_inputs((2, 3, 6), seed=21, frozen=frozen)
        weights = _rand((2, 3, 6), seed=22)

        def loss():
            return tsum(T.mul(T.layer_norm(x, gamma, beta, ssf), T.Tensor(weights)))

        T.backward(loss())
        for t in (x, gamma, beta, *ssf):
            if not t.requires_grad:
                assert t.grad is None
                continue
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err(t.grad, fd, floor=1e-6) < 1e-5

    @pytest.mark.parametrize("frozen", LN_SSF_FROZEN)
    @pytest.mark.parametrize("shape", [(7, 16), (4, 9, 16)])
    def test_ssf_is_bit_identical_to_the_composed_primitives(self, frozen, shape):
        x, gamma, beta, ssf = _layer_norm_inputs(shape, seed=23, frozen=frozen)
        leaves = (x, gamma, beta, *ssf)
        weights = T.Tensor(_rand(shape, seed=24))
        results = []
        for op in (lambda: T.add(T.mul(T.layer_norm(x, gamma, beta), ssf[0]), ssf[1]),
                   lambda: T.layer_norm(x, gamma, beta, ssf)):
            for t in leaves:
                t.grad = None
            out = op()
            T.backward(tsum(T.mul(out, weights)))
            results.append([out.data] + [t.grad for t in leaves])
            T.clear_tape()
        for old, new in zip(*results):
            assert (old is None and new is None) or np.array_equal(new, old)

    def test_wrong_ssf_shape_is_rejected(self):
        x, gamma, beta, (scale, _) = _layer_norm_inputs((2, 4), seed=25)
        with pytest.raises(ShapeError, match="layer_norm"):
            T.layer_norm(x, gamma, beta, (scale, T.Tensor(np.zeros(1))))


# which of q, k and v stay frozen: none; a frozen key or query projection;
# only v training (no cotangent passes the softmax); a frozen value projection
ATTN_FROZEN = [(), ("k",), ("q",), ("q", "k"), ("v",)]


def _attention_inputs(sq: int, s: int, d: int, seed: int, frozen=()):
    rng = np.random.default_rng(seed)
    return tuple(T.Tensor(rng.standard_normal((2, n, d)), requires_grad=name not in frozen)
                 for name, n in (("q", sq), ("k", s), ("v", s)))


def _reference_attention(q, k, v, num_heads):
    """The math of the reshape/transpose/matmul/scale/softmax graph `T.attention` replaced."""
    bsz, sq, d = q.shape
    hd = d // num_heads

    def split(t):
        return np.transpose(np.reshape(t, (bsz, t.shape[1], num_heads, hd)), (0, 2, 1, 3))

    scores = np.matmul(split(q), np.transpose(split(k), (0, 1, 3, 2))) * (1.0 / np.sqrt(hd))
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = np.matmul(e / e.sum(axis=-1, keepdims=True), split(v))
    return np.reshape(np.transpose(out, (0, 2, 1, 3)), (bsz, sq, d))


def _keep_the_weights_attention(q, k, v, num_heads, g):
    """Output and (gq, gk, gv) of attention over [B,S,d] arrays, with the weights
    kept from the forward: the vjp `T.attention` ran before it rebuilt them."""
    bsz, _, d = q.shape
    hd = d // num_heads
    scale = 1.0 / np.sqrt(hd)

    def heads(t):
        return np.transpose(np.reshape(t, (bsz, t.shape[1], num_heads, hd)), (0, 2, 1, 3))

    def merge(t):
        return np.reshape(np.transpose(t, (0, 2, 1, 3)), (bsz, t.shape[2], d))

    qh, kh, vh = heads(q), heads(k), heads(v)
    scores = np.matmul(qh, np.transpose(kh, (0, 1, 3, 2)))
    scores *= scale
    p = T.softmax(scores)
    out = merge(np.matmul(p, vh))
    g = heads(g)
    gv = merge(np.matmul(np.swapaxes(p, -1, -2), g))
    gs = np.matmul(g, np.swapaxes(vh, -1, -2))
    gs -= (gs * p).sum(axis=-1, keepdims=True)
    gs *= p
    gs *= scale
    gq = merge(np.matmul(gs, kh))
    gk = merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), gs), -1, -2))
    return out, (gq, gk, gv)


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        assert np.allclose(T.softmax(np.zeros(3)), 1.0 / 3.0, atol=1e-15)

    def test_rows_sum_to_one(self):
        out = T.softmax(_rand((3, 7), seed=21) * 10)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) <= 1e-12

    def test_large_logits_do_not_overflow_and_the_input_is_kept(self):
        z = np.array([[1000.0, 1000.0], [-1000.0, 0.0]])
        out = T.softmax(z)
        assert out.tolist() == [[0.5, 0.5], [0.0, 1.0]]
        assert z.tolist() == [[1000.0, 1000.0], [-1000.0, 0.0]]
        assert len(T.tape()) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 6), st.integers(2, 9),
           st.floats(0.05, 5.0, allow_nan=False))
    def test_property_rows_always_sum_to_one(self, rows, cols, temp):
        x = np.random.default_rng(rows * 100 + cols).standard_normal((rows, cols)) * 8
        out = T.softmax(x / temp)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) <= 1e-12


class TestAttention:
    @pytest.mark.parametrize("frozen", ATTN_FROZEN)
    @pytest.mark.parametrize("sq,heads", [(4, 2), (1, 2), (4, 1)])
    def test_gradients_match_finite_differences(self, frozen, sq, heads):
        q, k, v = _attention_inputs(sq, 4, 6, seed=64, frozen=frozen)
        weights = _rand((2, sq, 6), seed=65)

        def loss():
            return tsum(T.mul(T.attention(q, k, v, heads), T.Tensor(weights)))

        T.backward(loss())
        for t in (q, k, v):
            if not t.requires_grad:
                assert t.grad is None
                continue
            fd = finite_difference(lambda: run_forward_loss(loss), t.data)
            assert rel_err_tensor(t.grad, fd) < 1e-7

    @pytest.mark.parametrize("sq,heads", [(9, 4), (1, 4), (9, 1)])
    def test_forward_is_bit_identical_to_the_composed_math(self, sq, heads):
        q, k, v = _attention_inputs(sq, 9, 16, seed=66)
        out = T.attention(q, k, v, heads)
        assert out.shape == (2, sq, 16)
        assert np.array_equal(out.data, _reference_attention(q.data, k.data, v.data, heads))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 9), st.integers(1, 9), st.integers(1, 3),
           st.integers(1, 4), st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
    # Sq = 1; Sq = Sk, 5 rows in blocks of 2, 2 and 1; a batch of one
    @example(bsz=3, sq=1, sk=6, num_heads=2, hd=3, rows=2, v_trains=True, seed=1)
    @example(bsz=5, sq=7, sk=7, num_heads=2, hd=2, rows=2, v_trains=True, seed=2)
    @example(bsz=1, sq=4, sk=9, num_heads=3, hd=2, rows=1, v_trains=False, seed=3)
    def test_rebuilt_weights_give_the_kept_weights_cotangents_byte_for_byte(
            self, bsz, sq, sk, num_heads, hd, rows, v_trains, seed):
        rng = np.random.default_rng(seed)
        d = num_heads * hd
        q, k, v = (T.Tensor(rng.standard_normal((bsz, n, d)) * 3, requires_grad=trains)
                   for n, trains in ((sq, True), (sk, True), (sk, v_trains)))
        g = rng.standard_normal((bsz, sq, d))
        with pytest.MonkeyPatch.context() as m:  # `rows` batch rows a block
            m.setattr(T, "_ATTN_BLOCK", rows * num_heads * sq * sk)
            out = T.attention(q, k, v, num_heads)
            grads = out.node.vjp(g)
        want_out, want = _keep_the_weights_attention(q.data, k.data, v.data, num_heads, g)
        assert out.data.tobytes() == want_out.tobytes()
        for got, ref, trains in zip(grads, want, (True, True, v_trains)):
            assert (got.tobytes() == ref.tobytes()) if trains else got is None

    @pytest.mark.parametrize("shapes,heads", [
        (((2, 3, 4), (2, 3, 4), (2, 3, 4)), 3),   # d not divisible by the heads
        (((3, 4), (2, 3, 4), (2, 3, 4)), 2),      # q of rank 2
        (((2, 3, 4), (2, 3, 4), (2, 5, 4)), 2),   # k and v differ
        (((2, 3, 4), (1, 3, 4), (1, 3, 4)), 2),   # batch differs
        (((2, 3, 6), (2, 3, 4), (2, 3, 4)), 2),   # width differs
    ])
    def test_shape_errors_name_every_shape(self, shapes, heads):
        with pytest.raises(ShapeError, match="attention") as exc:
            T.attention(*(T.Tensor(np.zeros(sh)) for sh in shapes), heads)
        assert all(str(list(sh)) in str(exc.value) for sh in shapes)


class TestLosses:
    def test_mse_masked_zero_when_predictions_match_on_mask(self):
        pred = _rand((2, 4, 3), seed=24)
        target = pred.copy()
        target[:, 0] += 100.0  # corrupt an unmasked position
        mask = np.zeros((2, 4), dtype=bool)
        mask[:, 2:] = True
        out = T.mse_masked(T.Tensor(pred), T.Tensor(target), mask)
        assert out.data == 0.0

    def test_mse_masked_ignores_visible_positions(self):
        rng = np.random.default_rng(25)
        pred = T.Tensor(rng.standard_normal((2, 4, 3)))
        target = rng.standard_normal((2, 4, 3))
        mask = np.array([[True, False, True, False], [False, True, False, True]])
        base = T.mse_masked(pred, T.Tensor(target), mask).data.copy()
        mutated = target.copy()
        mutated[~mask] += rng.standard_normal(((~mask).sum(), 3)) * 10
        again = T.mse_masked(pred, T.Tensor(mutated), mask).data
        assert again == base  # bit-identical

    def test_mse_masked_empty_mask_is_an_error(self):
        with pytest.raises(ArgumentError):
            T.mse_masked(T.Tensor(_rand((1, 2, 3))), T.Tensor(_rand((1, 2, 3))),
                         np.zeros((1, 2), dtype=bool))

    def test_mse_masked_gradient(self):
        pred = T.Tensor(_rand((2, 4, 3), seed=26), requires_grad=True)
        target = T.Tensor(_rand((2, 4, 3), seed=27))
        mask = np.array([[True, False, True, False], [False, True, True, True]])

        def loss():
            return T.mse_masked(pred, target, mask)

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), pred.data)
        assert rel_err(pred.grad, fd, floor=1e-6) < 1e-5

    def test_cross_entropy_gradient(self):
        logits = T.Tensor(_rand((5, 4), seed=28), requires_grad=True)
        labels = np.array([0, 3, 1, 1, 2])

        def loss():
            return T.cross_entropy(logits, labels)

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), logits.data)
        assert rel_err(logits.grad, fd, floor=1e-6) < 1e-5

    def test_soft_cross_entropy_of_uniform_with_itself_is_ln2(self):
        p = np.array([[0.5, 0.5]])
        logits = T.Tensor(np.zeros((1, 2)))
        out = T.soft_cross_entropy(p, logits, temperature=1.0)
        assert abs(out.data - np.log(2.0)) < 1e-12

    def test_soft_cross_entropy_gradient(self):
        rng = np.random.default_rng(29)
        raw = rng.random((4, 6))
        teacher = raw / raw.sum(axis=-1, keepdims=True)
        student = T.Tensor(rng.standard_normal((4, 6)), requires_grad=True)

        def loss():
            return T.soft_cross_entropy(teacher, student, temperature=0.3)

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), student.data)
        assert rel_err(student.grad, fd, floor=1e-6) < 1e-5

    @pytest.mark.parametrize("classes", [2, 3])
    def test_dice_ce_gradient(self, classes):
        logits = T.Tensor(_rand((2, classes, 4, 5), seed=30) * 2, requires_grad=True)
        masks = (np.random.default_rng(31).random((2, 4, 5)) > 0.5).astype(np.intp)

        def loss():
            return T.dice_ce(logits, masks)

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), logits.data)
        assert rel_err_tensor(logits.grad, fd) < 1e-7

    def test_dice_ce_of_a_perfect_confident_prediction_is_near_zero(self):
        masks = (np.random.default_rng(32).random((3, 6, 6)) > 0.5).astype(np.intp)
        logits = np.stack([50.0 * (1 - masks), 50.0 * masks], axis=1)
        out = T.dice_ce(T.Tensor(logits), masks)
        assert 0.0 <= out.data < 1e-6  # CE >= 0, so the Dice term is near 0 too

    def test_dice_ce_on_all_background_masks(self):
        masks = np.zeros((2, 3, 4), dtype=np.intp)
        logits = T.Tensor(np.zeros((2, 2, 3, 4)), requires_grad=True)
        # uniform probabilities: CE is ln 2, and Dice is 1 - s / (sum(p) + s)
        expected = np.log(2.0) + (1.0 - 1e-5 / (0.5 * masks.size + 1e-5))
        assert abs(T.dice_ce(logits, masks).data - expected) < 1e-12
        logits.data[:] = _rand(logits.shape, seed=33)

        def loss():
            return T.dice_ce(logits, masks)

        T.backward(loss())
        fd = finite_difference(lambda: run_forward_loss(loss), logits.data)
        assert rel_err_tensor(logits.grad, fd) < 1e-7

    @pytest.mark.parametrize("logits_shape, masks_shape", [
        ((2, 2, 4, 4), (2, 4, 5)), ((2, 2, 4, 4), (4, 4)), ((2, 1, 4, 4), (2, 4, 4)),
        ((2, 4, 4), (2, 4, 4))])
    def test_dice_ce_shape_mismatch_raises(self, logits_shape, masks_shape):
        with pytest.raises(ShapeError, match="dice_ce"):
            T.dice_ce(T.Tensor(np.zeros(logits_shape)), np.zeros(masks_shape, dtype=np.intp))


class TestBackwardContract:
    def test_linear_loss_gradient_is_the_fixed_input(self):
        x = np.array([1.0, -2.0, 3.0])
        w = T.Tensor(np.zeros(3), requires_grad=True)
        T.backward(tsum(T.mul(w, T.Tensor(x))))
        assert np.array_equal(w.grad, x)

    def test_grads_accumulate_across_backward_calls(self):
        w = T.Tensor(np.ones(3), requires_grad=True)
        loss = tsum(T.mul(w, T.Tensor([1.0, 2.0, 3.0])))
        T.backward(loss)
        first = w.grad.copy()
        T.backward(loss)
        assert np.array_equal(w.grad, 2 * first)

    def test_non_scalar_loss_rejected(self):
        w = T.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ArgumentError):
            T.backward(T.mul(w, w))

    def test_untaped_loss_rejected(self):
        with pytest.raises(StateError):
            T.backward(T.Tensor(1.0, requires_grad=True))

    def test_cleared_tape_cannot_backprop(self):
        w = T.Tensor(np.ones(3), requires_grad=True)
        loss = tsum(T.mul(w, w))
        T.clear_tape()
        with pytest.raises(StateError):
            T.backward(loss)

    def test_op_on_an_input_from_a_cleared_tape_is_rejected(self):
        # its dead node's index would route a cotangent to another node
        w = T.Tensor(np.ones(1), requires_grad=True)
        v = T.Tensor(np.ones(1), requires_grad=True)
        stale = T.mul(w, 3.0)
        T.clear_tape()
        a = T.mul(v, 2.0)
        with pytest.raises(StateError):
            T.mul(a, stale)
        assert len(T.tape()) == 1
        with T.no_grad():  # reading its value records nothing and stays allowed
            assert np.array_equal(T.mul(a, stale).data, [6.0])

    def test_no_gradient_leakage_to_frozen_tensors(self):
        frozen = T.Tensor(_rand((4, 4), seed=33), requires_grad=False)
        live = T.Tensor(_rand((4, 4), seed=34), requires_grad=True)
        T.backward(tsum(T.linear(frozen, live, T.zeros(4))))
        assert frozen.grad is None
        assert live.grad is not None

    def test_frozen_only_subgraphs_stay_off_the_tape(self):
        a = T.Tensor(_rand((2, 3, 4)))
        b = T.Tensor(_rand((2, 3, 4)))
        before = len(T.tape())
        out = T.attention(a, b, b, 2)
        assert len(T.tape()) == before
        assert out.node is None and not out.requires_grad

    def test_no_grad_context_records_nothing(self):
        w = T.Tensor(np.ones(3), requires_grad=True)
        with T.no_grad():
            out = tsum(T.mul(w, w))
        assert out.node is None

    def test_determinism_same_ops_same_bits(self):
        def run():
            x = T.Tensor(_rand((2, 8, 8), seed=35), requires_grad=True)
            y = T.attention(x, T.linear(x, T.Tensor(_rand((8, 8), seed=36)), T.zeros(8)), x, 2)
            loss = tsum(T.mul(y, y))
            T.backward(loss)
            return loss.data.copy(), x.grad.copy()

        l1, g1 = run()
        T.clear_tape()
        l2, g2 = run()
        assert np.array_equal(l1, l2) and np.array_equal(g1, g2)


class TestTapeLiveness:
    """The tape keeps only the arrays that a needed cotangent reads.

    Each case feeds an intermediate `h` (recorded, not a leaf) to the op
    under test, with the op's other inputs frozen, and drops every Python
    reference to `h`. While the tape is alive `h.data` must be collected,
    and backward must still match the finite-difference oracle.
    """

    @pytest.mark.parametrize("op", ["attention_frozen_kv", "attention_frozen_qv",
                                    "attention_frozen_qk", "linear_frozen_weight",
                                    "linear_frozen_weight_ssf", "mul_frozen_left",
                                    "mul_frozen_right", "dice_ce", "layer_norm",
                                    "layer_norm_ssf", "gelu"])
    def test_intermediate_input_is_freed_before_backward(self, op):
        frozen = T.Tensor(_rand((5, 5), seed=40) + 4.0)
        rows = T.narrow(frozen, 0, 0, 3)
        keys = T.Tensor(_rand((4, 3, 5), seed=39))
        bias = T.Tensor(_rand((5,), seed=38))
        ssf = (T.Tensor(_rand((5,), seed=37) + 1.0), T.Tensor(_rand((5,), seed=36)))
        apply, shape = {
            "attention_frozen_kv": (lambda h: T.attention(h, keys, keys, 1), (4, 3, 5)),
            "attention_frozen_qv": (lambda h: T.attention(keys, h, keys, 1), (4, 3, 5)),
            "attention_frozen_qk": (lambda h: T.attention(keys, keys, h, 1), (4, 3, 5)),
            "linear_frozen_weight": (lambda h: T.linear(h, frozen, bias), (4, 3, 5)),
            "linear_frozen_weight_ssf": (lambda h: T.linear(h, frozen, bias, ssf=ssf), (4, 3, 5)),
            "mul_frozen_left": (lambda h: T.mul(rows, h), (3, 5)),
            "mul_frozen_right": (lambda h: T.mul(h, rows), (3, 5)),
            "dice_ce": (lambda h: T.dice_ce(h, (_rand((2, 3, 3), seed=39) > 0)), (2, 2, 3, 3)),
            "layer_norm": (lambda h: T.layer_norm(h, T.Tensor(_rand((5,), seed=41)),
                                                  T.Tensor(_rand((5,), seed=42))), (4, 5)),
            "layer_norm_ssf": (lambda h: T.layer_norm(h, T.Tensor(_rand((5,), seed=41)),
                                                      T.Tensor(_rand((5,), seed=42)), ssf), (4, 5)),
            "gelu": (T.gelu, (3, 5)),
        }[op]
        x = T.Tensor(_rand(shape, seed=43), requires_grad=True)
        refs = []

        def loss():
            h = T.mul(x, 1.5)
            refs.append(weakref.ref(h.data))
            y = apply(h)
            return tsum(T.mul(y, T.Tensor(_rand(y.shape, seed=44))))

        out = loss()
        gc.collect()
        assert refs[0]() is None
        assert out.node.alive and len(T.tape()) == 4
        # a node links to parent nodes and trainable leaves, never to an intermediate
        for node in T.tape():
            for parent in node.parents:
                assert parent is None or isinstance(parent, T.Node) or parent is x
        T.backward(out)
        fd = finite_difference(lambda: run_forward_loss(loss), x.data)
        assert rel_err(x.grad, fd, floor=1e-6) < 1e-5

    def test_frozen_weight_linear_saves_only_the_weight(self):
        w = T.Tensor(_rand((5, 2), seed=45))
        h = T.mul(T.Tensor(_rand((3, 5), seed=46), requires_grad=True), 2.0)
        out = T.linear(h, w, T.zeros(2))
        assert [a is w.data for a in saved_arrays(out.node)] == [True]

    @pytest.mark.parametrize("frozen,kept", [
        ((), "qkv"),         # q's and k's heads rebuild the weights
        (("k",), "kv"),      # q's heads feed only k's cotangent
        (("q",), "qv"),      # and k's heads only q's
        (("q", "k"), ""),    # v's cotangent reads the attention weights alone
        (("v",), "qkv"),     # v's heads feed the cotangent of the weights
    ])
    def test_attention_keeps_only_what_its_cotangents_read(self, frozen, kept):
        q, k, v = _attention_inputs(3, 4, 6, seed=68, frozen=frozen)
        saved = saved_arrays(T.attention(q, k, v, 2).node)
        # the [2, 2, 3, 4] weights, or the row max and row sum that rebuild them
        rebuilt = "q" in kept and "k" in kept
        weights = [a for a in saved if a.shape == ((2, 2, 3, 1) if rebuilt else (2, 2, 3, 4))]
        assert len(weights) == (2 if rebuilt else 1)
        assert not any(np.shares_memory(w, t.data) for w in weights for t in (q, k, v))
        inputs = {name: t for name, t in zip("qkv", (q, k, v))}
        assert "".join(n for n, t in inputs.items()
                       if any(np.shares_memory(a, t.data) for a in saved)) == kept
        assert len(saved) == len(weights) + len(kept)

    @pytest.mark.parametrize("terms", PEFT_TERMS)
    def test_frozen_weight_linear_keeps_no_input_sized_array(self, terms):
        # only LoRA B and the SSF terms train: their cotangents read x @ A and
        # the unmodulated output, never the input
        h = T.mul(T.Tensor(_rand((2, 3, 5), seed=50), requires_grad=True), 2.0)
        _, weight, bias, lora, ssf = _linear_inputs(terms, (5,), 4, 2, seed=51,
                                                    frozen=("weight", "bias", "A"))
        out = T.linear(h, weight, bias, lora, ssf)
        saved = saved_arrays(out.node)
        assert all(a.shape[-1] != 5 for a in saved)  # x is [.., 5]; W, A, B end in 4 or 2
        lora_saved = {(5, 2), (2, 4), (6, 2)}  # A, B, x @ A
        ssf_saved = {(4,), (6, 4)}  # gamma, the unmodulated output
        assert {a.shape for a in saved} == {(5, 4)} | {
            "plain": set(), "lora": lora_saved, "ssf": ssf_saved,
            "lora+ssf": lora_saved | ssf_saved}[terms]

    def test_trainable_lora_a_keeps_the_input_itself(self):
        h = T.mul(T.Tensor(_rand((2, 3, 5), seed=52), requires_grad=True), 2.0)
        _, weight, bias, lora, _ = _linear_inputs("lora", (5,), 4, 2, seed=53,
                                                  frozen=("weight", "bias", "B"))
        out = T.linear(h, weight, bias, lora)
        assert sum(a is h.data for a in saved_arrays(out.node)) == 1

    def test_layer_norm_with_only_beta_trainable_saves_no_activation(self):
        x = T.Tensor(_rand((3, 5), seed=48))
        beta = T.Tensor(np.zeros(5), requires_grad=True)  # BitFit trains biases only
        out = T.layer_norm(x, T.Tensor(np.ones(5)), beta)
        assert all(a.size <= 5 for a in saved_arrays(out.node))
        T.backward(tsum(T.mul(out, T.Tensor(_rand((3, 5), seed=49)))))
        assert np.array_equal(beta.grad, _rand((3, 5), seed=49).sum(axis=0))

    @pytest.mark.parametrize("x_trains,trains,activations", [
        (False, ("shift",), 0),           # nothing: the shift's cotangent is a column sum
        (False, ("scale", "shift"), 1),   # the LayerNorm output, for the scale's cotangent
        (True, ("shift",), 1),            # xhat, for the input's cotangent
        (True, ("scale", "shift"), 1),    # xhat: the LayerNorm output is rebuilt from it
    ])
    def test_frozen_affine_ssf_layer_norm_keeps_only_what_its_cotangents_read(
            self, x_trains, trains, activations):
        frozen = ("x", "gamma", "beta") + tuple(n for n in ("scale", "shift") if n not in trains)
        x, gamma, beta, ssf = _layer_norm_inputs((3, 5), seed=54, frozen=frozen)
        h = T.mul(T.Tensor(x.data, requires_grad=True), 2.0) if x_trains else x
        saved = saved_arrays(T.layer_norm(h, gamma, beta, ssf).node)
        assert sum(a.shape == (3, 5) for a in saved) == activations
        assert all(a is not h.data for a in saved)
        if activations == 0:
            assert saved == []

    def test_gelu_keeps_exactly_one_input_sized_array(self):
        h = T.mul(T.Tensor(_rand((3, 5), seed=47), requires_grad=True), 2.0)
        out = T.gelu(h)
        saved = saved_arrays(out.node)
        assert [a.shape for a in saved] == [h.shape]
        assert saved[0] is not h.data and saved[0] is not out.data
