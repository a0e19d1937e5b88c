import gc

import numpy as np
import pytest

from gwindcast import model as model_module
from gwindcast import neural, trainer
from gwindcast.errors import BatchTooSmall, GraphNotRecorded, OddWidth, ShapeMismatch
from gwindcast.model import ModelConfig, WindModel
from gwindcast.neural import (
    BatchNorm,
    Dense,
    MultiHeadAttention,
    Param,
    Tensor,
    glorot_uniform,
    mse_loss,
    positional_encoding,
    reshape,
)
from reference_impls import (
    fd_gradient,
    loop_attention,
    loop_batchnorm_train,
    loop_positional,
    prior_attention,
    prior_attention_forward,
    prior_batchnorm_inference,
    prior_batchnorm_train,
    prior_dense,
)

# the single-window cycle, a chunk on OpenBLAS's small-matrix path and a
# predict of two chunks
ROWS = (1, 87, 2049)


def check_grad(build, target, eps=1e-6, tol=1e-7):
    """Compare the gradient one backward of build() leaves in target, a
    Param or a leaf Tensor that build reads, against central differences."""
    value = target.value if isinstance(target, Param) else target.data
    if isinstance(target, Param):
        target.grad[...] = 0.0  # a layer's backward adds into it
    build().backward()
    analytic = target.grad.copy()

    def f(v):
        saved = value.copy()
        value[...] = v
        val = float(build().data)
        value[...] = saved
        return val

    numeric = fd_gradient(f, value.copy(), eps=eps)
    assert np.allclose(analytic, numeric, rtol=tol, atol=tol)


def test_tensor_is_float64_and_tracks_parents():
    t = Tensor(np.array([1, 2, 3], dtype=np.int32))
    assert t.data.dtype == np.float64
    assert not t.requires_grad
    # a node needs a gradient because it records a backward, whatever its
    # parents need
    u = neural.residual(t, Tensor(np.ones(3)))
    assert u._parents[0] is t and u.requires_grad


def test_backward_requires_scalar_and_graph():
    t = Tensor(np.ones(3))
    with pytest.raises(GraphNotRecorded):
        reshape(t, (3,)).backward()
    with pytest.raises(GraphNotRecorded):
        Tensor(np.ones(1)).backward()


def test_elementwise_ops_gradients():
    rng = np.random.default_rng(11)
    for _ in range(8):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        other = Tensor(rng.normal(size=(4, 3)))
        y = rng.normal(size=(2, 6))
        check_grad(lambda: mse_loss(
            reshape(neural.residual(reshape(x, (4, 3)), other), (2, 6)), y), x)


def test_mse_loss_value_and_gradient():
    t = Tensor(np.array([1.0, 2.0, 5.0]), requires_grad=True)
    loss = mse_loss(t, np.array([1.0, 2.0, 3.0]))
    assert float(loss.data) == pytest.approx(4.0 / 3.0)
    loss.backward()
    assert np.allclose(t.grad, 2.0 * np.array([0.0, 0.0, 2.0]) / 3.0)
    with pytest.raises(ShapeMismatch):
        mse_loss(t, np.zeros((2, 2)))


def test_gradient_accumulates_across_shared_use():
    # the same leaf feeding two branches receives the sum of both gradients:
    # mean((x + x)^2) -> 8x / 2
    t = Tensor(np.array([2.0, -1.0]), requires_grad=True)
    mse_loss(neural.residual(t, t), np.zeros(2)).backward()
    assert np.allclose(t.grad, 4.0 * t.data, rtol=1e-14)
    # the outer sum hands one array to the inner sum and to a, and the inner
    # sum hands it on to a and b, so a and b start from one shared array:
    # adding a's second share into it in place would corrupt b's gradient.
    # mean((a + b + a)^2) = mean((3x)^2) -> 18x / 2
    t = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
    a, b = reshape(t, (2,)), reshape(t, (2,))
    mse_loss(neural.residual(neural.residual(a, b), a), np.zeros(2)).backward()
    assert np.allclose(t.grad, 9.0 * t.data, rtol=1e-14)


def test_a_layer_used_twice_receives_the_sum_of_both_gradients():
    # one Dense applied twice in one graph adds both uses' gradients into
    # Param.grad: the same bits as two copies of it, each used once, and
    # the central differences of the shared weights
    rng = np.random.default_rng(12)
    shared, inner, outer = (Dense("d", 4, 4, rng, activation="tanh") for _ in range(3))
    for copies in zip(shared.params(), inner.params(), outer.params()):
        value = rng.normal(size=copies[0].value.shape)
        for p in copies:
            p.value[...] = value
    x, y = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
    mse_loss(shared.forward(shared.forward(Tensor(x))), y).backward()
    mse_loss(outer.forward(inner.forward(Tensor(x))), y).backward()
    for p, p_in, p_out in zip(shared.params(), inner.params(), outer.params()):
        assert p.grad.tobytes() == (p_in.grad + p_out.grad).tobytes(), p.name
    for p in shared.params():
        check_grad(lambda: mse_loss(shared.forward(shared.forward(Tensor(x))), y), p)


def test_backward_drops_interior_gradients_and_keeps_leaf_ones():
    # once a node's backward has used its output's gradient, backward drops
    # it, so a graph held after its backward carries no gradient array:
    # every node with a backward (the loss, the layers, the sums and the
    # flatten of the default model) ends with grad None, and a leaf keeps
    # the gradient the graph gives it
    mdl = WindModel(ModelConfig(n_stations=60), seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, mdl.config.window_steps, mdl.config.n_stations))
    loss = mse_loss(mdl.forward_batch(x, training=True), rng.normal(size=(16, 27)))
    loss.backward()
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    interior = [n for n in nodes.values() if n._backward is not None]
    assert len(interior) > 10 and all(n.grad is None for n in interior)
    assert all(p.grad.any() for p in mdl.params())
    dense = Dense("d", 4, 3, rng, activation="tanh")
    leaf = Tensor(rng.normal(size=(5, 4)), requires_grad=True)

    def build():
        hidden = dense.forward(leaf)
        return mse_loss(neural.residual(hidden, hidden), np.zeros((5, 3)))

    loss = build()
    loss.backward()
    total = loss._parents[0]
    assert loss.grad is None and total.grad is None and total._parents[0].grad is None
    assert leaf.grad.shape == leaf.data.shape and leaf.grad.any()
    check_grad(build, leaf)


def test_step_and_predict_leave_no_cyclic_garbage():
    # backward functions never refer to their own output, so reference
    # counting alone frees a training graph and an inference graph
    mdl = WindModel(ModelConfig(n_stations=60), seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(128, mdl.config.window_steps, mdl.config.n_stations))
    y = rng.normal(size=(128, mdl.config.output_dim))
    params = mdl.params()
    adam = trainer.AdamState.for_params(params)
    gc.collect()
    gc.disable()
    try:
        loss = mse_loss(mdl.forward_batch(x, training=True), y)
        loss.backward()
        trainer.adam_step(params, adam, trainer.TrainConfig())
        del loss
        step_garbage = gc.collect()
        mdl.predict(x[:1])
        predict_garbage = gc.collect()
    finally:
        gc.enable()
    assert (step_garbage, predict_garbage) == (0, 0)


def test_predict_records_no_graph(monkeypatch):
    # inference runs on plain arrays and builds no tensor at all; the
    # training forward of the same model still records its graph, over
    # activations only
    mdl = WindModel(ModelConfig(n_stations=10), seed=0)
    x = np.random.default_rng(0).normal(size=(4, mdl.config.window_steps, 10))
    built = []
    init = neural.Tensor.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(neural.Tensor, "__init__", recording)
    mdl.predict(x)
    mdl.predict(x[:1])
    assert built == []
    neural.mse_loss(mdl.forward_batch(x, training=True), np.zeros((4, mdl.config.output_dim)))
    # 15 nodes (the four residual sums and the loss included) and the input;
    # every parent is one of them, none a parameter
    assert len(built) == 16
    assert sum(1 for t in built if t._parents) == 15
    assert {id(p) for t in built for p in t._parents} <= {id(t) for t in built}


def test_positional_encoding_matches_loop_reference():
    pe = positional_encoding(7, 10)
    ref = loop_positional(7, 10)
    assert np.allclose(pe, ref, atol=1e-14)
    assert pe.shape == (7, 10)
    # position 0 alternates exactly 0, 1
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)
    with pytest.raises(OddWidth):
        positional_encoding(4, 5)


def test_glorot_bounds_and_determinism():
    w1 = glorot_uniform(np.random.default_rng(4), 30, 50)
    w2 = glorot_uniform(np.random.default_rng(4), 30, 50)
    assert np.array_equal(w1, w2)
    limit = np.sqrt(6.0 / 80.0)
    assert np.abs(w1).max() <= limit


def test_dense_forward_matches_manual():
    rng = np.random.default_rng(21)
    layer = Dense("d", 4, 3, rng, activation="tanh")
    for x in (rng.normal(size=(6, 4)), rng.normal(size=(2, 6, 4))):  # leading axes flatten
        got = layer.forward(Tensor(x)).data
        want = np.tanh(x @ layer.w.value + layer.b.value)
        assert np.allclose(got, want, atol=1e-15)


def test_attention_matches_loop_reference():
    rng = np.random.default_rng(31)
    for heads in (1, 2, 4):
        width = 8
        mha = MultiHeadAttention("a", width, heads, rng)
        x = rng.normal(size=(3, 5, width))
        got = mha.forward(Tensor(x)).data
        want = loop_attention(
            x, mha.wq.value, mha.wk.value, mha.wv.value, mha.wo.value,
            mha.bo.value, heads,
        )
        assert np.allclose(got, want, atol=1e-12)


def test_attention_keeps_the_bits_of_a_backward_that_recomputes_query_and_key():
    # the recorded forward keeps q and kT for the backward; every output and
    # gradient must equal, bit for bit, the formulas that recomputed them
    rng = np.random.default_rng(34)
    # 7 and 8 tokens sit either side of numpy's pairwise row sum
    for b, n, width, heads in ((2, 3, 6, 2), (128, 6, 60, 4), (128, 7, 60, 4), (128, 8, 60, 4)):
        mha = MultiHeadAttention("a", width, heads, rng)
        mha.bo.value[...] = rng.normal(size=width)
        x = rng.normal(size=(b, n, width))
        g = rng.normal(size=(b, n, width))
        out = mha.forward(Tensor(x, requires_grad=True))
        want_y, want = prior_attention(x, g, *(p.value for p in mha.params()), heads)
        assert out.data.tobytes() == want_y.tobytes()
        for p in mha.params():
            p.grad[...] = 0.0
        # the input's query, key and value gradients are returned; the
        # parameters' are added into Param.grad
        got = (*out._backward(g), *(p.grad for p in mha.params()))
        assert len(got) == len(want) == 8
        for got_g, want_g in zip(got, want):
            assert got_g.tobytes() == want_g.tobytes()
        assert mha.infer(x).tobytes() == want_y.tobytes()


@pytest.mark.parametrize("recording", [True, False])
@pytest.mark.parametrize("rows", ROWS)
def test_forwards_keep_the_bits_of_the_prior_formulas(rows, recording):
    # each layer does its elementwise steps in an array it made itself; the
    # outputs of the recorded forward and of the array inference must equal
    # the formulas that made a new array per step, and the input array must
    # be left as it was
    rng = np.random.default_rng(rows)
    ff = Dense("ff", 60, 60, rng, activation="tanh")
    head = Dense("head", 360, 27, rng)
    mha = MultiHeadAttention("a", 60, 4, rng)
    bn = BatchNorm("bn", 60)
    for p in (ff.b, head.b, mha.bo, bn.gamma, bn.beta):
        p.value[...] = rng.normal(size=p.value.shape)
    bn.running_mean, bn.running_var = rng.normal(size=60), rng.uniform(0.5, 2.0, size=60)
    x = rng.normal(size=(rows, 6, 60))
    kept = x.copy()
    if recording:
        run = {"ff": lambda a: ff.forward(Tensor(a)).data,
               "head": lambda a: head.forward(Tensor(a)).data,
               "attention": lambda a: mha.forward(Tensor(a)).data,
               "bn": lambda a: bn.forward(Tensor(a), training=False).data}
    else:
        run = {"ff": ff.infer, "head": head.infer, "attention": mha.infer, "bn": bn.infer}
    got = {"ff": run["ff"](x), "head": run["head"](x.reshape(rows, -1)),
           "attention": run["attention"](x), "bn": run["bn"](x)}
    want = {"ff": prior_dense(x, ff.w.value, ff.b.value, "tanh"),
            "head": prior_dense(x.reshape(rows, -1), head.w.value, head.b.value, None),
            "attention": prior_attention_forward(x, *(p.value for p in mha.params()), 4)[0],
            "bn": prior_batchnorm_inference(x, bn.running_mean, bn.running_var,
                                            bn.gamma.value, bn.beta.value)}
    if recording:
        bn.MOMENTUM = 0.0
        got["bn_train"] = bn.forward(Tensor(x), training=True).data
        want["bn_train"] = prior_batchnorm_train(
            x.reshape(-1, 60), bn.gamma.value, bn.beta.value, np.zeros((rows * 6, 60))
        )[2].reshape(x.shape)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("recording", [True, False])
def test_residual_sums_into_the_layer_output_only_without_a_graph(recording):
    rng = np.random.default_rng(7)
    x, fx = rng.normal(size=(5, 6, 8)), rng.normal(size=(5, 6, 8))
    kept, want = x.copy(), x + fx
    if recording:
        xt, fxt = Tensor(x), Tensor(fx)
        out = neural.residual(xt, fxt)
        assert out._parents == (xt, fxt)
        got = out.data
    else:
        got = model_module._residual(x, fx)
    assert got.tobytes() == want.tobytes()
    assert x.tobytes() == kept.tobytes()
    # recording, the sum is an add node and the layer output, which its
    # backward may read, stays as it was; the inference chain writes the
    # sum into the layer output's own array
    assert (got is fx) is not recording


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 128])
@pytest.mark.parametrize("tokens", range(1, 13))
def test_row_sum_keeps_the_bits_of_numpy_sum(tokens, rows):
    # below 8 entries a row is summed column by column, from 8 on by numpy;
    # rows of mixed signs and magnitudes, and rows of signed zeros
    rng = np.random.default_rng(100 * tokens + rows)
    shape = (rows, 4, tokens, tokens)
    s = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    zeros = rng.choice([-0.0, 0.0], size=shape)
    for a in (s, np.exp(s / 1e8), zeros):
        assert neural._row_sum(a).tobytes() == a.sum(axis=-1, keepdims=True).tobytes()


def test_attention_weights_are_row_stochastic():
    rng = np.random.default_rng(33)
    mha = MultiHeadAttention("a", 6, 3, rng)
    x = rng.normal(size=(2, 4, 6))
    w = mha._softmax(*mha._query_key(x))
    assert w.shape == (2, 3, 4, 4)
    assert np.allclose(w.sum(axis=-1), 1.0)
    assert (w >= 0).all()


def test_softmax_is_shift_stable():
    # the attention softmax is max-shifted, so scores far beyond exp's range
    # still give finite rows that sum to one
    rng = np.random.default_rng(33)
    mha = MultiHeadAttention("a", 6, 3, rng)
    x = 1000.0 * rng.normal(size=(2, 4, 6))
    q, kt = mha._query_key(x)
    assert np.abs(np.matmul(q, kt) * mha._scale).max() > 710.0  # exp overflows
    w = mha._softmax(q, kt)
    assert np.isfinite(w).all()
    assert np.allclose(w.sum(axis=-1), 1.0)


def test_attention_rejects_bad_width():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeMismatch):
        MultiHeadAttention("a", 7, 2, rng)
    mha = MultiHeadAttention("a", 8, 2, rng)
    with pytest.raises(ShapeMismatch):
        mha.forward(Tensor(np.zeros((2, 3, 5))))


def test_attention_param_gradients():
    rng = np.random.default_rng(41)
    mha = MultiHeadAttention("a", 6, 2, rng)
    x = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
    y = rng.normal(size=(2, 3, 6))
    # the input feeds the query, key and value projections
    for target in mha.params() + [x]:
        check_grad(lambda: mse_loss(mha.forward(x), y), target, tol=1e-6)


def test_batchnorm_training_matches_loop_reference():
    rng = np.random.default_rng(51)
    bn = BatchNorm("bn", 5)
    bn.gamma.value[...] = rng.normal(size=5)
    bn.beta.value[...] = rng.normal(size=5)
    x = rng.normal(loc=3.0, scale=2.0, size=(16, 5))
    got = bn.forward(Tensor(x), training=True).data
    want, means, variances = loop_batchnorm_train(x, bn.gamma.value, bn.beta.value)
    assert np.allclose(got, want, atol=1e-12)
    # running stats blend toward the batch statistics with momentum 0.9
    assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * means)
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * variances)
    # (batch, tokens, width) normalizes over batch and tokens: the 2-D result
    # of its reshape, running statistics included
    x3 = rng.normal(size=(4, 4, 5))
    flat = BatchNorm("flat", 5)
    flat.load_buffers({"flat.running_mean": bn.running_mean, "flat.running_var": bn.running_var})
    flat.gamma.value[...] = bn.gamma.value
    flat.beta.value[...] = bn.beta.value
    got3 = bn.forward(Tensor(x3), training=True).data
    want3 = flat.forward(Tensor(x3.reshape(16, 5)), training=True).data
    assert np.array_equal(got3, want3.reshape(4, 4, 5))
    assert np.array_equal(bn.running_mean, flat.running_mean)
    assert np.array_equal(bn.running_var, flat.running_var)


@pytest.mark.parametrize("rows", [2, 3, 767, 768])
def test_batchnorm_keeps_the_bits_of_np_mean_and_np_var(rows):
    # the forward centres once and sums the squares as np.var does; the
    # backward takes each sum once: batch statistics, output and all three
    # gradients must equal the prior formulas bit for bit
    rng = np.random.default_rng(rows)
    bn = BatchNorm("bn", 60)
    bn.MOMENTUM = 0.0  # the running statistics become the batch statistics
    bn.gamma.value[...] = rng.normal(size=60)
    bn.beta.value[...] = rng.normal(size=60)
    x = rng.normal(loc=3.0, scale=2.0, size=(rows, 60))
    g = rng.normal(size=(rows, 60))
    out = bn.forward(Tensor(x, requires_grad=True), training=True)
    mu, var, y, grads = prior_batchnorm_train(x, bn.gamma.value, bn.beta.value, g)
    assert bn.running_mean.tobytes() == mu.tobytes()
    assert bn.running_var.tobytes() == var.tobytes()
    assert out.data.tobytes() == y.tobytes()
    bn.gamma.grad[...] = bn.beta.grad[...] = 0.0
    got = (*out._backward(g), bn.gamma.grad, bn.beta.grad)
    assert len(got) == 3
    for got_g, want_g in zip(got, grads):
        assert got_g.tobytes() == want_g.tobytes()


def test_batchnorm_inference_uses_running_stats():
    rng = np.random.default_rng(52)
    bn = BatchNorm("bn", 3)
    x = rng.normal(size=(8, 3))
    bn.forward(Tensor(x), training=True)
    y1 = bn.forward(Tensor(x), training=False).data
    y2 = bn.forward(Tensor(x), training=False).data
    assert np.array_equal(y1, y2)  # inference must not mutate state
    want = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.EPS)
    want = bn.gamma.value * want + bn.beta.value
    assert np.allclose(y1, want, atol=1e-12)


def test_batchnorm_rejects_single_row_batches():
    bn = BatchNorm("bn", 3)
    with pytest.raises(BatchTooSmall):
        bn.forward(Tensor(np.zeros((1, 3))), training=True)


def test_batchnorm_gradients_training_mode():
    rng = np.random.default_rng(53)
    bn = BatchNorm("bn", 4)
    bn.gamma.value[...] = rng.normal(size=4)
    bn.beta.value[...] = rng.normal(size=4)
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    y = rng.normal(size=(6, 4))
    mean0 = bn.running_mean.copy()
    var0 = bn.running_var.copy()

    def build():
        # keep running stats frozen so repeated FD evaluations see the same
        # layer state
        bn.running_mean[...] = mean0
        bn.running_var[...] = var0
        return mse_loss(bn.forward(x, training=True), y)

    for target in (x, bn.gamma, bn.beta):
        check_grad(build, target, tol=1e-7)


def test_buffers_round_trip():
    rng = np.random.default_rng(54)
    bn = BatchNorm("bn", 3)
    bn.forward(Tensor(rng.normal(size=(5, 3))), training=True)
    buf = bn.buffers()
    fresh = BatchNorm("bn", 3)
    fresh.load_buffers(buf)
    assert np.array_equal(fresh.running_mean, bn.running_mean)
    assert np.array_equal(fresh.running_var, bn.running_var)
