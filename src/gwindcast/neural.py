"""Minimal reverse-mode tensor graph and the layers the wind models need.

Everything is float64. Each layer (``Dense``, ``MultiHeadAttention``,
``BatchNorm``) has two entry points over one set of arithmetic helpers:

* ``infer(x)`` takes an ndarray and returns one. It is the inference path:
  no ``Tensor``, no backward, no shape check, and it drops each array it is
  done with (attention's query, key, weights and values) at once.
* ``forward(x)`` takes a ``Tensor`` and records one graph node whose
  parents are its inputs and whose backward is plain numpy. The models
  join the nodes with ``residual`` sums, ``reshape`` (the flatten before
  the readout) and ``mse_loss``; this is the training path.

``Tensor.backward()`` walks the recorded graph in reverse topological order;
each layer's backward adds its own parameter gradients into ``Param.grad``
in place and returns its input's. A node's backward maps the gradient ``g``
of its output to one gradient (or ``None``) per parent, in the order of the
parents. It never refers to its own output, so a graph holds no reference
cycle and is freed by reference counting as soon as the loss is dropped.
The gradients it returns may be ``g`` itself or views of it;
``Tensor.backward()`` stores them and adds later ones out of place, so no
returned gradient is ever written to. Both paths do their elementwise steps
(bias, tanh, softmax, batch-norm scale) in an array they made themselves,
never in one they were passed or one a backward reads, so they give the
same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import BatchTooSmall, GraphNotRecorded, OddWidth, ShapeMismatch


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_backward", "requires_grad")

    def __init__(self, data, parents=(), backward=None, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.grad = None
        self._parents = tuple(parents)
        self._backward = backward
        self.requires_grad = requires_grad or backward is not None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise GraphNotRecorded("backward() must start from a scalar")
        if not self._parents:
            raise GraphNotRecorded("tensor has no recorded graph below it")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None  # clear residue so graphs can share leaf tensors
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            for p, g in zip(node._parents, node._backward(node.grad)):
                if g is not None and p.requires_grad:
                    p.grad = g if p.grad is None else p.grad + g


class Param:
    """Named learnable array plus its accumulated gradient. A layer's
    backward adds into ``grad`` in place and never rebinds it, since an
    optimizer may hold it as a view."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)


def residual(x: Tensor, fx: Tensor) -> Tensor:
    """x + fx, an add node."""
    return Tensor(x.data + fx.data, (x, fx), lambda g: (g, g))


def reshape(a: Tensor, shape) -> Tensor:
    def _bw(g):
        return (g.reshape(a.shape),)

    return Tensor(a.data.reshape(shape), (a,), _bw)


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over all elements; gradient is 2*(pred-target)/n."""
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred.data - target

    def _bw(g):
        return (g * 2.0 * diff / diff.size,)

    return Tensor(np.mean(diff * diff), (pred,), _bw)


def positional_encoding(n_positions: int, width: int) -> np.ndarray:
    """Sinusoidal position codes, shape (n_positions, width); width must be even.

    Column 2i holds sin(pos / 10000^(2i/width)), column 2i+1 the matching cos.
    """
    if width % 2 != 0:
        raise OddWidth(f"positional width must be even, got {width}")
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i2 = np.arange(0, width, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, i2 / width)
    pe = np.empty((n_positions, width))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def glorot_uniform(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-limit, limit, size=(n_in, n_out))


class Dense:
    """Affine layer y = x @ w + b with optional tanh, one graph node.

    Leading axes of x are flattened into one matrix product."""

    def __init__(self, name: str, n_in: int, n_out: int, rng: np.random.Generator, activation=None):
        self.w = Param(f"{name}.w", glorot_uniform(rng, n_in, n_out))
        self.b = Param(f"{name}.b", np.zeros(n_out))
        if activation not in (None, "tanh"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.activation = activation

    def params(self):
        return [self.w, self.b]

    def _affine(self, x2: np.ndarray) -> np.ndarray:
        """x2 @ w + b, then tanh if any, for a (rows, n_in) matrix x2; the
        bias and tanh work in the product's array."""
        y = np.matmul(x2, self.w.value)
        y += self.b.value
        if self.activation == "tanh":
            np.tanh(y, out=y)
        return y

    def infer(self, x: np.ndarray) -> np.ndarray:
        w = self.w.value
        return self._affine(x.reshape(-1, w.shape[0])).reshape(x.shape[:-1] + w.shape[1:])

    def forward(self, x: Tensor) -> Tensor:
        w = self.w.value
        x2 = x.data.reshape(-1, w.shape[0])
        y = self._affine(x2).reshape(x.shape[:-1] + w.shape[1:])

        def _bw(g):
            if self.activation == "tanh":
                g = g * (1.0 - y * y)
            g2 = g.reshape(-1, w.shape[1])
            self.w.grad += np.matmul(x2.T, g2)
            self.b.grad += g.sum(axis=tuple(range(g.ndim - 1)))
            return (np.matmul(g2, w.T).reshape(x.shape) if x.requires_grad else None,)

        return Tensor(y, (x,), _bw)


class MultiHeadAttention:
    """Scaled dot-product self-attention over (batch, tokens, width) inputs,
    one graph node.

    Full-width query/key/value projections are split into ``heads`` slices of
    width/heads each; per head, softmax(q kT / sqrt(width/heads)) v; the
    concatenated heads pass through an output projection with bias. The node
    lists its input once per projection, so the input receives the query, key
    and value gradients one after another. A recorded forward keeps the
    per-head query and transposed key for the backward; :meth:`infer` drops
    them once the weights are made, and the weights and values once the
    context is.
    """

    def __init__(self, name: str, width: int, heads: int, rng: np.random.Generator):
        if width % heads != 0:
            raise ShapeMismatch(f"width {width} not divisible by heads {heads}")
        self.width = width
        self.heads = heads
        self._scale = 1.0 / np.sqrt(width / heads)
        self.wq = Param(f"{name}.wq", glorot_uniform(rng, width, width))
        self.wk = Param(f"{name}.wk", glorot_uniform(rng, width, width))
        self.wv = Param(f"{name}.wv", glorot_uniform(rng, width, width))
        self.wo = Param(f"{name}.wo", glorot_uniform(rng, width, width))
        self.bo = Param(f"{name}.bo", np.zeros(width))

    def params(self):
        return [self.wq, self.wk, self.wv, self.wo, self.bo]

    def _heads(self, x: np.ndarray, w: np.ndarray, axes=(0, 2, 1, 3)) -> np.ndarray:
        """x @ w split into heads, (batch, tokens, heads, width/heads), copied
        contiguous in the order ``axes``: by default (batch, heads, tokens,
        width/heads)."""
        b, n, d = x.shape
        y = np.matmul(x.reshape(-1, d), w).reshape(b, n, self.heads, d // self.heads)
        return np.ascontiguousarray(y.transpose(axes))

    def _query_key(self, x: np.ndarray):
        """Per-head queries and transposed keys, both contiguous."""
        return self._heads(x, self.wq.value), self._heads(x, self.wk.value, (0, 2, 3, 1))

    def _softmax(self, q: np.ndarray, kt: np.ndarray) -> np.ndarray:
        """Softmax attention matrices, shape (batch, heads, t, t); the softmax
        is stabilized by a max-shift; every step works in the score array."""
        s = np.matmul(q, kt)
        s *= self._scale
        if len(s) < 4:
            top = s.max(axis=-1, keepdims=True)
        else:
            # the row max column by column: s.max(axis=-1) takes several
            # times as long on many rows as short as a window
            top = s[..., :1].copy()
            for j in range(1, s.shape[-1]):
                np.maximum(top, s[..., j : j + 1], out=top)
        s -= top
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        return s

    def _context(self, a: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The heads' weighted values, written token-major as one
        (batch * tokens, width) matrix."""
        b, h, n, dh = v.shape
        ctx = np.empty((b, n, h, dh))
        np.matmul(a, v, out=ctx.swapaxes(1, 2))
        return ctx.reshape(-1, h * dh)

    def _output(self, ctx: np.ndarray, shape) -> np.ndarray:
        """The output projection of the context, with its bias, in shape."""
        y = np.matmul(ctx, self.wo.value).reshape(shape)
        y += self.bo.value
        return y

    def infer(self, x: np.ndarray) -> np.ndarray:
        ctx = self._context(self._softmax(*self._query_key(x)), self._heads(x, self.wv.value))
        return self._output(ctx, x.shape)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.width:
            raise ShapeMismatch(f"expected (batch, tokens, {self.width}), got {x.shape}")
        b, n, d = x.shape
        wq, wk, wv, wo = self.wq.value, self.wk.value, self.wv.value, self.wo.value
        q, kt = self._query_key(x.data)
        a = self._softmax(q, kt)
        v = self._heads(x.data, wv)
        ctx = self._context(a, v)
        y = self._output(ctx, x.shape)

        def _bw(g):
            g2 = g.reshape(-1, d)
            gc = np.swapaxes(np.matmul(g2, wo.T).reshape(b, n, self.heads, -1), 1, 2)
            ga = np.matmul(gc, np.swapaxes(v, -1, -2))
            gv = np.matmul(np.swapaxes(a, -1, -2), gc)
            gs = a * (ga - (ga * a).sum(axis=-1, keepdims=True)) * self._scale
            gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
            gk = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2)
            g_qkv = [np.swapaxes(gh, 1, 2).reshape(-1, d) for gh in (gq, gk, gv)]
            x2 = x.data.reshape(-1, d)
            for p, gh in zip((self.wq, self.wk, self.wv), g_qkv):
                p.grad += np.matmul(x2.T, gh)
            self.wo.grad += np.matmul(ctx.T, g2)
            self.bo.grad += g.sum(axis=tuple(range(g.ndim - 1)))
            return tuple(np.matmul(gh, w.T).reshape(x.shape) if x.requires_grad else None
                         for gh, w in zip(g_qkv, (wq, wk, wv)))

        return Tensor(y, (x, x, x), _bw)


class BatchNorm:
    """Per-feature batch normalization over every axis but the last, one
    graph node.

    Training mode normalizes by batch statistics (population variance) and
    updates exponential running statistics with momentum 0.9; inference mode
    normalizes by the running statistics and records no parents, so no
    gradient flows through it. eps = 1e-5 floors the variance.

    The ``running_var`` property owns inference's inverse std
    ``1 / sqrt(running_var + eps)``: every assignment, whether direct, by
    :meth:`load_buffers` or by a training step's update, computes it again,
    so inference only reads it. Replace the running variance; do not write
    into its array.
    """

    MOMENTUM = 0.9
    EPS = 1e-5

    def __init__(self, name: str, width: int):
        self.name = name
        self.gamma = Param(f"{name}.gamma", np.ones(width))
        self.beta = Param(f"{name}.beta", np.zeros(width))
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)

    @property
    def running_var(self) -> np.ndarray:
        return self._running_var

    @running_var.setter
    def running_var(self, var) -> None:
        self._running_var = var
        self._inv_std = 1.0 / np.sqrt(var + self.EPS)

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self) -> dict:
        return {f"{self.name}.running_mean": self.running_mean,
                f"{self.name}.running_var": self.running_var}

    def load_buffers(self, arrays: dict) -> None:
        self.running_mean = np.array(arrays[f"{self.name}.running_mean"], dtype=np.float64)
        self.running_var = np.array(arrays[f"{self.name}.running_var"], dtype=np.float64)

    def _scale_shift(self, c: np.ndarray, inv: np.ndarray, out=None):
        """(x_hat, gamma * x_hat + beta) for the centred input c; x_hat is
        c * inv, computed in c's own array, and the output goes to out."""
        x_hat = np.multiply(c, inv, out=c)
        y = np.multiply(x_hat, self.gamma.value, out=out)
        y += self.beta.value
        return x_hat, y

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Normalize by the running statistics, in one new array."""
        c = x - self.running_mean
        return self._scale_shift(c, self._inv_std, out=c)[1]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim < 2:
            raise ShapeMismatch(f"batch norm expects (..., features), got {x.shape}")
        if not training:
            return Tensor(self.infer(x.data))
        x2 = x.data.reshape(-1, x.shape[-1])
        m = x2.shape[0]
        if m < 2:
            raise BatchTooSmall("batch statistics need at least 2 rows")
        mu = x2.mean(axis=0)
        c = x2 - mu
        var = np.add.reduce(c * c, axis=0) / m  # np.var's own sequence, c computed once
        self.running_mean = self.MOMENTUM * self.running_mean + (1.0 - self.MOMENTUM) * mu
        self.running_var = self.MOMENTUM * self.running_var + (1.0 - self.MOMENTUM) * var
        inv = 1.0 / np.sqrt(var + self.EPS)
        x_hat, y = self._scale_shift(c, inv)  # the backward reads x_hat
        y = y.reshape(x.shape)

        def _bw(g):
            g = g.reshape(x2.shape)
            g_beta, g_gamma = g.sum(axis=0), (g * x_hat).sum(axis=0)
            self.gamma.grad += g_gamma
            self.beta.grad += g_beta
            if not x.requires_grad:
                return (None,)
            return (((self.gamma.value * inv / m) * (m * g - g_beta - x_hat * g_gamma)
                     ).reshape(x.shape),)

        return Tensor(y, (x,), _bw)
