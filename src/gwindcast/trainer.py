"""Adam optimization and the early-stopped training loop."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fileio, neural
from .core import Windows
from .errors import ConfigError, EmptySplit, NonFiniteGradient, NonFiniteLoss, UnnormalizedInput


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 5000
    patience: int = 1000
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not 0 < self.beta1 < 1 or not 0 < self.beta2 < 1:
            raise ConfigError("beta1 and beta2 must lie strictly between 0 and 1")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ConfigError("max_epochs and batch_size must be at least 1")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigError("patience must lie in [1, max_epochs]")


@dataclass
class AdamState:
    """Adam's moments and shared step count over params packed in flat buffers.

    ``flat`` holds the values and gradients of ``params`` as two rows and
    ``moments`` the first and second moments in the same layout. Each packed
    ``Param.value`` and ``Param.grad`` is a view into ``flat``, and ``m[name]``
    and ``v[name]`` are views into ``moments``: write into them, never rebind.
    """

    params: tuple
    flat: np.ndarray
    moments: np.ndarray
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params) -> "AdamState":
        """Pack params (values and gradients as they are) with zero moments."""
        params = tuple(params)
        sizes = [p.value.size for p in params]
        state = cls(params, np.zeros((2, sum(sizes))), np.zeros((2, sum(sizes))))
        start = 0
        for p, n in zip(params, sizes):
            value, grad, m, v = (row[start : start + n].reshape(p.value.shape)
                                 for row in (*state.flat, *state.moments))
            value[...], grad[...] = p.value, p.grad
            p.value, p.grad, state.m[p.name], state.v[p.name] = value, grad, m, v
            start += n
        return state


def adam_step(params, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update over accumulated gradients; gradients are then zeroed.

    m <- b1 m + (1-b1) g;  v <- b2 v + (1-b2) g^2;  with bias-corrected
    mhat = m/(1-b1^t), vhat = v/(1-b2^t) the parameter moves by
    -lr * mhat / (sqrt(vhat) + eps).

    params must be the list the state packed. The update runs once over the
    flat buffers and, being elementwise, gives each element the bits of a
    per-parameter update. A non-finite gradient raises, naming the first such
    param, before anything changes.
    """
    if len(params) != len(state.params) or any(
            p is not q or p.value.base is not state.flat or p.grad.base is not state.flat
            for p, q in zip(params, state.params)):
        raise ValueError("adam_step needs the params its AdamState packed, in that order")
    value, grad = state.flat
    m, v = state.moments
    if not np.isfinite(grad).all():
        bad = next(p for p in params if not np.isfinite(p.grad).all())
        raise NonFiniteGradient(f"gradient of {bad.name} is not finite")
    state.t += 1
    bc1 = 1.0 - cfg.beta1 ** state.t
    bc2 = 1.0 - cfg.beta2 ** state.t
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * grad
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * grad * grad
    value -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
    grad[...] = 0.0


class EarlyStopper:
    """Track the best validation loss and call the stop after a patience run.

    Improvement is strict (ties do not count); training stops once
    epoch - best_epoch >= patience. The best-epoch state snapshot is kept.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_val = np.inf
        self.best_epoch = 0
        self.best_state = None

    def observe(self, epoch: int, val_loss: float, state: dict) -> bool:
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_epoch = epoch
            self.best_state = {k: np.array(v, copy=True) for k, v in state.items()}
        return epoch - self.best_epoch >= self.patience


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val: float


def train(model, samples, cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch Adam training with per-epoch validation early stopping.

    Inputs/targets are normalized with the sample set's train statistics.
    The delay rows are normalized once and each batch gathers its windows
    from them, so no copy of the train split's windows is held; being
    elementwise, this gives the bits of normalizing each window.
    Training losses are batch-statistics forwards averaged per sample over
    the epoch; validation is one inference-mode pass over the val split,
    whose predict blocks gather their own windows.

    One step's graph is alive at a time: the loss, and with it the graph,
    is dropped once its backward has run, before the next batch's forward
    records a new one, and the backward drops each interior gradient once
    used. At batch 128 the default model's graph holds 9.14 MiB after the
    forward, and its backward peaks 4.15 MiB above that.
    The model is left holding the best-epoch state.
    For the transformer, leftover batches of a single sample are skipped
    (batch statistics need at least two rows).
    """
    if samples.norm_stats is None:
        raise UnnormalizedInput("sample set carries no normalization statistics")
    tr = samples.indices("train")
    va = samples.indices("val")
    if len(tr) == 0:
        raise EmptySplit("train split is empty")
    if len(va) == 0:
        raise EmptySplit("val split is empty")
    stats = samples.norm_stats
    rows = stats.normalize_inputs(samples.delays)
    x_tr = Windows(rows, samples.window_steps, samples.starts[tr])
    y_tr = stats.normalize_targets(samples.targets[tr])
    x_va = Windows(rows, samples.window_steps, samples.starts[va])
    y_va = stats.normalize_targets(samples.targets[va])

    params = model.params()
    adam = AdamState.for_params(params)
    stopper = EarlyStopper(cfg.patience)
    rng = np.random.default_rng(cfg.seed)
    history = []
    n_tr = len(tr)

    for epoch in range(1, cfg.max_epochs + 1):
        perm = rng.permutation(n_tr)
        total = 0.0
        used = 0
        for start in range(0, n_tr, cfg.batch_size):
            bidx = perm[start : start + cfg.batch_size]
            if len(bidx) < 2 and model.config.arch == "transformer":
                continue
            loss = neural.mse_loss(model.forward_batch(x_tr[bidx], training=True), y_tr[bidx])
            value = float(loss.data)
            if not np.isfinite(value):
                raise NonFiniteLoss(f"training loss became {value} at epoch {epoch}")
            loss.backward()
            del loss  # its graph, before the next forward records another
            adam_step(params, adam, cfg)
            total += value * len(bidx)
            used += len(bidx)
        if used == 0:
            raise EmptySplit("train split too small to form any usable batch")
        train_mse = total / used
        val_pred = model.predict(x_va)
        val_mse = float(np.mean((val_pred - y_va) ** 2))
        if not np.isfinite(val_mse):
            raise NonFiniteLoss(f"validation loss became {val_mse} at epoch {epoch}")
        history.append((epoch, train_mse, val_mse))
        if stopper.observe(epoch, val_mse, model.state()):
            break

    model.load_state(stopper.best_state)
    return TrainResult(
        history=history,
        best_epoch=stopper.best_epoch,
        best_val=stopper.best_val,
    )


def write_history(path, history) -> None:
    """History file: one ``epoch,train_mse,val_mse`` row per epoch."""
    fileio.write_text(path, "epoch,train_mse,val_mse\n" + "".join(
        f"{epoch},{train_mse:.17g},{val_mse:.17g}\n" for epoch, train_mse, val_mse in history))


def read_history(path) -> list:
    _, cols = fileio.read_csv_rows(path, "history", "epoch,train_mse,val_mse",
                                   ((int, None), (float, None), (float, None)))
    return list(zip(*cols))
