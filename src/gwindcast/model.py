"""Wind forecast models: trained on the tensor graph, served on plain arrays.

Two architectures share one interface. The transformer treats each time step
of the delay window as a token whose feature vector is the station axis
(zero-padded so the width divides both 2 and the head count); sinusoidal
position codes are added, then N encoder blocks of

    attention -> residual add -> batch norm -> dense(tanh) -> residual add -> batch norm

run before a flatten and a linear readout. The mlp baseline flattens the
window and applies two tanh layers of the same width, then a linear readout.

Raw delay windows become forecasts in physical units through :func:`forecast`
(normalize, predict, denormalize), which calibration and prediction both call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fileio, neural
from .errors import ConfigError, DataError, ShapeMismatch, UnnormalizedInput

ARCHITECTURES = ("transformer", "mlp")
# rows per inference forward; WindModel.predict gives the reasons
PREDICT_CHUNK = 2048
# activation bytes of one inference block: 256 rows of 6 tokens at width 60
PREDICT_BLOCK_BYTES = 256 * 6 * 60 * 8
# OpenBLAS computes a product with M*N*K up to this on its small-matrix path,
# whose bits differ from the blocked kernel's
SMALL_GEMM_MNK = 100**3


@dataclass(frozen=True)
class ModelConfig:
    arch: str = "transformer"
    window_steps: int = 6
    n_stations: int = 60
    output_dim: int = 27
    n_encoder_blocks: int = 2
    heads: int = 4
    hidden_activation: str = "tanh"

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ConfigError(f"arch must be one of {ARCHITECTURES}, got {self.arch!r}")
        for name in ("window_steps", "n_stations", "output_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.n_encoder_blocks < 0:
            raise ConfigError("n_encoder_blocks must be non-negative")
        if self.heads < 1:
            raise ConfigError("heads must be at least 1")
        if self.hidden_activation != "tanh":
            raise ConfigError("only tanh hidden activations are supported")

    @property
    def token_width(self) -> int:
        """Station axis zero-padded to the next multiple of lcm(2, heads)."""
        unit = math.lcm(2, self.heads)
        return -(-self.n_stations // unit) * unit

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


class WindModel:
    """A configured forecast network with named parameters and state dicts."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.blocks = []
        self._bns = []
        if config.arch == "transformer":
            d = config.token_width
            self._pos = neural.positional_encoding(config.window_steps, d)
            for i in range(config.n_encoder_blocks):
                mha = neural.MultiHeadAttention(f"enc{i}.attn", d, config.heads, rng)
                bn1 = neural.BatchNorm(f"enc{i}.bn1", d)
                ff = neural.Dense(f"enc{i}.ff", d, d, rng, activation="tanh")
                bn2 = neural.BatchNorm(f"enc{i}.bn2", d)
                self.blocks.append((mha, bn1, ff, bn2))
                self._bns.extend([bn1, bn2])
            self.head = neural.Dense("head", config.window_steps * d, config.output_dim, rng)
        else:
            f = config.window_steps * config.n_stations
            self.hidden1 = neural.Dense("hidden1", f, f, rng, activation="tanh")
            self.hidden2 = neural.Dense("hidden2", f, f, rng, activation="tanh")
            self.head = neural.Dense("head", f, config.output_dim, rng)
        self._block_rows, self._fewest_block_rows = _block_rule(config)

    # ------------------------------------------------------------ state --

    def params(self) -> list:
        out = []
        if self.config.arch == "transformer":
            for mha, bn1, ff, bn2 in self.blocks:
                out += mha.params() + bn1.params() + ff.params() + bn2.params()
        else:
            out += self.hidden1.params() + self.hidden2.params()
        out += self.head.params()
        return out

    def state(self) -> dict:
        """Copies of every parameter and running statistic, by name."""
        out = {p.name: p.value.copy() for p in self.params()}
        for bn in self._bns:
            for name, arr in bn.buffers().items():
                out[name] = arr.copy()
        return out

    def load_state(self, state: dict) -> None:
        """Load every parameter and running statistic by name, once each has
        been found with its own shape."""
        own = {p.name: p.value for p in self.params()}
        for bn in self._bns:
            own.update(bn.buffers())
        for name, arr in own.items():
            got = np.shape(state[name])
            if got != arr.shape:
                raise ShapeMismatch(f"state shape {got} != {arr.shape} for {name}")
        for p in self.params():
            p.value[...] = np.asarray(state[p.name], dtype=np.float64)
        for bn in self._bns:
            bn.load_buffers(state)

    # ---------------------------------------------------------- forward --

    def _checked(self, x) -> np.ndarray:
        """x as float64, if its shape is (batch, window_steps, n_stations)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (self.config.window_steps, self.config.n_stations):
            raise ShapeMismatch(
                f"expected (batch, {self.config.window_steps}, {self.config.n_stations}), got {x.shape}"
            )
        return x

    def _tokens(self, x: np.ndarray) -> np.ndarray:
        """The windows as zero-padded tokens plus position codes, in a new
        array."""
        d = self.config.token_width
        if d == self.config.n_stations:
            return x + self._pos
        h = np.zeros(x.shape[:2] + (d,))
        h[:, :, : self.config.n_stations] = x
        h += self._pos
        return h

    def forward_batch(self, x: np.ndarray, training: bool) -> neural.Tensor:
        """The recorded forward over x, shape (batch, window_steps,
        n_stations), already normalized."""
        x = self._checked(x)
        b = x.shape[0]
        if self.config.arch == "mlp":
            h = neural.Tensor(x.reshape(b, -1))
            return self.head.forward(self.hidden2.forward(self.hidden1.forward(h)))
        h = neural.Tensor(self._tokens(x))
        for mha, bn1, ff, bn2 in self.blocks:
            h = bn1.forward(neural.residual(h, mha.forward(h)), training)
            h = bn2.forward(neural.residual(h, ff.forward(h)), training)
        flat = neural.reshape(h, (b, self.config.window_steps * self.config.token_width))
        return self.head.forward(flat)

    def _infer(self, x: np.ndarray) -> np.ndarray:
        """The inference forward of checked rows x on plain arrays: the same
        layer arithmetic as forward_batch, each residual sum written into
        its layer output's own array."""
        b = x.shape[0]
        if self.config.arch == "mlp":
            h = x.reshape(b, self.config.window_steps * self.config.n_stations)
            return self.head.infer(self.hidden2.infer(self.hidden1.infer(h)))
        h = self._tokens(x)
        for mha, bn1, ff, bn2 in self.blocks:
            h = bn1.infer(_residual(h, mha.infer(h)))
            h = bn2.infer(_residual(h, ff.infer(h)))
        return self.head.infer(h.reshape(b, self.config.window_steps * self.config.token_width))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference forward over normalized inputs on plain arrays, with no
        graph, in chunks of ``PREDICT_CHUNK`` rows for memory. When one
        block holds every row (a serving cycle's one window) its output is
        returned as it is; otherwise each block's readout is copied into
        one output array. The chain is ``forward_batch``'s with
        ``training=False``, layer by layer through the same helpers, so it
        gives the same bits; it builds no ``Tensor`` and no backward. A
        one-window predict of the default model (60 stations, two 4-head
        blocks, 27 outputs) took 84-91 us on this path against 112-119 us
        through the recorded graph, and a six-lead serving cycle with a
        27 x 101 empirical calibration per lead 685-714 against 901-941
        us; a 3995-row predict took the same time on either path (timeit,
        best of 7, three alternating processes each; one BLAS thread,
        shared 2-core host).

        A chunk is split into blocks of about ``PREDICT_BLOCK_BYTES`` of
        activation (256 rows at width 60), run one after another. A row's
        bits do not depend on the split as long as every row-scaling product
        of every block (the attention projections and the feed-forward at
        rows x tokens by width by width, the readout at rows by window x
        width by outputs; the mlp's hidden layers and readout) stays off
        BLAS's small-matrix path: M*N*K above ``SMALL_GEMM_MNK``. So the
        blocks depend only on the row count and the model's shape, and a
        chunk whose blocks would break that rule runs whole. The rule's
        floor is the measured one: against a whole 2048-row forward (6-step
        window, 27 outputs, OpenBLAS 0.3.31, one thread) the smallest block
        that keeps the bits is 103 rows at width 60 and 417 at width 20, and
        a block one row shorter changes them; the tests also compare at two
        BLAS threads. At token widths 8 and 12 no chunk is split. Another
        BLAS may draw its small-matrix line elsewhere or let a row's bits
        depend on the other rows; then blocks and whole chunks can differ,
        though the blocks still depend on nothing but the row count and the
        model's shape. A batch re-forecast of 3995
        width-60 rows (normalize, predict, calibrate with a 27 x 101
        empirical map) took 101-103 ms in blocks against 122-129 ms in whole
        chunks (fastest of 15, in 5 alternating processes each; 2-core host,
        one BLAS thread). Predicts alone, back to back, gain nothing
        (116-166 against 114-124 ms): each block's freed memory is faulted
        in again. One fused query-key-value product differs from three
        separate ones at 1 row, and at width 20 with 87 rows, so it was left
        out.
        """
        x = self._checked(x)
        n = x.shape[0]
        if n <= PREDICT_CHUNK and len(self._blocks(0, n)) == 1:
            return self._infer(x)
        out = np.empty((n, self.config.output_dim))
        for i in range(0, n, PREDICT_CHUNK):
            for rows in self._blocks(i, min(n, i + PREDICT_CHUNK)):
                out[rows] = self._infer(x[rows])
        return out

    def _blocks(self, start: int, stop: int) -> list:
        """Rows start:stop as near-equal blocks of at most ``_block_rows``
        and at least ``_fewest_block_rows`` rows, or as one slice."""
        rows = stop - start
        k = min(-(-rows // self._block_rows), rows // self._fewest_block_rows)
        if k < 2:
            return [slice(start, stop)]
        return [slice(start + rows * j // k, start + rows * (j + 1) // k) for j in range(k)]


def _residual(x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    """x + fx, written into the layer output fx, which nothing else holds."""
    return np.add(x, fx, out=fx)


def _block_rule(config: ModelConfig) -> tuple:
    """Rows per inference block and the fewest rows for which every
    row-scaling product has M*N*K above SMALL_GEMM_MNK."""
    if config.arch == "transformer":
        row = config.window_steps * config.token_width
        inner = config.token_width  # a projection's M*N*K per row is row * width
    else:
        row = config.window_steps * config.n_stations
        inner = row
    block = max(1, PREDICT_BLOCK_BYTES // (8 * row))
    return block, SMALL_GEMM_MNK // (row * min(inner, config.output_dim)) + 1


def forecast(model: WindModel, stats, windows) -> np.ndarray:
    """Forecasts in physical units for raw delay windows (batch, window_steps,
    n_stations), normalized with the NormStats ``stats``, predicted and
    denormalized; a row's channels flatten (level, station, component)."""
    if stats is None:
        raise UnnormalizedInput("no normalization statistics to forecast with")
    return stats.denormalize_targets(model.predict(stats.normalize_inputs(windows)))


def save_model(path, model: WindModel) -> None:
    """Checkpoint = named-array container with the config in the metadata."""
    fileio.write_named_arrays(
        path,
        model.state(),
        extra={"kind": "wind-model", "version": 1, "model_config": model.config.to_dict()},
    )


def load_model(path) -> WindModel:
    arrays, extra = fileio.read_named_arrays(path)
    if not isinstance(extra, dict) or extra.get("kind") != "wind-model":
        raise DataError(f"{path}: malformed model checkpoint (its kind is not wind-model)")
    try:
        config = ModelConfig.from_dict(extra["model_config"])
        model = WindModel(config, seed=0)
        model.load_state(arrays)
    except (ConfigError, LookupError, ShapeMismatch, TypeError) as e:
        raise DataError(f"{path}: malformed model checkpoint ({e})") from e
    return model
