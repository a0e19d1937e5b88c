"""Wind forecast models built on the tensor graph.

Two architectures share one interface. The transformer treats each time step
of the delay window as a token whose feature vector is the station axis
(zero-padded so the width divides both 2 and the head count); sinusoidal
position codes are added, then N encoder blocks of

    attention -> residual add -> batch norm -> dense(tanh) -> residual add -> batch norm

run before a flatten and a linear readout. The mlp baseline flattens the
window and applies two tanh layers of the same width, then a linear readout.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fileio, neural
from .core import WindSeries
from .errors import ConfigError, DataError, EmptySplit, ShapeMismatch, UnnormalizedInput

ARCHITECTURES = ("transformer", "mlp")


@dataclass(frozen=True)
class ModelConfig:
    arch: str = "transformer"
    window_steps: int = 6
    n_stations: int = 60
    output_dim: int = 27
    n_encoder_blocks: int = 2
    heads: int = 4
    hidden_activation: str = "tanh"

    def validate(self) -> None:
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
        config.validate()
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
        for p in self.params():
            src = np.asarray(state[p.name], dtype=np.float64)
            if src.shape != p.value.shape:
                raise ShapeMismatch(f"state shape {src.shape} != {p.value.shape} for {p.name}")
            p.value[...] = src
        for bn in self._bns:
            bn.load_buffers(state)

    # ---------------------------------------------------------- forward --

    def forward_batch(self, x: np.ndarray, training: bool) -> neural.Tensor:
        """x has shape (batch, window_steps, n_stations), already normalized."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1:] != (self.config.window_steps, self.config.n_stations):
            raise ShapeMismatch(
                f"expected (batch, {self.config.window_steps}, {self.config.n_stations}), got {x.shape}"
            )
        b = x.shape[0]
        if self.config.arch == "mlp":
            h = neural.Tensor(x.reshape(b, -1))
            return self.head.forward(self.hidden2.forward(self.hidden1.forward(h)))
        d = self.config.token_width
        if d != self.config.n_stations:
            padded = np.zeros((b, self.config.window_steps, d))
            padded[:, :, : self.config.n_stations] = x
            x = padded
        h = neural.Tensor(x + self._pos)
        for mha, bn1, ff, bn2 in self.blocks:
            h = bn1.forward(neural.residual(h, mha.forward(h)), training)
            h = bn2.forward(neural.residual(h, ff.forward(h)), training)
        flat = neural.reshape(h, (b, self.config.window_steps * d))
        return self.head.forward(flat)

    def predict(self, x: np.ndarray, chunk: int = 2048) -> np.ndarray:
        """Inference forward over normalized inputs, chunked for memory; it
        records no graph. Each chunk's readout is copied into one output array.

        Two faster forms were measured and left out because they change the
        bits. A 256-row chunk gives 1.42x the rows/s, but a chunk short
        enough for BLAS's small-matrix path computes other bits: at width 60
        that is under 103 rows (a 599-row split ends in an 87-row chunk), at
        token width 8 every 256-row chunk. One fused query-key-value product
        differs from three separate ones at 1 row, and at width 20 with 87
        rows.
        """
        out = np.empty((x.shape[0], self.config.output_dim))
        with neural.no_graph():
            for i in range(0, x.shape[0], chunk):
                out[i : i + chunk] = self.forward_batch(x[i : i + chunk], training=False).data
        return out


def predict_denormalized(model: WindModel, samples, split) -> WindSeries:
    """Run the model over one split and unfold outputs to physical units.

    Rows are ordered by ascending target time; output channels are unfolded
    to (time, level, station, component) using the sample set's layout.
    """
    idx = samples.time_ordered(split)
    if len(idx) == 0:
        raise EmptySplit(f"split {split!r} has no samples")
    if samples.norm_stats is None:
        raise UnnormalizedInput("sample set carries no normalization statistics")
    stats = samples.norm_stats
    x = stats.normalize_inputs(samples.inputs[idx])
    return samples.series(idx, stats.denormalize_targets(model.predict(x)))


def save_model(path, model: WindModel) -> None:
    """Checkpoint = named-array container with the config in the metadata."""
    fileio.write_named_arrays(
        path,
        model.state(),
        extra={"kind": "wind-model", "version": 1, "model_config": model.config.to_dict()},
    )


def load_model(path, expect_config: ModelConfig | None = None) -> WindModel:
    arrays, extra = fileio.read_named_arrays(path)
    if not isinstance(extra, dict) or extra.get("kind") != "wind-model":
        raise ConfigError("file is not a model checkpoint")
    try:
        config = ModelConfig.from_dict(extra["model_config"])
        model = WindModel(config, seed=0)
        model.load_state(arrays)
    except (ConfigError, LookupError, TypeError) as e:
        raise DataError(f"{path}: malformed model checkpoint ({e})") from e
    if expect_config is not None and config != expect_config:
        raise ConfigError(
            f"checkpoint config {config.to_dict()} does not match expected {expect_config.to_dict()}"
        )
    return model
