import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gwindcast import model as model_module
from gwindcast.core import NormStats, gather_windows
from gwindcast.errors import ConfigError, DataError, EmptySplit, ShapeMismatch, UnnormalizedInput
from gwindcast.model import (
    ModelConfig,
    WindModel,
    forecast,
    load_model,
    save_model,
)
from reference_impls import expected_param_count, prior_forecast, prior_predict


def cfg(**kwargs):
    base = dict(
        arch="transformer",
        window_steps=4,
        n_stations=5,
        output_dim=9,
        n_encoder_blocks=2,
        heads=2,
    )
    base.update(kwargs)
    return ModelConfig(**base)


@pytest.mark.parametrize(
    "n_stations,heads,want",
    [
        (5, 2, 6),    # lcm(2,2)=2 -> next multiple of 2
        (60, 4, 60),  # lcm(2,4)=4, 60 already divisible
        (7, 4, 8),
        (7, 3, 12),   # lcm(2,3)=6 -> 12
        (1, 1, 2),    # lcm(2,1)=2
        (6, 3, 6),
    ],
)
def test_token_width_pads_to_lcm_multiple(n_stations, heads, want):
    assert cfg(n_stations=n_stations, heads=heads).token_width == want


@pytest.mark.parametrize("kwargs", [
    {"arch": "transformer"},
    {"arch": "transformer", "n_stations": 7, "heads": 4},
    {"arch": "transformer", "n_encoder_blocks": 1},
    {"arch": "mlp"},
])
def test_param_count_matches_closed_form(kwargs):
    c = cfg(**kwargs)
    model = WindModel(c, seed=0)
    assert sum(p.value.size for p in model.params()) == expected_param_count(c)


def test_config_validation():
    # a section checks itself when built, directly or by replace
    for kwargs, message in (({"arch": "cnn"}, "arch must be one of"),
                            ({"window_steps": 0}, "window_steps must be at least 1"),
                            ({"heads": 0}, "heads must be at least 1"),
                            ({"n_encoder_blocks": -1}, "n_encoder_blocks must be non-negative"),
                            ({"hidden_activation": "relu"}, "only tanh hidden activations")):
        with pytest.raises(ConfigError, match=message):
            cfg(**kwargs)
    with pytest.raises(ConfigError, match="n_stations must be at least 1"):
        replace(cfg(), n_stations=0)
    cfg()


def test_param_names_are_unique():
    model = WindModel(cfg(), seed=0)
    names = [p.name for p in model.params()]
    assert len(names) == len(set(names))


def test_seeded_init_is_deterministic():
    a = WindModel(cfg(), seed=42)
    b = WindModel(cfg(), seed=42)
    c = WindModel(cfg(), seed=43)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa.value, pb.value)
    assert any(
        not np.array_equal(pa.value, pc.value)
        for pa, pc in zip(a.params(), c.params())
        if pa.value.size and pa.value.std() > 0
    )


def test_state_round_trip_and_shape_check():
    model = WindModel(cfg(), seed=1)
    state = model.state()
    other = WindModel(cfg(), seed=2)
    other.load_state(state)
    for k, v in other.state().items():
        assert np.array_equal(v, state[k])
    # a parameter or a batch-norm buffer of the wrong shape loads nothing
    kept = other.state()
    for name in (next(iter(state)), "enc0.bn1.running_mean"):
        with pytest.raises(ShapeMismatch, match=name):
            other.load_state({**state, name: np.zeros((1, 1))})
        assert all(np.array_equal(v, kept[k]) for k, v in other.state().items())


def test_state_includes_batchnorm_buffers():
    model = WindModel(cfg(n_encoder_blocks=1), seed=0)
    state = model.state()
    assert "enc0.bn1.running_mean" in state
    assert "enc0.bn2.running_var" in state
    # buffers change in training mode and survive a state round trip
    x = np.random.default_rng(0).normal(size=(8, 4, 5))
    model.forward_batch(x, training=True)
    new_state = model.state()
    assert not np.array_equal(
        new_state["enc0.bn1.running_mean"], state["enc0.bn1.running_mean"]
    )
    model2 = WindModel(cfg(n_encoder_blocks=1), seed=5)
    model2.load_state(new_state)
    np.testing.assert_array_equal(
        model2.state()["enc0.bn1.running_mean"], new_state["enc0.bn1.running_mean"]
    )


def test_forward_shapes_and_input_check():
    model = WindModel(cfg(), seed=0)
    x = np.random.default_rng(1).normal(size=(7, 4, 5))
    out = model.forward_batch(x, training=False)
    assert out.data.shape == (7, 9)
    with pytest.raises(ShapeMismatch):
        model.forward_batch(np.zeros((7, 4, 6)), training=False)
    with pytest.raises(ShapeMismatch):
        model.forward_batch(np.zeros((4, 5)), training=False)


def test_padding_leaves_state_finite_and_depends_on_real_stations():
    # padded columns are zeros; outputs must react to real-station changes
    model = WindModel(cfg(n_stations=5, heads=2), seed=0)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 4, 5))
    base = model.predict(x)
    assert np.isfinite(base).all()
    bumped = x.copy()
    bumped[:, :, 0] += 1.0
    assert not np.allclose(model.predict(bumped), base)


def test_predict_chunking_is_equivalent(monkeypatch):
    # chunk size changes BLAS blocking, so agreement is to rounding only
    model = WindModel(cfg(), seed=0)
    x = np.random.default_rng(2).normal(size=(33, 4, 5))
    full = model.predict(x)
    monkeypatch.setattr(model_module, "PREDICT_CHUNK", 5)
    pieces = model.predict(x)
    np.testing.assert_allclose(pieces, full, rtol=1e-10, atol=1e-12)
    # the same chunking is bit-stable across repeated calls
    np.testing.assert_array_equal(model.predict(x), pieces)


def _trained_looking(config, seed):
    """A model whose biases, batch-norm affines and running statistics are
    not at their initial values, so every step of the forward shows."""
    model = WindModel(config, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.params():
        if p.name.rsplit(".", 1)[1] in ("b", "bo", "gamma", "beta"):
            p.value[...] = rng.normal(size=p.value.shape)
    for bn in model._bns:
        bn.running_mean = rng.normal(size=bn.running_mean.shape)
        bn.running_var = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
    return model


@pytest.mark.parametrize("n_stations", [60, 10])
@pytest.mark.parametrize("rows", [1, 87, 2049])
def test_predict_keeps_the_bits_of_the_prior_formulas(rows, n_stations):
    # the single-window cycle, a chunk on OpenBLAS's small-matrix path and a
    # two-chunk predict, at the default width and padded (10 stations, width
    # 12); recorded or not, the forward equals the formulas that made a new
    # array per step, and the input is left as it was
    model = _trained_looking(ModelConfig(n_stations=n_stations), seed=rows)
    x = np.random.default_rng(rows).normal(size=(rows, 6, n_stations))
    kept = x.copy()
    assert model.predict(x).tobytes() == prior_predict(model, x).tobytes()
    recorded = model.forward_batch(x, training=False)
    assert recorded.data.tobytes() == prior_predict(model, x, chunk=rows).tobytes()
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("window_steps", [7, 8, 9])
def test_predict_keeps_the_bits_of_the_prior_formulas_around_numpy_pairwise_sum(window_steps):
    # a softmax row of fewer than 8 tokens is summed column by column, one of
    # 8 or more by numpy's pairwise sum: the serving window, two windows and
    # a block-split batch keep the bits of the prior formulas either side
    model = _trained_looking(ModelConfig(window_steps=window_steps), seed=window_steps)
    x = np.random.default_rng(window_steps).normal(size=(300, window_steps, 60))
    for rows in (1, 2, 300):
        assert model.predict(x[:rows]).tobytes() == prior_predict(model, x[:rows]).tobytes(), rows


def test_every_running_variance_writer_refreshes_the_inverse_std():
    # inference reads the inverse std that each assignment of running_var
    # computes: after a direct assignment, load_buffers, a training step's
    # update and the trainer's best-state restore, a one-window and a
    # two-chunk predict keep the bits of the formulas that compute it from
    # the running variance on every call
    import test_trainer
    from gwindcast.trainer import TrainConfig, train

    rng = np.random.default_rng(7)

    def same_as_prior(model):
        shape = (model.config.window_steps, model.config.n_stations)
        for rows in (1, 2049):
            x = rng.normal(size=(rows, *shape))
            assert model.predict(x).tobytes() == prior_predict(model, x).tobytes()

    model = _trained_looking(ModelConfig(), seed=7)  # assigns running_var
    same_as_prior(model)
    state = model.state()
    for bn in model._bns:
        state[f"{bn.name}.running_var"] = rng.uniform(0.5, 2.0, size=bn.running_var.shape)
    model.load_state(state)
    assert all(bn.running_var.tobytes() == state[f"{bn.name}.running_var"].tobytes()
               for bn in model._bns)
    same_as_prior(model)
    before = [bn.running_var for bn in model._bns]
    model.forward_batch(rng.normal(size=(8, 6, 60)), training=True)
    assert all(bn.running_var is not var for bn, var in zip(model._bns, before))
    same_as_prior(model)
    samples = test_trainer._toy_samples()
    model = test_trainer._toy_model(samples, arch="transformer")
    train(model, samples, TrainConfig(max_epochs=3, patience=3, batch_size=16, seed=1))
    same_as_prior(model)


@pytest.mark.parametrize("config", [
    ModelConfig(n_stations=8), ModelConfig(n_stations=12), ModelConfig(n_stations=20),
    ModelConfig(), ModelConfig(arch="mlp")], ids=["width8", "width12", "width20", "width60", "mlp"])
def test_predict_blocks_keep_the_bits_of_whole_chunks(config):
    # the blocks depend on the row count and the model's shape only, and
    # every row keeps the bits of a whole 2048-row chunk: around the smallest
    # block at width 60 and the mlp (103 rows), around one chunk, and where a
    # chunk splits at widths 20 and 60 and the mlp
    model = _trained_looking(config, seed=3)
    rng = np.random.default_rng(3)
    for rows in (1, 102, 103, 206, 599, 2048, 2049, 3995):
        x = rng.normal(size=(rows, config.window_steps, config.n_stations))
        assert model.predict(x).tobytes() == prior_predict(model, x, chunk=2048).tobytes(), rows
    assert (len(model._blocks(0, 2048)) > 1) == (config.arch == "mlp" or config.n_stations >= 20)


@pytest.mark.parametrize("config", [ModelConfig(), ModelConfig(arch="mlp")], ids=["width60", "mlp"])
def test_predict_blocks_at_the_floor_keep_the_bits_of_whole_chunks(config, monkeypatch):
    # with blocks of one row's activation only the floor bounds them: at
    # width 60 and for the mlp, 206 rows split into two blocks of 103, the
    # fewest rows that keep every product off BLAS's small-matrix path, and
    # 205 rows run as one slice; each keeps the bits of a whole chunk
    monkeypatch.setattr(model_module, "PREDICT_BLOCK_BYTES", 8 * 6 * 60)
    model = _trained_looking(config, seed=5)
    assert model._blocks(0, 206) == [slice(0, 103), slice(103, 206)]
    assert model._blocks(0, 205) == [slice(0, 205)]
    x = np.random.default_rng(5).normal(size=(206, 6, 60))
    for rows in (205, 206):
        assert model.predict(x[:rows]).tobytes() == prior_predict(
            model, x[:rows], chunk=2048).tobytes(), rows


def test_predict_blocks_keep_the_bits_of_whole_chunks_on_two_blas_threads():
    # the same compare with BLAS threading its products, as it does by
    # default on a multi-core host: the blocks of a batch predict, and the
    # serving path's one- and two-window predicts, which return the array
    # chain's own output
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import numpy as np\n"
            "from gwindcast.model import ModelConfig\n"
            "from reference_impls import prior_predict\n"
            "from test_model import _trained_looking\n"
            "for config in (ModelConfig(), ModelConfig(arch='mlp')):\n"
            "    model = _trained_looking(config, seed=4)\n"
            "    x = np.random.default_rng(4).normal(size=(3995, 6, 60))\n"
            "    for rows in (1, 2, 3995):\n"
            "        got = model.predict(x[:rows]).tobytes()\n"
            "        assert got == prior_predict(model, x[:rows]).tobytes(), (config.arch, rows)\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([os.path.join(os.path.dirname(here), "src"), here]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_predict_peak_memory_is_bounded_by_four_block_activations():
    # a 2048-row default-width predict runs 128-row blocks one after another
    # and holds at most a block's input, its query and key projections (the
    # heads are views of them) and the attention scores at once, beside the
    # output: 3.4 block activations of 0.35 MiB each, 3.7 with the softmax's
    # row max and numpy's buffer for the broadcast shift and divide
    model = _trained_looking(ModelConfig(), seed=0)
    x = np.random.default_rng(0).normal(size=(2048, 6, 60))
    assert model._blocks(0, 2048) == [slice(i, i + 128) for i in range(0, 2048, 128)]
    model.predict(x[:1])
    tracemalloc.start()
    try:
        out = model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4.1 * model_module.PREDICT_BLOCK_BYTES


def test_mlp_architecture_runs_and_counts():
    c = cfg(arch="mlp")
    model = WindModel(c, seed=0)
    f = c.window_steps * c.n_stations
    n_params = sum(p.value.size for p in model.params())
    assert n_params == 2 * (f * f + f) + f * c.output_dim + c.output_dim
    x = np.random.default_rng(0).normal(size=(3, 4, 5))
    out = model.predict(x)
    assert out.shape == (3, 9)


def test_save_load_round_trip(tmp_path):
    model = WindModel(cfg(), seed=9)
    x = np.random.default_rng(4).normal(size=(6, 4, 5))
    model.forward_batch(x, training=True)  # move the running stats
    path = tmp_path / "checkpoint.gwc"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.config == model.config
    state_a = model.state()
    state_b = loaded.state()
    assert set(state_a) == set(state_b)
    for k in state_a:
        np.testing.assert_array_equal(state_a[k], state_b[k])
    np.testing.assert_array_equal(loaded.predict(x), model.predict(x))
    # byte-identical re-save
    path2 = tmp_path / "checkpoint2.gwc"
    save_model(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_load_model_checks_kind(tmp_path):
    model = WindModel(cfg(), seed=0)
    path = tmp_path / "model.gwc"
    save_model(path, model)
    assert load_model(path).config == cfg()
    from gwindcast import fileio

    other = tmp_path / "other.gwc"
    fileio.write_named_arrays(other, {"a": np.zeros(2)}, extra={"kind": "something"})
    with pytest.raises(DataError, match=r"other\.gwc: malformed model checkpoint"):
        load_model(other)


def test_forecast_is_a_manual_pass_and_rejects_unnormalized_input():
    import test_trainer

    rng = np.random.default_rng(8)
    inputs = rng.normal(size=(30, 4, 5))
    targets = rng.normal(size=(30, 3))
    split = np.zeros(30, dtype=np.uint8)
    split[20:] = 2
    samples = test_trainer._pack_samples(inputs, targets, split)
    model = WindModel(cfg(output_dim=3), seed=0)
    stats = samples.norm_stats
    # denormalized, bit for bit, for many windows and for one
    for idx in (np.arange(20, 30), np.arange(29, 30)):
        manual = stats.denormalize_targets(model.predict(stats.normalize_inputs(inputs[idx])))
        got = forecast(model, stats, samples.delays, samples.window_steps, samples.starts[idx])
        np.testing.assert_array_equal(got, manual)
    bare = test_trainer._pack_samples(inputs, targets, split, with_stats=False)
    with pytest.raises(UnnormalizedInput):
        forecast(model, bare.norm_stats, bare.delays, bare.window_steps, bare.starts)


def _stats(rng, n_stations, output_dim=27):
    return NormStats(input_mean=rng.normal(2.4, 0.1, n_stations),
                     input_std=rng.uniform(0.01, 0.1, n_stations),
                     target_mean=rng.normal(size=output_dim),
                     target_std=rng.uniform(0.5, 2.0, output_dim))


@pytest.mark.parametrize("arch", ["transformer", "mlp"])
@pytest.mark.parametrize("window_steps", [6, 8, 24])
def test_forecast_from_delay_rows_keeps_the_bits_of_gathered_windows(window_steps, arch):
    # the rows forecast normalizes the delay rows once and each predict
    # block gathers its own windows; every row equals, byte for byte, the
    # forecast of the same windows gathered and normalized whole: one
    # window, the smallest block that keeps the bits at width 60, two
    # chunks and a lead's train split, its starts in sample order (not
    # ascending)
    model = _trained_looking(ModelConfig(arch=arch, window_steps=window_steps), seed=window_steps)
    rng = np.random.default_rng(window_steps)
    delays = rng.normal(2.4, 0.05, size=(3000, 60))
    stats = _stats(rng, 60)
    order = rng.permutation(3000 - window_steps + 1)
    for rows in (1, 103, 2049, 2800):
        starts = order[:rows]
        got = forecast(model, stats, delays, window_steps, starts)
        want = prior_forecast(model, stats, gather_windows(delays, window_steps, starts))
        assert got.tobytes() == want.tobytes(), rows


def test_forecast_names_a_mismatched_field_before_gathering_a_window(monkeypatch):
    # a model of 4-step windows of 5 stations, given 6-step windows or 7
    # stations: a ShapeMismatch that names the field and both values,
    # raised before a predict block gathers anything
    from gwindcast import core

    def no_gather(*args):
        raise AssertionError("a window was gathered")

    model = WindModel(cfg(), seed=0)
    rng = np.random.default_rng(0)
    monkeypatch.setattr(core, "gather_windows", no_gather)
    for delays, steps, want in (
            (rng.normal(size=(20, 5)), 6, "window_steps: the model takes 4, the input has 6"),
            (rng.normal(size=(20, 7)), 4, "n_stations: the model takes 5, the input has 7")):
        with pytest.raises(ShapeMismatch, match=want):
            forecast(model, _stats(rng, delays.shape[1], 9), delays, steps, np.arange(10))
    with pytest.raises(ShapeMismatch, match="window_steps: the model takes 4, the input has 6"):
        model.predict(np.zeros((3, 6, 5)))


def test_predict_stage_orders_unfolds_and_rejects_an_empty_split(tmp_path):
    import test_trainer

    from gwindcast.core import LevelSpec, StationTable
    from gwindcast.harness import predict_stage

    # test-split target times out of order, two levels x two stations: rows
    # follow ascending target time, channels unfold as (level, station, uvw)
    rng = np.random.default_rng(8)
    n = 30
    inputs = rng.normal(size=(n, 4, 5))
    targets = rng.normal(size=(n, 12))
    split = np.zeros(n, dtype=np.uint8)
    split[25:] = 2
    times = rng.permutation(n).astype(np.int64) * 300
    assert not np.all(np.diff(times[25:]) > 0)
    mixed = replace(
        test_trainer._pack_samples(inputs, targets, split),
        target_times=times,
        levels=LevelSpec("height_m", (100.0, 200.0)),
        target_stations=StationTable(ids=("W0", "W1"), lats=[29.0, 29.1], lons=[120.0, 120.1]),
    )
    model = WindModel(cfg(output_dim=12), seed=0)
    pred, truth = predict_stage(model, mixed, "test", None, tmp_path / "p")
    idx = 25 + np.argsort(times[25:])
    np.testing.assert_array_equal(mixed.time_ordered("test"), idx)
    np.testing.assert_array_equal(pred.times, np.sort(times[25:]))
    np.testing.assert_array_equal(truth.times, pred.times)
    assert pred.mask.all() and truth.mask.all()
    np.testing.assert_array_equal(truth.values, targets[idx].reshape(5, 2, 2, 3))
    manual = prior_forecast(model, mixed.norm_stats, inputs[idx])
    np.testing.assert_array_equal(pred.values, manual.reshape(5, 2, 2, 3))
    with pytest.raises(EmptySplit):
        predict_stage(model, mixed, "val", None, tmp_path / "empty")
    assert not (tmp_path / "empty").exists()
