import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gwindcast import model as model_module
from gwindcast.errors import ConfigError, DataError, EmptySplit, ShapeMismatch, UnnormalizedInput
from gwindcast.model import (
    ModelConfig,
    WindModel,
    load_model,
    predict_denormalized,
    save_model,
)
from reference_impls import expected_param_count, prior_predict


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


def test_predict_peak_memory_is_bounded_by_four_activations():
    # a 2048-row default-width predict holds at most the block input, the
    # query heads, the key projection and its transposed copy at once: 4.07
    # times one (rows, tokens, width) activation of 5.6 MiB (22.9 MiB), down
    # from 5.4 times before the layers worked in their own arrays
    model = _trained_looking(ModelConfig(), seed=0)
    x = np.random.default_rng(0).normal(size=(2048, 6, 60))
    model.predict(x[:1])
    tracemalloc.start()
    try:
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.1 * x.nbytes


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


def test_predict_denormalized_orders_and_unfolds():
    import test_trainer

    rng = np.random.default_rng(8)
    n = 30
    inputs = rng.normal(size=(n, 4, 5))
    targets = rng.normal(size=(n, 3))  # 1 level x 1 station x 3 components
    split = np.zeros(n, dtype=np.uint8)
    split[20:25] = 1
    split[25:] = 2
    samples = test_trainer._pack_samples(inputs, targets, split)
    model = WindModel(cfg(output_dim=3), seed=0)
    series = predict_denormalized(model, samples, "test")
    assert series.values.shape == (5, 1, 1, 3)
    assert np.all(np.diff(series.times) > 0)
    np.testing.assert_array_equal(series.times, samples.target_times[25:])
    assert series.mask.all()
    # denormalization applied: matches a manual pass
    stats = samples.norm_stats
    manual = stats.denormalize_targets(model.predict(stats.normalize_inputs(inputs[25:])))
    np.testing.assert_array_equal(series.values.reshape(5, 3), manual)

    # test-split target times out of order, two levels x two stations: rows
    # follow ascending target time, channels unfold as (level, station, uvw)
    from dataclasses import replace

    from gwindcast.core import LevelSpec, StationTable

    targets = rng.normal(size=(n, 12))
    times = rng.permutation(n).astype(np.int64) * 300
    assert not np.all(np.diff(times[25:]) > 0)
    mixed = replace(
        test_trainer._pack_samples(inputs, targets, split),
        target_times=times,
        levels=LevelSpec("height_m", (100.0, 200.0)),
        target_stations=StationTable(ids=("W0", "W1"), lats=[29.0, 29.1], lons=[120.0, 120.1]),
    )
    model = WindModel(cfg(output_dim=12), seed=0)
    pred = predict_denormalized(model, mixed, "test")
    idx = mixed.time_ordered("test")
    np.testing.assert_array_equal(idx, 25 + np.argsort(times[25:]))
    truth = mixed.series(idx, mixed.targets[idx])
    np.testing.assert_array_equal(pred.times, truth.times)
    np.testing.assert_array_equal(pred.times, np.sort(times[25:]))
    np.testing.assert_array_equal(truth.values, targets[idx].reshape(5, 2, 2, 3))
    stats = mixed.norm_stats
    manual = stats.denormalize_targets(model.predict(stats.normalize_inputs(inputs[idx])))
    np.testing.assert_array_equal(pred.values, manual.reshape(5, 2, 2, 3))


def test_predict_denormalized_rejects_empty_or_unnormalized():
    import test_trainer

    rng = np.random.default_rng(1)
    inputs = rng.normal(size=(10, 4, 5))
    targets = rng.normal(size=(10, 3))
    split = np.zeros(10, dtype=np.uint8)
    samples = test_trainer._pack_samples(inputs, targets, split)
    model = WindModel(cfg(output_dim=3), seed=0)
    with pytest.raises(EmptySplit):
        predict_denormalized(model, samples, "val")
    bare = test_trainer._pack_samples(inputs, targets, split, with_stats=False)
    with pytest.raises(UnnormalizedInput):
        predict_denormalized(model, bare, "train")
