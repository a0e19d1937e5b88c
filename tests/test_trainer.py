import tracemalloc

import numpy as np
import pytest

from gwindcast.core import LevelSpec, NormStats, StationTable
from gwindcast.errors import ConfigError, DataError, EmptySplit, NonFiniteGradient, UnnormalizedInput
from gwindcast.model import ModelConfig, WindModel
from gwindcast.neural import Param
from gwindcast.preprocess import SampleSet
from gwindcast.trainer import (
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    read_history,
    train,
    write_history,
)
from reference_impls import per_param_adam, sample_windows, scalar_adam_trace


def test_train_config_defaults():
    cfg = TrainConfig()
    assert cfg.lr == 1e-5
    assert cfg.beta1 == 0.9
    assert cfg.beta2 == 0.999
    assert cfg.eps == 1e-8
    assert cfg.max_epochs == 5000
    assert cfg.patience == 1000
    assert cfg.batch_size == 64


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": 0.0},
        {"lr": -1.0},
        {"beta1": 0.0},
        {"beta1": 1.0},
        {"beta2": 1.0},
        {"eps": 0.0},
        {"max_epochs": 0},
        {"batch_size": 0},
        {"patience": 0},
        {"max_epochs": 5, "patience": 6},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def _single_param(theta0=1.0):
    p = Param("theta", np.array([theta0]))
    return p


def test_adam_first_step_and_trace_match_scalar_oracle():
    cfg = TrainConfig(lr=0.001)
    p = _single_param(1.0)
    state = AdamState.for_params([p])
    grads = [2.0] * 10
    want = scalar_adam_trace(1.0, grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

    # first step closed form: m_hat = g, v_hat = g^2, theta moves by ~lr
    m1, v1, t1 = want[0]
    assert m1 == pytest.approx(2.0, abs=1e-15)
    assert v1 == pytest.approx(4.0, abs=1e-15)
    assert t1 == pytest.approx(1.0 - 0.001 * (2.0 / (2.0 + 1e-8)), abs=1e-12)

    for i, g in enumerate(grads):
        p.grad[...] = g
        adam_step([p], state, cfg)
        assert state.t == i + 1
        m_hat = state.m["theta"][0] / (1 - cfg.beta1 ** state.t)
        v_hat = state.v["theta"][0] / (1 - cfg.beta2 ** state.t)
        wm, wv, wt = want[i]
        assert m_hat == pytest.approx(wm, abs=1e-15)
        assert v_hat == pytest.approx(wv, abs=1e-15)
        assert p.value[0] == pytest.approx(wt, abs=1e-15)


def test_adam_zeroes_gradients_after_step():
    p = _single_param()
    p.grad[...] = 3.0
    state = AdamState.for_params([p])
    adam_step([p], state, TrainConfig())
    assert np.all(p.grad == 0.0)


def test_adam_shares_step_count_across_params():
    a = Param("a", np.array([1.0]))
    b = Param("b", np.array([2.0, 3.0]))
    state = AdamState.for_params([a, b])
    a.grad[...] = 1.0
    b.grad[...] = 1.0
    adam_step([a, b], state, TrainConfig())
    assert state.t == 1
    assert set(state.m) == {"a", "b"}


def test_adam_rejects_non_finite_gradients():
    p = _single_param()
    p.grad[...] = np.nan
    state = AdamState.for_params([p])
    before = p.value.copy()
    with pytest.raises(NonFiniteGradient):
        adam_step([p], state, TrainConfig())
    assert np.array_equal(p.value, before)
    assert state.t == 0


def test_adam_names_the_first_non_finite_param_and_changes_nothing():
    params = [Param("a", np.array([1.0, 2.0])), Param("b", np.array([[3.0], [4.0]])),
              Param("c", np.array([5.0]))]
    state = AdamState.for_params(params)
    for p in params:
        p.grad[...] = 0.5
    adam_step(params, state, TrainConfig())
    values = [p.value.copy() for p in params]
    m = {k: a.copy() for k, a in state.m.items()}
    v = {k: a.copy() for k, a in state.v.items()}
    for p in params:
        p.grad[...] = 1.0
    params[1].grad[1, 0] = np.nan
    params[2].grad[0] = np.inf
    with pytest.raises(NonFiniteGradient, match="gradient of b "):
        adam_step(params, state, TrainConfig())
    assert state.t == 1
    assert all(np.array_equal(p.value, want) for p, want in zip(params, values))
    assert all(np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k]) for k in m)


def test_adam_packs_params_into_views_of_one_buffer():
    params = [Param("a", np.array([1.0, 2.0])), Param("b", np.array([[3.0], [4.0]]))]
    params[1].grad[...] = 7.0
    state = AdamState.for_params(params)
    # values and gradients are carried over into the buffer's rows
    assert state.flat.tolist() == [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 7.0, 7.0]]
    assert state.moments.tolist() == [[0.0] * 4, [0.0] * 4]
    for p in params:
        assert p.value.base is state.flat and p.grad.base is state.flat
        assert state.m[p.name].base is state.moments and state.v[p.name].base is state.moments
    assert params[1].value.shape == (2, 1)


def test_adam_step_needs_the_params_its_state_packed():
    params = [Param("a", np.array([1.0])), Param("b", np.array([2.0]))]
    state = AdamState.for_params(params)
    adam_step(list(params), state, TrainConfig())  # a new list of the same objects
    for wrong in ([params[0]], params[::-1], [params[0], Param("b", np.array([2.0]))]):
        with pytest.raises(ValueError):
            adam_step(wrong, state, TrainConfig())
    params[1].grad = np.zeros(1)  # rebound: no longer a view of the buffer
    with pytest.raises(ValueError):
        adam_step(params, state, TrainConfig())
    assert state.t == 1


def test_flat_adam_keeps_the_bits_of_the_per_param_loop():
    model = WindModel(ModelConfig(), seed=0)
    params = model.params()
    assert len(params) == 24
    cfg = TrainConfig(lr=1e-3)
    rng = np.random.default_rng(7)
    start = {p.name: p.value.copy() for p in params}
    grad_steps = [{p.name: rng.normal(scale=10.0 ** rng.uniform(-6, 2), size=p.value.shape)
                   for p in params} for _ in range(5)]
    state = AdamState.for_params(params)
    for grads in grad_steps:
        for p in params:
            p.grad[...] = grads[p.name]
        adam_step(params, state, cfg)
    values, m, v = per_param_adam(start, grad_steps, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    for p in params:
        assert p.value.tobytes() == values[p.name].tobytes()
        assert state.m[p.name].tobytes() == m[p.name].tobytes()
        assert state.v[p.name].tobytes() == v[p.name].tobytes()
        assert not p.grad.any()


def test_early_stopper_scripted_trace():
    # patience 2, losses by epoch: 5, 4, 4.5, 4.2 -> stop at epoch 4, best epoch 2
    stopper = EarlyStopper(patience=2)
    states = {
        1: {"w": np.array([1.0])},
        2: {"w": np.array([2.0])},
        3: {"w": np.array([3.0])},
        4: {"w": np.array([4.0])},
    }
    assert stopper.observe(1, 5.0, states[1]) is False
    assert stopper.observe(2, 4.0, states[2]) is False
    assert stopper.observe(3, 4.5, states[3]) is False
    assert stopper.observe(4, 4.2, states[4]) is True
    assert stopper.best_epoch == 2
    assert stopper.best_val == 4.0
    assert np.array_equal(stopper.best_state["w"], np.array([2.0]))


def test_early_stopper_ties_do_not_improve():
    stopper = EarlyStopper(patience=3)
    stopper.observe(1, 1.0, {"w": np.array([1.0])})
    stopper.observe(2, 1.0, {"w": np.array([2.0])})
    assert stopper.best_epoch == 1
    assert np.array_equal(stopper.best_state["w"], np.array([1.0]))


def test_early_stopper_snapshots_are_deep_copies():
    stopper = EarlyStopper(patience=5)
    w = np.array([1.0, 2.0])
    stopper.observe(1, 0.5, {"w": w})
    w[:] = 99.0
    assert np.array_equal(stopper.best_state["w"], np.array([1.0, 2.0]))


def _pack_samples(inputs, targets, split, with_stats=True):
    """A SampleSet whose windows are ``inputs``, packed end to end as its
    delay rows."""
    from gwindcast.core import LevelSpec, NormStats, StationTable

    n, steps, n_stations = inputs.shape
    out_dim = targets.shape[1]
    train = split == 0
    stats = None
    if with_stats and train.any():
        stats = NormStats(
            input_mean=inputs[train].mean(axis=(0, 1)),
            input_std=inputs[train].std(axis=(0, 1)),
            target_mean=targets[train].mean(axis=0),
            target_std=targets[train].std(axis=0),
        )
    n_wind = max(out_dim // 3, 1)
    return SampleSet(
        delays=inputs.reshape(n * steps, n_stations),
        starts=np.arange(n) * steps,
        window_steps=steps,
        targets=targets,
        target_times=np.arange(n, dtype=np.int64) * 300,
        split_labels=split,
        levels=LevelSpec("height_m", tuple(100.0 * (i + 1) for i in range(max(n_wind // 1, 1)))[:1]),
        target_stations=StationTable(
            ids=("W0",), lats=np.array([29.0]), lons=np.array([120.0])
        ),
        norm_stats=stats,
    )


def _all_windows(samples):
    """Every window of a SampleSet, as a new writable array."""
    return sample_windows(samples, np.arange(len(samples.starts)))


def _row_samples(sizes, steps, seed=0):
    """A SampleSet of sum(sizes) overlapping windows of ``steps`` rows of 60
    random delay stations, 27 target channels (3 levels x 3 stations),
    starts shuffled, split train, val and test by ``sizes``; its norm stats
    are those of every row and target."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    delays = rng.normal(size=(n + steps - 1, 60))
    targets = rng.normal(size=(n, 27))
    return SampleSet(
        delays=delays, starts=rng.permutation(n), window_steps=steps, targets=targets,
        target_times=np.arange(n, dtype=np.int64) * 300,
        split_labels=np.repeat(np.arange(3, dtype=np.uint8), sizes),
        levels=LevelSpec("height_m", (100.0, 200.0, 300.0)),
        target_stations=StationTable(ids=("W0", "W1", "W2"), lats=np.array([29.0, 29.1, 29.2]),
                                     lons=np.array([120.0, 120.1, 120.2])),
        norm_stats=NormStats(input_mean=delays.mean(axis=0), input_std=delays.std(axis=0),
                             target_mean=targets.mean(axis=0), target_std=targets.std(axis=0)),
    )


def _toy_samples(n=60, window=4, n_stations=5, out_dim=6, seed=0):
    """Small learnable sample set: targets are linear in the window mean."""
    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, window, n_stations))
    w = rng.normal(size=(n_stations, out_dim))
    targets = inputs.mean(axis=1) @ w + 0.01 * rng.normal(size=(n, out_dim))
    n_tr = int(0.7 * n)
    n_va = int(0.15 * n)
    split = np.zeros(n, dtype=np.uint8)
    split[n_tr : n_tr + n_va] = 1
    split[n_tr + n_va :] = 2
    return _pack_samples(inputs, targets, split)


def _toy_model(samples, arch="mlp", seed=3):
    cfg = ModelConfig(
        arch=arch,
        window_steps=samples.window_steps,
        n_stations=samples.delays.shape[1],
        output_dim=samples.targets.shape[1],
        n_encoder_blocks=1,
        heads=2,
    )
    return WindModel(cfg, seed=seed)


def test_train_learns_and_reports_history():
    samples = _toy_samples()
    model = _toy_model(samples)
    cfg = TrainConfig(lr=3e-3, max_epochs=40, patience=40, batch_size=16, seed=1)
    result = train(model, samples, cfg)
    assert len(result.history) == 40
    epochs = [h[0] for h in result.history]
    assert epochs == list(range(1, 41))
    first_val = result.history[0][2]
    assert result.best_val < first_val
    assert result.best_epoch == min(
        (h[0] for h in result.history if h[2] == result.best_val)
    )
    # model is left holding the best state: its validation loss is the best
    stats, va = samples.norm_stats, samples.indices("val")
    val_pred = model.predict(stats.normalize_inputs(sample_windows(samples, va)))
    val_mse = float(np.mean((val_pred - stats.normalize_targets(samples.targets[va])) ** 2))
    assert val_mse == result.best_val


def test_train_early_stops_before_max_epochs():
    samples = _toy_samples()
    model = _toy_model(samples)
    cfg = TrainConfig(lr=1e-2, max_epochs=400, patience=5, batch_size=16, seed=1)
    result = train(model, samples, cfg)
    last_epoch = result.history[-1][0]
    assert last_epoch < 400
    assert last_epoch - result.best_epoch >= 5


def test_train_is_deterministic_for_fixed_seed():
    cfg = TrainConfig(lr=3e-3, max_epochs=8, patience=8, batch_size=16, seed=7)
    runs, states = [], []
    for _ in range(2):
        samples = _toy_samples()
        model = _toy_model(samples, seed=3)
        runs.append(train(model, samples, cfg))
        states.append(model.state())
    assert runs[0].history == runs[1].history
    for k in states[0]:
        assert np.array_equal(states[0][k], states[1][k])


def test_train_seed_changes_batch_order():
    samples = _toy_samples()
    a = train(_toy_model(samples), samples, TrainConfig(lr=3e-3, max_epochs=3, patience=3, batch_size=16, seed=1))
    b = train(_toy_model(samples), samples, TrainConfig(lr=3e-3, max_epochs=3, patience=3, batch_size=16, seed=2))
    assert a.history != b.history


def test_train_requires_norm_stats_and_splits():
    samples = _toy_samples()
    bare = _pack_samples(
        _all_windows(samples),
        np.array(samples.targets),
        np.array(samples.split_labels),
        with_stats=False,
    )
    with pytest.raises(UnnormalizedInput):
        train(_toy_model(samples), bare, TrainConfig(max_epochs=1, patience=1))

    no_val = _pack_samples(
        _all_windows(samples),
        np.array(samples.targets),
        np.zeros(len(samples.starts), dtype=np.uint8),
    )
    with pytest.raises(EmptySplit):
        train(_toy_model(samples), no_val, TrainConfig(max_epochs=1, patience=1))


def test_transformer_skips_single_sample_leftover_batch():
    # 17 train samples with batch 16 leaves a 1-row leftover; the
    # transformer needs batch statistics so that row is skipped.
    base = _toy_samples(n=24)
    split = np.zeros(24, dtype=np.uint8)
    split[17:20] = 1
    split[20:] = 2
    samples = _pack_samples(_all_windows(base), np.array(base.targets), split)
    model = _toy_model(samples, arch="transformer")
    cfg = TrainConfig(lr=1e-3, max_epochs=2, patience=2, batch_size=16, seed=0)
    result = train(model, samples, cfg)
    assert len(result.history) == 2


def test_train_peak_memory_holds_no_copy_of_the_train_windows():
    # 2000 overlapping 24-step windows of 60 stations, cut from 2023 delay
    # rows (0.93 MiB); their 1400 train windows would take 15.38 MiB. One
    # epoch of a one-block transformer at batch 32: tracemalloc peak measured
    # at 10.50 MiB; at 16.75 MiB when validation gathered its 300 windows
    # whole and two step graphs were alive at once, and at 31.17 MiB when
    # train also normalized a copy of every train window up front
    rng = np.random.default_rng(0)
    n, steps, n_stations = 2000, 24, 60
    delays = rng.normal(size=(n + steps - 1, n_stations))
    targets = rng.normal(size=(n, 6))
    split = np.repeat(np.array([0, 1, 2], dtype=np.uint8), [1400, 300, 300])
    stats = NormStats(input_mean=delays.mean(axis=0), input_std=delays.std(axis=0),
                      target_mean=targets[:1400].mean(axis=0),
                      target_std=targets[:1400].std(axis=0))
    samples = SampleSet(
        delays=delays, starts=np.arange(n), window_steps=steps, targets=targets,
        target_times=np.arange(n, dtype=np.int64) * 300, split_labels=split,
        levels=LevelSpec("height_m", (100.0,)),
        target_stations=StationTable(ids=("W0", "W1"), lats=np.array([29.0, 29.1]),
                                     lons=np.array([120.0, 120.1])),
        norm_stats=stats,
    )
    model = _toy_model(samples, arch="transformer")
    tracemalloc.start()
    try:
        train(model, samples, TrainConfig(lr=1e-3, max_epochs=1, patience=1, batch_size=32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2**20


def test_train_holds_one_step_graph_at_a_time():
    # the default model (60 stations, two 4-head blocks, 27 outputs) at
    # batch 128: a step's graph holds 9.14 MiB after the forward and its
    # backward peaks 4.15 MiB above that. One epoch of four full batches
    # peaked at 15.14 MiB (tracemalloc); at 23.49 MiB when the last step's
    # loss, and so its graph, lived on through the next forward
    samples = _row_samples((512, 44, 44), 6)
    model = WindModel(ModelConfig(n_stations=60), seed=0)
    tracemalloc.start()
    try:
        train(model, samples, TrainConfig(lr=1e-3, max_epochs=1, patience=1, batch_size=128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19 * 2**20


def test_history_round_trip(tmp_path):
    history = [(1, 0.5, 0.6), (2, 0.25, 0.3), (3, 0.1234567890123456789, 0.2)]
    path = tmp_path / "history.csv"
    write_history(path, history)
    loaded = read_history(path)
    assert loaded == [(e, float(f"{t:.17g}"), float(f"{v:.17g}")) for e, t, v in history]
    assert path.read_text().splitlines()[0] == "epoch,train_mse,val_mse"


def test_history_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,loss\n1,2\n")
    with pytest.raises(DataError, match="bad.csv: unexpected history file header"):
        read_history(path)
    path.write_text("epoch,train_mse,val_mse\n1,0.5,0.6\n2,0.25\n")
    with pytest.raises(DataError, match="bad.csv, line 3: malformed row"):
        read_history(path)
