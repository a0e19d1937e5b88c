"""End-to-end acceptance checks.

One test per acceptance criterion; run ``pytest tests/test_acceptance.py -v``
to get one pass/fail line for each. The two heavyweight fixtures (the
default-config lead sweep and the station-count ablation) are shared at
module scope, so the whole file costs roughly one full experiment run.
"""

import os
import time

import numpy as np
import pytest

from gwindcast import fileio
from gwindcast.harness import (
    ExperimentConfig,
    merge_config,
    prepare_scene,
    reference_wind_station,
    run_lead_sweep,
    run_station_ablation,
)
from gwindcast.metrics import (
    evaluate_series,
    mae,
    pearson_r,
    read_report,
    rmse,
    rmspe,
)
from gwindcast.model import ModelConfig, WindModel
from gwindcast.neural import (
    BatchNorm,
    Dense,
    MultiHeadAttention,
    Param,
    Tensor,
    mse_loss,
    positional_encoding,
    reshape,
)
from gwindcast.postprocess import apply_cdf_map, fit_cdf_map
from gwindcast.preprocess import (
    PressureMapParams,
    compose_wind,
    decompose_wind,
    height_to_pressure,
)
from gwindcast.trainer import AdamState, EarlyStopper, TrainConfig, adam_step
from reference_impls import (
    fd_gradient,
    loop_mae,
    loop_pearson_cells,
    loop_rmse,
    loop_rmspe_cells,
    prior_forecast,
    sample_windows,
    scalar_adam_trace,
)


SMALL_RUN = {
    "seed": 993,
    "synth": {
        "seed": 31,
        "n_ztd_stations": 10,
        "n_wind_stations": 2,
        "n_levels": 2,
        "n_steps": 280,
        "latent_dim": 4,
        "noise_std": 0.05,
        "missing_rate": 0.02,
        "lead_coupling_steps": 2,
        "step_seconds": 300,
    },
    "window_steps": 4,
    "leads_minutes": [5.0],
    "ablation_lead_minutes": 5.0,
    "station_counts": [4, 10],
    "model": {"n_encoder_blocks": 1, "heads": 2},
    "train": {"lr": 1e-3, "max_epochs": 4, "patience": 4, "batch_size": 64},
}


@pytest.fixture(scope="module")
def default_cfg():
    return ExperimentConfig.from_dict({})


@pytest.fixture(scope="module")
def sweep_run(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_sweep")
    t0 = time.monotonic()
    reports = run_lead_sweep(default_cfg, out)
    elapsed = time.monotonic() - t0
    return out, reports, elapsed


@pytest.fixture(scope="module")
def ablation_run(default_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_ablation")
    reports = run_station_ablation(default_cfg, out)
    return out, reports


# --------------------------------------------------------- criterion 1 ----


def test_criterion_1_metric_oracles():
    """Vectorized metrics match naive loops on 200 random arrays at 1e-12,
    and reproduce the worked three-point example."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20250807)
    for _ in range(200):
        n_t = int(rng.integers(3, 14))
        n_c = int(rng.integers(1, 7))
        truth = rng.normal(scale=rng.uniform(0.5, 4.0), size=(n_t, n_c))
        pred = truth + rng.normal(scale=0.7, size=(n_t, n_c))
        assert rmse(pred, truth) == pytest.approx(loop_rmse(truth, pred), rel=1e-12)
        assert mae(pred, truth) == pytest.approx(loop_mae(truth, pred), rel=1e-12)
        want_rmspe, _ = loop_rmspe_cells(truth, pred)
        assert rmspe(pred, truth) == pytest.approx(want_rmspe, rel=1e-12)
        want_r, _ = loop_pearson_cells(truth, pred)
        assert pearson_r(pred, truth) == pytest.approx(want_r, rel=1e-12)

    truth = np.array([1.0, 2.0, 3.0])
    pred = np.array([1.0, 2.0, 5.0])
    assert rmse(pred, truth) == pytest.approx(1.1547, abs=1e-3)
    assert mae(pred, truth) == pytest.approx(0.6667, abs=1e-3)
    assert rmspe(pred.reshape(3, 1), truth.reshape(3, 1)) == pytest.approx(0.5774, abs=1e-3)
    assert pearson_r(pred.reshape(3, 1), truth.reshape(3, 1)) == pytest.approx(0.9608, abs=1e-3)

    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"metric oracle check took {elapsed:.2f}s (budget 5s)"
    print(f"criterion 1 PASS: 200 random arrays + worked example in {elapsed:.2f}s")


# --------------------------------------------------------- criterion 2 ----


def _param_grad(loss_fn, param):
    param.grad[...] = 0.0
    loss = loss_fn()
    loss.backward()
    return param.grad.copy()


def _fd_param_grad(loss_fn, param, eps=1e-6):
    def f(values):
        param.value[...] = values
        return float(loss_fn().data)

    original = param.value.copy()
    out = fd_gradient(f, original, eps=eps)
    param.value[...] = original
    return out


def _check_grads(loss_fn, params, rel):
    for p in params:
        got = _param_grad(loss_fn, p)
        want = _fd_param_grad(loss_fn, p)
        scale = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(got - want) / scale) < rel, p.name


def test_criterion_2_finite_difference_gradients():
    """Backpropagated gradients match central finite differences for every
    layer type and for the full two-block encoder."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    checks = 0

    # dense without activation: affine map, tight tolerance
    for n_in, n_out in ((3, 2), (5, 4), (2, 6), (4, 4)):
        layer = Dense("d", n_in, n_out, rng)
        x = Tensor(rng.normal(size=(4, n_in)))
        y = np.asarray(rng.normal(size=(4, n_out)))
        loss_fn = lambda: mse_loss(layer.forward(x), y)
        _check_grads(loss_fn, layer.params(), rel=1e-6)
        checks += 1

    # dense with tanh
    for n_in, n_out in ((3, 3), (6, 2), (2, 5), (5, 5)):
        layer = Dense("t", n_in, n_out, rng, activation="tanh")
        x = Tensor(rng.normal(size=(5, n_in)))
        y = np.asarray(rng.normal(size=(5, n_out)))
        loss_fn = lambda: mse_loss(layer.forward(x), y)
        _check_grads(loss_fn, layer.params(), rel=1e-4)
        checks += 1

    # attention
    for width, heads, tokens in ((4, 2, 3), (6, 2, 4), (4, 4, 5), (8, 4, 3)):
        mha = MultiHeadAttention("a", width, heads, rng)
        x = Tensor(rng.normal(size=(2, tokens, width)))
        y = np.asarray(rng.normal(size=(2, tokens, width)))
        loss_fn = lambda: mse_loss(mha.forward(x), y)
        _check_grads(loss_fn, mha.params(), rel=1e-4)
        checks += 1

    # batch norm in training mode (loss uses batch stats, not the buffers)
    for width, batch in ((3, 6), (5, 8), (2, 4), (4, 12)):
        bn = BatchNorm("b", width)
        x = Tensor(rng.normal(size=(batch, width)))
        y = np.asarray(rng.normal(size=(batch, width)))
        loss_fn = lambda: mse_loss(bn.forward(x, training=True), y)
        _check_grads(loss_fn, bn.params(), rel=1e-4)
        checks += 1

    # position-coded linear path: x + PE through a dense readout
    for tokens, width in ((3, 4), (5, 6), (4, 8), (2, 4)):
        pe = positional_encoding(tokens, width)
        layer = Dense("p", tokens * width, 3, rng)
        raw = rng.normal(size=(2, tokens, width))
        y = np.asarray(rng.normal(size=(2, 3)))

        def loss_fn():
            h = reshape(Tensor(raw + pe), (2, tokens * width))
            return mse_loss(layer.forward(h), y)

        _check_grads(loss_fn, layer.params(), rel=1e-6)
        checks += 1

    # full two-block encoder, every parameter
    for n_stations, heads in ((4, 2), (5, 2), (3, 1), (6, 2)):
        config = ModelConfig(
            arch="transformer", window_steps=3, n_stations=n_stations,
            output_dim=3, n_encoder_blocks=2, heads=heads,
        )
        model = WindModel(config, seed=int(rng.integers(1_000_000)))
        x = rng.normal(size=(4, 3, n_stations))
        y = np.asarray(rng.normal(size=(4, 3)))
        loss_fn = lambda: mse_loss(model.forward_batch(x, training=True), y)
        _check_grads(loss_fn, model.params(), rel=1e-4)
        checks += 1

    elapsed = time.monotonic() - t0
    assert checks >= 20, checks
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s (budget 60s)"
    print(f"criterion 2 PASS: {checks} configurations in {elapsed:.1f}s")


# --------------------------------------------------------- criterion 3 ----


def test_criterion_3_adam_scalar_trace():
    """Adam on a scalar with constant gradient 2.0 reproduces the
    closed-form first step and a 10-step oracle trace."""
    cfg = TrainConfig(lr=0.001)
    theta = Param("theta", np.array([1.0]))
    state = AdamState.for_params([theta])
    trace = scalar_adam_trace(1.0, [2.0] * 10, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)

    m1, v1, t1 = trace[0]
    assert m1 == pytest.approx(2.0, abs=1e-15)
    assert v1 == pytest.approx(4.0, abs=1e-15)
    assert t1 == pytest.approx(0.999, abs=1e-9)

    for step, (want_m, want_v, want_t) in enumerate(trace, start=1):
        theta.grad[...] = 2.0
        adam_step([theta], state, cfg)
        m_hat = state.m["theta"][0] / (1 - cfg.beta1**step)
        v_hat = state.v["theta"][0] / (1 - cfg.beta2**step)
        assert m_hat == pytest.approx(want_m, abs=1e-15)
        assert v_hat == pytest.approx(want_v, abs=1e-15)
        assert theta.value[0] == pytest.approx(want_t, abs=1e-15)
    print("criterion 3 PASS: 10-step scalar trace matches at 1e-15")


# --------------------------------------------------------- criterion 4 ----


def test_criterion_4_early_stopping_trace_and_restore():
    """Patience-2 stopping on the scripted loss sequence stops at the traced
    epoch and restores the byte-identical best-epoch state."""
    config = ModelConfig(
        arch="transformer", window_steps=3, n_stations=4,
        output_dim=3, n_encoder_blocks=1, heads=2,
    )
    model = WindModel(config, seed=0)
    stopper = EarlyStopper(patience=2)
    losses = {1: 5.0, 2: 4.0, 3: 4.5, 4: 4.2}
    snapshots = {}
    rng = np.random.default_rng(3)
    stopped_at = None
    for epoch in (1, 2, 3, 4, 5):
        for p in model.params():  # stand-in for a real update
            p.value += 0.01 * rng.normal(size=p.value.shape)
        snapshots[epoch] = model.state()
        if stopper.observe(epoch, losses.get(epoch, 9.9), model.state()):
            stopped_at = epoch
            break
    assert stopped_at == 4
    assert stopper.best_epoch == 2
    assert stopper.best_val == 4.0

    model.load_state(stopper.best_state)
    restored = model.state()
    for name, best in snapshots[2].items():
        assert restored[name].tobytes() == best.tobytes(), name
    print("criterion 4 PASS: stop at epoch 4, byte-equal restore of epoch 2")


# --------------------------------------------------------- criterion 5 ----


def test_criterion_5_pressure_map_and_wind_components():
    """Exponential pressure map hits the anchor values; speed/direction
    decomposition round-trips and conserves energy."""
    params = PressureMapParams()
    assert height_to_pressure(0.0, params) == pytest.approx(1013.25, abs=1e-12)
    assert height_to_pressure(7160.0, params) == pytest.approx(414.02164932283966, abs=0.01)
    assert height_to_pressure(8000.0, params) == pytest.approx(372.75384376696394, abs=0.01)
    assert height_to_pressure(4000.0, params) > height_to_pressure(4001.0, params)

    # direction convention: direction the wind blows FROM, clockwise from north
    u, v = decompose_wind(10.0, 0.0)
    assert (u, v) == (pytest.approx(0.0, abs=1e-12), pytest.approx(-10.0))
    u, v = decompose_wind(10.0, 90.0)
    assert (u, v) == (pytest.approx(-10.0), pytest.approx(0.0, abs=1e-12))
    u, v = decompose_wind(10.0, 270.0)
    assert (u, v) == (pytest.approx(10.0), pytest.approx(0.0, abs=1e-12))

    rng = np.random.default_rng(55)
    speed = rng.uniform(0.01, 40.0, size=1000)
    direction = rng.uniform(0.0, 360.0, size=1000)
    u, v = decompose_wind(speed, direction)
    np.testing.assert_allclose(u * u + v * v, speed * speed, rtol=1e-12)
    speed2, dir2 = compose_wind(u, v)
    np.testing.assert_allclose(speed2, speed, atol=1e-9)
    dir_err = np.abs((dir2 - direction + 180.0) % 360.0 - 180.0)
    assert dir_err.max() < 1e-9
    print("criterion 5 PASS: anchors within 0.01 hPa, 1000 round-trips within 1e-9")


# --------------------------------------------------------- criterion 6 ----


def test_criterion_6_calibration_map_properties():
    """Affine calibration matches train-target moments at 1e-9; both modes
    are monotone; val/test rows never influence the fit."""
    import test_trainer

    rng = np.random.default_rng(4)
    n = 160
    inputs = rng.normal(size=(n, 4, 5))
    targets = rng.normal(loc=2.0, scale=3.0, size=(n, 4))
    split = np.zeros(n, dtype=np.uint8)
    split[112:136] = 1
    split[136:] = 2
    samples = test_trainer._pack_samples(inputs, targets, split)

    class WarpModel:
        def predict(self, x):
            base = x[:].mean(axis=(1, 2))  # x[:] gathers a Windows source whole
            return np.stack([2.0 * base + 1.0, -base, base**3, base], axis=1)

    model = WarpModel()
    cdf = fit_cdf_map(model, samples, mode="gaussian_affine")
    tr = samples.indices("train")
    stats = samples.norm_stats
    raw = prior_forecast(model, stats, sample_windows(samples, tr))
    calibrated = apply_cdf_map(cdf, raw)
    np.testing.assert_allclose(calibrated.mean(axis=0), samples.targets[tr].mean(axis=0), atol=1e-9)
    np.testing.assert_allclose(calibrated.std(axis=0), samples.targets[tr].std(axis=0), atol=1e-9)

    for mode in ("gaussian_affine", "empirical_quantile"):
        m = fit_cdf_map(model, samples, mode=mode)
        pair_rng = np.random.default_rng(9)
        for _ in range(1000):
            a, b = np.sort(pair_rng.normal(scale=4.0, size=2))
            channel = int(pair_rng.integers(0, 4))
            lo = np.zeros((1, 4))
            hi = np.zeros((1, 4))
            lo[0, channel] = a
            hi[0, channel] = b
            assert (
                apply_cdf_map(m, lo)[0, channel]
                <= apply_cdf_map(m, hi)[0, channel] + 1e-12
            )

    corrupted_inputs = test_trainer._all_windows(samples)
    corrupted_targets = np.array(samples.targets)
    labels = np.array(samples.split_labels)
    corrupted_inputs[labels != 0] = 123.0
    corrupted_targets[labels != 0] = -321.0
    corrupted = test_trainer._pack_samples(corrupted_inputs, corrupted_targets, labels)
    for mode in ("gaussian_affine", "empirical_quantile"):
        a = fit_cdf_map(model, samples, mode=mode)
        b = fit_cdf_map(model, corrupted, mode=mode)
        for field in ("mu_src", "sigma_src", "mu_tgt", "sigma_tgt",
                      "src_quantiles", "tgt_quantiles"):
            va, vb = getattr(a, field), getattr(b, field)
            assert (va is None and vb is None) or np.array_equal(va, vb)
    print("criterion 6 PASS: moment match 1e-9, 1000 monotone pairs, no leakage")


# --------------------------------------------------------- criterion 7 ----


def test_criterion_7_default_sweep_quality(sweep_run):
    """With the default configuration every lead from 5 to 30 minutes beats
    the train-mean predictor and stays under 0.15 range-relative error for
    u and v, degrading at most 20% from the 5 to the 30 minute lead, inside
    the 10 minute budget."""
    out, reports, elapsed = sweep_run
    leads = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    assert sorted(reports) == leads

    rmspe_by_lead = {}
    for lead in leads:
        lead_dir = os.path.join(out, f"lead_{format(lead, 'g')}min")
        baseline = read_report(os.path.join(lead_dir, "baseline_mean_report.json"))
        for comp in ("u", "v"):
            got = reports[lead].row("all", comp).rmspe
            base = baseline.row("all", comp).rmspe
            assert got < 0.15, f"lead {lead} {comp}: rmspe {got:.4f}"
            assert got < base, f"lead {lead} {comp}: {got:.4f} not below mean predictor {base:.4f}"
            rmspe_by_lead[(lead, comp)] = got

    for comp in ("u", "v"):
        first = rmspe_by_lead[(5.0, comp)]
        last = rmspe_by_lead[(30.0, comp)]
        degradation = (last - first) / first
        assert degradation <= 0.20, f"{comp}: lead 5->30 degraded {degradation:.1%}"

    assert elapsed < 600.0, f"sweep took {elapsed:.0f}s (budget 600s)"
    print(
        "criterion 7 PASS: rmspe "
        + ", ".join(f"{k[1]}@{k[0]:g}min={v:.4f}" for k, v in sorted(rmspe_by_lead.items()))
        + f"; sweep {elapsed:.0f}s"
    )


# --------------------------------------------------------- criterion 8 ----


def test_criterion_8_station_ablation(ablation_run, sweep_run, default_cfg, tmp_path):
    """The station-count ablation runs at 5/10/20/60 stations, writes its
    tables, reruns deterministically, and its full-network arm agrees with
    the lead sweep at the reference station to 1e-12."""
    out, reports = ablation_run
    assert sorted(reports) == [5, 10, 20, 60]
    metrics_lines = open(os.path.join(out, "ablation_metrics.csv"), encoding="utf-8").read().strip().split("\n")
    assert metrics_lines[0] == "stations,component,metric,value"
    assert len(metrics_lines) == 1 + 4 * 3 * 4
    radar_lines = open(os.path.join(out, "ablation_radar.csv"), encoding="utf-8").read().strip().split("\n")
    assert radar_lines[0] == "stations,component,rmse_over_10,mae_over_10,rmspe,one_minus_r"
    assert len(radar_lines) == 1 + 4 * 3

    # determinism: rerunning the 60-station arm alone reproduces its
    # artifacts byte for byte (its seeds do not depend on the other arms)
    rerun_cfg = ExperimentConfig.from_dict(
        merge_config(default_cfg.raw, {"station_counts": [60]})
    )
    rerun_dir = tmp_path / "ablation_rerun"
    run_station_ablation(rerun_cfg, rerun_dir)
    for rel in ("k_60/checkpoint.gwc", "k_60/predictions.gwcs", "report_k60.json"):
        a = open(os.path.join(out, rel), "rb").read()
        b = open(os.path.join(rerun_dir, rel), "rb").read()
        assert a == b, rel

    # consistency with the sweep at the shared lead: restrict the sweep's
    # 30-minute predictions to the reference wind station and re-score
    sweep_out, _, _ = sweep_run
    panel, cube = prepare_scene(default_cfg)
    ref = reference_wind_station(cube, default_cfg)
    pred = fileio.read_series(os.path.join(sweep_out, "lead_30min", "predictions.gwcs"))
    truth = fileio.read_series(os.path.join(sweep_out, "lead_30min", "truth.gwcs"))
    recomputed = evaluate_series(
        pred.select_stations([ref]), truth.select_stations([ref]), 30.0
    )
    k60 = reports[60]
    assert default_cfg.ablation_lead_minutes == 30.0
    for row_a, row_b in zip(k60.rows, recomputed.rows):
        assert row_a.level == row_b.level and row_a.component == row_b.component
        for metric in ("rmse", "mae", "rmspe", "r"):
            a = getattr(row_a, metric)
            b = getattr(row_b, metric)
            if np.isnan(a) and np.isnan(b):
                continue
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (row_a.level, row_a.component, metric)
    print("criterion 8 PASS: tables written, k=60 rerun byte-stable and matches sweep at 1e-12")


# --------------------------------------------------------- criterion 9 ----


def test_criterion_9_reproducibility_and_round_trips(tmp_path):
    """Two same-seed runs produce byte-identical artifacts, and every
    artifact format round-trips bit-exactly."""
    cfg = ExperimentConfig.from_dict(SMALL_RUN)
    run_a = tmp_path / "run_a"
    run_b = tmp_path / "run_b"
    run_lead_sweep(cfg, run_a)
    run_lead_sweep(cfg, run_b)

    artifact_names = [
        "lead_5min/checkpoint.gwc",
        "lead_5min/history.csv",
        "lead_5min/cdf_map.json",
        "lead_5min/predictions.gwcs",
        "lead_5min/truth.gwcs",
        "lead_5min/report.json",
        "lead_5min/baseline_mean_report.json",
        "report_lead_5min.json",
        "manifest.json",
    ] + [
        f"mosaic_{metric}_{comp}.csv"
        for metric in ("rmse", "mae", "rmspe", "r")
        for comp in ("u", "v", "w")
    ]
    for rel in artifact_names:
        a = (run_a / rel).read_bytes()
        b = (run_b / rel).read_bytes()
        assert a == b, rel

    # binary containers re-encode to the identical bytes
    panel, cube = prepare_scene(cfg)
    blob = fileio.panel_to_bytes(panel)
    assert fileio.panel_to_bytes(fileio.panel_from_bytes(blob)) == blob
    blob = fileio.cube_to_bytes(cube)
    assert fileio.cube_to_bytes(fileio.cube_from_bytes(blob)) == blob
    pred_path = run_a / "lead_5min" / "predictions.gwcs"
    blob = pred_path.read_bytes()
    assert fileio.series_to_bytes(fileio.series_from_bytes(blob)) == blob
    ckpt_blob = (run_a / "lead_5min" / "checkpoint.gwc").read_bytes()
    arrays, extra = fileio.named_arrays_from_bytes(ckpt_blob)
    assert fileio.named_arrays_to_bytes(arrays, extra) == ckpt_blob

    # text artifacts reload to equal content and re-save byte-identically
    from gwindcast.metrics import write_report
    from gwindcast.postprocess import read_cdf_map, write_cdf_map
    from gwindcast.trainer import read_history, write_history

    report = read_report(run_a / "lead_5min" / "report.json")
    write_report(tmp_path / "report_again.json", report)
    assert (tmp_path / "report_again.json").read_bytes() == (
        run_a / "lead_5min" / "report.json"
    ).read_bytes()

    history = read_history(run_a / "lead_5min" / "history.csv")
    write_history(tmp_path / "history_again.csv", history)
    assert (tmp_path / "history_again.csv").read_bytes() == (
        run_a / "lead_5min" / "history.csv"
    ).read_bytes()

    cdf = read_cdf_map(run_a / "lead_5min" / "cdf_map.json")
    write_cdf_map(tmp_path / "cdf_again.json", cdf)
    assert (tmp_path / "cdf_again.json").read_bytes() == (
        run_a / "lead_5min" / "cdf_map.json"
    ).read_bytes()

    # CSV station/delay/wind formats round-trip their content bit-exactly
    fileio.write_station_csv(tmp_path / "stations.csv", panel.stations)
    st = fileio.read_station_csv(tmp_path / "stations.csv")
    assert st.ids == panel.stations.ids
    np.testing.assert_array_equal(st.lats, panel.stations.lats)
    fileio.write_ztd_csv(tmp_path / "ztd.csv", panel)
    panel2 = fileio.read_ztd_csv(tmp_path / "ztd.csv", panel.stations)
    np.testing.assert_array_equal(panel2.mask, panel.mask)
    np.testing.assert_array_equal(panel2.values[panel2.mask], panel.values[panel.mask])
    print("criterion 9 PASS: byte-identical reruns, all formats round-trip")
