import numpy as np
import pytest

from gwindcast.errors import ChannelMismatch, ConfigError, EmptyTrain
from gwindcast.postprocess import (
    CdfMap,
    apply_cdf_map,
    cdf_map_from_dict,
    cdf_map_to_dict,
    fit_cdf_map,
    read_cdf_map,
    write_cdf_map,
)
from reference_impls import loop_quantiles, prior_apply_cdf_map


class _FixedModel:
    """Stand-in model: predicts a fixed affine warp of the (normalized) input mean."""

    def __init__(self, out_dim, gain=2.0, offset=1.0):
        self.out_dim = out_dim
        self.gain = gain
        self.offset = offset

    def predict(self, x):
        base = x.mean(axis=(1, 2), keepdims=False)
        return self.gain * base[:, None] * np.ones(self.out_dim) + self.offset


def _samples(n=80, out_dim=4, seed=0, train_frac=0.7):
    import test_trainer

    rng = np.random.default_rng(seed)
    inputs = rng.normal(size=(n, 4, 5))
    targets = rng.normal(loc=3.0, scale=2.0, size=(n, out_dim))
    n_tr = int(train_frac * n)
    n_va = (n - n_tr) // 2
    split = np.zeros(n, dtype=np.uint8)
    split[n_tr : n_tr + n_va] = 1
    split[n_tr + n_va :] = 2
    return test_trainer._pack_samples(inputs, targets, split)


def test_affine_fit_matches_train_target_moments():
    samples = _samples()
    model = _FixedModel(out_dim=samples.output_dim)
    cdf = fit_cdf_map(model, samples, mode="gaussian_affine")
    tr = samples.indices("train")
    stats = samples.norm_stats
    raw = stats.denormalize_targets(model.predict(stats.normalize_inputs(samples.inputs[tr])))
    calibrated = apply_cdf_map(cdf, raw)
    want_mean = samples.targets[tr].mean(axis=0)
    want_std = samples.targets[tr].std(axis=0)
    np.testing.assert_allclose(calibrated.mean(axis=0), want_mean, atol=1e-9)
    np.testing.assert_allclose(calibrated.std(axis=0), want_std, atol=1e-9)


def test_affine_constant_source_channel_passes_through():
    cdf = CdfMap(
        mode="gaussian_affine",
        n_channels=2,
        mu_src=np.array([0.0, 5.0]),
        sigma_src=np.array([1.0, 0.0]),
        mu_tgt=np.array([10.0, 20.0]),
        sigma_tgt=np.array([2.0, 3.0]),
    )
    raw = np.array([[1.0, 7.0], [-1.0, 8.0]])
    out = apply_cdf_map(cdf, raw)
    np.testing.assert_allclose(out[:, 0], np.array([12.0, 8.0]))
    np.testing.assert_allclose(out[:, 1], raw[:, 1])


def test_quantile_mode_matches_loop_oracle_on_train():
    samples = _samples(n=120, out_dim=3, seed=5)
    model = _FixedModel(out_dim=3)
    n_q = 41
    cdf = fit_cdf_map(model, samples, mode="empirical_quantile", n_quantiles=n_q)
    tr = samples.indices("train")
    stats = samples.norm_stats
    raw = stats.denormalize_targets(model.predict(stats.normalize_inputs(samples.inputs[tr])))
    for c in range(3):
        want_src = loop_quantiles(raw[:, c], n_q)
        want_tgt = loop_quantiles(samples.targets[tr][:, c], n_q)
        np.testing.assert_allclose(cdf.src_quantiles[c], want_src, rtol=1e-12)
        np.testing.assert_allclose(cdf.tgt_quantiles[c], want_tgt, rtol=1e-12)
    # pushing the source quantile nodes through lands on target nodes
    out = apply_cdf_map(cdf, cdf.src_quantiles.T.copy())
    np.testing.assert_allclose(out, cdf.tgt_quantiles.T, atol=1e-9)


def test_quantile_mode_clamps_outside_sampled_range():
    src = np.linspace(0.0, 1.0, 11).reshape(1, -1)
    tgt = np.linspace(10.0, 20.0, 11).reshape(1, -1)
    cdf = CdfMap(mode="empirical_quantile", n_channels=1, src_quantiles=src, tgt_quantiles=tgt)
    out = apply_cdf_map(cdf, np.array([[-5.0], [0.5], [99.0]]))
    assert out[0, 0] == pytest.approx(10.0)
    assert out[1, 0] == pytest.approx(15.0)
    assert out[2, 0] == pytest.approx(20.0)


def test_quantile_mode_handles_tied_source_nodes():
    # heavy ties in the source support must not break monotonicity
    src = np.array([[0.0, 0.0, 0.0, 1.0, 2.0]])
    tgt = np.array([[5.0, 6.0, 7.0, 8.0, 9.0]])
    cdf = CdfMap(mode="empirical_quantile", n_channels=1, src_quantiles=src, tgt_quantiles=tgt)
    x = np.linspace(-1.0, 3.0, 50).reshape(-1, 1)
    y = apply_cdf_map(cdf, x)
    assert np.all(np.diff(y[:, 0]) >= -1e-12)
    assert np.isfinite(y).all()


@pytest.mark.parametrize("mode", ["gaussian_affine", "empirical_quantile"])
def test_both_modes_monotone_on_random_pairs(mode):
    samples = _samples(n=100, out_dim=2, seed=9)
    model = _FixedModel(out_dim=2)
    cdf = fit_cdf_map(model, samples, mode=mode)
    rng = np.random.default_rng(77)
    for _ in range(1000):
        a, b = rng.normal(scale=3.0, size=2)
        lo, hi = (a, b) if a <= b else (b, a)
        c = int(rng.integers(0, 2))
        row_lo = np.zeros((1, 2))
        row_hi = np.zeros((1, 2))
        row_lo[0, c] = lo
        row_hi[0, c] = hi
        y_lo = apply_cdf_map(cdf, row_lo)[0, c]
        y_hi = apply_cdf_map(cdf, row_hi)[0, c]
        assert y_lo <= y_hi + 1e-12


@pytest.mark.parametrize("mode", ["gaussian_affine", "empirical_quantile"])
@pytest.mark.parametrize("rows", [1, 87, 2049])
def test_apply_keeps_the_bits_of_the_prior_formulas(rows, mode):
    # the affine shift is added in the product's array; the raw outputs are
    # never written
    rng = np.random.default_rng(rows)
    cdf = fit_cdf_map(_FixedModel(27), _samples(n=200, out_dim=27, seed=rows), mode=mode)
    if mode == "gaussian_affine":  # one channel whose source spread is 0
        sigma_src = cdf.sigma_src.copy()
        sigma_src[4] = 0.0
        cdf = CdfMap(mode, 27, cdf.mu_src, sigma_src, cdf.mu_tgt, cdf.sigma_tgt)
    raw = rng.normal(3.0, 2.0, size=(rows, 27))
    kept = raw.copy()
    assert apply_cdf_map(cdf, raw).tobytes() == prior_apply_cdf_map(cdf, raw).tobytes()
    assert raw.tobytes() == kept.tobytes()


def test_fit_never_reads_val_or_test_rows():
    base = _samples(n=100, out_dim=2, seed=3)
    import test_trainer

    # corrupt every val/test row; the fitted map must not change
    inputs = np.array(base.inputs)
    targets = np.array(base.targets)
    labels = np.array(base.split_labels)
    inputs[labels != 0] = 1e6
    targets[labels != 0] = -1e6
    corrupted = test_trainer._pack_samples(inputs, targets, labels)

    model = _FixedModel(out_dim=2)
    for mode in ("gaussian_affine", "empirical_quantile"):
        a = fit_cdf_map(model, base, mode=mode)
        b = fit_cdf_map(model, corrupted, mode=mode)
        for field in ("mu_src", "sigma_src", "mu_tgt", "sigma_tgt", "src_quantiles", "tgt_quantiles"):
            va, vb = getattr(a, field), getattr(b, field)
            if va is None:
                assert vb is None
            else:
                np.testing.assert_array_equal(va, vb)


def test_fit_rejects_bad_mode_and_empty_train():
    samples = _samples()
    model = _FixedModel(out_dim=samples.output_dim)
    with pytest.raises(ConfigError):
        fit_cdf_map(model, samples, mode="rank_histogram")
    with pytest.raises(ConfigError):
        fit_cdf_map(model, samples, mode="empirical_quantile", n_quantiles=1)
    import test_trainer

    no_train = test_trainer._pack_samples(
        np.array(samples.inputs),
        np.array(samples.targets),
        np.full(len(samples.inputs), 2, dtype=np.uint8),
        with_stats=False,
    )
    with pytest.raises(EmptyTrain):
        fit_cdf_map(model, no_train)


def test_apply_rejects_channel_mismatch():
    cdf = CdfMap(
        mode="gaussian_affine",
        n_channels=3,
        mu_src=np.zeros(3),
        sigma_src=np.ones(3),
        mu_tgt=np.zeros(3),
        sigma_tgt=np.ones(3),
    )
    with pytest.raises(ChannelMismatch):
        apply_cdf_map(cdf, np.zeros((4, 2)))
    with pytest.raises(ChannelMismatch):
        apply_cdf_map(cdf, np.zeros(3))


@pytest.mark.parametrize("mode", ["gaussian_affine", "empirical_quantile"])
def test_round_trip_preserves_behaviour(tmp_path, mode):
    samples = _samples(n=90, out_dim=3, seed=11)
    model = _FixedModel(out_dim=3)
    cdf = fit_cdf_map(model, samples, mode=mode, n_quantiles=21)
    path = tmp_path / "cdf_map.json"
    write_cdf_map(path, cdf)
    loaded = read_cdf_map(path)
    assert loaded.mode == cdf.mode
    assert loaded.n_channels == cdf.n_channels
    x = np.random.default_rng(1).normal(size=(40, 3))
    np.testing.assert_array_equal(apply_cdf_map(cdf, x), apply_cdf_map(loaded, x))
    # dict round trip too
    again = cdf_map_from_dict(cdf_map_to_dict(cdf))
    np.testing.assert_array_equal(apply_cdf_map(cdf, x), apply_cdf_map(again, x))


def test_read_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99, "mode": "gaussian_affine", "n_channels": 1}')
    with pytest.raises(ConfigError):
        read_cdf_map(path)
