import json
import tracemalloc

import numpy as np
import pytest

from gwindcast.errors import ChannelMismatch, ConfigError, DataError, EmptyTrain
from gwindcast.postprocess import (
    ONE_PASS_MAX_ROWS,
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
    raw = stats.denormalize_targets(model.predict(stats.normalize_inputs(samples.windows(tr))))
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
    raw = stats.denormalize_targets(model.predict(stats.normalize_inputs(samples.windows(tr))))
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["gaussian_affine", "empirical_quantile"])
@pytest.mark.parametrize("rows", [1, ONE_PASS_MAX_ROWS, ONE_PASS_MAX_ROWS + 1, 87, 2049])
def test_apply_keeps_the_bits_of_the_prior_formulas(tmp_path, rows, mode):
    # the per-map constants are computed once, when the map is made; the
    # affine shift is added in the product's array; the raw outputs are
    # never written, and a second call gives the same bytes. Short inputs
    # take the one pass over every channel, longer ones the per-channel
    # loop; both keep np.interp's bits on infinite, NaN and huge inputs, on
    # exact and end nodes, on a one-node channel, on target quantiles of
    # -0.0 and on a raw -0.0 at a source node of 0.0, and on a value above
    # every node of its channel but not of the next; neither warns
    rng = np.random.default_rng(rows)
    cdf = fit_cdf_map(_FixedModel(27), _samples(n=200, out_dim=27, seed=rows), mode=mode)
    if mode == "gaussian_affine":  # one channel whose source spread is 0
        sigma_src = cdf.sigma_src.copy()
        sigma_src[4] = 0.0
        cdf = CdfMap(mode, 27, cdf.mu_src, sigma_src, cdf.mu_tgt, cdf.sigma_tgt)
        nodes = cdf.mu_src[:, None]
    else:  # a channel with tied source quantiles, and a constant one
        src = cdf.src_quantiles.copy()
        src[2, :40] = src[2, 40]
        src[2, 70:90] = src[2, 70]
        src[6] = 1.5
        # target quantiles of -0.0 at the first position, the last and the
        # middle one, which a value below every source node, above every
        # one and on the middle one reach, each on an exact node
        tgt = cdf.tgt_quantiles.copy()
        for c, j in ((9, 0), (10, -1), (11, 50)):
            tgt[c] -= tgt[c, j]
            tgt[c, j] = -0.0
        src[12] -= src[12, 30]  # a source node of 0.0
        assert src[12, 30] == 0.0 and not np.signbit(src[12, 30])
        cdf = CdfMap(mode, 27, src_quantiles=src, tgt_quantiles=tgt)
        assert len(cdf._nodes[2][0]) == 101 - 40 - 19 and len(cdf._nodes[6][0]) == 1
        assert len(cdf._nodes[11][0]) == 101
        nodes = [values for values, _ in cdf._nodes]
    write_cdf_map(tmp_path / "cdf_map.json", cdf)
    loaded = read_cdf_map(tmp_path / "cdf_map.json")
    raw = rng.normal(3.0, 2.0, size=(rows, 27))
    for r in range(min(rows, 8)):  # each channel meets each value in 8 rows
        for c, v in enumerate(nodes):
            raw[r, c] = (np.inf, -np.inf, np.nan, 1e300, -1e300, v[len(v) // 2], v[0], v[-1])[(c + r) % 8]
    if mode == "empirical_quantile":
        raw[0, 6] = np.nan  # a one-node channel maps NaN to its node's value
        raw[0, 9], raw[0, 10], raw[0, 11] = src[9, 0] - 1.0, src[10, -1] + 1.0, src[11, 50]
        raw[0, 12] = -0.0  # the search finds the node of 0.0, as np.interp does
        # above every node of channel 13, and so above channel 14's first
        # node too: the search stays in channel 13's rows
        raw[0, 13] = src[13, -1] + 1.0
        assert src[14, 0] < raw[0, 13]
        want = np.array([[-0.0, -0.0, -0.0]]).tobytes()
        assert prior_apply_cdf_map(cdf, raw)[:1, 9:12].tobytes() == want
    kept = raw.copy()
    want = prior_apply_cdf_map(cdf, raw).tobytes()
    for m in (cdf, cdf, loaded):
        assert apply_cdf_map(m, raw).tobytes() == want
        assert raw.tobytes() == kept.tobytes()
    assert prior_apply_cdf_map(loaded, raw).tobytes() == want


def test_a_map_too_large_for_the_one_pass_keeps_the_bits_within_its_memory_bound():
    # the channel-keyed lookups grow as channels times quantiles, so even a
    # 27 x 5001 map holds them, and one row and 16 take the one pass with
    # np.interp's bits. Building a map peaks under 10 times its quantile
    # arrays at 101 quantiles and at 5001 alike: it keeps them about 7 times
    # (the frozen copies, the tie-collapsed nodes, two lookups' keys and
    # tables) beside the last table's pieces
    rng = np.random.default_rng(5001)
    src, tgt = (np.sort(rng.normal(size=(27, 5001)), axis=1) for _ in range(2))
    # a first build imports what any build needs
    CdfMap("empirical_quantile", 27, src_quantiles=src[:, :2], tgt_quantiles=tgt[:, :2])
    for step in (50, 1):
        s, t = src[:, ::step], tgt[:, ::step]
        tracemalloc.start()
        try:
            cdf = CdfMap("empirical_quantile", 27, src_quantiles=s, tgt_quantiles=t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cdf.n_quantiles == (101 if step == 50 else 5001) and cdf._lookups
        assert peak < 10 * (s.nbytes + t.nbytes)
    raw = rng.normal(size=(ONE_PASS_MAX_ROWS, 27))
    raw[0, :4] = src[:4, 2500]  # exact nodes
    for rows in (1, ONE_PASS_MAX_ROWS):
        assert apply_cdf_map(cdf, raw[:rows]).tobytes() == prior_apply_cdf_map(
            cdf, raw[:rows]).tobytes()


def test_fit_never_reads_val_or_test_rows():
    base = _samples(n=100, out_dim=2, seed=3)
    import test_trainer

    # corrupt every val/test row; the fitted map must not change
    inputs = test_trainer._all_windows(base)
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
        test_trainer._all_windows(samples),
        np.array(samples.targets),
        np.full(len(samples.starts), 2, dtype=np.uint8),
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


@pytest.mark.parametrize("mode", ["gaussian_affine", "empirical_quantile"])
def test_a_map_holds_read_only_arrays(tmp_path, mode):
    # the per-map constants would go stale under an in-place write
    cdf = fit_cdf_map(_FixedModel(3), _samples(n=90, out_dim=3, seed=4), mode=mode, n_quantiles=11)
    write_cdf_map(tmp_path / "cdf_map.json", cdf)
    for m in (cdf, read_cdf_map(tmp_path / "cdf_map.json")):
        stored = [m._gain, m._offset, m._positions, m._channel,
                  *(a for pair in m._nodes for a in pair),
                  *(a for lookup in m._lookups for a in lookup)]
        stored += [getattr(m, name) for name in ("mu_src", "sigma_src", "mu_tgt", "sigma_tgt",
                                                 "src_quantiles", "tgt_quantiles")]
        stored = [a for a in stored if a is not None]
        # an empirical map: the positions, the channel index, each channel's
        # nodes and their probabilities, two lookups' keys and tables, and
        # the quantiles
        assert len(stored) == (6 if mode == "gaussian_affine" else 2 + 2 * 3 + 2 * 2 + 2)
        for a in stored:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


def _map_dict(mode, **arrays):
    if mode == "gaussian_affine":
        d = {"mu_src": [0.0, 1.0], "sigma_src": [1.0, 0.0], "mu_tgt": [2.0, 3.0], "sigma_tgt": [1.0, 2.0]}
    else:
        d = {"src_quantiles": [[0.0, 1.0, 1.0, 3.0], [5.0, 5.0, 5.0, 5.0]],
             "tgt_quantiles": [[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 2.0]]}
    d.update(arrays)
    return {"format_version": 1, "mode": mode, "n_channels": 2, **d}


@pytest.mark.parametrize("mode, arrays, message", [
    ("empirical_quantile", {"src_quantiles": [[0.0, 2.0, 1.0, 3.0], [5.0, 5.0, 5.0, 5.0]]}, "decreases"),
    ("empirical_quantile", {"tgt_quantiles": [[4.0, 3.0, 2.0, 1.0], [0.0, 0.0, 1.0, 2.0]]}, "decreases"),
    ("empirical_quantile", {"src_quantiles": [[0.0, float("nan"), 1.0, 3.0], [5.0] * 4]}, "non-finite"),
    ("empirical_quantile", {"tgt_quantiles": [[1.0, 2.0, 3.0, float("inf")], [0.0] * 4]}, "non-finite"),
    ("empirical_quantile", {"src_quantiles": [[0.0], [5.0]], "tgt_quantiles": [[1.0], [0.0]]}, "at least 2"),
    ("empirical_quantile", {"tgt_quantiles": [[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]]}, "shape"),
    ("gaussian_affine", {"sigma_src": [-1.0, 0.0]}, "negative"),
    ("gaussian_affine", {"sigma_tgt": [1.0, -2.0]}, "negative"),
    ("gaussian_affine", {"mu_tgt": [float("nan"), 3.0]}, "non-finite"),
    ("gaussian_affine", {"mu_src": [0.0]}, "shape"),
    ("rank_histogram", {}, "unknown calibration mode"),
])
def test_maps_no_fit_can_produce_are_rejected(tmp_path, mode, arrays, message):
    # each of these used to load and then serve a wrong or decreasing map
    d = _map_dict(mode, **arrays)
    with pytest.raises(ValueError, match=message):
        cdf_map_from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    with pytest.raises(DataError, match=r"bad\.json: malformed calibration map \("):
        read_cdf_map(path)

