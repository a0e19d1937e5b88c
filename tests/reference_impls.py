"""Independent naive reference implementations used by the test suite.

Everything here is written as plain loops over scalars, deliberately
avoiding the vectorized formulations in the package, so that agreement
between the two is meaningful evidence of correctness. The exceptions are at
the end: the vectorized formulas the package computed before a rewrite that
must keep every bit (the tests compare the two with ``tobytes()``), the
closed-form parameter count of a model config, the row-by-row CSV reader the
column reader must match byte for byte and message for message, and the OLS
oracle, a linear-readout ceiling the synthetic-scene tests measure learned
models and scene difficulty against.
"""

import math
import warnings
from functools import partial

import numpy as np

from gwindcast import fileio
from gwindcast.core import HEIGHT_M, LEVEL_KINDS, LevelSpec, WindCube, ZtdPanel, format_iso8601
from gwindcast.errors import DataError, NegativeSpeed, NumericError
from gwindcast.metrics import evaluate_series
from gwindcast.preprocess import SplitConfig, build_samples, decompose_wind


# ------------------------------------------------------------- metrics ----


def loop_rmse(truth, pred):
    t = np.asarray(truth, dtype=float).ravel()
    p = np.asarray(pred, dtype=float).ravel()
    acc = 0.0
    for a, b in zip(t, p):
        acc += (b - a) ** 2
    return math.sqrt(acc / len(t))


def loop_mae(truth, pred):
    t = np.asarray(truth, dtype=float).ravel()
    p = np.asarray(pred, dtype=float).ravel()
    acc = 0.0
    for a, b in zip(t, p):
        acc += abs(b - a)
    return acc / len(t)


def loop_pearson(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sxx = syy = 0.0
    for a, b in zip(x, y):
        sxy += (a - mx) * (b - my)
        sxx += (a - mx) ** 2
        syy += (b - my) ** 2
    return sxy / math.sqrt(sxx * syy)


def loop_rmspe_cells(truth, pred):
    """truth/pred shaped (time, cells): per-cell temporal RMSE over truth
    range, averaged over cells with nonzero range; returns (value, n_valid)."""
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    vals = []
    for c in range(truth.shape[1]):
        t = truth[:, c]
        p = pred[:, c]
        rng = max(t) - min(t)
        if rng == 0.0:
            continue
        vals.append(loop_rmse(t, p) / rng)
    if not vals:
        return float("nan"), 0
    return sum(vals) / len(vals), len(vals)


def loop_pearson_cells(truth, pred):
    truth = np.asarray(truth, dtype=float)
    pred = np.asarray(pred, dtype=float)
    vals = []
    for c in range(truth.shape[1]):
        t = truth[:, c]
        p = pred[:, c]
        if max(t) == min(t) or max(p) == min(p):
            continue
        vals.append(loop_pearson(t, p))
    if not vals:
        return float("nan"), 0
    return sum(vals) / len(vals), len(vals)


# ---------------------------------------------------------------- Adam ----


def scalar_adam_trace(theta0, grads, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar parameter updated by hand; returns the list of
    (m_hat, v_hat, theta) after each step."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append((m_hat, v_hat, theta))
    return out


# ----------------------------------------------------------- attention ----


def loop_softmax(row):
    m = max(row)
    e = [math.exp(x - m) for x in row]
    s = sum(e)
    return [x / s for x in e]


def loop_attention(x, wq, wk, wv, wo, bo, heads):
    """Per-head scaled dot-product attention with explicit Python loops.

    x: (batch, tokens, width); weight matrices (width, width); bo (width,).
    """
    x = np.asarray(x, dtype=float)
    b, n, width = x.shape
    hd = width // heads
    out = np.zeros((b, n, width))
    for bi in range(b):
        q = x[bi] @ wq
        k = x[bi] @ wk
        v = x[bi] @ wv
        ctx = np.zeros((n, width))
        for h in range(heads):
            sl = slice(h * hd, (h + 1) * hd)
            qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
            for i in range(n):
                scores = [float(qh[i] @ kh[j]) / math.sqrt(hd) for j in range(n)]
                weights = loop_softmax(scores)
                for j in range(n):
                    ctx[i, sl] += weights[j] * vh[j]
        out[bi] = ctx @ wo + bo
    return out


def loop_positional(n, width):
    pe = np.zeros((n, width))
    for pos in range(n):
        for i in range(0, width, 2):
            angle = pos / (10000.0 ** (i / width))
            pe[pos, i] = math.sin(angle)
            if i + 1 < width:
                pe[pos, i + 1] = math.cos(angle)
    return pe


def loop_batchnorm_train(x, gamma, beta, eps=1e-5):
    """Feature-wise batch normalization statistics computed per column."""
    x = np.asarray(x, dtype=float)
    m, d = x.shape
    out = np.zeros_like(x)
    means = np.zeros(d)
    variances = np.zeros(d)
    for j in range(d):
        col = x[:, j]
        mu = sum(col) / m
        var = sum((c - mu) ** 2 for c in col) / m
        means[j] = mu
        variances[j] = var
        for i in range(m):
            out[i, j] = gamma[j] * (x[i, j] - mu) / math.sqrt(var + eps) + beta[j]
    return out, means, variances


# ------------------------------------------------- finite differences ----


def fd_gradient(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f(x)
        flat[i] = old - eps
        fm = f(x)
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


# ----------------------------------------------------------- formulas ----


def loop_pressure(h, p0=1013.25, scale=8000.0):
    return p0 * math.exp(-h / scale)


def loop_decompose(speed, direction_deg):
    rad = math.radians(direction_deg)
    return -speed * math.sin(rad), -speed * math.cos(rad)


def loop_build_samples(ztd, wind, window_steps, lead_steps, split):
    """(inputs, targets, target times, split labels) of build_samples, one
    window at a time: a window ending at row e is kept when its rows and the
    wind row ``lead_steps`` after e are observed and finite throughout."""
    n_t, n_s = ztd.values.shape
    step = ztd.axis.step
    inputs, targets, times = [], [], []
    for end in range(window_steps - 1, n_t):
        rows = range(end - window_steps + 1, end + 1)
        if not all(ztd.mask[r, s] and math.isfinite(ztd.values[r, s])
                   for r in rows for s in range(n_s)):
            continue
        when = ztd.axis.start + (end + lead_steps) * step
        j, rem = divmod(when - wind.axis.start, step)
        if rem or not 0 <= j < wind.axis.count:
            continue
        cells = list(zip(wind.values[j].ravel(), wind.mask[j].ravel()))
        if not all(m and math.isfinite(v) for v, m in cells):
            continue
        inputs.append([[ztd.values[r, s] for s in range(n_s)] for r in rows])
        targets.append([v for v, _ in cells])
        times.append(when)
    # largest-remainder split sizes, then the seeded permutation dealt in order
    n = len(times)
    quotas = [r * n for r in split.ratios]
    sizes = [math.floor(q) for q in quotas]
    by_fraction = sorted(range(3), key=lambda c: -(quotas[c] - sizes[c]))
    for j in range(n - sum(sizes)):
        sizes[by_fraction[j % 3]] += 1
    perm = np.random.default_rng(split.seed).permutation(n)
    labels = [0] * n
    pos = 0
    for code, size in enumerate(sizes):
        for i in perm[pos : pos + size]:
            labels[i] = code
        pos += size
    return (np.array(inputs, dtype=np.float64), np.array(targets, dtype=np.float64),
            np.array(times, dtype=np.int64), np.array(labels, dtype=np.uint8))


def loop_haversine(lat1, lon1, lat2, lon2, radius=6371.0):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * radius * math.asin(math.sqrt(a))


def loop_quantiles(sample, n_q):
    """Linear-interpolation quantiles at n_q evenly spaced probabilities."""
    s = sorted(float(x) for x in sample)
    n = len(s)
    out = []
    for i in range(n_q):
        q = i / (n_q - 1)
        pos = q * (n - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, n - 1)
        frac = pos - lo
        out.append(s[lo] * (1 - frac) + s[hi] * frac)
    return out


# ------------------------------------------- bit-identity references ----


def prior_batchnorm_train(x2, gamma, beta, g, eps=1e-5):
    """Training-mode batch norm over the rows of x2 as np.mean and np.var
    compute it, with the backward for upstream gradient g taking each sum
    where it is used; returns mean, variance, output and the (input, gamma,
    beta) gradients."""
    m = x2.shape[0]
    mu, var = x2.mean(axis=0), x2.var(axis=0)
    inv = 1.0 / np.sqrt(var + eps)
    x_hat = (x2 - mu) * inv
    y = x_hat * gamma + beta
    gx = (gamma * inv / m) * (m * g - g.sum(axis=0) - x_hat * (g * x_hat).sum(axis=0))
    return mu, var, y, (gx, (g * x_hat).sum(axis=0), g.sum(axis=0))


def _prior_heads(x, w, heads):
    b, n, d = x.shape
    y = np.matmul(x.reshape(-1, d), w).reshape(b, n, heads, d // heads)
    return np.ascontiguousarray(np.swapaxes(y, 1, 2))


def _prior_query_key(x, wq, wk, heads):
    k = _prior_heads(x, wk, heads)
    return _prior_heads(x, wq, heads), np.ascontiguousarray(np.swapaxes(k, -1, -2))


def prior_attention_forward(x, wq, wk, wv, wo, bo, heads):
    """Multi-head attention forward with every step in a new array: the
    value heads, then the query and key heads, the softmax with the row max
    as s.max and the context copied out of the head-major product; returns
    the output and the (value heads, weights, context) a backward reads."""
    b, n, d = x.shape
    scale = 1.0 / np.sqrt(d / heads)
    v = _prior_heads(x, wv, heads)
    q, kt = _prior_query_key(x, wq, wk, heads)
    s = np.matmul(q, kt) * scale
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    ctx = np.ascontiguousarray(np.swapaxes(np.matmul(a, v), 1, 2)).reshape(-1, d)
    return np.matmul(ctx, wo).reshape(x.shape) + bo, (v, a, ctx)


def prior_attention(x, g, wq, wk, wv, wo, bo, heads):
    """Multi-head attention forward and backward with the query and key
    recomputed from x in the backward; returns the output and the gradients
    (x through q, k and v; wq, wk, wv, wo, bo) for upstream gradient g."""
    b, n, d = x.shape
    scale = 1.0 / np.sqrt(d / heads)
    y, (v, a, ctx) = prior_attention_forward(x, wq, wk, wv, wo, bo, heads)
    q, kt = _prior_query_key(x, wq, wk, heads)
    g2 = g.reshape(-1, d)
    gc = np.swapaxes(np.matmul(g2, wo.T).reshape(b, n, heads, -1), 1, 2)
    ga = np.matmul(gc, np.swapaxes(v, -1, -2))
    gv = np.matmul(np.swapaxes(a, -1, -2), gc)
    gs = a * (ga - (ga * a).sum(axis=-1, keepdims=True)) * scale
    gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
    gk = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), gs), -1, -2)
    g_qkv = [np.swapaxes(gh, 1, 2).reshape(-1, d) for gh in (gq, gk, gv)]
    x2 = x.reshape(-1, d)
    gx = [np.matmul(gh, w.T).reshape(x.shape) for gh, w in zip(g_qkv, (wq, wk, wv))]
    gw = [np.matmul(x2.T, gh) for gh in g_qkv]
    return y, (*gx, *gw, np.matmul(ctx.T, g2), g.sum(axis=(0, 1)))


def prior_dense(x, w, bias, activation):
    """Dense forward as a new array per step: product plus bias, then tanh."""
    y = np.matmul(x.reshape(-1, w.shape[0]), w).reshape(x.shape[:-1] + bias.shape) + bias
    return np.tanh(y) if activation == "tanh" else y


def prior_batchnorm_inference(x, mean, var, gamma, beta, eps=1e-5):
    """Inference batch norm by running statistics, each step a new array."""
    x2 = x.reshape(-1, x.shape[-1])
    x_hat = (x2 - mean) * (1.0 / np.sqrt(var + eps))
    return (x_hat * gamma + beta).reshape(x.shape)


def prior_predict(model, x, chunk=2048):
    """WindModel.predict composed from the prior layer formulas, residual
    sums as new arrays and the chunks concatenated; a transformer or an
    mlp."""
    cfg = model.config
    outs = []
    for i in range(0, x.shape[0], chunk):
        h = x[i : i + chunk]
        b, d = h.shape[0], cfg.token_width
        if cfg.arch == "mlp":
            h = h.reshape(b, -1)
            for layer in (model.hidden1, model.hidden2):
                h = prior_dense(h, layer.w.value, layer.b.value, layer.activation)
            outs.append(prior_dense(h, model.head.w.value, model.head.b.value, None))
            continue
        if d != cfg.n_stations:
            h = np.concatenate([h, np.zeros((b, cfg.window_steps, d - cfg.n_stations))], axis=2)
        h = h + model._pos
        for mha, bn1, ff, bn2 in model.blocks:
            att, _ = prior_attention_forward(h, *(p.value for p in mha.params()), mha.heads)
            h = prior_batchnorm_inference(h + att, bn1.running_mean, bn1.running_var,
                                          bn1.gamma.value, bn1.beta.value)
            h = prior_batchnorm_inference(
                h + prior_dense(h, ff.w.value, ff.b.value, ff.activation),
                bn2.running_mean, bn2.running_var, bn2.gamma.value, bn2.beta.value)
        outs.append(prior_dense(h.reshape(b, -1), model.head.w.value, model.head.b.value, None))
    return np.concatenate(outs, axis=0)


def prior_normalize(x, mean, std):
    return (x - mean) / np.where(std > 0, std, 1.0)


def prior_denormalize(y, mean, std):
    return y * np.where(std > 0, std, 1.0) + mean


def prior_apply_cdf_map(cdf, raw):
    """apply_cdf_map's two modes with each step a new array."""
    if cdf.mode == "gaussian_affine":
        ok = cdf.sigma_src > 0
        gain = np.where(ok, cdf.sigma_tgt / np.where(ok, cdf.sigma_src, 1.0), 1.0)
        return raw * gain + np.where(ok, cdf.mu_tgt - cdf.mu_src * gain, 0.0)
    out = np.empty_like(raw)
    positions = np.linspace(0.0, 1.0, cdf.n_quantiles)
    for c in range(cdf.n_channels):
        src = cdf.src_quantiles[c]
        values = np.unique(src)
        top = np.searchsorted(src, values, side="right") - 1
        u = np.interp(raw[:, c], values, positions[top])
        out[:, c] = np.interp(u, positions, cdf.tgt_quantiles[c])
    return out


def per_param_adam(values, grad_steps, lr, beta1, beta2, eps):
    """Adam updating each named array on its own: values is a dict of
    arrays, grad_steps a list of gradient dicts of the same names, one per
    step; returns the values and first and second moments after the last."""
    values = {name: v.copy() for name, v in values.items()}
    m = {name: np.zeros_like(v) for name, v in values.items()}
    v = {name: np.zeros_like(val) for name, val in values.items()}
    for t, grads in enumerate(grad_steps, start=1):
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        for name, g in grads.items():
            mn, vn = m[name], v[name]
            mn *= beta1
            mn += (1.0 - beta1) * g
            vn *= beta2
            vn += (1.0 - beta2) * g * g
            values[name] -= lr * (mn / bc1) / (np.sqrt(vn / bc2) + eps)
    return values, m, v


# ------------------------------------------------ parameter count ----


def expected_param_count(config):
    """Closed-form learnable-parameter count of a ModelConfig.

    transformer: per block 4d^2 + d (attention projections + output bias)
    plus 2d + 2d (two batch norms) plus d^2 + d (feed-forward dense), i.e.
    5d^2 + 6d, with d the padded token width; readout adds w*d*o + o.
    mlp: two f->f tanh layers (f = window * stations) and a linear readout,
    2(f^2 + f) + f*o + o.
    """
    if config.arch == "transformer":
        d = config.token_width
        per_block = 5 * d * d + 6 * d
        head = config.window_steps * d * config.output_dim + config.output_dim
        return config.n_encoder_blocks * per_block + head
    f = config.window_steps * config.n_stations
    return 2 * (f * f + f) + f * config.output_dim + config.output_dim


# ------------------------------------------------ row-by-row CSV reader ----
# fileio's delay and wind readers as they were before they read by columns:
# each non-blank line is unpacked and converted field by field into a tuple.


def prior_read_csv_rows(path, what, header, parse, level_kind=None):
    """(level kind, [parse(fields) of each non-blank row]), malformed rows a
    DataError naming the file and line."""
    rows = []
    kind = level_kind
    with open(path, "r", encoding="utf-8") as f:
        lineno = 1
        try:
            line = f.readline().strip()
            if level_kind is not None and line.startswith("#"):
                key, _, kind = (s.strip() for s in line.lstrip("# ").partition("="))
                if key != "level_kind" or kind not in LEVEL_KINDS:
                    raise DataError(f"{path}: unexpected {what} metadata line: {line!r}")
                line, lineno = f.readline().strip(), 2
            if line != header:
                raise DataError(f"{path}: unexpected {what} file header: {line!r}")
            for lineno, line in enumerate(f, lineno + 1):
                line = line.strip()
                if line:
                    rows.append(parse(line.split(",")))
        except UnicodeDecodeError as e:
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw.read().splitlines(), 1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as in_line:
                        e = in_line
                        break
            raise DataError(f"{path}, line {lineno}: malformed row ({e})") from e
        except ValueError as e:
            raise DataError(f"{path}, line {lineno}: malformed row ({e})") from e
    if not rows:
        raise DataError(f"{path}: {what} file contains no data rows")
    return kind, rows


_PRIOR_ZTD_ROW = np.dtype([("t", np.int64), ("sid", np.int64), ("ztd", np.float64)])
_PRIOR_WIND_ROW = np.dtype([("t", np.int64), ("sid", np.int64), ("level", np.float64),
                            ("speed", np.float64), ("dir", np.float64), ("w", np.float64)])


def _prior_ztd_row(when, sids, fields):
    ts, sid, val = fields
    return when[ts], sids.setdefault(sid, len(sids)), float(val)


def _prior_wind_row(when, sids, fields):
    ts, sid, lev, spd, drc, w = fields
    return when[ts], sids.setdefault(sid, len(sids)), float(lev), float(spd), float(drc), float(w)


def _prior_grid_rows(path, what, stations, when, cols, ids, upto=None):
    axis = fileio._row_axis(path, when.values())
    col = {sid: i for i, sid in enumerate(stations.ids)}
    s = np.array([col.get(sid, -1) for sid in ids], np.int64)[cols["sid"]]
    unknown = np.flatnonzero(s[:upto] < 0)
    if unknown.size:
        raise DataError(f"{path}: unknown station id in {what} file: "
                        f"{ids[cols['sid'][unknown[0]]]!r}")
    k = cols["t"] - axis.start
    k //= axis.step
    return axis, k, s


def prior_read_ztd_csv(path, stations):
    when, sids = fileio.Timestamps(), {}
    _, rows = prior_read_csv_rows(path, "delay", "timestamp,station_id,ztd_m",
                                  partial(_prior_ztd_row, when, sids))
    cols = np.array(rows, _PRIOR_ZTD_ROW)
    ids = list(sids)
    axis, k, s = _prior_grid_rows(path, "delay", stations, when, cols, ids)
    values = np.full((axis.count, len(stations)), np.nan)
    mask = np.zeros_like(values, dtype=bool)
    values[k, s] = cols["ztd"]
    mask[k, s] = True
    panel = fileio._build(path, ZtdPanel, axis, stations, values, mask)
    fileio.check_no_repeats(path, "delay", len(k), int(mask.sum()),
                            zip(map(int, cols["t"]), map(ids.__getitem__, cols["sid"])))
    return panel


def prior_read_wind_csv(path, stations):
    when, sids = fileio.Timestamps(), {}
    kind, rows = prior_read_csv_rows(
        path, "wind", "timestamp,station_id,level,wind_speed_ms,wind_dir_deg,w_ms",
        partial(_prior_wind_row, when, sids), level_kind=HEIGHT_M,
    )
    cols = np.array(rows, _PRIOR_WIND_ROW)
    ids = list(sids)
    level, speed = cols["level"], cols["speed"]
    negative = np.flatnonzero(speed < 0)
    axis, k, s = _prior_grid_rows(path, "wind", stations, when, cols, ids,
                                  upto=negative[0] if negative.size else None)
    if negative.size:
        ts, sid, lev, spd = (cols[name][negative[0]].item() for name in _PRIOR_WIND_ROW.names[:4])
        raise NegativeSpeed(f"{path}: negative wind speed {spd!r} at "
                            f"{format_iso8601(ts)}, station {ids[sid]}, level {lev!r}")
    unique, first, l = np.unique(level, return_index=True, return_inverse=True)
    descending = kind != HEIGHT_M
    levels = fileio._build(path, LevelSpec, kind, level[first[::-1] if descending else first])
    if descending:
        l = len(unique) - 1 - l
    values = np.full((axis.count, len(levels), len(stations), 3), np.nan)
    mask = np.zeros(values.shape, dtype=bool)
    u, v = decompose_wind(speed, cols["dir"])
    values[k, l, s] = np.stack((u, v, cols["w"]), axis=-1)
    mask[k, l, s] = True
    cube = fileio._build(path, WindCube, axis, levels, stations, values, mask)
    fileio.check_no_repeats(path, "wind", len(k), int(mask[..., 0].sum()),
                            zip(map(int, cols["t"]), map(ids.__getitem__, cols["sid"]),
                                map(float, level)))
    return cube


# ---------------------------------------------------------- OLS oracle ----

_RIDGE = 1e-8


class SingularDesign(NumericError):
    """Normal equations rank-deficient beyond what ridge regularization fixes."""


def oracle_linear_fit(
    ztd,
    wind,
    window_steps,
    lead_steps,
    split=SplitConfig(ratios=(0.7, 0.15, 0.15), seed=0),
):
    """Ordinary least squares from flattened delay windows to wind targets.

    Fits intercept-augmented OLS on the train split and reports test-split
    metrics; a diagnostic ceiling for any learned model. Rank-deficient
    normal equations are ridge-regularized (1e-8) with a warning.
    """
    samples = build_samples(ztd, wind, window_steps, lead_steps, split)
    tr = samples.indices("train")
    te = samples.time_ordered("test")
    n = len(samples.starts)
    x = samples.windows(np.arange(n)).reshape(n, -1)
    x = np.concatenate([x, np.ones((n, 1))], axis=1)
    gram = x[tr].T @ x[tr]
    rhs = x[tr].T @ samples.targets[tr]
    if np.linalg.matrix_rank(gram) < gram.shape[0]:
        warnings.warn("normal equations rank-deficient; applying ridge 1e-8",
                      category=RuntimeWarning, stacklevel=2)
        gram = gram + _RIDGE * np.eye(gram.shape[0])
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign(f"normal equations unsolvable even with ridge: {exc}") from exc
    pred = samples.series(te, x[te] @ coef)
    truth = samples.series(te, samples.targets[te])
    return evaluate_series(pred, truth, lead_steps * ztd.axis.step / 60.0)
