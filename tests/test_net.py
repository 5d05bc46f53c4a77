import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rmgflow import flow as fl
from rmgflow import manifold as mf
from rmgflow import net as nn
from rmgflow.errors import DimensionMismatch, InvalidConfig, NonFiniteLoss

SPEC = nn.NetworkSpec(input_dim=7, hidden_dim=16, num_layers=2,
                      time_embed_dim=8, cond_embed_dim=4, num_condition_classes=3)


def _toy_setup(batch=8, seed=0):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.zeros(7)
    mean[3] = 1.0
    prior = mf.WrappedGaussianSpec(m, mean, 0.5)
    rng = np.random.default_rng(seed)
    x1 = mf.sample_wrapped_gaussian(m, prior, rng, size=batch)
    batch_ = fl.make_flow_batch(m, x1, prior, rng,
                                conditions=rng.integers(0, 3, size=batch))
    return m, prior, batch_, rng


# ---------------------------------------------------------------------------
# parameters and forward pass
# ---------------------------------------------------------------------------


def test_param_views_alias_flat():
    p = nn.VectorFieldParams(SPEC)
    p.views["b0"][:] = 7.0
    assert np.count_nonzero(p.flat == 7.0) == SPEC.hidden_dim
    assert all(np.shares_memory(view, p.flat) for view in p.views.values())
    assert sum(view.size for view in p.views.values()) == p.count


def test_param_count_formula():
    s = SPEC
    expected = (
        s.num_condition_classes * s.cond_embed_dim
        + s.in_features * s.hidden_dim + s.hidden_dim
        + (s.num_layers - 1) * (s.hidden_dim * s.hidden_dim + s.hidden_dim)
        + s.hidden_dim * s.input_dim + s.input_dim
    )
    assert nn.VectorFieldParams(SPEC).count == expected
    # W1 alone would be 2**62 entries: refused before any allocation
    huge = nn.NetworkSpec(input_dim=7, hidden_dim=2**31, num_layers=2)
    with pytest.raises(InvalidConfig, match="parameter count .* more than any array can hold"):
        nn.VectorFieldParams(huge)


def test_zero_init_field_is_zero(rng):
    p = nn.VectorFieldParams.init_random(SPEC, rng)
    x = rng.standard_normal((5, 7))
    out = nn.forward(p, x, np.full(5, 0.3), np.zeros(5, dtype=int))
    assert np.array_equal(out, np.zeros((5, 7)))


def test_forward_shapes_and_broadcast(rng):
    p = nn.VectorFieldParams.init_random(SPEC, rng)
    p.views["W_out"][:] = rng.standard_normal(p.views["W_out"].shape)
    single = nn.forward(p, rng.standard_normal(7), 0.5, 1)
    assert single.shape == (1, 7)
    batched = nn.forward(p, rng.standard_normal((4, 7)), 0.5, np.full(4, 1))
    assert batched.shape == (4, 7)


def test_forward_depends_on_time_and_condition(rng):
    p = nn.VectorFieldParams.init_random(SPEC, rng)
    p.views["W_out"][:] = rng.standard_normal(p.views["W_out"].shape)
    x = rng.standard_normal(7)
    assert not np.allclose(nn.forward(p, x, 0.1, 0), nn.forward(p, x, 0.9, 0))
    assert not np.allclose(nn.forward(p, x, 0.1, 0), nn.forward(p, x, 0.1, 2))


def test_unknown_condition_class(rng):
    p = nn.VectorFieldParams.init_random(SPEC, rng)
    with pytest.raises(InvalidConfig, match=r"^condition indices must lie in \[0, 3\)$"):
        nn.forward(p, rng.standard_normal(7), 0.5, 5)


def test_time_features_bounded():
    f = nn.time_features(np.linspace(0, 1, 11), 32)
    assert f.shape == (11, 32)
    assert np.all(np.abs(f) <= 1.0)


@pytest.mark.parametrize("N", [1, 7, 100, 1000])
def test_time_features_scalar_equals_every_row(N):
    for dim in (1, 7, 8, 16, 32, 33):
        for k in range(N + 1):
            rows = nn.time_features(np.full(5, k / N), dim)
            assert rows.tobytes() == np.tile(nn.time_features(k / N, dim), (5, 1)).tobytes()


def _forward_reference(params, x, t, cond):
    """The forward pass as one formula, with the time features of every row."""
    spec = params.spec
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    B = x2.shape[0]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape == (1,) and B > 1:
        t = np.full(B, t[0])
    idx = nn._cond_indices(spec, cond, B)
    feats = np.concatenate([x2, nn.time_features(t, spec.time_embed_dim),
                            params.views["cond_emb"][idx]], axis=1)
    h, pre, acts = feats, [], [feats]
    for i in range(spec.num_layers):
        z = h @ params.views[f"W{i}"] + params.views[f"b{i}"]
        pre.append(z)
        with np.errstate(over="ignore"):
            h = z * (1.0 / (1.0 + np.exp(-z)))
        acts.append(h)
    return h @ params.views["W_out"] + params.views["b_out"], (idx, pre, acts)


def _sigmoid_reference(z):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _silu_grad_reference(z):
    s = _sigmoid_reference(z)
    return s * (1.0 + z * (1.0 - s))


def _assert_forward_matches(params, x, t, cond):
    out, (idx, dsilu, acts) = nn._forward_cached(params, x, t, cond)
    ref, (ref_idx, ref_pre, ref_acts) = _forward_reference(params, x, t, cond)
    assert out.tobytes() == ref.tobytes()
    assert np.array_equal(idx, ref_idx)
    assert [g.tobytes() for g in dsilu] == [_silu_grad_reference(z).tobytes() for z in ref_pre]
    assert [a.tobytes() for a in acts] == [a.tobytes() for a in ref_acts]
    lean, (lean_idx, lean_dsilu, lean_acts) = nn._forward_cached(params, x, t, cond, keep=False)
    assert lean.tobytes() == out.tobytes()
    assert np.array_equal(lean_idx, idx) and lean_dsilu == lean_acts == []
    return ref_pre


@pytest.mark.parametrize("B", [1, 5, 64])
def test_forward_cached_matches_formula(rng, B):
    p = nn.VectorFieldParams.init_random(SPEC, rng)
    p.flat[:] += 0.3 * rng.standard_normal(p.count)
    x = rng.standard_normal((B, 7))
    cond = rng.integers(0, 3, size=B)
    for t in (0.37, np.array([0.37]), rng.random(B)):
        for c in (cond, None, 2) if B == 1 else (cond, None):
            _assert_forward_matches(p, x, t, c)
    _assert_forward_matches(p, x[0], 0.37, 1)  # one point, 1-D


def test_forward_cached_large_preactivations_warn_nothing(rng):
    """SiLU saturates at |z| ~ 1e3: exp(-z) overflows to inf and is ignored,
    as before; tier-1 turns any RuntimeWarning into an error."""
    p = nn.VectorFieldParams.init_random(SPEC, rng)
    p.flat[:] = 40.0 * rng.standard_normal(p.count)
    x = 10.0 * rng.standard_normal((64, 7))
    pre = _assert_forward_matches(p, x, rng.random(64), rng.integers(0, 3, size=64))
    z = np.concatenate([a.ravel() for a in pre])
    assert z.min() <= -1e3 and z.max() >= 1e3


def _loss_and_grad_reference(params, batch, m):
    """The former loss and backward: whole-array tangent projections, and a
    backward that recomputes each layer's sigmoid."""
    spec = params.spec
    pred, (idx, pre, acts) = _forward_reference(params, batch.x_t, batch.t, batch.condition)
    B = pred.shape[0]
    r = batch.target_v - mf.project_tangent(m, batch.x_t, pred)
    loss = float(np.mean(np.sum(r * r, axis=-1)))
    d_out = -(2.0 / B) * mf.project_tangent(m, batch.x_t, r)
    grads = nn.VectorFieldParams(spec)
    grads.views["W_out"][:] = acts[-1].T @ d_out
    grads.views["b_out"][:] = d_out.sum(axis=0)
    d_h = d_out @ params.views["W_out"].T
    for i in range(spec.num_layers - 1, -1, -1):
        d_z = d_h * _silu_grad_reference(pre[i])
        grads.views[f"W{i}"][:] = acts[i].T @ d_z
        grads.views[f"b{i}"][:] = d_z.sum(axis=0)
        d_h = d_z @ params.views[f"W{i}"].T
    np.add.at(grads.views["cond_emb"], idx, d_h[:, spec.input_dim + spec.time_embed_dim:])
    return loss, grads.flat


LOSS_MANIFOLDS = {
    "toy": [mf.euclidean(3), mf.sphere(3)],
    "pose": [mf.euclidean(3), mf.sphere(3, multiplicity=22)],
    "six_factor": [mf.euclidean(3), mf.sphere(3, multiplicity=22), mf.preshape(22, 3),
                   mf.euclidean(3), mf.euclidean(4, multiplicity=22), mf.euclidean(66)],
}


def _loss_setup(manifold, B):
    m = mf.ManifoldSpec(LOSS_MANIFOLDS[manifold])
    rng = np.random.default_rng(B)
    spec = nn.NetworkSpec(input_dim=m.total_ambient_dim, hidden_dim=32, num_layers=3,
                          num_condition_classes=3)
    params = nn.VectorFieldParams.init_random(spec, rng)
    params.flat[:] += 0.3 * rng.standard_normal(params.count)
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, rng), 0.5)
    x1 = mf.sample_wrapped_gaussian(m, prior, rng, size=B)
    batch = fl.make_flow_batch(m, x1, prior, rng, conditions=rng.integers(0, 3, size=B))
    return m, params, batch


@pytest.mark.parametrize("B", [1, 3, 256])
@pytest.mark.parametrize("manifold", list(LOSS_MANIFOLDS))
def test_loss_and_grad_matches_reference(manifold, B):
    """The loss has the reference's bits.  The gradient skips the reference's
    second projection, of the already tangent residual, and computes only
    the read columns of the first layer's input gradient, so it agrees to
    1e-13 of its largest entry."""
    m, params, batch = _loss_setup(manifold, B)
    ref_loss, ref_grad = _loss_and_grad_reference(params, batch, m)
    loss, grad = nn.loss_and_grad(params, batch, m)
    assert loss == ref_loss
    assert np.max(np.abs(grad - ref_grad)) <= 1e-13 * np.max(np.abs(ref_grad))
    out = np.full(params.count, np.nan)  # a reused buffer: every entry is written
    loss, again = nn.loss_and_grad(params, batch, m, out=out)
    assert again is out
    assert loss == ref_loss and again.tobytes() == grad.tobytes()


@pytest.mark.parametrize("manifold", list(LOSS_MANIFOLDS))
def test_loss_residual_is_tangent(manifold):
    """The gradient takes the residual r for its own projection P(r)."""
    m, params, batch = _loss_setup(manifold, 256)
    _, r = fl._fm_terms(m, batch, nn.forward(params, batch.x_t, batch.t, batch.condition))
    assert np.max(np.abs(mf.project_tangent(m, batch.x_t, r) - r)) <= 1e-13 * np.max(np.abs(r))


# ---------------------------------------------------------------------------
# schedule, clipping, optimizer, EMA
# ---------------------------------------------------------------------------


def test_lr_schedule_shape():
    cfg = nn.TrainConfig(total_steps=1000, max_lr=1e-4, warmup_ratio=0.08)
    warmup = 80
    assert nn.lr_at(cfg, 0) == 0.0
    assert nn.lr_at(cfg, warmup) == pytest.approx(1e-4)
    assert nn.lr_at(cfg, warmup // 2) == pytest.approx(0.5e-4)
    assert nn.lr_at(cfg, 1000) == pytest.approx(0.0, abs=1e-20)
    mid = nn.lr_at(cfg, (1000 + warmup) // 2)
    assert 0 < mid < 1e-4
    with pytest.raises(InvalidConfig, match=r"^step 1001 outside \[0, 1000\]$"):
        nn.lr_at(cfg, 1001)


@pytest.mark.parametrize("field", ["input_dim", "hidden_dim", "num_layers", "time_embed_dim",
                                   "cond_embed_dim", "num_condition_classes"])
@pytest.mark.parametrize("bad", [float("nan"), 2.5, 0, True])
def test_network_spec_rejects_non_integer_fields(field, bad):
    with pytest.raises(InvalidConfig, match=field):
        nn.NetworkSpec(**{"input_dim": 7, field: bad})


def test_train_config_validation():
    with pytest.raises(InvalidConfig):
        nn.TrainConfig(total_steps=10, max_lr=-1e-4)
    with pytest.raises(InvalidConfig):
        nn.TrainConfig(total_steps=10, warmup_ratio=1.5)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=20),
       st.floats(1e-3, 10.0))
def test_clip_gradient_norm_bound(vals, max_norm):
    g = np.array(vals)
    clipped = nn.clip_gradient(g, max_norm, nn._grad_norm(g))
    assert np.linalg.norm(clipped) <= max_norm + 1e-12
    if np.linalg.norm(g) <= max_norm:
        assert np.array_equal(clipped, g)


def test_adamw_first_step_direction():
    p = nn.VectorFieldParams(SPEC)
    p.flat[:] = 1.0
    opt = nn.OptimizerState(m=np.zeros(p.count), v=np.zeros(p.count), weight_decay=0.0)
    g = np.ones(p.count)
    nn.adamw_step(opt, p, g, lr=0.1)
    # bias-corrected first step is lr * g / (|g| + eps) = lr * sign(g)
    assert np.allclose(p.flat, 1.0 - 0.1, atol=1e-6)


def test_adamw_decoupled_weight_decay():
    p = nn.VectorFieldParams(SPEC)
    p.flat[:] = 2.0
    opt = nn.OptimizerState(m=np.zeros(p.count), v=np.zeros(p.count), weight_decay=0.5)
    nn.adamw_step(opt, p, np.zeros(p.count), lr=0.1)
    assert np.allclose(p.flat, 2.0 - 0.1 * 0.5 * 2.0)


@pytest.mark.parametrize("chunk", [nn.UPDATE_CHUNK, 100])
def test_adamw_and_ema_match_formulas_bitwise(rng, monkeypatch, chunk):
    monkeypatch.setattr(nn, "UPDATE_CHUNK", chunk)  # 100: several chunks, the last partial
    p = nn.VectorFieldParams(SPEC, rng.standard_normal(nn.VectorFieldParams(SPEC).count))
    assert p.count % 100
    ref = p.flat.copy()
    opt = nn.OptimizerState(m=np.zeros(p.count), v=np.zeros(p.count), weight_decay=0.05)
    m, v = np.zeros(p.count), np.zeros(p.count)
    ema = nn.EmaState(shadow=p.flat.copy(), decay=0.9)
    shadow = p.flat.copy()
    for step in range(1, 4):
        g = rng.standard_normal(p.count)
        nn.adamw_step(opt, p, g, lr=1e-2)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat, v_hat = m / (1.0 - 0.9 ** step), v / (1.0 - 0.999 ** step)
        ref -= 1e-2 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.05 * ref)
        nn.ema_update(ema, p)
        shadow = 0.9 * shadow + (1.0 - 0.9) * ref
        assert p.flat.tobytes() == ref.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()
        assert ema.shadow.tobytes() == shadow.tobytes()


def test_clip_gradient_takes_known_norm(rng):
    g = 3.0 * rng.standard_normal(50)
    norm = nn._grad_norm(g)
    assert nn.clip_gradient(g, 0.5, norm).tobytes() == (g * (0.5 / norm)).tobytes()


@pytest.mark.skipif(fl._blas_threads() is None, reason="no OpenBLAS thread-count setter found")
def test_grad_norm_does_not_depend_on_blas_threads():
    """For this vector OpenBLAS's dot, and so np.linalg.norm, gives other
    bits on 1 and on 2 threads; the gradient norm does not."""
    g = np.random.default_rng(2).standard_normal(20000)
    get, set_ = fl._blas_threads()
    before = get()
    try:
        norms = []
        for threads in (1, 2):
            set_(threads)
            norms.append(nn._grad_norm(g))
    finally:
        set_(before)
    assert norms[0] == norms[1]
    assert norms[0] == pytest.approx(np.linalg.norm(g), rel=1e-14)


def test_ema_update_converges():
    p = nn.VectorFieldParams(SPEC)
    p.flat[:] = 1.0
    ema = nn.EmaState(shadow=np.zeros(p.count), decay=0.5)
    for _ in range(20):
        nn.ema_update(ema, p)
    assert np.allclose(ema.shadow, 1.0, atol=1e-5)
    with pytest.raises(DimensionMismatch, match="^EMA shadow must match the parameter count$"):
        nn.ema_update(nn.EmaState(shadow=np.zeros(3), decay=0.5), p)


# ---------------------------------------------------------------------------
# training loop and checkpoints
# ---------------------------------------------------------------------------


def _train_small(seed=0, steps=5):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    mean = np.zeros(7)
    mean[3] = 1.0
    prior = mf.WrappedGaussianSpec(m, mean, 0.5)
    data = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(99), size=64)
    cfg = nn.TrainConfig(total_steps=steps, batch_size=16, seed=seed)
    spec = nn.NetworkSpec(input_dim=7, hidden_dim=16, num_layers=2,
                          time_embed_dim=8, cond_embed_dim=4)
    return cfg, spec, m, data, prior


def test_train_smoke_and_history():
    cfg, spec, m, data, prior = _train_small()
    result = nn.train(cfg, spec, m, data, prior)
    assert len(result.history) == 5
    assert all(np.isfinite(row["loss"]) for row in result.history)
    assert all(row["grad_norm"] >= 0 for row in result.history)


def test_train_deterministic():
    cfg, spec, m, data, prior = _train_small(seed=4)
    a = nn.train(cfg, spec, m, data, prior)
    b = nn.train(cfg, spec, m, data, prior)
    assert np.array_equal(a.params.flat, b.params.flat)
    assert np.array_equal(a.ema.shadow, b.ema.shadow)


def test_train_reduces_loss():
    cfg, spec, m, data, prior = _train_small(steps=300)
    cfg = nn.TrainConfig(total_steps=300, batch_size=64, max_lr=5e-3, seed=1)
    result = nn.train(cfg, spec, m, data, prior)
    first = np.mean([r["loss"] for r in result.history[:20]])
    last = np.mean([r["loss"] for r in result.history[-20:]])
    assert last < first


def test_non_finite_loss_raises():
    cfg, spec, m, data, prior = _train_small(steps=3)
    result = nn.train(cfg, spec, m, data, prior)
    result.params.flat[:] = np.nan
    batch = fl.make_flow_batch(m, data[:4], prior, np.random.default_rng(0))
    loss, _ = nn.loss_and_grad(result.params, batch, m)
    assert not np.isfinite(loss)  # the loop turns this into NonFiniteLoss
    err = NonFiniteLoss(7)
    assert err.step == 7


def test_checkpoint_roundtrip(tmp_path):
    cfg, spec, m, data, prior = _train_small(steps=4)
    result = nn.train(cfg, spec, m, data, prior)
    path = tmp_path / "ckpt.rmg"
    nn.save_checkpoint(path, cfg, m, result, extra={"tag": "x"})
    ck = nn.load_checkpoint(path)
    assert np.array_equal(ck.params.flat, result.params.flat)
    assert np.array_equal(ck.ema.shadow, result.ema.shadow)
    assert ck.net_spec == spec
    assert ck.train_cfg == cfg
    assert ck.manifold == m
    assert ck.ema.decay == cfg.ema_decay
    assert ck.header["tag"] == "x" and ck.header["rng_state"] == result.rng_state


def test_checkpoint_bitwise_stable(tmp_path):
    cfg, spec, m, data, prior = _train_small(steps=4)
    result = nn.train(cfg, spec, m, data, prior)
    p1, p2 = tmp_path / "a.rmg", tmp_path / "b.rmg"
    for p in (p1, p2):
        nn.save_checkpoint(p, cfg, m, result)
    assert p1.read_bytes() == p2.read_bytes()


def test_history_csv(tmp_path):
    rows = [{"step": 0, "lr": 1e-5, "loss": 2.5, "grad_norm": 0.3}]
    path = tmp_path / "losses.csv"
    nn.history_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,lr,loss,grad_norm"
    assert lines[1].startswith("0,1e-05,2.5,0.3")
