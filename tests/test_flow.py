import sys
import threading

import numpy as np
import pytest
from conftest import defect

from rmgflow import flow as fl
from rmgflow import manifold as mf
from rmgflow import motion as mo
from rmgflow import net as nn
from rmgflow.errors import (
    AntipodalPoints,
    DimensionMismatch,
    InvalidConfig,
    NotTangent,
)


def _prior(m, scale=0.5):
    mean = np.zeros(m.total_ambient_dim)
    off = 0
    for f in m.factors:
        if f.kind == "sphere":
            for _ in range(f.multiplicity):
                mean[off] = 1.0
                off += f.ambient_dim_per_copy
        else:
            off += f.ambient_dim
    return mf.WrappedGaussianSpec(m, mean, scale)


# ---------------------------------------------------------------------------
# interpolation and targets
# ---------------------------------------------------------------------------


def test_interpolate_endpoints(toy_manifold, rng):
    m = toy_manifold
    x0 = mf.random_point(m, rng, size=8)
    x1 = mf.exp_map(m, x0, mf.random_tangent(m, x0, rng, max_norm=2.0))
    assert np.max(np.abs(mf.geodesic(m, x0, x1, np.zeros(8)) - x0)) < 1e-12
    assert np.max(np.abs(mf.geodesic(m, x0, x1, np.ones(8)) - x1)) < 1e-8


def test_interpolate_domain():
    m = mf.ManifoldSpec([mf.euclidean(2), mf.sphere(2)])
    x = mf.random_point(m, np.random.default_rng(0), size=2)
    with pytest.raises(InvalidConfig, match=r"^interpolation time t must lie in \[0, 1\]$"):
        mf.geodesic(m, x, x, np.array([-0.1, 0.5]))


def test_flow_pairs_euclidean():
    m = mf.ManifoldSpec([mf.euclidean(2)])
    x0, x1 = np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]])
    x_t, v, antipodal = mf._map(m, fl._flow_target, x0, x1, t=np.array([0.5]))
    assert antipodal.dtype == bool and not antipodal.any()
    assert np.array_equal(x_t, [[1.0, 0.0]])
    assert np.array_equal(v, [[2.0, 0.0]])


def _log_target(m, x_t, x1, t):
    """The former supervision Log_{x_t}(x1) / (1 - t), kept as the oracle of
    the analytic geodesic velocity."""
    return mf.log_map(m, x_t, x1) / (1.0 - np.asarray(t))[..., None]


def test_target_velocity_matches_geodesic_velocity(toy_manifold, rng):
    m = toy_manifold
    x0 = mf.random_point(m, rng, size=16)
    x1 = mf.exp_map(m, x0, mf.random_tangent(m, x0, rng, max_norm=2.0))
    t = rng.uniform(0.05, 0.9, size=16)
    x_t = mf.geodesic(m, x0, x1, t)
    v = _log_target(m, x_t, x1, t)
    assert np.max(np.abs(v - mf.geodesic_velocity(m, x0, x1, t))) < 1e-8


def _sphere_geodesic_longdouble(x0, x1, t):
    """Point and velocity of the unit-sphere geodesic from x0 to x1 in
    extended precision: (sin((1 - t) theta) x0 + sin(t theta) x1) / sin(theta)
    and theta / sin(theta) (-cos((1 - t) theta) x0 + cos(t theta) x1), with
    theta = 2 atan2(|x1 - x0|, |x1 + x0|), which is accurate at every angle."""
    x0, x1 = x0.astype(np.longdouble), x1.astype(np.longdouble)
    t = np.asarray(t, dtype=np.longdouble)[..., None]
    theta = 2 * np.arctan2(np.linalg.norm(x1 - x0, axis=-1, keepdims=True),
                           np.linalg.norm(x1 + x0, axis=-1, keepdims=True))
    nonzero = theta > 0
    sin = np.sin(np.where(nonzero, theta, 1))
    point = np.where(nonzero, (np.sin((1 - t) * theta) * x0 + np.sin(t * theta) * x1) / sin, x0)
    ratio = np.where(nonzero, theta / sin, 1)
    return point, ratio * (-np.cos((1 - t) * theta) * x0 + np.cos(t * theta) * x1)


def _longdouble_errors(m, x0, x1, t, x_t, v):
    """Largest errors of the sphere and pre-shape blocks of x_t and of its
    target v against the extended-precision geodesic."""
    worst = np.zeros(2)
    for f, sl in m.blocks:
        if f.kind != "euclidean":
            def copies(a):
                return a[:, sl].reshape(len(a), f.multiplicity, f.ambient_dim_per_copy)
            refs = _sphere_geodesic_longdouble(copies(x0), copies(x1), t[:, None])
            worst = np.maximum(worst, [float(np.max(np.abs(copies(got) - ref)))
                                       for got, ref in zip((x_t, v), refs)])
    return worst


EXTENDED = np.finfo(np.longdouble).eps < 1e-18


@pytest.mark.skipif(not EXTENDED, reason="no extended precision")
def test_target_near_one_matches_longdouble_reference(pose_manifold, rng):
    """Near t = 1 - EPS_T the analytic target stays accurate; the former
    Log_{x_t}(x1) / (1 - t) was off by about 1e-5 there."""
    m = pose_manifold
    B = 256
    x0 = mf.random_point(m, rng, size=B)
    x1 = mf.exp_map(m, x0, mf.random_tangent(m, x0, rng, max_norm=2.0))
    t = 1.0 - fl.EPS_T * rng.uniform(1.0, 2.0, size=B)
    x_t, v, _ = mf._map(m, fl._flow_target, x0, x1, t=t)
    x_t_error, target_error = _longdouble_errors(m, x0, x1, t, x_t, v)
    assert x_t_error <= 1e-15 and target_error <= 1e-13


SMALL_ANGLE_MANIFOLDS = {
    "toy": [mf.euclidean(3), mf.sphere(3)],
    "pose": [mf.euclidean(3), mf.sphere(3, multiplicity=22)],
    "narrow_preshapes": [mf.preshape(3, 1, multiplicity=2), mf.preshape(3, 2)],
    "preshape53": [mf.preshape(5, 3)],
}


@pytest.mark.parametrize("manifold", list(SMALL_ANGLE_MANIFOLDS))
@pytest.mark.parametrize("angle", [2.0, 1e-3, 9e-7, 1e-7, 0.0])
def test_batch_on_manifold_and_tangent(manifold, angle, rng):
    """x_t stays on the manifold and its target tangent at x_t, at angles up
    to 2 and below SMALL_ANGLE, for t up to 1 - EPS_T."""
    m = mf.ManifoldSpec(SMALL_ANGLE_MANIFOLDS[manifold])
    B = 64
    x0 = mf.random_point(m, rng, size=B)
    x1 = mf.exp_map(m, x0, mf.random_tangent(m, x0, rng, max_norm=angle))
    t = np.concatenate([rng.uniform(0.0, 1.0 - fl.EPS_T, size=B - 2), [0.0, 1.0 - fl.EPS_T]])
    x_t, v, antipodal = mf._map(m, fl._flow_target, x0, x1, t=t)
    assert not antipodal.any()
    assert mf.max_constraint_deviation(m, x_t) <= 1e-9
    assert defect(m, x_t, v) <= 1e-9
    if EXTENDED:
        x_t_error, target_error = _longdouble_errors(m, x0, x1, t, x_t, v)
        assert x_t_error <= 1e-15 and target_error <= 1e-13


# ---------------------------------------------------------------------------
# batches and loss
# ---------------------------------------------------------------------------


def test_make_flow_batch_shapes(toy_manifold, rng):
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, rng, size=32)
    batch = fl.make_flow_batch(m, x1, prior, rng)
    assert batch.x_t.shape == batch.target_v.shape == (32, 7)
    assert np.all(batch.t >= 0) and np.all(batch.t <= 1 - fl.EPS_T)
    assert batch.condition is None
    assert mf.max_constraint_deviation(m, batch.x_t) < 1e-9
    assert defect(m, batch.x_t, batch.target_v) < 1e-9


def test_make_flow_batch_condition_dropout(toy_manifold, rng):
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, rng, size=64)
    conds = np.full(64, 2)
    batch = fl.make_flow_batch(m, x1, prior, rng, cond_dropout_prob=1.0,
                               conditions=conds)
    assert np.all(batch.condition == fl.NULL_CLASS)
    batch = fl.make_flow_batch(m, x1, prior, rng, cond_dropout_prob=0.0,
                               conditions=conds)
    assert np.all(batch.condition == 2)
    with pytest.raises(DimensionMismatch):
        fl.make_flow_batch(m, x1, prior, rng, conditions=np.zeros(3))


def _forced_prior(monkeypatch, x1, rows, stay_bad=False):
    """Patch the prior sampler: its first draw puts ``rows`` of the blocks
    after the leading euclidean(3) exactly antipodal to ``x1``, and with
    ``stay_bad`` so does every redraw.  Returns the list of draw sizes."""
    draw = mf.sample_wrapped_gaussian
    sizes = []

    def forced(m, g, rng, size=None):
        sizes.append(size)
        x = draw(m, g, rng, size=size)
        if size == x1.shape[0]:
            x[rows, 3:] = -x1[rows, 3:]
        elif stay_bad:
            x[:, 3:] = -x1[rows, 3:]
        return x

    monkeypatch.setattr(mf, "sample_wrapped_gaussian", forced)
    return sizes


def _assert_redrawn(m, prior, x1, rows, monkeypatch):
    """A batch whose first prior draw is antipodal in ``rows`` draws those
    rows once more, after the times, and keeps every other row's first draw:
    the same stream replayed gives the same x0, t and x_t.  Each of the two
    attempts computes the angles of m's one non-Euclidean factor once."""
    draw, angle, angles = mf.sample_wrapped_gaussian, mf._sphere_angle, []
    sizes = _forced_prior(monkeypatch, x1, rows)
    monkeypatch.setattr(mf, "_sphere_angle", lambda x, y: angles.append(x.shape) or angle(x, y))
    batch = fl.make_flow_batch(m, x1, prior, np.random.default_rng(4))
    assert sizes == [len(x1), len(rows)] and len(angles) == 2
    rng = np.random.default_rng(4)
    x0 = draw(m, prior, rng, size=len(x1))
    t = rng.uniform(0.0, 1.0 - fl.EPS_T, size=len(x1))
    x0[rows] = draw(m, prior, rng, size=len(rows))
    assert np.array_equal(batch.x0, x0) and np.array_equal(batch.t, t)
    assert np.array_equal(batch.x_t, mf.geodesic(m, x0, x1, t))


def test_make_flow_batch_redraws_only_antipodal_rows(toy_manifold, monkeypatch):
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(0), size=16)
    _assert_redrawn(m, prior, x1, [2, 9], monkeypatch)


def test_make_flow_batch_redraws_antipodal_preshape_rows(monkeypatch):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.preshape(3, 2)])
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(1)), 0.5)
    x1 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(0), size=16)
    _assert_redrawn(m, prior, x1, [11], monkeypatch)


def test_make_flow_batch_redraws_are_bounded(toy_manifold, monkeypatch):
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(0), size=16)
    sizes = _forced_prior(monkeypatch, x1, [5], stay_bad=True)
    with pytest.raises(AntipodalPoints, match="no unique geodesic"):
        fl.make_flow_batch(m, x1, prior, np.random.default_rng(4))
    assert sizes == [16] + [1] * fl.MAX_PRIOR_REDRAWS


def test_make_flow_batch_clean_batch_draws_once(toy_manifold, monkeypatch):
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(0), size=16)
    angle, angles = mf._sphere_angle, []
    sizes = _forced_prior(monkeypatch, x1, [])
    monkeypatch.setattr(mf, "_sphere_angle", lambda x, y: angles.append(x.shape) or angle(x, y))
    fl.make_flow_batch(m, x1, prior, np.random.default_rng(4))
    assert sizes == [16] and len(angles) == 1


def test_fm_loss_zero_on_exact_prediction(toy_manifold, rng):
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, rng, size=16)
    batch = fl.make_flow_batch(m, x1, prior, rng)
    assert fl.fm_loss(m, batch, batch.target_v) < 1e-24
    with pytest.raises(DimensionMismatch):
        fl.fm_loss(m, batch, batch.target_v[:4])


def test_fm_loss_ignores_normal_components(toy_manifold, rng):
    """Adding normal-space noise to the prediction must not change the loss."""
    m = toy_manifold
    prior = _prior(m)
    x1 = mf.sample_wrapped_gaussian(m, prior, rng, size=16)
    batch = fl.make_flow_batch(m, x1, prior, rng)
    pred = rng.standard_normal(batch.target_v.shape)
    base = fl.fm_loss(m, batch, pred)
    radial = np.zeros_like(pred)
    radial[:, 3:] = batch.x_t[:, 3:] * rng.standard_normal((16, 1))
    assert abs(fl.fm_loss(m, batch, pred + radial) - base) < 1e-9


# ---------------------------------------------------------------------------
# guidance and integration
# ---------------------------------------------------------------------------


def test_sample_ode_stays_on_manifold(toy_manifold, rng):
    m = toy_manifold
    prior = _prior(m)

    def field(x, t, cond):
        return np.zeros_like(x)

    out = fl.sample_ode(m, field, prior, fl.IntegratorConfig(20),
                        fl.GuidanceConfig(), None, rng, num_samples=16)
    assert out.shape == (16, 7)
    assert mf.max_constraint_deviation(m, out) < 1e-9


def test_sample_ode_rejects_nan_field(toy_manifold, rng):
    m = toy_manifold

    def field(x, t, cond):
        return np.full_like(x, np.nan)

    with pytest.raises(NotTangent):
        fl.sample_ode(m, field, _prior(m), fl.IntegratorConfig(5),
                      fl.GuidanceConfig(), None, rng, num_samples=4)


def test_sample_ode_guidance_scale_one_bitwise(toy_manifold):
    """scale=1 guided sampling takes exactly the unguided code path."""
    m = toy_manifold
    prior = _prior(m)
    calls = []

    def field(x, t, cond):
        calls.append(None if cond is None else cond.copy())
        return 0.1 * np.ones_like(x)

    cond = np.full(8, 1)
    a = fl.sample_ode(m, field, prior, fl.IntegratorConfig(10),
                      fl.GuidanceConfig(scale=1.0, enabled=True), cond,
                      np.random.default_rng(3), num_samples=8)
    n_calls = len(calls)
    b = fl.sample_ode(m, field, prior, fl.IntegratorConfig(10),
                      fl.GuidanceConfig(enabled=False), cond,
                      np.random.default_rng(3), num_samples=8)
    assert np.array_equal(a, b)
    assert len(calls) == 2 * n_calls  # no extra null-condition evaluations


@pytest.mark.parametrize("scale, conditional_calls", [(4.0, 5), (0.0, 0)])
def test_sample_ode_guidance_evaluates_null_branch(toy_manifold, scale, conditional_calls):
    """Five steps evaluate the null class once each, and the condition once
    each too, except at scale 0: there the combination is the null-condition
    field alone."""
    m = toy_manifold
    prior = _prior(m)
    seen = []

    def field(x, t, cond):
        seen.append(int(cond[0]))
        return np.zeros_like(x)

    fl.sample_ode(m, field, prior, fl.IntegratorConfig(5),
                  fl.GuidanceConfig(scale=scale, enabled=True), np.full(2, 1),
                  np.random.default_rng(0), num_samples=2)
    assert seen.count(1) == conditional_calls and seen.count(fl.NULL_CLASS) == 5
    assert len(seen) == 5 + conditional_calls


# ---------------------------------------------------------------------------
# the sampler against the chain of public steps
# ---------------------------------------------------------------------------


def _sample_ode_chain(m, field, prior, integ, guid, condition, rng, num_samples=None):
    """Reference sampler on whole arrays: per step project_tangent, the
    classifier-free combination (at scale 0 the null-condition field alone,
    else the projection of v0 + scale (v - v0)), then exp_map(x, h v): the
    oracle of ``fl._euler_step``, which fuses them per factor in ``mf._map``."""
    if condition is not None:
        condition = np.asarray(condition)
        B = condition.shape[0]
    else:
        B = 1 if num_samples is None else int(num_samples)
    x = mf.sample_wrapped_gaussian(m, prior, rng, size=B)
    N = integ.num_steps
    use_guidance = guid.enabled and guid.scale != 1.0 and condition is not None
    null_cond = np.full(B, fl.NULL_CLASS) if use_guidance else None
    for k in range(N):
        t = k / N
        cond = null_cond if use_guidance and guid.scale == 0.0 else condition
        v = mf.project_tangent(m, x, np.asarray(field(x, t, cond), dtype=float))
        if use_guidance and guid.scale != 0.0:
            v0 = mf.project_tangent(m, x, np.asarray(field(x, t, null_cond), dtype=float))
            v = mf.project_tangent(m, x, v0 + guid.scale * (v - v0))
        x = mf.exp_map(m, x, integ.step_size * v)
    return x


def _recorded_field(calls):
    """A smooth field with normal and off-centre components; records each
    call as ``(t, condition bytes, x)``."""
    def field(x, t, cond):
        calls.append((t, None if cond is None else cond.tobytes(), x.copy()))
        c = 0.0 if cond is None else cond[:, None]
        return np.sin(3.0 * x + 2.0 * t + c) + 0.5 * x
    return field


# The sampler projects a guided combination once, the oracle three times:
# where two fields are combined, they agree to this per coordinate.
GUIDED_ATOL = 1e-12


def _same(a, b, bitwise):
    return a.shape == b.shape and (a.tobytes() == b.tobytes() if bitwise
                                   else np.max(np.abs(a - b), initial=0.0) <= GUIDED_ATOL)


def _same_call(c, d, bitwise):
    """The same time and condition, on the same points (to GUIDED_ATOL
    unless ``bitwise``)."""
    return c[:2] == d[:2] and _same(c[2], d[2], bitwise)


def _bitwise(guid, conditioned):
    """Whether a run evaluates one field per step, and so has the oracle's bits."""
    return not (guid.enabled and conditioned) or guid.scale in (0.0, 1.0)


SIX_FACTOR = mo.RepresentationConfig(joints=22, translation=True, rotations=True, preshape=True,
                                     d_translation=True, d_rotations=True, d_preshape=True)
ORACLE_MANIFOLDS = {
    "toy": [mf.euclidean(3), mf.sphere(3)],
    "pose": [mf.euclidean(3), mf.sphere(3, multiplicity=22)],
    "six_factor": list(mo.config_to_manifold(SIX_FACTOR).factors),
    # copy widths 7 and 8: both sides of numpy's 8 partial sums
    "s6_x_s7": [mf.sphere(6), mf.sphere(7)],
    "narrow_preshapes": [mf.preshape(3, 1, multiplicity=2), mf.preshape(3, 2)],
}
ORACLE_GUIDANCE = {
    "scale0": (fl.GuidanceConfig(scale=0.0, enabled=True), True),
    "scale1": (fl.GuidanceConfig(scale=1.0, enabled=True), True),
    "scale0.5": (fl.GuidanceConfig(scale=0.5, enabled=True), True),
    "scale2.5": (fl.GuidanceConfig(scale=2.5, enabled=True), True),
    "unguided": (fl.GuidanceConfig(scale=2.5, enabled=False), True),
    "no_condition": (fl.GuidanceConfig(scale=2.5, enabled=True), False),
}


@pytest.mark.parametrize("B", [1, 3, 256])
@pytest.mark.parametrize("manifold", list(ORACLE_MANIFOLDS))
def test_make_flow_batch_equals_geodesic(manifold, B):
    """x_t is mf.geodesic bit for bit; the target is mf.geodesic_velocity on
    sphere and pre-shape blocks and (x1 - x_t) / (1 - t) on Euclidean ones."""
    m = mf.ManifoldSpec(ORACLE_MANIFOLDS[manifold])
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(1)), 0.5)
    x1 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(2), size=B)
    batch = fl.make_flow_batch(m, x1, prior, np.random.default_rng(3))
    assert batch.x_t.tobytes() == mf.geodesic(m, batch.x0, x1, batch.t).tobytes()
    velocity = mf.geodesic_velocity(m, batch.x0, x1, batch.t)
    line = (x1 - batch.x_t) / (1.0 - batch.t)[:, None]
    for f, sl in m.blocks:
        expected = line if f.kind == "euclidean" else velocity
        assert batch.target_v[:, sl].tobytes() == expected[:, sl].tobytes(), f.kind


@pytest.mark.parametrize("B", [1, 3, 257])
@pytest.mark.parametrize("guidance", list(ORACLE_GUIDANCE))
@pytest.mark.parametrize("manifold", list(ORACLE_MANIFOLDS))
def test_sample_ode_matches_step_chain(manifold, guidance, B):
    m = mf.ManifoldSpec(ORACLE_MANIFOLDS[manifold])
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(1)), 0.5)
    guid, conditioned = ORACLE_GUIDANCE[guidance]
    cond = 1 + np.arange(B) % 2 if conditioned else None
    calls, ref_calls = [], []
    out = fl.sample_ode(m, _recorded_field(calls), prior, fl.IntegratorConfig(5), guid, cond,
                        np.random.default_rng(7), num_samples=B)
    ref = _sample_ode_chain(m, _recorded_field(ref_calls), prior, fl.IntegratorConfig(5), guid,
                            cond, np.random.default_rng(7), num_samples=B)
    bitwise = _bitwise(guid, conditioned)
    assert out.shape == (B, m.total_ambient_dim)
    assert _same(out, ref, bitwise)
    # the same field calls, in the same order, on the same points
    assert len(calls) == len(ref_calls)
    assert all(_same_call(c, d, bitwise) for c, d in zip(calls, ref_calls))


# ---------------------------------------------------------------------------
# the sampler's row blocks and its BLAS pin
# ---------------------------------------------------------------------------


def _net_field(m, rng):
    """net.forward with random weights, the last layer included."""
    spec = nn.NetworkSpec(input_dim=m.total_ambient_dim, hidden_dim=16, num_layers=2,
                          num_condition_classes=3)
    params = nn.VectorFieldParams(spec, 0.3 * rng.standard_normal(nn.VectorFieldParams(spec).count))
    return nn.field_from_params(params)


@pytest.mark.parametrize("manifold", ["pose", "six_factor"])
def test_sample_ode_bits_do_not_depend_on_cpu_count(manifold, monkeypatch):
    m = mf.ManifoldSpec(ORACLE_MANIFOLDS[manifold])
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(1)), 0.5)
    field = _net_field(m, np.random.default_rng(2))
    B = 2 * fl.SAMPLE_BLOCK_ROWS + 76  # two full blocks and a short one
    cond = 1 + np.arange(B) % 2
    out = {}
    for cpus in (1, 4):
        monkeypatch.setattr(mf, "_usable_cpus", lambda: cpus)
        out[cpus] = fl.sample_ode(m, field, prior, fl.IntegratorConfig(2),
                                  fl.GuidanceConfig(scale=2.5, enabled=True), cond,
                                  np.random.default_rng(7), num_samples=B)
    assert out[1].shape == (B, m.total_ambient_dim)
    assert out[1].tobytes() == out[4].tobytes()


@pytest.mark.parametrize("guidance", ["scale2.5", "no_condition"])
@pytest.mark.parametrize("manifold", ["toy", "six_factor", "narrow_preshapes"])
def test_sample_ode_equals_step_chain_block_by_block(manifold, guidance, monkeypatch):
    """Each block integrates on its own: its field calls come in order, on
    its rows only, and its rows are the step chain's on those rows."""
    monkeypatch.setattr(fl, "SAMPLE_BLOCK_ROWS", 8)
    monkeypatch.setattr(mf, "_usable_cpus", lambda: 4)
    m = mf.ManifoldSpec(ORACLE_MANIFOLDS[manifold])
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(1)), 0.5)
    guid, conditioned = ORACLE_GUIDANCE[guidance]
    bitwise = _bitwise(guid, conditioned)
    B = 21
    cond = 1 + np.arange(B) % 2 if conditioned else None
    calls = []
    out = fl.sample_ode(m, _recorded_field(calls), prior, fl.IntegratorConfig(5), guid, cond,
                        np.random.default_rng(7), num_samples=B)
    x0 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(7), size=B)
    seen = 0
    for s in range(0, B, 8):
        rows = slice(s, s + 8)
        monkeypatch.setattr(mf, "sample_wrapped_gaussian", lambda m, prior, rng, size: x0[rows])
        block_calls = []
        ref = _sample_ode_chain(m, _recorded_field(block_calls), prior, fl.IntegratorConfig(5),
                                guid, None if cond is None else cond[rows], None,
                                num_samples=x0[rows].shape[0])
        assert _same(out[rows], ref, bitwise)
        mine = [c for c in calls if any(_same_call(c, d, bitwise) for d in block_calls)]
        assert len(mine) == len(block_calls)
        assert all(_same_call(c, d, bitwise) for c, d in zip(mine, block_calls))
        seen += len(block_calls)
    assert seen == len(calls)


def _flow_runs(m, x1, prior, params, monkeypatch):
    """Every output of one batch, one batch that redraws rows 1 and 5, the
    loss and gradient, and a guided, an unguided and a scale-0 run of the
    sampler, as bytes."""
    B = len(x1)
    cond = 1 + np.arange(B) % 2
    out = {}
    with monkeypatch.context() as patch:
        sizes = _forced_prior(patch, x1, [1, 5])
        redrawn = fl.make_flow_batch(m, x1, prior, np.random.default_rng(4), conditions=cond)
    assert sizes == [B, 2]
    batch = fl.make_flow_batch(m, x1, prior, np.random.default_rng(3), conditions=cond)
    for name, b in (("batch", batch), ("redrawn", redrawn)):
        for field in ("x0", "t", "x_t", "target_v", "condition"):
            out[name, field] = getattr(b, field).tobytes()
    loss, grad = nn.loss_and_grad(params, batch, m)
    out["loss"], out["grad"] = np.float64(loss).tobytes(), grad.tobytes()
    for name, guid in (("guided", fl.GuidanceConfig(scale=2.5, enabled=True)),
                       ("unguided", fl.GuidanceConfig()),
                       ("scale0", fl.GuidanceConfig(scale=0.0, enabled=True))):
        out[name] = fl.sample_ode(m, nn.field_from_params(params), prior, fl.IntegratorConfig(3),
                                  guid, cond, np.random.default_rng(7), num_samples=B).tobytes()
    return out


@pytest.mark.parametrize("chunk", [1, 700])
@pytest.mark.parametrize("manifold", ["toy", "pose", "six_factor"])
def test_flow_bits_do_not_depend_on_the_chunk(manifold, chunk, monkeypatch):
    """The batch (a redrawn antipodal row included), the loss and gradient
    and the sampler have the same bits with ``mf._map``'s chunks cut down to
    one row or a few as at the default CHUNK_ELEMENTS."""
    m = mf.ManifoldSpec(ORACLE_MANIFOLDS[manifold])
    prior = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(1)), 0.5)
    x1 = mf.sample_wrapped_gaussian(m, prior, np.random.default_rng(2), size=37)
    spec = nn.NetworkSpec(input_dim=m.total_ambient_dim, hidden_dim=16, num_layers=2,
                          num_condition_classes=3)
    rng = np.random.default_rng(5)
    params = nn.VectorFieldParams(spec, 0.3 * rng.standard_normal(nn.VectorFieldParams(spec).count))
    default = _flow_runs(m, x1, prior, params, monkeypatch)
    monkeypatch.setattr(mf, "CHUNK_ELEMENTS", chunk)
    assert _flow_runs(m, x1, prior, params, monkeypatch) == default


needs_blas_setter = pytest.mark.skipif(fl._blas_threads() is None,
                                       reason="no OpenBLAS thread-count setter found")


@pytest.fixture
def blas_threads():
    """(get, set) of the BLAS thread count, set to 3 for the test and put
    back after it."""
    get, set_ = fl._blas_threads()
    before = get()
    set_(3)
    yield get, set_
    set_(before)


def _counting_field(get, seen, fail=False):
    def field(x, t, cond):
        seen.append(get())
        if fail:
            raise RuntimeError("field failed")
        return np.zeros_like(x)
    return field


@needs_blas_setter
def test_sample_ode_pins_blas_and_restores_it(toy_manifold, blas_threads):
    get, _ = blas_threads
    seen = []
    fl.sample_ode(toy_manifold, _counting_field(get, seen), _prior(toy_manifold),
                  fl.IntegratorConfig(3), fl.GuidanceConfig(), None, np.random.default_rng(0),
                  num_samples=2 * fl.SAMPLE_BLOCK_ROWS + 1)
    assert seen == [1] * 9 and get() == 3
    with pytest.raises(RuntimeError, match="field failed"):
        fl.sample_ode(toy_manifold, _counting_field(get, seen, fail=True),
                      _prior(toy_manifold), fl.IntegratorConfig(3), fl.GuidanceConfig(), None,
                      np.random.default_rng(0), num_samples=4)
    assert get() == 3


@needs_blas_setter
def test_concurrent_samplers_restore_blas_once(toy_manifold, blas_threads):
    """The first sampler to leave keeps the pin while the second still runs."""
    get, _ = blas_threads
    both_inside, first_done = threading.Barrier(2, timeout=30), threading.Event()
    seen = {}

    def field(name):
        def f(x, t, cond):
            if t == 0.0:
                both_inside.wait()
                if name == "second":
                    assert first_done.wait(timeout=30)
            seen.setdefault(name, []).append(get())
            return np.zeros_like(x)
        return f

    def run(name):
        fl.sample_ode(toy_manifold, field(name), _prior(toy_manifold), fl.IntegratorConfig(2),
                      fl.GuidanceConfig(), None, np.random.default_rng(0), num_samples=3)
        if name == "first":
            first_done.set()

    threads = [threading.Thread(target=run, args=(name,)) for name in ("first", "second")]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    assert seen == {"first": [1, 1], "second": [1, 1]}
    assert get() == 3


@needs_blas_setter
def test_many_concurrent_samplers_keep_one_pin(toy_manifold, blas_threads):
    """More samplers than CPUs, switching threads often: every field call
    sees one BLAS thread, and the count is restored once all have left."""
    get, _ = blas_threads
    seen = []

    def run():
        fl.sample_ode(toy_manifold, _counting_field(get, seen), _prior(toy_manifold),
                      fl.IntegratorConfig(20), fl.GuidanceConfig(), None,
                      np.random.default_rng(0), num_samples=2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == [1] * 8 * 20
    assert get() == 3


def test_sample_ode_without_blas_setter_runs_blocks_inline(toy_manifold, monkeypatch):
    monkeypatch.setattr(fl, "_blas_threads", lambda: None)
    monkeypatch.setattr(mf, "_usable_cpus", lambda: 4)
    callers = set()

    def field(x, t, cond):
        callers.add(threading.get_ident())
        return np.zeros_like(x)

    fl.sample_ode(toy_manifold, field, _prior(toy_manifold), fl.IntegratorConfig(2),
                  fl.GuidanceConfig(), None, np.random.default_rng(0),
                  num_samples=2 * fl.SAMPLE_BLOCK_ROWS)
    assert callers == {threading.get_ident()}


@pytest.mark.parametrize("scale", [0.0, 0.5, 2.5])
@pytest.mark.parametrize("column", [1, 5], ids=["euclidean", "sphere"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_ode_rejects_non_finite_null_field(toy_manifold, bad, column, scale):
    m = toy_manifold

    def field(x, t, cond):
        a = 0.1 * np.ones_like(x)
        if cond[0] == fl.NULL_CLASS:
            a[2, column] = bad
        return a

    with pytest.raises(NotTangent):
        fl.sample_ode(m, field, _prior(m), fl.IntegratorConfig(5),
                      fl.GuidanceConfig(scale=scale, enabled=True), np.full(4, 1),
                      np.random.default_rng(0), num_samples=4)


@pytest.mark.parametrize("branch", ["conditional", "null"])
@pytest.mark.parametrize("shape", [(3, 7), (1, 7), (4, 6), (4, 7, 1)])
def test_sample_ode_rejects_misshapen_field(toy_manifold, branch, shape):
    m = toy_manifold

    def field(x, t, cond):
        if (cond[0] == fl.NULL_CLASS) == (branch == "null"):
            return np.zeros(shape)
        return np.zeros_like(x)

    with pytest.raises(DimensionMismatch):
        fl.sample_ode(m, field, _prior(m), fl.IntegratorConfig(5),
                      fl.GuidanceConfig(scale=2.5, enabled=True), np.full(4, 1),
                      np.random.default_rng(0), num_samples=4)


@pytest.mark.parametrize("condition", [np.full(3, 1), np.full((4, 1), 1), 1],
                         ids=["short", "column", "scalar"])
def test_sample_ode_rejects_condition_of_other_row_count(toy_manifold, condition):
    """A condition holds one class per sample: shape (num_samples,)."""
    with pytest.raises(DimensionMismatch, match="num_samples disagrees with condition batch"):
        fl.sample_ode(toy_manifold, lambda x, t, cond: np.zeros_like(x), _prior(toy_manifold),
                      fl.IntegratorConfig(1), fl.GuidanceConfig(), condition,
                      np.random.default_rng(0), num_samples=4)


def test_reference_point_layout(skeleton):
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True,
                                  preshape=True, d_translation=True)
    p = fl.reference_point(cfg, skeleton)
    m = mo.config_to_manifold(cfg)
    assert p.shape == (m.total_ambient_dim,)
    assert mf.max_constraint_deviation(m, p) < 1e-12
    assert np.array_equal(p[:3], np.zeros(3))
    assert np.array_equal(p[3:7], mo.QUAT_IDENTITY)


def test_integrator_config_validation():
    with pytest.raises(InvalidConfig):
        fl.IntegratorConfig(0)
    for bad in (float("nan"), 2.5, True):
        with pytest.raises(InvalidConfig, match="num_steps"):
            fl.IntegratorConfig(bad)
    assert fl.IntegratorConfig(4).step_size == 0.25
    with pytest.raises(InvalidConfig):
        fl.GuidanceConfig(scale=-1.0)
