import dataclasses
import json
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmgflow import flow as fl
from rmgflow import manifold as mf
from rmgflow import metrics as me
from rmgflow import motion as mo
from rmgflow import net as nn
from rmgflow.errors import DimensionMismatch, InvalidConfig


def _sphere_mixture(m, means, scale=0.1, conditions=(None, None)):
    comps = tuple(
        me.MixtureComponent(mean=mu, scale=scale, weight=0.5, condition=c)
        for mu, c in zip(means, conditions)
    )
    return me.ToyTaskSpec(kind="sphere_mixture", sample_count=200, components=comps)


@pytest.fixture
def toy_means(toy_manifold):
    a = np.zeros(7)
    a[0], a[3] = 1.5, 1.0
    b = np.zeros(7)
    b[0], b[4] = -1.5, 1.0
    return a, b


# ---------------------------------------------------------------------------
# toy data generation
# ---------------------------------------------------------------------------


def test_task_validation(toy_means):
    a, b = toy_means
    with pytest.raises(InvalidConfig):
        me.ToyTaskSpec(kind="nope", sample_count=10)
    for bad in (float("nan"), 2.5, True, 0):
        with pytest.raises(InvalidConfig, match="sample_count"):
            me.ToyTaskSpec(kind="fixed_point", sample_count=bad,
                           components=(me.MixtureComponent(mean=a),))
    with pytest.raises(InvalidConfig):
        me.ToyTaskSpec(kind="sphere_mixture", sample_count=10)
    with pytest.raises(InvalidConfig, match="^rotating_joint needs a representation$"):
        me.ToyTaskSpec(kind="rotating_joint", sample_count=10)
    with pytest.raises(InvalidConfig):
        me.ToyTaskSpec(
            kind="sphere_mixture", sample_count=10,
            components=(me.MixtureComponent(mean=a, weight=0.7),
                        me.MixtureComponent(mean=b, weight=0.7)),
        )


def test_generate_mixture_on_manifold(toy_manifold, toy_means, rng):
    m = toy_manifold
    task = _sphere_mixture(m, toy_means)
    pts, cond = me.generate_toy_dataset(task, m, rng)
    assert pts.shape == (200, 7)
    assert cond is None
    assert mf.max_constraint_deviation(m, pts) < 1e-9


def test_generate_mixture_labels(toy_manifold, toy_means, rng):
    m = toy_manifold
    task = _sphere_mixture(m, toy_means, conditions=(1, 2))
    pts, cond = me.generate_toy_dataset(task, m, rng)
    assert set(np.unique(cond)) == {1, 2}
    # labels track the component: condition-1 samples sit near mean a
    a, b = toy_means
    d_a = mf.distance(m, pts[cond == 1], a)
    d_b = mf.distance(m, pts[cond == 1], b)
    assert np.all(d_a < d_b)


def test_generate_fixed_point(toy_manifold, toy_means, rng):
    m = toy_manifold
    a, _ = toy_means
    task = me.ToyTaskSpec(kind="fixed_point", sample_count=7,
                          components=(me.MixtureComponent(mean=a, condition=1),))
    pts, cond = me.generate_toy_dataset(task, m, rng)
    assert np.all(pts == a) and np.all(cond == 1)


@pytest.mark.parametrize("kind", ["fixed_point", "sphere_mixture"])
def test_component_mean_must_match_manifold(toy_manifold, rng, kind):
    task = me.ToyTaskSpec(kind=kind, sample_count=3,
                          components=(me.MixtureComponent(mean=np.zeros(5)),))
    with pytest.raises(InvalidConfig, match="length 7"):
        me.generate_toy_dataset(task, toy_manifold, rng)


def test_rotating_joint_points(skeleton, rng):
    cfg = mo.RepresentationConfig(joints=22, translation=True, rotations=True)
    m = mo.config_to_manifold(cfg)
    task = me.ToyTaskSpec(kind="rotating_joint", sample_count=50, joint=3,
                          amplitude=0.8, representation=cfg, skeleton=skeleton)
    pts, cond = me.generate_toy_dataset(task, m, rng)
    assert pts.shape == (50, 91) and cond is None
    assert mf.max_constraint_deviation(m, pts) < 1e-9
    # the swept joint actually moves
    quats = pts[:, 3:].reshape(50, 22, 4)
    assert np.std(quats[:, 3, 0]) > 1e-3


# ---------------------------------------------------------------------------
# distances, bandwidth, MMD
# ---------------------------------------------------------------------------


def _matrix(m, a, b):
    """The distance matrix between the rows of a and of b."""
    return mf.distance(m, a[:, None], b[None])


def test_distance_matrix_properties(toy_manifold, rng):
    m = toy_manifold
    x = mf.random_point(m, rng, size=20)
    d = _matrix(m, x, x)
    assert d.shape == (20, 20)
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.max(np.abs(np.diag(d))) < 1e-7


def test_distance_matrix_equals_rows(toy_manifold, rng):
    m = toy_manifold
    a = mf.random_point(m, rng, size=600)
    b = mf.random_point(m, rng, size=500)
    rows = np.stack([mf.distance(m, a[i], b) for i in range(600)])
    assert np.array_equal(_matrix(m, a, b), rows)


@pytest.mark.parametrize("n", [1, 2, 7, 700])
@pytest.mark.parametrize("factors", [
    [mf.euclidean(3), mf.sphere(3, multiplicity=22)],
    [mf.euclidean(3), mf.sphere(3, multiplicity=22), mf.preshape(22, 3),
     mf.euclidean(3), mf.euclidean(4, multiplicity=22), mf.euclidean(66)],
    [mf.preshape(3, 1, multiplicity=2), mf.preshape(3, 2), mf.sphere(7)],
], ids=["pose", "six_factor", "narrow"])
def test_self_distance_triangle_bitwise(factors, n):
    """A set against itself has the same bits as against a copy, and they are
    symmetric, diagonal included (it is not 0)."""
    m = mf.ManifoldSpec(factors)
    x = mf.random_point(m, np.random.default_rng(n), size=n)
    d = _matrix(m, x, x)
    assert d.tobytes() == _matrix(m, x, x.copy()).tobytes()
    assert d.tobytes() == d.T.copy().tobytes()
    # another set of the same shape takes the full path
    y = mf.random_point(m, np.random.default_rng(n + 1), size=n)
    rows = np.stack([mf.distance(m, x[i], y) for i in range(n)])
    assert _matrix(m, x, y).tobytes() == rows.tobytes()


def test_median_bandwidth_positive(toy_manifold, rng):
    m = toy_manifold
    a = mf.random_point(m, rng, size=50)
    b = mf.random_point(m, rng, size=50)
    bw = me.median_bandwidth(m, a, b)
    assert bw > 0
    # deterministic
    assert bw == me.median_bandwidth(m, a, b)


def test_mmd_discriminates(toy_manifold, toy_means, rng):
    m = toy_manifold
    a_mean, b_mean = toy_means
    ga = mf.WrappedGaussianSpec(m, a_mean, 0.2)
    gb = mf.WrappedGaussianSpec(m, b_mean, 0.2)
    xa = mf.sample_wrapped_gaussian(m, ga, rng, size=200)
    xa2 = mf.sample_wrapped_gaussian(m, ga, rng, size=200)
    xb = mf.sample_wrapped_gaussian(m, gb, rng, size=200)
    bw = me.median_bandwidth(m, xa, xb)
    same = me.geodesic_mmd(m, xa, xa2, bw)
    diff = me.geodesic_mmd(m, xa, xb, bw)
    assert abs(same) < 0.02  # unbiased estimator may dip slightly below zero
    assert diff > 10 * max(same, 1e-4)
    with pytest.raises(InvalidConfig, match="^MMD needs at least 2 points per set, got 1 samples "
                                            "and 200 reference points$"):
        me.geodesic_mmd(m, xa[:1], xb, bw)
    with pytest.raises(InvalidConfig):
        me.geodesic_mmd(m, xa, xb, 0.0)


# ---------------------------------------------------------------------------
# coverage, constraints, report
# ---------------------------------------------------------------------------


def test_mode_coverage_sums_to_one(toy_manifold, toy_means, rng):
    m = toy_manifold
    a, b = toy_means
    ga = mf.WrappedGaussianSpec(m, a, 0.1)
    x = mf.sample_wrapped_gaussian(m, ga, rng, size=100)
    mass, outliers = me._mode_coverage(m, x, [a, b], assign_radius=1.0)
    assert mass[0] > 0.95 and mass[1] == 0.0
    assert abs(mass.sum() + outliers - 1.0) < 1e-12
    mass, outliers = me._mode_coverage(m, x, [a, b], assign_radius=1e-6)
    assert outliers > 0.95


def test_constraint_stats(toy_manifold, rng):
    m = toy_manifold
    x = mf.random_point(m, rng, size=50)
    stats = me.constraint_violation_stats(m, x)
    assert stats.max_deviation < 1e-12
    x[:, 3:] *= 1.001
    [(_, _, sphere_dev)] = mf.point_deviations(m, x)
    assert 0.0009 < sphere_dev.max() < 0.0011
    # factors of different multiplicity give ragged per-copy deviations
    mixed = mf.ManifoldSpec([mf.sphere(2, multiplicity=3), mf.sphere(3, multiplicity=5)])
    y = mf.random_point(mixed, rng, size=50)
    y[7, 9 + 4 * 2 : 9 + 4 * 3] *= 1.01
    stats = me.constraint_violation_stats(mixed, y)
    sphere_dev = max(dev.max() for _, _, dev in mf.point_deviations(mixed, y))
    assert 0.0099 < sphere_dev < 0.0101
    assert stats.max_deviation == sphere_dev


def test_preshape_constraint_stats(rng):
    m = mf.ManifoldSpec([mf.preshape(5, 3)])
    x = mf.random_point(m, rng, size=10)
    x[:, 0] += 0.01  # breaks both centering and unit norm
    dev = {name: d.max() for _, name, d in mf.point_deviations(m, x)}
    assert dev["centroid"] > 1e-4
    assert dev["unit_norm"] > 1e-5


def test_report_csv_row_and_header():
    report = me.MetricReport(mmd=0.01, per_mode_mass=(0.4, 0.5),
                             outlier_fraction=0.1, max_constraint_violation=1e-12,
                             mean_geodesic_nn_distance=0.2, sample_count=100,
                             bandwidth=1.0)
    row = report.csv_row(seed=3, guidance_scale=6.5)
    fields = row.split(",")
    assert len(fields) == len(me.CSV_HEADER.split(","))
    assert fields[0] == "3" and fields[1] == "6.5"
    assert float(fields[2]) == 0.01
    d = dataclasses.asdict(report)
    assert json.loads(json.dumps(d)) == {**d, "per_mode_mass": [0.4, 0.5]}
    with pytest.raises(InvalidConfig):
        me.MetricReport(mmd=0.01, per_mode_mass=(0.4, 0.5), outlier_fraction=0.3,
                        max_constraint_violation=0.0,
                        mean_geodesic_nn_distance=0.2, sample_count=1, bandwidth=1.0)


def test_evaluate_samples_end_to_end(toy_manifold, toy_means, rng):
    m = toy_manifold
    a, b = toy_means
    ga = mf.WrappedGaussianSpec(m, a, 0.15)
    samples = mf.sample_wrapped_gaussian(m, ga, rng, size=80)
    reference = mf.sample_wrapped_gaussian(m, ga, rng, size=80)
    report = me.evaluate_samples(m, samples, reference, modes=[a, b],
                                 assign_radius=1.0)
    assert report.sample_count == 80
    assert abs(report.mmd) < 0.05
    assert report.per_mode_mass[0] > 0.9
    assert report.max_constraint_violation < 1e-9
    with pytest.raises(InvalidConfig, match="^MMD needs at least 2 points per set, got 0 samples "
                                            "and 80 reference points$"):
        me.evaluate_samples(m, np.empty((0, 7)), reference)


def _within_blocks(n):
    """Index blocks ``(rows, cols)`` of the pairs i < j of n points, in the
    order ``metrics._score`` documents: offsets d from 1 to (n - 1) // 2 in
    blocks of CHUNK_ELEMENTS // n, pairs (i, (i + d) mod n); then, for even
    n, the pairs (i, i + n / 2) for i < n / 2."""
    last, step, i = (n - 1) // 2, max(1, mf.CHUNK_ELEMENTS // max(1, n)), np.arange(n)
    for d in range(1, last + 1, step):
        offsets = np.arange(d, min(d + step, last + 1))[:, None]
        yield np.broadcast_to(i, (len(offsets), n)), (i + offsets) % n
    if n and n % 2 == 0:
        yield np.arange(n // 2)[None, :], np.arange(n // 2, n)[None, :]


def _across_blocks(nx, ny):
    """Row blocks of CHUNK_ELEMENTS // ny rows of all pairs of nx x ny points."""
    step = max(1, mf.CHUNK_ELEMENTS // max(1, ny))
    for r in range(0, nx if ny else 0, step):
        yield np.arange(r, min(r + step, nx))[:, None], np.arange(ny)[None, :]


def _separate_matrices_report(m, samples, reference, bandwidth, modes, assign_radius):
    """The evaluation composed the straightforward way: a fresh distance
    matrix for every term, new kernel arrays, and the pooled median.  The
    kernel entries of each MMD term are added over the blocks and in the
    order that ``metrics._score`` documents."""
    n, k = samples.shape[0], reference.shape[0]
    pooled = np.arange(n + k)
    if n + k > 1000:
        pooled = pooled[::int(np.ceil((n + k) / 1000))]
    if bandwidth is None:
        pool = np.concatenate([samples, reference])[pooled]
        d = _matrix(m, pool, pool)
        bandwidth = float(np.median(d[np.triu_indices(pool.shape[0], k=1)]))
    s2 = 2.0 * bandwidth * bandwidth

    def kernel(x, y):
        d = _matrix(m, x, y)
        return np.exp(-(d * d) / s2)

    # the pooled rows (P) and the rest (Q) of each set, in order
    pa, pb = pooled[pooled < n], pooled[pooled >= n] - n
    qa, qb = np.setdiff1d(np.arange(n), pa), np.setdiff1d(np.arange(k), pb)

    def term(kmat, groups):
        total = 0.0
        for rows, cols, blocks in groups:
            for r, c in blocks:
                total += float(kmat[rows[r], cols[c]].sum())
        return total

    ss = term(kernel(samples, samples), [
        (pa, pa, _within_blocks(len(pa))), (pa, qa, _across_blocks(len(pa), len(qa))),
        (qa, qa, _within_blocks(len(qa)))])
    sr = term(kernel(samples, reference), [
        (x, y, _across_blocks(len(x), len(y))) for x in (pa, qa) for y in (pb, qb)])
    rr = term(kernel(reference, reference), [
        (pb, pb, _within_blocks(len(pb))), (pb, qb, _across_blocks(len(pb), len(qb))),
        (qb, qb, _within_blocks(len(qb)))])
    mmd = float(ss / (n * (n - 1) // 2) + rr / (k * (k - 1) // 2) - 2.0 * (sr / (n * k)))
    mass, outliers = (me._mode_coverage(m, samples, modes, assign_radius) if modes
                      else (np.array([1.0]), 0.0))
    nn_mean = float(_matrix(m, samples, reference).min(axis=1).mean())
    return {"mmd": mmd, "per_mode_mass": [float(x) for x in mass],
            "outlier_fraction": outliers, "mean_geodesic_nn_distance": nn_mean,
            "bandwidth": float(bandwidth)}


EVAL_FACTORS = st.one_of(
    st.builds(mf.euclidean, st.integers(1, 4), st.integers(1, 3)),
    st.builds(mf.sphere, st.integers(1, 9), st.integers(1, 3)),
    st.builds(mf.preshape, st.integers(2, 4), st.integers(1, 3), st.integers(1, 2)),
)


@settings(max_examples=30, deadline=None)
@given(factors=st.lists(EVAL_FACTORS, min_size=1, max_size=3),
       n=st.integers(2, 40), extra=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       bandwidth=st.sampled_from([None, 0.8]), with_modes=st.booleans())
@example(factors=[mf.euclidean(3), mf.sphere(3, multiplicity=22)], n=701, extra=-51,
         seed=3, bandwidth=None, with_modes=True)
def test_evaluate_samples_equals_separate_matrices(factors, n, extra, seed, bandwidth,
                                                   with_modes):
    # N != M; the 701 x 650 example pools every 2nd of 1351 rows, so the
    # pool's stride crosses the samples/reference boundary off step.
    m = mf.ManifoldSpec(factors)
    rng = np.random.default_rng(seed)
    samples = mf.random_point(m, rng, size=n)
    reference = mf.random_point(m, rng, size=n + extra)
    modes = list(mf.random_point(m, rng, size=2)) if with_modes else None
    report = json.loads(json.dumps(dataclasses.asdict(me.evaluate_samples(
        m, samples, reference, bandwidth=bandwidth, modes=modes, assign_radius=1.5))))
    expected = _separate_matrices_report(m, samples, reference, bandwidth, modes, 1.5)
    assert {k: report[k] for k in expected} == expected
    if bandwidth is None:
        assert me.median_bandwidth(m, samples, reference) == expected["bandwidth"]
    assert me.geodesic_mmd(m, samples, reference, expected["bandwidth"]) == expected["mmd"]


def test_evaluate_samples_checks_in_order(toy_manifold, rng):
    """The point counts first, then the given bandwidth, then the median
    heuristic's."""
    m = toy_manifold
    x = mf.random_point(m, rng, size=4)
    with pytest.raises(InvalidConfig, match="^MMD needs at least 2 points per set, got 1 samples"):
        me.evaluate_samples(m, x[:1], x, bandwidth=-1.0)
    bandwidth = r"^bandwidth must be a finite number in \(0, inf\), got {}$"
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidConfig, match=bandwidth.format(bad)):
            me.evaluate_samples(m, x, x, bandwidth=bad)
        with pytest.raises(InvalidConfig, match=bandwidth.format(bad)):
            me.geodesic_mmd(m, x, x, bad)
    with pytest.raises(InvalidConfig, match=bandwidth.format(0.0)):  # identical points
        me.evaluate_samples(m, np.tile(x[0], (3, 1)), np.tile(x[0], (3, 1)))


@pytest.mark.parametrize("cut", ["narrow", "wide"])
def test_scoring_checks_the_width_first(toy_manifold, rng, monkeypatch, cut):
    """Points narrower or wider than the manifold raise DimensionMismatch
    before any distance is computed; an empty set of any width still gives
    the count's InvalidConfig."""
    m = toy_manifold
    x = mf.random_point(m, rng, size=5)
    bad = x[:, :-1] if cut == "narrow" else np.hstack([x, x[:, :1]])

    def no_distances(*args):
        raise AssertionError("a distance was computed")

    monkeypatch.setattr(mf, "_copy_distance", no_distances)
    for score in (lambda a, b: me.evaluate_samples(m, a, b, modes=[x[0]]),
                  lambda a, b: me.geodesic_mmd(m, a, b, 1.0),
                  lambda a, b: me.median_bandwidth(m, a, b)):
        for a, b in ((bad, x), (x, bad)):
            with pytest.raises(DimensionMismatch, match="does not match the manifold"):
                score(a, b)
    with pytest.raises(InvalidConfig, match="^MMD needs at least 2 points per set, got 0 samples"):
        me.evaluate_samples(m, np.empty((0, 0)), bad)


def test_scoring_workers_keep_caller_errstate(monkeypatch):
    # inf - inf is invalid: ignored under the caller's errstate on every worker
    m = mf.ManifoldSpec([mf.euclidean(2)])
    a = np.zeros((60, 2))
    a[::7, 0] = np.inf
    monkeypatch.setattr(mf, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(mf, "CHUNK_ELEMENTS", 60)  # many blocks on the pool
    with np.errstate(invalid="ignore"):
        assert np.isnan(me.geodesic_mmd(m, a, a, 1.0))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        me.geodesic_mmd(m, a, a, 1.0)


POSE = [mf.euclidean(3), mf.sphere(3, multiplicity=22)]


def test_evaluate_samples_memory_is_bounded(monkeypatch):
    """The pairs are streamed in blocks: from 1000 to 4000 points per set
    (16 times the pairs) the peak stays nearly flat, and 1000 x 1000 pose
    points stay within 12 MiB (on 2 CPUs, each holding one block)."""
    monkeypatch.setattr(mf, "_usable_cpus", lambda: 2)

    def peak(m, n):
        rng = np.random.default_rng(n)
        a, b = mf.random_point(m, rng, size=n), mf.random_point(m, rng, size=n)
        tracemalloc.start()
        try:
            me.evaluate_samples(m, a, b, modes=[a[0], b[0]])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    cheap = mf.ManifoldSpec([mf.sphere(2)])
    assert peak(cheap, 4000) < 1.25 * peak(cheap, 1000)
    assert peak(mf.ManifoldSpec(POSE), 1000) <= 12 * 2**20


def test_evaluate_samples_bits_do_not_depend_on_cpu_count(monkeypatch):
    """The same report bits on 1 and on 3 CPUs, over several blocks of every
    set, computing each pair once; ``geodesic_mmd`` at the median-heuristic
    bandwidth sums in the same blocks, so it gives the report's MMD bit for
    bit.  One CPU runs inline; three get a pool of three for each of the two
    passes, joined before the call returns."""
    m = mf.ManifoldSpec(POSE)
    rng = np.random.default_rng(11)
    samples, reference = mf.random_point(m, rng, size=900), mf.random_point(m, rng, size=700)
    assert 450 * 900 > 4 * mf.CHUNK_ELEMENTS  # several blocks per set beyond the pool
    computed = []
    copy_distance = mf._copy_distance

    def counting(mm, x, y):
        d = copy_distance(mm, x, y)
        computed.append(d.size)
        return d

    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

        def shutdown(self, wait=True, **kwargs):
            pools.append(("shutdown", wait))
            super().shutdown(wait=wait, **kwargs)

    monkeypatch.setattr(mf, "_copy_distance", counting)
    monkeypatch.setattr(mf, "ThreadPoolExecutor", CountingPool)
    before = threading.enumerate()
    reports = {}
    for cpus in (1, 3):
        computed.clear()
        monkeypatch.setattr(mf, "_usable_cpus", lambda: cpus)
        reports[cpus] = json.dumps(dataclasses.asdict(me.evaluate_samples(
            m, samples, reference, modes=[samples[0], reference[0]])))
        # every pair once: a set against itself i < j only, plus 2 modes
        assert sum(computed) == 900 * 899 // 2 + 700 * 699 // 2 + 900 * 700 + 900 * 2
    assert pools == [3, ("shutdown", True)] * 2
    assert threading.enumerate() == before  # no worker outlives the call
    assert reports[1] == reports[3]
    report = json.loads(reports[1])
    bandwidth = me.median_bandwidth(m, samples, reference)
    assert bandwidth == report["bandwidth"]
    assert me.geodesic_mmd(m, samples, reference, bandwidth) == report["mmd"]


def test_modes_as_one_array(rng):
    """A (K, D) array of modes scores like the list of its rows; a (K, D + 1)
    array is rejected as points of the wrong dimension."""
    m = mf.ManifoldSpec([mf.sphere(2)])
    x = mf.random_point(m, rng, size=4)
    modes = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    report = me.evaluate_samples(m, x, x, modes=modes)
    assert report == me.evaluate_samples(m, x, x, modes=list(modes))
    me.check_scoring(m, (4, 3), (4, 3), modes=modes)
    wide = np.zeros((2, 4))
    with pytest.raises(DimensionMismatch):
        me.check_scoring(m, (4, 3), (4, 3), modes=wide)
    with pytest.raises(DimensionMismatch):
        me.evaluate_samples(m, x, x, modes=wide)


INF = float("inf")


@pytest.mark.parametrize("build", [
    lambda: nn.TrainConfig(total_steps=1, max_lr=float("nan")),
    lambda: nn.TrainConfig(total_steps=1, grad_clip_norm=float("nan")),
    lambda: nn.TrainConfig(total_steps=1, weight_decay=float("nan")),
    lambda: mo.MotionSequence(frames=[], fps=float("nan"), skeleton=mo.default_skeleton()),
    lambda: fl.GuidanceConfig(scale=float("nan")),
    lambda: mf.WrappedGaussianSpec(mf.ManifoldSpec([mf.sphere(2)]), [0.0, 0.0, 1.0],
                                   float("nan")),
    lambda: me.check_scoring(mf.ManifoldSpec([mf.sphere(2)]), (2, 3), (2, 3),
                             modes=[np.array([0.0, 0.0, 1.0])], assign_radius=float("nan")),
    lambda: mo.load_motion_dict({  # a quaternion of norm 2
        "fps": 30.0, "skeleton": {"parents": [-1], "rest_offsets": [[0.0, 0.0, 0.0]]},
        "frames": [{"root_translation": [0.0, 0.0, 0.0], "rotations": [[2.0, 0.0, 0.0, 0.0]]}],
    }, tol=float("nan")),
    lambda: fl.sample_ode(mf.ManifoldSpec([mf.sphere(2)]), None,
                          mf.WrappedGaussianSpec(mf.ManifoldSpec([mf.sphere(2)]),
                                                 [0.0, 0.0, 1.0], 1.0),
                          fl.IntegratorConfig(1), fl.GuidanceConfig(), None,
                          np.random.default_rng(0), num_samples=-1),
    # inf for each check with no upper bound, and an fps of 0
    lambda: nn.TrainConfig(total_steps=1, max_lr=INF),
    lambda: nn.TrainConfig(total_steps=1, grad_clip_norm=INF),
    lambda: nn.TrainConfig(total_steps=1, weight_decay=INF),
    lambda: mo.MotionSequence(frames=[], fps=INF, skeleton=mo.default_skeleton()),
    lambda: fl.GuidanceConfig(scale=INF),
    lambda: mf.WrappedGaussianSpec(mf.ManifoldSpec([mf.sphere(2)]), [0.0, 0.0, 1.0], INF),
    lambda: me.check_scoring(mf.ManifoldSpec([mf.sphere(2)]), (2, 3), (2, 3),
                             modes=[np.array([0.0, 0.0, 1.0])], assign_radius=INF),
    lambda: mo.load_motion_dict({}, tol=INF),
    lambda: me.ToyTaskSpec("rotating_joint", 4, fps=0),
    lambda: me.MixtureComponent([0.0, 0.0, 1.0], scale=INF),
], ids=["max_lr", "grad_clip_norm", "weight_decay", "fps", "guidance", "prior_scale",
        "assign_radius", "tolerance", "num_samples", "max_lr_inf", "grad_clip_norm_inf",
        "weight_decay_inf", "fps_inf", "guidance_inf", "prior_scale_inf", "assign_radius_inf",
        "tolerance_inf", "task_fps_0", "component_scale_inf"])
def test_nan_fails_range_checks(build):
    with pytest.raises(InvalidConfig, match="must be a finite number in|must be an integer"):
        build()


@pytest.mark.parametrize("score, value, message", [
    (me.evaluate_samples, np.nan, "^{where} must be finite$"),
    (me.evaluate_samples, np.inf, "^{where} must be finite$"),
    (me.evaluate_samples, -np.inf, "^{where} must be finite$"),
    (me.median_bandwidth, np.nan, "^points to score must not be NaN$"),
], ids=["evaluate_samples", "evaluate_samples-inf", "evaluate_samples-neg_inf",
        "median_bandwidth"])
@pytest.mark.parametrize("where", ["samples", "reference"])
def test_nan_point_is_refused_where_points_are_scored(score, value, message, where):
    """One NaN coordinate in either set is named as such, not as the NaN
    bandwidth that the median heuristic would make of it; ``evaluate_samples``
    also names the set of an infinite one.  ``median_bandwidth`` leaves an
    infinite one to the caller's errstate, as ``geodesic_mmd`` does."""
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    rng = np.random.default_rng(0)
    a, b = mf.random_point(m, rng, size=20), mf.random_point(m, rng, size=20)
    (a if where == "samples" else b)[7, 4] = value
    with pytest.raises(InvalidConfig, match=message.format(where=where)):
        score(m, a, b)
