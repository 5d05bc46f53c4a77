import dataclasses
import json
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from conftest import defect
from hypothesis import example, given
from hypothesis import strategies as st

from rmgflow import manifold as mf
from rmgflow.errors import (
    AntipodalPoints,
    DimensionMismatch,
    InvalidConfig,
    NotTangent,
)

ALL_KINDS = {
    "sphere2": mf.ManifoldSpec([mf.sphere(2)]),
    "sphere3": mf.ManifoldSpec([mf.sphere(3)]),
    "preshape53": mf.ManifoldSpec([mf.preshape(5, 3)]),
    "product": mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=22)]),
}


def _random_pair(m, rng, n=32, max_norm=2.0):
    x = mf.random_point(m, rng, size=n)
    v = mf.random_tangent(m, x, rng, max_norm=max_norm)
    return x, v


# ---------------------------------------------------------------------------
# spec construction and serialization
# ---------------------------------------------------------------------------


def test_factor_validation():
    with pytest.raises(InvalidConfig):
        mf.euclidean(0)
    with pytest.raises(InvalidConfig):
        mf.sphere(0)
    with pytest.raises(InvalidConfig):
        mf.preshape(1, 3)
    with pytest.raises(InvalidConfig):
        mf.FactorSpec(kind="torus", dim=2)
    with pytest.raises(InvalidConfig):
        mf.sphere(3, multiplicity=0)
    with pytest.raises(InvalidConfig):
        mf.ManifoldSpec([])


@pytest.mark.parametrize("bad", [float("nan"), 2.5, True], ids=["nan", "fraction", "bool"])
@pytest.mark.parametrize("kwargs, field", [
    ({"kind": "euclidean", "dim": None}, "euclidean dim"),
    ({"kind": "sphere", "dim": None}, "sphere dim"),
    ({"kind": "sphere", "dim": 3, "multiplicity": None}, "multiplicity"),
    ({"kind": "preshape", "landmarks": None, "spatial_dim": 3}, "landmarks"),
    ({"kind": "preshape", "landmarks": 4, "spatial_dim": None}, "spatial_dim"),
], ids=["euclidean_dim", "sphere_dim", "multiplicity", "landmarks", "spatial_dim"])
def test_factor_integer_fields_reject_non_integers(kwargs, field, bad):
    with pytest.raises(InvalidConfig, match=field):
        mf.FactorSpec(**{k: bad if v is None else v for k, v in kwargs.items()})


@pytest.mark.parametrize("lead", [(), (0,), (5,), (2, 3)])
def test_blocks_round_trip(lead):
    """Contiguous factor blocks: coordinate planes for every factor; the
    identity through ``_map`` gives the array back, zero rows included, and
    a tuple of blocks gives a tuple of arrays."""
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=4), mf.sphere(7),
                         mf.preshape(3, 2, multiplicity=2), mf.euclidean(2, multiplicity=3)])
    a = np.random.default_rng(0).standard_normal(lead + (m.total_ambient_dim,))
    blocks = mf._blocks(m, a)
    shapes = [(3,) + lead + (1,), (4,) + lead + (4,), (8,) + lead + (1,), (6,) + lead + (2,),
              (2,) + lead + (3,)]
    assert [b.shape for b in blocks] == shapes
    assert all(b.flags.c_contiguous for b in blocks)
    same = mf._map(m, lambda f, b: b, a)
    assert same.shape == a.shape and same.tobytes() == a.tobytes()
    same, negated, positive = mf._map(m, lambda f, b: (b, -b, b > 0), a)
    assert same.tobytes() == a.tobytes() and negated.tobytes() == (-a).tobytes()
    assert positive.dtype == bool and np.array_equal(positive, a > 0)


def test_ambient_dimensions():
    assert mf.euclidean(3).ambient_dim == 3
    assert mf.sphere(3).ambient_dim == 4
    assert mf.sphere(3, multiplicity=22).ambient_dim == 88
    assert mf.preshape(5, 3).ambient_dim == 15
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=22)])
    assert m.total_ambient_dim == 91


def test_json_roundtrip():
    doc = {"factors": [{"kind": "sphere", "dim": 3, "multiplicity": 22},
                       {"kind": "euclidean", "dim": 3, "multiplicity": 1}]}
    m = mf.ManifoldSpec.from_json_dict(doc)
    assert m.to_json_dict() == doc
    m2 = mf.ManifoldSpec.from_json_dict(json.loads(json.dumps(m.to_json_dict())))
    assert m2 == m
    p = mf.ManifoldSpec([mf.preshape(5, 3)])
    assert mf.ManifoldSpec.from_json_dict(p.to_json_dict()) == p


def test_segments_layout():
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=2)])
    assert m.blocks == ((mf.euclidean(3), slice(0, 3)),
                        (mf.sphere(3, multiplicity=2), slice(3, 11)))


# ---------------------------------------------------------------------------
# exp / log / geodesic
# ---------------------------------------------------------------------------


def test_euclidean_exp_is_addition():
    m = mf.ManifoldSpec([mf.euclidean(3)])
    out = mf.exp_map(m, [1.0, 2.0, 3.0], [1.0, 0.0, -1.0])
    assert np.array_equal(out, [2.0, 2.0, 2.0])


def test_sphere_log_known_value():
    m = mf.ManifoldSpec([mf.sphere(2)])
    v = mf.log_map(m, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(v, [0.0, np.pi / 2, 0.0], atol=1e-12)


def test_sphere_geodesic_midpoint():
    m = mf.ManifoldSpec([mf.sphere(2)])
    mid = mf.geodesic(m, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5)
    r = np.sqrt(0.5)
    assert np.allclose(mid, [r, r, 0.0], atol=1e-12)


def test_euclidean_geodesic_is_linear():
    m = mf.ManifoldSpec([mf.euclidean(2)])
    p = mf.geodesic(m, [0.0, 0.0], [2.0, 4.0], 0.25)
    assert np.array_equal(p, [0.5, 1.0])
    v = mf.geodesic_velocity(m, [0.0, 0.0], [2.0, 4.0], 0.7)
    assert np.array_equal(v, [2.0, 4.0])


@pytest.mark.parametrize("name", list(ALL_KINDS))
def test_log_exp_inverse(name, rng):
    m = ALL_KINDS[name]
    x, v = _random_pair(m, rng)
    y = mf.exp_map(m, x, v)
    assert np.max(np.abs(mf.log_map(m, x, y) - v)) < 1e-8
    assert np.max(np.abs(mf.exp_map(m, x, mf.log_map(m, x, y)) - y)) < 1e-8


@pytest.mark.parametrize("name", list(ALL_KINDS))
def test_geodesic_endpoints(name, rng):
    m = ALL_KINDS[name]
    x, v = _random_pair(m, rng)
    y = mf.exp_map(m, x, v)
    assert np.max(np.abs(mf.geodesic(m, x, y, 0.0) - x)) < 1e-12
    assert np.max(np.abs(mf.geodesic(m, x, y, 1.0) - y)) < 1e-12


@pytest.mark.parametrize("name", list(ALL_KINDS))
def test_distance_equals_log_norm(name, rng):
    m = ALL_KINDS[name]
    x, v = _random_pair(m, rng)
    y = mf.exp_map(m, x, v)
    d = mf.distance(m, x, y)
    assert np.allclose(d, np.linalg.norm(mf.log_map(m, x, y), axis=-1), atol=1e-9)


def test_small_angle_branch(rng):
    m = mf.ManifoldSpec([mf.sphere(3)])
    x = mf.random_point(m, rng, size=8)
    v = 1e-8 * mf.random_tangent(m, x, rng)
    y = mf.exp_map(m, x, v)
    assert np.max(np.abs(np.linalg.norm(y, axis=-1) - 1.0)) < 1e-12
    assert np.max(np.abs(mf.log_map(m, x, y) - v)) < 1e-14


def test_antipodal_rejected():
    m = mf.ManifoldSpec([mf.sphere(2)])
    with pytest.raises(AntipodalPoints):
        mf.log_map(m, [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0])
    for op in (mf.geodesic, mf.geodesic_velocity):
        with pytest.raises(AntipodalPoints):
            op(m, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], 0.5)


def test_exp_rejects_non_tangent():
    m = mf.ManifoldSpec([mf.sphere(2)])
    with pytest.raises(NotTangent):
        mf.exp_map(m, [1.0, 0.0, 0.0], [0.5, 0.1, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("index", [0, 5])
def test_exp_rejects_non_finite_tangent(bad, index):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3)])
    x = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    v = np.zeros(7)
    v[index] = bad
    assert not np.isfinite(defect(m, x, v))
    with pytest.raises(NotTangent):
        mf.exp_map(m, x, v)


def _oracle_dot(x, y):
    """Per-copy inner product over the last axis: the products added left to
    right onto a zero start, kept as a trailing axis of length 1."""
    acc = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1] + (1,))
    for k in range(x.shape[-1]):
        acc += x[..., k:k + 1] * y[..., k:k + 1]
    return acc


@pytest.mark.parametrize("width", [*range(1, 20), 66, 127, 128, 129, 136, 300])
def test_dot_adds_left_to_right(width):
    # _dot over coordinate planes adds the products left to right onto a zero
    # start at every width; below 8 that is also numpy's float64 add-reduce
    # order, so narrow copies keep the bits of np.sum.
    rng = np.random.default_rng(width)
    rows = min(50000, 600000 // width)  # at most about 600k coordinates per operand
    for xs, ys in [((rows,), (rows,)), ((200, 7), (200, 7)),
                   ((1, min(1000, rows), 22), (1, min(1000, rows), 22)),
                   ((100, 1, 3), (1, 80, 3))]:
        x = rng.standard_normal(xs + (width,))
        y = rng.standard_normal(ys + (width,))
        planes_x, planes_y = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
        got = mf._dot(planes_x, planes_y)
        assert got.tobytes() == _oracle_dot(x, y)[..., 0].tobytes()
        assert mf._norm(planes_x).tobytes() == np.sqrt(_oracle_dot(x, x)[..., 0]).tobytes()
        if width < 8:
            assert got.tobytes() == np.sum(x * y, axis=-1).tobytes()
        else:  # one row alone has the bits of that row in contiguous planes
            batch = mf._dot(np.ascontiguousarray(planes_x), np.ascontiguousarray(planes_y))
            one = x.reshape(-1, width)[:1].T, y.reshape(-1, width)[:1].T
            assert mf._dot(*one).tobytes() == batch.reshape(-1)[:1].tobytes()
    # every product -0.0: the zero start makes the sum +0.0
    neg, one = -np.zeros((3, width)), np.ones((3, width))
    assert mf._dot(neg.T, one.T).tobytes() == np.zeros(3).tobytes()


def test_dimension_mismatch():
    m = mf.ManifoldSpec([mf.sphere(2)])
    with pytest.raises(DimensionMismatch):
        mf.log_map(m, [1.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# per-factor dispatch
# ---------------------------------------------------------------------------

FACTORS = st.one_of(
    st.builds(mf.euclidean, st.integers(1, 4), st.integers(1, 4)),
    # sphere copies of width 2-10 run on both sides of numpy's 8 partial sums,
    # and one of width 151 on its halving
    st.builds(mf.sphere, st.integers(1, 9), st.integers(1, 4)),
    st.just(mf.sphere(150)),
    st.builds(mf.preshape, st.integers(2, 4), st.integers(1, 3), st.integers(1, 4)),
)


def _copies(m):
    """(one-copy manifold, slice) for every copy of every factor of m."""
    out = []
    for f, sl in m.blocks:
        one = mf.ManifoldSpec([dataclasses.replace(f, multiplicity=1)])
        per = f.ambient_dim_per_copy
        out += [(one, slice(sl.start + j * per, sl.start + (j + 1) * per))
                for j in range(f.multiplicity)]
    return out


@given(st.lists(FACTORS, min_size=1, max_size=3), st.integers(0, 2**32 - 1))
def test_product_ops_equal_per_copy_ops(factors, seed):
    m = mf.ManifoldSpec(factors)
    rng = np.random.default_rng(seed)
    x = mf.random_point(m, rng, size=5)
    v = mf.random_tangent(m, x, rng, max_norm=2.0)
    y = mf.exp_map(m, x, v)
    a = rng.standard_normal(x.shape)
    t = rng.uniform(0.0, 1.0, size=5)
    ops = {
        "exp": (mf.exp_map, x, v),
        "log": (mf.log_map, x, y),
        "project": (mf.project_tangent, x, a),
        "velocity": (lambda mm, p, q: mf.geodesic_velocity(mm, p, q, t), x, y),
    }
    for name, (op, p, q) in ops.items():
        whole = op(m, p, q)
        for one, sl in _copies(m):
            assert np.array_equal(whole[:, sl], op(one, p[:, sl], q[:, sl])), name


@pytest.mark.parametrize("factors", [
    [mf.euclidean(3), mf.sphere(3, multiplicity=22)],
    [mf.euclidean(3), mf.sphere(3, multiplicity=22), mf.preshape(22, 3),
     mf.euclidean(3), mf.euclidean(4, multiplicity=22), mf.euclidean(66)],
    [mf.preshape(5, 3, multiplicity=3)],
], ids=["pose", "six_factor", "preshape"])
def test_chunked_batch_equals_rows(factors):
    m = mf.ManifoldSpec(factors)
    B = 2000
    assert B * m.total_ambient_dim > mf.CHUNK_ELEMENTS
    rng = np.random.default_rng(17)
    x = mf.random_point(m, rng, size=B)
    v = mf.random_tangent(m, x, rng, max_norm=2.0)
    y = mf.exp_map(m, x, v)
    a = rng.standard_normal(x.shape)
    t = rng.uniform(0.0, 1.0, size=B)
    batched = {
        "exp": (y, [mf.exp_map(m, x[i], v[i]) for i in range(B)]),
        "log": (mf.log_map(m, x, y), [mf.log_map(m, x[i], y[i]) for i in range(B)]),
        "project": (mf.project_tangent(m, x, a),
                    [mf.project_tangent(m, x[i], a[i]) for i in range(B)]),
        "velocity": (mf.geodesic_velocity(m, x, y, t),
                     [mf.geodesic_velocity(m, x[i], y[i], t[i]) for i in range(B)]),
        "distance": (mf.distance(m, x, y), [mf.distance(m, x[i], y[i]) for i in range(B)]),
        "pairwise": (mf.distance(m, x[:, None, :], y[None, :50, :]),
                     [mf.distance(m, x[i], y[:50]) for i in range(B)]),
    }
    for name, (whole, rows) in batched.items():
        assert np.array_equal(whole, np.stack(rows)), name


@pytest.mark.parametrize("factors", [
    [mf.euclidean(3), mf.sphere(3, multiplicity=2)],
    [mf.preshape(3, 2, multiplicity=2), mf.sphere(7)],
    [mf.euclidean(3), mf.sphere(3, multiplicity=22), mf.preshape(22, 3)],
], ids=["toy", "narrow_preshapes", "pose_preshape"])
@pytest.mark.parametrize("per_point", [False, True], ids=["scalar_t", "per_point_t"])
def test_geodesic_on_two_leading_axes_equals_per_point(factors, per_point):
    """The blocks of a (2, 3, D) batch hold the coordinates of narrow copies
    on their axis -4, not -3."""
    m = mf.ManifoldSpec(factors)
    rng = np.random.default_rng(3)
    x = mf.random_point(m, rng, size=(2, 3))
    y = mf.exp_map(m, x, mf.random_tangent(m, x, rng, max_norm=2.0))
    t = rng.uniform(0.0, 1.0, size=(2, 3)) if per_point else 0.5
    for op in (mf.geodesic, mf.geodesic_velocity):
        whole = op(m, x, y, t)
        for i in np.ndindex(2, 3):
            assert np.array_equal(whole[i], op(m, x[i], y[i], t[i] if per_point else t))


@pytest.mark.parametrize("op, bound_mib", [("project", 3.81), ("exp", 4.45)])
def test_chunks_count_their_copies(pose_manifold, op, bound_mib):
    """A chunk sizes its copied blocks and result to CHUNK_ELEMENTS, so at
    4000 x 91 the tracemalloc peak, the 2.8 MiB output included, stays
    within that of the strided views these ops once read (3.81 and 4.45
    MiB)."""
    m = pose_manifold
    rng = np.random.default_rng(0)
    x = mf.random_point(m, rng, size=4000)
    v = mf.random_tangent(m, x, rng, max_norm=2.0)
    a = rng.standard_normal(x.shape)
    run = {"project": lambda: mf.project_tangent(m, x, a), "exp": lambda: mf.exp_map(m, x, v)}[op]
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


# Leading shapes of the first and second operands of an op.
LEADS = {
    "point": lambda n, k: ((), ()),
    "rows": lambda n, k: ((n,), (n,)),
    "grid": lambda n, k: ((2, 3), (2, 3)),
    "outer": lambda n, k: ((n, 1), (1, k)),
    "point_to_rows": lambda n, k: ((), (n,)),
}


@given(st.lists(FACTORS, min_size=1, max_size=3), st.sampled_from(list(LEADS)),
       st.integers(1, 4), st.integers(1, 3),
       st.sampled_from([1, 5, 64, mf.CHUNK_ELEMENTS]), st.integers(0, 2**32 - 1))
@example([mf.euclidean(3), mf.sphere(3, multiplicity=2)], "grid", 1, 1, mf.CHUNK_ELEMENTS, 0)
@example([mf.preshape(3, 2, multiplicity=2), mf.sphere(7)], "grid", 1, 1, mf.CHUNK_ELEMENTS, 0)
def test_public_ops_on_broadcast_shapes_equal_per_point_calls(factors, lead, n, k, chunk, seed):
    """Every public op, on any broadcast leading shape and chunk size, has
    the bits of one call per point of the broadcast shape."""
    m = mf.ManifoldSpec(factors)
    sx, sy = LEADS[lead](n, k)
    shape = np.broadcast_shapes(sx, sy)
    rng = np.random.default_rng(seed)
    x = mf.random_point(m, rng, size=sx)
    xb = np.broadcast_to(x, shape + x.shape[-1:])
    v = mf.random_tangent(m, xb, rng, max_norm=2.0)
    y = mf.exp_map(m, x, v)
    far = np.where(rng.random(shape + (1,)) < 0.5, -xb, mf.random_point(m, rng, size=shape))
    a = rng.standard_normal(sy + x.shape[-1:])
    t = rng.uniform(0.0, 1.0, size=sy)
    g = mf.WrappedGaussianSpec(m, mf.random_point(m, rng), rng.uniform(0.0, 1.0, len(factors)))

    def coords(arr):
        return arr, 1

    def times(arr):
        return np.asarray(arr), 0

    ops = {
        "exp": (mf.exp_map, coords(x), coords(v)),
        "log": (mf.log_map, coords(x), coords(y)),
        "project": (mf.project_tangent, coords(x), coords(a)),
        "distance": (mf.distance, coords(x), coords(far)),
        "deviations": (lambda mm, p: [d for _, _, d in mf.point_deviations(mm, p)],
                       coords(xb + 1e-3 * a)),
        "geodesic": (mf.geodesic, coords(x), coords(y), times(t)),
        "velocity": (mf.geodesic_velocity, coords(x), coords(y), times(t)),
        "geodesic_scalar_t": (mf.geodesic, coords(x), coords(y), times(0.25)),
        "velocity_scalar_t": (mf.geodesic_velocity, coords(x), coords(y), times(0.25)),
    }
    seeded = {  # op(rng, i): the whole batch for i None, else point i
        "random_point": lambda r, i: mf.random_point(m, r, size=shape if i is None else None),
        "wrapped": lambda r, i: mf.sample_wrapped_gaussian(
            m, g, r, size=shape if i is None else None),
        "random_tangent": lambda r, i: mf.random_tangent(m, xb if i is None else xb[i], r),
        "capped_tangent": lambda r, i: mf.random_tangent(
            m, xb if i is None else xb[i], r, max_norm=0.5),
    }
    with patch.object(mf, "CHUNK_ELEMENTS", chunk):
        for name, (op, *operands) in ops.items():
            whole = op(m, *(arr for arr, _ in operands))
            whole = whole if isinstance(whole, list) else [whole]
            for i in np.ndindex(shape):
                one = op(m, *(np.broadcast_to(arr, shape + arr.shape[arr.ndim - trail:])[i]
                              for arr, trail in operands))
                for w, o in zip(whole, one if isinstance(one, list) else [one]):
                    assert w[i].tobytes() == np.asarray(o).tobytes(), (name, i)
        for name, op in seeded.items():
            whole = op(np.random.default_rng(seed), None)
            r = np.random.default_rng(seed)
            for i in np.ndindex(shape):
                assert whole[i].tobytes() == op(r, i).tobytes(), (name, i)


# ---------------------------------------------------------------------------
# distance kernel
# ---------------------------------------------------------------------------


def _oracle_distance(m, x, y):
    """The per-factor distance formula on (..., multiplicity, width) views,
    squares added to the total in copy order."""
    total = np.zeros(np.broadcast_shapes(x.shape, y.shape)[:-1])
    for f, sl in m.blocks:
        copies = (f.multiplicity, f.ambient_dim_per_copy)
        xs = x[..., sl].reshape(x.shape[:-1] + copies)
        ys = y[..., sl].reshape(y.shape[:-1] + copies)
        if f.kind == "euclidean":
            d = np.sqrt(_oracle_dot(ys - xs, ys - xs))
        else:
            d = np.arccos(np.clip(_oracle_dot(xs, ys), -1.0, 1.0))
        d *= d
        for j in range(f.multiplicity):
            total += d[..., j, 0]
    return np.sqrt(total)


def _bits(a):
    """Bytes of ``a`` with every NaN made the same NaN.  A NaN's sign says
    which operand numpy's add loop passed on: the contiguous and the strided
    loop differ there, so it is not part of the formula."""
    a = np.asarray(a)
    return np.where(np.isnan(a), np.nan, a).tobytes()


WIDE_FACTORS = st.one_of(
    # copy widths 1-12 and 2-12, and one of width 151: narrow copies, where
    # left to right is also numpy's add-reduce order, and wide ones
    st.builds(mf.euclidean, st.integers(1, 12), st.integers(1, 3)),
    st.builds(mf.sphere, st.integers(1, 11), st.integers(1, 3)),
    st.just(mf.sphere(150)),
    st.builds(mf.preshape, st.integers(2, 4), st.integers(1, 3), st.integers(1, 2)),
)


def _with_specials(rng, a, count):
    """``a`` with ``count`` entries set to +0.0, -0.0 or NaN."""
    a = a.copy()
    flat = a.reshape(-1)
    idx = rng.integers(0, flat.size, size=count)
    flat[idx] = rng.choice([0.0, -0.0, np.nan], size=count)
    return a


@given(st.lists(WIDE_FACTORS, min_size=1, max_size=3), st.integers(1, 12), st.integers(1, 12),
       st.integers(0, 2**32 - 1))
def test_distance_equals_per_factor_oracle(factors, n, k, seed):
    m = mf.ManifoldSpec(factors)
    rng = np.random.default_rng(seed)
    x = mf.random_point(m, rng, size=n)
    y = mf.random_point(m, rng, size=k)
    y[: min(n, k) // 2] = x[: min(n, k) // 2]  # equal points: dot products near 1
    x = _with_specials(rng, x, rng.integers(0, 4))
    y = _with_specials(rng, y, rng.integers(0, 4))
    x[rng.integers(0, n)] = -0.0  # every product of a row -0.0
    shapes = {
        "elementwise": (x, np.resize(y, x.shape)),
        "point_vs_set": (x[0], y),
        "set_vs_point": (x, y[0]),
        "one_pair": (x[0], y[0]),
        "matrix": (x[:, None, :], y[None, :, :]),
        "matrix_3d": (x[:, None, None, :], np.stack([y, y[::-1]])[None]),
    }
    for name, (a, b) in shapes.items():
        got, want = mf.distance(m, a, b), _oracle_distance(m, a, b)
        assert type(got) is type(want) and np.shape(got) == np.shape(want), name
        assert _bits(got) == _bits(want), name


def test_distance_matrix_bits_equal_oracle():
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=22), mf.euclidean(9)])
    rng = np.random.default_rng(5)
    a = mf.random_point(m, rng, size=600)
    b = mf.random_point(m, rng, size=500)
    d = mf.distance(m, a[:, None, :], b[None, :, :])
    assert d.tobytes() == _oracle_distance(m, a[:, None, :], b[None, :, :]).tobytes()


# ---------------------------------------------------------------------------
# tangent projection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(ALL_KINDS))
def test_projection_idempotent_and_tangent(name, rng):
    m = ALL_KINDS[name]
    x = mf.random_point(m, rng, size=16)
    a = rng.standard_normal(x.shape)
    p1 = mf.project_tangent(m, x, a)
    p2 = mf.project_tangent(m, x, p1)
    assert np.max(np.abs(p2 - p1)) < 1e-12
    assert defect(m, x, p1) < 1e-12


@pytest.mark.parametrize("name", list(ALL_KINDS))
def test_projection_self_adjoint(name, rng):
    m = ALL_KINDS[name]
    x = mf.random_point(m, rng)
    a = rng.standard_normal(x.shape)
    b = rng.standard_normal(x.shape)
    lhs = np.dot(mf.project_tangent(m, x, a), b)
    rhs = np.dot(a, mf.project_tangent(m, x, b))
    assert abs(lhs - rhs) < 1e-10


def test_preshape_projection_centers(rng):
    m = mf.ManifoldSpec([mf.preshape(5, 3)])
    x = mf.random_point(m, rng)
    a = rng.standard_normal(15)
    p = mf.project_tangent(m, x, a).reshape(5, 3)
    assert np.max(np.abs(p.mean(axis=0))) < 1e-12


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
       st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
def test_euclidean_projection_identity(xs, vs):
    m = mf.ManifoldSpec([mf.euclidean(4)])
    out = mf.project_tangent(m, np.array(xs), np.array(vs))
    assert np.array_equal(out, np.array(vs))


# ---------------------------------------------------------------------------
# validation and sampling
# ---------------------------------------------------------------------------


def test_point_deviations_flag_violations():
    """One deviation array per factor and constraint, indexed by factor, not
    by copy; NaN reaches max_constraint_deviation."""
    m = mf.ManifoldSpec([mf.sphere(2)])
    assert mf.max_constraint_deviation(m, [1.0, 0.0, 0.0]) == 0.0
    assert mf.max_constraint_deviation(m, [1.1, 0.0, 0.0]) == pytest.approx(0.1)
    pre = mf.ManifoldSpec([mf.preshape(3, 2)])
    off_center = np.ones(6) / np.sqrt(6.0)
    assert [name for _, name, dev in mf.point_deviations(pre, off_center)
            if dev.max() > 1e-9] == ["centroid"]
    mixed = mf.ManifoldSpec([mf.sphere(2, multiplicity=3), mf.sphere(3, multiplicity=5)])
    y = mf.random_point(mixed, np.random.default_rng(3), size=4)
    y[2, 9 + 4 * 2 : 9 + 4 * 3] *= 1.01
    devs = mf.point_deviations(mixed, y)
    assert [(i, name, dev.shape) for i, name, dev in devs] == [
        (0, "unit_norm", (4, 3)), (1, "unit_norm", (4, 5))]
    assert devs[0][2].max() < 1e-9 and devs[1][2][2, 2] == pytest.approx(0.01)
    y[0, 0] = np.nan
    assert np.isnan(mf.max_constraint_deviation(mixed, y))


def test_wrapped_gaussian_stays_on_manifold(rng):
    m = mf.ManifoldSpec([mf.euclidean(3), mf.sphere(3, multiplicity=4)])
    mean = mf.random_point(m, rng)
    g = mf.WrappedGaussianSpec(m, mean, 0.3)
    x = mf.sample_wrapped_gaussian(m, g, rng, size=200)
    assert x.shape == (200, m.total_ambient_dim)
    assert mf.max_constraint_deviation(m, x) < 1e-9


def test_wrapped_gaussian_zero_scale_is_mean(rng):
    m = mf.ManifoldSpec([mf.sphere(2)])
    mean = np.array([0.0, 0.0, 1.0])
    g = mf.WrappedGaussianSpec(m, mean, 0.0)
    x = mf.sample_wrapped_gaussian(m, g, rng, size=5)
    assert np.max(np.abs(x - mean)) < 1e-12


def test_wrapped_gaussian_per_factor_scales():
    m = mf.ManifoldSpec([mf.euclidean(2), mf.sphere(2)])
    mean = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    g = mf.WrappedGaussianSpec(m, mean, (2.0, 0.1))
    assert g.per_factor_scale == (2.0, 0.1)
    with pytest.raises(DimensionMismatch):
        mf.WrappedGaussianSpec(m, mean, (1.0,))
    with pytest.raises(InvalidConfig):
        mf.WrappedGaussianSpec(m, mean, -1.0)


@pytest.mark.parametrize("size", [2 ** 57, (2 ** 30, 2 ** 27)], ids=["rows", "shape"])
def test_draw_no_array_can_hold_raises_invalid_config(pose_manifold, size):
    """A draw size no float64 array can hold is refused before any draw."""
    m = pose_manifold
    g = mf.WrappedGaussianSpec(m, mf.random_point(m, np.random.default_rng(0)), 0.5)
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    for draw in (lambda: mf.sample_wrapped_gaussian(m, g, rng, size=size),
                 lambda: mf.random_point(m, rng, size=size)):
        with pytest.raises(InvalidConfig, match="more than any array can hold"):
            draw()
    assert rng.bit_generator.state == state


def test_sampling_deterministic(rng):
    m = mf.ManifoldSpec([mf.sphere(3)])
    g = mf.WrappedGaussianSpec(m, np.array([1.0, 0.0, 0.0, 0.0]), 0.5)
    a = mf.sample_wrapped_gaussian(m, g, np.random.default_rng(7), size=10)
    b = mf.sample_wrapped_gaussian(m, g, np.random.default_rng(7), size=10)
    assert np.array_equal(a, b)


def _wrapped_gaussian_chain(m, g, rng, size=None):
    """The former prior draw: scaled noise, project_tangent, then exp_map."""
    xi = rng.standard_normal(mf._draw_shape(m, size))
    scale = np.repeat(g.per_factor_scale, [f.ambient_dim for f in m.factors])
    return mf.exp_map(m, g.mean, mf.project_tangent(m, g.mean, xi * scale))


@pytest.mark.parametrize("size", [None, 1, 3, 256, (2, 3)])
@pytest.mark.parametrize("factors", [
    [mf.euclidean(3), mf.sphere(3)],
    [mf.euclidean(3), mf.sphere(3, multiplicity=22)],
    [mf.euclidean(3), mf.sphere(3, multiplicity=22), mf.preshape(22, 3),
     mf.euclidean(3), mf.euclidean(4, multiplicity=22), mf.euclidean(66)],
    [mf.preshape(3, 1, multiplicity=2), mf.preshape(3, 2)],
    [mf.sphere(6), mf.sphere(7)],
], ids=["toy", "pose", "six_factor", "narrow_preshapes", "s6_x_s7"])
def test_wrapped_gaussian_matches_chain_bitwise(factors, size):
    m = mf.ManifoldSpec(factors)
    mean = mf.random_point(m, np.random.default_rng(1))
    g = mf.WrappedGaussianSpec(m, mean, [0.2 + 0.1 * i for i in range(len(factors))])
    a = mf.sample_wrapped_gaussian(m, g, np.random.default_rng(5), size=size)
    b = _wrapped_gaussian_chain(m, g, np.random.default_rng(5), size=size)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()
