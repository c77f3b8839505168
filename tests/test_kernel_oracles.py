"""The evaluation kernels against their earlier, plainer versions.

Each oracle below is an earlier implementation of a kernel, kept verbatim
with the tables it read.  Most kernels must give the same bits: the same
values, the same signs of zeros and, for ``certify_lines``, the same
generator state after the call.  The chart systems changed formulation on
purpose: ``LineSystem`` and ``FlexSystem`` now contract the cubic's
third-derivative tensor, where their oracles sample and interpolate
(lines) or evaluate monomial tables (F and its gradient for flexes), so
their results are held to a relative bound instead.  Inputs cover every
chart, no lane axis and 1, 2 and 4 lanes, exact zeros of both signs in the
parameters, the points and the coefficients, frames with zero entries and
permutation frames, and both the surface space ``form_space(4, 3)`` and
the plane space ``form_space(3, 3)``.
"""

import numpy as np
import pytest

from cubicmonodromy import flexes as FX
from cubicmonodromy import forms as F
from cubicmonodromy import linesolver as L
from cubicmonodromy.numeric import form_space

LANES = [(), (1,), (2,), (4,)]
SPACES = [(4, 3), (3, 3)]


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    fa, fb = np.ascontiguousarray(a).view(float), np.ascontiguousarray(b).view(float)
    assert np.array_equal(fa, fb, equal_nan=True)
    assert np.array_equal(np.signbit(fa), np.signbit(fb))


def _with_zeros(rng, x, share=0.25):
    """x with a share of its real and of its imaginary parts set to +0 or -0."""
    x = np.array(x, dtype=complex)
    parts = x.view(float)
    hit = rng.uniform(size=parts.shape) < share
    parts[hit] = np.where(rng.uniform(size=parts.shape) < 0.5, 0.0, -0.0)[hit]
    return x


def _complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# the chart systems changed formulation; against their oracles they differ by at most 7e-16
CHART_RTOL = 1e-13


def assert_close(a, b, rtol=CHART_RTOL):
    """Same shape and dtype, and max |a - b| within rtol of max |b|."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.abs(a - b).max() <= rtol * np.abs(b).max()


# ---------------------------------------------------------------------------
# Oracles: the earlier implementations
# ---------------------------------------------------------------------------


def _products_oracle(space, pts, rows):
    flat = pts.reshape(-1, space.nvars).T
    pw = np.ones((space.nvars, space.degree + 1, flat.shape[1]), dtype=complex)
    for k in range(1, space.degree + 1):
        pw[:, k] = pw[:, k - 1] * flat
    gathered = pw.reshape(-1, flat.shape[1])[rows]
    vals = np.ones(gathered.shape[1:], dtype=complex)
    for v in range(space.nvars):
        vals = vals * gathered[v]
    return vals


def _table(vals, lead):
    return np.ascontiguousarray(vals.T).reshape(lead + (len(vals),))


def _monomial_tables_oracle(space, points):
    """The degree-d table and the degree-(d-1) table of the gradient."""
    pts = np.asarray(points, dtype=complex)
    lower = form_space(space.nvars, space.degree - 1)
    lead = pts.shape[:-1]
    return (_table(_products_oracle(space, pts, space._rows), lead),
            _table(_products_oracle(lower, pts, lower._rows), lead))


def _monomial_values_oracle(space, points):
    pts = np.asarray(points, dtype=complex)
    return _table(_products_oracle(space, pts, space._rows), pts.shape[:-1])


def _gradient_ops(space):
    """Matrices sending coefficients to the coefficients of d/dx_v, one per v."""
    lower = form_space(space.nvars, space.degree - 1)
    ops = np.zeros((space.nvars, lower.dim, space.dim))
    for m, e in enumerate(space.monomials):
        for v in range(space.nvars):
            if e[v]:
                ops[v, lower.index[e[:v] + (e[v] - 1,) + e[v + 1:]], m] = e[v]
    return ops


def _matvec(table, vec):
    lanes = vec.shape[:-1]
    rows = table.reshape(lanes + (-1, vec.shape[-1]))
    return (rows @ vec[..., None]).reshape(table.shape[:-1])


# the sample-and-interpolate line kernel: the binary cubic through its
# values at four samples (s, t), and the per-chart gather tables it read
_SAMPLES = np.array([[1, 0], [0, 1], [1, 1], [1, -1]], dtype=complex)
_VINV = np.linalg.inv(np.array([[s ** (3 - m) * t ** m for m in range(4)] for s, t in _SAMPLES]))
_S, _T = _SAMPLES.T.copy()
# per-chart gathers, [chart, sample, v] and [chart, sample, col]
_POINT_GATHER = 4 * L._POINT_COLS[:, None, :] + np.arange(4)[:, None]
_JAC_GATHER = 4 * np.arange(4)[:, None] + L.CHART_DEP[:, None, [0, 0, 1, 1]]
_JAC_ST = _SAMPLES[:, [0, 1, 0, 1]]
_GRAD_OPS = _gradient_ops(L.SPACE)


def _points_oracle(state):
    params = np.asarray(state.params, dtype=complex)
    pairs = params.reshape(params.shape[:-1] + (2, 2))
    rows = np.empty(params.shape[:-1] + (4, 4), dtype=complex)
    rows[..., 0, :] = _S
    rows[..., 1, :] = _T
    np.add(pairs[..., :1] * _S, pairs[..., 1:] * _T, out=rows[..., 2:, :])
    return L._chart_gather(state.charts, rows, _POINT_GATHER)


def _c_diff(system):
    """c_to - c_from of a one-segment system."""
    return system.c_knots[..., 1, :] - system.c_knots[..., 0, :]


def _res_jac_dt_oracle(system, state, t, reads=None):
    mono, gmono = _monomial_tables_oracle(L.SPACE, _points_oracle(state))
    coeffs = system.coeffs(t)
    r = None if reads == "rt" else _matvec(mono, coeffs) @ _VINV.T
    rt = None if reads == "r" else _matvec(mono, _c_diff(system)) @ _VINV.T
    lanes, n = gmono.shape[:-3], gmono.shape[-3]
    cols = gmono.reshape(lanes + (1, 4 * n, 10)) @ (_GRAD_OPS @ coeffs[..., None, :, None])
    grads = np.moveaxis(cols.reshape(lanes + (4, n, 4)), -3, -1)
    j = _VINV @ (L._chart_gather(state.charts, grads, _JAC_GATHER) * _JAC_ST)
    return r, j, rt


def _compose_matrix_oracle(space, coeffs, m):
    m = np.asarray(m, dtype=complex)
    acc = {}
    for c, expo in zip(np.asarray(coeffs, dtype=complex), space.monomials):
        if c == 0:
            continue
        terms = {(0,) * space.nvars: complex(c)}
        for v in range(space.nvars):
            for _ in range(expo[v]):
                new = {}
                for e, cv in terms.items():
                    for j in range(space.nvars):
                        if m[v, j] == 0:
                            continue
                        e2 = list(e)
                        e2[j] += 1
                        key = tuple(e2)
                        new[key] = new.get(key, 0.0) + cv * m[v, j]
                terms = new
        for e, cv in terms.items():
            acc[e] = acc.get(e, 0.0) + cv
    out = np.zeros(space.dim, dtype=complex)
    for e, cv in acc.items():
        out[space.index[e]] = cv
    return out


def _certify_lines_oracle(form, lines, rng):
    worst = 0.0
    cnorm = np.abs(form.coefficients).max()
    for line in lines:
        st = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        pts = st @ line.basis()
        vals = np.abs(form.evaluate(pts))
        scales = cnorm * np.linalg.norm(pts, axis=1) ** 3
        worst = max(worst, float((vals / scales).max()))
    return worst


def _flex_points_oracle(state):
    """Each sheet's point: 1 at its chart's coordinate, its parameters in order at the others."""
    p = np.ones(state.params.shape[:-1] + (3,), dtype=complex)
    for index in np.ndindex(state.charts.shape):
        p[index + (FX.FLEX_FREE[state.charts[index]],)] = state.params[index]
    return p


def _flex_res_jac_dt_oracle(system, state, t, reads=None):
    p = _flex_points_oracle(state)
    free = FX.FLEX_FREE[state.charts]
    coeffs = system.coeffs(t)
    a = system.tensor(t)
    mono, gmono = _monomial_tables_oracle(FX.SPACE3, p)
    m = np.einsum("...ijk,...nk->...nij", a, p)
    adj = FX._adjugate3(m)
    r = rt = None
    if reads != "rt":
        r = np.stack([_matvec(mono, coeffs), np.linalg.det(m)], axis=-1)
    grad = np.empty(state.params.shape[:-1] + (2, 3), dtype=complex)
    grad_ops = _gradient_ops(FX.SPACE3)
    for k in range(3):
        grad[..., 0, k] = _matvec(gmono, (grad_ops[k] @ coeffs[..., None])[..., 0])
        a_k = np.ascontiguousarray(np.broadcast_to(a[..., None, :, :, k], adj.shape))
        grad[..., 1, k] = np.einsum("...nij,...nji->...n", adj, a_k)
    # J: both gradients at each sheet's free coordinates
    j = np.take_along_axis(grad, free[..., None, :], axis=-1)
    if reads != "r":
        a_diff = system.a_knots[..., 1, :, :, :] - system.a_knots[..., 0, :, :, :]
        mdot = np.einsum("...ijk,...nk->...nij", a_diff, p)
        ht = np.einsum("...nij,...nji->...n", adj, mdot)
        rt = np.stack([_matvec(mono, _c_diff(system)), ht], axis=-1)
    return r, j, rt


# ---------------------------------------------------------------------------
# Monomial tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nvars,degree", SPACES)
@pytest.mark.parametrize("lanes", LANES, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_monomial_tables_match_the_oracle(nvars, degree, lanes, seed):
    # the table of the space and of its lower space, form_space(nvars, degree - 1)
    rng = np.random.default_rng(seed)
    space, lower = form_space(nvars, degree), form_space(nvars, degree - 1)
    points = _with_zeros(rng, _complex(rng, lanes + (9, 4, nvars)), share=0.3)
    mono, gmono = space.monomial_values(points), lower.monomial_values(points)
    ref_mono, ref_gmono = _monomial_tables_oracle(space, points)
    assert_same_bits(mono, ref_mono)
    assert_same_bits(gmono, ref_gmono)
    assert mono.flags.c_contiguous and gmono.flags.c_contiguous
    assert_same_bits(space.monomial_values(points), _monomial_values_oracle(space, points))
    # the same points as a strided view
    view = np.repeat(points, 2, axis=-1)[..., ::2]
    assert_same_bits(space.monomial_values(view), _monomial_tables_oracle(space, view)[0])


# ---------------------------------------------------------------------------
# The line chart system
# ---------------------------------------------------------------------------


def _line_lanes(rng, lanes):
    """A LineSystem and state with the given lane axes, and a matching t;
    every chart appears, and coefficients and parameters have zeros."""
    count = int(np.prod(lanes, dtype=int))
    systems, states = [], []
    for _ in range(max(count, 1)):
        c_from = _with_zeros(rng, _complex(rng, 20))
        c_to = _with_zeros(rng, _complex(rng, 20))
        charts = rng.permutation(np.arange(27) % len(L.CHART_FREE))
        params = _with_zeros(rng, _complex(rng, (27, 4)), share=0.3)
        systems.append(L.LineSystem(c_from, c_to))
        states.append(L.SheetState(charts=charts, params=params))
    if not lanes:
        return systems[0], states[0], float(rng.uniform())
    t = rng.uniform(size=count)
    t[0] = 0.0
    return (L.LineSystem.stack(systems), L.LineSystem.stack_states(states), t)


@pytest.mark.parametrize("lanes", LANES, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_line_points_match_the_oracle(lanes, seed):
    # the spanning rows that the kernel contracts carry the oracle's sample
    # points: s v1 + t v2 at each sample (s, t), bit for bit
    _, state, _ = _line_lanes(np.random.default_rng(seed), lanes)
    basis = L.sheet_bases(state)
    points = (_S[:, None] * basis[..., None, 0, :]) + (_T[:, None] * basis[..., None, 1, :])
    assert_same_bits(points, _points_oracle(state))


@pytest.mark.parametrize("reads", [None, "r", "rt"])
@pytest.mark.parametrize("lanes", LANES, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_line_res_jac_dt_matches_the_oracle(reads, lanes, seed):
    system, state, t = _line_lanes(np.random.default_rng(seed), lanes)
    out = system.res_jac_dt(state, t, reads=reads)
    ref = _res_jac_dt_oracle(system, state, t, reads=reads)
    for a, b in zip(out, ref):
        assert (a is None) == (b is None)
        if a is not None:
            assert_close(a, b)


# ---------------------------------------------------------------------------
# The flex chart system
# ---------------------------------------------------------------------------


def _flex_lanes(rng, lanes):
    """A FlexSystem and state with the given lane axes, and a matching t;
    every lane has sheets in all three charts, in its own order."""
    count = int(np.prod(lanes, dtype=int))
    systems, states = [], []
    for _ in range(max(count, 1)):
        systems.append(FX.FlexSystem(_with_zeros(rng, _complex(rng, 10)),
                                     _with_zeros(rng, _complex(rng, 10))))
        states.append(L.SheetState(charts=rng.permutation(np.arange(9) % 3),
                                   params=_with_zeros(rng, _complex(rng, (9, 2)), share=0.3)))
    if not lanes:
        return systems[0], states[0], float(rng.uniform())
    t = rng.uniform(size=count)
    t[0] = 0.0
    return FX.FlexSystem.stack(systems), FX.FlexSystem.stack_states(states), t


@pytest.mark.parametrize("reads", [None, "r", "rt"])
@pytest.mark.parametrize("lanes", LANES, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_flex_res_jac_dt_matches_the_oracle(reads, lanes, seed):
    system, state, t = _flex_lanes(np.random.default_rng(seed), lanes)
    assert_same_bits(system.points(state), _flex_points_oracle(state))
    out = system.res_jac_dt(state, t, reads=reads)
    ref = _flex_res_jac_dt_oracle(system, state, t, reads=reads)
    for a, b in zip(out, ref):
        assert (a is None) == (b is None)
        if a is not None:
            assert_close(a, b)


# ---------------------------------------------------------------------------
# Both chart systems against plain evaluation of the forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lanes", [(), (1,), (4,)], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_line_residual_is_the_restricted_cubic(lanes, seed):
    # F(s v1 + t v2) from FormSpace.evaluate equals sum_m R_m s^(3-m) t^m
    rng = np.random.default_rng(seed)
    system, state, t = _line_lanes(rng, lanes)
    r = system.res_jac_dt(state, t)[0].reshape(-1, 27, 4)
    coeffs = np.atleast_2d(system.coeffs(t))
    charts, params = state.charts.reshape(-1, 27), state.params.reshape(-1, 27, 4)
    for c, lane_charts, lane_params, lane_r in zip(coeffs, charts, params, r):
        for chart, p, rs in zip(lane_charts, lane_params, lane_r):
            v1, v2 = L.basis_from_chart(int(chart), p)
            s_, t_ = _complex(rng, (2, 5))
            points = s_[:, None] * v1 + t_[:, None] * v2
            restricted = sum(rs[m] * s_ ** (3 - m) * t_ ** m for m in range(4))
            scale = np.abs(c).max() * np.linalg.norm(points, axis=-1) ** 3
            assert (np.abs(restricted - L.SPACE.evaluate(c, points)) <= 1e-13 * scale).all()


@pytest.mark.parametrize("lanes", [(), (1,), (4,)], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_flex_residual_is_the_cubic_and_its_hessian(lanes, seed):
    # R = (F, det D^2 F) at each sheet's point in its chart, from
    # PlaneCubicForm.evaluate and the coefficients of the Hessian
    system, state, t = _flex_lanes(np.random.default_rng(seed), lanes)
    r = system.res_jac_dt(state, t)[0].reshape(-1, 9, 2)
    coeffs = np.atleast_2d(system.coeffs(t))
    points = system.points(state).reshape(-1, 9, 3)
    for c, p, rl in zip(coeffs, points, r):
        top = np.abs(c).max()
        hess = FX.hessian_coefficients(c)
        want = np.stack([top * FX.PlaneCubicForm(c).evaluate(p),
                         FX.SPACE3.evaluate(hess, p)], axis=-1)
        nrm = np.linalg.norm(p, axis=-1, keepdims=True) ** 3
        scale = np.array([top, np.abs(hess).max()]) * nrm
        assert (np.abs(rl - want) <= 1e-13 * scale).all()


# ---------------------------------------------------------------------------
# Composition with a frame
# ---------------------------------------------------------------------------


def _frames(rng, n):
    unitary = np.linalg.qr(_complex(rng, (n, n)))[0]
    sparse = _with_zeros(rng, _complex(rng, (n, n)), share=0.4)
    sparse[rng.integers(n), :] = 0
    perm = np.eye(n, dtype=complex)[rng.permutation(n)]
    phased = perm * np.exp(2j * np.pi * rng.uniform(size=n))
    return [unitary, sparse, perm, phased, -perm, np.eye(n)]


@pytest.mark.parametrize("nvars,degree", SPACES)
@pytest.mark.parametrize("seed", range(4))
def test_compose_matrix_matches_the_oracle(nvars, degree, seed):
    rng = np.random.default_rng(seed)
    space = form_space(nvars, degree)
    for m in _frames(rng, nvars):
        for coeffs in (_complex(rng, space.dim),
                       _with_zeros(rng, _complex(rng, space.dim), share=0.4),
                       np.zeros(space.dim, dtype=complex)):
            assert_same_bits(space.compose_matrix(coeffs, m),
                             _compose_matrix_oracle(space, coeffs, m))


def test_compose_matrix_serves_the_form_api():
    rng = np.random.default_rng(7)
    form = F.CubicForm(_complex(rng, 20))
    m = _frames(rng, 4)[0]
    assert_same_bits(form.transformed(m).coefficients,
                     F.CubicForm(_compose_matrix_oracle(F.SPACE, form.coefficients, m))
                     .coefficients)


# ---------------------------------------------------------------------------
# Line certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_certify_lines_matches_the_oracle(seed):
    rng = np.random.default_rng(seed)
    form = F.CubicForm(_with_zeros(rng, _complex(rng, 20)))
    state = L.SheetState(charts=rng.permutation(np.arange(27) % len(L.CHART_FREE)),
                         params=_with_zeros(rng, _complex(rng, (27, 4)), share=0.3))
    lines = L.lines_from_sheets(state)
    # a line with NaN parameters leaves the maximum to the other lines
    broken = lines[:5] + [L.Line(chart=0, params=np.full(4, np.nan + 0j),
                                 plucker=lines[5].plucker)] + lines[6:]
    for lines in (lines, broken, L.fermat_start_lines()):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_bits(L.certify_lines(form, lines, ours),
                         _certify_lines_oracle(form, lines, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_certify_lines_matches_the_oracle_on_a_solve():
    form = F.CubicForm(_complex(np.random.default_rng(11), 20))
    lines = L.solve_lines(form, seed=2).lines
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    value = L.certify_lines(form, lines, ours)
    assert value == _certify_lines_oracle(form, lines, theirs) and value < 1e-10
    assert ours.bit_generator.state == theirs.bit_generator.state
