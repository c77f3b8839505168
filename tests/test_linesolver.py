"""Line solving: start system, continuation, incidence, matching."""

import json

import numpy as np
import pytest

from cubicmonodromy import forms as F
from cubicmonodromy import linesolver as L
from cubicmonodromy import schlafli as S
from cubicmonodromy.numeric import form_space


def test_fermat_line_substitution_cancels():
    # {x+y=0, z+w=0}: substituting x=-y, z=-w kills x^3+y^3+z^3+w^3
    fer = F.fermat_cubic()
    st = np.random.default_rng(0).normal(size=(8, 2))
    pts = np.stack([-st[:, 0], st[:, 0], -st[:, 1], st[:, 1]], axis=1)
    assert np.abs(fer.evaluate(pts)).max() < 1e-14


def test_fermat_start_lines_count_and_families():
    lines = L.fermat_start_lines()
    assert len(lines) == 27
    fer = F.fermat_cubic()
    rng = np.random.default_rng(1)
    assert L.certify_lines(fer, lines, rng) < 1e-14


def test_fermat_start_lines_plucker_quadric():
    for line in L.fermat_start_lines():
        assert L.plucker_quadric_residual(line.plucker) < 1e-14


def test_fermat_incidence_is_srg():
    adj = L.incidence_graph(L.fermat_start_lines())
    assert adj.sum() == 2 * 135  # 27*10/2 edges


def test_chart_roundtrip():
    rng = np.random.default_rng(2)
    basis = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    state = L.best_charts(basis[None])
    rebuilt = L.basis_from_chart(int(state.charts[0]), state.params[0])
    # the two bases span the same line: Plucker vectors agree up to phase
    p1, p2 = L.plucker_from_basis(basis), L.plucker_from_basis(rebuilt)
    assert abs(abs(np.vdot(p1, p2)) - 1) < 1e-12


def _best_chart_oracle(basis):
    """One line's best chart by a scan of the six charts, one 2x2 solve each."""
    best = None
    for chart in range(6):
        free, dep = L.CHART_FREE[chart], L.CHART_DEP[chart]
        mf = basis[:, free]
        det = mf[0, 0] * mf[1, 1] - mf[0, 1] * mf[1, 0]
        scale = np.abs(mf).max()
        if scale == 0 or abs(det) < 1e-12 * scale * scale:
            continue
        c = np.linalg.solve(mf, basis[:, dep])
        params = np.array([c[0, 0], c[1, 0], c[0, 1], c[1, 1]])
        height = np.abs(params).max()
        if best is None or height < best[0]:
            best = (height, chart, params)
    if best is None:
        raise L.SolveError("line is invisible in every chart")
    return best[1], best[2]


@pytest.mark.parametrize("seed", range(4))
def test_batched_charts_match_the_scalar_scan(seed):
    rng = np.random.default_rng(seed)
    bases = rng.normal(size=(300, 2, 4)) + 1j * rng.normal(size=(300, 2, 4))
    # one coordinate scaled down: some charts are nearly or just invisible
    rows = np.arange(100, 300)
    bases[rows, :, rng.integers(0, 4, size=200)] *= 1e-7
    bases[250:, :, 1] = 0  # no chart with column 1 free shows these lines
    state = L.best_charts(bases)
    for basis, chart, params in zip(bases, state.charts, state.params):
        want_chart, want_params = _best_chart_oracle(basis)
        assert chart == want_chart
        assert params.tobytes() == want_params.tobytes()


def test_a_line_no_chart_shows_raises():
    bases = np.zeros((2, 2, 4), dtype=complex)
    bases[0] = [[1, 0, 0, 0], [0, 1, 0, 0]]
    bases[1, 0, 0] = 1  # rank one: no 2x2 block is invertible
    assert L.best_charts(bases[:1]).charts.tolist() == [0]
    with pytest.raises(L.SolveError):
        L.best_charts(bases)


def test_lines_meet_self_pairing_zero():
    line = L.fermat_start_lines()[0]
    assert abs(L.meet_pairing(line.plucker, line.plucker)) < 1e-14
    assert L.lines_meet(line, line)


def intersection_oracle(l1, l2):
    # DERIVED: rank of stacked spans decides incidence
    m = np.vstack([l1.basis(), l2.basis()])
    return np.linalg.matrix_rank(m, tol=1e-8) < 4


def test_meet_example_with_intersection_point():
    lines = L.fermat_start_lines()
    zeta = np.exp(2j * np.pi / 3)
    # find {x+y=0, z+w=0} and {x+zeta*y=0, z+w=0}
    def find(za, zb, fam0=True):
        for l in lines:
            b = l.basis()
            if fam0 and l.chart == 4:
                if abs(l.params[0] + za) < 1e-12 and abs(l.params[3] + zb) < 1e-12:
                    return l
        return None

    l1 = find(1, 1)
    l2 = find(zeta, 1)
    assert l1 is not None and l2 is not None
    assert L.lines_meet(l1, l2)
    assert intersection_oracle(l1, l2)
    pt = L.intersection_point(l1, l2)
    expected = np.array([0, 0, 1, -1], dtype=complex) / np.sqrt(2)
    overlap = abs(np.vdot(pt, expected))
    assert overlap == pytest.approx(1.0, abs=1e-10)


def test_meet_agrees_with_rank_oracle_on_all_pairs():
    # DERIVED: the Plucker pairing must agree with the linear-algebra rank
    # check on every one of the 351 Fermat line pairs
    lines = L.fermat_start_lines()
    for i in range(27):
        for j in range(i + 1, 27):
            assert L.lines_meet(lines[i], lines[j]) == \
                intersection_oracle(lines[i], lines[j])


def test_disjoint_example():
    # {x+y=0, z+w=0} and {x+zeta*z=0, y+w=0} are disjoint; note the pair
    # {x+y=0, z+w=0} and {x+z=0, y+w=0} is NOT (they meet at [1:-1:-1:1])
    lines = L.fermat_start_lines()
    l1 = lines[0]    # family A, a=b=0: x=-y, z=-w
    l2 = lines[12]   # family B, a=1, b=0: x=-zeta*z, y=-w
    meet_pt = np.array([1, -1, -1, 1], dtype=complex)
    assert intersection_oracle(l1, lines[9])
    assert L.line_contains_point(l1, meet_pt)
    assert L.line_contains_point(lines[9], meet_pt)
    assert not intersection_oracle(l1, l2)
    assert not L.lines_meet(l1, l2)


def test_ambiguous_band_raises():
    l1 = L.fermat_start_lines()[0]
    l2 = L.fermat_start_lines()[12]  # disjoint from l1: pairing is O(1)
    # blend the Plucker vectors to land the pairing inside [1e-8, 1e-4]
    val = abs(L.meet_pairing(l1.plucker, l2.plucker))
    t = 1e-6 / val
    blended = L.normalize_plucker((1 - t) * l1.plucker + t * l2.plucker)
    fake = L.Line(chart=l1.chart, params=l1.params, plucker=blended)
    assert 1e-8 < abs(L.meet_pairing(fake.plucker, l1.plucker)) < 1e-4
    with pytest.raises(L.MeetAmbiguityError):
        L.lines_meet(fake, l1)


def test_incidence_rejects_duplicate_line():
    lines = list(L.fermat_start_lines())
    bad = L.Line(chart=lines[0].chart,
                 params=lines[0].params + 1e-9,
                 plucker=L.plucker_from_basis(
                     L.basis_from_chart(lines[0].chart, lines[0].params + 1e-9)))
    lines[1] = bad
    with pytest.raises((L.MeetAmbiguityError, S.LabelingError)):
        L.incidence_graph(lines)


def test_solve_fermat_recovers_start_lines():
    rep = L.solve_lines(F.fermat_cubic(), seed=0)
    start = np.array([l.plucker for l in L.fermat_start_lines()])
    matching = L.match_lines(rep.pluckers(), start)
    assert sorted(matching) == list(range(27))
    assert rep.max_residual < L.RESIDUAL_TOL
    assert rep.min_pairwise_distance > L.DISTINCT_TOL


def test_solve_s4_three_lines_in_plane_x0():
    # PAPER: L1={x=w=0}, L2={x=y-z=0}, L3={x=w-y-z=0}
    rep = L.solve_lines(F.family_s4(1.0), seed=0)
    in_plane = 0
    for line in rep.lines:
        b = line.basis()
        if max(abs(b[0][0]), abs(b[1][0])) < 1e-9:
            in_plane += 1
    assert in_plane == 3


def test_solve_s3c2_contains_stated_line():
    # PAPER: L1 = {x+y = z+w = 0}
    rep = L.solve_lines(F.family_s3c2(1.0), seed=0)
    target = L.plucker_from_basis(np.array([[1, -1, 0, 0], [0, 0, 1, -1]],
                                           dtype=complex))
    gaps = [1 - abs(np.vdot(l.plucker, target)) for l in rep.lines]
    assert min(gaps) < 1e-12


def test_chart_independence_of_solves():
    # two different random unitary frames give the same Plucker set
    form = F.random_cubic(np.random.default_rng(9))
    rep1 = L.solve_lines(form, seed=1)
    rep2 = L.solve_lines(form, seed=2)
    matching = L.match_lines(rep1.pluckers(), rep2.pluckers())
    from cubicmonodromy.surfaces import _projective_distance
    worst = max(
        _projective_distance(rep1.lines[i].plucker, rep2.lines[j].plucker)
        for i, j in enumerate(matching))
    assert worst < 1e-8


def test_residual_certification_on_random_solves():
    rng = np.random.default_rng(31)
    for k in range(3):
        form = F.random_cubic(rng)
        rep = L.solve_lines(form, seed=100 + k)
        # 5 random points per line, scale-normalized
        assert L.certify_lines(form, rep.lines, np.random.default_rng(k)) < 1e-10


def test_match_gap_violation_detected():
    pl = np.array([l.plucker for l in L.fermat_start_lines()[:4]])
    # duplicate a row: assignment is ambiguous
    near = pl.copy()
    near[1] = L.normalize_plucker(pl[0] + 1e-9 * pl[2])
    with pytest.raises(L.MatchError):
        L.match_lines(near, near)


def test_solve_report_json():
    rep = L.solve_lines(F.fermat_cubic(), seed=5)
    data = rep.to_json()
    assert len(data["lines"]) == 27
    assert data["tolerances"]["residual"] == 1e-10
    assert data["seed"] == 5
    tel = data["telemetry"]
    assert tel == {"steps": rep.telemetry.steps, "rejected": rep.telemetry.rejected,
                   "max_condition": rep.telemetry.max_condition,
                   "max_corrector_residual": rep.telemetry.max_corrector_residual}
    assert tel["steps"] > 0 and tel["max_condition"] >= 1.0
    json.dumps(data)


def test_sheet_pluckers_match_per_line_route_in_all_charts():
    rng = np.random.default_rng(5)
    charts = np.repeat(np.arange(6), 4)
    params = rng.normal(size=(24, 4)) + 1j * rng.normal(size=(24, 4))
    batched = L.sheet_pluckers(L.SheetState(charts=charts, params=params))
    single = np.array([L.plucker_from_basis(L.basis_from_chart(int(c), p))
                       for c, p in zip(charts, params)])
    # equal up to the phase, which the batched route leaves free
    phase = np.einsum("ij,ij->i", batched.conj(), single)
    phase /= np.abs(phase)
    assert np.abs(batched * phase[:, None] - single).max() < 1e-12
    assert abs(L.min_pairwise_distance(batched) - L.min_pairwise_distance(single)) < 1e-12


def test_single_segment_solve_keeps_its_step_count():
    # a fresh telemetry starts from h_init under the 0.2 cap: the step that
    # loops carry across waypoints does not reach single-segment solves
    tel = L.solve_lines(F.random_cubic(np.random.default_rng(0)), seed=0).telemetry
    assert (tel.steps, tel.rejected) == (22, 11)


def test_rejected_steps_reuse_their_first_stage(monkeypatch):
    # a rejected attempt retries from the same (state, t): its first
    # Runge-Kutta stage is kept, one chart evaluation less per rejection
    calls = []
    res_jac_dt = L.LineSystem.res_jac_dt
    monkeypatch.setattr(L.LineSystem, "res_jac_dt",
                        lambda self, state, t, **kw: calls.append(t)
                        or res_jac_dt(self, state, t, **kw))
    tel = L.solve_lines(F.random_cubic(np.random.default_rng(0)), seed=0).telemetry
    assert (tel.steps, tel.rejected) == (22, 11)
    # and the final polish evaluates its last residual without a Jacobian
    assert len(calls) == 232 - 11 - 1


# the binary cubic through its values at four samples (s, t): the reference
_SAMPLES = np.array([[1, 0], [0, 1], [1, 1], [1, -1]], dtype=complex)
_VINV = np.linalg.inv(np.array([[s ** (3 - m) * t ** m for m in range(4)] for s, t in _SAMPLES]))


def _grid_points(charts, params):
    """Sample points stored through per-sheet index grids: the reference."""
    n = len(charts)
    free, dep = L.CHART_FREE[charts], L.CHART_DEP[charts]
    a, b, c, d = params.T
    pts = np.zeros((n, 4, 4), dtype=params.dtype)
    rows, samples = np.arange(n)[:, None], np.arange(4)[None, :]
    s, t = _SAMPLES[:, 0], _SAMPLES[:, 1]
    pts[rows, samples, free[:, :1]] = s
    pts[rows, samples, free[:, 1:]] = t
    pts[rows, samples, dep[:, :1]] = a[:, None] * s + b[:, None] * t
    pts[rows, samples, dep[:, 1:]] = c[:, None] * s + d[:, None] * t
    return pts


def _gradient(coeffs, points):
    """dF/dx_v at the points, from the derivative of each monomial."""
    lower = form_space(4, 2)
    mono = lower.monomial_values(points)
    grads = np.zeros(points.shape, dtype=complex)
    for c, e in zip(coeffs, F.SPACE.monomials):
        for v in range(4):
            if e[v]:
                grads[..., v] += e[v] * c * mono[..., lower.index[e[:v] + (e[v] - 1,) + e[v + 1:]]]
    return grads


def _grid_jacobian(charts, grads):
    """The chart Jacobian from index-grid gathers of the gradient: the reference."""
    n = len(charts)
    dep = L.CHART_DEP[charts]
    rows, samples = np.arange(n)[:, None], np.arange(4)[None, :]
    g0, g1 = grads[rows, samples, dep[:, :1]], grads[rows, samples, dep[:, 1:]]
    s, t = _SAMPLES[:, 0], _SAMPLES[:, 1]
    return np.einsum("mr,nrp->nmp", _VINV, np.stack([g0 * s, g0 * t, g1 * s, g1 * t], -1))


@pytest.mark.parametrize("dtype", [complex])
def test_chart_tables_match_index_grids(dtype):
    # the Jacobian columns at each chart's dependent coordinates, against
    # the gradient at sample points interpolated back; the kernel contracts
    # the tensor instead, so the bound is relative
    rng = np.random.default_rng(9)
    charts = np.repeat(np.arange(6), 5)
    params = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
    params[rng.uniform(size=params.shape) < 0.2] = complex(-0.0, -0.0)
    c_from, c_to = (rng.normal(size=20) + 1j * rng.normal(size=20) for _ in range(2))
    system = L.LineSystem(c_from.astype(dtype), c_to.astype(dtype))
    state = L.SheetState(charts=charts, params=params.astype(dtype))
    grads = _gradient(system.coeffs(0.3), _grid_points(charts, state.params))
    j, ref = system.res_jac_dt(state, 0.3)[1], _grid_jacobian(charts, grads)
    assert j.dtype == ref.dtype and j.shape == ref.shape
    assert np.abs(j - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("offset", [1e-2, 1e-4])
@pytest.mark.parametrize("seed", [1, 3])
def test_double_polish_near_a_puncture(offset, seed):
    # S4 members close to the singular member a = -1/2 polish in double:
    # the chart Jacobians at the solved lines stay far from singular
    form = F.family_s4(-0.5 + offset)
    rep = L.solve_lines(form, seed=seed)
    assert rep.path_failures == 0
    assert rep.max_residual < L.RESIDUAL_TOL
    c = form.coefficients
    _, j, _ = L.LineSystem(c, c).res_jac_dt(L.sheets_from_lines(rep.lines), 1.0)
    assert np.linalg.cond(j).max() < 1e4


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_solve_a_millionth_from_the_s4_puncture(seed):
    # with a path corrector pushed to 1e-12 these solves lose paths near t = 1
    rep = L.solve_lines(F.family_s4(-0.5 + 1e-6), seed=seed)
    assert rep.path_failures == 0
    assert rep.max_residual < L.RESIDUAL_TOL
