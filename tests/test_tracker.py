"""Loop tracking: identity, inverses, composition, homotopy invariance."""

import json

import numpy as np
import pytest

from cubicmonodromy import flexes as FX
from cubicmonodromy import forms as F
from cubicmonodromy import linesolver as L
from cubicmonodromy import monodromy as M
from cubicmonodromy import numeric as N
from cubicmonodromy import perms as P
from cubicmonodromy import schlafli as S
from cubicmonodromy import surfaces as SF
from cubicmonodromy import tracker as T


@pytest.fixture(scope="module")
def s4_base():
    fam = F.s4_family()
    bp = np.array([0.6 + 0.8j])
    base = L.solve_lines(fam.form_at(bp), seed=11)
    labeling = S.label_lines(L.incidence_graph(base.lines))
    return fam, bp, base, labeling


def reversed_loop(loop: T.LoopSpec) -> T.LoopSpec:
    return T.LoopSpec(family=loop.family, basepoint=loop.basepoint,
                      waypoints=tuple(reversed(loop.waypoints)), kind=loop.kind)


def concatenated(l1: T.LoopSpec, l2: T.LoopSpec) -> T.LoopSpec:
    return T.LoopSpec(family=l1.family, basepoint=l1.basepoint,
                      waypoints=l1.waypoints + l2.waypoints[1:], kind="plain")


def test_constant_loop_is_identity(s4_base):
    fam, bp, base, labeling = s4_base
    loop = T.LoopSpec(family=fam, basepoint=bp, waypoints=(bp, bp))
    tp = T.track_loop(loop, base, labeling)
    assert tp.perm.is_identity()
    assert tp.min_separation > 1e-6
    # a zero-length segment takes no step, so no separation along the path
    assert tp.steps == 0
    assert tp.to_json()["min_path_separation"] is None


@pytest.mark.filterwarnings("error")
def test_repeated_waypoint_is_a_zero_length_segment(s4_base):
    fam, bp, base, labeling = s4_base
    mid = bp + 0.3j
    loop = T.LoopSpec(family=fam, basepoint=bp, waypoints=(bp, mid, mid, bp))
    tp = T.track_loop(loop, base, labeling)
    assert tp.perm.is_identity()
    assert tp.steps > 0


def test_s4_petal_is_involution(s4_base):
    # PAPER-adjacent: the petal around a = -1/2 swaps the sqrt(2a+1) sheets
    fam, bp, base, labeling = s4_base
    petals = T.petal_loops(fam, bp[0])
    tp = T.track_loop(petals[0], base, labeling)
    assert tp.perm.order() == 2
    assert P.compose(tp.perm, tp.perm).is_identity()
    assert S.is_graph_automorphism(tp.perm)


def test_loop_inverse_gives_inverse_permutation(s4_base):
    fam, bp, base, labeling = s4_base
    petal = T.petal_loops(fam, bp[0])[1]
    forward = T.track_loop(petal, base, labeling).perm
    backward = T.track_loop(reversed_loop(petal), base, labeling).perm
    assert backward == forward.inverse()


def test_concatenated_loops_compose(s4_base):
    fam, bp, base, labeling = s4_base
    p1, p2 = T.petal_loops(fam, bp[0])
    perm1 = T.track_loop(p1, base, labeling).perm
    perm2 = T.track_loop(p2, base, labeling).perm
    both = T.track_loop(concatenated(p1, p2), base, labeling).perm
    assert both == P.compose(perm1, perm2)


def test_waypoint_refinement_leaves_permutation_unchanged(s4_base):
    fam, bp, base, labeling = s4_base
    petal = T.petal_loops(fam, bp[0])[0]
    coarse = T.track_loop(petal, base, labeling)
    fine = T.track_loop(petal.refined(2), base, labeling)
    assert coarse.perm == fine.perm
    # one step controller per loop: the step carries across waypoints, so
    # the 64 short circle segments do not each restart from h_init
    assert coarse.steps < 3 * (len(petal.waypoints) - 1)
    assert fine.steps < 3 * (len(fine.loop.waypoints) - 1)
    data = coarse.to_json()
    assert data["steps"] == coarse.steps and data["rejected"] == coarse.rejected
    # the path minimum is taken over every accepted step, the endpoint included
    assert T.SHEET_COLLISION_TOL < data["min_path_separation"] <= coarse.min_separation + 1e-9


def test_generic20_loop_preserves_incidence():
    fam = F.generic20_family()
    rng = np.random.default_rng(77)
    bp = rng.normal(size=20) + 1j * rng.normal(size=20)
    base = L.solve_lines(fam.form_at(bp), seed=77)
    adj = L.incidence_graph(base.lines)
    labeling = S.label_lines(adj)
    loop = T.random_polygon_loop(fam, bp, seed=7001)
    tp = T.track_loop(loop, base, labeling)
    # conjugation check against the srg adjacency: the permutation is a
    # graph automorphism, i.e. a member of W(E6) after labeling
    assert S.is_graph_automorphism(tp.perm)
    imgs = np.array(tp.perm.images)
    canonical = S.canonical_incidence().adjacency
    assert np.array_equal(canonical[np.ix_(imgs, imgs)], canonical)


def test_twisted_trivial_path_equals_symmetry_permutation():
    # trivial path with identification = a symmetry of the base surface
    fam = F.s3c2_family()
    bp = np.array([0.5 + 0.4j])
    form = fam.form_at(bp)
    base = L.solve_lines(form, seed=21)
    labeling = S.label_lines(L.incidence_graph(base.lines))
    iota = fam.symmetry_generators[-1]
    spec = T.TwistedLoopSpec(family=fam, waypoints=(bp, bp), identification=iota)
    tp = T.track_twisted_loop(spec, base, labeling)
    deck = SF.symmetry_permutation(iota, base.lines, labeling, form=form)
    assert tp.perm == deck


def test_twisted_loop_s3c2_zeta3():
    fam = F.s3c2_family()
    bp = np.array([0.5 + 0.4j])
    base = L.solve_lines(fam.form_at(bp), seed=21)
    labeling = S.label_lines(L.incidence_graph(base.lines))
    spec = T.twisted_loop_for_action(fam, bp, fam.twist_actions[0])
    assert spec.identification_residual() < 1e-10
    tp = T.track_twisted_loop(spec, base, labeling)
    assert sorted(tp.perm.images) == list(range(27))
    assert S.is_graph_automorphism(tp.perm)


def test_twisted_loop_s3_block_matrix():
    fam = F.s3_family()
    bp = np.array([1.0 + 0.3j, -0.7 + 0.6j])
    base = L.solve_lines(fam.form_at(bp), seed=41)
    labeling = S.label_lines(L.incidence_graph(base.lines))
    spec = T.twisted_loop_for_action(fam, bp, fam.twist_actions[0])  # swap
    tp = T.track_twisted_loop(spec, base, labeling)
    assert sorted(tp.perm.images) == list(range(27))


def test_twisted_loop_rejects_bad_identification():
    fam = F.s3c2_family()
    bp = np.array([0.5 + 0.4j])
    bad = T.TwistedLoopSpec(
        family=fam, waypoints=(bp, bp * 1.7),
        identification=F.ProjectiveMatrix(np.eye(4, dtype=complex)))
    base = L.solve_lines(fam.form_at(bp), seed=21)
    with pytest.raises(T.LoopError):
        T.track_twisted_loop(bad, base)


def test_petal_loops_geometry():
    fam = F.s4_family()
    petals = T.petal_loops(fam, 0.6 + 0.8j)
    assert len(petals) == 2
    # angular ordering around the basepoint
    angles = [np.angle(p.detail["puncture"] - (0.6 + 0.8j)) for p in petals]
    assert angles == sorted(angles)
    # single puncture: one petal, radius from the basepoint distance
    one = T.petal_loops(fam, 0.6 + 0.8j, punctures=[0j])
    assert len(one) == 1
    assert one[0].detail["radius"] == pytest.approx(1e-2 * abs(0.6 + 0.8j))


def test_petal_loops_reject_close_punctures():
    fam = F.s4_family()
    with pytest.raises(T.LoopError):
        T.petal_loops(fam, 1.0, punctures=[0j, 0.001 + 0j], radius=0.01)


def test_loops_must_close():
    fam = F.s4_family()
    with pytest.raises(T.LoopError):
        T.LoopSpec(family=fam, basepoint=[1.0], waypoints=([1.0], [2.0]))


@pytest.mark.parametrize("fam", [F.s4_family(), FX.flexp9_family()], ids=["S4", "FlexP9"])
def test_loop_builders_make_no_degenerate_segment(fam):
    bp = M.default_basepoint(fam.name, 0)
    loops = [T.random_polygon_loop(fam, bp, seed) for seed in range(4)]
    loops += [T.random_lasso_loop(fam, bp, seed) for seed in range(4)]
    if fam.parameter_dim == 1:
        loops += T.petal_loops(fam, bp[0])
    for loop in loops:
        lengths = [np.linalg.norm(b - a)
                   for a, b in zip(loop.waypoints[:-1], loop.waypoints[1:])]
        assert min(lengths) >= 1e-9 * max(lengths), (loop.kind, loop.detail)


def _segment_steps(fam, base, waypoints):
    """Track the polyline one segment at a time with one telemetry, as a
    loop is: each segment's (steps taken, carried step after it)."""
    coeffs = [fam.raw_coeffs(w) for w in waypoints]
    state, tel = L.sheets_from_lines(base.lines), N.TrackTelemetry()
    out = []
    for a, b in zip(coeffs[:-1], coeffs[1:]):
        before = tel.steps
        state, tel = N.track_segment(L.LineSystem(a, b), state, T.LOOP_OPTIONS, tel,
                                     polish=False)
        out.append((tel.steps - before, tel.step))
    return out


@pytest.mark.parametrize("short", [1e-8, 1e-15])
def test_a_short_segment_does_not_shrink_the_carried_step(s4_base, short):
    # a segment shorter than the carried step is taken in one step, cut at
    # its end: the cut does not lower the step carried into the next segment
    fam, bp, base, _ = s4_base
    mid, end = bp + 0.4j, bp - 0.3
    (_, long_step), (_, after_short), (last, _) = _segment_steps(
        fam, base, [bp, mid, mid + short, end])
    assert after_short >= long_step
    (_, _), (last_without, _) = _segment_steps(fam, base, [bp, mid, end])
    assert abs(last - last_without) <= 1


def test_s3c2_petals_at_cubic_roots():
    # DERIVED: three petals at the cube roots of -27/4
    fam = F.s3c2_family()
    petals = T.petal_loops(fam, 0.5 + 0.4j)
    assert len(petals) == 3
    for p in petals:
        root = p.detail["puncture"]
        assert abs(4 * root**3 + 27) < 1e-9


def _line_system_and_state(rng):
    c_from, c_to = (rng.normal(size=20) + 1j * rng.normal(size=20) for _ in range(2))
    state = L.SheetState(charts=rng.integers(0, len(L.CHART_FREE), size=27),
                         params=rng.normal(size=(27, 4)) + 1j * rng.normal(size=(27, 4)))
    return L.LineSystem(c_from, c_to), state


def _flex_system_and_state(rng):
    c_from, c_to = (rng.normal(size=10) + 1j * rng.normal(size=10) for _ in range(2))
    state = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    return FX.FlexSystem(c_from, c_to), state


@pytest.mark.parametrize("make", [_line_system_and_state, _flex_system_and_state],
                         ids=["LineSystem", "FlexSystem"])
@pytest.mark.parametrize("seed", range(3))
def test_chart_system_derivatives_match_finite_differences(make, seed):
    rng = np.random.default_rng(seed)
    system, state = make(rng)
    t = rng.uniform(0.2, 0.8)
    r, j, rt = system.res_jac_dt(state, t)
    np.testing.assert_array_equal(r, system.residual(state, t))
    h = 1e-6
    n, k = r.shape
    fd_j = np.empty_like(j)
    for m in range(k):
        e = np.zeros((n, k), dtype=complex)
        e[:, m] = h
        fd_j[:, :, m] = (system.residual(system.update(state, e), t)
                         - system.residual(system.update(state, -e), t)) / (2 * h)
    fd_rt = (system.residual(state, t + h) - system.residual(state, t - h)) / (2 * h)
    np.testing.assert_allclose(fd_j, j, rtol=1e-6, atol=1e-6 * np.abs(j).max())
    np.testing.assert_allclose(fd_rt, rt, rtol=1e-6, atol=1e-6 * np.abs(rt).max())


# ---------------------------------------------------------------------------
# Loops tracked together, one lane each
# ---------------------------------------------------------------------------


def _track_together(runs):
    """Track LoopRuns as lanes of one batch: a TrackedPermutation or the
    exception, per run."""
    paths = [run.path() for run in runs]
    while not all(p.done for p in paths):
        N.step_paths([p for p in paths if not p.done])
    out = []
    for run, path in zip(runs, paths):
        try:
            if path.error is not None:
                raise path.error
            out.append(run.finish(path.state, path.telemetry))
        except Exception as exc:
            out.append(exc)
    return out


def _alone(run):
    try:
        return run.track()
    except Exception as exc:
        return exc


def _outcome(x):
    """What a campaign keeps of a loop: its JSON, or its failure string."""
    if isinstance(x, Exception):
        return f"{type(x).__name__}: {x}"
    return json.dumps(x.to_json())


@pytest.mark.parametrize("make", [_line_system_and_state, _flex_system_and_state],
                         ids=["LineSystem", "FlexSystem"])
def test_stacked_lanes_compute_what_each_lane_computes_alone(make):
    rng = np.random.default_rng(5)
    lanes = [make(rng) for _ in range(3)]
    systems = [s for s, _ in lanes]
    stacked = type(systems[0]).stack(systems)
    state = stacked.stack_states([st for _, st in lanes])
    ts = rng.uniform(0, 1, size=3)
    together = stacked.res_jac_dt(state, ts) + (stacked.residual(state, ts),
                                                 stacked.scale(state, ts),
                                                 stacked.collision_gap(state))
    for lane, ((system, st), t) in enumerate(zip(lanes, ts)):
        alone = system.res_jac_dt(st, float(t)) + (system.residual(st, float(t)),
                                                   system.scale(st, float(t)),
                                                   system.collision_gap(st))
        for a, b in zip(alone, together):
            assert np.asarray(a).tobytes() == np.asarray(b[lane]).tobytes()


def test_line_loops_in_one_batch_match_each_loop_alone(s4_base):
    fam, bp, base, labeling = s4_base
    fam2 = F.s3c2_family()
    bp2 = np.array([0.5 + 0.4j])
    base2 = L.solve_lines(fam2.form_at(bp2), seed=21)
    labeling2 = S.label_lines(L.incidence_graph(base2.lines))
    twist = T.twisted_loop_for_action(fam2, bp2, fam2.twist_actions[0])
    loops = [(T.petal_loops(fam, bp[0])[0], base, labeling),
             (T.random_lasso_loop(fam, bp, seed=4), base, labeling),
             (T.random_polygon_loop(fam2, bp2, seed=6), base2, labeling2),
             (T.petal_loops(fam2, bp2[0])[1], base2, labeling2)]
    runs = [T.loop_run(*args) for args in loops]
    runs.append(T.loop_run(twist, base2, labeling2))
    alone = [T.track_loop(*args) for args in loops]
    alone.append(T.track_twisted_loop(twist, base2, labeling2))
    together = _track_together(runs)
    for tp, ref in zip(together, alone):
        assert _outcome(tp) == _outcome(ref)
        assert (tp.perm, tp.steps, tp.rejected) == (ref.perm, ref.steps, ref.rejected)
        assert tp.min_path_separation == ref.min_path_separation
        assert tp.max_corrector_residual == ref.max_corrector_residual


@pytest.fixture(scope="module")
def flex_base():
    rng = np.random.default_rng(12)
    form = FX.PlaneCubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
    fam = FX.flexp9_family()
    bp = form.coefficients
    return fam, bp, FX.solve_flexes(form, seed=12)


def _flex_runs(flex_base, seeds):
    fam, bp, base = flex_base
    loops = [(T.random_polygon_loop if s % 2 else T.random_lasso_loop)(fam, bp, seed=s)
             for s in seeds]
    return [FX.flex_loop_run(loop, base, frame_seed=s) for loop, s in zip(loops, seeds)]


def test_flex_loops_in_one_batch_match_each_loop_alone(flex_base):
    seeds = list(range(31, 43))  # 12 flex loops: the 108 sheets of a batch
    runs = _flex_runs(flex_base, seeds)
    together = _track_together(runs)
    for tp, s in zip(together, seeds):
        ref = FX.track_flex_loop(tp.loop, flex_base[2], frame_seed=s)
        assert _outcome(tp) == _outcome(ref)
        assert (tp.perm, tp.steps, tp.rejected) == (ref.perm, ref.steps, ref.rejected)


def test_a_failing_lane_fails_alone(flex_base):
    good = _flex_runs(flex_base, [41, 42, 43])
    # a segment from the zero cubic: the Jacobian at t=0 is singular, so each
    # attempt of that lane is rejected (LinAlgError from the stacked solve)
    # until the step underflows
    zero = np.zeros(10, dtype=complex)
    singular = T.LoopRun([FX.FlexSystem(zero, good[0].systems[0].c_to)], good[0].state,
                         good[0].finish)
    # two equal sheets collide at the first accepted step
    twin = good[1].state.copy()
    twin[1] = twin[0]
    collide = T.LoopRun(good[1].systems, twin, good[1].finish)
    runs = [good[0], singular, good[1], collide, good[2]]
    alone = [_outcome(_alone(run)) for run in runs]
    assert alone[1].startswith("PathTrackingError: step size underflow")
    assert alone[3].startswith("SheetCollisionError: sheet separation")
    assert [_outcome(x) for x in _track_together(runs)] == alone
    # and through a campaign's accumulator, with its failure strings
    stream = [(f"loop{k}", (lambda r=run: r)) for k, run in enumerate(runs)]
    tracked, failures, plateau, chain = M._accumulate(9, iter(stream), budget=len(runs),
                                                      mandatory=0)
    assert [json.dumps(tp.to_json()) for tp in tracked] == [alone[0], alone[2], alone[4]]
    assert failures == [f"loop1: {alone[1]}", f"loop3: {alone[3]}"]
    assert not plateau
    assert chain.order() == P.generate_group([tp.perm for tp in tracked]).order


class _Flaky(FX.FlexSystem):
    """A flex system whose flagged lane gets a zero Jacobian once: at the
    ``trigger[1]``-th evaluation that reads ``trigger[0]`` and holds it."""

    LANE_FIELDS = FX.FlexSystem.LANE_FIELDS + ("flaky",)
    trigger = ("rt", 0)
    seen = 0

    def __init__(self, system, flaky):
        super().__init__(system.c_from, system.c_to)
        self.flaky = np.asarray(flaky)

    def res_jac_dt(self, state, t, reads=None):
        out = super().res_jac_dt(state, t, reads)
        if reads == self.trigger[0] and self.flaky.any():
            _Flaky.seen += 1
            if _Flaky.seen == self.trigger[1]:
                out[1][self.flaky] = 0
        return out


@pytest.mark.parametrize("trigger", [("rt", 2), ("rt", 7), ("r", 2), ("r", 9)],
                         ids=["stage-k2", "stage-late", "newton-second", "newton-late"])
def test_a_lane_turning_singular_late_fails_alone(monkeypatch, flex_base, trigger):
    # the flagged lane leaves the stack in the middle of an attempt, at a
    # later Runge-Kutta stage or in a Newton iteration; the others go on
    runs = [T.LoopRun([_Flaky(s, k == 2) for s in run.systems], run.state, run.finish)
            for k, run in enumerate(_flex_runs(flex_base, [51, 52, 53, 54, 55]))]
    monkeypatch.setattr(_Flaky, "trigger", trigger)
    monkeypatch.setattr(_Flaky, "seen", 0)
    alone = [_outcome(_alone(run)) for run in runs]
    _Flaky.seen = 0
    paths = [run.path() for run in runs]
    while _Flaky.seen < trigger[1]:
        assert not all(p.done for p in paths)
        rejected = paths[2].telemetry.rejected
        N.step_paths([p for p in paths if not p.done])
    assert paths[2].telemetry.rejected == rejected + 1  # that attempt, and only it
    while not all(p.done for p in paths):
        N.step_paths([p for p in paths if not p.done])
    together = [_outcome(run.finish(p.state, p.telemetry)) for run, p in zip(runs, paths)]
    assert together == alone


class _Sluggish(FX.FlexSystem):
    """A flex system whose lanes solve each Newton iteration with their
    Jacobian times ``factor``: at a factor f the corrections contract by
    about 1 - 1/f, not quadratically (f = 1 is the plain system, bit for
    bit).  ``newton`` records, per Newton evaluation, whether a lane with
    f != 1 was in the stack."""

    LANE_FIELDS = FX.FlexSystem.LANE_FIELDS + ("factor",)
    newton: list[bool] = []

    def __init__(self, system, factor):
        super().__init__(system.c_from, system.c_to)
        self.factor = np.asarray(factor, dtype=float)

    def res_jac_dt(self, state, t, reads=None):
        r, j, rt = super().res_jac_dt(state, t, reads)
        if reads == "r":
            _Sluggish.newton.append(bool((self.factor != 1).any()))
            j = j * self.factor.reshape(self.factor.shape + (1,) * (j.ndim - self.factor.ndim))
        return r, j, rt


def test_a_poorly_contracting_lane_is_rejected_alone(monkeypatch, flex_base):
    # the path-jump guard: a contraction above 1/4 at a correction still
    # above the noise rejects the step at the second Newton iteration,
    # without waiting for the last; the other lanes step as they do alone
    runs = _flex_runs(flex_base, [61, 62, 63])
    plain = [run.path() for run in runs]
    N.step_paths(plain)
    monkeypatch.setattr(_Sluggish, "newton", [])
    paths = [N.Path([_Sluggish(s, 2.0 if k == 1 else 1.0) for s in run.systems], run.state,
                    T.LOOP_OPTIONS)
             for k, run in enumerate(runs)]
    N.step_paths(paths)
    assert (paths[1].t, paths[1].telemetry.steps, paths[1].telemetry.rejected) == (0.0, 0, 1)
    assert _Sluggish.newton[:2] == [True, True] and not any(_Sluggish.newton[2:])
    for p, q in zip(paths[::2], plain[::2]):
        assert (p.t, p.telemetry.steps, p.telemetry.rejected) == (q.t, 1, 0)
        assert p.state.tobytes() == q.state.tobytes()


@pytest.mark.parametrize("offset,polished", [(1e-11, True), (1e-9, False)])
def test_the_polish_accepts_a_stalled_correction_at_the_noise_floor(monkeypatch, flex_base,
                                                                    offset, polished):
    # end flexes moved by a relative offset and corrected with 5 J: each step
    # is about 0.8 times the last, so within MAX_NEWTON iterations no step
    # gets below CORRECTOR_TOL.  Below FLOOR_TOL such a stall is the noise
    # floor, and the polish accepts once the residual check passes; from
    # 1e-9 the residual stays above ten times CORRECTOR_TOL, and it fails.
    _, bp, base = flex_base
    plain = FX.FlexSystem(bp, bp)
    state = FX._state_from_points(base.points)
    rng = np.random.default_rng(0)
    scale = offset * plain.param_scale(state)[:, None]
    moved = plain.update(state, scale * (rng.normal(size=state.shape)
                                         + 1j * rng.normal(size=state.shape)))

    def polish():
        path = N.Path([_Sluggish(plain, 5.0)], moved)
        N._polish([path])
        return path.error is None

    assert polish() == polished
    monkeypatch.setattr(N, "FLOOR_TOL", 0.0)
    assert not polish()
