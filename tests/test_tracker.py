"""Loop tracking: identity, inverses, composition, homotopy invariance."""

import numpy as np
import pytest

from cubicmonodromy import flexes as FX
from cubicmonodromy import forms as F
from cubicmonodromy import linesolver as L
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
