"""Plane-cubic flexes: Hesse pencil, Hessians, solving, ASL2(F3) data."""

import numpy as np
import pytest
import sympy as sp

from cubicmonodromy import flexes as FX
from cubicmonodromy import linesolver as ls
from cubicmonodromy import monodromy as M
from cubicmonodromy import perms as P


def sympy_hessian(coeffs: np.ndarray) -> np.ndarray:
    """Independent symbolic oracle for the Hessian determinant."""
    x, y, z = sp.symbols("x y z")
    variables = (x, y, z)
    f = 0
    for c, e in zip(coeffs, FX.SPACE3.monomials):
        f += sp.nsimplify(complex(c), rational=False) * x**e[0] * y**e[1] * z**e[2]
    hess = sp.Matrix(3, 3, lambda i, j: sp.diff(f, variables[i], variables[j]))
    det = sp.expand(hess.det())
    out = np.zeros(10, dtype=complex)
    poly = sp.Poly(det, x, y, z)
    for e, c in poly.terms():
        out[FX.SPACE3.index[e]] = complex(c)
    return out


def test_hesse_form_coefficients():
    k = 2.2 + 0.4j
    form = FX.hesse_form(k)
    raw = form.coefficients * np.abs(3 * k)  # undo normalization
    assert raw[FX.SPACE3.index[(1, 1, 1)]] == pytest.approx(-3 * k)


def test_hesse_form_k0_is_fermat():
    form = FX.hesse_form(0)
    nz = {FX.SPACE3.monomials[i] for i, c in enumerate(form.coefficients) if c != 0}
    assert nz == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}


def test_hesse_form_rejects_unit_cube_roots():
    for k in (1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)):
        with pytest.raises(FX.FlexError):
            FX.hesse_form(k)


def test_hessian_of_fermat_is_216_xyz():
    # DERIVED: direct symbolic differentiation gives 6^3 xyz
    coeffs = np.zeros(10, dtype=complex)
    for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
        coeffs[FX.SPACE3.index[e]] = 1
    raw = FX.hessian_coefficients(coeffs)
    expected = np.zeros(10, dtype=complex)
    expected[FX.SPACE3.index[(1, 1, 1)]] = 216
    assert np.allclose(raw, expected)
    assert np.allclose(raw, sympy_hessian(coeffs))


def test_hessian_matches_sympy_on_random_cubics():
    rng = np.random.default_rng(4)
    for _ in range(3):
        coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
        assert np.allclose(FX.hessian_coefficients(coeffs),
                           sympy_hessian(coeffs), atol=1e-10)


def test_hessian_of_hesse_member_stays_in_pencil():
    # DERIVED: Hess(x^3+y^3+z^3-3kxyz) is again of the form A(x^3+y^3+z^3)+Bxyz
    form = FX.hesse_form(1.7)
    raw = FX.hessian_coefficients(form.coefficients)
    support = {FX.SPACE3.monomials[i] for i, c in enumerate(raw) if abs(c) > 1e-12}
    assert support <= {(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)}
    cube_coeffs = [raw[FX.SPACE3.index[e]] for e in ((3, 0, 0), (0, 3, 0), (0, 0, 3))]
    assert np.allclose(cube_coeffs, cube_coeffs[0])


def test_hessian_equivariance_under_linear_maps():
    # Hess(f o A) = det(A)^2 (Hess f) o A at random points
    rng = np.random.default_rng(6)
    coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    composed = FX.SPACE3.compose_matrix(coeffs, a)
    lhs = FX.hessian_coefficients(composed)
    rhs = np.linalg.det(a) ** 2 * FX.SPACE3.compose_matrix(
        FX.hessian_coefficients(coeffs), a)
    assert np.allclose(lhs, rhs, atol=1e-8)


def test_hesse_flexes_are_exact():
    pts = FX.hesse_flexes()
    assert pts.shape == (9, 3)
    # (0:1:-1) is among them
    target = np.array([0, 1, -1], dtype=complex)
    assert any(abs(abs(np.vdot(p / np.linalg.norm(p),
                               target / np.linalg.norm(target))) - 1) < 1e-14
               for p in pts)
    # all satisfy hesse_form(k) = 0 for k = 2 (base points of the pencil)
    assert np.abs(FX.hesse_form(2.0).evaluate(pts)).max() < 1e-13


def test_hesse_configuration_of_exact_flexes():
    triples = FX.collinear_triples(FX.hesse_flexes())
    FX.check_hesse_configuration(triples)
    assert len(triples) == 12


def test_solve_flexes_recovers_hesse_base_points():
    fs = FX.solve_flexes(FX.hesse_form(5.0), seed=1)
    u1 = fs.points / np.linalg.norm(fs.points, axis=1, keepdims=True)
    exact = FX.hesse_flexes()
    u2 = exact / np.linalg.norm(exact, axis=1, keepdims=True)
    matching = ls.match_lines(u1, u2)
    assert sorted(matching) == list(range(9))


def test_solve_flexes_random_smooth_cubic():
    rng = np.random.default_rng(12)
    form = FX.PlaneCubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
    fs = FX.solve_flexes(form, seed=12)
    assert fs.residuals.max() < 1e-10
    FX.check_hesse_configuration(FX.collinear_triples(fs.points))


def test_singular_cubic_is_detected():
    # nodal cubic: y^2 z = x^2 (x + z) has a node at [0:0:1]
    form = FX.PlaneCubicForm.from_monomial_dict({
        (0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1,
    })
    with pytest.raises(FX.FlexError):
        FX.solve_flexes(form, seed=2, attempts=2)


def test_f3_bijections_are_structure_maps():
    triples = FX.collinear_triples(FX.hesse_flexes())
    count = 0
    for coords in FX.f3_coordinate_bijections(triples):
        count += 1
        assert sorted(coords) == list(range(9))
        for t in triples:
            assert sum(coords[p][0] for p in t) % 3 == 0
            assert sum(coords[p][1] for p in t) % 3 == 0
        if count > 10:
            break
    assert count > 0


def test_flex_permutation_transport():
    triples = FX.collinear_triples(FX.hesse_flexes())
    coords = next(FX.f3_coordinate_bijections(triples))
    perm = P.identity(9)
    assert FX.permutation_in_f3_coordinates(perm, coords).is_identity()


def test_flex_monodromy_campaign():
    report = M.run_campaign(M.Campaign(family=FX.flexp9_family(),
                                       basepoint=M.default_basepoint("FlexP9", 2),
                                       loop_budget=30, seed=2))
    assert report.plateau_reached
    assert report.group.order == 216
    assert report.group.degree == 9
    # point stabilizer order 24 = 216/9, DERIVED via orbit-stabilizer
    rows = report.group.element_array()
    orbit = set(rows[:, 0])
    assert len(orbit) == 9  # transitive
    stab = P.set_stabilizer(report.group, {0})
    assert stab.order == 216 // 9 == 24
    # generators fix no point and preserve collinearity
    triples = [frozenset(t) for t in report.hesse_triples]
    for tp in report.tracked:
        assert tp.steps > 0
        assert FX.FLEX_DISTINCT_TOL < tp.min_path_separation < np.inf
        if tp.perm.is_identity():
            continue
        for t in triples:
            assert frozenset(tp.perm.images[i] for i in t) in triples


def test_adjugate_matches_cofactors():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(11, 3, 3)) + 1j * rng.normal(size=(11, 3, 3))
    m[rng.uniform(size=m.shape) < 0.2] = 0
    ref = np.empty_like(m)
    for i in range(3):
        for j in range(3):
            r = [k for k in range(3) if k != j]
            c = [k for k in range(3) if k != i]
            minor = m[:, r[0], c[0]] * m[:, r[1], c[1]] - m[:, r[0], c[1]] * m[:, r[1], c[0]]
            ref[:, i, j] = (-1) ** (i + j) * minor
    adj = FX._adjugate3(m)
    assert adj.flags.c_contiguous
    assert np.array_equal(adj, ref)
    det = np.linalg.det(m)[:, None, None]
    assert np.abs(adj @ m - det * np.eye(3)).max() < 1e-12 * np.abs(m).max() ** 3


def test_normalize_moves_only_far_sheets_and_keeps_their_points():
    # sheets in all three charts, some with a parameter past CHART_SWITCH:
    # those move to the chart of their largest coordinate, where every
    # parameter is at most 1; the others keep their chart and parameters
    rng = np.random.default_rng(7)
    system = FX.FlexSystem(*(rng.normal(size=(2, 10)) + 1j * rng.normal(size=(2, 10))))
    params = rng.normal(size=(9, 2)) + 1j * rng.normal(size=(9, 2))
    params /= np.abs(params).max(axis=1, keepdims=True)
    params *= np.array([40.0, 1.5, 2.5, 0.3, 1.0, 8.0, 2.0, 100.0, 0.9])[:, None]
    state = ls.SheetState(charts=rng.permutation(np.arange(9) % 3), params=params)
    before = (state.charts.copy(), state.params.copy())
    far = np.abs(params).max(axis=1) > FX.CHART_SWITCH
    assert far.tolist() == [True, False, True, False, False, True, False, True, False]
    out = system.normalize(state)
    assert np.array_equal(state.charts, before[0]) and np.array_equal(state.params, before[1])
    assert np.array_equal(out.charts[~far], state.charts[~far])
    assert out.params[~far].tobytes() == state.params[~far].tobytes()
    assert (out.charts[far] != state.charts[far]).all()
    assert np.abs(out.params[far]).max() <= 1
    p, q = system.points(state), system.points(out)
    cross = np.abs(np.cross(p, q)).max(axis=1)
    assert (cross <= 1e-15 * np.linalg.norm(p, axis=1) * np.linalg.norm(q, axis=1)).all()
    assert system.normalize(out) is out
