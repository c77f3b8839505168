"""Cubic forms, families, symmetry matrices, coefficient conventions."""

import numpy as np
import pytest

from cubicmonodromy import forms as F
from cubicmonodromy.numeric import form_space


def test_monomial_order_is_graded_lex():
    assert F.MONOMIALS[0] == (3, 0, 0, 0)
    assert F.MONOMIALS[1] == (2, 1, 0, 0)
    assert F.MONOMIALS[-1] == (0, 0, 0, 3)
    assert len(F.MONOMIALS) == 20


def test_cubicform_normalization():
    c = np.zeros(20, dtype=complex)
    c[0] = 4j
    c[5] = 2.0
    form = F.CubicForm(c)
    assert np.abs(form.coefficients).max() == pytest.approx(1.0)
    # phases are preserved by the real positive rescale
    assert form.coefficients[0] == pytest.approx(1j)


def test_zero_form_rejected():
    with pytest.raises(F.FormError):
        F.CubicForm(np.zeros(20))


def test_form_is_immutable():
    form = F.fermat_cubic()
    with pytest.raises(ValueError):
        form.coefficients[0] = 5.0


def test_family_s4_coefficients():
    form = F.family_s4(1.0)
    assert form.coefficients[F.monomial_index((3, 0, 0, 0))] == pytest.approx(1.0)
    assert form.coefficients[F.monomial_index((0, 3, 0, 0))] == pytest.approx(0.0)


def test_family_s4_rejects_zero():
    with pytest.raises(F.FormError):
        F.family_s4(0.0)


def test_family_s4_invariance_exact():
    form = F.family_s4(2.0)
    for m in F.s4_symmetry_matrices():
        # exact invariance: F(Mx) equals F, not just up to scalar
        composed = F.SPACE.compose_matrix(form.coefficients, m.entries)
        assert np.abs(composed - form.coefficients).max() < 1e-14


def test_s4_symmetry_matrices_are_involutions_generating_s4_projectively():
    mats = F.s4_symmetry_matrices()
    for m in mats:
        assert np.allclose(m.entries @ m.entries, np.eye(4))
    # (12)(13) should have order 3, (13)(34) order 3, (12)(34) order... S4 words
    prod = mats[0].entries @ mats[1].entries
    assert np.allclose(np.linalg.matrix_power(prod, 3), np.eye(4))


def test_s4_eckardt_candidates_lie_on_surface():
    # PAPER: p1..p6 satisfy S_a = 0, checked by evaluation at a = 3
    form = F.family_s4(3.0)
    vals = form.evaluate(F.s4_eckardt_points())
    assert np.abs(vals).max() < 1e-14


def test_family_s3_fermat_member():
    assert np.allclose(F.family_s3(0, 0).coefficients,
                       F.fermat_cubic().coefficients)


def test_family_s3c2_equals_diagonal():
    a = 0.7 - 0.2j
    assert np.array_equal(F.family_s3c2(a).coefficients,
                          F.family_s3(a, a).coefficients)


def test_family_s3_invariance():
    form = F.family_s3(1.0, 2.0)
    for m in F.s3_symmetry_matrices():
        assert form.invariance_residual(m.entries) < 1e-14


def test_family_s3_swap_equivalence():
    # swapping (a,b) is realized by the x<->y coordinate swap
    a, b = 1.3 + 0.4j, -0.8 + 0.1j
    swap = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    dtype=complex)
    composed = F.SPACE.compose_matrix(F.family_s3(a, b).coefficients, swap)
    assert np.abs(composed - F.family_s3(b, a).coefficients).max() < 1e-14


def test_family_s3c2_invariance_under_iota():
    form = F.family_s3c2(0.9 + 0.5j)
    for m in F.s3c2_symmetry_matrices():
        assert form.invariance_residual(m.entries) < 1e-13


def test_family_c2_no_x3_term():
    rng = np.random.default_rng(0)
    lin = rng.normal(size=3) + 1j * rng.normal(size=3)
    cub = rng.normal(size=10) + 1j * rng.normal(size=10)
    form = F.family_c2(lin, cub)
    assert form.evaluate(np.array([[1, 0, 0, 0]], dtype=complex))[0] == 0
    assert form.coefficients[F.monomial_index((3, 0, 0, 0))] == 0


def test_family_c2_parity_invariance():
    rng = np.random.default_rng(1)
    form = F.family_c2(rng.normal(size=3), rng.normal(size=10))
    composed = F.SPACE.compose_matrix(form.coefficients,
                                      F.c2_symmetry_matrix().entries)
    assert np.abs(composed - form.coefficients).max() < 1e-15


def test_projective_matrix_rejects_singular():
    with pytest.raises(F.FormError):
        F.ProjectiveMatrix(np.zeros((4, 4)))


def test_family_raw_coeff_maps_are_affine_and_consistent():
    for name in F.FAMILIES:
        fam = F.get_family(name)
        rng = np.random.default_rng(hash(name) & 0xFFFF)
        p0 = rng.normal(size=fam.parameter_dim) + 1j * rng.normal(size=fam.parameter_dim)
        p1 = rng.normal(size=fam.parameter_dim) + 1j * rng.normal(size=fam.parameter_dim)
        if name == "S4":
            p0[0] += 3  # keep away from the excluded a=0
            p1[0] += 3
        # affine: midpoint of raw coefficients equals raw of midpoint
        mid = fam.raw_coeffs((p0 + p1) / 2)
        assert np.allclose(mid, (fam.raw_coeffs(p0) + fam.raw_coeffs(p1)) / 2)
        # consistent: evaluator's surface equals the raw surface projectively
        form = fam.form_at(p0)
        raw = fam.raw_coeffs(p0)
        assert np.allclose(raw / np.abs(raw).max(),
                           form.coefficients * np.exp(1j * np.angle(
                               raw[np.abs(raw).argmax()]
                               / form.coefficients[np.abs(raw).argmax()])))


def test_twist_action_identifications():
    # evaluator(M p) == evaluator(p) o g up to scalar, for every twist
    for name in ("S3", "S3xC2"):
        fam = F.get_family(name)
        rng = np.random.default_rng(7)
        p = rng.normal(size=fam.parameter_dim) + 1j * rng.normal(size=fam.parameter_dim)
        for action in fam.twist_actions:
            image = action.param_matrix @ p
            lhs = fam.form_at(image).coefficients
            rhs = fam.form_at(p).transformed(action.identification.entries).coefficients
            k = int(np.abs(lhs).argmax())
            assert np.abs(rhs / rhs[k] * lhs[k] - lhs).max() < 1e-12


def test_json_roundtrip():
    form = F.family_s4(2.5)
    again = F.CubicForm.from_json(form.to_json())
    assert np.allclose(form.coefficients, again.coefficients)


def _per_variable_products(points, space):
    """Reference monomial table: one power table, one product per variable."""
    pw = np.ones(points.shape[:-1] + (space.nvars, space.degree + 1), dtype=points.dtype)
    for k in range(1, space.degree + 1):
        pw[..., k] = pw[..., k - 1] * points
    vals = np.ones(points.shape[:-1] + (space.dim,), dtype=points.dtype)
    for v in range(space.nvars):
        vals = vals * pw[..., v, space.exponents[:, v]]
    return vals


@pytest.mark.parametrize("nvars", [4, 3])
@pytest.mark.parametrize("dtype", [complex])
def test_monomial_tables_match_per_variable_products(nvars, dtype):
    rng = np.random.default_rng(nvars)
    points = rng.normal(size=(7, 4, nvars)) + 1j * rng.normal(size=(7, 4, nvars))
    points[rng.uniform(size=points.shape) < 0.3] = 0
    points = points.astype(dtype)
    space, lower = form_space(nvars, 3), form_space(nvars, 2)
    for table, ref in ((space.monomial_values(points), _per_variable_products(points, space)),
                       (lower.monomial_values(points), _per_variable_products(points, lower))):
        assert table.dtype == dtype
        assert table.flags.c_contiguous
        assert np.array_equal(table, ref)
