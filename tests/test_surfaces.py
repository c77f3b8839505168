"""Eckardt machinery, symmetry permutations, puncture scans."""

import numpy as np
import pytest

from cubicmonodromy import forms as F
from cubicmonodromy import linesolver as L
from cubicmonodromy import perms as P
from cubicmonodromy import schlafli as S
from cubicmonodromy import surfaces as SF


@pytest.fixture(scope="module")
def fermat_solve():
    return L.solve_lines(F.fermat_cubic(), seed=3)


def test_fermat_has_18_eckardt_points(fermat_solve):
    assert len(SF.eckardt_points(fermat_solve.lines)) == 18


def test_s3c2_has_4_eckardt_points_at_stated_coordinates():
    rep = L.solve_lines(F.family_s3c2(1.3), seed=5)
    found = SF.eckardt_points(rep.lines)
    assert len(found) == 4
    stated = F.s3c2_eckardt_points()
    for pt, _ in found:
        assert min(SF._projective_distance(pt, s) for s in stated) < 1e-8


def test_random_cubic_has_no_eckardt_points():
    form = F.random_cubic(np.random.default_rng(7))
    rep = L.solve_lines(form, seed=7)
    assert SF.eckardt_points(rep.lines) == []


def test_eckardt_involution_reconstruction(fermat_solve):
    # invariant: for each detected point there is a surface-preserving
    # involution fixing a plane plus the point, with residual < 1e-8
    fer = F.fermat_cubic()
    for pt, _ in SF.eckardt_points(fermat_solve.lines)[:6]:
        inv = SF.eckardt_involution(fer, pt)
        m = inv.entries
        assert np.allclose(m @ m, np.eye(4), atol=1e-9)
        assert fer.invariance_residual(m) < 1e-8
        # -1 eigenvector is the point itself
        v = pt / np.linalg.norm(pt)
        assert np.linalg.norm(m @ v + v) < 1e-8


def test_eckardt_involution_rejects_non_eckardt_point():
    fer = F.fermat_cubic()
    # a generic point of the surface is not an Eckardt point
    pt = np.array([1.0, -1.0, 0.7, (1 - 0.7**3) ** (1 / 3) * np.exp(1j * np.pi / 3)])
    # force the point onto the surface via the last coordinate
    pt[3] = (-(pt[0] ** 3 + pt[1] ** 3 + pt[2] ** 3)) ** (1 / 3)
    assert abs(fer.evaluate(pt[None, :])[0]) < 1e-12
    with pytest.raises(SF.EckardtError):
        SF.eckardt_involution(fer, pt)


def test_eckardt_involution_keeps_both_isotropic_directions():
    # at this representative both leading directions of the polar quadric are
    # isotropic: q22 is exactly 0 (and q11 rounding), so the isotropic lines
    # are (1 : 0) and (0 : 1), and a root taken as beta/alpha alone is lost
    form = F.family_s3(1.0, 2.0)
    pt = np.array([0, 0, 1, np.exp(-1j * np.pi / 3)]) / np.sqrt(2)
    zeta = np.exp(2j * np.pi / 3)
    mats = [SF.eckardt_involution(form, c * pt).entries for c in (1, -1, 1j, zeta, zeta**2)]
    for m in mats:  # a reflection has trace 2: scaled so, the matrices agree
        assert form.invariance_residual(m) < 1e-10
        assert np.abs(2 * m / np.trace(m) - 2 * mats[0] / np.trace(mats[0])).max() < 1e-10


def test_s3_aligned_eckardt_rule():
    # Lemma on Eckardt points (3): the three aligned points' involutions
    # generate an S3
    form = F.family_s3(1.0, 2.0)
    rep = L.solve_lines(form, seed=1)
    found = SF.eckardt_points(rep.lines)
    assert len(found) == 3
    pts = np.array([pt for pt, _ in found])
    assert np.linalg.svd(pts, compute_uv=False)[2] < 1e-10  # collinear
    stated = F.s3_eckardt_points()
    for pt in pts:
        assert min(SF._projective_distance(pt, s) for s in stated) < 1e-8
    invs = [SF.eckardt_involution(form, pt) for pt in pts]
    group = P.generate_group([
        SF.symmetry_permutation(i, rep.lines, form=form) for i in invs])
    assert P.fingerprint(group) == P.fingerprint(P.named_group("S3"))


def test_symmetry_permutation_identity(fermat_solve):
    ident = F.ProjectiveMatrix(np.eye(4, dtype=complex))
    perm = SF.symmetry_permutation(ident, fermat_solve.lines)
    assert perm.is_identity()


def test_fermat_symmetry_group_order_648(fermat_solve):
    # PAPER: Aut(Fermat) has order 648 and acts faithfully on the lines
    fer = F.fermat_cubic()
    gens = [SF.symmetry_permutation(m, fermat_solve.lines, form=fer)
            for m in F.fermat_symmetry_matrices()]
    group = P.generate_group(gens)
    assert group.order == 648


def test_s4_deck_group(fermat_solve):
    form = F.family_s4(5.0)
    rep = L.solve_lines(form, seed=2)
    gens = [SF.symmetry_permutation(m, rep.lines, form=form)
            for m in F.s4_symmetry_matrices()]
    group = P.generate_group(gens)
    assert group.order == 24
    assert P.fingerprint(group) == P.fingerprint(P.named_group("S4"))


def test_symmetry_permutation_rejects_non_symmetry():
    form = F.family_s4(5.0)
    rep = L.solve_lines(form, seed=2)
    bad = F.ProjectiveMatrix(np.diag([1, 2, 3, 4]).astype(complex))
    with pytest.raises(SF.SymmetryError):
        SF.symmetry_permutation(bad, rep.lines, form=form)


def test_symmetry_matrices_preserve_line_sets():
    # invariant: each listed symmetry matrix maps the computed line set to
    # itself (the matching itself succeeding is the check)
    cases = [
        (F.s4_family(), np.array([1.7 + 0.2j])),
        (F.s3_family(), np.array([0.8 + 0.1j, -1.1 + 0.4j])),
        (F.s3c2_family(), np.array([0.9 - 0.3j])),
    ]
    for fam, params in cases:
        form = fam.form_at(params)
        rep = L.solve_lines(form, seed=17)
        for m in fam.symmetry_generators:
            perm = SF.symmetry_permutation(m, rep.lines, form=form)
            assert sorted(perm.images) == list(range(27))


def test_puncture_scan_s3c2_segment():
    # DERIVED: the only real root of 4a^3+27 lies in [-3, 0]
    expected = np.real_if_close(np.roots([4, 0, 0, 27]))
    real_root = float(next(r.real for r in expected if abs(r.imag) < 1e-9))
    cands = SF.puncture_scan(F.s3c2_family(), (-3.0, 0.0), samples=30, seed=3)
    assert len(cands) == 1
    assert abs(cands[0] - real_root) < 1e-10


def test_puncture_scan_constant_path_finds_nothing():
    assert SF.puncture_scan(F.s3c2_family(), (1.0, 1.0), samples=5, seed=5) == []
