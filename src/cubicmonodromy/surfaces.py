"""Eckardt points, symmetry actions on computed lines, and the singular
members of a pencil.

An Eckardt point is a common point of three of the 27 lines.  Detection
walks the triangles of the incidence graph and tests whether the three
pairwise intersection points coincide (projective chordal distance below
1e-8; line solves are polished to ~1e-12, leaving four orders of margin).

Each Eckardt point carries a unique involution of P^3 fixing a plane and
the point and preserving the surface.  It is reconstructed exactly from
the polar quadric of the point: the fixed plane is the totally isotropic
3-space of that rank-<=2 quadric which avoids the point.

The singular members of a pencil of surfaces or plane cubics are found by
linear algebra (Cox, Little & O'Shea, *Using Algebraic Geometry*, ch. 3).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.linalg

from . import linesolver as ls
from .forms import CubicForm, FamilySpec, ProjectiveMatrix, SPACE
from .numeric import form_space, random_unitary
from .perms import Permutation

ECKARDT_TOL = 1e-8
SYMMETRY_RESIDUAL_TOL = 1e-10
RANK_GAP = 1e-10  # relative smallest singular value: <= 1.5e-15 at members, >= 8e-7 elsewhere
SAME_ROOT = 1e-8  # distance over max(1, |s|) within which two eigenvalues are one root


class EckardtError(RuntimeError):
    """No valid Eckardt involution exists at the given point."""


class SymmetryError(RuntimeError):
    """Matrix does not preserve the surface, or line matching is ambiguous."""


def _projective_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Phase-aligned chordal distance of projective points.

    Computed as the norm of the aligned difference, not sqrt(1-|<p,q>|^2):
    the latter loses half the significant digits to cancellation near
    coincident points, which matters at the 1e-8 Eckardt tolerance.
    """
    p = p / np.linalg.norm(p)
    q = q / np.linalg.norm(q)
    ov = np.vdot(q, p)
    if abs(ov) < 1e-12:
        return float(np.sqrt(2.0))
    return float(np.linalg.norm(p - q * (ov / abs(ov))))


def eckardt_points(lines: list[ls.Line]) -> list[tuple[np.ndarray, tuple[int, int, int]]]:
    """All triples of mutually meeting lines through a single point."""
    pl = np.array([l.plucker for l in lines])
    pairing = ls.pairing_matrix(pl)
    n = len(lines)
    adj = (pairing < ls.MEET_TOL) & ~np.eye(n, dtype=bool)
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            if not adj[i, j]:
                continue
            for k in range(j + 1, n):
                if not (adj[i, k] and adj[j, k]):
                    continue
                pij = ls.intersection_point(lines[i], lines[j])
                pik = ls.intersection_point(lines[i], lines[k])
                pjk = ls.intersection_point(lines[j], lines[k])
                spread = max(_projective_distance(pij, pik),
                             _projective_distance(pij, pjk),
                             _projective_distance(pik, pjk))
                if spread < ECKARDT_TOL:
                    found.append((pij, (i, j, k)))
    return found


def eckardt_involution(form: CubicForm, point: np.ndarray) -> ProjectiveMatrix:
    """The unique involution with fixed locus a plane plus the given point.

    The polar quadric B of the surface at an Eckardt point has rank at
    most 2 and a unique totally isotropic 3-space W not containing the
    point; the involution is the reflection with -1 eigenvector at the
    point and +1 eigenspace W.
    """
    v = np.asarray(point, dtype=complex)
    v = v / np.linalg.norm(v)
    # polar quadric: B[i,j] = d^2 F / dx_i dx_j at v, the third-derivative
    # tensor contracted with v (exactly symmetric, complex)
    b = SPACE.third_derivative_tensor(form.coefficients) @ v
    scale = np.abs(b).max()
    if scale == 0:
        raise EckardtError("polar quadric vanishes identically")
    u_svd, sing, vh = np.linalg.svd(b / scale)
    rank = int(np.sum(sing > 1e-7))
    if rank > 2:
        raise EckardtError(f"polar quadric has rank {rank}; not an Eckardt point")
    kernel = vh[rank:].conj()  # rows span the kernel
    if rank < 2:
        w_basis = kernel
        candidates = [w_basis]
    else:
        # restrict to the two leading right-singular directions and find
        # the two isotropic lines of the nondegenerate rank-2 part
        e1, e2 = vh[0].conj(), vh[1].conj()
        candidates = []
        for alpha, beta in _isotropic_pairs(e1 @ b @ e1, e1 @ b @ e2, e2 @ b @ e2):
            line = alpha * e1 + beta * e2
            candidates.append(np.vstack([kernel, line / np.linalg.norm(line)]))
    for w_basis in candidates:
        # does W contain v?  project v onto span(W)
        q, _ = np.linalg.qr(w_basis.conj().T)
        resid = v - q @ (q.conj().T @ v)
        if np.linalg.norm(resid) < 1e-6:
            continue
        # linear functional phi with ker = W (plain, unconjugated pairing)
        _, _, vvh = np.linalg.svd(w_basis)
        phi = vvh[-1].conj()
        denom = phi @ v
        if abs(denom) < 1e-10:
            continue
        m = np.eye(4, dtype=complex) - 2.0 * np.outer(v, phi) / denom
        if form.invariance_residual(m) < ECKARDT_TOL:
            return ProjectiveMatrix(m)
    raise EckardtError("no surface-preserving involution found at the point")


def _isotropic_pairs(q11: complex, q12: complex, q22: complex) -> list[tuple[complex, complex]]:
    """Both roots (alpha : beta) of q11 alpha^2 + 2 q12 alpha beta + q22 beta^2.

    The ratio is taken over the larger of q11 and q22, so a vanishing
    coefficient keeps its root at (1 : 0) or (0 : 1) instead of dropping it;
    when both vanish the roots are exactly those two.
    """
    if abs(q22) >= abs(q11):
        if q22 == 0:
            return [(1, 0), (0, 1)]
        return [(1, r) for r in np.roots([q22, 2 * q12, q11])]  # beta/alpha ratios
    return [(r, 1) for r in np.roots([q11, 2 * q12, q22])]  # alpha/beta ratios


def symmetry_permutation(m: ProjectiveMatrix, lines: list[ls.Line],
                         labeling=None, form: CubicForm | None = None) -> Permutation:
    """The permutation induced on the lines by a symmetry of the surface.

    Applies m to every line and matches against the input set by Plucker
    distance (Hungarian assignment with gap ratio >= 1e3).  The result
    maps slot i to the slot of m(line i); pass a labeling to transport it
    to canonical label space.
    """
    if form is not None:
        resid = form.invariance_residual(m.entries)
        if resid >= SYMMETRY_RESIDUAL_TOL:
            raise SymmetryError(f"matrix does not preserve the surface ({resid:.3g})")
    moved = ls.transform_lines(lines, m.entries)
    source = np.array([l.plucker for l in moved])
    target = np.array([l.plucker for l in lines])
    try:
        matching = ls.match_lines(source, target)
    except ls.MatchError as exc:
        raise SymmetryError(str(exc)) from exc
    perm = Permutation(matching)
    return labeling.to_label_space(perm) if labeling is not None else perm


# ---------------------------------------------------------------------------
# Singular members of a pencil: the Macaulay matrix pencil
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _macaulay_table(nvars: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer table T, with T @ c the Macaulay matrix in degree nvars + 1 of
    the gradient quadrics of the cubic c, and the rows of its square part.

    Row i * dim(nvars - 1) + r is x^u * dF/dx_i, x^u the r-th monomial of
    degree nvars - 1.  The square part has one row per monomial m of degree
    nvars + 1, (m / x_i^2) * dF/dx_i for the first i with x_i^2 | m.
    """
    cubic, mult, out = (form_space(nvars, d) for d in (3, nvars - 1, nvars + 1))
    table = np.zeros((nvars * mult.dim, out.dim, cubic.dim), dtype=np.int64)
    for i in range(nvars):
        for r, u in enumerate(mult.monomials):
            for k, e in enumerate(cubic.monomials):
                if e[i]:
                    m = tuple(a + b - (v == i) for v, (a, b) in enumerate(zip(u, e)))
                    table[i * mult.dim + r, out.index[m], k] = e[i]
    square = []
    for m in out.monomials:
        i = next(v for v in range(nvars) if m[v] >= 2)
        square.append(i * mult.dim + mult.index[m[:i] + (m[i] - 2,) + m[i + 1:]])
    return table, np.array(square)


def _rank_drops(c0: np.ndarray, c1: np.ndarray,
                frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finite eigenvalues s of the square Macaulay pencil of c0 + s c1,
    composed with the frame, at which the full matrix drops rank, and the
    full matrix's singular values there over the largest."""
    space = form_space(len(frame), 3)
    table, square = _macaulay_table(len(frame))
    a, b = (table @ space.compose_matrix(c, frame) for c in (c0, c1))
    s = scipy.linalg.eigvals(a[square], -b[square])
    s = s[np.isfinite(s)]
    rel = np.linalg.svd(a + s[:, None, None] * b, compute_uv=False)
    rel /= rel[:, :1]
    drop = rel[:, -1] < RANK_GAP
    return s[drop], rel[drop]


def singular_members(family: FamilySpec, point, direction) -> list[tuple[complex, int]]:
    """Each s at which the member point + s direction is singular, with its
    node count, ordered by real and then imaginary part.

    A cubic in n variables is singular where its n gradient quadrics have a
    common zero, that is where their Macaulay matrix in degree n + 1 drops
    rank, by one per node.  Its square part (56 x 56 for surfaces, 15 x 15
    for plane cubics) is a pencil A + s B with the singular members among
    its eigenvalues; an eigenvalue is kept where the full matrix's relative
    smallest singular value is below ``RANK_GAP``.  Eigenvalues that a
    singular B scatters from infinity also drop rank, but move with the
    coordinates: a root must come back, with a rank drop, in a second
    random unitary frame (both frames from a fixed seed).  The repeated
    eigenvalues of one member are merged.
    """
    point = np.asarray(point, dtype=complex)
    c0 = family.raw_coeffs(point)
    c1 = family.raw_coeffs(point + np.asarray(direction, dtype=complex)) - c0
    if not c1.any():
        raise ValueError("the direction does not move the coefficients")
    nvars = 4 if len(c0) == 20 else 3
    rng = np.random.default_rng(0)
    s1, rel1 = _rank_drops(c0, c1, random_unitary(nvars, rng))
    s2, _ = _rank_drops(c0, c1, random_unitary(nvars, rng))
    members: list[tuple[complex, int]] = []
    for k in np.argsort(rel1[:, -1]):  # the sharpest rank drop speaks for its root
        s = complex(s1[k])
        tol = SAME_ROOT * max(1.0, abs(s))
        if np.any(np.abs(s2 - s) <= tol) and all(abs(s - m) > tol for m, _ in members):
            members.append((s, int(np.sum(rel1[k] < RANK_GAP))))
    return sorted(members, key=lambda m: (m[0].real, m[0].imag))
