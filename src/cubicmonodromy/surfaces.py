"""Eckardt points, symmetry actions on computed lines, and puncture scans.

An Eckardt point is a common point of three of the 27 lines.  Detection
walks the triangles of the incidence graph and tests whether the three
pairwise intersection points coincide (projective chordal distance below
1e-8; line solves are polished to ~1e-12, leaving four orders of margin).

Each Eckardt point carries a unique involution of P^3 fixing a plane and
the point and preserving the surface.  It is reconstructed exactly from
the polar quadric of the point: the fixed plane is the totally isotropic
3-space of that rank-<=2 quadric which avoids the point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linesolver as ls
from .forms import CubicForm, FamilySpec, FormError, ProjectiveMatrix, SPACE
from .numeric import (PathTrackingError, SheetCollisionError, TrackOptions,
                      TrackTelemetry, track_segment)
from .perms import Permutation

ECKARDT_TOL = 1e-8
SYMMETRY_RESIDUAL_TOL = 1e-10
REFINE_TOL = 1e-10  # puncture estimates, in the segment parameter


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
# Puncture scanning along one-parameter segments
# ---------------------------------------------------------------------------


@dataclass
class _ScanProbe:
    t: float
    min_distance: float  # -1 marks a tracking failure
    max_condition: float


class _SegmentWalker:
    """Continues the line set of a 1-parameter family along [0,1].

    Healthy probe states are cached so later probes continue from the
    nearest solved parameter rather than tracking from the segment start
    (which would cross any puncture between the start and the probe).
    """

    def __init__(self, family: FamilySpec, start: complex, end: complex,
                 seed: int = 0):
        self.family = family
        self.start = complex(start)
        self.end = complex(end)
        base_form = family.form_at([self.start])
        self.base = ls.solve_lines(base_form, seed=seed)
        self.opts = TrackOptions(h_min=1e-11)
        self._cache: dict[float, ls.SheetState] = {
            0.0: ls.sheets_from_lines(self.base.lines)}

    def param_at(self, t: float) -> complex:
        return (1 - t) * self.start + t * self.end

    def probe(self, t: float) -> _ScanProbe:
        """Continue from the nearest cached state; report endpoint separation.

        When continuation fails (e.g. the path from the anchor crosses a
        puncture), the walker reseeds with a fresh solve at the probe
        parameter: the Fermat homotopy runs through the 20-coefficient
        space and generically misses the family's punctures.
        """
        anchor = min(self._cache, key=lambda t0: abs(t0 - t))
        c_from = self.family.raw_coeffs([self.param_at(anchor)])
        c_to = self.family.raw_coeffs([self.param_at(t)])
        state = self._cache[anchor]
        telemetry = TrackTelemetry()
        try:
            state, telemetry = track_segment(
                ls.LineSystem(c_from, c_to), state, self.opts, telemetry)
        except (PathTrackingError, SheetCollisionError, np.linalg.LinAlgError):
            state = None
        if state is None:
            try:
                fresh = ls.solve_lines(self.family.form_at([self.param_at(t)]),
                                       seed=hash((round(t, 14), 17)) & 0xFFFF,
                                       attempts=2)
            except (ls.SolveError, FormError):
                # construction errors at visibly singular parameters count
                # as degenerate probes too
                return _ScanProbe(t=t, min_distance=-1.0,
                                  max_condition=telemetry.max_condition)
            state = ls.sheets_from_lines(fresh.lines)
        gap = ls.min_pairwise_distance(ls.sheet_pluckers(state))
        if gap > 1e-3:
            self._cache[t] = state
        return _ScanProbe(t=t, min_distance=gap,
                          max_condition=telemetry.max_condition)


def puncture_scan(family: FamilySpec, segment: tuple[complex, complex],
                  samples: int = 40, seed: int = 0) -> list[complex]:
    """Parameter values on the segment where the line solve degenerates.

    Degeneration shows as a dip of the minimal pairwise Plucker distance
    (two lines colliding), a conditioning spike, or an outright tracking
    failure.  Candidates are refined to ``REFINE_TOL`` in the segment
    parameter by bracketed minimization plus square-root-model
    extrapolation (the separation behaves like sqrt|t - t*| at a simple
    collision).
    """
    if family.parameter_dim < 1:
        raise ValueError("family must have at least one parameter")
    start, end = complex(segment[0]), complex(segment[1])
    walker = _SegmentWalker(family, start, end, seed=seed)
    ts = np.linspace(0.0, 1.0, samples + 1)
    # the basepoint itself must be regular; probe strictly inside
    probes = [walker.probe(float(t)) for t in ts]
    dists = np.array([p.min_distance for p in probes])
    conds = np.array([p.max_condition for p in probes])
    healthy = dists[dists > 0]
    if not len(healthy):
        raise RuntimeError("no healthy samples on the segment")
    dip_level = 0.3 * float(np.median(healthy))
    spike_level = 1e10
    candidate_spans = []
    for i in range(1, samples):
        is_dip = (0 <= dists[i] < dip_level and
                  dists[i] <= dists[i - 1] and dists[i] <= dists[i + 1])
        if dists[i] < 0 or is_dip or conds[i] > spike_level:
            candidate_spans.append((float(ts[i - 1]), float(ts[i + 1])))
    # merge overlapping spans
    merged: list[list[float]] = []
    for lo, hi in candidate_spans:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    out = []
    for lo, hi in merged:
        t_star = _refine_dip(walker, lo, hi)
        if t_star is not None:
            out.append(walker.param_at(t_star))
    return out


def _refine_dip(walker: _SegmentWalker, lo: float, hi: float) -> float | None:
    """Golden-section narrowing plus sqrt-model extrapolation of the dip."""

    def d(t: float) -> float:
        return walker.probe(t).min_distance

    invphi = (np.sqrt(5.0) - 1) / 2
    a, b = lo, hi
    m1 = b - invphi * (b - a)
    m2 = a + invphi * (b - a)
    d1, d2 = d(m1), d(m2)
    for _ in range(80):
        if b - a < REFINE_TOL:
            break
        # failures (-1) sort below every healthy value, pulling the
        # bracket onto the degenerate region
        if d1 <= d2:
            b, m2, d2 = m2, m1, d1
            m1 = b - invphi * (b - a)
            d1 = d(m1)
        else:
            a, m1, d1 = m1, m2, d2
            m2 = a + invphi * (b - a)
            d2 = d(m2)
        if b - a < 1e-5:
            t_star = _sqrt_model_refine(walker, a, b)
            if t_star is not None:
                return t_star
    t_star = 0.5 * (a + b)
    probe = walker.probe(max(0.0, min(1.0, t_star + 1e-7)))
    if probe.min_distance < 0 or probe.min_distance < 1e-2:
        return t_star
    return None


def _sqrt_model_refine(walker: _SegmentWalker, a: float, b: float) -> float | None:
    """Fit d ~ C sqrt|t - t*| from one side and iterate the intercept."""
    h = (b - a)
    t1, t2 = a - 8 * h, a - 3 * h
    if t1 < 0:
        return None
    d1, d2 = walker.probe(t1).min_distance, walker.probe(t2).min_distance
    if d1 <= 0 or d2 <= 0 or d1 <= d2:
        return None
    t_star = None
    for _ in range(60):
        r = (d1 / d2) ** 2
        t_new = (t1 - r * t2) / (1 - r)
        if not np.isfinite(t_new):
            return None
        if t_star is not None and abs(t_new - t_star) < REFINE_TOL:
            return float(t_new)
        t_star = t_new
        # move the probe pair closer to the estimate, staying on the left
        t_probe = t_star - max(REFINE_TOL, 0.25 * abs(t_star - t2))
        d_probe = walker.probe(t_probe).min_distance
        if d_probe <= 0:
            # stepped past the puncture; fall back to the last estimate
            return float(t_star)
        t1, d1 = t2, d2
        t2, d2 = t_probe, d_probe
        if d1 <= d2:
            return float(t_star)
    return float(t_star) if t_star is not None else None
