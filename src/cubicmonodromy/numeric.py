"""Shared numerical machinery: homogeneous form spaces and path tracking.

All homotopies used in this package are straight segments in a coefficient
space (the 20 cubic-surface coefficients, the 10 plane-cubic coefficients,
or an affine image of family parameters), so the tracker below handles one
batched predictor/corrector loop for a system whose residual and Jacobian
are supplied by a callback.  The predictor is classical 4th-order
Runge-Kutta on the Davidenko equation; the corrector is at most four
Newton iterations to a relative tolerance of 1e-12.  A fresh path starts
at step 0.05; a rejected step shrinks by the factor 0.4, an accepted one
grows by 1.7.  These are the module constants below; ``TrackOptions``
holds only what callers set differently: the step cap (0.2 for solves,
1.0 for loops), the step floor below which tracking fails (1e-14, or
1e-11 in the puncture-scan walker) and the collision tolerance.

A loop is a polyline of such segments, tracked with one step controller:
its ``TrackTelemetry`` keeps the last proposed step in coefficient
distance, and each segment starts from that step rescaled to its own
length.  Only the last segment of a loop ends in a Newton polish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class PathTrackingError(RuntimeError):
    """Adaptive stepping underflowed or the corrector stopped converging."""


class SheetCollisionError(RuntimeError):
    """Two tracked sheets came within the collision tolerance."""


# ---------------------------------------------------------------------------
# Homogeneous form spaces
# ---------------------------------------------------------------------------


class FormSpace:
    """Dense homogeneous forms of fixed degree, graded-lex monomial order."""

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.monomials = _monomials(nvars, degree)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self.exponents = np.array(self.monomials, dtype=np.int64)
        self._grad_ops = None

    def monomial_values(self, points: np.ndarray) -> np.ndarray:
        """Values of every monomial at points of shape (..., nvars)."""
        pts = np.asarray(points, dtype=complex)
        pw = np.ones(pts.shape[:-1] + (self.nvars, self.degree + 1), dtype=complex)
        for k in range(1, self.degree + 1):
            pw[..., k] = pw[..., k - 1] * pts
        vals = np.ones(pts.shape[:-1] + (self.dim,), dtype=complex)
        for v in range(self.nvars):
            vals = vals * pw[..., v, self.exponents[:, v]]
        return vals

    def evaluate(self, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        return self.monomial_values(points) @ np.asarray(coeffs, dtype=complex)

    def gradient_ops(self) -> tuple["FormSpace", list[np.ndarray]]:
        """Lower-degree space plus matrices sending coeffs to d/dx_v coeffs."""
        if self._grad_ops is None:
            lower = form_space(self.nvars, self.degree - 1)
            ops = []
            for v in range(self.nvars):
                op = np.zeros((lower.dim, self.dim))
                for m, e in enumerate(self.monomials):
                    if e[v] == 0:
                        continue
                    e2 = list(e)
                    e2[v] -= 1
                    op[lower.index[tuple(e2)], m] = e[v]
                ops.append(op)
            self._grad_ops = (lower, ops)
        return self._grad_ops

    def gradient(self, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Gradient at points; shape (..., nvars)."""
        lower, ops = self.gradient_ops()
        mono = lower.monomial_values(points)
        cols = [mono @ (op @ np.asarray(coeffs, dtype=complex)) for op in ops]
        return np.stack(cols, axis=-1)

    def compose_matrix(self, coeffs: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Coefficients of F(M x)."""
        m = np.asarray(m, dtype=complex)
        acc: dict[tuple[int, ...], complex] = {}
        for c, expo in zip(np.asarray(coeffs, dtype=complex), self.monomials):
            if c == 0:
                continue
            terms = {(0,) * self.nvars: complex(c)}
            for v in range(self.nvars):
                for _ in range(expo[v]):
                    new: dict[tuple[int, ...], complex] = {}
                    for e, cv in terms.items():
                        for j in range(self.nvars):
                            if m[v, j] == 0:
                                continue
                            e2 = list(e)
                            e2[j] += 1
                            key = tuple(e2)
                            new[key] = new.get(key, 0.0) + cv * m[v, j]
                    terms = new
            for e, cv in terms.items():
                acc[e] = acc.get(e, 0.0) + cv
        out = np.zeros(self.dim, dtype=complex)
        for e, cv in acc.items():
            out[self.index[e]] = cv
        return out

    def third_derivative_tensor(self, coeffs: np.ndarray) -> np.ndarray:
        """For degree-3 spaces: the symmetric tensor of third partials."""
        if self.degree != 3:
            raise ValueError("third derivatives only for cubic spaces")
        return np.einsum("m,mijk->ijk", np.asarray(coeffs, dtype=complex),
                         _third_derivative_constants(self.nvars))


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = [e for e in itertools.product(range(degree + 1), repeat=nvars)
           if sum(e) == degree]
    out.sort(reverse=True)
    return out


@lru_cache(maxsize=None)
def form_space(nvars: int, degree: int) -> FormSpace:
    return FormSpace(nvars, degree)


@lru_cache(maxsize=None)
def _third_derivative_constants(nvars: int) -> np.ndarray:
    space = form_space(nvars, 3)
    out = np.zeros((space.dim, nvars, nvars, nvars))
    for m, e in enumerate(space.monomials):
        for i in range(nvars):
            for j in range(nvars):
                for k in range(nvars):
                    e2 = list(e)
                    coef = 1
                    for v in (i, j, k):
                        coef *= e2[v]
                        e2[v] -= 1
                    if coef and all(x == 0 for x in e2):
                        out[m, i, j, k] = coef
    return out


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR with positive diagonal phases."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# Adaptive path tracking
# ---------------------------------------------------------------------------


CORRECTOR_TOL = 1e-12
MAX_NEWTON = 4
H_INIT = 0.05
GROW = 1.7
SHRINK = 0.4


@dataclass(frozen=True)
class TrackOptions:
    """Step floor and cap, and the sheet collision tolerance (None: unchecked)."""

    h_min: float = 1e-14
    h_max: float = 0.2
    collision_tol: float | None = None


@dataclass
class TrackTelemetry:
    """Counters of one tracked path, and the step it carries between segments.

    ``step`` is the last proposed step in coefficient distance (the step
    in t times the segment's ``length()``), None before the first segment.
    ``min_path_separation`` is the least ``collision_gap`` over the
    accepted steps of a collision-checked path.
    """

    steps: int = 0
    rejected: int = 0
    max_condition: float = 0.0
    max_corrector_residual: float = 0.0
    escalations: int = 0
    step: float | None = None
    min_path_separation: float = np.inf


class SegmentSystem:
    """A chart system along the straight segment c(t) = (1-t) c_from + t c_to.

    The base class owns the segment: its end points, their difference
    ``c_diff`` and the coefficients ``coeffs(t)``.  Subclasses supply the
    residual R(z,t), the Jacobian dR/dz and the t-derivative dR/dt for a
    batch of sheets, plus optional housekeeping hooks; this is the
    interface that :func:`track_segment` consumes.
    """

    def __init__(self, c_from: np.ndarray, c_to: np.ndarray):
        self.c_from = np.asarray(c_from, dtype=complex)
        self.c_to = np.asarray(c_to, dtype=complex)
        self.c_diff = self.c_to - self.c_from

    def coeffs(self, t: float) -> np.ndarray:
        return (1 - t) * self.c_from + t * self.c_to

    def length(self) -> float:
        """Coefficient distance covered by the segment (max-norm)."""
        return float(np.abs(self.c_diff).max())

    def residual(self, state, t: float) -> np.ndarray:
        raise NotImplementedError

    def res_jac_dt(self, state, t: float):
        """Return (R, J, Rt) with shapes (n,k), (n,k,k), (n,k)."""
        raise NotImplementedError

    def update(self, state, delta) -> object:
        """Apply a Newton/predictor increment to the state."""
        raise NotImplementedError

    def normalize(self, state) -> object:
        """Housekeeping after an accepted step (e.g. chart switching)."""
        return state

    def scale(self, state, t: float) -> np.ndarray:
        """Per-sheet residual scale for convergence tests."""
        raise NotImplementedError

    def param_scale(self, state) -> np.ndarray:
        """Per-sheet magnitude of the unknowns, for relative step tests."""
        raise NotImplementedError

    def collision_gap(self, state) -> float:
        """Minimal pairwise separation of sheets (inf when not applicable)."""
        return np.inf


def _newton(system: SegmentSystem, state, t: float, telemetry: TrackTelemetry):
    """Newton-correct the whole batch at fixed t; returns state or None."""
    for _ in range(MAX_NEWTON):
        r, j, _ = system.res_jac_dt(state, t)
        try:
            delta = np.linalg.solve(j, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        state = system.update(state, -delta)
        step = np.abs(delta).max(axis=-1)
        if (step < CORRECTOR_TOL * system.param_scale(state)).all():
            res = np.abs(system.residual(state, t)).max(axis=-1)
            rel = res / system.scale(state, t)
            telemetry.max_corrector_residual = max(
                telemetry.max_corrector_residual, float(rel.max()))
            if (rel < 10 * CORRECTOR_TOL).all():
                return state
    return None


def _davidenko(system: SegmentSystem, state, t: float):
    _, j, rt = system.res_jac_dt(state, t)
    try:
        return -np.linalg.solve(j, rt[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None


def track_segment(system: SegmentSystem, state, opts: TrackOptions | None = None,
                  telemetry: TrackTelemetry | None = None, polish: bool = True):
    """Track all sheets of a segment from t=0 to t=1.

    The batch shares one adaptive step: a corrector failure on any sheet
    shrinks the step for all of them.  A fresh telemetry starts the step
    at ``H_INIT``; one that has tracked a segment before starts it
    from its carried ``step``, rescaled to this segment's length and
    capped at ``opts.h_max``.  The last step is cut to end at t=1; the
    cut does not shrink the step carried on.  A zero-length segment takes
    no step.  With ``polish=False`` the final Newton polish at t=1 and the
    conditioning estimate are skipped, for a segment that another segment
    of the same path follows.  Raises PathTrackingError when the step
    underflows and SheetCollisionError when two sheets merge.
    """
    opts = opts or TrackOptions()
    telemetry = telemetry or TrackTelemetry()
    length = system.length()
    if telemetry.step is None or length == 0:
        proposal = H_INIT
    else:
        proposal = min(telemetry.step / length, opts.h_max)
    t = 0.0 if length > 0 else 1.0
    while t < 1.0:
        h = min(proposal, 1.0 - t)
        k1 = _davidenko(system, state, t)
        accepted = None
        if k1 is not None:
            k2 = _davidenko(system, system.update(state, 0.5 * h * k1), t + 0.5 * h)
            k3 = None if k2 is None else _davidenko(
                system, system.update(state, 0.5 * h * k2), t + 0.5 * h)
            k4 = None if k3 is None else _davidenko(
                system, system.update(state, h * k3), t + h)
            if k4 is not None:
                pred = system.update(state, (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
                accepted = _newton(system, pred, t + h, telemetry)
        if accepted is None:
            telemetry.rejected += 1
            proposal = h * SHRINK
            if proposal < opts.h_min:
                raise PathTrackingError(f"step size underflow at t={t:.6g}")
            continue
        state = system.normalize(accepted)
        t += h
        telemetry.steps += 1
        if opts.collision_tol is not None:
            gap = system.collision_gap(state)
            telemetry.min_path_separation = min(telemetry.min_path_separation, gap)
            if gap < opts.collision_tol:
                raise SheetCollisionError(f"sheet separation {gap:.3g} at t={t:.6g}")
        proposal = min(max(proposal, h * GROW), opts.h_max)
    if length > 0:
        telemetry.step = proposal * length
    if not polish:
        return state, telemetry
    polished = _newton(system, state, 1.0, telemetry)
    if polished is None:
        raise PathTrackingError("final Newton polish failed at t=1")
    _, j, _ = system.res_jac_dt(polished, 1.0)
    conds = np.linalg.cond(j)
    telemetry.max_condition = max(telemetry.max_condition, float(np.max(conds)))
    return polished, telemetry
