"""Lines on cubic surfaces by homotopy continuation from the Fermat cubic.

A line is stored in one of the six coordinate charts: chart (i0,i1|j0,j1)
means x_j0 = a x_i0 + b x_i1 and x_j1 = c x_i0 + d x_i1, so the line is
spanned by v1 = e_i0 + a e_j0 + c e_j1 and v2 = e_i1 + b e_j0 + d e_j1.
Restricting a cubic form to the span gives a binary cubic whose four
coefficients are the chart system; its roots in (a,b,c,d) are the lines.

The solver composes the target with a random unitary frame (making all
lines chart-visible with probability 1), tracks the 27 known Fermat lines
along the straight coefficient segment gamma*F_fermat -> F_target, and
maps the results back.  Sheets switch charts on the fly when their
parameters grow, so lines passing near chart infinity stay tracked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import schlafli
from .forms import SPACE, CubicForm, fermat_cubic
from .numeric import (PathTrackingError, SegmentSystem, SheetCollisionError,
                      TrackOptions, TrackTelemetry, random_unitary,
                      track_segment)

# free coordinate pairs of the six charts; dependents are the complements
CHART_FREE = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
CHART_DEP = np.array([[2, 3], [1, 3], [1, 2], [0, 3], [0, 2], [0, 1]])

# sample parameters (s,t) whose evaluations determine a binary cubic
_SAMPLES = np.array([[1, 0], [0, 1], [1, 1], [1, -1]], dtype=complex)
_VANDER = np.array([[s ** (3 - m) * t ** m for m in range(4)] for s, t in _SAMPLES])
_VINV = np.linalg.inv(_VANDER)

# Plucker coordinate order: (01, 02, 03, 12, 13, 23)
_PLUCKER_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PLUCKER_I, _PLUCKER_J = np.array(_PLUCKER_PAIRS).T
# the symmetric meet pairing as a matrix in that order
_MEET_FORM = np.zeros((6, 6))
for _k, _l, _sign in ((0, 5, 1), (1, 4, -1), (2, 3, 1)):
    _MEET_FORM[_k, _l] = _MEET_FORM[_l, _k] = _sign

MEET_TOL = 1e-8
MEET_AMBIGUOUS = 1e-4
DISTINCT_TOL = 1e-6
RESIDUAL_TOL = 1e-10
POLISH_TOL = 1e-12
ESCALATE_COND = 1e10
MATCH_GAP_MIN = 1e3


class SolveError(RuntimeError):
    """The solve did not produce 27 distinct certified lines."""


class MeetAmbiguityError(RuntimeError):
    """Plucker pairing landed in the rejection band [1e-8, 1e-4]."""


class MatchError(RuntimeError):
    """Endpoint matching violated the best/second-best gap ratio."""


@dataclass(frozen=True)
class Line:
    """A line in P^3: chart index, chart parameters, normalized Plucker."""

    chart: int
    params: np.ndarray
    plucker: np.ndarray

    def basis(self) -> np.ndarray:
        return basis_from_chart(self.chart, self.params)

    def to_json(self) -> dict:
        return {
            "chart": [list(map(int, CHART_FREE[self.chart])),
                      list(map(int, CHART_DEP[self.chart]))],
            "params": [[float(c.real), float(c.imag)] for c in self.params],
            "plucker": [[float(c.real), float(c.imag)] for c in self.plucker],
        }


def basis_from_chart(chart: int, params: np.ndarray) -> np.ndarray:
    """Two spanning row vectors of the line."""
    a, b, c, d = params
    (i0, i1), (j0, j1) = CHART_FREE[chart], CHART_DEP[chart]
    basis = np.zeros((2, 4), dtype=complex)
    basis[0, i0] = 1
    basis[0, j0] = a
    basis[0, j1] = c
    basis[1, i1] = 1
    basis[1, j0] = b
    basis[1, j1] = d
    return basis


def chart_params_from_basis(basis: np.ndarray, chart: int) -> np.ndarray | None:
    """Chart parameters of the spanned line, or None if not visible."""
    free, dep = CHART_FREE[chart], CHART_DEP[chart]
    mf = basis[:, free]
    det = mf[0, 0] * mf[1, 1] - mf[0, 1] * mf[1, 0]
    scale = np.abs(mf).max()
    if scale == 0 or abs(det) < 1e-12 * scale * scale:
        return None
    c = np.linalg.solve(mf, basis[:, dep])
    return np.array([c[0, 0], c[1, 0], c[0, 1], c[1, 1]])


def best_chart(basis: np.ndarray) -> tuple[int, np.ndarray]:
    """The chart minimizing the largest parameter magnitude."""
    best = None
    for chart in range(6):
        params = chart_params_from_basis(basis, chart)
        if params is None:
            continue
        height = np.abs(params).max()
        if best is None or height < best[0]:
            best = (height, chart, params)
    if best is None:
        raise SolveError("line is invisible in every chart")
    return best[1], best[2]


def plucker_from_basis(basis: np.ndarray) -> np.ndarray:
    v1, v2 = basis
    p = np.array([v1[i] * v2[j] - v1[j] * v2[i] for i, j in _PLUCKER_PAIRS])
    return normalize_plucker(p)


def normalize_plucker(p: np.ndarray) -> np.ndarray:
    """Unit norm with the first significantly nonzero entry real positive."""
    p = np.asarray(p, dtype=complex)
    n = np.linalg.norm(p)
    if n == 0:
        raise SolveError("zero Plucker vector")
    p = p / n
    for c in p:
        if abs(c) > 1e-6:
            return p * (abs(c) / c)
    raise SolveError("degenerate Plucker vector")


def line_from_basis(basis: np.ndarray) -> Line:
    chart, params = best_chart(basis)
    return Line(chart=chart, params=params, plucker=plucker_from_basis(basis))


def plucker_quadric_residual(p: np.ndarray) -> float:
    return abs(p[0] * p[5] - p[1] * p[4] + p[2] * p[3])


def meet_pairing(p: np.ndarray, q: np.ndarray) -> complex:
    return p @ _MEET_FORM @ q


def lines_meet(l1: Line, l2: Line) -> bool:
    """Incidence via the symmetric Plucker pairing, with a rejection band."""
    val = abs(meet_pairing(l1.plucker, l2.plucker))
    if val < MEET_TOL:
        return True
    if val < MEET_AMBIGUOUS:
        raise MeetAmbiguityError(f"meet pairing {val:.3g} in the ambiguous band")
    return False


def pairing_matrix(pluckers: np.ndarray) -> np.ndarray:
    return np.abs(pluckers @ _MEET_FORM @ pluckers.T)


def incidence_graph(lines: list[Line]) -> np.ndarray:
    """Boolean incidence matrix; raises unless it is srg(27,10,1,5)."""
    pl = np.array([l.plucker for l in lines])
    pairing = pairing_matrix(pl)
    off = ~np.eye(len(lines), dtype=bool)
    bad = (pairing >= MEET_TOL) & (pairing < MEET_AMBIGUOUS) & off
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise MeetAmbiguityError(
            f"pairing of lines {i},{j} = {pairing[i, j]:.3g} in the ambiguous band")
    adj = (pairing < MEET_TOL) & off
    schlafli.check_srg_27_10_1_5(adj)
    return adj


def chordal_distance_matrix(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Chordal distances between unit projective Plucker vectors."""
    overlap = np.abs(pa @ pb.conj().T)
    return np.sqrt(np.clip(1.0 - overlap**2, 0.0, None))


def min_pairwise_distance(pluckers: np.ndarray) -> float:
    d = chordal_distance_matrix(pluckers, pluckers)
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def match_lines(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Hungarian assignment a->b on chordal distance, with gap auditing.

    Returns m with m[i] = j meaning row i of pa matches row j of pb.
    Raises MatchError when the best/second-best ratio drops below
    MATCH_GAP_MIN.
    """
    d = chordal_distance_matrix(pa, pb)
    rows, cols = linear_sum_assignment(d)
    m = np.empty(len(pa), dtype=np.int64)
    for i, j in zip(rows, cols):
        m[i] = j
        others = np.delete(d[i], j)
        second = others.min() if len(others) else np.inf
        if second < MATCH_GAP_MIN * max(d[i, j], 1e-300):
            raise MatchError(
                f"ambiguous match for line {i}: best {d[i, j]:.3g}, second {second:.3g}")
    return m


def intersection_point(l1: Line, l2: Line) -> np.ndarray:
    """The common point of two meeting lines (unit norm, phase-fixed)."""
    b1, b2 = l1.basis(), l2.basis()
    stack = np.vstack([b1, -b2]).T  # columns v1 v2 -w1 -w2
    _, s, vh = np.linalg.svd(stack)
    coef = vh[-1].conj()
    point = coef[0] * b1[0] + coef[1] * b1[1]
    n = np.linalg.norm(point)
    if n < 1e-12:
        raise SolveError("lines do not meet")
    point = point / n
    k = int(np.abs(point).argmax())
    return point * (abs(point[k]) / point[k])


def line_contains_point(line: Line, point: np.ndarray) -> bool:
    basis = line.basis()
    q, _ = np.linalg.qr(basis.conj().T)
    p = np.asarray(point, dtype=complex)
    proj = q @ (q.conj().T @ p)
    return bool(np.linalg.norm(p - proj) <= 1e-8 * np.linalg.norm(p))


# ---------------------------------------------------------------------------
# The Fermat start system
# ---------------------------------------------------------------------------


def fermat_start_lines() -> list[Line]:
    """The 27 classical lines of x^3+y^3+z^3+w^3, exactly.

    Three families of nine: {x = -z^a y, z = -z^b w}, {x = -z^a z, y = -z^b w}
    and {x = -z^a w, y = -z^b z} for cube roots of unity z^a, z^b.
    """
    zeta = np.exp(2j * np.pi / 3)
    lines = []
    for fam in range(3):
        for a in range(3):
            for b in range(3):
                za, zb = -zeta**a, -zeta**b
                if fam == 0:
                    chart, params = 4, np.array([za, 0, 0, zb])  # free (y,w)
                elif fam == 1:
                    chart, params = 5, np.array([za, 0, 0, zb])  # free (z,w)
                else:
                    chart, params = 5, np.array([0, za, zb, 0])  # free (z,w)
                basis = basis_from_chart(chart, params.astype(complex))
                lines.append(Line(chart=chart, params=params.astype(complex),
                                  plucker=plucker_from_basis(basis)))
    return lines


# ---------------------------------------------------------------------------
# The chart system along a coefficient segment
# ---------------------------------------------------------------------------


@dataclass
class SheetState:
    charts: np.ndarray  # (n,) int
    params: np.ndarray  # (n,4) complex


def sheet_pluckers(state: SheetState) -> np.ndarray:
    """Unit Plucker vectors of all sheets at once, shape (n, 6).

    Unlike :func:`plucker_from_basis` the phase is left free: chordal
    distances and the Hungarian matching do not depend on it.
    """
    n = len(state.charts)
    rows = np.arange(n)
    free, dep = CHART_FREE[state.charts], CHART_DEP[state.charts]
    basis = np.zeros((n, 2, 4), dtype=complex)
    basis[rows, 0, free[:, 0]] = 1
    basis[rows, 1, free[:, 1]] = 1
    basis[rows, :, dep[:, 0]] = state.params[:, 0:2]  # a, b
    basis[rows, :, dep[:, 1]] = state.params[:, 2:4]  # c, d
    v1, v2 = basis[:, 0], basis[:, 1]
    p = v1[:, _PLUCKER_I] * v2[:, _PLUCKER_J] - v1[:, _PLUCKER_J] * v2[:, _PLUCKER_I]
    return p / np.linalg.norm(p, axis=1, keepdims=True)


class LineSystem(SegmentSystem):
    """27-line chart system along c(t) = (1-t) c_from + t c_to."""

    def _points(self, state: SheetState) -> np.ndarray:
        n = len(state.charts)
        free = CHART_FREE[state.charts]  # (n,2)
        dep = CHART_DEP[state.charts]
        pts = np.zeros((n, 4, 4), dtype=complex)
        rows = np.arange(n)[:, None]
        samples = np.arange(4)[None, :]
        s, t = _SAMPLES[:, 0], _SAMPLES[:, 1]
        a, b, c, d = state.params.T
        pts[rows, samples, free[:, 0][:, None]] = s[None, :]
        pts[rows, samples, free[:, 1][:, None]] = t[None, :]
        pts[rows, samples, dep[:, 0][:, None]] = a[:, None] * s + b[:, None] * t
        pts[rows, samples, dep[:, 1][:, None]] = c[:, None] * s + d[:, None] * t
        return pts

    def residual(self, state: SheetState, t: float) -> np.ndarray:
        vals = SPACE.evaluate(self.coeffs(t), self._points(state))
        return vals @ _VINV.T

    def res_jac_dt(self, state: SheetState, t: float):
        pts = self._points(state)
        mono = SPACE.monomial_values(pts)  # (n,4,20)
        coeffs = self.coeffs(t)
        vals = mono @ coeffs
        r = vals @ _VINV.T
        rt = (mono @ self.c_diff) @ _VINV.T
        grad_space, grad_ops = SPACE.gradient_ops()
        gmono = grad_space.monomial_values(pts)  # (n,4,10)
        grads = np.stack([gmono @ (op @ coeffs) for op in grad_ops], axis=-1)
        n = len(state.charts)
        rows = np.arange(n)[:, None]
        samples = np.arange(4)[None, :]
        dep = CHART_DEP[state.charts]
        g0 = grads[rows, samples, dep[:, 0][:, None]]  # (n,4)
        g1 = grads[rows, samples, dep[:, 1][:, None]]
        s, tt = _SAMPLES[:, 0], _SAMPLES[:, 1]
        dvals = np.stack([g0 * s, g0 * tt, g1 * s, g1 * tt], axis=-1)  # (n,4,4)
        j = np.einsum("mr,nrp->nmp", _VINV, dvals)
        return r, j, rt

    def update(self, state: SheetState, delta: np.ndarray) -> SheetState:
        return SheetState(charts=state.charts, params=state.params + delta)

    def normalize(self, state: SheetState) -> SheetState:
        heights = np.abs(state.params).max(axis=1)
        if (heights <= 8.0).all():
            return state
        charts = state.charts.copy()
        params = state.params.copy()
        for k in np.nonzero(heights > 8.0)[0]:
            basis = basis_from_chart(int(charts[k]), params[k])
            charts[k], params[k] = best_chart(basis)
        return SheetState(charts=charts, params=params)

    def scale(self, state: SheetState, t: float) -> np.ndarray:
        cnorm = np.abs(self.coeffs(t)).max()
        height = 1.0 + np.abs(state.params).max(axis=1)
        return cnorm * height**3

    def param_scale(self, state: SheetState) -> np.ndarray:
        return 1.0 + np.abs(state.params).max(axis=1)

    def collision_gap(self, state: SheetState) -> float:
        return min_pairwise_distance(sheet_pluckers(state))


def lines_from_sheets(state: SheetState) -> list[Line]:
    out = []
    for c, p in zip(state.charts, state.params):
        basis = basis_from_chart(int(c), p)
        out.append(Line(chart=int(c), params=p.copy(),
                        plucker=plucker_from_basis(basis)))
    return out


def sheets_from_lines(lines: list[Line]) -> SheetState:
    return SheetState(
        charts=np.array([l.chart for l in lines], dtype=np.int64),
        params=np.array([l.params for l in lines]),
    )


def transform_lines(lines: list[Line], matrix: np.ndarray) -> list[Line]:
    """Apply a projective matrix to every line (new basis rows M v)."""
    out = []
    for l in lines:
        basis = l.basis() @ np.asarray(matrix, dtype=complex).T
        out.append(line_from_basis(basis))
    return out


# ---------------------------------------------------------------------------
# Polish and certification
# ---------------------------------------------------------------------------


def _polish_sheets(coeffs: np.ndarray, state: SheetState) -> tuple[SheetState, float, int]:
    """Newton polish all sheets at fixed coefficients.

    Returns (state, max relative chart residual, number of long-double
    escalations).  Sheets whose Jacobian conditioning exceeds
    ``ESCALATE_COND`` are refined once more in extended precision.
    """
    system = LineSystem(coeffs, coeffs)
    escalations = 0
    for _ in range(6):
        r, j, _ = system.res_jac_dt(state, 1.0)
        delta = np.linalg.solve(j, r[..., None])[..., 0]
        state = system.update(state, -delta)
        if (np.abs(delta).max(axis=-1) < POLISH_TOL * system.param_scale(state)).all():
            break
    r, j, _ = system.res_jac_dt(state, 1.0)
    conds = np.linalg.cond(j)
    hot = np.nonzero(conds > ESCALATE_COND)[0]
    if len(hot):
        params = state.params.copy()
        for k in hot:
            params[k] = _polish_one_longdouble(coeffs, int(state.charts[k]), params[k])
            escalations += 1
        state = SheetState(charts=state.charts, params=params)
        r = system.residual(state, 1.0)
    rel = float((np.abs(r).max(axis=-1) / system.scale(state, 1.0)).max())
    return state, rel, escalations


def _polish_one_longdouble(coeffs: np.ndarray, chart: int,
                           params: np.ndarray) -> np.ndarray:
    """Extended-precision Newton for one badly conditioned sheet."""
    c = coeffs.astype(np.clongdouble)
    expo = SPACE.exponents
    free, dep = CHART_FREE[chart], CHART_DEP[chart]
    z = params.astype(np.clongdouble)

    def residual_jacobian(z):
        r = np.zeros(4, dtype=np.clongdouble)
        jac = np.zeros((4, 4), dtype=np.clongdouble)
        for row, (s, t) in enumerate(_SAMPLES):
            pt = np.zeros(4, dtype=np.clongdouble)
            pt[free[0]], pt[free[1]] = s, t
            pt[dep[0]] = z[0] * s + z[1] * t
            pt[dep[1]] = z[2] * s + z[3] * t
            val = np.clongdouble(0)
            grad = np.zeros(4, dtype=np.clongdouble)
            for cm, e in zip(c, expo):
                term = cm * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] * pt[3] ** e[3]
                val += term
                for v in range(4):
                    if e[v]:
                        gterm = cm * e[v] * pt[v] ** (e[v] - 1)
                        for u in range(4):
                            if u != v and e[u]:
                                gterm *= pt[u] ** e[u]
                        grad[v] += gterm
            r[row] = val
            jac[row] = [grad[dep[0]] * s, grad[dep[0]] * t,
                        grad[dep[1]] * s, grad[dep[1]] * t]
        return _VINV.astype(np.clongdouble) @ r, _VINV.astype(np.clongdouble) @ jac

    for _ in range(8):
        r, jac = residual_jacobian(z)
        delta = np.linalg.solve(jac.astype(complex), r.astype(complex))
        z = z - delta.astype(np.clongdouble)
        if np.abs(delta).max() < 1e-16 * (1 + float(np.abs(z.astype(complex)).max())):
            break
    return z.astype(complex)


def certify_lines(form: CubicForm, lines: list[Line], rng: np.random.Generator) -> float:
    """Max scale-normalized |F| over five random points of every line."""
    worst = 0.0
    cnorm = np.abs(form.coefficients).max()
    for line in lines:
        st = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        pts = st @ line.basis()
        vals = np.abs(form.evaluate(pts))
        scales = cnorm * np.linalg.norm(pts, axis=1) ** 3
        worst = max(worst, float((vals / scales).max()))
    return worst


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------


@dataclass
class SolveReport:
    """27 polished lines plus solve telemetry."""

    lines: list[Line]
    max_residual: float
    min_pairwise_distance: float
    path_failures: int
    seed: int
    gamma: complex
    telemetry: TrackTelemetry = field(default_factory=TrackTelemetry)

    def pluckers(self) -> np.ndarray:
        return np.array([l.plucker for l in self.lines])

    def to_json(self) -> dict:
        return {
            "lines": [l.to_json() for l in self.lines],
            "max_residual": self.max_residual,
            "min_pairwise_distance": self.min_pairwise_distance,
            "path_failures": self.path_failures,
            "seed": self.seed,
            "gamma": [self.gamma.real, self.gamma.imag],
            "tolerances": {
                "residual": RESIDUAL_TOL,
                "polish": POLISH_TOL,
                "distinct": DISTINCT_TOL,
                "meet": MEET_TOL,
            },
        }


def solve_lines(form: CubicForm, seed: int = 0, attempts: int = 4) -> SolveReport:
    """All 27 lines of a smooth cubic surface.

    Homotopy from the Fermat cubic with a fresh random gamma and unitary
    frame per attempt; failures (probable singular surface or unlucky
    path) are retried and counted in path_failures.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    last_error: Exception | None = None
    for _ in range(attempts):
        gamma = np.exp(2j * np.pi * rng.uniform())
        frame = random_unitary(4, rng)
        try:
            lines, telemetry = _solve_in_frame(form, gamma, frame)
        except (PathTrackingError, SheetCollisionError, SolveError,
                np.linalg.LinAlgError) as exc:
            failures += 1
            last_error = exc
            continue
        pl = np.array([l.plucker for l in lines])
        min_dist = min_pairwise_distance(pl)
        if min_dist <= DISTINCT_TOL:
            failures += 1
            last_error = SolveError(
                f"lines not distinct (min distance {min_dist:.3g}); "
                "probable singular surface")
            continue
        residual = certify_lines(form, lines, rng)
        if residual >= RESIDUAL_TOL:
            failures += 1
            last_error = SolveError(f"residual certification failed ({residual:.3g})")
            continue
        return SolveReport(lines=lines, max_residual=residual,
                           min_pairwise_distance=min_dist,
                           path_failures=failures, seed=seed, gamma=gamma,
                           telemetry=telemetry)
    raise SolveError(f"no certified solve in {attempts} attempts: {last_error}")


def _solve_in_frame(form: CubicForm, gamma: complex, frame: np.ndarray):
    frame_inv = np.linalg.inv(frame)
    c_start = gamma * SPACE.compose_matrix(fermat_cubic().coefficients, frame)
    c_target = SPACE.compose_matrix(form.coefficients, frame)
    start_lines = [line_from_basis(l.basis() @ frame_inv.T)
                   for l in fermat_start_lines()]
    state = sheets_from_lines(start_lines)
    system = LineSystem(c_start, c_target)
    state, telemetry = track_segment(system, state, TrackOptions())
    # map back to the original coordinates and polish on the true form
    back = [line_from_basis(basis_from_chart(int(c), p) @ frame.T)
            for c, p in zip(state.charts, state.params)]
    state = sheets_from_lines(back)
    state, rel, escalations = _polish_sheets(form.coefficients, state)
    telemetry.escalations += escalations
    if rel >= POLISH_TOL * 10:
        raise SolveError(f"polish residual {rel:.3g} above tolerance")
    return lines_from_sheets(state), telemetry
