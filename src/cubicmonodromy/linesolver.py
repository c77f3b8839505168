"""Lines on cubic surfaces by homotopy continuation from the Fermat cubic.

A line is stored in one of the six coordinate charts: chart (i0,i1|j0,j1)
means x_j0 = a x_i0 + b x_i1 and x_j1 = c x_i0 + d x_i1, so the line is
spanned by v1 = e_i0 + a e_j0 + c e_j1 and v2 = e_i1 + b e_j0 + d e_j1.
Restricting a cubic form to the span gives a binary cubic whose four
coefficients are the chart system; its roots in (a,b,c,d) are the lines.
The coefficients come by polarization: with T the symmetric trilinear
form of the cubic they are T(v1,v1,v1), 3T(v1,v1,v2), 3T(v1,v2,v2) and
T(v2,v2,v2), and the Jacobian columns are 3T(v1,v1,e_j), 6T(v1,v2,e_j)
and 3T(v2,v2,e_j) at the chart's dependent coordinates j, all read from
one product of every sheet's pairs of spanning rows with the tensor.

The solver composes the target with a random unitary frame (making all
lines chart-visible with probability 1), tracks the 27 known Fermat lines
along the straight coefficient segment gamma*F_fermat -> F_target, and
maps the results back.  Sheets switch charts on the fly when their
parameters grow, so lines passing near chart infinity stay tracked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import schlafli
from .forms import SPACE, CubicForm, fermat_cubic
from .numeric import (PathTrackingError, SegmentSystem, SheetCollisionError,
                      TrackOptions, TrackTelemetry, random_unitary, track_segment)

# free coordinate pairs of the six charts; dependents are the complements
CHART_FREE = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
CHART_DEP = np.array([[2, 3], [1, 3], [1, 2], [0, 3], [0, 2], [0, 1]])

# Coordinate v of a chart takes slot _POINT_COLS[chart, v] of (free0,
# free1, dep0, dep1); a sheet's spanning rows (1, 0, a, c) and (0, 1, b, d)
# are gathered through it, as flat offsets into the sheet's block of rows.
_POINT_COLS = np.empty((6, 4), dtype=np.int64)
_POINT_COLS[np.arange(6)[:, None], np.hstack([CHART_FREE, CHART_DEP])] = np.arange(4)
_BASIS_GATHER = 4 * np.arange(2)[:, None] + _POINT_COLS[:, None, :]  # [chart, row, v]

# Polarization with A = 6T: R = (A(v1,v1,v1)/6, A(v1,v1,v2)/2,
# A(v1,v2,v2)/2, A(v2,v2,v2)/6) from the polar vectors A(v_p, v_q, .) of
# the pairs (v1,v1) and (v2,v2).  Jacobian column d/da is (A(v1,v1,e)/2,
# A(v1,v2,e), A(v2,v2,e)/2, 0) at e = e_j0, d/db the same shifted down one
# row (t dF/dx_j0 against s dF/dx_j0), d/dc and d/dd at e = e_j1: J[m, col]
# is the weighted polar value of pair row _J_PAIR[m, col] (4: a zero row)
# at dependent coordinate _J_DEP[col].
_R_WEIGHT = np.array([1 / 6, 1 / 2, 1 / 2, 1 / 6])
_J_WEIGHT = np.array([1 / 2, 1.0, 1.0, 1 / 2])[:, None]
_J_PAIR = np.array([[0, 4, 0, 4], [1, 0, 1, 0], [3, 1, 3, 1], [4, 3, 4, 3]])
_J_DEP = np.array([0, 0, 1, 1])

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
    """Chordal distances between unit projective Plucker vectors (per lane)."""
    overlap = np.abs(pa @ pb.conj().swapaxes(-1, -2))
    return np.sqrt(np.clip(1.0 - overlap**2, 0.0, None))


def min_pairwise_distance(pluckers: np.ndarray):
    """The least chordal distance between two rows: a float, or one per lane."""
    d = chordal_distance_matrix(pluckers, pluckers)
    diag = np.arange(d.shape[-1])
    d[..., diag, diag] = np.inf
    gap = d.min(axis=(-2, -1))
    return float(gap) if gap.ndim == 0 else gap


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


@lru_cache(maxsize=None)
def _fermat_start_bases() -> np.ndarray:
    """Spanning rows of the 27 Fermat lines, shape (27, 2, 4)."""
    bases = np.array([l.basis() for l in fermat_start_lines()])
    bases.setflags(write=False)
    return bases


# ---------------------------------------------------------------------------
# The chart system along a coefficient segment
# ---------------------------------------------------------------------------


@dataclass
class SheetState:
    """Charts and chart parameters of the sheets, with optional leading lane axes."""

    charts: np.ndarray  # (..., n) int
    params: np.ndarray  # (..., n, 4) complex

    def __getitem__(self, index) -> "SheetState":
        """The entries of the leading axis that ``index`` selects: lanes of a
        stacked state, or sheets of one lane."""
        return SheetState(charts=self.charts[index], params=self.params[index])


def best_charts(bases: np.ndarray) -> SheetState:
    """The chart of each line that minimizes its largest parameter magnitude.

    ``bases`` holds two spanning rows per line, shape (n, 2, 4).  A chart
    shows a line when the 2x2 block of its free columns has |det| of at
    least 1e-12 times the square of the block's largest entry; of the
    charts that show it, the first with the least height wins.  One
    batched 2x2 solve gives every chart's parameters.  Raises SolveError
    for a line that no chart shows.
    """
    bases = np.asarray(bases, dtype=complex)
    free = bases[:, :, CHART_FREE].swapaxes(1, 2)  # (n, chart, row, col)
    dep = bases[:, :, CHART_DEP].swapaxes(1, 2)
    det = free[..., 0, 0] * free[..., 1, 1] - free[..., 0, 1] * free[..., 1, 0]
    scale = np.abs(free).max(axis=(-2, -1))
    visible = (scale != 0) & ~(np.abs(det) < 1e-12 * scale * scale)
    if not visible.any(axis=1).all():
        raise SolveError("line is invisible in every chart")
    coef = np.linalg.solve(np.where(visible[..., None, None], free, np.eye(2)), dep)
    params = coef[..., [0, 1, 0, 1], [0, 0, 1, 1]]  # (a, b, c, d)
    charts = np.where(visible, np.abs(params).max(axis=-1), np.inf).argmin(axis=1)
    return SheetState(charts=charts, params=params[np.arange(len(bases)), charts])


def _chart_gather(charts: np.ndarray, blocks: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Each sheet's block of ``blocks`` (one block per sheet, in C order)
    gathered by the per-chart ``table`` of the sheet's chart."""
    index = np.take(table, charts, axis=0) + _block_offsets(charts.shape, table[0].size)
    return blocks.reshape(-1)[index]


@lru_cache(maxsize=None)
def _block_offsets(shape: tuple[int, ...], block: int) -> np.ndarray:
    """Flat offsets of one block of ``block`` values per sheet, shape + (1, 1)."""
    offsets = block * np.arange(math.prod(shape)).reshape(shape + (1, 1))
    offsets.setflags(write=False)  # shared by every call with this shape
    return offsets


def sheet_bases(state: SheetState) -> np.ndarray:
    """Spanning rows of every sheet's line, shape (..., n, 2, 4): the rows
    of :func:`basis_from_chart`."""
    params = state.params
    rows = np.zeros(params.shape[:-1] + (2, 4), dtype=complex)  # (1, 0, a, c), (0, 1, b, d)
    rows[..., 0, 0] = rows[..., 1, 1] = 1
    rows[..., 2:] = params.reshape(params.shape[:-1] + (2, 2)).swapaxes(-1, -2)
    return _chart_gather(state.charts, rows, _BASIS_GATHER)


def sheet_pluckers(state: SheetState) -> np.ndarray:
    """Unit Plucker vectors of all sheets at once, shape (..., n, 6).

    Unlike :func:`plucker_from_basis` the phase is left free: chordal
    distances and the Hungarian matching do not depend on it.
    """
    basis = sheet_bases(state)
    v1, v2 = basis[..., 0, :], basis[..., 1, :]
    p = v1[..., _PLUCKER_I] * v2[..., _PLUCKER_J] - v1[..., _PLUCKER_J] * v2[..., _PLUCKER_I]
    return p / np.linalg.norm(p, axis=-1, keepdims=True)


class LineSystem(SegmentSystem):
    """27-line chart system along c(t) = (1-t) c_from + t c_to: the binary
    cubic F(s v1 + t v2) of every sheet's line, by polarization."""

    space = SPACE

    @staticmethod
    def stack_states(states: list[SheetState]) -> SheetState:
        return SheetState(charts=np.array([s.charts for s in states]),
                          params=np.array([s.params for s in states]))

    def _polars(self, state: SheetState, tensors: np.ndarray):
        """Every sheet's spanning rows, shape (..., n, 2, 4), and its polar
        vectors A(v_p, v_q, .) of the four pairs, shape (..., n, 4, 4 k),
        for ``tensors`` holding k tensors side by side, shape (..., 16, 4 k)."""
        basis = sheet_bases(state)
        outer = basis[..., :, None, :, None] * basis[..., None, :, None, :]  # (..., n, 2, 2, 4, 4)
        lead, n = outer.shape[:-5], outer.shape[-5]
        polars = outer.reshape(lead + (4 * n, 16)) @ tensors
        return basis, polars.reshape(lead + (n, 4, tensors.shape[-1]))

    @staticmethod
    def _binary(basis: np.ndarray, polars: np.ndarray) -> np.ndarray:
        """The coefficients R of the binary cubic, from the polar vectors of one tensor."""
        ends = polars[..., ::3, None, :]  # the pairs (v1,v1) and (v2,v2)
        r = (ends * basis[..., None, :, :]).sum(axis=-1)
        return r.reshape(r.shape[:-2] + (4,)) * _R_WEIGHT

    def residual(self, state: SheetState, t) -> np.ndarray:
        a = self.tensor(t)
        return self._binary(*self._polars(state, a.reshape(a.shape[:-3] + (16, -1))))

    def res_jac_dt(self, state: SheetState, t, reads: str | None = None):
        a = self.tensor(t)
        if reads != "r":  # A(t) and A_diff side by side: one product for both
            a = np.concatenate([a, self.a_diff], axis=-1)
        basis, polars = self._polars(state, a.reshape(a.shape[:-3] + (16, -1)))
        now = polars[..., :4]
        r = None if reads == "rt" else self._binary(basis, now)
        rt = None if reads == "r" else self._binary(basis, polars[..., 4:])
        dep = np.take_along_axis(now, CHART_DEP[state.charts][..., None, :], axis=-1)
        cols = np.zeros(dep.shape[:-2] + (5, 2), dtype=complex)
        np.multiply(dep, _J_WEIGHT, out=cols[..., :4, :])
        return r, cols[..., _J_PAIR, _J_DEP], rt

    def update(self, state: SheetState, delta: np.ndarray) -> SheetState:
        return SheetState(charts=state.charts, params=state.params + delta)

    def normalize(self, state: SheetState) -> SheetState:
        far = np.abs(state.params).max(axis=1) > 8.0
        if not far.any():
            return state
        picked = best_charts(sheet_bases(state[far]))
        charts, params = state.charts.copy(), state.params.copy()
        charts[far], params[far] = picked.charts, picked.params
        return SheetState(charts=charts, params=params)

    def scale(self, state: SheetState, t) -> np.ndarray:
        cnorm = np.abs(self.coeffs(t)).max(axis=-1)
        height = 1.0 + np.abs(state.params).max(axis=-1)
        return cnorm[..., None] * height**3

    def param_scale(self, state: SheetState) -> np.ndarray:
        return 1.0 + np.abs(state.params).max(axis=-1)

    def collision_gap(self, state: SheetState):
        return min_pairwise_distance(sheet_pluckers(state))


def lines_from_sheets(state: SheetState) -> list[Line]:
    return [Line(chart=int(c), params=p.copy(), plucker=plucker_from_basis(b))
            for c, p, b in zip(state.charts, state.params, sheet_bases(state))]


def sheets_from_lines(lines: list[Line]) -> SheetState:
    return SheetState(
        charts=np.array([l.chart for l in lines], dtype=np.int64),
        params=np.array([l.params for l in lines]),
    )


def transform_lines(lines: list[Line], matrix: np.ndarray) -> list[Line]:
    """Apply a projective matrix to every line (new basis rows M v)."""
    bases = np.array([l.basis() for l in lines]) @ np.asarray(matrix, dtype=complex).T
    state = best_charts(bases)
    return [Line(chart=int(c), params=p, plucker=plucker_from_basis(b))
            for c, p, b in zip(state.charts, state.params, bases)]


# ---------------------------------------------------------------------------
# Polish and certification
# ---------------------------------------------------------------------------


def _polish_sheets(coeffs: np.ndarray, state: SheetState) -> tuple[SheetState, float]:
    """Newton polish all sheets at fixed coefficients, in double.

    Returns (state, max relative chart residual).  Near a puncture the
    chart Jacobians stay far from singular (condition below 1e4 for S4
    members 1e-4 off a = -1/2), so double precision suffices.
    """
    system = LineSystem(coeffs, coeffs)
    for _ in range(6):
        r, j, _ = system.res_jac_dt(state, 1.0, reads="r")
        delta = np.linalg.solve(j, r[..., None])[..., 0]
        state = system.update(state, -delta)
        if (np.abs(delta).max(axis=-1) < POLISH_TOL * system.param_scale(state)).all():
            break
    r = system.residual(state, 1.0)
    rel = float((np.abs(r).max(axis=-1) / system.scale(state, 1.0)).max())
    return state, rel


def certify_lines(form: CubicForm, lines: list[Line], rng: np.random.Generator) -> float:
    """Max scale-normalized |F| over five random points of every line.

    Line by line, the five (s, t) draw their real parts and then their
    imaginary parts from ``rng``; one draw takes them all in that order.
    A line whose ratios are NaN does not raise the maximum.
    """
    draws = rng.normal(size=(len(lines), 2, 5, 2))
    st = draws[:, 0] + 1j * draws[:, 1]
    pts = st @ np.array([line.basis() for line in lines])  # (lines, 5, 4)
    vals = np.abs(form.evaluate(pts))
    scales = np.abs(form.coefficients).max() * np.linalg.norm(pts, axis=-1) ** 3
    return max([0.0] + (vals / scales).max(axis=-1).tolist())


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
            "telemetry": {
                "steps": self.telemetry.steps,
                "rejected": self.telemetry.rejected,
                "max_condition": self.telemetry.max_condition,
                "max_corrector_residual": self.telemetry.max_corrector_residual,
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
    state = best_charts(_fermat_start_bases() @ frame_inv.T)
    system = LineSystem(c_start, c_target)
    state, telemetry = track_segment(system, state, TrackOptions())
    # map back to the original coordinates and polish on the true form
    state = best_charts(sheet_bases(state) @ frame.T)
    state, rel = _polish_sheets(form.coefficients, state)
    if rel >= POLISH_TOL * 10:
        raise SolveError(f"polish residual {rel:.3g} above tolerance")
    return lines_from_sheets(state), telemetry
