"""Shared numerical machinery, all in double (complex128): homogeneous
form spaces and path tracking.

All homotopies used in this package are straight segments in a coefficient
space (the 20 cubic-surface coefficients, the 10 plane-cubic coefficients,
or an affine image of family parameters), so the tracker below handles one
batched predictor/corrector loop for a system whose residual and Jacobian
are supplied by a callback.  ``SegmentSystem`` carries the segment of
coefficients and the same segment of third-derivative tensors, the one
formulation of a cubic restricted to a linear space that both chart
systems contract: the lines by polarization along each line, the flexes
at each point.  The predictor is classical 4th-order
Runge-Kutta on the Davidenko equation; the corrector (``_newton``) is at
most four Newton iterations, which along the path accept by contraction
with no extra residual evaluation and reject a poorly contracting step at
once, as a possible path jump.  Only the final polish corrects to a
relative 1e-12, or to the noise floor, and checks the residual.
A rejected attempt retries from the same point and reuses its first
Runge-Kutta stage, so a rejection costs one chart-system evaluation
less.  A fresh path starts at step 0.05; a rejected step shrinks by the
factor 0.4, an accepted one grows by 1.7.  These are the module
constants below; ``TrackOptions`` holds only what callers set
differently: the step cap (0.2 for solves, 1.0 for loops), the step
floor below which tracking fails (1e-14, or 1e-11 in the puncture-scan
walker) and the collision tolerance.

A loop is a polyline of such segments, tracked with one step controller:
its ``TrackTelemetry`` carries the controller's step in coefficient
distance, and only the controller changes it.  An accepted step raises it
to at least ``GROW`` times the step taken, a rejected attempt sets it to
``SHRINK`` times the step attempted, and cutting an attempt at the
segment end or at ``h_max`` never lowers it.  Each segment starts from
that step rescaled to its own length and capped at ``h_max``; inside a
segment the step in t follows the same two factors, so a one-segment path
never reads the carried step.  Only the last segment of a loop ends in a
Newton polish.

:func:`step_paths` is the one stepping routine.  It takes one step
attempt for several paths (a ``Path`` each: a lane) as one batch: the
lanes' systems and states are stacked once along a leading lane axis,
and each Runge-Kutta stage and each Newton iteration is one stacked
evaluation of only what it reads (J and dR/dt for a stage, R and J for
an iteration).  A lane leaves the stack when its solve is singular, its
corrector accepts or its path-jump guard rejects.  Every lane keeps its
own segment, t, step, first stage, Newton acceptance and telemetry, and
computes bit for bit what it computes alone; :func:`track_segment` is
the one-lane case.  A campaign steps at most ``LANE_SHEETS`` sheets
together: 4 line loops, or up to 10 flex loops, the most that its stop
rule lets start at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class PathTrackingError(RuntimeError):
    """Adaptive stepping underflowed or the corrector stopped converging."""


class SheetCollisionError(RuntimeError):
    """Two tracked sheets came within the collision tolerance."""


# ---------------------------------------------------------------------------
# Homogeneous form spaces
# ---------------------------------------------------------------------------


class FormSpace:
    """Dense homogeneous forms of fixed degree, graded-lex monomial order.

    A monomial table is the product, variable by variable from ones, of rows
    gathered from one table of coordinate powers.  Every value comes from
    the same elementwise operations in the same order, whatever the layout
    of the points, and ``compose_matrix`` keeps a fixed order of scalar
    operations.
    """

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.degree = degree
        self.monomials = _monomials(nvars, degree)
        self.index = {e: i for i, e in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self.exponents = np.array(self.monomials, dtype=np.int64)
        # rows of the power table per variable: row v (degree + 1) + e is x_v^e
        self._rows = self.exponents.T + (degree + 1) * np.arange(nvars)[:, None]

    def monomial_values(self, points: np.ndarray) -> np.ndarray:
        """Values of every monomial at points of shape (..., nvars), as a
        C-contiguous table: BLAS sums a strided operand in another order.

        Power e is power e-1 times the coordinate, from a row of ones; the
        product starts as ones times the first variable's row (1*x can
        differ from x in the sign of a zero part) and multiplies in the
        other variables' rows in variable order.
        """
        pts = np.asarray(points, dtype=complex)
        flat = pts.reshape(-1, self.nvars).T
        pw = np.empty((self.nvars, self.degree + 1, flat.shape[1]), dtype=complex)
        pw[:, 0] = 1
        for k in range(1, self.degree + 1):
            np.multiply(pw[:, k - 1], flat, out=pw[:, k])
        gathered = pw.reshape(-1, flat.shape[1])[self._rows]  # (nvars, monomials, points)
        vals = pw[0, 0] * gathered[0]
        for v in range(1, self.nvars):
            np.multiply(vals, gathered[v], out=vals)
        return np.ascontiguousarray(vals.T).reshape(pts.shape[:-1] + (self.dim,))

    def evaluate(self, coeffs: np.ndarray, points: np.ndarray) -> np.ndarray:
        return self.monomial_values(points) @ np.asarray(coeffs, dtype=complex)

    @cached_property
    def _composition(self) -> tuple[list[list[int | None]], list[list[int]]]:
        """For ``compose_matrix``, with the monomials of degree 0 to d as
        integer keys (degree by degree, the degree-d ones last and in
        monomial order): the key of each key's monomial times each
        variable, and the variables of each degree-d monomial, with
        repeats, in variable order."""
        keyed = [e for k in range(self.degree + 1) for e in _monomials(self.nvars, k)]
        key = {e: i for i, e in enumerate(keyed)}
        succ = [[key.get(e[:j] + (e[j] + 1,) + e[j + 1:]) for j in range(self.nvars)]
                for e in keyed]
        factors = [[v for v in range(self.nvars) for _ in range(e[v])] for e in self.monomials]
        return succ, factors

    def compose_matrix(self, coeffs: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Coefficients of F(M x), in this order of scalar complex operations.

        Each nonzero coefficient c x^e expands by substituting x_v -> sum_j
        M[v, j] x_j for the factors of x^e in variable order.  A partial
        product is a sum of terms; substituting one more factor multiplies
        each term, in the order the terms arose, by each nonzero M[v, j],
        j ascending, and adds the product to the term of its new monomial
        (a new term starts from 0j).  The expanded terms then add to the
        result in the same way, coefficient by coefficient.  Monomials are
        integer keys (``_composition``), and the arithmetic is Python
        ``complex``: numpy's array multiply may round a complex product
        differently.
        """
        rows = [[(j, mj) for j, mj in enumerate(row) if mj != 0]
                for row in np.asarray(m, dtype=complex).tolist()]
        succ, expansions = self._composition
        acc: dict[int, complex] = {}
        for c, factors in zip(np.asarray(coeffs, dtype=complex).tolist(), expansions):
            if c == 0:
                continue
            terms = {0: c}
            for v in factors:
                new: dict[int, complex] = {}
                for e, cv in terms.items():
                    after = succ[e]
                    for j, mj in rows[v]:
                        key = after[j]
                        new[key] = new.get(key, 0j) + cv * mj
                terms = new
            for e, cv in terms.items():
                acc[e] = acc.get(e, 0j) + cv
        out = np.zeros(self.dim, dtype=complex)
        first = len(succ) - self.dim  # the degree-d keys come last, in monomial order
        for e, cv in acc.items():
            out[e - first] = cv
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


# Newton steps are relative to each sheet's height (``param_scale``), and
# theta is a sheet's step over its step one iteration before (``_newton``)
CORRECTOR_TOL = 1e-12  # final polish: the step, and a tenth of the residual bound
PATH_TOL = 1e-10  # along the path: the predicted next correction
JUMP_THETA = 0.25  # path-jump guard: theta above this, at a step ...
JUMP_STEP = 1e-11  # ... above this, rejects the step attempt
FLOOR_THETA = 0.5  # final polish: theta at least this, at a step ...
FLOOR_TOL = 1e-9  # ... below this, is the noise floor
MAX_NEWTON = 4
H_INIT = 0.05
GROW = 1.7
SHRINK = 0.4
# sheets a campaign steps together at most: 4 line loops (27 sheets each);
# 12 flex loops (9 each) would fit, but a campaign's stop rule starts at
# most 10 (monodromy.PLATEAU) past its last committed loop.  A stacked call
# costs mostly per call, not per lane.
LANE_SHEETS = 108


@dataclass(frozen=True)
class TrackOptions:
    """Step floor and cap, and the sheet collision tolerance (None: unchecked)."""

    h_min: float = 1e-14
    h_max: float = 0.2
    collision_tol: float | None = None


@dataclass
class TrackTelemetry:
    """Counters of one tracked path, and the step it carries between segments.

    ``step`` is the step carried in coefficient distance, None before the
    first attempt: an accepted step raises it to at least ``GROW`` times
    the step taken, a rejected attempt sets it to ``SHRINK`` times the
    step attempted (steps in t times the segment's ``length()``), and a
    step cut at the segment end or at ``h_max`` does not lower it.
    ``min_path_separation`` is the least ``collision_gap`` over the
    accepted steps of a collision-checked path.  ``max_corrector_residual``
    is the largest relative residual (|R| over ``scale``) of an accepted
    correction: along the path the one that its last Newton iteration
    started from, an upper estimate at no extra evaluation; at the final
    polish the residual evaluated at the polished point.
    """

    steps: int = 0
    rejected: int = 0
    max_condition: float = 0.0
    max_corrector_residual: float = 0.0
    escalations: int = 0  # always 0; read only by the benchmark tracer (bench/tracing.py)
    step: float | None = None
    min_path_separation: float = np.inf


class SegmentSystem:
    """A chart system along the straight segment c(t) = (1-t) c_from + t c_to
    of cubic forms in ``space``.

    The base class owns the segment: its end points, their difference
    ``c_diff`` and the coefficients ``coeffs(t)``, and the same segment of
    the forms' third-derivative tensors: ``a_from``, ``a_to``, ``a_diff``
    and ``tensor(t)``, all complex128.  A tensor A is 6 T for the
    symmetric trilinear form T with F(x) = T(x, x, x), so a chart system
    restricts its cubic to a linear space by contracting A: both chart
    systems read R, J and dR/dt from contractions of ``tensor(t)`` and
    ``a_diff``.  Subclasses supply the residual R(z,t), the Jacobian dR/dz
    and the t-derivative dR/dt for a batch of sheets, plus optional
    housekeeping hooks; this is the interface that :func:`step_paths`
    consumes.

    ``stack`` joins one-lane systems into one with a leading lane axis on
    every field named in ``LANE_FIELDS``, and ``take`` keeps some of its
    lanes.  Its state (``stack_states``; indexing a stacked state keeps
    lanes too), its t and every per-sheet result carry the same axis, and
    lane l computes bit for bit what the l-th system computes alone.
    ``length`` and ``normalize`` are one-lane calls.
    """

    space: FormSpace  # the cubic forms of the segment; each subclass sets it
    LANE_FIELDS = ("c_from", "c_to", "c_diff", "a_from", "a_to", "a_diff")

    def __init__(self, c_from: np.ndarray, c_to: np.ndarray):
        self.c_from = np.asarray(c_from, dtype=complex)
        self.c_to = np.asarray(c_to, dtype=complex)
        self.c_diff = self.c_to - self.c_from
        self.a_from = self.space.third_derivative_tensor(self.c_from)
        self.a_to = self.space.third_derivative_tensor(self.c_to)
        self.a_diff = self.a_to - self.a_from

    @classmethod
    def stack(cls, systems: list["SegmentSystem"]) -> "SegmentSystem":
        out = cls.__new__(cls)
        for name in cls.LANE_FIELDS:
            setattr(out, name, np.array([getattr(s, name) for s in systems]))
        return out

    def take(self, lanes: np.ndarray) -> "SegmentSystem":
        """The stacked system of the lanes that ``lanes`` (a mask or indices) selects."""
        out = type(self).__new__(type(self))
        for name in self.LANE_FIELDS:
            setattr(out, name, getattr(self, name)[lanes])
        return out

    @staticmethod
    def stack_states(states: list) -> object:
        return np.array(states)

    def coeffs(self, t) -> np.ndarray:
        t = np.asarray(t)[..., None]
        return (1 - t) * self.c_from + t * self.c_to

    def tensor(self, t) -> np.ndarray:
        t = np.asarray(t)[..., None, None, None]
        return (1 - t) * self.a_from + t * self.a_to

    def length(self) -> float:
        """Coefficient distance covered by the segment (max-norm)."""
        return float(np.abs(self.c_diff).max())

    def residual(self, state, t) -> np.ndarray:
        """R alone, with no Jacobian: bit for bit the R of ``res_jac_dt``."""
        raise NotImplementedError

    def res_jac_dt(self, state, t, reads: str | None = None):
        """Return (R, J, Rt) with shapes (..., n,k), (..., n,k,k), (..., n,k).

        ``reads`` names what the caller reads besides J, and only that is
        computed; the other slot is None: ``"r"`` for a Newton iteration
        (Rt is None), ``"rt"`` for a Davidenko stage (R is None).
        """
        raise NotImplementedError

    def update(self, state, delta) -> object:
        """Apply a Newton/predictor increment to the state."""
        raise NotImplementedError

    def normalize(self, state) -> object:
        """Housekeeping after an accepted step (e.g. chart switching)."""
        return state

    def scale(self, state, t) -> np.ndarray:
        """Per-sheet residual scale for convergence tests."""
        raise NotImplementedError

    def param_scale(self, state) -> np.ndarray:
        """Per-sheet magnitude of the unknowns, for relative step tests."""
        raise NotImplementedError

    def collision_gap(self, state):
        """Minimal pairwise separation of sheets, per lane (inf when not applicable)."""
        return np.inf


class Path:
    """One lane: sheets continued along consecutive segments with one step controller.

    The telemetry's ``step`` carries the controller's step from each
    segment to the next, and ``polish`` asks for the Newton polish at the
    end of the last segment.  :func:`step_paths` advances the path; once
    ``done``, ``state`` holds the end sheets, or ``error`` the exception
    that stopped the path.
    """

    def __init__(self, systems: list[SegmentSystem], state, opts: TrackOptions | None = None,
                 telemetry: TrackTelemetry | None = None, polish: bool = True):
        self.systems = list(systems)
        self.state = state
        self.opts = opts or TrackOptions()
        self.telemetry = telemetry or TrackTelemetry()
        self.polish = polish
        self.error: Exception | None = None
        self.done = not self.systems
        self.segment = -1
        self.t = 1.0  # t on the current segment; 1 once it has ended
        self.length = 0.0
        self.proposal = H_INIT
        self.k1 = None  # first RK4 stage at (state, t), kept across rejections

    @property
    def system(self) -> SegmentSystem:
        return self.systems[self.segment]

    def _start_segment(self) -> None:
        self.segment += 1
        self.length = self.system.length()
        step = self.telemetry.step
        if step is None or self.length == 0:
            self.proposal = H_INIT
        else:
            self.proposal = min(step / self.length, self.opts.h_max)
        self.t = 0.0 if self.length > 0 else 1.0
        self.k1 = None

    def _fail(self, exc: Exception) -> None:
        self.error = exc
        self.done = True


def _stack(paths: list[Path]):
    """The stacked system of these paths' current segments, and their stacked state."""
    systems = [p.system for p in paths]
    system = type(systems[0]).stack(systems)
    return system, system.stack_states([p.state for p in paths])


def _take(keep: np.ndarray, system: SegmentSystem, *lanes):
    """The lanes that the mask ``keep`` selects of a stacked system and of
    states or arrays with a leading lane axis."""
    if keep.all():
        return (system,) + lanes
    return (system.take(keep),) + tuple(x[keep] for x in lanes)


def _solve(j: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``solve(j, r)`` lane by lane, and the mask of the lanes whose matrices
    are not singular (their rows are zero in the solution)."""
    ok = np.ones(len(j), dtype=bool)
    try:
        return np.linalg.solve(j, r[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        out = np.zeros_like(r)
        for lane, (jl, rl) in enumerate(zip(j, r)):
            try:
                out[lane] = np.linalg.solve(jl, rl[..., None])[..., 0]
            except np.linalg.LinAlgError:
                ok[lane] = False
        return out, ok


def _davidenko(system: SegmentSystem, state, t: np.ndarray):
    """The Davidenko direction -J^{-1} dR/dt of every lane, and the mask of
    the lanes whose Jacobians are not singular."""
    _, j, rt = system.res_jac_dt(state, t, reads="rt")
    x, ok = _solve(j, rt)
    return -x, ok


def _newton(paths: list[Path], system: SegmentSystem, state, t: np.ndarray,
            polish: bool = False) -> list:
    """Newton-correct each lane of the stacked state at its fixed t; per
    lane its corrected state, or None.  A lane leaves the stack once its
    solve is singular, its corrector accepts or its guard rejects.

    Each sheet's step is measured relative to its height (``param_scale``),
    and theta is its ratio to the sheet's step one iteration before.
    Along the path a lane accepts once every sheet's predicted next
    correction, min(1, theta) times its step (the step itself after the
    first iteration), is below ``PATH_TOL``; its ``max_corrector_residual``
    takes the residual that the last iteration already computed, before
    its correction.  A sheet whose step still exceeds ``JUMP_STEP`` with
    theta above ``JUMP_THETA`` rejects its lane at once, whether or not it
    would accept: the predictor may have left the basin of its path.

    The final polish (``polish``) has no guard.  A sheet converges when
    its step is below ``CORRECTOR_TOL``, or below ``FLOOR_TOL`` once it no
    longer contracts (theta at least ``FLOOR_THETA``: the noise floor of
    double).  The lane accepts when every sheet has converged and its
    residual, evaluated again, is below ten times ``CORRECTOR_TOL``.
    """
    out = [None] * len(paths)
    lanes = np.arange(len(paths))
    last = None
    for _ in range(MAX_NEWTON):
        if not len(lanes):
            break
        r, j, _ = system.res_jac_dt(state, t, reads="r")
        delta, stay = _solve(j, r)
        before, state = state, system.update(state, -delta)
        size = np.abs(delta).max(axis=-1) / system.param_scale(state)
        theta = None if last is None else np.divide(
            size, last, out=np.where(size > 0, np.inf, 0.0), where=last > 0)
        if polish:
            converged = size < CORRECTOR_TOL
            if theta is not None:
                converged |= (theta >= FLOOR_THETA) & (size < FLOOR_TOL)
            done = stay & converged.all(axis=-1)
            if done.any():
                checked, at, at_t = _take(done, system, state, t)
                res = np.abs(checked.residual(at, at_t)).max(axis=-1)
                for i, rel in zip(np.flatnonzero(done), res / checked.scale(at, at_t)):
                    _note_residual(paths[lanes[i]], rel)
                    if (rel < 10 * CORRECTOR_TOL).all():
                        out[lanes[i]] = state[i]
                        stay[i] = False
        else:
            predicted = size
            if theta is not None:
                stay &= ~((theta > JUMP_THETA) & (size > JUMP_STEP)).any(axis=-1)
                predicted = np.minimum(theta, 1.0) * size
            done = stay & (predicted < PATH_TOL).all(axis=-1)
            if done.any():
                checked, at, at_t, res = _take(done, system, before, t, r)
                rels = np.abs(res).max(axis=-1) / checked.scale(at, at_t)
                for i, rel in zip(np.flatnonzero(done), rels):
                    _note_residual(paths[lanes[i]], rel)
                    out[lanes[i]] = state[i]
                stay &= ~done
        lanes = lanes[stay]
        system, state, t, last = _take(stay, system, state, t, size)
    return out


def _note_residual(path: Path, rel: np.ndarray) -> None:
    telemetry = path.telemetry
    telemetry.max_corrector_residual = max(telemetry.max_corrector_residual, float(rel.max()))


def step_paths(paths: list[Path]) -> None:
    """One step attempt on every unfinished path, as one batch of evaluations.

    A path first moves past its ended segments (a zero-length segment
    takes no step); one whose last segment has ended takes its final
    Newton polish and is done.  Every other path attempts one step of
    ``min(proposal, 1 - t)`` from its own (state, t).  The stepping lanes'
    states are stacked once: each RK4 stage state and the predictor are
    one stacked update, each RK4 stage and each Newton iteration one
    stacked evaluation of what it reads.  A lane leaves the stack only
    when its solve is singular, its corrector accepts or its path-jump
    guard rejects the step (``_newton``).  The paths must
    follow one cover (one system class and one number of sheets).  A
    singular Jacobian, a step underflow, a ``normalize`` error or a sheet
    collision rejects or fails only its own lane.
    """
    stepping, polishing = [], []
    for p in paths:
        while not p.done and p.t >= 1.0:
            if p.segment + 1 < len(p.systems):
                p._start_segment()
            elif p.polish:
                polishing.append(p)
                break
            else:
                p.done = True
        if not p.done and p.t < 1.0:
            stepping.append(p)
    if polishing:
        _polish(polishing)
    if not stepping:
        return
    system, state = _stack(stepping)
    t = np.array([p.t for p in stepping])
    h = np.minimum([p.proposal for p in stepping], 1.0 - t)
    fresh = np.array([p.k1 is None for p in stepping])
    if fresh.any():
        k1, ok = _davidenko(*_take(fresh, system, state, t))
        for i, k, good in zip(np.flatnonzero(fresh), k1, ok):
            stepping[i].k1 = k if good else None
    live = np.array([p.k1 is not None for p in stepping])
    lanes = np.flatnonzero(live)
    lane_system, lane_state, lane_t, lane_h = _take(live, system, state, t, h)
    stages = [np.array([stepping[i].k1 for i in lanes])]
    ends = {}
    # each lane's step broadcasts over its (sheets, unknowns) block
    for frac in (0.5, 0.5, 1.0):  # k2, k3 and k4 from the stage before
        if not len(lanes):
            break
        stage = lane_system.update(lane_state, (frac * lane_h)[:, None, None] * stages[-1])
        k, ok = _davidenko(lane_system, stage, lane_t + frac * lane_h)
        stages.append(k)
        if not ok.all():
            stages = [x[ok] for x in stages]
            lanes = lanes[ok]
            lane_system, lane_state, lane_t, lane_h = _take(ok, lane_system, lane_state,
                                                            lane_t, lane_h)
    else:  # the lanes left have all four stages: predict, then correct
        k1, k2, k3, k4 = stages
        pred = lane_system.update(lane_state,
                                  (lane_h / 6.0)[:, None, None] * (k1 + 2 * k2 + 2 * k3 + k4))
        ends = dict(zip(lanes.tolist(), _newton([stepping[i] for i in lanes], lane_system,
                                                pred, lane_t + lane_h)))
    hs = h.tolist()
    accepted = []
    for i, p in enumerate(stepping):
        end = ends.get(i)
        if end is None:
            p.telemetry.rejected += 1
            p.proposal = hs[i] * SHRINK
            p.telemetry.step = p.proposal * p.length
            if p.proposal < p.opts.h_min:
                p._fail(PathTrackingError(f"step size underflow at t={p.t:.6g}"))
            continue
        try:
            p.state = p.system.normalize(end)
        except Exception as exc:  # this lane's failure, as it would be alone
            p._fail(exc)
            continue
        p.k1 = None
        p.t += hs[i]
        p.telemetry.steps += 1
        accepted.append(i)
    checked = [i for i in accepted if stepping[i].opts.collision_tol is not None]
    if checked:
        lanes = [stepping[i] for i in checked]
        gaps = system.take(np.array(checked)).collision_gap(
            system.stack_states([p.state for p in lanes]))
        for p, gap in zip(lanes, np.broadcast_to(gaps, (len(lanes),))):
            gap = float(gap)
            p.telemetry.min_path_separation = min(p.telemetry.min_path_separation, gap)
            if gap < p.opts.collision_tol:
                p._fail(SheetCollisionError(f"sheet separation {gap:.3g} at t={p.t:.6g}"))
    for i in accepted:
        p = stepping[i]
        if p.done:
            continue
        p.proposal = min(max(p.proposal, hs[i] * GROW), p.opts.h_max)
        p.telemetry.step = max(p.telemetry.step or 0.0, hs[i] * GROW * p.length)


def _polish(paths: list[Path]) -> None:
    """The final Newton polish at t=1 (``_newton`` with ``polish``) and the
    conditioning at the end point; a path that it cannot polish fails."""
    system, state = _stack(paths)
    good = []
    for p, end in zip(paths, _newton(paths, system, state, np.ones(len(paths)), polish=True)):
        if end is None:
            p._fail(PathTrackingError("final Newton polish failed at t=1"))
        else:
            p.state = end
            p.done = True
            good.append(p)
    if good:
        system, state = _stack(good)
        _, j, _ = system.res_jac_dt(state, np.ones(len(good)), reads="r")
        for p, conds in zip(good, np.linalg.cond(j)):
            p.telemetry.max_condition = max(p.telemetry.max_condition, float(np.max(conds)))


def track_segment(system: SegmentSystem, state, opts: TrackOptions | None = None,
                  telemetry: TrackTelemetry | None = None, polish: bool = True):
    """Track all sheets of a segment from t=0 to t=1: one lane of :func:`step_paths`.

    The sheets share one adaptive step: a corrector failure on any sheet
    shrinks the step for all of them.  A fresh telemetry starts the step
    at ``H_INIT``; one that has tracked a segment before starts it
    from its carried ``step``, rescaled to this segment's length and
    capped at ``opts.h_max``.  The last step is cut to end at t=1.
    Neither that cut nor the cap lowers the carried step: only an accepted
    step (raising it to at least ``GROW`` times the step taken) or a
    rejected attempt (``SHRINK`` times the step attempted) changes it, so
    a segment shorter than the step does not shrink the step that the
    next segment starts from.  A zero-length segment takes no step.
    With ``polish=False`` the final Newton polish at t=1 and the
    conditioning estimate are skipped, for a segment that another segment
    of the same path follows.  Raises PathTrackingError when the step
    underflows and SheetCollisionError when two sheets merge.  A rejected
    attempt retries from the same (state, t), so it reuses its first
    Runge-Kutta stage; only an accepted step (or a failed stage) makes the
    next attempt recompute it.
    """
    path = Path([system], state, opts, telemetry, polish)
    while not path.done:
        step_paths([path])
    if path.error is not None:
        raise path.error
    return path.state, path.telemetry
