"""The nine flexes of smooth plane cubics and their monodromy.

Flexes are the intersection of the curve with its Hessian; both are cubics
in (x, y, z) with 10 coefficients in graded-lex order.  The flex chart
system reads both from the third-derivative tensor A of the cubic: with
M = A p, F = p M p / 6, grad F = M p / 2 and the Hessian is det M.  The
start system is the Fermat member of the Hesse pencil, whose flexes are
the nine base points of the pencil.  Monodromy loops run in the full 10-coefficient
space and are expected to generate the affine special linear group
ASL2(F3) of order 216, identified through the collinearity structure of
the flexes (the Hesse configuration of 12 lines).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .forms import FamilySpec
from .numeric import (PathTrackingError, SegmentSystem, SheetCollisionError,
                      TrackOptions, form_space, random_unitary, track_segment)
from . import linesolver as ls
from .perms import Permutation
from .tracker import LoopRun, TrackedPermutation, leg_systems

SPACE3 = form_space(3, 3)

FLEX_RESIDUAL_TOL = 1e-10
FLEX_DISTINCT_TOL = 1e-6
COLLINEAR_TOL = 1e-8


class FlexError(RuntimeError):
    """Flex solving failed (singular cubic or lost path)."""


@dataclass(frozen=True)
class PlaneCubicForm:
    """A plane cubic as 10 normalized complex coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if c.shape != (10,):
            raise FlexError(f"expected 10 coefficients, got {c.shape}")
        top = np.abs(c).max()
        if top == 0:
            raise FlexError("form is identically zero")
        object.__setattr__(self, "coefficients", c / top)
        self.coefficients.setflags(write=False)

    @staticmethod
    def from_monomial_dict(terms: dict[tuple[int, int, int], complex]) -> "PlaneCubicForm":
        c = np.zeros(10, dtype=complex)
        for e, v in terms.items():
            c[SPACE3.index[e]] += v
        return PlaneCubicForm(c)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return SPACE3.evaluate(self.coefficients, points)

    def to_json(self) -> list[list[float]]:
        return [[float(c.real), float(c.imag)] for c in self.coefficients]


def hesse_form(k: complex) -> PlaneCubicForm:
    """x^3 + y^3 + z^3 - 3k xyz; singular exactly when k^3 = 1."""
    if abs(k**3 - 1) < 1e-12:
        raise FlexError("k^3 = 1 gives a singular member of the Hesse pencil")
    return PlaneCubicForm.from_monomial_dict({
        (3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): -3 * k,
    })


def hessian_coefficients(coeffs: np.ndarray) -> np.ndarray:
    """Raw (unnormalized) coefficients of det D^2 F."""
    a = SPACE3.third_derivative_tensor(coeffs)
    # H(p) = det(sum_k A[:,:,k] p_k): expand over permutations into a cubic
    acc: dict[tuple[int, int, int], complex] = {}
    for sigma, sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        rows = [a[i, sigma[i], :] for i in range(3)]
        for k1 in range(3):
            if rows[0][k1] == 0:
                continue
            for k2 in range(3):
                if rows[1][k2] == 0:
                    continue
                for k3 in range(3):
                    if rows[2][k3] == 0:
                        continue
                    e = [0, 0, 0]
                    e[k1] += 1
                    e[k2] += 1
                    e[k3] += 1
                    key = tuple(e)
                    acc[key] = acc.get(key, 0.0) + sign * rows[0][k1] * rows[1][k2] * rows[2][k3]
    out = np.zeros(10, dtype=complex)
    for e, v in acc.items():
        out[SPACE3.index[e]] = v
    return out


def hesse_flexes() -> np.ndarray:
    """The nine flexes of every smooth Hesse member: rows, exactly.

    (0 : 1 : -g), (-g : 0 : 1), (1 : -g : 0) for cube roots of unity g.
    """
    zeta = np.exp(2j * np.pi / 3)
    rows = []
    for g in (1, zeta, zeta**2):
        rows.append([0, 1, -g])
        rows.append([-g, 0, 1])
        rows.append([1, -g, 0])
    return np.array(rows, dtype=complex)


def normalize_point(p: np.ndarray) -> np.ndarray:
    p = np.asarray(p, dtype=complex)
    p = p / np.linalg.norm(p)
    k = int(np.abs(p).argmax())
    return p * (abs(p[k]) / p[k])


@dataclass
class FlexSet:
    """Nine certified flex points with their residuals."""

    points: np.ndarray  # (9,3), unit norm, phase-fixed
    residuals: np.ndarray  # (9,) max of curve and Hessian residuals
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "points": [[[c.real, c.imag] for c in row] for row in self.points],
            "residuals": list(map(float, self.residuals)),
            "seed": self.seed,
            "tolerances": {"residual": FLEX_RESIDUAL_TOL,
                           "distinct": FLEX_DISTINCT_TOL},
        }


# ---------------------------------------------------------------------------
# The flex system along a coefficient segment
# ---------------------------------------------------------------------------


class FlexSystem(SegmentSystem):
    """{F=0, det D^2 F=0} along c(t), at the points (u : v : 1).

    With A the third-derivative tensor and M = A p its contraction with
    the point, D^2 F = M, grad F = M p / 2 and F = p M p / 6; the t-
    derivative takes the same contractions of dA/dt.
    """

    space = SPACE3

    def points(self, state: np.ndarray) -> np.ndarray:
        p = np.empty(state.shape[:-1] + (3,), dtype=complex)
        p[..., :2] = state
        p[..., 2] = 1
        return p

    @staticmethod
    def _contract(a: np.ndarray, p: np.ndarray):
        """Per sheet: M = A p, shape (..., n, 3, 3), M p, shape (..., n, 3),
        and p M p / 6, shape (..., n)."""
        m = np.einsum("...ijk,...nk->...nij", a, p)
        mp = np.einsum("...nij,...nj->...ni", m, p)
        return m, mp, np.einsum("...ni,...ni->...n", mp, p) / 6

    def residual(self, state: np.ndarray, t) -> np.ndarray:
        m, _, f = self._contract(self.tensor(t), self.points(state))
        return np.stack([f, np.linalg.det(m)], axis=-1)

    def res_jac_dt(self, state: np.ndarray, t, reads: str | None = None):
        p = self.points(state)
        if reads == "r":
            a = self.tensor(t)
        else:
            a, rate = self.tensor(t, rate=True)
        m, mp, f = self._contract(a, p)
        adj = _adjugate3(m)
        r = rt = None
        if reads != "rt":
            r = np.stack([f, np.linalg.det(m)], axis=-1)
        j = np.empty(state.shape + (2,), dtype=complex)
        j[..., 0, :] = mp[..., :2] / 2
        # tr(adj a_k) per sheet, against a contiguous copy of a_k per sheet:
        # bit for bit the one-lane einsum "nij,ji->n", which a view is not
        a_k = np.empty((2,) + adj.shape, dtype=complex)
        for k in range(2):
            a_k[k] = a[..., None, :, :, k]
            j[..., 1, k] = np.einsum("...nij,...nji->...n", adj, a_k[k])
        if reads != "r":
            # t-derivative: the same contractions of dA/dt
            mdot, _, fdot = self._contract(rate, p)
            rt = np.stack([fdot, np.einsum("...nij,...nji->...n", adj, mdot)], axis=-1)
        return r, j, rt

    def update(self, state: np.ndarray, delta: np.ndarray) -> np.ndarray:
        return state + delta

    def scale(self, state: np.ndarray, t) -> np.ndarray:
        cnorm = np.abs(self.coeffs(t)).max(axis=-1)
        # per lane in scalar arithmetic, as one lane computes it: an array
        # power need not round like the scalar one
        top = np.array([max(c, (6 * c) ** 3) for c in cnorm.ravel()]).reshape(cnorm.shape)
        nrm = 1.0 + np.abs(state).max(axis=-1)
        return top[..., None] * nrm**3

    def param_scale(self, state: np.ndarray) -> np.ndarray:
        return 1.0 + np.abs(state).max(axis=-1)

    def collision_gap(self, state: np.ndarray):
        pts = self.points(state)
        return ls.min_pairwise_distance(pts / np.linalg.norm(pts, axis=-1, keepdims=True))


def _adjugate_tables():
    """Gather tables for adj(m)[i, j] = (-1)^(i+j) (m[r0, c0] m[r1, c1] -
    m[r0, c1] m[r1, c0]), with r0 < r1 the rows other than j and c0 < c1
    the columns other than i."""
    i, j = np.indices((3, 3))
    other = np.array([[1, 2], [0, 2], [0, 1]])
    r0, r1, c0, c1 = other[j, 0], other[j, 1], other[i, 0], other[i, 1]
    return np.stack([r0, r1, r0, r1]), np.stack([c0, c1, c1, c0]), (-1.0) ** (i + j)


_ADJ_ROWS, _ADJ_COLS, _ADJ_SIGN = _adjugate_tables()


def _adjugate3(m: np.ndarray) -> np.ndarray:
    """Batched adjugate of 3x3 matrices, C-contiguous."""
    g = m[..., _ADJ_ROWS, _ADJ_COLS]  # (..., 4, 3, 3)
    minor = g[..., 0, :, :] * g[..., 1, :, :] - g[..., 2, :, :] * g[..., 3, :, :]
    return np.ascontiguousarray(_ADJ_SIGN * minor)


def _state_from_points(points: np.ndarray) -> np.ndarray:
    if (np.abs(points[:, 2]) < 1e-9).any():
        raise FlexError("a flex sits at the frame's line at infinity")
    return points[:, :2] / points[:, 2:3]


def _certify(form: PlaneCubicForm, points: np.ndarray) -> np.ndarray:
    hess = hessian_coefficients(form.coefficients)
    fres = np.abs(SPACE3.evaluate(form.coefficients, points))
    hres = np.abs(SPACE3.evaluate(hess, points))
    nrm = np.linalg.norm(points, axis=1) ** 3
    fscale = np.abs(form.coefficients).max() * nrm
    hscale = np.abs(hess).max() * nrm
    return np.maximum(fres / fscale, hres / hscale)


def solve_flexes(form: PlaneCubicForm, seed: int = 0, attempts: int = 4) -> FlexSet:
    """The nine flexes, by continuation from the Fermat plane cubic."""
    rng = np.random.default_rng(seed)
    start_form = hesse_form(0.0)
    start_points = hesse_flexes()
    last: Exception | None = None
    for _ in range(attempts):
        gamma = np.exp(2j * np.pi * rng.uniform())
        frame = random_unitary(3, rng)
        c_from = gamma * SPACE3.compose_matrix(start_form.coefficients, frame)
        c_to = SPACE3.compose_matrix(form.coefficients, frame)
        try:
            state = _state_from_points(start_points @ np.linalg.inv(frame).T)
        except FlexError as exc:
            last = exc
            continue
        system = FlexSystem(c_from, c_to)
        try:
            state, _ = track_segment(system, state,
                                     TrackOptions(collision_tol=FLEX_DISTINCT_TOL))
        except (PathTrackingError, SheetCollisionError, np.linalg.LinAlgError) as exc:
            last = exc
            continue
        pts = np.array([normalize_point(p) for p in (system.points(state) @ frame.T)])
        residuals = _certify(form, pts)
        gap = ls.min_pairwise_distance(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        if gap <= FLEX_DISTINCT_TOL:
            last = FlexError(f"flexes not distinct (min distance {gap:.3g})")
            continue
        if residuals.max() >= FLEX_RESIDUAL_TOL:
            last = FlexError(f"flex residual {residuals.max():.3g} above tolerance")
            continue
        return FlexSet(points=pts, residuals=residuals, seed=seed)
    raise FlexError(f"no certified flex solve in {attempts} attempts: {last}")


# ---------------------------------------------------------------------------
# Collinearity structure and the ASL2(F3) identification
# ---------------------------------------------------------------------------


def collinear_triples(points: np.ndarray) -> list[tuple[int, int, int]]:
    """Index triples of collinear flexes (normalized determinant test)."""
    pts = points / np.linalg.norm(points, axis=1, keepdims=True)
    out = []
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        det = np.linalg.det(np.vstack([pts[i], pts[j], pts[k]]))
        if abs(det) < COLLINEAR_TOL:
            out.append((i, j, k))
    return out


def check_hesse_configuration(triples: list[tuple[int, int, int]]) -> None:
    """12 lines, 4 through each of the nine flexes."""
    if len(triples) != 12:
        raise FlexError(f"expected 12 collinear triples, found {len(triples)}")
    counts = [0] * 9
    for t in triples:
        for i in t:
            counts[i] += 1
    if counts != [4] * 9:
        raise FlexError(f"line counts per point are {counts}, expected all 4")


def preserves_triples(perm: Permutation, triples: list[tuple[int, int, int]]) -> bool:
    """Does the flex permutation map the collinear triples onto themselves?"""
    lines = {frozenset(t) for t in triples}
    return all(frozenset(perm.images[i] for i in t) in lines for t in lines)


def f3_coordinate_bijections(triples: list[tuple[int, int, int]]):
    """All bijections flexes -> F3^2 adapted to the collinearity structure.

    A bijection is fixed by an origin, an ordered pair of lines through it
    (the axes), and an ordering of each axis; the rest of the table fills
    in through the rule that collinear triples sum to zero.  Yields maps
    point_index -> (x, y); invalid fills are skipped.
    """
    tset = [frozenset(t) for t in triples]
    for origin in range(9):
        through = [t for t in tset if origin in t]
        for l1, l2 in itertools.permutations(through, 2):
            a1 = sorted(l1 - {origin})
            a2 = sorted(l2 - {origin})
            for ax1 in (a1, a1[::-1]):
                for ax2 in (a2, a2[::-1]):
                    coords = {origin: (0, 0), ax1[0]: (1, 0), ax1[1]: (2, 0),
                              ax2[0]: (0, 1), ax2[1]: (0, 2)}
                    ok = True
                    while ok and len(coords) < 9:
                        progress = False
                        for t in tset:
                            known = [p for p in t if p in coords]
                            if len(known) == 2:
                                p, q = known
                                (r,) = t - {p, q}
                                rx = (-coords[p][0] - coords[q][0]) % 3
                                ry = (-coords[p][1] - coords[q][1]) % 3
                                if r in coords and coords[r] != (rx, ry):
                                    ok = False
                                    break
                                if r not in coords:
                                    coords[r] = (rx, ry)
                                    progress = True
                        if not progress:
                            break
                    if ok and len(coords) == 9:
                        consistent = all(
                            (sum(coords[p][0] for p in t) % 3 == 0
                             and sum(coords[p][1] for p in t) % 3 == 0)
                            for t in tset)
                        if consistent:
                            yield dict(coords)


def permutation_in_f3_coordinates(perm: Permutation,
                                  coords: dict[int, tuple[int, int]]) -> Permutation:
    """Transport a flex permutation to the 9 points of F3^2 (index 3x+y)."""
    imgs = [0] * 9
    for p, (x, y) in coords.items():
        qx, qy = coords[perm.images[p]]
        imgs[3 * x + y] = 3 * qx + qy
    return Permutation(imgs)


# ---------------------------------------------------------------------------
# Loop tracking for the degree-9 cover
# ---------------------------------------------------------------------------


def flexp9_family():
    """The full 10-coefficient space of plane cubics (degree-9 cover)."""
    return FamilySpec(
        name="FlexP9",
        parameter_dim=10,
        evaluator=lambda p: PlaneCubicForm(p),
        coeff_map=lambda p: np.asarray(p, dtype=complex),
        symmetry_generators=(),
        known_punctures=(),
        degree=9,
    )


def flex_loop_run(loop, base: FlexSet, frame_seed: int = 0) -> LoopRun:
    """Continue the nine flexes around a loop in coefficient space.

    The whole loop is tracked in one random unitary frame (composition
    with the frame is linear on coefficients, so segments stay segments),
    leg by leg as a line loop is.
    Its permutation is a tracker.TrackedPermutation of degree 9.
    """
    rng = np.random.default_rng(frame_seed)
    frame = random_unitary(3, rng)
    frame_inv = np.linalg.inv(frame)
    state = _state_from_points(base.points @ frame_inv.T)
    coeffs = [SPACE3.compose_matrix(loop.family.raw_coeffs(w), frame)
              for w in loop.waypoints]
    systems = leg_systems(FlexSystem, loop, coeffs)

    def finish(state, telemetry) -> TrackedPermutation:
        end_pts = np.array([normalize_point(p)
                            for p in (systems[-1].points(state) @ frame.T)])
        u_end = end_pts / np.linalg.norm(end_pts, axis=1, keepdims=True)
        u_base = base.points / np.linalg.norm(base.points, axis=1, keepdims=True)
        matching = ls.match_lines(u_end, u_base)
        return TrackedPermutation.from_telemetry(
            Permutation(matching), ls.min_pairwise_distance(u_end), loop, telemetry)

    return LoopRun(systems, state, finish)


def track_flex_loop(loop, base: FlexSet, frame_seed: int = 0) -> TrackedPermutation:
    """Track one flex loop alone: see :func:`flex_loop_run`."""
    return flex_loop_run(loop, base, frame_seed).track()
