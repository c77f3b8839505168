"""Loop tracking in parameter families and monodromy permutation extraction.

Loops are waypoint polylines in a family's parameter space; consecutive
waypoints are joined by straight segments (the family coefficient maps are
affine, so these are straight segments in coefficient space too, and the
homotopy class of the polyline is exactly what gets tracked).  Each loop
is tracked with one step controller (see :func:`track_polyline`).  Twisted
loops end at a parameter point whose surface is identified with the base
surface through a projective matrix; the identification transports the
tracked endpoint fiber back to the base fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import linesolver as ls
from .forms import FamilySpec, ProjectiveMatrix, TwistAction
from .numeric import SegmentSystem, TrackOptions, TrackTelemetry, track_segment
from .perms import Permutation
from .schlafli import SchlafliLabeling

SHEET_COLLISION_TOL = 1e-6
IDENTIFICATION_TOL = 1e-10


class LoopError(RuntimeError):
    """Invalid loop geometry (puncture clearance, waypoint closure, ...)."""


@dataclass(frozen=True)
class LoopSpec:
    """A closed polyline in parameter space."""

    family: FamilySpec
    basepoint: np.ndarray
    waypoints: tuple[np.ndarray, ...]
    kind: str = "plain"  # "plain" | "petal" | "random_polygon"
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        wps = tuple(np.atleast_1d(np.asarray(w, dtype=complex)) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "basepoint",
                           np.atleast_1d(np.asarray(self.basepoint, dtype=complex)))
        if len(wps) < 2:
            raise LoopError("a loop needs at least two waypoints")
        if not np.allclose(wps[0], self.basepoint) or not np.allclose(wps[-1], self.basepoint):
            raise LoopError("loop must start and end at the basepoint")

    def refined(self, factor: int = 2) -> "LoopSpec":
        """The same polyline with each segment subdivided ``factor`` times."""
        pts = []
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            for k in range(factor):
                pts.append(a + (b - a) * (k / factor))
        pts.append(self.waypoints[-1])
        return LoopSpec(family=self.family, basepoint=self.basepoint,
                        waypoints=tuple(pts), kind=self.kind, detail=dict(self.detail))

    def to_json(self) -> dict:
        return {
            "family": self.family.name,
            "kind": self.kind,
            "waypoints": [[[c.real, c.imag] for c in w] for w in self.waypoints],
            "detail": {k: repr(v) for k, v in self.detail.items()},
        }


@dataclass(frozen=True)
class TwistedLoopSpec:
    """A path closing only up to a symmetry identification of fibers."""

    family: FamilySpec
    waypoints: tuple[np.ndarray, ...]  # basepoint ... image point
    identification: ProjectiveMatrix
    name: str = "twist"

    def __post_init__(self):
        wps = tuple(np.atleast_1d(np.asarray(w, dtype=complex)) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        if len(wps) < 2:
            raise LoopError("a twisted loop needs at least two waypoints")

    def identification_residual(self) -> float:
        """Defect of evaluator(image) = evaluator(base) o g, up to scalar."""
        base = self.family.form_at(self.waypoints[0])
        image = self.family.form_at(self.waypoints[-1])
        moved = base.transformed(self.identification.entries)
        k = int(np.abs(image.coefficients).argmax())
        if moved.coefficients[k] == 0:
            return 1.0
        ratio = image.coefficients[k] / moved.coefficients[k]
        return float(np.abs(moved.coefficients * ratio - image.coefficients).max())

    def to_json(self) -> dict:
        return {
            "family": self.family.name,
            "kind": "twisted",
            "name": self.name,
            "waypoints": [[[c.real, c.imag] for c in w] for w in self.waypoints],
        }


@dataclass
class TrackedPermutation:
    """A loop's permutation with its numerical audit trail.

    ``min_separation`` is the sheet separation of the endpoint fiber;
    ``min_path_separation`` is the least one over the accepted steps
    (infinite, and null in JSON, for a loop that took no step).
    """

    perm: Permutation
    max_corrector_residual: float
    min_separation: float
    loop: LoopSpec | TwistedLoopSpec
    steps: int = 0
    rejected: int = 0
    min_path_separation: float = math.inf

    @classmethod
    def from_telemetry(cls, perm: Permutation, min_separation: float, loop,
                       telemetry: TrackTelemetry) -> "TrackedPermutation":
        return cls(perm=perm, max_corrector_residual=telemetry.max_corrector_residual,
                   min_separation=min_separation, loop=loop, steps=telemetry.steps,
                   rejected=telemetry.rejected,
                   min_path_separation=float(telemetry.min_path_separation))

    def to_json(self) -> dict:
        path_sep = self.min_path_separation
        return {
            "perm": list(self.perm.images),
            "max_corrector_residual": self.max_corrector_residual,
            "min_separation": self.min_separation,
            "steps": self.steps,
            "rejected": self.rejected,
            "min_path_separation": path_sep if math.isfinite(path_sep) else None,
            "loop": self.loop.to_json(),
        }


def loop_options(collision_tol: float) -> TrackOptions:
    """Default loop options: the step is capped only by the segment end."""
    return TrackOptions(collision_tol=collision_tol, h_max=1.0)


def track_polyline(systems: list[SegmentSystem], state, options: TrackOptions,
                   telemetry: TrackTelemetry):
    """Track the sheets along consecutive segments with one step controller.

    ``telemetry`` carries the step from each segment to the next, and only
    the last segment ends in a Newton polish.
    """
    last = len(systems) - 1
    for k, system in enumerate(systems):
        state, telemetry = track_segment(system, state, options, telemetry,
                                         polish=k == last)
    return state, telemetry


def _track_base_fiber(family: FamilySpec, waypoints, base: ls.SolveReport,
                      options: TrackOptions | None):
    """The base fiber's 27 sheets continued along the waypoint polyline."""
    coeffs = [family.raw_coeffs(w) for w in waypoints]
    systems = [ls.LineSystem(a, b) for a, b in zip(coeffs[:-1], coeffs[1:])]
    return track_polyline(systems, ls.sheets_from_lines(base.lines),
                          options or loop_options(SHEET_COLLISION_TOL), TrackTelemetry())


def _finish(family: FamilySpec, base: ls.SolveReport, state,
            labeling: SchlafliLabeling | None, loop, telemetry,
            identification: np.ndarray | None = None) -> TrackedPermutation:
    """Polish the endpoint fiber, match against the base fiber, package."""
    end_lines = ls.lines_from_sheets(state)
    if identification is not None:
        end_lines = ls.transform_lines(end_lines, identification)
    state = ls.sheets_from_lines(end_lines)
    base_coeffs = family.raw_coeffs(loop.waypoints[0])
    state, _, _ = ls._polish_sheets(base_coeffs / np.abs(base_coeffs).max(), state)
    end_pl = ls.sheet_pluckers(state)
    # sheet i ended on base line matching[i]: that is the monodromy image
    matching = ls.match_lines(end_pl, base.pluckers())
    perm = Permutation(matching)
    if labeling is not None:
        perm = labeling.to_label_space(perm)
    return TrackedPermutation.from_telemetry(
        perm, ls.min_pairwise_distance(end_pl), loop, telemetry)


def track_loop(loop: LoopSpec, base: ls.SolveReport,
               labeling: SchlafliLabeling | None = None,
               options: TrackOptions | None = None) -> TrackedPermutation:
    """Continue all sheets around a closed loop and read off the permutation."""
    state, telemetry = _track_base_fiber(loop.family, loop.waypoints, base, options)
    return _finish(loop.family, base, state, labeling, loop, telemetry)


def track_twisted_loop(spec: TwistedLoopSpec, base: ls.SolveReport,
                       labeling: SchlafliLabeling | None = None,
                       options: TrackOptions | None = None) -> TrackedPermutation:
    """Track a path to the twisted image point, then identify fibers.

    The identification g satisfies evaluator(image) = evaluator(base) o g
    up to scalar, so g carries the endpoint lines to lines of the base
    surface; matching those against the base fiber closes the loop.
    """
    resid = spec.identification_residual()
    if resid >= IDENTIFICATION_TOL:
        raise LoopError(f"identification residual {resid:.3g} above tolerance")
    state, telemetry = _track_base_fiber(spec.family, spec.waypoints, base, options)
    return _finish(spec.family, base, state, labeling, spec, telemetry,
                   identification=spec.identification.entries)


def twisted_loop_for_action(family: FamilySpec, basepoint, action: TwistAction,
                            via: np.ndarray | None = None) -> TwistedLoopSpec:
    """The twisted loop basepoint -> action(basepoint), optionally via a detour."""
    bp = np.atleast_1d(np.asarray(basepoint, dtype=complex))
    image = action.param_matrix @ bp
    waypoints = (bp, image) if via is None else (bp, np.atleast_1d(via), image)
    return TwistedLoopSpec(family=family, waypoints=waypoints,
                           identification=action.identification, name=action.name)


# ---------------------------------------------------------------------------
# Petal loops around punctures
# ---------------------------------------------------------------------------


def petal_loops(family: FamilySpec, basepoint: complex,
                punctures: list[complex] | None = None,
                radius: float | None = None,
                waypoints_per_circle: int = 64) -> list[LoopSpec]:
    """One petal per puncture: out, once around, and back.

    Default radius is 1e-2 times the distance to the nearest other
    puncture (or to the basepoint when there is only one).  Petals are
    returned in angular order around the basepoint, which keeps them
    mutually non-crossing for generic configurations.
    """
    if family.parameter_dim != 1:
        raise LoopError("petal loops are defined for one-parameter families")
    punctures = list(family.known_punctures) if punctures is None else list(punctures)
    if not punctures:
        return []
    b = complex(np.atleast_1d(np.asarray(basepoint, dtype=complex))[0])
    radii = []
    for k, p in enumerate(punctures):
        others = [abs(p - q) for j, q in enumerate(punctures) if j != k]
        fallback = abs(b - p)
        r = radius if radius is not None else 1e-2 * (min(others) if others else fallback)
        radii.append(r)
    for i, p in enumerate(punctures):
        for j, q in enumerate(punctures):
            if i < j and abs(p - q) < 2 * max(radii[i], radii[j]):
                raise LoopError(f"punctures {p} and {q} closer than twice the radius")
    order = sorted(range(len(punctures)),
                   key=lambda k: math.atan2((punctures[k] - b).imag,
                                            (punctures[k] - b).real))
    loops = []
    for k in order:
        p, r = punctures[k], radii[k]
        direction = (b - p) / abs(b - p)
        entry = p + r * direction
        pts = [np.array([b]), np.array([entry])]
        for step in range(1, waypoints_per_circle + 1):
            theta = 2 * np.pi * step / waypoints_per_circle
            pts.append(np.array([p + r * direction * np.exp(1j * theta)]))
        pts.append(np.array([b]))
        loop = LoopSpec(family=family, basepoint=np.array([b]),
                        waypoints=tuple(pts), kind="petal",
                        detail={"puncture": p, "radius": r})
        _check_clearance(loop, punctures, min(radii))
        loops.append(loop)
    return loops


def _check_clearance(loop: LoopSpec, punctures: list[complex], radius: float) -> None:
    """Every segment must keep distance >= radius/2 from every puncture,
    except the petal's own circle which sits at its own radius."""
    own = loop.detail.get("puncture")
    own_r = loop.detail.get("radius", radius)
    for a, b in zip(loop.waypoints[:-1], loop.waypoints[1:]):
        za, zb = complex(a[0]), complex(b[0])
        for p in punctures:
            d = _point_segment_distance(p, za, zb)
            bound = 0.499 * (own_r if p == own else radius)
            if d < bound:
                raise LoopError(
                    f"loop segment comes within {d:.3g} of puncture {p}")


def _point_segment_distance(p: complex, a: complex, b: complex) -> float:
    if a == b:
        return abs(p - a)
    t = ((p - a) / (b - a)).real
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * (b - a)))


def random_polygon_loop(family: FamilySpec, basepoint, seed: int,
                        corners: int = 2, scale: float | None = None) -> LoopSpec:
    """A random closed polygon through fresh random parameter points."""
    rng = np.random.default_rng(seed)
    bp = np.atleast_1d(np.asarray(basepoint, dtype=complex))
    if scale is None:
        scale = max(1.0, float(np.linalg.norm(bp)) / np.sqrt(len(bp)))
    pts = [bp]
    for _ in range(corners):
        step = rng.normal(size=len(bp)) + 1j * rng.normal(size=len(bp))
        pts.append(bp + scale * step)
    pts.append(bp)
    return LoopSpec(family=family, basepoint=bp, waypoints=tuple(pts),
                    kind="random_polygon", detail={"seed": seed})


def random_lasso_loop(family: FamilySpec, basepoint, seed: int,
                      circle_points: int = 24) -> LoopSpec:
    """A loop circling a random point of a random complex parameter line.

    Random polygons rarely link a low-degree branch curve (a real
    codimension-2 set), so campaigns also throw lassos: go out along a
    random complex line through the basepoint, circle a random center
    once, and come back.  Whenever the enclosed disc meets the branch
    locus, the lasso picks up its meridians.
    """
    rng = np.random.default_rng(seed)
    bp = np.atleast_1d(np.asarray(basepoint, dtype=complex))
    direction = rng.normal(size=len(bp)) + 1j * rng.normal(size=len(bp))
    direction = direction / np.linalg.norm(direction)
    scale = max(1.0, float(np.linalg.norm(bp)))
    center = scale * (rng.normal() + 1j * rng.normal())
    radius = float(abs(center)) * rng.uniform(0.3, 0.95)
    entry = center * (1 - radius / abs(center))
    pts = [bp, bp + entry * direction]
    for step in range(1, circle_points + 1):
        theta = 2 * np.pi * step / circle_points
        t = center + (entry - center) * np.exp(1j * theta)
        pts.append(bp + t * direction)
    pts.append(bp + entry * direction)
    pts.append(bp)
    return LoopSpec(family=family, basepoint=bp, waypoints=tuple(pts),
                    kind="random_polygon", detail={"seed": seed, "shape": "lasso"})
