"""Loop tracking in parameter families and monodromy permutation extraction.

Loops are waypoint polylines in a family's parameter space; consecutive
waypoints are joined by straight segments (the family coefficient maps are
affine, so these are straight segments in coefficient space too, and the
homotopy class of the polyline is exactly what gets tracked).  Each loop
is tracked with one step controller, leg by leg: a leg is one segment,
or the whole circle of a petal or a lasso (an arc leg), whose waypoints
the controller crosses without stopping, at most ``ARC_STEP`` of the
circle per step.  Twisted loops end at a parameter point whose surface is
identified with the base surface through a projective matrix; the
identification transports the tracked endpoint fiber back to the base
fiber.

A line loop, plain or twisted, is set up by :func:`loop_run` as a
:class:`LoopRun`: its leg systems, its start sheets and the step that
reads the permutation off the end sheets.  ``track_loop`` and
``track_twisted_loop`` track one run alone, one ``track_segment`` per
leg; a campaign tracks several runs at once as lanes of
``numeric.step_paths`` (see ``monodromy``).  Both give the same
permutation and telemetry bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import linesolver as ls
from .forms import FamilySpec, ProjectiveMatrix, TwistAction
from .numeric import Path, SegmentSystem, TrackOptions, TrackTelemetry, track_segment
from .perms import Permutation
from .schlafli import SchlafliLabeling

SHEET_COLLISION_TOL = 1e-6
IDENTIFICATION_TOL = 1e-10


class LoopError(RuntimeError):
    """Invalid loop geometry (puncture clearance, waypoint closure, ...)."""


@dataclass(frozen=True)
class LoopSpec:
    """A closed polyline in parameter space, tracked leg by leg.

    ``legs`` gives the number of segments in each leg, in order (empty:
    one leg per segment).  A leg of several segments is a circle, an arc
    leg: the step controller crosses its waypoints without stopping, and a
    step covers at most ``ARC_STEP`` of it.  The legs change only how the
    polyline is stepped, not the polyline.
    """

    family: FamilySpec
    basepoint: np.ndarray
    waypoints: tuple[np.ndarray, ...]
    kind: str = "plain"  # "plain" | "petal" | "random_polygon"
    detail: dict = field(default_factory=dict)
    legs: tuple[int, ...] = ()

    def __post_init__(self):
        wps = tuple(np.atleast_1d(np.asarray(w, dtype=complex)) for w in self.waypoints)
        object.__setattr__(self, "waypoints", wps)
        object.__setattr__(self, "basepoint",
                           np.atleast_1d(np.asarray(self.basepoint, dtype=complex)))
        if len(wps) < 2:
            raise LoopError("a loop needs at least two waypoints")
        if not np.allclose(wps[0], self.basepoint) or not np.allclose(wps[-1], self.basepoint):
            raise LoopError("loop must start and end at the basepoint")
        if self.legs and (sum(self.legs) != len(wps) - 1 or min(self.legs) < 1):
            raise LoopError(f"legs {self.legs} do not split {len(wps) - 1} segments")

    def refined(self, factor: int = 2) -> "LoopSpec":
        """The same polyline with each segment subdivided ``factor`` times."""
        pts = []
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            for k in range(factor):
                pts.append(a + (b - a) * (k / factor))
        pts.append(self.waypoints[-1])
        return LoopSpec(family=self.family, basepoint=self.basepoint,
                        waypoints=tuple(pts), kind=self.kind, detail=dict(self.detail),
                        legs=tuple(factor * n for n in self.legs))

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


# every loop, of lines or of flexes: the step is capped only by the leg end,
# and on an arc leg at an eighth of the turn (8 petal chords, 3 lasso chords)
LOOP_OPTIONS = TrackOptions(collision_tol=SHEET_COLLISION_TOL, h_max=1.0)
ARC_STEP = 1 / 8


def leg_systems(system: type[SegmentSystem], loop, coeffs: list[np.ndarray]) -> list[SegmentSystem]:
    """One ``system`` per leg of the loop through these coefficient points,
    one per segment for a loop without legs; an arc leg is capped at ``ARC_STEP``."""
    out, at = [], 0
    for n in getattr(loop, "legs", ()) or (1,) * (len(coeffs) - 1):
        out.append(system(*coeffs[at:at + n + 1], step_cap=ARC_STEP if n > 1 else 1.0))
        at += n
    return out


@dataclass
class LoopRun:
    """A loop ready to track: leg systems, start sheets, and ``finish``,
    which turns the end sheets and the telemetry into the permutation."""

    systems: list[SegmentSystem]
    state: object
    finish: Callable[[object, TrackTelemetry], TrackedPermutation]

    def path(self) -> Path:
        """The loop as one lane of ``numeric.step_paths``."""
        return Path(self.systems, self.state, LOOP_OPTIONS)

    def track(self) -> TrackedPermutation:
        """Track the loop alone, one ``track_segment`` per leg: one fresh
        telemetry carries the step from each leg to the next, and only the
        last leg ends in a Newton polish."""
        state, telemetry = self.state, TrackTelemetry()
        last = len(self.systems) - 1
        for k, system in enumerate(self.systems):
            state, telemetry = track_segment(system, state, LOOP_OPTIONS, telemetry,
                                             polish=k == last)
        return self.finish(state, telemetry)


def _finish(base: ls.SolveReport, labeling: SchlafliLabeling | None, loop,
            identification: np.ndarray | None, state, telemetry) -> TrackedPermutation:
    """Polish the endpoint fiber, match against the base fiber, package."""
    if identification is not None:
        moved = ls.sheet_bases(state) @ np.asarray(identification, dtype=complex).T
        state = ls.best_charts(moved)
    base_coeffs = loop.family.raw_coeffs(loop.waypoints[0])
    state, _ = ls._polish_sheets(base_coeffs / np.abs(base_coeffs).max(), state)
    end_pl = ls.sheet_pluckers(state)
    # sheet i ended on base line matching[i]: that is the monodromy image
    matching = ls.match_lines(end_pl, base.pluckers())
    perm = Permutation(matching)
    if labeling is not None:
        perm = labeling.to_label_space(perm)
    return TrackedPermutation.from_telemetry(
        perm, ls.min_pairwise_distance(end_pl), loop, telemetry)


def loop_run(loop: LoopSpec | TwistedLoopSpec, base: ls.SolveReport,
             labeling: SchlafliLabeling | None = None) -> LoopRun:
    """The base fiber's 27 sheets along the loop's waypoint polyline, leg
    by leg, with the read-off of the permutation.  A twisted loop's identification g,
    with evaluator(image) = evaluator(base) o g up to scalar, carries its
    end lines back to the base surface; raises LoopError when g misses
    that identity by ``IDENTIFICATION_TOL`` or more."""
    identification = None
    if isinstance(loop, TwistedLoopSpec):
        resid = loop.identification_residual()
        if resid >= IDENTIFICATION_TOL:
            raise LoopError(f"identification residual {resid:.3g} above tolerance")
        identification = loop.identification.entries
    coeffs = [loop.family.raw_coeffs(w) for w in loop.waypoints]
    return LoopRun(leg_systems(ls.LineSystem, loop, coeffs), ls.sheets_from_lines(base.lines),
                   partial(_finish, base, labeling, loop, identification))


def track_loop(loop: LoopSpec, base: ls.SolveReport,
               labeling: SchlafliLabeling | None = None) -> TrackedPermutation:
    """Track one loop alone: see :func:`loop_run`."""
    return loop_run(loop, base, labeling).track()


def track_twisted_loop(spec: TwistedLoopSpec, base: ls.SolveReport,
                       labeling: SchlafliLabeling | None = None) -> TrackedPermutation:
    """Track one twisted loop alone: see :func:`loop_run`."""
    return loop_run(spec, base, labeling).track()


def twisted_loop_for_action(family: FamilySpec, basepoint,
                            action: TwistAction) -> TwistedLoopSpec:
    """The twisted loop: the straight path basepoint -> action(basepoint)."""
    bp = np.atleast_1d(np.asarray(basepoint, dtype=complex))
    return TwistedLoopSpec(family=family, waypoints=(bp, action.param_matrix @ bp),
                           identification=action.identification, name=action.name)


# ---------------------------------------------------------------------------
# Petal loops around punctures
# ---------------------------------------------------------------------------


def petal_loops(family: FamilySpec, basepoint: complex,
                punctures: list[complex] | None = None,
                radius: float | None = None) -> list[LoopSpec]:
    """One petal per puncture: out, once around in 64 segments, and back.
    The circle is one arc leg.

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
        for step in range(1, 65):
            theta = 2 * np.pi * step / 64
            pts.append(np.array([p + r * direction * np.exp(1j * theta)]))
        pts.append(np.array([b]))
        loop = LoopSpec(family=family, basepoint=np.array([b]),
                        waypoints=tuple(pts), kind="petal",
                        detail={"puncture": p, "radius": r}, legs=(1, 64, 1))
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


def random_polygon_loop(family: FamilySpec, basepoint, seed: int) -> LoopSpec:
    """A random closed triangle through two fresh random parameter points."""
    rng = np.random.default_rng(seed)
    bp = np.atleast_1d(np.asarray(basepoint, dtype=complex))
    scale = max(1.0, float(np.linalg.norm(bp)) / np.sqrt(len(bp)))
    pts = [bp]
    for _ in range(2):
        step = rng.normal(size=len(bp)) + 1j * rng.normal(size=len(bp))
        pts.append(bp + scale * step)
    pts.append(bp)
    return LoopSpec(family=family, basepoint=bp, waypoints=tuple(pts),
                    kind="random_polygon", detail={"seed": seed})


def random_lasso_loop(family: FamilySpec, basepoint, seed: int) -> LoopSpec:
    """A loop circling a random point of a random complex parameter line.

    Random polygons rarely link a low-degree branch curve (a real
    codimension-2 set), so campaigns also throw lassos: go out along a
    random complex line through the basepoint, circle a random center
    once in 24 segments (one arc leg), and come back.  Whenever the
    enclosed disc meets the branch locus, the lasso picks up its meridians.
    The disc is the 24-gon's, not the circle's: a branch point between the
    two would be circled by one and not by the other.
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
    for step in range(1, 24):
        theta = 2 * np.pi * step / 24
        t = center + (entry - center) * np.exp(1j * theta)
        pts.append(bp + t * direction)
    pts.append(bp + entry * direction)
    pts.append(bp)
    return LoopSpec(family=family, basepoint=bp, waypoints=tuple(pts),
                    kind="random_polygon", detail={"seed": seed, "shape": "lasso"},
                    legs=(1, 24, 1))
