"""Traced runs: spans around the calls into each layer, kept in memory.

A ``Tracer`` replaces the program's layer entry points with timing
wrappers while it is active and puts every original back when it exits.
Module-level functions are replaced under every name they are bound to in
the package's modules, because several modules import them by name (``tracker``,
``linesolver`` and ``flexes`` import ``track_segment``; ``monodromy``
imports ``symmetry_permutation``).  Methods are replaced on their class.

A span is ``[name, start, end, parent, request, error, info]``; ``name``
is ``<module>.<qualname>`` and its module is the span's layer.  The
benchmark opens one ``request`` span per operation; its self time, and
the benchmark's own time between requests, is reported as ``other``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import re
import statistics
import weakref
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

REQUEST = "request"
LAYERS = ("numeric", "linesolver", "flexes", "tracker", "schlafli", "surfaces",
          "perms", "monodromy")
LOOP_KINDS = ("petal", "polygon", "lasso", "twist", "flex_polygon", "flex_lasso")
CAMPAIGN_FAMILIES = ("Generic20", "S4", "S3", "S3xC2", "C2even", "FlexP9")
FAILURE_CLASSES = ("PathTrackingError", "SheetCollisionError", "LinAlgError",
                   "MatchError", "LoopError", "FlexError", "SolveError", "other")
LOOP_SPANS = ("tracker.track_loop", "tracker.track_twisted_loop",
              "flexes.track_flex_loop")
SEGMENT = "numeric.track_segment"

_FAILURE = re.compile(r"^(?P<desc>.*?): (?P<cls>[A-Za-z_]\w*): (?P<msg>.*)$", re.S)


def loop_kind(loop, flex: bool = False) -> str:
    """Petal, polygon, lasso or twist; flex loops carry a ``flex_`` prefix.

    ``LoopSpec.kind`` reads ``random_polygon`` for both polygons and
    lassos, so lassos are told apart by ``detail["shape"]``.  A
    ``TwistedLoopSpec`` has an identification and no ``kind``.
    """
    if hasattr(loop, "identification"):
        return "twist"
    if loop.kind == "petal":
        return "petal"
    shape = "lasso" if loop.detail.get("shape") == "lasso" else "polygon"
    return f"flex_{shape}" if flex else shape


def failure_class(entry: str) -> str:
    """The exception class of a ``loop_failures`` entry ``desc: Class: msg``."""
    m = _FAILURE.match(entry)
    return m.group("cls") if m else "other"


def failure_counts(entries) -> dict[str, int]:
    counts = dict.fromkeys(FAILURE_CLASSES, 0)
    for entry in entries:
        cls = failure_class(entry)
        counts[cls if cls in counts else "other"] += 1
    return counts


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [
        ("numeric.segments", "count", "lower"),
        ("numeric.steps", "count", "lower"),
        ("numeric.rejected", "count", "lower"),
        ("numeric.step_accept_ratio", "ratio", "higher"),
        ("numeric.segment_s", "s", "lower"),
    ]
    for k in LOOP_KINDS:
        out += [
            (f"tracker.{k}.loops", "count", "lower"),
            (f"tracker.{k}.fail", "count", "lower"),
            (f"tracker.{k}.loop_s_p50", "s", "lower"),
            (f"tracker.{k}.steps", "count", "lower"),
            (f"tracker.{k}.rejected", "count", "lower"),
            (f"tracker.{k}.steps_per_segment", "count", "lower"),
        ]
    out += [
        ("linesolver.res_jac_dt_calls", "count", "lower"),
        ("linesolver.res_jac_dt_s", "s", "lower"),
        ("linesolver.collision_gap_calls", "count", "lower"),
        ("linesolver.collision_gap_s", "s", "lower"),
        ("linesolver.solve_lines_s", "s", "lower"),
        ("linesolver.solve_attempts", "count", "lower"),
        ("linesolver.escalations", "count", "lower"),
        ("linesolver.solve_p90_ms", "ms", "lower"),
        ("flexes.res_jac_dt_calls", "count", "lower"),
        ("flexes.res_jac_dt_s", "s", "lower"),
        ("flexes.solve_flexes_s", "s", "lower"),
        ("schlafli.weyl_e6_s", "s", "lower"),
        ("schlafli.label_lines_s", "s", "lower"),
        ("surfaces.symmetry_permutation_s", "s", "lower"),
        ("perms.fingerprint_calls", "count", "lower"),
        ("perms.fingerprint_s", "s", "lower"),
        ("perms.fingerprint_repeat_ratio", "ratio", "lower"),
        ("perms.generate_group_s", "s", "lower"),
        ("perms.quotient_group_s", "s", "lower"),
        ("perms.split_check_s", "s", "lower"),
        ("perms.set_stabilizer_s", "s", "lower"),
        ("perms.chain_extend_calls", "count", "lower"),
        ("perms.chain_extend_s", "s", "lower"),
    ]
    out += [(f"monodromy.campaign_s.{f}", "s", "lower") for f in CAMPAIGN_FAMILIES]
    out += [
        ("monodromy.evaluate_claim_s", "s", "lower"),
        ("monodromy.to_json_s", "s", "lower"),
        ("monodromy.loops_attempted", "count", "lower"),
    ]
    out += [(f"monodromy.loop_failures.{c}", "count", "lower") for c in FAILURE_CLASSES]
    out += [(f"self_s.{layer}", "s", "lower") for layer in LAYERS + ("other",)]
    out += [
        ("trace.wall_s", "s", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


class Tracer:
    """Context manager that installs the timing wrappers and records spans."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._request = -1
        self._fingerprinted: weakref.WeakSet = weakref.WeakSet()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install(self.mods)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _install(self, m) -> None:
        self._everywhere(m.numeric.track_segment, pre=_segment_pre, post=_segment_post)
        for cls in (m.linesolver.LineSystem, m.flexes.FlexSystem):
            self._method(cls, "res_jac_dt")
            self._method(cls, "collision_gap")
        attempts = inspect.signature(m.linesolver.solve_lines).parameters["attempts"].default
        self._everywhere(m.linesolver.solve_lines, post=functools.partial(_solve_post, attempts))
        self._everywhere(m.flexes.solve_flexes)
        self._everywhere(m.tracker.track_loop, pre=lambda a, kw: loop_kind(a[0]),
                         post=_keep_token)
        self._everywhere(m.tracker.track_twisted_loop, pre=lambda a, kw: "twist",
                         post=_keep_token)
        self._everywhere(m.flexes.track_flex_loop,
                         pre=lambda a, kw: loop_kind(a[0], flex=True), post=_keep_token)
        self._everywhere(m.schlafli.label_lines)
        self._everywhere(m.surfaces.symmetry_permutation)
        self._everywhere(m.perms.fingerprint, pre=self._fingerprint_pre, post=_keep_token)
        for fn in (m.perms.generate_group, m.perms.bsgs_order, m.perms.quotient_group,
                   m.perms.split_central_extension_check, m.perms.set_stabilizer,
                   m.perms.centralizer):
            self._everywhere(fn)
        self._method(m.perms.StabilizerChain, "extend")
        self._everywhere(m.monodromy.run_campaign, pre=lambda a, kw: a[0].family.name,
                         post=_keep_token)
        self._everywhere(m.monodromy.evaluate_claim)
        self._method(m.monodromy.MonodromyReport, "to_json")

    def _wrap(self, func, pre=None, post=None):
        name = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._request, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                stack.pop()
                span[5] = type(exc).__name__
                if post is not None:
                    span[6] = post(token, None)
                raise
            span[2] = perf_counter()
            stack.pop()
            if post is not None:
                span[6] = post(token, result)
            return result

        traced.span_name = name
        return traced

    def _everywhere(self, func, pre=None, post=None) -> None:
        """Replace ``func`` under every name the package's modules bind it to."""
        wrapper = self._wrap(func, pre, post)
        for module in vars(self.mods).values():
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapper)

    def _method(self, cls, attr: str) -> None:
        self._patch(cls, attr, self._wrap(getattr(cls, attr)))

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _fingerprint_pre(self, args, kwargs) -> bool:
        group = args[0] if args else kwargs["group"]
        repeat = group in self._fingerprinted
        self._fingerprinted.add(group)
        return repeat

    # -- requests -----------------------------------------------------------

    @contextmanager
    def request(self):
        """One operation of the workload: a suite run, a solve or a triple."""
        self._request += 1
        span = [REQUEST, perf_counter(), 0.0, -1, self._request, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, one header line first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent",
                                            "request", "error", "info"]}) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([i, *s], default=str) + "\n")


def _keep_token(token, result):
    return token


def _segment_pre(args, kwargs):
    tel = args[3] if len(args) > 3 else kwargs.get("telemetry")
    return (tel, tel.steps, tel.rejected) if tel is not None else (None, 0, 0)


def _segment_post(token, result):
    """Steps and rejections of one segment, as the change in its telemetry."""
    tel, steps, rejected = token
    if result is not None:
        tel = result[1]
    if tel is None:
        return (0, 0)
    return (tel.steps - steps, tel.rejected - rejected)


def _solve_post(max_attempts, token, report):
    if report is None:
        return (max_attempts, 0)
    return (report.path_failures + 1, report.telemetry.escalations)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[list], wall_s: float, untraced_s: float,
                  weyl_e6_s: float, results: list[dict]) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced phase.

    ``results`` are the claim-suite outputs of that phase (empty on the
    other workloads); loop failures are counted from their strings.
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_time = dur - child

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(*names: str) -> float:
        return float(sum(dur[i] for nm in names for i in by_name.get(nm, ())))

    out: dict[str, float] = {}

    # numeric, and the loop each segment belongs to
    seg = by_name.get(SEGMENT, [])
    steps = sum(spans[i][6][0] for i in seg)
    rejected = sum(spans[i][6][1] for i in seg)
    out["numeric.segments"] = len(seg)
    out["numeric.steps"] = steps
    out["numeric.rejected"] = rejected
    out["numeric.step_accept_ratio"] = steps / (steps + rejected) if steps + rejected else 0.0
    out["numeric.segment_s"] = total(SEGMENT)

    loop_of: dict[int, str] = {}
    for name in LOOP_SPANS:
        for i in by_name.get(name, ()):
            loop_of[i] = spans[i][6]
    kind_stats = {k: {"loops": [], "fail": 0, "steps": 0, "rejected": 0, "segments": 0}
                  for k in LOOP_KINDS}
    for i, kind in loop_of.items():
        kind_stats[kind]["loops"].append(dur[i])
        kind_stats[kind]["fail"] += spans[i][5] is not None
    for i in seg:
        p = spans[i][3]
        while p >= 0 and p not in loop_of:
            p = spans[p][3]
        if p >= 0:
            st = kind_stats[loop_of[p]]
            st["steps"] += spans[i][6][0]
            st["rejected"] += spans[i][6][1]
            st["segments"] += 1
    for k, st in kind_stats.items():
        out[f"tracker.{k}.loops"] = len(st["loops"])
        out[f"tracker.{k}.fail"] = st["fail"]
        out[f"tracker.{k}.loop_s_p50"] = _median(st["loops"])
        out[f"tracker.{k}.steps"] = st["steps"]
        out[f"tracker.{k}.rejected"] = st["rejected"]
        out[f"tracker.{k}.steps_per_segment"] = (
            st["steps"] / st["segments"] if st["segments"] else 0.0)

    # linesolver and flexes
    solves = by_name.get("linesolver.solve_lines", [])
    out["linesolver.res_jac_dt_calls"] = calls("linesolver.LineSystem.res_jac_dt")
    out["linesolver.res_jac_dt_s"] = total("linesolver.LineSystem.res_jac_dt")
    out["linesolver.collision_gap_calls"] = calls("linesolver.LineSystem.collision_gap")
    out["linesolver.collision_gap_s"] = total("linesolver.LineSystem.collision_gap")
    out["linesolver.solve_lines_s"] = total("linesolver.solve_lines")
    out["linesolver.solve_attempts"] = sum(spans[i][6][0] for i in solves)
    out["linesolver.escalations"] = sum(spans[i][6][1] for i in solves)
    out["linesolver.solve_p90_ms"] = (
        1e3 * float(np.percentile(dur[solves], 90)) if solves else 0.0)
    out["flexes.res_jac_dt_calls"] = calls("flexes.FlexSystem.res_jac_dt")
    out["flexes.res_jac_dt_s"] = total("flexes.FlexSystem.res_jac_dt")
    out["flexes.solve_flexes_s"] = total("flexes.solve_flexes")

    # schlafli, surfaces, perms
    out["schlafli.weyl_e6_s"] = weyl_e6_s
    out["schlafli.label_lines_s"] = total("schlafli.label_lines")
    out["surfaces.symmetry_permutation_s"] = total("surfaces.symmetry_permutation")
    fps = by_name.get("perms.fingerprint", [])
    out["perms.fingerprint_calls"] = len(fps)
    out["perms.fingerprint_s"] = total("perms.fingerprint")
    out["perms.fingerprint_repeat_ratio"] = (
        sum(bool(spans[i][6]) for i in fps) / len(fps) if fps else 0.0)
    out["perms.generate_group_s"] = total("perms.generate_group")
    out["perms.quotient_group_s"] = total("perms.quotient_group")
    out["perms.split_check_s"] = total("perms.split_central_extension_check")
    out["perms.set_stabilizer_s"] = total("perms.set_stabilizer")
    out["perms.chain_extend_calls"] = calls("perms.StabilizerChain.extend")
    out["perms.chain_extend_s"] = total("perms.StabilizerChain.extend")

    # monodromy
    campaign = dict.fromkeys(CAMPAIGN_FAMILIES, 0.0)
    for i in by_name.get("monodromy.run_campaign", ()):
        campaign[spans[i][6]] = campaign.get(spans[i][6], 0.0) + dur[i]
    for fam in CAMPAIGN_FAMILIES:
        out[f"monodromy.campaign_s.{fam}"] = float(campaign[fam])
    out["monodromy.evaluate_claim_s"] = total("monodromy.evaluate_claim")
    out["monodromy.to_json_s"] = total("monodromy.MonodromyReport.to_json")
    reports = [r for res in results for r in res["reports"].values()]
    failures = [f for r in reports for f in r["loop_failures"]]
    out["monodromy.loops_attempted"] = sum(len(r["tracked"]) for r in reports) + len(failures)
    for cls, count in failure_counts(failures).items():
        out[f"monodromy.loop_failures.{cls}"] = count

    # self time per layer; ``other`` is the rest of the traced wall time
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        if s[0] != REQUEST:
            layer_self[s[0].split(".", 1)[0]] += self_time[i]
    for layer, value in layer_self.items():
        out[f"self_s.{layer}"] = float(value)
    out["self_s.other"] = wall_s - float(sum(layer_self.values()))
    out["trace.wall_s"] = wall_s
    out["trace.untraced_s"] = untraced_s
    out["trace.overhead_s"] = wall_s - untraced_s
    return out
