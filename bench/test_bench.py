"""Self-tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import signal
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def setup():
    return workloads.set_up(rounds=1)


def _result(capsys, argv):
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def test_spec_matches_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == ["campaigns", "lines-solve", "groups"]
    assert set(workloads.WORKLOADS) == {"campaigns", "lines-solve", "groups", "claim-suite"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        tracing.per_layer_names()


def test_campaign_families_match_claim_table(setup):
    families = {c.family for c in setup.mods.monodromy.claim_suite()}
    assert families == set(tracing.CAMPAIGN_FAMILIES)
    assert {c.claim_id for c in setup.mods.monodromy.claim_suite()} == \
        set(workloads.EXPECTED_VERDICTS)


def test_untraced_run_prints_end_to_end_metrics(capsys):
    report, result = _result(capsys, ["--workload", "groups", "--seed", "0",
                                      "--seconds", "0", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.MIN_OPS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["groups_wrong"] == {"value": 0, "unit": "count"}
    assert report["groups_s"]["unit"] == "s"


def test_untraced_run_calibrates_every_operation(setup):
    handler = signal.getsignal(signal.SIGALRM)
    workload = workloads.Groups(setup, seed=0)
    workloads.measure(workload, 0, count=2)
    assert len(workload.cal) == len(workload.times) == 2
    assert all(c > 0 for c in workload.cal) and workload.sampler.slices
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_sampler_takes_slices_out_and_scales_by_those_around():
    sampler = calibration.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.slices = [0.1, 0.2, 0.4, 0.8]
    assert sampler.inside(0.5, 2.5) == pytest.approx(0.6)
    assert sampler.scale(1.0 + calibration.MARGIN, 2.0) == pytest.approx(0.3)
    assert math.isnan(sampler.scale(10.0, 11.0))


@pytest.mark.parametrize("workload", ["lines-solve", "groups"])
def test_traced_run_prints_per_layer_metrics(capsys, workload):
    report, result = _result(capsys, ["--workload", workload, "--seed", "1",
                                      "--seconds", "0", "--trace", "1"])
    units = {name: unit for name, unit, _ in tracing.per_layer_names()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    m = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(v for k, v in m.items() if k.startswith("self_s."))
    assert layers == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert all(m[f"self_s.{layer}"] >= 0 for layer in tracing.LAYERS)
    assert m["linesolver.collision_gap_calls"] == 0
    if workload == "groups":
        assert m["numeric.segments"] == 0 and m["perms.fingerprint_calls"] > 0
    else:
        assert m["numeric.segments"] >= 1 and m["linesolver.solve_attempts"] >= 1
    assert (ROOT / report["trace_file"]).is_file()


def test_loop_kind_classifier(setup):
    m = setup.mods
    s4, s3, g20 = m.forms.s4_family(), m.forms.s3_family(), m.forms.generic20_family()
    petals = m.tracker.petal_loops(s4, 0.6 + 0.8j)
    assert petals and {tracing.loop_kind(p) for p in petals} == {"petal"}
    bp = m.monodromy.default_basepoint("Generic20", 0)
    polygon = m.tracker.random_polygon_loop(g20, bp, seed=1)
    lasso = m.tracker.random_lasso_loop(g20, bp, seed=2)
    assert polygon.kind == lasso.kind == "random_polygon"
    assert tracing.loop_kind(polygon) == "polygon"
    assert tracing.loop_kind(lasso) == "lasso"
    assert tracing.loop_kind(polygon, flex=True) == "flex_polygon"
    assert tracing.loop_kind(lasso, flex=True) == "flex_lasso"
    twist = m.tracker.twisted_loop_for_action(
        s3, m.monodromy.default_basepoint("S3"), s3.twist_actions[0])
    assert tracing.loop_kind(twist) == "twist"


def test_traced_loops_are_attributed_by_kind(setup):
    m = setup.mods
    fam = m.forms.s3c2_family()
    bp = m.monodromy.default_basepoint("S3xC2")
    with tracing.Tracer(m) as tracer:
        with tracer.request():
            base = m.linesolver.solve_lines(fam.form_at(bp), seed=0)
            labeling = m.schlafli.label_lines(m.linesolver.incidence_graph(base.lines))
            loop = m.tracker.random_polygon_loop(fam, bp, seed=3)
            m.tracker.track_loop(loop, base, labeling)
            twist = m.tracker.twisted_loop_for_action(fam, bp, fam.twist_actions[0])
            m.tracker.track_twisted_loop(twist, base, labeling)
    root = tracer.spans[0]
    v = tracing.layer_metrics(tracer.spans, root[2] - root[1], 0.0, 0.0, [])
    assert v["tracker.polygon.loops"] == v["tracker.twist.loops"] == 1
    assert v["tracker.polygon.fail"] == v["tracker.twist.fail"] == 0
    loop_steps = v["tracker.polygon.steps"] + v["tracker.twist.steps"]
    assert 0 < loop_steps < v["numeric.steps"]  # the solve's segment belongs to no loop
    # loops check for collisions after every accepted step, the solve never does
    assert v["linesolver.collision_gap_calls"] == loop_steps
    segments = len(loop.waypoints) - 1 + len(twist.waypoints) - 1
    assert v["numeric.segments"] == 1 + segments
    assert v["linesolver.solve_attempts"] == base.path_failures + 1


def test_failure_string_parser():
    entries = [
        "random_polygon:12: PathTrackingError: step size underflow at t=0.5",
        "petal@-0.5: SheetCollisionError: sheet separation 1e-07 at t=0.3",
        "random_polygon:13: PathTrackingError: final Newton polish failed at t=1",
        "twist:zeta3: SolveError: no certified solve in 4 attempts: a: b",
        "random_polygon:14: KeyError: 'x'",
        "not a failure entry",
    ]
    assert tracing.failure_class(entries[3]) == "SolveError"
    assert tracing.failure_class(entries[4]) == "KeyError"
    assert tracing.failure_class(entries[5]) == "other"
    counts = tracing.failure_counts(entries)
    assert set(counts) == set(tracing.FAILURE_CLASSES)
    assert counts["PathTrackingError"] == 2
    assert counts["SheetCollisionError"] == 1
    assert counts["SolveError"] == 1
    assert counts["other"] == 2


def _package_bindings(mods):
    """Every module- and class-level binding the tracer could replace."""
    out = {}
    for modname, module in vars(mods).items():
        for attr, value in vars(module).items():
            out[(modname, attr)] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    out[(modname, attr, cattr)] = cvalue
    return out


def test_wrappers_restored_after_traced_run(setup):
    before = _package_bindings(setup.mods)
    assert not any(hasattr(v, "span_name") for v in before.values())
    workload = workloads.Groups(setup, seed=2)
    with tracing.Tracer(setup.mods) as tracer:
        assert setup.mods.tracker.track_segment is not before[("tracker", "track_segment")]
        assert setup.mods.monodromy.symmetry_permutation is not before[
            ("monodromy", "symmetry_permutation")]
        workloads.measure(workload, 0, count=1, tracer=tracer)
    assert workload.failed == 0
    assert len({s[4] for s in tracer.spans}) == 1
    after = _package_bindings(setup.mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_restored_after_exception(setup):
    before = _package_bindings(setup.mods)
    with pytest.raises(RuntimeError):
        with tracing.Tracer(setup.mods):
            raise RuntimeError("boom")
    after = _package_bindings(setup.mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
