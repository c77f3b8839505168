"""Set-up and the benchmark workloads.

Every workload is a sequence of operations ("requests") that depend only
on the workload seed and the operation index, so a traced run can replay
exactly the operations an untraced run timed.  Each operation is timed
around the calls into the program only; its outputs are checked after
the clock stops, and a wrong output counts as a failed operation.

The package is imported here, not at module level, because ``set_up``
times its import.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import scipy.optimize  # noqa: F401  third-party import cost is not the program's set-up

import calibration

PACKAGE = "cubicmonodromy"
MODULES = ("numeric", "forms", "perms", "schlafli", "linesolver", "surfaces",
           "tracker", "flexes", "monodromy")
SETUP_ROUNDS = 7
# A campaigns operation can outlast --seconds.  Two operations keep the
# reported time off a single sample, and keep a slow first operation from
# ending the run early.
MIN_OPS = 2
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# verify-all --budget 40: every claim passes except the two S3xC2 claims,
# whose order-12/144 targets are the documented paper error.
BUDGET = 40
EXPECTED_VERDICTS = {
    "W(E6)": True, "S4-coarse": True, "S4-stack": True,
    "S3-coarse": True, "S3-stack": True,
    "S3xC2-coarse": False, "S3xC2-stack": False,
    "C2-stack": True, "C2-coarse": True, "flexes": True,
}
# The fixed-length flex campaign of the campaigns workload: 12 loops, ASL2(F3).
FLEX_LOOPS = 12
FLEX_ORDER = 216
FLEX_KEY = "FlexP9"

# The exact answers of the C2-stack / C2-coarse certification for any
# tritangent triple: GO4+(3), PGO4+(3) and a non-split central extension.
STABILIZER_ORDER = 1152
QUOTIENT_ORDER = 576
QUOTIENT_ORACLE = "PGO4p3_model"
SPLIT_VERDICT = "nonsplit_by_order8"
REGEN_MAX_ELEMENTS = 32

SCHLAFLI_TRIANGLES = 45


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()  # drop the previous round's groups before the next is built


def set_up(rounds: int = SETUP_ROUNDS) -> SimpleNamespace:
    """Import the package and build what every run needs before timing.

    Set-up is the package import, W(E6), the tritangent triples, and the
    named oracle groups.  It is repeated ``rounds`` times from a cold
    package (modules dropped from ``sys.modules``, so the lru caches go
    with them); the last round's modules and objects are the ones the
    workloads use.  ``setup_s`` is the median round calibrated like an
    operation and given in seconds at ``calibration.SLICE_S`` per slice;
    ``setup_raw_s`` is the median round's wall time.
    """
    intervals, weyl_times = [], []
    with calibration.Sampler() as sampler:
        for _ in range(rounds):
            _purge_package()
            t0 = perf_counter()
            mods = SimpleNamespace(**{m: importlib.import_module(f"{PACKAGE}.{m}")
                                      for m in MODULES})
            t1 = perf_counter()
            weyl = mods.schlafli.weyl_e6()
            t2 = perf_counter()
            triples = mods.schlafli.tritangent_triples()
            oracles = {n: mods.perms.named_group(n) for n in mods.perms.NAMED_GROUPS}
            intervals.append((t0, perf_counter()))
            weyl_times.append(t2 - t1)
    raw, cal = sampler.calibrate(intervals)
    return SimpleNamespace(
        mods=mods, weyl=weyl, triples=triples, oracles=oracles,
        setup_s=statistics.median(cal) * calibration.SLICE_S,
        setup_raw_s=statistics.median(raw),
        weyl_e6_s=statistics.median(weyl_times),
    )


def _record(workload, t0: float) -> None:
    """End the timing of an operation that started at ``t0``."""
    t1 = perf_counter()
    workload.intervals.append((t0, t1))
    workload.times.append(t1 - t0)


def _sub_seed(seed: int, k: int, salt: int) -> int:
    return (seed * 1_000_003 + k * 7919 + salt) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# claim-suite
# ---------------------------------------------------------------------------


def perm_digests(result: dict) -> dict[str, str]:
    """One digest per campaign of its tracked permutations, in loop order."""
    out = {}
    for key, report in sorted(result["reports"].items()):
        perms = [t["perm"] for t in report["tracked"]]
        blob = json.dumps(perms, separators=(",", ":")).encode()
        out[key] = hashlib.sha256(blob).hexdigest()[:16]
    return out


def load_reference(workload: str) -> dict:
    """Recorded permutation digests of one workload, keyed by suite seed."""
    if not REFERENCE_FILE.is_file():
        return {}
    data = json.loads(REFERENCE_FILE.read_text())
    if data.get("budget") != BUDGET:
        raise ValueError(f"{REFERENCE_FILE.name} was recorded at another budget")
    return data.get(workload, {})


class ClaimSuite:
    """One full ``verify-all --budget 40`` per operation, in process.

    Operation ``k`` runs the suite at seed ``S + k``.  Every claim runs:
    ``run_claim_suite(claims=[...])`` seeds each campaign by its index in
    the filtered list, so a subset would run other campaigns.
    """

    name = "claim-suite"
    claims: tuple[str, ...] | None = None

    def __init__(self, setup: SimpleNamespace, seed: int, reference: dict | None = None):
        self.setup = setup
        self.seed = seed
        self.expected = {c: EXPECTED_VERDICTS[c] for c in (self.claims or EXPECTED_VERDICTS)}
        self.reference = load_reference(self.name) if reference is None else reference
        self.results: list[dict] = []
        self.times: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong_verdicts = 0
        self.perm_mismatches = 0
        self.perm_checked = 0
        self.loops = 0
        self.loop_failures = 0

    def run_one(self, k: int) -> None:
        mono = self.setup.mods.monodromy
        t0 = perf_counter()
        try:
            result = self._run(self.seed + k)
        except mono.CampaignError:
            result = None
        _record(self, t0)
        if result is None:  # no verdicts at all: every claim is wrong
            self.attempted += len(self.expected)
            self.wrong_verdicts += len(self.expected)
            self.failed += len(self.expected)
            return
        self.results.append(result)
        self._check(result, self.reference.get(str(self.seed + k)))

    def _run(self, seed: int) -> dict:
        claims = list(self.claims) if self.claims else None
        result = self.setup.mods.monodromy.run_claim_suite(budget=BUDGET, seed=seed,
                                                           claims=claims)
        json.dumps(result, indent=2, sort_keys=True)  # the certificate verify-all prints
        return result

    def _check(self, result: dict, reference: dict | None) -> None:
        got = {v["claim_id"]: v["passed"] for v in result["verdicts"]}
        wrong = sum(got.get(cid) != want for cid, want in self.expected.items())
        wrong += len(set(got) - set(self.expected))
        self.attempted += len(self.expected)
        self.wrong_verdicts += wrong
        self.failed += wrong
        if reference is not None:
            digests = perm_digests(result)
            keys = set(digests) | set(reference)
            bad = sum(digests.get(k) != reference.get(k) for k in keys)
            self.attempted += len(keys)
            self.perm_checked += 1
            self.perm_mismatches += bad
            self.failed += bad
        for report in result["reports"].values():
            self.loops += len(report["tracked"]) + len(report["loop_failures"])
            self.loop_failures += len(report["loop_failures"])

    def report(self) -> dict:
        return {
            "suite_s": (statistics.median(self.times), "s"),
            "wrong_verdicts": (self.wrong_verdicts, "count"),
            "perm_mismatches": (self.perm_mismatches, "count"),
            "loop_fail_ratio": (self.loop_failures / max(self.loops, 1), "ratio"),
            "perm_checked_ops": (self.perm_checked, "count"),
        }


class Campaigns(ClaimSuite):
    """The campaigns of four claims and the flexes claim, at fixed work.

    ``verify-all --claims S4-coarse,S4-stack,S3xC2-coarse,S3xC2-stack``: the
    S4 and S3xC2 petals and twist generate the whole coarse group, so the
    plateau rule stops both campaigns after 12 loops at every seed.  Then
    the first ``FLEX_LOOPS`` loops of the campaign that ``verify-all`` runs
    for the flexes claim (its basepoint and seed, as the fifth claim of the
    list).  Run to its plateau, that campaign stops after 12 to 21 loops,
    which spreads a run's time by the seed; the group stops growing 10
    loops before, so its first 12 loops already generate ASL2(F3).
    """

    name = "campaigns"
    claims = ("S4-coarse", "S4-stack", "S3xC2-coarse", "S3xC2-stack")

    def _run(self, seed: int) -> dict:
        result = super()._run(seed)
        report = self.flex_campaign(seed)
        flex = report.to_json()
        json.dumps(flex, indent=2, sort_keys=True)
        result["reports"][FLEX_KEY] = flex
        result["flex_order"] = report.group.order
        return result

    def flex_campaign(self, seed: int):
        m = self.setup.mods
        campaign = m.monodromy.Campaign(
            family=m.flexes.flexp9_family(),
            basepoint=m.monodromy.default_basepoint(FLEX_KEY, seed),
            loop_budget=FLEX_LOOPS,
            seed=(seed * 1009 + len(self.claims)) & 0x7FFFFFFF,
        )
        return m.monodromy.run_campaign(campaign)

    def _check(self, result: dict, reference: dict | None) -> None:
        super()._check(result, reference)
        wrong = result["flex_order"] != FLEX_ORDER
        self.attempted += 1
        self.wrong_verdicts += wrong
        self.failed += wrong


# ---------------------------------------------------------------------------
# lines-solve
# ---------------------------------------------------------------------------


class LinesSolve:
    """Random cubics through solve_lines, incidence_graph and label_lines."""

    name = "lines-solve"

    def __init__(self, setup: SimpleNamespace, seed: int):
        self.setup = setup
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._forms: list = []
        self.times: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.solve_attempts = 0
        self.failed_attempts = 0
        m = setup.mods
        self._max_attempts = inspect.signature(
            m.linesolver.solve_lines).parameters["attempts"].default
        self._canonical = m.schlafli.canonical_incidence().adjacency
        self._errors = (m.linesolver.SolveError, m.linesolver.MeetAmbiguityError,
                        m.schlafli.LabelingError)

    def form(self, k: int):
        while len(self._forms) <= k:
            self._forms.append(self.setup.mods.forms.random_cubic(self._rng))
        return self._forms[k]

    def run_one(self, k: int) -> None:
        m = self.setup.mods
        form = self.form(k)
        rep = adj = labeling = None
        t0 = perf_counter()
        try:
            rep = m.linesolver.solve_lines(form, seed=_sub_seed(self.seed, k, 11))
            adj = m.linesolver.incidence_graph(rep.lines)
            labeling = m.schlafli.label_lines(adj)
        except self._errors:
            pass
        _record(self, t0)
        self.attempted += 1
        if rep is None:  # every solve attempt failed
            self.failed += 1
            self.solve_attempts += self._max_attempts
            self.failed_attempts += self._max_attempts
            return
        self.solve_attempts += rep.path_failures + 1
        self.failed_attempts += rep.path_failures
        if labeling is None or not self._correct(rep, adj, labeling):
            self.failed += 1
            self.failed_attempts += 1

    def _correct(self, rep, adj, labeling) -> bool:
        ai = adj.astype(np.int64)
        lab = np.array(labeling.assignment)
        return (len(rep.lines) == 27
                and rep.max_residual < self.setup.mods.linesolver.RESIDUAL_TOL
                and int(np.trace(ai @ ai @ ai)) // 6 == SCHLAFLI_TRIANGLES
                and sorted(labeling.assignment) == list(range(27))
                and np.array_equal(self._canonical[np.ix_(lab, lab)], adj))

    def report(self) -> dict:
        return {
            "solves_per_s": (len(self.times) / sum(self.times), "1/s"),
            "solve_p50_ms": (1e3 * statistics.median(self.times), "ms"),
            "solve_fail_ratio": (self.failed_attempts / max(self.solve_attempts, 1), "ratio"),
        }


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


class Groups:
    """The exact-group certification of the C2-stack and C2-coarse claims."""

    name = "groups"

    def __init__(self, setup: SimpleNamespace, seed: int):
        self.setup = setup
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._picks: list[int] = []
        self.times: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0

    def triple(self, k: int) -> tuple[int, int, int]:
        while len(self._picks) <= k:
            self._picks.append(int(self._rng.integers(len(self.setup.triples))))
        return self.setup.triples[self._picks[k]]

    def run_one(self, k: int) -> None:
        P = self.setup.mods.perms
        triple = self.triple(k)
        rng = np.random.default_rng(_sub_seed(self.seed, k, 23))
        t0 = perf_counter()
        try:
            ok = self._certify(P, triple, rng)
        except P.GroupError:
            ok = False
        _record(self, t0)
        self.attempted += 1
        self.failed += not ok

    def _certify(self, P, triple, rng) -> bool:
        """What C2-stack and C2-coarse compute, and whether it is right."""
        stab = P.set_stabilizer(self.setup.weyl, triple)
        gens = []
        while len(gens) < REGEN_MAX_ELEMENTS and (
                not gens or P.bsgs_order(gens, stab.degree) < stab.order):
            gens.append(stab.random_element(rng))
        regen = P.generate_group(gens)
        big_fp = P.fingerprint(regen)
        center = P.centralizer(regen, regen)
        z = next((g for g in center.elements() if g.order() == 2), None)
        if z is None:
            return False
        quotient = P.quotient_group(regen, P.generate_group([z], degree=regen.degree))
        # evaluate_claim fingerprints the quotient twice: oracle match, order 8
        matches = P.fingerprint(quotient) == P.fingerprint(self.setup.oracles[QUOTIENT_ORACLE])
        no8 = not P.fingerprint(quotient).has_element_of_order(8)
        split = P.split_central_extension_check(regen, z)
        return (stab.order == STABILIZER_ORDER and regen.same_elements(stab)
                and center.order == 2 and quotient.order == QUOTIENT_ORDER
                and matches and no8 and big_fp.has_element_of_order(8)
                and split == SPLIT_VERDICT)

    def report(self) -> dict:
        return {
            "groups_s": (statistics.median(self.times), "s"),
            "groups_wrong": (self.failed, "count"),
        }


WORKLOADS = {w.name: w for w in (Campaigns, LinesSolve, Groups, ClaimSuite)}


def measure(workload, seconds: float, count: int | None = None,
            tracer=None) -> float:
    """Run operations for ``seconds`` and at least ``MIN_OPS``, or exactly ``count``.

    With a tracer, each operation is one traced request.  Without one, a
    ``calibration.Sampler`` runs meanwhile: the reference slices inside an
    operation are taken out of its time, and ``workload.cal`` holds each
    operation's time over the mean slice time around it.  Returns the wall
    time of the operations and their checks, without the slices.
    """
    sampler = calibration.Sampler() if tracer is None else None
    start = perf_counter()
    with sampler or contextlib.nullcontext():
        k = 0
        while (k < count) if count is not None else (
                k < MIN_OPS or perf_counter() - start < seconds):
            if tracer is None:
                workload.run_one(k)
            else:
                with tracer.request():
                    workload.run_one(k)
            k += 1
    wall = perf_counter() - start
    if sampler is None:
        return wall
    workload.times, workload.cal = sampler.calibrate(workload.intervals)
    workload.sampler = sampler
    return wall - sum(sampler.slices)
