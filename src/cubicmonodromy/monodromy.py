"""Campaign orchestration, group assembly, and claim verdicts.

A campaign solves a family member once, then tracks loops - petals at
known punctures, twisted loops when the family has a residual parameter
symmetry, and random polygon/lasso loops - until the generated group
order is stable for ten consecutive loops or the budget runs out.  Loops
of at most ``numeric.LANE_SHEETS`` sheets in all (4 line loops, or up to
10 flex loops) are tracked at once, as lanes of one batch of
chart-system evaluations; their results are used in stream order, and a
loop starts only once no stop can come before it, so the groups, the
failures and the stop are those of tracking the loops one by one.  The tracked group,
built on the stabilizer chain that the stop rule completed, is the
coarse-monodromy surrogate; joined with the deck group (the symmetry
action on the lines) it surrogates the stack monodromy.  Claims pair
campaign outputs with oracle groups and subgroup-equality targets inside
W(E6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import flexes as fx
from . import linesolver as ls
from . import perms, schlafli, tracker
from .forms import FamilySpec, get_family
from .numeric import LANE_SHEETS, step_paths
from .perms import PermGroup, Permutation
from .surfaces import symmetry_permutation

PLATEAU = 10


class CampaignError(RuntimeError):
    """The campaign could not produce a usable base solve or group."""


@dataclass(frozen=True)
class Campaign:
    family: FamilySpec
    basepoint: np.ndarray
    loop_budget: int = 40
    seed: int = 0
    include_twists: bool = True

    def __post_init__(self):
        if self.loop_budget < 1:
            raise CampaignError("loop_budget must be at least 1")
        object.__setattr__(self, "basepoint",
                           np.atleast_1d(np.asarray(self.basepoint, dtype=complex)))


def default_basepoint(name: str, seed: int = 0) -> np.ndarray:
    """A regular, asymmetric basepoint for each family."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    fixed = {
        "S4": np.array([0.6 + 0.8j]),
        "S3": np.array([1.0 + 0.3j, -0.7 + 0.6j]),
        "S3xC2": np.array([0.5 + 0.4j]),
    }
    if name in fixed:
        return fixed[name]
    n = family_for(name).parameter_dim
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@dataclass
class MonodromyReport:
    """Loops used, permutations obtained, groups generated, verdicts."""

    family: str
    basepoint: np.ndarray
    seed: int
    tracked: list[tracker.TrackedPermutation]
    group: PermGroup
    deck_group: PermGroup | None
    combined_group: PermGroup | None
    labeling: schlafli.SchlafliLabeling | None
    plateau_reached: bool
    loop_failures: list[str]
    marked_triple: tuple[int, int, int] | None = None
    fingerprints: dict = field(default_factory=dict)
    verdicts: list[dict] = field(default_factory=list)
    hesse_triples: list[tuple[int, int, int]] | None = None  # the flex base's collinear triples

    def to_json(self) -> dict:
        return {
            "schema": "cubicmonodromy/report/1",
            "family": self.family,
            "basepoint": [[c.real, c.imag] for c in self.basepoint],
            "seed": self.seed,
            "tracked": [t.to_json() for t in self.tracked],
            "group": self.group.to_json(),
            "deck_group": self.deck_group.to_json() if self.deck_group else None,
            "combined_group": self.combined_group.to_json() if self.combined_group else None,
            "labeling": self.labeling.to_json() if self.labeling else None,
            "plateau_reached": self.plateau_reached,
            "loop_failures": self.loop_failures,
            "marked_triple": list(self.marked_triple) if self.marked_triple else None,
            "fingerprints": {k: v.to_json() for k, v in self.fingerprints.items()},
            "verdicts": self.verdicts,
            "hesse_triples": (None if self.hesse_triples is None
                              else [list(t) for t in self.hesse_triples]),
        }


def _accumulate(degree: int, loop_stream, budget: int, mandatory: int):
    """Track loops from the stream until plateau or budget, several at once.

    ``loop_stream`` yields (description, thunk) pairs; a thunk returns a
    ``tracker.LoopRun`` or raises.  Loop i (counted from 1) starts only
    when no stop can come before it: i <= budget and i <= max(c + PLATEAU
    - s, mandatory + 1), where c is the last loop committed in stream
    order and s its stable count.  At most ``LANE_SHEETS // degree`` loops
    (at least one) are in flight: 4 line loops; for flex loops the start
    rule binds first, at PLATEAU - s once no mandatory loop is left (a
    flex campaign has none).  Results commit in stream order, so the
    chain, the failures and the stop are those of one loop at a time, and
    no loop past the stop is tracked.  Returns (tracked list, failures,
    plateau_reached, chain), the chain extended by every tracked
    permutation in order.
    """
    in_flight = max(1, LANE_SHEETS // degree)
    chain = perms.StabilizerChain(degree)
    tracked: list[tracker.TrackedPermutation] = []
    failures: list[str] = []
    stable = committed = started = 0
    lanes = []  # (index, description, run, path) of the loops in flight
    ended: dict[int, tuple[str, object]] = {}  # index -> (description, result or exception)
    loops = iter(loop_stream)
    while True:
        while committed + 1 in ended:
            committed += 1
            desc, out = ended.pop(committed)
            if isinstance(out, Exception):  # recorded, loop retried by the stream
                failures.append(f"{desc}: {type(out).__name__}: {out}")
                continue
            tracked.append(out)
            grew = chain.extend(np.array(out.perm.images))
            stable = 0 if grew else stable + 1
            if committed > mandatory and stable >= PLATEAU:
                return tracked, failures, True, chain
        reach = min(budget, max(committed + PLATEAU - stable, mandatory + 1))
        while len(lanes) < in_flight and started < reach:
            item = next(loops, None)
            if item is None:  # the stream has ended: no loop past this one
                budget = started
                break
            started += 1
            desc, thunk = item
            try:
                run = thunk()
            except Exception as exc:
                ended[started] = (desc, exc)
                continue
            lanes.append((started, desc, run, run.path()))
        if not lanes:
            if committed + 1 in ended:
                continue
            return tracked, failures, False, chain
        step_paths([lane[3] for lane in lanes])
        for index, desc, run, path in lanes:
            if not path.done:
                continue
            try:
                if path.error is not None:
                    raise path.error
                ended[index] = (desc, run.finish(path.state, path.telemetry))
            except Exception as exc:
                ended[index] = (desc, exc)
        lanes = [lane for lane in lanes if not lane[3].done]


def run_campaign(c: Campaign) -> MonodromyReport:
    """Solve the basepoint, track loops, and assemble the groups.

    The fibre is the 27 lines, or the 9 flexes for a family of degree 9.
    Only the base solve and the loop tracker differ between the two
    covers; a flex family has no petals, twists or deck.
    """
    form = c.family.form_at(c.basepoint)
    hesse_triples = None
    if c.family.degree == 9:
        base = fx.solve_flexes(form, seed=c.seed)
        hesse_triples = fx.collinear_triples(base.points)
        fx.check_hesse_configuration(hesse_triples)
        labeling = None
        seed_step = 99991

        def track(loop, seed):
            return fx.flex_loop_run(loop, base, frame_seed=seed)
    else:
        base = ls.solve_lines(form, seed=c.seed)
        labeling = schlafli.label_lines(ls.incidence_graph(base.lines))
        seed_step = 100003

        def track(loop, seed):
            return tracker.loop_run(loop, base, labeling)

    deck_group = None
    deck_perms: list[Permutation] = []
    if c.family.symmetry_generators:
        deck_perms = [symmetry_permutation(m, base.lines, labeling, form=form)
                      for m in c.family.symmetry_generators]
        deck_group = perms.generate_group(deck_perms)

    mandatory: list[tuple[str, object]] = []
    if c.family.parameter_dim == 1 and c.family.known_punctures:
        for petal in tracker.petal_loops(c.family, c.basepoint[0]):
            mandatory.append((
                f"petal@{petal.detail['puncture']:.4g}",
                (lambda p=petal: tracker.loop_run(p, base, labeling)),
            ))
    if c.include_twists:
        for action in c.family.twist_actions:
            spec = tracker.twisted_loop_for_action(c.family, c.basepoint, action)
            mandatory.append((
                f"twist:{action.name}",
                (lambda s=spec: tracker.loop_run(s, base, labeling)),
            ))

    def stream():
        yield from mandatory
        k = 0
        while True:
            seed = (c.seed * seed_step + k) & 0x7FFFFFFF
            if k % 2 == 0:
                loop = tracker.random_polygon_loop(c.family, c.basepoint, seed=seed)
            else:
                loop = tracker.random_lasso_loop(c.family, c.basepoint, seed=seed)
            yield (f"{loop.kind}:{seed}", (lambda l=loop, s=seed: track(l, s)))
            k += 1

    tracked, failures, plateau, chain = _accumulate(c.family.degree, stream(),
                                                    c.loop_budget, len(mandatory))
    if not tracked:
        raise CampaignError(f"no loop tracked successfully: {failures}")
    gens = [tp.perm for tp in tracked]
    if labeling is not None and not all(map(schlafli.is_graph_automorphism, gens)):
        raise CampaignError("a tracked permutation broke the incidence structure")
    group = perms.chain_group(chain, gens)
    combined = None
    if deck_group is not None:
        for g in gens:
            for d in deck_perms:
                if perms.compose(g, d) != perms.compose(d, g):
                    raise CampaignError("tracked generator does not centralize the deck")
        combined = perms.generate_group(gens + deck_perms)

    report = MonodromyReport(
        family=c.family.name, basepoint=c.basepoint, seed=c.seed,
        tracked=tracked, group=group, deck_group=deck_group,
        combined_group=combined, labeling=labeling, plateau_reached=plateau,
        loop_failures=failures, marked_triple=_marked_triple(c, base, labeling),
        hesse_triples=hesse_triples,
    )
    report.fingerprints["tracked"] = perms.fingerprint(group)
    if deck_group is not None:
        report.fingerprints["deck"] = perms.fingerprint(deck_group)
        report.fingerprints["combined"] = perms.fingerprint(combined)
    return report


def _marked_triple(c: Campaign, base: ls.SolveReport,
                   labeling: schlafli.SchlafliLabeling) -> tuple[int, int, int] | None:
    """For the even family: canonical labels of the lines through [1:0:0:0]."""
    if c.family.name != "C2even":
        return None
    e = np.array([1, 0, 0, 0], dtype=complex)
    slots = [i for i, l in enumerate(base.lines) if ls.line_contains_point(l, e)]
    if len(slots) != 3:
        raise CampaignError(
            f"expected 3 lines through the marked Eckardt point, found {len(slots)}")
    return tuple(sorted(labeling.assignment[i] for i in slots))


# ---------------------------------------------------------------------------
# Exact-sequence structure reports
# ---------------------------------------------------------------------------


@dataclass
class ExactSequenceReport:
    combined_order: int
    deck_order: int
    deck_normal: bool
    quotient_order: int | None
    split: str  # "direct_product" | "split" | "nonsplit_by_order8" | "inconclusive" | "not_normal"
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "combined_order": self.combined_order,
            "deck_order": self.deck_order,
            "deck_normal": self.deck_normal,
            "quotient_order": self.quotient_order,
            "split": self.split,
            "detail": self.detail,
        }


def exact_sequence_report(combined: PermGroup, deck: PermGroup,
                          tracked: PermGroup | None = None) -> ExactSequenceReport:
    """Structure of 1 -> deck -> combined -> quotient -> 1.

    Splitting is tested as a direct product with the tracked group as the
    candidate complement; a deck of order 2 additionally runs the central
    extension check (order-8 obstruction plus exhaustive complement
    search through the abelianization).
    """
    if not perms.normalizes(combined, deck):
        return ExactSequenceReport(combined.order, deck.order, False, None,
                                   "not_normal", "deck is not normal in combined")
    quotient = perms.quotient_group(combined, deck)
    split = "inconclusive"
    detail = ""
    if tracked is not None and tracked.order * deck.order == combined.order:
        rows = deck.element_array()
        nontrivial = rows[np.any(rows != np.arange(deck.degree), axis=1)]
        trivial_meet = not np.any(tracked.locate(nontrivial) >= 0)
        if trivial_meet and perms.normalizes(combined, tracked):
            split = "direct_product"
            detail = "combined = deck x tracked"
    if split == "inconclusive" and deck.order == 2:
        z = next(g for g in deck.generators if g.order() == 2)
        central = all(perms.compose(g, z) == perms.compose(z, g)
                      for g in combined.generators)
        if central:
            split = perms.split_central_extension_check(combined, z)
            detail = f"central extension check: {split}"
    return ExactSequenceReport(combined.order, deck.order, True, quotient.order,
                               split, detail)


# ---------------------------------------------------------------------------
# The claim table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One paper claim: a campaign configuration plus verification targets."""

    claim_id: str
    description: str
    family: str
    target: str  # "tracked" | "combined" | "quotient_by_deck"
    target_order: int
    fingerprint_oracle: str | None = None  # named_group name
    subgroup_target: str | None = None  # "weyl" | "marked_tritangent_stabilizer" | "asl2f3"
    include_twists: bool = False
    expect_quotient_order: int | None = None
    expect_split: str | None = None
    expect_no_order8_in_quotient: bool = False

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in (
            "claim_id", "description", "family", "target", "target_order",
            "fingerprint_oracle", "subgroup_target", "include_twists",
            "expect_quotient_order", "expect_split",
            "expect_no_order8_in_quotient")}


def claim_suite() -> list[Claim]:
    """The machine-readable table of monodromy claims."""
    return [
        Claim("W(E6)", "generic 27-lines monodromy is W(E6), order 51840",
              "Generic20", "tracked", 51840, subgroup_target="weyl"),
        Claim("S4-coarse", "S4 family coarse monodromy is C2xC2",
              "S4", "tracked", 4, fingerprint_oracle="C2xC2"),
        Claim("S4-stack", "S4 family stack monodromy is S4xC2xC2, split",
              "S4", "combined", 96, fingerprint_oracle="S4xC2xC2",
              expect_quotient_order=4, expect_split="direct_product"),
        Claim("S3-coarse", "S3 family coarse monodromy is S3xS3",
              "S3", "tracked", 36, fingerprint_oracle="S3xS3",
              include_twists=True),
        Claim("S3-stack", "S3 family stack monodromy is S3xS3xS3, split",
              "S3", "combined", 216, fingerprint_oracle="S3xS3xS3",
              include_twists=True, expect_quotient_order=36,
              expect_split="direct_product"),
        Claim("S3xC2-coarse", "S3xC2 family coarse monodromy is S3xC2",
              "S3xC2", "tracked", 12, fingerprint_oracle="S3xC2",
              include_twists=True),
        Claim("S3xC2-stack", "S3xC2 family stack monodromy is (S3xC2)^2",
              "S3xC2", "combined", 144, fingerprint_oracle="S3xC2_sq",
              include_twists=True, expect_quotient_order=12,
              expect_split="direct_product"),
        Claim("C2-stack", "even family monodromy is the full tritangent stabilizer GO4+(3)",
              "C2even", "tracked", 1152,
              subgroup_target="marked_tritangent_stabilizer"),
        Claim("C2-coarse", "quotient by the central involution is PGO4+(3), non-split",
              "C2even", "quotient_by_deck", 576,
              fingerprint_oracle="PGO4p3_model",
              expect_split="nonsplit_by_order8",
              expect_no_order8_in_quotient=True),
        Claim("flexes", "flex monodromy is ASL2(F3) of order 216",
              "FlexP9", "tracked", 216, subgroup_target="asl2f3"),
    ]


def family_for(name: str) -> FamilySpec:
    """The family of that name: a 27-line family, or the flex family."""
    if name == "FlexP9":
        return fx.flexp9_family()
    return get_family(name)


def requested_claims(claims: list[str] | None) -> list[Claim]:
    """The claims of the suite with these ids, in suite order (all for None)."""
    suite = claim_suite()
    if not claims:
        return suite
    wanted = set(claims)
    unknown = wanted - {c.claim_id for c in suite}
    if unknown:
        raise CampaignError(f"unknown claims: {sorted(unknown)}")
    return [c for c in suite if c.claim_id in wanted]


def run_claim_suite(budget: int = 40, seed: int = 0,
                    claims: list[str] | None = None) -> dict:
    """Run every requested claim; campaigns are shared between claims.

    Each new campaign is seeded by its claim's index in the requested list.
    """
    suite = requested_claims(claims)
    reports: dict[tuple[str, bool], MonodromyReport] = {}
    verdicts = []
    for idx, claim in enumerate(suite):
        key = (claim.family, claim.include_twists)
        if key not in reports:
            family = family_for(claim.family)
            campaign = Campaign(
                family=family,
                basepoint=default_basepoint(claim.family, seed),
                loop_budget=budget,
                seed=(seed * 1009 + idx) & 0x7FFFFFFF,
                include_twists=claim.include_twists,
            )
            reports[key] = run_campaign(campaign)
        verdicts.append(evaluate_claim(claim, reports[key]))
    all_pass = all(v["passed"] for v in verdicts)
    return {
        "schema": "cubicmonodromy/claims/1",
        "budget": budget,
        "seed": seed,
        "verdicts": verdicts,
        "all_passed": all_pass,
        "reports": {f"{k[0]}" + ("+twists" if k[1] else ""): r.to_json()
                    for k, r in reports.items()},
    }


def evaluate_claim(claim: Claim, report: MonodromyReport) -> dict:
    """Judge one claim against a campaign report."""
    detail: dict = {"plateau_reached": report.plateau_reached}
    if not report.plateau_reached:
        return {"claim_id": claim.claim_id, "passed": False,
                "verdict": "inconclusive",
                "detail": {"reason": "group order did not plateau within budget"}}
    group = _target_group(claim, report, detail)
    passed = group.order == claim.target_order
    detail["order"] = group.order
    detail["target_order"] = claim.target_order
    if claim.fingerprint_oracle:
        oracle = perms.named_group(claim.fingerprint_oracle)
        match = perms.fingerprint(group) == perms.fingerprint(oracle)
        detail["fingerprint_matches"] = match
        passed = passed and match
    if claim.subgroup_target:
        ok = _check_subgroup_target(claim, report, group, detail)
        passed = passed and ok
    if claim.expect_quotient_order is not None or claim.expect_split is not None:
        ok = _check_exact_sequence(claim, report, detail)
        passed = passed and ok
    if claim.expect_no_order8_in_quotient:
        fp = perms.fingerprint(group)
        big_fp = report.fingerprints["tracked"]
        no8 = not fp.has_element_of_order(8)
        has8 = big_fp.has_element_of_order(8)
        detail["quotient_has_order8"] = not no8
        detail["big_has_order8"] = has8
        passed = passed and no8 and has8
    return {"claim_id": claim.claim_id, "passed": bool(passed),
            "verdict": "pass" if passed else "fail", "detail": detail}


def _target_group(claim: Claim, report: MonodromyReport, detail: dict) -> PermGroup:
    if claim.target == "tracked":
        return report.group
    if claim.target == "combined":
        if report.combined_group is None:
            raise CampaignError("claim needs a combined group but none was built")
        return report.combined_group
    if claim.target == "quotient_by_deck":
        if report.deck_group is None:
            raise CampaignError("claim needs a deck group but none was built")
        return perms.quotient_group(report.group, report.deck_group)
    raise CampaignError(f"unknown claim target {claim.target!r}")


def _check_subgroup_target(claim: Claim, report: MonodromyReport,
                           group: PermGroup, detail: dict) -> bool:
    if claim.subgroup_target == "weyl":
        ok = group.same_elements(schlafli.weyl_e6())
        detail["equals_weyl_e6"] = ok
        return ok
    if claim.subgroup_target == "marked_tritangent_stabilizer":
        stab = perms.set_stabilizer(schlafli.weyl_e6(), report.marked_triple)
        ok = group.same_elements(stab)
        detail["marked_triple"] = [schlafli.LABEL_NAMES[i] for i in report.marked_triple]
        detail["equals_marked_stabilizer"] = ok
        detail["stabilizer_order"] = stab.order
        return ok
    if claim.subgroup_target == "asl2f3":
        return _check_asl_equality(report, group, detail)
    raise CampaignError(f"unknown subgroup target {claim.subgroup_target!r}")


def _check_asl_equality(report: MonodromyReport, group: PermGroup,
                        detail: dict) -> bool:
    triples = report.hesse_triples
    fx.check_hesse_configuration(triples)
    tset = [frozenset(t) for t in triples]
    preserved = all(
        frozenset(tp.perm.images[i] for i in t) in tset
        for tp in report.tracked for t in tset
    )
    detail["collinearity_preserved"] = preserved
    if not preserved:
        return False
    oracle = perms.named_group("ASL2F3")
    for coords in fx.f3_coordinate_bijections(triples):
        moved = [fx.permutation_in_f3_coordinates(g, coords)
                 for g in group.generators]
        image = perms.generate_group(moved)
        if image.same_elements(oracle):
            detail["asl_equality"] = True
            detail["bijection"] = {str(k): list(v) for k, v in sorted(coords.items())}
            return True
    detail["asl_equality"] = False
    return False


def _check_exact_sequence(claim: Claim, report: MonodromyReport,
                          detail: dict) -> bool:
    seq = exact_sequence_report(report.combined_group, report.deck_group,
                                tracked=report.group)
    detail["exact_sequence"] = seq.to_json()
    ok = seq.deck_normal
    if claim.expect_quotient_order is not None:
        ok = ok and seq.quotient_order == claim.expect_quotient_order
    if claim.expect_split is not None:
        ok = ok and seq.split == claim.expect_split
    return ok
