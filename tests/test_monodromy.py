"""Campaign assembly, exact-sequence reports, claim table."""

import hashlib
import json

import numpy as np
import pytest

from cubicmonodromy import flexes as FX
from cubicmonodromy import forms as F
from cubicmonodromy import monodromy as M
from cubicmonodromy import perms as P
from cubicmonodromy import schlafli as S
from cubicmonodromy import tracker as T


def test_claim_suite_table():
    suite = M.claim_suite()
    ids = [c.claim_id for c in suite]
    assert ids == ["W(E6)", "S4-coarse", "S4-stack", "S3-coarse", "S3-stack",
                   "S3xC2-coarse", "S3xC2-stack", "C2-stack", "C2-coarse",
                   "flexes"]
    orders = sorted(c.target_order for c in suite)
    assert orders == sorted([51840, 4, 96, 36, 216, 12, 144, 1152, 576, 216])
    for claim in suite:
        data = claim.to_json()
        assert data["claim_id"] == claim.claim_id


def test_claims_s3_coarse_and_s3xc2_coarse_targets():
    by_id = {c.claim_id: c for c in M.claim_suite()}
    assert by_id["S3-coarse"].target_order == 36
    assert by_id["S3-coarse"].fingerprint_oracle == "S3xS3"
    assert by_id["S3xC2-coarse"].target_order == 12
    assert by_id["W(E6)"].target_order == 51840


def test_campaign_requires_positive_budget():
    with pytest.raises(M.CampaignError):
        M.Campaign(family=F.s4_family(), basepoint=[0.6 + 0.8j], loop_budget=0)


def test_exact_sequence_direct_product_oracle():
    big = P.named_group("S4xC2xC2")
    deck_gens = [g for g in big.generators[:2]]  # the S4 part on points 0..3
    deck = P.generate_group(deck_gens, degree=8)
    assert deck.order == 24
    tracked = P.generate_group(big.generators[2:], degree=8)
    seq = M.exact_sequence_report(big, deck, tracked=tracked)
    assert seq.deck_normal
    assert seq.quotient_order == 4
    assert seq.split == "direct_product"


def test_exact_sequence_trivial_quotient():
    g = P.named_group("S4")
    seq = M.exact_sequence_report(g, g, tracked=P.generate_group([], degree=4))
    assert seq.deck_normal and seq.quotient_order == 1


def test_exact_sequence_nonsplit_central():
    w = S.weyl_e6()
    go = P.set_stabilizer(w, S.tritangent_triples()[0])
    center = P.centralizer(go, go)
    zsub = P.generate_group(
        [next(g for g in center.elements() if g.order() == 2)], degree=27)
    seq = M.exact_sequence_report(go, zsub, tracked=go)
    assert seq.deck_normal
    assert seq.quotient_order == 576
    assert seq.split == "nonsplit_by_order8"


def test_exact_sequence_detects_non_normal():
    s4 = P.named_group("S4")
    sub = P.generate_group([P.from_cycles(4, [(0, 1)])])
    seq = M.exact_sequence_report(s4, sub)
    assert not seq.deck_normal and seq.split == "not_normal"


@pytest.fixture(scope="module")
def s4_report():
    campaign = M.Campaign(family=F.s4_family(),
                          basepoint=M.default_basepoint("S4", 0),
                          loop_budget=16, seed=3)
    return M.run_campaign(campaign)


def test_s4_campaign_groups(s4_report):
    assert s4_report.group.order == 4
    assert s4_report.deck_group.order == 24
    assert s4_report.combined_group.order == 96
    assert s4_report.plateau_reached


def test_s4_campaign_membership_invariants(s4_report):
    # every tracked generator lies in W(E6) and centralizes the deck
    for tp in s4_report.tracked:
        assert S.is_graph_automorphism(tp.perm)
        for d in s4_report.deck_group.generators:
            assert P.compose(tp.perm, d) == P.compose(d, tp.perm)
    # containment chain: tracked <= Z(deck, W), combined <= N(deck, W)
    w = S.weyl_e6()
    zdeck = P.centralizer(w, s4_report.deck_group)
    ndeck = P.normalizer(w, s4_report.deck_group)
    assert s4_report.group.is_subgroup_of(zdeck)
    assert s4_report.combined_group.is_subgroup_of(ndeck)


def test_monotone_group_growth(s4_report):
    # group order is non-decreasing as loops accumulate
    chain = P.StabilizerChain(27)
    orders = []
    for tp in s4_report.tracked:
        chain.extend(np.array(tp.perm.images))
        orders.append(chain.order())
    assert orders == sorted(orders)


def test_report_json_roundtrippable(s4_report):
    data = s4_report.to_json()
    assert data["schema"] == "cubicmonodromy/report/1"
    assert data["group"]["order"] == 4
    assert data["plateau_reached"] is True
    import json
    json.dumps(data)  # fully serializable


def test_report_json_carries_the_hesse_triples(claim_results):
    # the flex campaign's base: 12 collinear triples, 4 through each flex,
    # which every tracked permutation maps onto themselves; null for lines
    reports = claim_results["reports"]
    triples = reports["FlexP9"]["hesse_triples"]
    FX.check_hesse_configuration([tuple(t) for t in triples])
    lines = {frozenset(t) for t in triples}
    for tp in reports["FlexP9"]["tracked"]:
        assert {frozenset(tp["perm"][i] for i in t) for t in lines} == lines
    assert reports["FlexP9"]["schema"] == "cubicmonodromy/report/1"
    assert all(r["hesse_triples"] is None for key, r in reports.items() if key != "FlexP9")


def test_generic20_basepoint_independence():
    # Cor. on open restrictions: campaigns at two basepoints agree up to
    # conjugacy in W(E6) (here: both reach the full group, so they are equal)
    fam = F.generic20_family()
    groups = []
    for seed in (101, 202):
        campaign = M.Campaign(family=fam,
                              basepoint=M.default_basepoint("Generic20", seed),
                              loop_budget=30, seed=seed)
        report = M.run_campaign(campaign)
        assert report.plateau_reached
        groups.append(report.group)
    assert groups[0].order == groups[1].order == 51840
    assert groups[0].same_elements(groups[1])


# Each campaign's tracked loops in the claim_results run (verify-all
# --budget 40 --seed 0), in loop order: the loop's seed (petals by their
# order, twists by name) and the sha256 prefix of its permutation, or "id"
# for the identity.  A moved permutation names its loop; a loop lost,
# gained or tracked twice changes the list.  C2even's random polygons
# 700033 and 700035 end in a step size underflow with a path corrector
# pushed to 1e-12.
SEED0_LOOP_PERMS = {
    "C2even": [
        (700021, "id"), (700022, "id"), (700023, "3ab3331d"), (700024, "703ae641"),
        (700025, "ba30238f"), (700026, "068823c4"), (700027, "de1473a9"), (700028, "f9b26802"),
        (700029, "e4c37a81"), (700030, "6b53ffba"), (700031, "4437582e"), (700032, "068823c4"),
        (700033, "4ccd3860"), (700034, "a15c488b"), (700035, "2aa36a83"), (700036, "02bad462"),
    ],
    "FlexP9": [
        (899919, "91c827d6"), (899920, "83ba58f4"), (899921, "id"), (899922, "id"),
        (899923, "baeecaa7"), (899924, "899a5718"), (899925, "id"), (899926, "72910d19"),
        (899927, "83ba58f4"), (899928, "baeecaa7"), (899929, "id"), (899930, "2f07869d"),
        (899931, "id"), (899932, "id"), (899933, "id"),
    ],
    "Generic20": [
        (0, "c715e652"), (1, "3d111f3c"), (2, "id"), (3, "5fdfe9c3"), (4, "313d5b4f"),
        (5, "e850289d"), (6, "18c16b2c"), (7, "id"), (8, "ad361381"), (9, "d23b32ab"),
        (10, "ec80c06f"), (11, "id"), (12, "577c7f57"), (13, "5edc97b4"),
    ],
    "S3+twists": [
        ("twist:swap_ab", "0fed2991"), ("twist:zeta3_a", "deb5ba40"),
        ("twist:zeta3_b", "f79c0f45"), (300009, "id"), (300010, "cea8c889"),
        *[(s, "id") for s in range(300011, 300021)],
    ],
    "S3xC2+twists": [
        ("petal0", "69a17f7e"), ("petal1", "f39bee4c"), ("petal2", "846f9e99"),
        ("twist:zeta3", "af68787a"), *[(s, "id") for s in range(500015, 500023)],
    ],
    "S4": [
        ("petal0", "d6053190"), ("petal1", "a60af9d3"),
        *[(s, "id") for s in range(100003, 100012)], (100012, "7ba63e3a"),
    ],
}


def _loop_perms(report: dict) -> list:
    """(loop key, permutation digest) of each loop of a campaign report, in loop order."""
    out = []
    for t in report["tracked"]:
        loop, perm = t["loop"], t["perm"]
        if loop["kind"] == "twisted":
            key = f"twist:{loop['name']}"
        elif loop["kind"] == "petal":
            key = f"petal{sum(str(k).startswith('petal') for k, _ in out)}"
        else:
            key = int(loop["detail"]["seed"])
        blob = json.dumps(perm, separators=(",", ":")).encode()
        out.append((key, "id" if perm == sorted(perm) else hashlib.sha256(blob).hexdigest()[:8]))
    return out


def test_claim_suite_permutations_are_pinned(claim_results):
    assert set(claim_results["reports"]) == set(SEED0_LOOP_PERMS)
    for key, report in claim_results["reports"].items():
        assert _loop_perms(report) == SEED0_LOOP_PERMS[key], key
        assert report["loop_failures"] == [], key


# ---------------------------------------------------------------------------
# Loops in flight: no loop past the stop
# ---------------------------------------------------------------------------


class _Stream:
    """A loop stream of ready results whose thunks count their calls.

    ``outcomes[i]`` is a permutation (a tracked loop), ``"finish"`` (the
    loop fails when read off) or ``"start"`` (the thunk itself raises);
    past the end every loop is the identity.
    """

    def __init__(self, degree, outcomes):
        self.degree, self.outcomes, self.calls = degree, outcomes, 0

    def result(self, k):
        out = self.outcomes[k] if k < len(self.outcomes) else list(range(self.degree))
        if out == "start":
            raise RuntimeError(f"no loop {k}")
        if out == "finish":
            raise ValueError(f"loop {k} lost")
        return T.TrackedPermutation(perm=P.Permutation(out), max_corrector_residual=0.0,
                                    min_separation=1.0, loop=None)

    def thunk(self, k):
        self.calls += 1
        if self.outcomes[k:k + 1] == ["start"]:
            self.result(k)

        def finish(state, telemetry):
            return self.result(k)
        return T.LoopRun([], None, finish)

    def __iter__(self):
        k = 0
        while True:
            yield f"loop{k}", (lambda k=k: self.thunk(k))
            k += 1


def _one_at_a_time(stream, budget, mandatory):
    """The stop rule tracking one loop at a time; also the loops it reaches."""
    chain = P.StabilizerChain(stream.degree)
    tracked, failures, stable = [], [], 0
    for attempts in range(1, budget + 1):
        try:
            tp = stream.result(attempts - 1)
        except Exception as exc:
            failures.append(f"loop{attempts - 1}: {type(exc).__name__}: {exc}")
            continue
        tracked.append(tp)
        stable = 0 if chain.extend(np.array(tp.perm.images)) else stable + 1
        if attempts > mandatory and stable >= M.PLATEAU:
            return tracked, failures, True, attempts
    return tracked, failures, False, budget


@pytest.mark.parametrize("outcomes, budget, mandatory", [
    ([[1, 0, 2, 3], [0, 2, 1, 3], [0, 1, 3, 2]], 40, 0),  # plateau after 3 + 10
    ([[1, 0, 2, 3]], 7, 0),  # budget before the plateau
    ([[1, 0, 2, 3], "finish", "start", [0, 2, 1, 3]] + ["finish", [0, 1, 2, 3]] * 6
     + ["start", [0, 1, 3, 2]], 40, 2),  # failures do not count towards a plateau
    ([], 30, 12),  # every loop stable, but the mandatory loops come first
    (["start"] * 3, 2, 0),
])
def test_accumulate_starts_no_loop_past_its_stop(outcomes, budget, mandatory):
    stream = _Stream(4, outcomes)
    got = M._accumulate(4, stream, budget, mandatory)
    tracked, failures, plateau, reached = _one_at_a_time(_Stream(4, outcomes), budget,
                                                         mandatory)
    assert [tp.perm for tp in got[0]] == [tp.perm for tp in tracked]
    assert got[1:3] == (failures, plateau)
    assert stream.calls == reached
    assert got[3].order() == P.bsgs_order([tp.perm for tp in tracked], degree=4)


@pytest.mark.parametrize("degree, in_flight", [(27, 4), (9, M.PLATEAU)])
def test_accumulate_keeps_a_batch_of_sheets_in_flight(monkeypatch, degree, in_flight):
    # no mandatory loops, as in a flex campaign: 108 sheets would hold 12
    # flex loops, but the stop rule lets at most PLATEAU of them start
    widths = []
    step_paths = M.step_paths
    monkeypatch.setattr(M, "step_paths", lambda paths: widths.append(len(paths))
                        or step_paths(paths))
    M._accumulate(degree, _Stream(degree, []), budget=40, mandatory=0)
    assert max(widths) == in_flight
