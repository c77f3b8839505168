"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 5 is implemented exactly as specified and is expected to fail:
the underlying theorem's order-12/order-144 values are unattainable over
the complex numbers (the splitting-field C2 collapses, and the normalizer
of the deck image in W(E6) has order 72 < 144).  The companion test pins
the corrected, measured values.  Everything else must pass at the stated
tolerances.
"""

import time

import numpy as np
import pytest

from cubicmonodromy import forms as F
from cubicmonodromy import linesolver as L
from cubicmonodromy import monodromy as M
from cubicmonodromy import perms as P
from cubicmonodromy import schlafli as S
from cubicmonodromy import surfaces as SF
from cubicmonodromy import tracker as T


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")


def claim(results, claim_id: str) -> dict:
    return next(v for v in results["verdicts"] if v["claim_id"] == claim_id)


def test_acceptance_01_weyl_group_generation(claim_results):
    v = claim(claim_results, "W(E6)")
    report = claim_results["reports"]["Generic20"]
    loops_used = len(report["tracked"])
    ok = (v["passed"] and v["detail"]["order"] == 51840
          and v["detail"]["equals_weyl_e6"] and loops_used <= 80)
    verdict(1, ok, f"Generic20 campaign: order {v['detail']['order']} "
                   f"with {loops_used} loops (<= 80)")
    assert ok


def test_acceptance_02_schlafli_structure_100_random_cubics():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    successes = 0
    for k in range(100):
        form = F.random_cubic(rng)
        rep = L.solve_lines(form, seed=5000 + k)
        adj = L.incidence_graph(rep.lines)  # validates srg(27,10,1,5)
        ai = adj.astype(np.int64)
        triangles = int(np.trace(ai @ ai @ ai)) // 6
        assert triangles == 45
        S.label_lines(adj)
        successes += 1
    ok = successes == 100
    verdict(2, ok, f"{successes}/100 random smooth cubics solved, "
                   f"srg + 45 triangles + labeling ({time.time() - t0:.0f}s)")
    assert ok


def test_acceptance_03_s4_theorem(claim_results):
    # puncture_scan confirms the two finite punctures {0, -1/2}
    cands = SF.puncture_scan(F.s4_family(), (-0.75, 0.25), samples=40, seed=2)
    found = sorted(c.real for c in cands)
    scan_ok = (len(cands) == 2
               and abs(found[0] + 0.5) < 1e-10 and abs(found[1]) < 1e-10
               and all(abs(c.imag) < 1e-10 for c in cands))
    coarse = claim(claim_results, "S4-coarse")
    stack = claim(claim_results, "S4-stack")
    seq = stack["detail"]["exact_sequence"]
    ok = (scan_ok and coarse["passed"] and stack["passed"]
          and seq["deck_normal"] and seq["quotient_order"] == 4
          and seq["split"] == "direct_product")
    verdict(3, ok, f"punctures {found} confirmed; coarse order "
                   f"{coarse['detail']['order']} exponent 2; combined 96, "
                   f"quotient 4, direct product")
    assert ok


def test_acceptance_04_s3_theorem(claim_results):
    coarse = claim(claim_results, "S3-coarse")
    stack = claim(claim_results, "S3-stack")
    ok = (coarse["passed"] and coarse["detail"]["fingerprint_matches"]
          and stack["passed"] and stack["detail"]["fingerprint_matches"])
    verdict(4, ok, f"coarse order {coarse['detail']['order']} = S3xS3; "
                   f"combined {stack['detail']['order']} = S3xS3xS3")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="Paper error (Thm on S3xC2 monodromy): over C the splitting field "
           "K = C(u, sqrt(4a^3+27)) coincides with the splitting field of "
           "u^3+au^2+1 (disc = -(4a^3+27)), so Gal = S3 of order 6, not "
           "S3xC2 of order 12; moreover N(deck, W(E6)) has order 72, making "
           "the claimed combined order 144 impossible.  Measured: 6 and 72. "
           "See the decisions ledger for the full three-way analysis.")
def test_acceptance_05_s3xc2_theorem_as_specified(claim_results):
    coarse = claim(claim_results, "S3xC2-coarse")
    stack = claim(claim_results, "S3xC2-stack")
    ok = coarse["passed"] and stack["passed"]
    verdict(5, ok, f"spec targets 12/144; measured "
                   f"{coarse['detail']['order']}/{stack['detail']['order']}")
    assert ok


def test_acceptance_05_corrected_values(claim_results):
    # the provable complex-field values: tracked S3 (order 6), combined 72
    # = N(deck, W(E6)), quotient by deck of order 6, direct product
    coarse = claim(claim_results, "S3xC2-coarse")
    stack = claim(claim_results, "S3xC2-stack")
    report = claim_results["reports"]["S3xC2+twists"]
    seq = stack["detail"]["exact_sequence"]
    tracked_fp = report["fingerprints"]["tracked"]
    s3_fp = P.fingerprint(P.named_group("S3")).to_json()
    ok = (coarse["detail"]["order"] == 6 and stack["detail"]["order"] == 72
          and tracked_fp == s3_fp and seq["quotient_order"] == 6
          and seq["split"] == "direct_product")
    verdict(5, False, "spec targets 12/144 unattainable (paper error); "
                      f"measured {coarse['detail']['order']}/{stack['detail']['order']}"
                      " match the corrected theory (S3, N(deck) = 72)")
    assert ok


def test_acceptance_06_c2_theorem(claim_results):
    stack = claim(claim_results, "C2-stack")
    coarse = claim(claim_results, "C2-coarse")
    ok = (stack["passed"] and stack["detail"]["equals_marked_stabilizer"]
          and stack["detail"]["order"] == 1152
          and coarse["passed"] and coarse["detail"]["order"] == 576
          and not coarse["detail"]["quotient_has_order8"]
          and coarse["detail"]["big_has_order8"]
          and coarse["detail"]["exact_sequence"]["split"] == "nonsplit_by_order8")
    verdict(6, ok, "even family = full tritangent stabilizer (1152); "
                   "quotient 576 with no order-8 element; extension non-split")
    assert ok


def test_acceptance_07_flexes(claim_results):
    v = claim(claim_results, "flexes")
    ok = (v["passed"] and v["detail"]["order"] == 216
          and v["detail"]["collinearity_preserved"]
          and v["detail"]["asl_equality"])
    verdict(7, ok, "flex monodromy order 216, equals ASL2(F3) under a "
                   "collinearity bijection, 12-line structure preserved")
    assert ok


def test_acceptance_08_fermat_symmetry_648():
    fer = F.fermat_cubic()
    rep = L.solve_lines(fer, seed=8)
    gens = [SF.symmetry_permutation(m, rep.lines, form=fer)
            for m in F.fermat_symmetry_matrices()]
    group = P.generate_group(gens)
    ok = group.order == 648
    verdict(8, ok, f"Fermat coordinate+scaling generators induce a faithful "
                   f"degree-27 group of order {group.order}")
    assert ok


def test_acceptance_09_eckardt_counts():
    fermat = len(SF.eckardt_points(L.solve_lines(F.fermat_cubic(), seed=9).lines))
    rep = L.solve_lines(F.family_s3c2(1.7), seed=9)
    found = SF.eckardt_points(rep.lines)
    stated = F.s3c2_eckardt_points()
    coords_ok = all(
        min(SF._projective_distance(pt, s) for s in stated) < 1e-8
        for pt, _ in found)
    generic = len(SF.eckardt_points(
        L.solve_lines(F.random_cubic(np.random.default_rng(99)), seed=9).lines))
    ok = fermat == 18 and len(found) == 4 and coords_ok and generic == 0
    verdict(9, ok, f"Eckardt counts: Fermat {fermat}, S3xC2 member "
                   f"{len(found)} at stated coordinates, random {generic}")
    assert ok


def test_acceptance_10_group_theory_cross_checks():
    # N(S4-image, W(E6)) has order 96 with S4xC2xC2 fingerprint
    form = F.family_s4(5.0)
    rep = L.solve_lines(form, seed=10)
    labeling = S.label_lines(L.incidence_graph(rep.lines))
    deck = P.generate_group([
        SF.symmetry_permutation(m, rep.lines, labeling, form=form)
        for m in F.s4_symmetry_matrices()])
    w = S.weyl_e6()
    norm = P.normalizer(w, deck)
    n_ok = (norm.order == 96
            and P.fingerprint(norm) == P.fingerprint(P.named_group("S4xC2xC2")))
    # diagonal_quotient_stabilizer reproduces every group of order <= 12
    from test_perms import all_groups_up_to_order_12, group_table
    dq_ok = True
    for name, g in all_groups_up_to_order_12().items():
        image = P.diagonal_quotient_stabilizer(group_table(g))
        dq_ok &= (image.order == g.order
                  and P.fingerprint(image) == P.fingerprint(g))
    ok = n_ok and dq_ok
    verdict(10, ok, f"N(S4, W(E6)) order {norm.order} = S4xC2xC2; regular "
                    f"embeddings reproduce all 24 groups of order <= 12")
    assert ok


def test_acceptance_11_property_suites():
    fam = F.s4_family()
    bp = np.array([0.6 + 0.8j])
    base = L.solve_lines(fam.form_at(bp), seed=11)
    labeling = S.label_lines(L.incidence_graph(base.lines))
    petals = T.petal_loops(fam, bp[0])
    # constant-loop identity
    const = T.LoopSpec(family=fam, basepoint=bp, waypoints=(bp, bp))
    id_ok = T.track_loop(const, base, labeling).perm.is_identity()
    # inverse and composition laws
    p0 = T.track_loop(petals[0], base, labeling).perm
    p1 = T.track_loop(petals[1], base, labeling).perm
    rev = T.LoopSpec(family=fam, basepoint=bp,
                     waypoints=tuple(reversed(petals[0].waypoints)), kind="petal")
    inv_ok = T.track_loop(rev, base, labeling).perm == p0.inverse()
    both = T.LoopSpec(family=fam, basepoint=bp,
                      waypoints=petals[0].waypoints + petals[1].waypoints[1:])
    comp_ok = T.track_loop(both, base, labeling).perm == P.compose(p0, p1)
    # chart independence of solves
    form = F.random_cubic(np.random.default_rng(11))
    r1, r2 = L.solve_lines(form, seed=1), L.solve_lines(form, seed=2)
    match = L.match_lines(r1.pluckers(), r2.pluckers())
    chart_ok = max(
        SF._projective_distance(r1.lines[i].plucker, r2.lines[j].plucker)
        for i, j in enumerate(match)) < 1e-8
    # basepoint independence of Generic20 monodromy: both reach all of W(E6)
    groups = []
    for seed in (11, 22):
        rep = M.run_campaign(M.Campaign(
            family=F.generic20_family(),
            basepoint=M.default_basepoint("Generic20", seed),
            loop_budget=30, seed=seed))
        groups.append(rep.group)
    base_ok = (groups[0].order == groups[1].order
               and groups[0].same_elements(groups[1]))
    ok = id_ok and inv_ok and comp_ok and chart_ok and base_ok
    verdict(11, ok, "loop identity/inverse/composition laws, chart "
                    "independence, basepoint independence all hold")
    assert ok
