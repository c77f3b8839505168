"""Exact group-engine tests: generation, scans, fingerprints, oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmonodromy import perms as P
from cubicmonodromy import schlafli as S


def random_perm(rng, n):
    return P.Permutation(rng.permutation(n))


# ---------------------------------------------------------------------------
# Permutation laws
# ---------------------------------------------------------------------------


@given(st.integers(0, 10_000), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_compose_inverse_law(seed, n):
    rng = np.random.default_rng(seed)
    p, q = random_perm(rng, n), random_perm(rng, n)
    assert P.compose(p, q).inverse() == P.compose(q.inverse(), p.inverse())


@given(st.integers(0, 10_000), st.integers(2, 12))
@settings(max_examples=60, deadline=None)
def test_compose_associative(seed, n):
    rng = np.random.default_rng(seed)
    p, q, r = (random_perm(rng, n) for _ in range(3))
    assert P.compose(P.compose(p, q), r) == P.compose(p, P.compose(q, r))


def test_not_a_permutation_rejected():
    with pytest.raises(P.GroupError):
        P.Permutation([0, 0, 1])


def test_cycles_and_order():
    p = P.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert p.order() == 6
    assert P.cycle_string(p) == "(0 1 2)(3 4)"


# ---------------------------------------------------------------------------
# generate_group
# ---------------------------------------------------------------------------


def test_empty_generating_set_is_trivial():
    g = P.generate_group([], degree=27)
    assert g.order == 1


def test_s3_from_generators():
    g = P.generate_group([P.from_cycles(3, [(0, 1)]), P.from_cycles(3, [(0, 1, 2)])])
    assert g.order == 6


def test_schlafli_automorphism_generators_give_51840():
    # the Weyl group generators are graph automorphisms found in schlafli
    assert S.weyl_e6().order == 51840


def test_degree_mismatch_rejected():
    with pytest.raises(P.GroupError):
        P.generate_group([P.identity(3), P.identity(4)])


def test_cap_falls_back_to_bsgs():
    gens = [P.from_cycles(9, [(0, 1)]), P.from_cycles(9, [tuple(range(9))])]
    g = P.generate_group(gens, cap=100)
    assert not g.is_materialized
    assert g.order == 362880
    with pytest.raises(P.GroupError):
        g.element_array()


def test_bsgs_matches_materialized_order():
    # cross-check on every named group plus W(E6) (all of order <= 1e5)
    for name in P.NAMED_GROUPS:
        g = P.named_group(name)
        assert P.bsgs_order(g.generators, g.degree) == g.order, name
    w = S.weyl_e6()
    assert P.bsgs_order(w.generators, 27) == 51840


# ---------------------------------------------------------------------------
# stabilizers, centralizers, normalizers
# ---------------------------------------------------------------------------


def test_stabilizer_of_full_domain_is_whole_group():
    g = P.named_group("S4")
    assert P.set_stabilizer(g, range(4)).order == g.order


def test_stabilizer_in_s3_of_point():
    g = P.named_group("S3")
    assert P.set_stabilizer(g, {0}).order == 2


def test_tritangent_stabilizer_order_1152():
    # oracle: |W(E6)| / (number of triples) with transitivity on triples
    w = S.weyl_e6()
    triples = S.tritangent_triples()
    first = triples[0]
    rows = w.element_array()
    orbit = {tuple(sorted(row[list(first)])) for row in rows}
    assert orbit == set(triples)  # transitive on the 45 triples
    expected = w.order // len(triples)
    stab = P.set_stabilizer(w, first)
    assert expected == 1152
    assert stab.order == expected


def test_lagrange_for_computed_subgroups():
    w = P.named_group("ASL2F3")
    for subset in ({0}, {0, 1}, {0, 4, 8}):
        sub = P.set_stabilizer(w, subset)
        assert w.order % sub.order == 0


def test_centralizer_of_trivial_subgroup_is_whole_group():
    g = P.named_group("S4")
    triv = P.generate_group([P.identity(4)])
    assert P.centralizer(g, triv).order == g.order


def test_centralizer_normalizer_duality_by_scan():
    g = P.generate_group([P.from_cycles(6, [(0, 1)]), P.from_cycles(6, [tuple(range(6))])])
    sub = P.generate_group([P.from_cycles(6, [(0, 1, 2)])])
    cen = P.centralizer(g, sub)
    nor = P.normalizer(g, sub)
    assert cen.is_subgroup_of(nor)
    # Z = N intersect {g commuting with every generator of sub}
    manual = [
        h for h in nor.elements()
        if all(P.compose(h, s) == P.compose(s, h) for s in sub.generators)
    ]
    assert len(manual) == cen.order


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_c2xc2():
    fp = P.fingerprint(P.named_group("C2xC2"))
    assert fp.order == 4 and fp.is_abelian
    assert fp.max_element_order() == 2
    assert fp.abelianization_invariants == (2, 2)


def test_fingerprint_histogram_sums_to_order():
    for name in ("S3", "S4", "ASL2F3", "S3xC2_sq"):
        fp = P.fingerprint(P.named_group(name))
        assert sum(v for _, v in fp.element_order_histogram) == fp.order


def test_fingerprint_is_kept_on_the_group(monkeypatch):
    g = P.named_group("S4")
    fp = P.fingerprint(g)

    def no_scan(group):
        raise AssertionError("the fingerprint was computed again")

    monkeypatch.setattr(P, "element_order_histogram", no_scan)
    assert P.fingerprint(g) is fp
    assert g.to_json()["fingerprint"] == fp.to_json()


def test_identity_group_histogram():
    fp = P.fingerprint(P.generate_group([], degree=5))
    assert fp.element_order_histogram == ((1, 1),)


def test_pgo4p3_has_no_order_8_but_go4p3_does():
    # PAPER: final Remark of the C2 section
    pgo = P.named_group("PGO4p3_model")
    assert pgo.order == 576
    assert not P.fingerprint(pgo).has_element_of_order(8)
    w = S.weyl_e6()
    go = P.set_stabilizer(w, S.tritangent_triples()[0])
    assert go.order == 1152
    assert P.fingerprint(go).has_element_of_order(8)
    # quotient of the stabilizer by its center matches the F3 model
    center = P.centralizer(go, go)
    assert center.order == 2
    zgen = next(g for g in center.elements() if g.order() == 2)
    quot = P.quotient_group(go, P.generate_group([zgen], degree=27))
    assert quot.order == 576
    assert P.fingerprint(quot) == P.fingerprint(pgo)


# ---------------------------------------------------------------------------
# named groups
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,order", [
    ("C2xC2", 4), ("S3", 6), ("S4", 24), ("C6", 6), ("S3xC3", 18),
    ("S3xC2", 12), ("S3xS3", 36), ("S3xS3xS3", 216), ("S4xC2xC2", 96),
    ("S3xC2_sq", 144), ("ASL2F3", 216), ("PGO4p3_model", 576),
])
def test_named_group_orders(name, order):
    assert P.named_group(name).order == order


def test_unknown_named_group():
    with pytest.raises(P.GroupError):
        P.named_group("E8")


# ---------------------------------------------------------------------------
# split central extension check
# ---------------------------------------------------------------------------


def test_split_check_c2xc2():
    v4 = P.named_group("C2xC2")
    assert P.split_central_extension_check(v4, v4.generators[0]) == "split"


def test_split_check_c4_inconclusive():
    c4 = P.generate_group([P.from_cycles(4, [(0, 1, 2, 3)])])
    z = P.from_cycles(4, [(0, 2), (1, 3)])
    assert P.split_central_extension_check(c4, z) == "inconclusive"


@pytest.mark.parametrize("gens,z,verdict", [
    # S3xC2 with its central involution: a complement exists
    ([P.from_cycles(5, [(0, 1)]), P.from_cycles(5, [(0, 1, 2)]),
      P.from_cycles(5, [(3, 4)])], P.from_cycles(5, [(3, 4)]), "split"),
    # C4xS3 with the square of the C4 generator: no complement
    ([P.from_cycles(7, [(0, 1, 2, 3)]), P.from_cycles(7, [(4, 5)]),
      P.from_cycles(7, [(4, 5, 6)])], P.from_cycles(7, [(0, 2), (1, 3)]), "inconclusive"),
])
def test_split_check_through_the_abelianization(gens, z, verdict):
    big = P.generate_group(gens)
    derived = P.derived_subgroup(big)
    # a nontrivial derived group without z: the check takes z's coset image
    assert derived.order == 3 and z not in derived
    assert P.split_central_extension_check(big, z) == verdict


def test_split_check_go4p3_nonsplit_by_order8():
    w = S.weyl_e6()
    go = P.set_stabilizer(w, S.tritangent_triples()[0])
    center = P.centralizer(go, go)
    zgen = next(g for g in center.elements() if g.order() == 2)
    assert P.split_central_extension_check(go, zgen) == "nonsplit_by_order8"


def test_split_check_rejects_noncentral():
    s3 = P.named_group("S3")
    with pytest.raises(P.GroupError):
        P.split_central_extension_check(s3, s3.generators[0])


def test_quotient_consistency():
    # |big| = |kernel| x |quotient| for the coset action
    g96 = P.named_group("S4xC2xC2")
    sub = P.generate_group([g96.generators[-1]], degree=8)
    q = P.quotient_group(g96, sub)
    assert q.order * sub.order == g96.order


# ---------------------------------------------------------------------------
# diagonal quotient stabilizer (regular embeddings)
# ---------------------------------------------------------------------------


def group_table(group: P.PermGroup) -> list[list[int]]:
    """Multiplication table with a fixed element enumeration, identity first."""
    elements = sorted(group.elements(), key=lambda p: (not p.is_identity(), p.images))
    index = {p.images: i for i, p in enumerate(elements)}
    return [[index[P.compose(a, b).images] for b in elements] for a in elements]


def test_diagonal_quotient_c2():
    table = [[0, 1], [1, 0]]
    g = P.diagonal_quotient_stabilizer(table)
    assert g.order == 2 and g.degree == 2


def test_diagonal_quotient_s3_nonabelian():
    table = group_table(P.named_group("S3"))
    g = P.diagonal_quotient_stabilizer(table)
    assert g.degree == 6 and g.order == 6
    assert not P.fingerprint(g).is_abelian


def test_diagonal_quotient_c4_histogram():
    # DERIVED oracle: direct enumeration of the regular action of C4
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    direct = {}
    for i in range(4):
        row = P.Permutation(table[i])
        direct[row.order()] = direct.get(row.order(), 0) + 1
    assert direct == {1: 1, 2: 1, 4: 2}
    g = P.diagonal_quotient_stabilizer(table)
    assert P.fingerprint(g).element_order_histogram == ((1, 1), (2, 1), (4, 2))


def test_diagonal_quotient_rejects_bad_tables():
    with pytest.raises(P.GroupError):
        P.diagonal_quotient_stabilizer([[0, 1], [0, 1]])  # not a Latin square
    with pytest.raises(P.GroupError):
        P.diagonal_quotient_stabilizer([[1, 0], [0, 1]])  # no identity at 0
    # Latin square with identity that is not associative (order-5 quasigroup)
    q = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]
    with pytest.raises(P.GroupError):
        P.diagonal_quotient_stabilizer(q)


def all_groups_up_to_order_12() -> dict[str, P.PermGroup]:
    """Permutation models of all 24 isomorphism types of order <= 12."""
    def cyc(*ns):
        parts = [[P.from_cycles(n, [tuple(range(n))])] for n in ns]
        return P.generate_group(P._direct_product(parts))

    def dihedral(n):
        rot = P.from_cycles(n, [tuple(range(n))])
        ref = P.Permutation([(n - i) % n for i in range(n)])
        return P.generate_group([rot, ref])

    # left-regular models: Q8 on {1,-1,i,-i,j,-j,k,-k}, Dic3 on {a^k, b a^k}
    q8 = P.generate_group([
        P.Permutation([2, 3, 1, 0, 6, 7, 5, 4]),  # left multiplication by i
        P.Permutation([4, 5, 7, 6, 1, 0, 2, 3]),  # left multiplication by j
    ])
    dic3 = P.generate_group([
        P.Permutation([1, 2, 3, 4, 5, 0, 11, 6, 7, 8, 9, 10]),  # left mult by a
        P.Permutation([6, 7, 8, 9, 10, 11, 3, 4, 5, 0, 1, 2]),  # left mult by b
    ])
    a4 = P.generate_group([P.from_cycles(4, [(0, 1, 2)]),
                           P.from_cycles(4, [(0, 1), (2, 3)])])
    groups = {
        "C1": P.generate_group([], degree=1),
        "C2": cyc(2), "C3": cyc(3), "C4": cyc(4), "C2xC2": cyc(2, 2),
        "C5": cyc(5), "C6": cyc(6), "S3": P.named_group("S3"), "C7": cyc(7),
        "C8": cyc(8), "C4xC2": cyc(4, 2), "C2xC2xC2": cyc(2, 2, 2),
        "D4": dihedral(4), "Q8": q8,
        "C9": cyc(9), "C3xC3": cyc(3, 3),
        "C10": cyc(10), "D5": dihedral(5),
        "C11": cyc(11),
        "C12": cyc(12), "C6xC2": cyc(6, 2), "D6": dihedral(6), "A4": a4,
        "Dic3": dic3,
    }
    return groups


def test_group_zoo_orders_and_types():
    zoo = all_groups_up_to_order_12()
    assert len(zoo) == 24
    expected = {"Q8": 8, "D4": 8, "D5": 10, "D6": 12, "A4": 12, "Dic3": 12}
    for name, order in expected.items():
        assert zoo[name].order == order, name
    # Q8 and D4 are distinguished by the fingerprint
    assert P.fingerprint(zoo["Q8"]) != P.fingerprint(zoo["D4"])
    # Dic3 has a unique involution, unlike D6 and C6xC2
    hist = dict(P.fingerprint(zoo["Dic3"]).element_order_histogram)
    assert hist[2] == 1 and hist[4] == 6


def test_diagonal_quotient_reproduces_all_groups_up_to_12():
    for name, g in all_groups_up_to_order_12().items():
        table = group_table(g)
        image = P.diagonal_quotient_stabilizer(table)
        assert image.order == g.order, name
        assert P.fingerprint(image) == P.fingerprint(g), name


def test_group_json_roundtrip():
    g = P.named_group("S3xC2")
    data = g.to_json()
    assert data["order"] == 12 and data["degree"] == 5
    g2 = P.PermGroup.from_json(data)
    assert g2.same_elements(g)


def test_same_elements_compares_unmaterialized_groups():
    a, b, c, d = (P.Permutation(x) for x in ([1, 0, 2, 3], [0, 1, 3, 2],
                                              [1, 0, 3, 2], [2, 3, 0, 1]))
    two_swaps = P.generate_group([a, b], cap=2)
    klein = P.generate_group([c, d], cap=2)
    assert not two_swaps.is_materialized and not klein.is_materialized
    assert two_swaps.order == klein.order == 4
    assert not two_swaps.same_elements(klein)
    assert not klein.same_elements(two_swaps)
    assert klein.same_elements(P.generate_group([d, c], cap=2))
    assert klein.same_elements(P.generate_group([c, d]))
