"""Canonical combinatorial model of the 27 lines.

Labels follow the blowup model: E1..E6, G1..G6 and F12..F56, with the
classical incidence rules (Ei meets Gj iff i != j; Ei meets Fjk iff
i is in {j,k}; Gi meets Fjk iff i is in {j,k}; Fij meets Fkl iff the
pairs are disjoint).  The resulting graph is the strongly regular
(27,10,1,5) Schlafli graph; its full automorphism group has order 51840
and is the permutation model of W(E6) used everywhere downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import perms
from .perms import PermGroup, Permutation


class LabelingError(ValueError):
    """The input graph is not isomorphic to the Schlafli graph."""


@dataclass(frozen=True)
class LineLabel:
    kind: str  # "E", "G" or "F"
    indices: tuple[int, ...]

    def __str__(self) -> str:
        return self.kind + "".join(str(i) for i in self.indices)


def _make_labels() -> tuple[LineLabel, ...]:
    labels = [LineLabel("E", (i,)) for i in range(1, 7)]
    labels += [LineLabel("G", (i,)) for i in range(1, 7)]
    labels += [LineLabel("F", (i, j)) for i, j in itertools.combinations(range(1, 7), 2)]
    return tuple(labels)


ALL_LABELS: tuple[LineLabel, ...] = _make_labels()
LABEL_NAMES: tuple[str, ...] = tuple(str(lab) for lab in ALL_LABELS)
LABEL_INDEX: dict[str, int] = {name: i for i, name in enumerate(LABEL_NAMES)}


def _labels_meet(a: LineLabel, b: LineLabel) -> bool:
    if a.kind == b.kind == "E" or a.kind == b.kind == "G":
        return False
    if {a.kind, b.kind} == {"E", "G"}:
        return a.indices[0] != b.indices[0]
    if a.kind == b.kind == "F":
        return not set(a.indices) & set(b.indices)
    if a.kind == "F":
        a, b = b, a
    # a is E or G, b is F
    return a.indices[0] in b.indices


@dataclass(frozen=True)
class IncidenceModel:
    adjacency: np.ndarray  # 27x27 boolean, symmetric, no diagonal

    def __post_init__(self):
        check_srg_27_10_1_5(self.adjacency)


def check_srg_27_10_1_5(adj: np.ndarray) -> None:
    """Raise unless adj is a strongly regular (27,10,1,5) graph."""
    a = np.asarray(adj, dtype=bool)
    if a.shape != (27, 27):
        raise LabelingError(f"expected a 27x27 adjacency matrix, got {a.shape}")
    if not np.array_equal(a, a.T) or a.diagonal().any():
        raise LabelingError("adjacency must be symmetric with empty diagonal")
    if not np.all(a.sum(axis=1) == 10):
        raise LabelingError(f"graph is not 10-regular: degrees {sorted(set(a.sum(axis=1)))}")
    ai = a.astype(np.int64)
    common = ai @ ai
    lam = common[a]
    mu = common[~a & ~np.eye(27, dtype=bool)]
    if not (np.all(lam == 1) and np.all(mu == 5)):
        raise LabelingError("graph is not srg(27,10,1,5)")


@lru_cache(maxsize=1)
def canonical_incidence() -> IncidenceModel:
    """The Schlafli graph on the canonical 27 labels."""
    adj = np.zeros((27, 27), dtype=bool)
    for i, j in itertools.combinations(range(27), 2):
        if _labels_meet(ALL_LABELS[i], ALL_LABELS[j]):
            adj[i, j] = adj[j, i] = True
    return IncidenceModel(adjacency=adj)


@dataclass(frozen=True)
class SchlafliLabeling:
    """Bijection from computed-line slots to canonical label indices."""

    assignment: tuple[int, ...]  # slot -> label index

    def to_label_space(self, slot_perm: Permutation) -> Permutation:
        """Transport a permutation of slots to a permutation of labels."""
        lam = self.assignment
        inv = [0] * 27
        for slot, lab in enumerate(lam):
            inv[lab] = slot
        return Permutation(tuple(lam[slot_perm.images[inv[lab]]] for lab in range(27)))

    def to_json(self) -> dict:
        return {"labels": [LABEL_NAMES[i] for i in self.assignment]}


def _graph_isomorphism(a: np.ndarray, b: np.ndarray,
                       forced: dict[int, int] | None = None) -> list[int] | None:
    """Deterministic backtracking isomorphism a -> b; None if none exists.

    Vertices of ``a`` are assigned in index order, candidates in ascending
    order, so the first isomorphism found is lexicographically minimal
    among those respecting ``forced``.
    """
    n = a.shape[0]
    assignment: list[int] = [-1] * n
    used = [False] * n
    forced = forced or {}
    deg_a = a.sum(axis=1)
    deg_b = b.sum(axis=1)

    def consistent(v: int, w: int) -> bool:
        if deg_a[v] != deg_b[w]:
            return False
        for u in range(v):
            if a[v, u] != b[w, assignment[u]]:
                return False
        return True

    def backtrack(v: int) -> bool:
        if v == n:
            return True
        candidates = [forced[v]] if v in forced else range(n)
        for w in candidates:
            if not used[w] and consistent(v, w):
                assignment[v] = w
                used[w] = True
                if backtrack(v + 1):
                    return True
                used[w] = False
                assignment[v] = -1
        return False

    return assignment.copy() if backtrack(0) else None


def label_lines(adjacency: np.ndarray) -> SchlafliLabeling:
    """Label a computed incidence graph by the canonical model.

    The choice among the 51840 possible labelings is fixed by the
    lexicographic backtracking order, so labeling is deterministic.
    """
    adj = np.asarray(adjacency, dtype=bool)
    check_srg_27_10_1_5(adj)
    iso = _graph_isomorphism(adj, canonical_incidence().adjacency)
    if iso is None:
        raise LabelingError("graph is not isomorphic to the Schlafli graph")
    return SchlafliLabeling(assignment=tuple(iso))


def _s6_label_permutation(pi: Permutation) -> Permutation:
    """The label permutation induced by relabeling the six blowup points."""
    imgs = []
    for lab in ALL_LABELS:
        if lab.kind == "F":
            i, j = (pi.images[k - 1] + 1 for k in lab.indices)
            target = LineLabel("F", (min(i, j), max(i, j)))
        else:
            target = LineLabel(lab.kind, (pi.images[lab.indices[0] - 1] + 1,))
        imgs.append(LABEL_INDEX[str(target)])
    return Permutation(imgs)


@lru_cache(maxsize=1)
def weyl_e6() -> PermGroup:
    """W(E6) as the full automorphism group of the Schlafli graph.

    Generators: the index-relabeling image of S6 plus one additional graph
    automorphism found by backtracking search (forced to move E1 off the
    E-block, so it lies outside the S6 image).  The search is
    deterministic, hence so is the generating set.
    """
    adj = canonical_incidence().adjacency
    gens = [_s6_label_permutation(p) for p in perms._sym_gens(6)]
    extra = _graph_isomorphism(adj, adj, forced={0: LABEL_INDEX["F12"]})
    if extra is None:
        raise LabelingError("no automorphism moving E1 to F12; model is broken")
    gens.append(Permutation(extra))
    group = perms.generate_group(gens)
    if group.order != 51840:
        raise LabelingError(f"automorphism group has order {group.order}, expected 51840")
    return group


@lru_cache(maxsize=1)
def tritangent_triples() -> tuple[tuple[int, int, int], ...]:
    """The 45 triangles of the Schlafli graph, as sorted label-index triples."""
    adj = canonical_incidence().adjacency
    triples = []
    for i, j, k in itertools.combinations(range(27), 3):
        if adj[i, j] and adj[i, k] and adj[j, k]:
            triples.append((i, j, k))
    if len(triples) != 45:
        raise LabelingError(f"expected 45 triangles, found {len(triples)}")
    return tuple(triples)


def is_graph_automorphism(p: Permutation, adj: np.ndarray | None = None) -> bool:
    """Membership test for W(E6): does p preserve the incidence graph?"""
    a = canonical_incidence().adjacency if adj is None else np.asarray(adj, dtype=bool)
    imgs = np.array(p.images)
    return bool(np.array_equal(a[np.ix_(imgs, imgs)], a))
