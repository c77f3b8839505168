"""Exact permutation and finite-group engine.

Permutations act on {0..n-1}.  ``compose(p, q)`` means "apply p, then q",
so tracking two loops in succession composes their permutations in path
order.  Groups are immutable once generated; all queries are read-only.

A group is its explicit element table, which makes stabilizers,
centralizers, normalizers and quotients exact by scan.  Each group also
has a base: two of its elements that agree on the base points are equal.
Every table row carries one integer key, the coordinates of its base
images in the group's transversals, which is below the group's order.  So
a product of two elements is located from its base images alone, element
orders and the centre come from powering and comparing base images only,
and membership is the key plus a full-row check.  A generated group takes
its base from a Schreier-Sims stabilizer chain of its generators; a
subgroup found by scan keeps the base of its group; a coset-action
quotient is regular, so point 0 is its base.

Generating a group of more than ``MATERIALIZE_CAP`` elements raises
``GroupError``; the order of such a group is still available from the
chain (``bsgs_order``), which also cross-checks the orders of the tables.
Derived data (the fingerprint, the derived subgroup, quotients with their
coset tables) is computed on first use and kept on the group.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

MATERIALIZE_CAP = 10**6


class GroupError(ValueError):
    """Raised on invalid permutations, mismatched degrees or bad tables."""


class Permutation:
    """A bijection of {0..n-1}, stored by its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(int(i) for i in images)
        n = len(imgs)
        if sorted(imgs) != list(range(n)):
            raise GroupError(f"not a permutation of 0..{n - 1}: {imgs!r}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)})"

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def order(self) -> int:
        n = 1
        for c in self.cycles():
            n = math.lcm(n, len(c))
        return n

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its smallest point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            j = self.images[i]
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out


def identity(degree: int) -> Permutation:
    return Permutation(range(degree))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if p.degree != q.degree:
        raise GroupError(f"degree mismatch: {p.degree} vs {q.degree}")
    qi = q.images
    return Permutation(tuple(qi[i] for i in p.images))


def from_cycles(degree: int, cycles: Iterable[Sequence[int]]) -> Permutation:
    imgs = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:]):
            imgs[a] = b
        if cyc:
            imgs[cyc[-1]] = cyc[0]
    return Permutation(imgs)


def cycle_string(p: Permutation) -> str:
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


# ---------------------------------------------------------------------------
# Schreier-Sims stabilizer chain and the base it gives a group
# ---------------------------------------------------------------------------


class StabilizerChain:
    """Deterministic Schreier-Sims chain with incremental extension.

    Strong generators live in a single pool; level k uses the pool members
    fixing base[:k] pointwise.  Completion runs a global fixpoint: rebuild
    all orbits, then hunt for a Schreier generator that does not sift to
    the identity.  Residues are products of pool members, so adding them
    never changes the generated group, only completes the chain.  Each
    level keeps its transversal as arrays: the orbit position of every
    point (-1 off the orbit), and the representatives and their inverses
    by position, so sifting is one gather per level for any number of rows.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.pool: list[np.ndarray] = []
        self.base: list[int] = []
        self.orbits: list[np.ndarray] = []
        self.reps: list[np.ndarray] = []
        self.invs: list[np.ndarray] = []
        self._identity = np.arange(degree, dtype=np.int64)

    def order(self) -> int:
        return math.prod(len(r) for r in self.reps)

    def extend(self, arr: np.ndarray) -> bool:
        """Add one generator; True if the group grew."""
        residue = self._sift(np.asarray(arr, dtype=np.int64)[None])[0]
        if np.array_equal(residue, self._identity):
            return False
        self.pool.append(residue)
        self._complete()
        return True

    def _gens_at(self, k: int) -> list[np.ndarray]:
        prefix = self.base[:k]
        return [g for g in self.pool if all(int(g[b]) == b for b in prefix)]

    def _sift(self, rows: np.ndarray, start: int = 0) -> np.ndarray:
        """Each row sifted from level start on, until its base image leaves
        a level's orbit; a row of the group ends at the identity."""
        rows = rows.copy()
        live = np.arange(len(rows))
        for k in range(start, len(self.base)):
            pos = self.orbits[k][rows[live, self.base[k]]]
            live, pos = live[pos >= 0], pos[pos >= 0]
            # row, then rep^{-1}
            rows[live] = np.take_along_axis(self.invs[k][pos], rows[live], axis=1)
        return rows

    def _rebuild_orbit(self, k: int) -> None:
        beta = self.base[k]
        orbit = np.full(self.degree, -1, dtype=np.intp)
        orbit[beta] = 0
        reps = [self._identity]
        frontier = [beta]
        gens = self._gens_at(k)
        while frontier:
            new = []
            for pt in frontier:
                rep = reps[orbit[pt]]
                for g in gens:
                    img = int(g[pt])
                    if orbit[img] < 0:
                        orbit[img] = len(reps)
                        reps.append(g[rep])  # rep, then g
                        new.append(img)
            frontier = new
        reps = np.array(reps)
        invs = np.empty_like(reps)
        np.put_along_axis(invs, reps, self._identity[None], axis=1)
        self.orbits[k], self.reps[k], self.invs[k] = orbit, reps, invs

    def _ensure_base(self) -> None:
        for g in self.pool:
            if np.array_equal(g, self._identity):
                continue
            if all(int(g[b]) == b for b in self.base):
                self.base.append(int(np.nonzero(g != self._identity)[0][0]))
                for level in (self.orbits, self.reps, self.invs):
                    level.append(None)

    def _complete(self) -> None:
        while True:
            self._ensure_base()
            for k in range(len(self.base)):
                self._rebuild_orbit(k)
            residue = self._find_missing_residue()
            if residue is None:
                return
            self.pool.append(residue)

    def _find_missing_residue(self) -> np.ndarray | None:
        """The first Schreier generator, by level, orbit point and pool
        member, that does not sift to the identity, sifted."""
        for k, beta in enumerate(self.base):
            gens = self._gens_at(k)
            if not gens:
                continue
            # rep, then g, for every representative and generator, rep-major
            sg = np.stack(gens)[:, self.reps[k]].swapaxes(0, 1).reshape(-1, self.degree)
            t_inv = self.invs[k][self.orbits[k][sg[:, beta]]]
            residues = self._sift(np.take_along_axis(t_inv, sg, axis=1), start=k + 1)
            moved = np.flatnonzero(np.any(residues != self._identity, axis=1))
            if len(moved):
                return residues[moved[0]]
        return None


def bsgs_order(generators: Sequence[Permutation], degree: int | None = None) -> int:
    """Group order from a base-and-strong-generating-set chain."""
    if degree is None:
        if not generators:
            raise GroupError("degree required for an empty generating set")
        degree = generators[0].degree
    chain = StabilizerChain(degree)
    for g in generators:
        chain.extend(np.array(g.images))
    return chain.order()


class _Base:
    """A base of a group with the group's transversals on it.

    Sifting an element's images of the base points through the
    transversals gives its coordinates, one orbit position per level.  On
    the group they are a bijection onto the product of the basic orbits,
    so the mixed-radix number they form is an exact key below the order of
    the group (``size``): two elements of the group with the same base
    images are equal.  A base image off its level's orbit adds ``size`` to
    the key, so a row that does not sift has a key of at least ``size``.
    A row outside the group can also sift like a member, so membership of
    such a row needs a full-row check after the key.
    """

    def __init__(self, points: Sequence[int], orbits: list[np.ndarray],
                 inverses: list[np.ndarray]):
        """orbits: per level, each point's orbit position, -1 off the orbit;
        inverses: per level but the last, the inverse representatives."""
        self.points = np.array(points, dtype=np.intp)
        sizes = [int(np.count_nonzero(o >= 0)) for o in orbits]
        self.size = math.prod(sizes)
        # per level, indexed by point: its position, and its term of the key
        self._positions = [np.maximum(o, 0) for o in orbits]
        self._terms = [np.where(o >= 0, o * math.prod(sizes[:k]), self.size).astype(np.int64)
                       for k, o in enumerate(orbits)]
        self._inverses = inverses

    @classmethod
    def of_chain(cls, chain: StabilizerChain) -> "_Base":
        return cls(chain.base, chain.orbits, chain.invs[:-1])

    @classmethod
    def regular(cls, degree: int) -> "_Base":
        """Point 0 is a base of a regular group: an element is its image of 0."""
        return cls([0], [np.arange(degree, dtype=np.intp)], [])

    def keys(self, images: np.ndarray) -> np.ndarray:
        """Keys of the rows of base images; at least ``size`` for a row
        that does not sift, which lies outside the group."""
        images = images.T  # one row per base point
        key = np.zeros(images.shape[1], dtype=np.int64)
        for k, terms in enumerate(self._terms):
            key += terms[images[0]]
            if k < len(self._inverses):  # apply the representative's inverse
                images = self._inverses[k][self._positions[k][images[0]], images[1:]]
        return key


class _Closure:
    """The group generated by a growing list of rows of a group, found by
    BFS on that group's base: only the new products become rows.

    The rows are the identity, then each BFS level's new products (row,
    then generator) in generator-major order of first occurrence.
    """

    def __init__(self, base: _Base, degree: int, gens: Sequence[np.ndarray] = ()):
        self.base = base
        ident = np.arange(degree, dtype=np.int64)[None]
        self.rows = ident
        self.keys = base.keys(ident[:, base.points])
        self._slot = np.full(base.size, -1, dtype=np.intp)  # key -> row index
        self._slot[self.keys] = 0
        self.gens = list(gens)
        self._grow(self.rows)

    def holds(self, keys: np.ndarray) -> np.ndarray:
        return self._slot[keys] >= 0

    def table(self) -> tuple[np.ndarray, _Base, np.ndarray]:
        return self.rows, self.base, self.keys

    def add(self, gen: np.ndarray) -> None:
        """Close again with one more generator.  The rows so far are closed
        under the other generators, so only their products with gen start
        the BFS."""
        self.gens.append(gen)
        self._grow(self.rows, [gen])

    def _grow(self, frontier: np.ndarray, first: list[np.ndarray] | None = None) -> None:
        """BFS from frontier, its first level by the generators first."""
        rows, keys, n = [self.rows], [self.keys], len(self.rows)
        gens = self.gens if first is None else first
        while len(frontier) and gens:
            images = frontier[:, self.base.points]
            level, level_keys = [], []
            for g in gens:
                prod_keys = self.base.keys(g[images])  # row, then g
                fresh = np.flatnonzero(self._slot[prod_keys] < 0)
                new, at = np.unique(prod_keys[fresh], return_index=True)
                order = np.argsort(at)  # first occurrences, in order
                self._slot[new[order]] = np.arange(n, n + len(new))
                n += len(new)
                level.append(g[frontier[fresh[at[order]]]])
                level_keys.append(new[order])
            frontier = np.concatenate(level)
            rows.append(frontier)
            keys.append(np.concatenate(level_keys))
            gens = self.gens
        self.rows, self.keys = np.concatenate(rows), np.concatenate(keys)


# ---------------------------------------------------------------------------
# Materialized groups
# ---------------------------------------------------------------------------


class PermGroup:
    """A finitely generated permutation group of fixed degree: its element
    table, a base of it and the key of each table row on that base."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: np.ndarray,
                 base: _Base, keys: np.ndarray):
        self.degree = degree
        self.generators = list(generators)
        self._elements = elements
        self._base = base
        self._keys = keys
        self._slot = np.full(base.size, -1, dtype=np.intp)  # key -> table index
        self._slot[keys] = np.arange(len(keys))
        self.order = len(elements)
        self._fingerprint: GroupFingerprint | None = None
        self._derived: PermGroup | None = None
        # quotient and coset table, keyed by the kernel's sorted table indices
        self._quotients: dict[bytes, tuple[PermGroup, tuple]] = {}

    def element_array(self) -> np.ndarray:
        return self._elements

    def elements(self) -> list[Permutation]:
        return [Permutation(row) for row in self.element_array()]

    def locate(self, rows) -> np.ndarray:
        """Table index of each row (an image sequence), -1 for a row outside
        the group: the key, then a full-row check."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.degree)
        keys = self._base.keys(rows[:, self._base.points])
        found = np.flatnonzero(keys < self._base.size)
        idx = np.full(len(rows), -1, dtype=np.intp)
        idx[found] = self._slot[keys[found]]
        found = found[idx[found] >= 0]
        same = np.all(self._elements[idx[found]] == rows[found], axis=1)
        idx[found[~same]] = -1
        return idx

    def _index(self, images: np.ndarray) -> np.ndarray:
        """Table indices of elements of the group, from their base images."""
        return self._slot[self._base.keys(images)]

    def _generator_rows(self) -> np.ndarray:
        return np.array([g.images for g in self.generators],
                        dtype=np.int64).reshape(-1, self.degree)

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return bool(self.locate(p.images)[0] >= 0)

    def same_elements(self, other: "PermGroup") -> bool:
        """Literal equality as subgroups of the same symmetric group."""
        return self.order == other.order and self.is_subgroup_of(other)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            return False
        return bool(np.all(other.locate(self._generator_rows()) >= 0))

    def random_element(self, rng: np.random.Generator) -> Permutation:
        arr = self.element_array()
        return Permutation(arr[int(rng.integers(len(arr)))])

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "generators": [list(g.images) for g in self.generators],
            "order": self.order,
            "fingerprint": fingerprint(self).to_json(),
        }

    @staticmethod
    def from_json(data: Mapping) -> "PermGroup":
        gens = [Permutation(g) for g in data["generators"]]
        group = generate_group(gens, degree=int(data["degree"]))
        if group.order != int(data["order"]):
            raise GroupError(f"recorded order {data['order']}, "
                             f"but the generators give {group.order}")
        return group

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def generate_group(generators: Sequence[Permutation],
                   degree: int | None = None) -> PermGroup:
    """Generate a group and its element table, by BFS on the base of a
    stabilizer chain of the generators.

    Raises ``GroupError`` above ``MATERIALIZE_CAP`` elements; ``bsgs_order``
    gives the order of such a group.
    """
    gens = list(generators)
    if degree is None:
        if not gens:
            raise GroupError("degree required for an empty generating set")
        degree = gens[0].degree
    for g in gens:
        if g.degree != degree:
            raise GroupError(f"degree mismatch: {g.degree} vs {degree}")
    chain = StabilizerChain(degree)
    for a in _moving_generators(gens):
        chain.extend(a)
    return chain_group(chain, gens)


def chain_group(chain: StabilizerChain, generators: Sequence[Permutation]) -> PermGroup:
    """The group of ``generators`` from a complete chain of them (one that
    every generator, in order, has extended), as :func:`generate_group`
    builds it: the identity and repeats extend no chain, so a chain
    extended by all of them is the one it builds."""
    if chain.order() > MATERIALIZE_CAP:
        raise GroupError(f"group has more than {MATERIALIZE_CAP} elements")
    base = _Base.of_chain(chain)
    closure = _Closure(base, chain.degree, _moving_generators(generators))
    return PermGroup(chain.degree, list(generators), *closure.table())


def _moving_generators(gens: Sequence[Permutation]) -> list[np.ndarray]:
    """The generators' image arrays without the identity and repeats, which
    extend no chain and make no product a BFS level has not seen before."""
    distinct = dict.fromkeys(g.images for g in gens if not g.is_identity())
    return [np.array(im, dtype=np.int64) for im in distinct]


def _subgroup(group: PermGroup, mask: np.ndarray) -> PermGroup:
    """The subgroup of the masked table rows, on the group's base."""
    sub = PermGroup(group.degree, [], group.element_array()[mask], group._base,
                    group._keys[mask])
    sub.generators = _reduced_generators(sub)
    return sub


def _reduced_generators(group: PermGroup) -> list[Permutation]:
    """The table rows that extend a stabilizer chain in turn: a small
    generating set.  A row extends the chain iff it lies outside the group
    generated by the rows taken before it, so each step takes the first
    row outside the closure of those rows."""
    rows = group.element_array()
    closure = _Closure(group._base, group.degree)
    while True:
        outside = np.flatnonzero(~closure.holds(group._keys))
        if not len(outside):
            return [Permutation(g) for g in closure.gens]
        closure.add(rows[outside[0]])


def _conjugates(hs: np.ndarray, gs: np.ndarray) -> np.ndarray:
    """The rows g^{-1} h g for every h in hs and g in gs, h-major."""
    ginv = np.argsort(gs, axis=1)
    step = hs[:, ginv]  # g^{-1}, then h
    conj = np.take_along_axis(np.broadcast_to(gs, step.shape), step, axis=2)  # ... then g
    return conj.reshape(-1, gs.shape[1])


def set_stabilizer(group: PermGroup, subset: Iterable[int]) -> PermGroup:
    """Subgroup of elements mapping the subset onto itself, by element scan."""
    sub = sorted(set(int(i) for i in subset))
    if sub and (sub[0] < 0 or sub[-1] >= group.degree):
        raise GroupError("subset out of range")
    rows = group.element_array()
    imgs = np.sort(rows[:, sub], axis=1) if sub else np.empty((len(rows), 0), dtype=np.int64)
    return _subgroup(group, np.all(imgs == np.array(sub, dtype=np.int64), axis=1))


def centralizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """Exact centralizer of sub in group, by element scan."""
    if group.degree != sub.degree:
        raise GroupError("degree mismatch")
    rows = group.element_array()
    mask = np.ones(len(rows), dtype=bool)
    for h in sub._generator_rows():
        mask &= np.all(h[rows] == rows[:, h], axis=1)  # row, then h == h, then row
    return _subgroup(group, mask)


def normalizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """Exact normalizer of sub in group, by element scan.  An element g
    normalizes sub iff g^{-1} h g lies in sub for every generator h."""
    if group.degree != sub.degree:
        raise GroupError("degree mismatch")
    rows = group.element_array()
    mask = np.ones(len(rows), dtype=bool)
    for h in sub._generator_rows():
        mask &= sub.locate(_conjugates(h[None], rows)) >= 0
    return _subgroup(group, mask)


def normalizes(group: PermGroup, sub: PermGroup) -> bool:
    """True iff every generator of group conjugates sub into itself."""
    if group.degree != sub.degree:
        raise GroupError("degree mismatch")
    conj = _conjugates(sub._generator_rows(), group._generator_rows())
    return bool(np.all(sub.locate(conj) >= 0))


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Commutator subgroup, the normal closure of the generator commutators,
    computed on the first call and kept on the group.

    A commutator or conjugate becomes a generator only when it lies outside
    the closure of the generators before it, so the closure ends normal
    with a small generating set.
    """
    if group._derived is None:
        base = group._base
        gens = group._generator_rows()
        inv = np.argsort(gens, axis=1)
        m = np.arange(len(gens))
        # [a,b] = a^{-1} b^{-1} a b under left-to-right composition, a-major
        step = inv[m[None, :, None], inv[:, None, :]]  # a^{-1}, then b^{-1}
        step = gens[m[:, None, None], step]  # ... then a
        comms = gens[m[None, :, None], step].reshape(-1, group.degree)  # ... then b
        closure = _Closure(base, group.degree)
        batches = deque([comms])
        while batches:
            batch = batches.popleft()
            for c, key in zip(batch, base.keys(batch[:, base.points])):
                if not closure.holds(key):
                    closure.add(c)
                    batches.append(_conjugates(c[None], gens))
        group._derived = PermGroup(group.degree, [Permutation(c) for c in closure.gens],
                                   *closure.table())
    return group._derived


def quotient_group(group: PermGroup, normal: PermGroup) -> PermGroup:
    """Quotient realized by the permutation action on cosets of the kernel.

    Built on the first call for a kernel and kept on the group, so kernels
    with the same elements share one quotient.
    """
    return _kept_quotient(group, normal)[0]


def _kept_quotient(group: PermGroup, normal: PermGroup) -> tuple[PermGroup, tuple]:
    """The quotient by normal together with its coset table."""
    if group.degree != normal.degree:
        raise GroupError("degree mismatch")
    inside = group.locate(normal.element_array())
    if np.any(inside < 0):
        raise GroupError("subgroup not contained in group")
    key = np.sort(inside).tobytes()
    if key not in group._quotients:
        if not normalizes(group, normal):
            raise GroupError("subgroup is not normal")
        table = _coset_table(group, normal)
        n_cosets = len(table[1])
        if n_cosets * normal.order != group.order:
            raise GroupError("coset decomposition inconsistent")
        qgens = [_coset_image(group, table, g) for g in group.generators]
        # the coset action is regular, so point 0 is a base of the quotient
        closure = _Closure(_Base.regular(n_cosets), n_cosets, _moving_generators(qgens))
        quotient = PermGroup(n_cosets, qgens or [identity(n_cosets)], *closure.table())
        group._quotients[key] = (quotient, table)
    return group._quotients[key]


def _coset_table(group: PermGroup, normal: PermGroup):
    """The cosets N.g of a normal subgroup in the group's table order, as a
    pair: the coset index of every table row, and the table index of the
    first row of each coset.

    Each element is labelled with the least table index of its coset, by
    min-label propagation over the maps g -> (h, then g), one per generator
    h of N, with pointer jumping.
    """
    rows = group.element_array()
    maps = [group._index(rows[:, h[group._base.points]]) for h in normal._generator_rows()]
    label = np.arange(len(rows))
    while True:
        new = label
        for m in maps:
            new = np.minimum(new, new[m])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    first = label == np.arange(len(rows))
    return np.cumsum(first)[label] - 1, np.flatnonzero(first)


def _coset_image(group: PermGroup, table, p: Permutation) -> Permutation:
    """Image of p, an element of the group, in the coset-action quotient."""
    coset_of, reps = table
    rep_images = group.element_array()[reps][:, group._base.points]
    parr = np.array(p.images, dtype=np.int64)
    return Permutation(coset_of[group._index(parr[rep_images])])  # rep, then p


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupFingerprint:
    """Cheap isomorphism proxy: order, center, abelianization, order histogram."""

    order: int
    center_order: int
    abelianization_invariants: tuple[int, ...]
    element_order_histogram: tuple[tuple[int, int], ...]
    is_abelian: bool

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "center_order": self.center_order,
            "abelianization_invariants": list(self.abelianization_invariants),
            "element_order_histogram": {str(k): v for k, v in self.element_order_histogram},
            "is_abelian": self.is_abelian,
        }

    def max_element_order(self) -> int:
        return max(k for k, _ in self.element_order_histogram)

    def has_element_of_order(self, n: int) -> bool:
        return any(k == n and v > 0 for k, v in self.element_order_histogram)


def element_order_histogram(group: PermGroup) -> dict[int, int]:
    """Number of elements of each order.  Two elements of the group that
    agree on its base are equal, so g^k is the identity iff it fixes the
    base: only the base images are powered, one pass per power."""
    rows, points = group.element_array(), group._base.points
    orders = np.zeros(len(rows), dtype=np.int64)
    power, k = np.ascontiguousarray(rows[:, points]), 1  # base images of g^k
    while not orders.all():
        orders[(orders == 0) & np.all(power == points, axis=1)] = k
        power, k = np.take_along_axis(rows, power, axis=1), k + 1  # g^k, then g
    values, counts = np.unique(orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def center_order(group: PermGroup) -> int:
    """Number of elements commuting with every generator, compared on the
    base (both products lie in the group)."""
    rows, points = group.element_array(), group._base.points
    mask = np.ones(len(rows), dtype=bool)
    for h in group._generator_rows():
        mask &= np.all(h[rows[:, points]] == rows[:, h[points]], axis=1)
    return int(mask.sum())


def abelian_invariants(group: PermGroup) -> tuple[int, ...]:
    """Elementary divisors of the abelianization, from order counting.

    For an abelian group A and prime p, the number of cyclic p-factors of
    order >= p^k equals log_p N(p^k) - log_p N(p^(k-1)), where N(m) counts
    solutions of x^m = 1.  That determines the multiset of prime-power
    factors.
    """
    derived = derived_subgroup(group)
    if derived.order == group.order:
        return ()
    ab = quotient_group(group, derived) if derived.order > 1 else group
    hist = element_order_histogram(ab)
    invs: list[int] = []
    for p in _prime_factors(ab.order):
        kmax = max(_p_valuation(o, p) for o in hist)
        m = []  # m[k-1] = number of cyclic p-factors of order >= p^k
        prev_log = 0
        for k in range(1, kmax + 1):
            nk = sum(c for o, c in hist.items() if p**k % o == 0)
            log_nk = round(math.log(nk, p))
            m.append(log_nk - prev_log)
            prev_log = log_nk
        m.append(0)
        for k in range(1, kmax + 1):
            invs.extend([p**k] * (m[k - 1] - m[k]))
    return tuple(sorted(invs))


def _p_valuation(o: int, p: int) -> int:
    v = 0
    while o % p == 0:
        o //= p
        v += 1
    return v


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def fingerprint(group: PermGroup) -> GroupFingerprint:
    """The group's fingerprint, computed on the first call and kept on it."""
    if group._fingerprint is None:
        hist = element_order_histogram(group)
        abelian = all(
            compose(a, b) == compose(b, a)
            for i, a in enumerate(group.generators)
            for b in group.generators[i + 1:]
        )
        group._fingerprint = GroupFingerprint(
            order=group.order,
            center_order=center_order(group),
            abelianization_invariants=abelian_invariants(group),
            element_order_histogram=tuple(sorted(hist.items())),
            is_abelian=abelian,
        )
    return group._fingerprint


# ---------------------------------------------------------------------------
# Named oracle groups
# ---------------------------------------------------------------------------


def _direct_product(parts: list[list[Permutation]]) -> list[Permutation]:
    """Generators of a direct product acting on the disjoint union."""
    degrees = [p[0].degree for p in parts]
    total = sum(degrees)
    gens = []
    offset = 0
    for part, deg in zip(parts, degrees):
        for g in part:
            imgs = list(range(total))
            for i, j in enumerate(g.images):
                imgs[offset + i] = offset + j
            gens.append(Permutation(imgs))
        offset += deg
    return gens


def _sym_gens(n: int) -> list[Permutation]:
    if n == 1:
        return [identity(1)]
    gens = [from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(from_cycles(n, [tuple(range(n))]))
    return gens


def _cyc_gens(n: int) -> list[Permutation]:
    return [from_cycles(n, [tuple(range(n))])]


def _asl2f3_gens() -> list[Permutation]:
    """ASL2(F3) acting on the 9 points of F3^2 (point (x,y) at index 3x+y)."""

    def to_perm(mat, vec):
        imgs = []
        for x in range(3):
            for y in range(3):
                nx = (mat[0][0] * x + mat[0][1] * y + vec[0]) % 3
                ny = (mat[1][0] * x + mat[1][1] * y + vec[1]) % 3
                imgs.append(3 * nx + ny)
        return Permutation(imgs)

    return [
        to_perm([[1, 0], [0, 1]], (1, 0)),
        to_perm([[1, 0], [0, 1]], (0, 1)),
        to_perm([[1, 1], [0, 1]], (0, 0)),
        to_perm([[0, -1], [1, 0]], (0, 0)),
    ]


def _pgo4p3_gens() -> list[Permutation]:
    """PGO4+(3) on the 40 points of P(F3^4).

    Model: isometries of the hyperbolic quadratic form q = x0*x1 + x2*x3
    over F3, generated by the reflections in anisotropic vectors, acting
    projectively.  The projective action is faithful for the quotient by
    the center {+-1}.
    """
    vecs = [(a, b, c, d) for a in range(3) for b in range(3)
            for c in range(3) for d in range(3)][1:]

    def q(v):
        return (v[0] * v[1] + v[2] * v[3]) % 3

    def bilinear(u, v):
        # polar form B(u,v) = q(u+v) - q(u) - q(v)
        w = tuple((a + b) % 3 for a, b in zip(u, v))
        return (q(w) - q(u) - q(v)) % 3

    # canonical projective representatives: first nonzero coordinate == 1
    def proj_rep(v):
        for c in v:
            if c % 3:
                if c % 3 == 2:
                    v = tuple((-x) % 3 for x in v)
                return v
        raise ValueError("zero vector")

    points = sorted({proj_rep(v) for v in vecs})
    index = {p: i for i, p in enumerate(points)}

    def reflect(v, a):
        # r_a(v) = v - B(v,a)/q(a) * a
        coef = (bilinear(v, a) * pow(q(a), -1, 3)) % 3
        return tuple((x - coef * y) % 3 for x, y in zip(v, a))

    gens = []
    seen = set()
    for a in vecs:
        if q(a) == 0:
            continue
        imgs = tuple(index[proj_rep(reflect(p, a))] for p in points)
        if imgs not in seen:
            seen.add(imgs)
            gens.append(Permutation(imgs))
    return gens


NAMED_GROUPS = (
    "C2xC2", "S3", "S4", "C6", "S3xC3", "S3xC2", "S3xS3", "S3xS3xS3",
    "S4xC2xC2", "S3xC2_sq", "ASL2F3", "PGO4p3_model",
)


@lru_cache(maxsize=None)
def named_group(name: str) -> PermGroup:
    """Oracle construction of a named group on a natural faithful domain,
    built once per name."""
    s3 = _sym_gens(3)
    c2 = _cyc_gens(2)
    builders = {
        "C2xC2": lambda: _direct_product([c2, c2]),
        "S3": lambda: s3,
        "S4": lambda: _sym_gens(4),
        "C6": lambda: _cyc_gens(6),
        "S3xC3": lambda: _direct_product([s3, _cyc_gens(3)]),
        "S3xC2": lambda: _direct_product([s3, c2]),
        "S3xS3": lambda: _direct_product([s3, s3]),
        "S3xS3xS3": lambda: _direct_product([s3, s3, s3]),
        "S4xC2xC2": lambda: _direct_product([_sym_gens(4), c2, c2]),
        "S3xC2_sq": lambda: _direct_product([s3, c2, s3, c2]),
        "ASL2F3": _asl2f3_gens,
        "PGO4p3_model": _pgo4p3_gens,
    }
    if name not in builders:
        raise GroupError(f"unknown named group {name!r}; choose from {NAMED_GROUPS}")
    return generate_group(builders[name]())


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def split_central_extension_check(big: PermGroup, center_gen: Permutation) -> str:
    """Classify the central extension big / <center_gen>.

    Returns "nonsplit_by_order8" when big has an element of order 8 and the
    quotient has none, "split" when a complement is found, else
    "inconclusive".  For a central subgroup of order 2 a complement has
    index 2, so the complement search (through the abelianization) is
    exhaustive: "inconclusive" means no complement exists but the order-8
    obstruction does not apply.  The fingerprint of big, the quotient by
    <center_gen> and the abelianization are the ones kept on big.
    """
    if center_gen.order() != 2:
        raise GroupError("center generator must have order 2")
    for g in big.generators:
        if compose(g, center_gen) != compose(center_gen, g):
            raise GroupError("center generator is not central")
    z = generate_group([center_gen], degree=big.degree)
    quotient = quotient_group(big, z)
    if (fingerprint(big).has_element_of_order(8)
            and element_order_histogram(quotient).get(8, 0) == 0):
        return "nonsplit_by_order8"
    # A complement to a central C2 has index 2, so one exists iff some
    # homomorphism big -> C2 is nonzero on the central involution.  Such
    # homomorphisms factor through the abelianization.
    derived = derived_subgroup(big)
    if center_gen in derived:
        return "inconclusive"
    if derived.order == 1:
        ab, zbar = big, center_gen
    else:
        ab, table = _kept_quotient(big, derived)
        zbar = _coset_image(big, table, center_gen)
    if _is_a_square(ab, zbar):
        return "inconclusive"
    return "split"


def _is_a_square(ab: PermGroup, el: Permutation) -> bool:
    """True iff el, an element of the abelian group A = ab, lies in 2A,
    i.e. no C2 character sees it.  In an abelian group the squares form the
    subgroup 2A, and it holds every element of odd order
    (x = (x^((o+1)/2))^2).  Squares and el are compared on the base."""
    rows, points = ab.element_array(), ab._base.points
    squares = np.take_along_axis(rows, rows[:, points], axis=1)  # row, then row
    return bool(np.all(squares == np.array(el.images, dtype=np.int64)[points], axis=1).any())


def diagonal_quotient_stabilizer(g_table: Sequence[Sequence[int]]) -> PermGroup:
    """Embedding of a finite group into S_n by its left regular action.

    The table entry g_table[i][j] is the index of g_i * g_j in a fixed
    enumeration with g_0 the identity.  Row i is then the permutation
    sigma_{g_i} with g_i * g_j = g_{sigma(j)}.
    """
    n = len(g_table)
    table = [[int(x) for x in row] for row in g_table]
    if any(len(row) != n for row in table):
        raise GroupError("table is not square")
    for row in table:
        if sorted(row) != list(range(n)):
            raise GroupError("table is not a Latin square")
    for j in range(n):
        if table[0][j] != j or table[j][0] != j:
            raise GroupError("index 0 is not an identity")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise GroupError("table is not associative")
    rows = np.array(table, dtype=np.int64)
    regular = PermGroup(n, [], rows, _Base.regular(n), rows[:, 0])  # row i maps 0 to i
    group = generate_group(_reduced_generators(regular) or [identity(n)], degree=n)
    if group.order != n:
        raise GroupError("regular image has wrong order")
    return group

