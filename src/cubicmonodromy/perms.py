"""Exact permutation and finite-group engine.

Permutations act on {0..n-1}.  ``compose(p, q)`` means "apply p, then q",
so tracking two loops in succession composes their permutations in path
order.  Groups are immutable once generated; all queries are read-only.

A group is its explicit element table, which makes stabilizers,
centralizers, normalizers and quotients exact by scan.  Generating a group
of more than ``MATERIALIZE_CAP`` elements raises ``GroupError``; the order
of such a group is still available from a Schreier-Sims stabilizer chain
(``bsgs_order``), which also cross-checks the orders of the tables.
Derived data (the fingerprint, the derived subgroup, quotients with their
coset tables) is computed on first use and kept on the group.
"""

from __future__ import annotations

import math
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
# Schreier-Sims stabilizer chain (order computation without an element table)
# ---------------------------------------------------------------------------


class StabilizerChain:
    """Deterministic Schreier-Sims chain with incremental extension.

    Strong generators live in a single pool; level k uses the pool members
    fixing base[:k] pointwise.  Completion runs a global fixpoint: rebuild
    all orbits, then hunt for a Schreier generator that does not sift to
    the identity.  Residues are products of pool members, so adding them
    never changes the generated group, only completes the chain.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.pool: list[np.ndarray] = []
        self.base: list[int] = []
        self.transversals: list[dict[int, np.ndarray]] = []
        self._identity = np.arange(degree, dtype=np.int64)

    def order(self) -> int:
        n = 1
        for tr in self.transversals:
            n *= len(tr)
        return n

    def extend(self, arr: np.ndarray) -> bool:
        """Add one generator; True if the group grew."""
        arr = np.asarray(arr, dtype=np.int64)
        _, residue = self._sift(arr)
        if np.all(residue == self._identity):
            return False
        self.pool.append(residue)
        self._complete()
        return True

    def _gens_at(self, k: int) -> list[np.ndarray]:
        prefix = self.base[:k]
        return [g for g in self.pool if all(int(g[b]) == b for b in prefix)]

    def _sift(self, arr: np.ndarray, start: int = 0) -> tuple[int, np.ndarray]:
        for k in range(start, len(self.base)):
            img = int(arr[self.base[k]])
            tr = self.transversals[k]
            rep = tr.get(img)
            if rep is None:
                return k, arr
            arr = np.argsort(rep)[arr]  # apply arr, then rep^{-1}
        return len(self.base), arr

    def _rebuild_orbit(self, k: int) -> None:
        beta = self.base[k]
        tr = {beta: self._identity}
        frontier = [beta]
        gens = self._gens_at(k)
        while frontier:
            new = []
            for pt in frontier:
                rep = tr[pt]
                for g in gens:
                    img = int(g[pt])
                    if img not in tr:
                        tr[img] = g[rep]  # rep, then g
                        new.append(img)
            frontier = new
        self.transversals[k] = tr

    def _ensure_base(self) -> None:
        for g in self.pool:
            if np.all(g == self._identity):
                continue
            if all(int(g[b]) == b for b in self.base):
                moved = int(np.nonzero(g != self._identity)[0][0])
                self.base.append(moved)
                self.transversals.append({moved: self._identity})

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
        for k in range(len(self.base)):
            beta = self.base[k]
            tr = self.transversals[k]
            gens = self._gens_at(k)
            for pt, rep in tr.items():
                for g in gens:
                    sg = g[rep]  # rep, then g
                    t = tr[int(sg[beta])]
                    schreier = np.argsort(t)[sg]
                    if np.all(schreier == self._identity):
                        continue
                    _, residue = self._sift(schreier, start=k + 1)
                    if not np.all(residue == self._identity):
                        return residue
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


# ---------------------------------------------------------------------------
# Materialized groups
# ---------------------------------------------------------------------------


def _close_elements(degree: int, gen_arrays: list[np.ndarray]) -> np.ndarray:
    """BFS closure of a generating set, at most ``MATERIALIZE_CAP`` elements."""
    ident = np.arange(degree, dtype=np.int64)
    seen = {ident.tobytes()}
    rows = [ident]
    frontier = np.array([ident])
    while len(frontier):
        new_rows = []
        for g in gen_arrays:
            prods = g[frontier]  # row, then g
            for r in prods:
                key = r.tobytes()
                if key not in seen:
                    seen.add(key)
                    new_rows.append(r)
        if len(seen) > MATERIALIZE_CAP:
            raise GroupError(f"group has more than {MATERIALIZE_CAP} elements")
        if not new_rows:
            break
        frontier = np.array(new_rows)
        rows.extend(new_rows)
    return np.array(rows, dtype=np.int64)


class PermGroup:
    """A finitely generated permutation group of fixed degree."""

    def __init__(self, degree: int, generators: Sequence[Permutation], elements: np.ndarray):
        self.degree = degree
        self.generators = list(generators)
        self._elements = elements
        self._element_keys = frozenset(r.tobytes() for r in elements)
        self.order = len(elements)
        self._fingerprint: GroupFingerprint | None = None
        self._derived: PermGroup | None = None
        # quotient and coset table, keyed by the element set of the kernel
        self._quotients: dict[frozenset[bytes], tuple[PermGroup, tuple]] = {}

    def element_array(self) -> np.ndarray:
        return self._elements

    def elements(self) -> list[Permutation]:
        return [Permutation(row) for row in self.element_array()]

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return np.array(p.images, dtype=np.int64).tobytes() in self._element_keys

    def contains_key(self, key: bytes) -> bool:
        return key in self._element_keys

    def same_elements(self, other: "PermGroup") -> bool:
        """Literal equality as subgroups of the same symmetric group."""
        return self.order == other.order and self.is_subgroup_of(other)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.degree != other.degree:
            return False
        return all(g in other for g in self.generators)

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
    """Generate a group and its element table.

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
    arrays = [np.array(g.images, dtype=np.int64) for g in gens]
    return PermGroup(degree, gens, _close_elements(degree, arrays))


def _conjugate_rows(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row-wise g h g^{-1} for every g in rows (composition left-to-right)."""
    inv = np.argsort(rows, axis=1)
    step = h[inv]  # g^{-1} then h
    return np.take_along_axis(rows, step, axis=1)  # ... then g


def set_stabilizer(group: PermGroup, subset: Iterable[int]) -> PermGroup:
    """Subgroup of elements mapping the subset onto itself, by element scan."""
    sub = sorted(set(int(i) for i in subset))
    if sub and (sub[0] < 0 or sub[-1] >= group.degree):
        raise GroupError("subset out of range")
    rows = group.element_array()
    imgs = np.sort(rows[:, sub], axis=1) if sub else np.empty((len(rows), 0), dtype=np.int64)
    mask = np.all(imgs == np.array(sub, dtype=np.int64), axis=1)
    kept = rows[mask]
    return PermGroup(group.degree, _reduced_generators(kept, group.degree), kept)


def _reduced_generators(rows, degree: int) -> list[Permutation]:
    """The rows (image sequences) that extend a stabilizer chain in turn:
    a small generating set of the group that all of them generate."""
    chain = StabilizerChain(degree)
    return [Permutation(row) for row in rows if chain.extend(row)]


def centralizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """Exact centralizer of sub in group, by element scan."""
    if group.degree != sub.degree:
        raise GroupError("degree mismatch")
    rows = group.element_array()
    mask = np.ones(len(rows), dtype=bool)
    for h in sub.generators:
        harr = np.array(h.images, dtype=np.int64)
        conj = _conjugate_rows(rows, harr)
        mask &= np.all(conj == harr, axis=1)
    kept = rows[mask]
    return PermGroup(group.degree, _reduced_generators(kept, group.degree), kept)


def normalizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """Exact normalizer of sub in group, by element scan."""
    if group.degree != sub.degree:
        raise GroupError("degree mismatch")
    rows = group.element_array()
    mask = np.ones(len(rows), dtype=bool)
    for h in sub.generators:
        harr = np.array(h.images, dtype=np.int64)
        conj = _conjugate_rows(rows, harr)
        inside = np.fromiter(
            (sub.contains_key(c.tobytes()) for c in conj), dtype=bool, count=len(conj)
        )
        mask &= inside
    kept = rows[mask]
    return PermGroup(group.degree, _reduced_generators(kept, group.degree), kept)


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Commutator subgroup, via normal closure of generator commutators,
    computed on the first call and kept on the group."""
    if group._derived is not None:
        return group._derived
    gens = group.generators
    degree = group.degree
    gen_arrays = [np.array(g.images, dtype=np.int64) for g in gens]
    comms: list[np.ndarray] = []
    for a in gen_arrays:
        ainv = np.argsort(a)
        for b in gen_arrays:
            binv = np.argsort(b)
            # [a,b] = a^{-1} b^{-1} a b under left-to-right composition
            comm = b[a[binv[ainv]]]
            comms.append(comm)
    # normal closure: conjugate the generating set by group generators until stable
    closure_gens: dict[bytes, np.ndarray] = {c.tobytes(): c for c in comms}
    frontier = list(closure_gens.values())
    while frontier:
        new = []
        for c in frontier:
            for g in gen_arrays:
                ginv = np.argsort(g)
                conj = g[c[ginv]]
                key = conj.tobytes()
                if key not in closure_gens:
                    closure_gens[key] = conj
                    new.append(conj)
        frontier = new
    group._derived = generate_group(_reduced_generators(closure_gens.values(), degree),
                                    degree=degree)
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
    key = normal._element_keys
    if key not in group._quotients:
        for h in normal.generators:
            if h not in group:
                raise GroupError("subgroup not contained in group")
            for g in group.generators:
                conj = compose(compose(g.inverse(), h), g)
                if conj not in normal:
                    raise GroupError("subgroup is not normal")
        table = _coset_table(group, normal)
        n_cosets = len(table[1])
        if n_cosets * normal.order != group.order:
            raise GroupError("coset decomposition inconsistent")
        qgens = [_coset_image(table, g) for g in group.generators]
        quotient = generate_group(qgens or [identity(n_cosets)], degree=n_cosets)
        group._quotients[key] = (quotient, table)
    return group._quotients[key]


def _coset_table(group: PermGroup, normal: PermGroup):
    """The cosets N.g of a normal subgroup, as a pair: the coset index of
    every element of the group, and one representative per coset."""
    nrows = normal.element_array()
    coset_of: dict[bytes, int] = {}
    reps: list[np.ndarray] = []
    for row in group.element_array():
        if row.tobytes() in coset_of:
            continue
        for p in row[nrows]:  # apply n, then row: the coset N.row
            coset_of[p.tobytes()] = len(reps)
        reps.append(row)
    return coset_of, reps


def _coset_image(table, p: Permutation) -> Permutation:
    """Image of p in the coset-action quotient, as a quotient permutation."""
    coset_of, reps = table
    parr = np.array(p.images, dtype=np.int64)
    return Permutation([coset_of[parr[rep].tobytes()] for rep in reps])


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
    """Number of elements of each order, by powering the whole element table
    until every row reaches the identity (one pass per power)."""
    rows = group.element_array()
    orders = np.zeros(len(rows), dtype=np.int64)
    power, k = rows, 1
    while not orders.all():
        orders[(orders == 0) & np.all(power == np.arange(group.degree), axis=1)] = k
        power, k = np.take_along_axis(rows, power, axis=1), k + 1  # power, then row
    values, counts = np.unique(orders, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def center_order(group: PermGroup) -> int:
    rows = group.element_array()
    mask = np.ones(len(rows), dtype=bool)
    for h in group.generators:
        harr = np.array(h.images, dtype=np.int64)
        mask &= np.all(harr[rows] == rows[:, harr], axis=1)
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
        zbar = _coset_image(table, center_gen)
    if _is_a_square(ab, zbar):
        return "inconclusive"
    return "split"


def _is_a_square(ab: PermGroup, el: Permutation) -> bool:
    """True iff el lies in 2A for the abelian group A = ab, i.e. no C2
    character sees it.  In an abelian group the squares form the subgroup
    2A, and it holds every element of odd order (x = (x^((o+1)/2))^2)."""
    rows = ab.element_array()
    squares = np.take_along_axis(rows, rows, axis=1)  # row, then row
    return bool(np.all(squares == np.array(el.images, dtype=np.int64), axis=1).any())


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
    group = generate_group(_reduced_generators(table, n) or [identity(n)], degree=n)
    if group.order != n:
        raise GroupError("regular image has wrong order")
    return group


def are_conjugate_subgroups(ambient: PermGroup, a: PermGroup, b: PermGroup) -> bool:
    """Search ambient for an element conjugating a onto b (exact scan)."""
    if a.order != b.order:
        return False
    if a.same_elements(b):
        return True
    if fingerprint(a) != fingerprint(b):
        return False
    rows = ambient.element_array()
    gen_arrays = [np.array(g.images, dtype=np.int64) for g in a.generators]
    ok = np.ones(len(rows), dtype=bool)
    for garr in gen_arrays:
        conj = _conjugate_rows(rows, garr)
        inside = np.fromiter(
            (b.contains_key(c.tobytes()) for c in conj), dtype=bool, count=len(conj)
        )
        ok &= inside
        if not ok.any():
            return False
    return bool(ok.any())
