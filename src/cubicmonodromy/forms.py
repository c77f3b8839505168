"""Cubic forms in four variables and projective transformations.

Coefficient vectors are indexed by the 20 degree-3 monomials in
(x, y, z, w) in graded-lex order (x^3, x^2 y, x^2 z, x^2 w, x y^2, ...,
w^3).  Forms are normalized on construction so the largest coefficient
has modulus 1; this never changes the surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numeric import form_space

SPACE = form_space(4, 3)
MONOMIALS = SPACE.monomials


def monomial_index(exponents: tuple[int, int, int, int]) -> int:
    return SPACE.index[exponents]


class FormError(ValueError):
    """Invalid form or matrix (zero form, singular parameter, ...)."""


@dataclass(frozen=True)
class CubicForm:
    """A cubic surface in P^3, as 20 normalized complex coefficients."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex).reshape(-1)
        if c.shape != (20,):
            raise FormError(f"expected 20 coefficients, got {c.shape}")
        top = np.abs(c).max()
        if top == 0:
            raise FormError("form is identically zero")
        object.__setattr__(self, "coefficients", c / top)
        self.coefficients.setflags(write=False)

    @staticmethod
    def from_monomial_dict(terms: dict[tuple[int, int, int, int], complex]) -> "CubicForm":
        c = np.zeros(20, dtype=complex)
        for e, v in terms.items():
            c[monomial_index(e)] += v
        return CubicForm(c)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return SPACE.evaluate(self.coefficients, points)

    def transformed(self, m: np.ndarray) -> "CubicForm":
        """The form F(M x)."""
        return CubicForm(SPACE.compose_matrix(self.coefficients, np.asarray(m)))

    def invariance_residual(self, m: np.ndarray) -> float:
        """Projective invariance defect of F under x -> M x.

        Zero iff F(Mx) is proportional to F(x); measured after matching
        the largest coefficients, relative to the coefficient norm.
        """
        a = self.coefficients
        b = SPACE.compose_matrix(a, np.asarray(m))
        k = int(np.abs(a).argmax())
        if b[k] == 0:
            return 1.0
        return float(np.abs(b / b[k] * a[k] - a).max() / np.abs(a).max())

    def to_json(self) -> list[list[float]]:
        return [[float(c.real), float(c.imag)] for c in self.coefficients]

    @staticmethod
    def from_json(data) -> "CubicForm":
        return CubicForm(np.array([complex(re, im) for re, im in data]))


@dataclass(frozen=True)
class ProjectiveMatrix:
    """An invertible 4x4 matrix acting on P^3 (condition bounded by 1e12)."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (4, 4):
            raise FormError(f"expected a 4x4 matrix, got {m.shape}")
        if np.linalg.cond(m) > 1e12:
            raise FormError("matrix is numerically singular")
        object.__setattr__(self, "entries", m)
        self.entries.setflags(write=False)


ZETA3 = np.exp(2j * np.pi / 3)


def fermat_cubic() -> CubicForm:
    """x^3 + y^3 + z^3 + w^3."""
    return CubicForm.from_monomial_dict({
        (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
    })


def family_s4(a: complex) -> CubicForm:
    """a x^3 + x(y^2+z^2+w^2-yw-zw) + w(y-z)(w-y-z).

    Raises for a = 0; a = -1/2 is also a singular member (it surfaces as a
    solve failure rather than a construction error).
    """
    if a == 0:
        raise FormError("a = 0 gives a singular member of the S4 family")
    return CubicForm.from_monomial_dict({
        (3, 0, 0, 0): a,
        (1, 2, 0, 0): 1, (1, 0, 2, 0): 1, (1, 0, 0, 2): 1,
        (1, 1, 0, 1): -1, (1, 0, 1, 1): -1,
        # w(y-z)(w-y-z) = y w^2 - z w^2 - y^2 w + z^2 w
        (0, 1, 0, 2): 1, (0, 0, 1, 2): -1, (0, 2, 0, 1): -1, (0, 0, 2, 1): 1,
    })


def family_s3(a: complex, b: complex) -> CubicForm:
    """x^3+y^3+z^3+w^3 + (a x + b y) z w."""
    return CubicForm.from_monomial_dict({
        (3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1,
        (1, 0, 1, 1): a, (0, 1, 1, 1): b,
    })


def family_s3c2(a: complex) -> CubicForm:
    """x^3+y^3+z^3+w^3 + a(x+y) z w: the S3 family on its diagonal."""
    return family_s3(a, a)


def family_c2(linear: np.ndarray, cubic: np.ndarray) -> CubicForm:
    """x^2 L(y,z,w) + C3(y,z,w): the cubics with Eckardt point [1:0:0:0].

    These are exactly the forms invariant under diag(-1,1,1,1) whose x^3
    coefficient vanishes, so the isolated fixed point lies on the surface.
    ``linear`` holds the (y,z,w) coefficients of L; ``cubic`` the 10
    coefficients of C3 in graded-lex order on (y,z,w).
    """
    lin = np.asarray(linear, dtype=complex).reshape(-1)
    cub = np.asarray(cubic, dtype=complex).reshape(-1)
    if lin.shape != (3,) or cub.shape != (10,):
        raise FormError("need 3 linear and 10 cubic coefficients")
    terms: dict[tuple[int, int, int, int], complex] = {}
    for c, e in zip(lin, ((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        terms[(2,) + e] = c
    space3 = form_space(3, 3)
    for c, e in zip(cub, space3.monomials):
        terms[(0,) + e] = terms.get((0,) + e, 0) + c
    if not any(terms.values()):
        raise FormError("form is identically zero")
    return CubicForm.from_monomial_dict(terms)


def random_cubic(rng: np.random.Generator) -> CubicForm:
    """A random cubic surface (smooth with probability 1)."""
    c = rng.normal(size=20) + 1j * rng.normal(size=20)
    return CubicForm(c)


# ---------------------------------------------------------------------------
# Symmetry generators of the explicit families
# ---------------------------------------------------------------------------


def s4_symmetry_matrices() -> list[ProjectiveMatrix]:
    """The (12), (13), (34) involutions generating S4 on the S4 family.

    The (13) entry at position (4,4) is +1: with -1 the matrix is a Jordan
    block (not an involution) and does not preserve the family.  The +1
    version squares to the identity, leaves the family invariant exactly,
    and is reproduced by the Eckardt-involution reconstruction at
    [0:1:0:0].
    """
    m12 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, -1]]
    m13 = [[1, 0, 0, 0], [0, -1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
    m34 = [[1, 0, 0, 0], [0, 0, -1, 0], [0, -1, 0, 0], [0, -1, -1, 1]]
    return [ProjectiveMatrix(np.array(m, dtype=complex)) for m in (m12, m13, m34)]


def s3_symmetry_matrices() -> list[ProjectiveMatrix]:
    """The (12), (13) generators of S3 acting on (z, w)."""
    m12 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                   dtype=complex)
    m13 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, ZETA3],
                    [0, 0, ZETA3**2, 0]], dtype=complex)
    return [ProjectiveMatrix(m12), ProjectiveMatrix(m13)]


def s3c2_symmetry_matrices() -> list[ProjectiveMatrix]:
    """S3 generators plus the central involution swapping x and y."""
    iota = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    dtype=complex)
    return s3_symmetry_matrices() + [ProjectiveMatrix(iota)]


def c2_symmetry_matrix() -> ProjectiveMatrix:
    return ProjectiveMatrix(np.diag([-1, 1, 1, 1]).astype(complex))


def fermat_symmetry_matrices() -> list[ProjectiveMatrix]:
    """Generators of Aut(Fermat) = C3^3 : S4, order 648.

    Coordinate permutations plus cube-root-of-unity scalings; the scalings
    are projective, so only three independent ones act.
    """
    perm4 = np.zeros((4, 4), dtype=complex)
    for i, j in enumerate((1, 2, 3, 0)):
        perm4[j, i] = 1
    swap = np.eye(4, dtype=complex)
    swap[[0, 1]] = swap[[1, 0]]
    gens = [ProjectiveMatrix(perm4), ProjectiveMatrix(swap)]
    for k in range(3):
        d = np.ones(4, dtype=complex)
        d[k + 1] = ZETA3
        gens.append(ProjectiveMatrix(np.diag(d)))
    return gens


def s4_eckardt_points() -> np.ndarray:
    """The six Eckardt points carrying the S4 action, rows p1..p6."""
    return np.array([
        [0, 0, 0, 1], [0, 1, 0, 0], [0, 1, 0, 1],
        [0, 1, 1, 1], [0, 0, 1, 0], [0, 0, 1, 1],
    ], dtype=complex)


def s3_eckardt_points() -> np.ndarray:
    """The three aligned Eckardt points p1, p2, p3 of the S3 family."""
    return np.array([
        [0, 0, 1, -1], [0, 0, 1, -ZETA3**2], [0, 0, 1, -ZETA3],
    ], dtype=complex)


def s3c2_eckardt_points() -> np.ndarray:
    """p1..p4 of the S3xC2 family: the aligned triple plus [1:-1:0:0]."""
    return np.vstack([s3_eckardt_points(), np.array([[1, -1, 0, 0]], dtype=complex)])


# ---------------------------------------------------------------------------
# Family specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistAction:
    """A generator of the residual symmetry group on parameters.

    ``param_matrix`` maps a parameter vector to the twisted one; the
    ``identification`` g satisfies evaluator(mapped params) = evaluator(params) o g
    up to scalar, i.e. g carries the lines of the image surface back to
    lines of the base surface.
    """

    name: str
    param_matrix: np.ndarray
    identification: ProjectiveMatrix


@dataclass(frozen=True)
class FamilySpec:
    """A parametrized family of forms with its symmetry data.

    ``coeff_map`` is the raw affine map from parameters to coefficient
    vectors.  Trackers interpolate raw vectors: straight segments in
    parameter space must stay straight in coefficient space, which the
    normalization in CubicForm would break.
    """

    name: str
    parameter_dim: int
    evaluator: object  # params (complex ndarray) -> CubicForm / PlaneCubicForm
    coeff_map: object  # params -> raw, affine coefficient vector
    symmetry_generators: tuple[ProjectiveMatrix, ...]
    known_punctures: tuple[complex, ...]
    twist_actions: tuple[TwistAction, ...] = ()
    degree: int = 27  # sheet count of the associated cover

    def form_at(self, params) -> CubicForm:
        return self.evaluator(np.atleast_1d(np.asarray(params, dtype=complex)))

    def raw_coeffs(self, params) -> np.ndarray:
        return self.coeff_map(np.atleast_1d(np.asarray(params, dtype=complex)))


def _vec(terms: dict[tuple[int, int, int, int], complex]) -> np.ndarray:
    c = np.zeros(20, dtype=complex)
    for e, v in terms.items():
        c[monomial_index(e)] += v
    return c


_FERMAT_VEC = _vec({(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1})
_XZW_VEC = _vec({(1, 0, 1, 1): 1})
_YZW_VEC = _vec({(0, 1, 1, 1): 1})
_X3_VEC = _vec({(3, 0, 0, 0): 1})
_S4_CONST_VEC = _vec({
    (1, 2, 0, 0): 1, (1, 0, 2, 0): 1, (1, 0, 0, 2): 1,
    (1, 1, 0, 1): -1, (1, 0, 1, 1): -1,
    (0, 1, 0, 2): 1, (0, 0, 1, 2): -1, (0, 2, 0, 1): -1, (0, 0, 2, 1): 1,
})


def generic20_family() -> FamilySpec:
    """The full 20-coefficient space of cubic surfaces."""
    return FamilySpec(
        name="Generic20",
        parameter_dim=20,
        evaluator=lambda p: CubicForm(p),
        coeff_map=lambda p: np.asarray(p, dtype=complex),
        symmetry_generators=(),
        known_punctures=(),
    )


def s4_family() -> FamilySpec:
    return FamilySpec(
        name="S4",
        parameter_dim=1,
        evaluator=lambda p: family_s4(p[0]),
        coeff_map=lambda p: _S4_CONST_VEC + p[0] * _X3_VEC,
        symmetry_generators=tuple(s4_symmetry_matrices()),
        known_punctures=(0j, -0.5 + 0j),
    )


def s3_family() -> FamilySpec:
    swap = TwistAction(
        name="swap_ab",
        param_matrix=np.array([[0, 1], [1, 0]], dtype=complex),
        identification=ProjectiveMatrix(np.array(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=complex)),
    )
    scale_a = TwistAction(
        name="zeta3_a",
        param_matrix=np.diag([ZETA3, 1]).astype(complex),
        identification=ProjectiveMatrix(np.diag([ZETA3, 1, 1, 1]).astype(complex)),
    )
    scale_b = TwistAction(
        name="zeta3_b",
        param_matrix=np.diag([1, ZETA3]).astype(complex),
        identification=ProjectiveMatrix(np.diag([1, ZETA3, 1, 1]).astype(complex)),
    )
    return FamilySpec(
        name="S3",
        parameter_dim=2,
        evaluator=lambda p: family_s3(p[0], p[1]),
        coeff_map=lambda p: _FERMAT_VEC + p[0] * _XZW_VEC + p[1] * _YZW_VEC,
        symmetry_generators=tuple(s3_symmetry_matrices()),
        known_punctures=(),
        twist_actions=(swap, scale_a, scale_b),
    )


def s3c2_family() -> FamilySpec:
    punctures = tuple(np.roots([4, 0, 0, 27]).astype(complex))
    twist = TwistAction(
        name="zeta3",
        param_matrix=np.array([[ZETA3]], dtype=complex),
        identification=ProjectiveMatrix(np.diag([ZETA3, ZETA3, 1, 1]).astype(complex)),
    )
    return FamilySpec(
        name="S3xC2",
        parameter_dim=1,
        evaluator=lambda p: family_s3c2(p[0]),
        coeff_map=lambda p: _FERMAT_VEC + p[0] * (_XZW_VEC + _YZW_VEC),
        symmetry_generators=tuple(s3c2_symmetry_matrices()),
        known_punctures=punctures,
        twist_actions=(twist,),
    )


def _c2_coeff_matrix() -> np.ndarray:
    cols = []
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        cols.append(_vec({(2,) + e: 1}))
    for e in form_space(3, 3).monomials:
        cols.append(_vec({(0,) + e: 1}))
    return np.array(cols).T  # (20, 13)


_C2_COEFF_MATRIX = _c2_coeff_matrix()


def c2_family() -> FamilySpec:
    """The 13-parameter linear presentation of the even cubics."""
    return FamilySpec(
        name="C2even",
        parameter_dim=13,
        evaluator=lambda p: family_c2(p[:3], p[3:]),
        coeff_map=lambda p: _C2_COEFF_MATRIX @ np.asarray(p, dtype=complex),
        symmetry_generators=(c2_symmetry_matrix(),),
        known_punctures=(),
    )


FAMILIES = {
    "Generic20": generic20_family,
    "S4": s4_family,
    "S3": s3_family,
    "S3xC2": s3c2_family,
    "C2even": c2_family,
}


def get_family(name: str) -> FamilySpec:
    if name not in FAMILIES:
        raise FormError(f"unknown family {name!r}; choose from {sorted(FAMILIES)}")
    return FAMILIES[name]()
