"""Topological invariants of Landau-Ginzburg models.

Jacobi rings of bulk fields (re-exported from ``residue``), defect operators
with field insertions, quantum dimensions and Chern characters, the bulk and
boundary (Kapustin-Li) pairings, truncated morphism cohomology, the Cardy
identity, and the shadow and generalised boundary-bulk maps.  Everything is
exact over the rationals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg, polymat, signs
from .adjunction import AdjointData, DefectEnd, _project
from .mf import (MatrixFactorisation, Morphism, _boundary_columns,
                 _check_bound, _equations, _matrix_vector, _vector_matrix,
                 dual, shift, str_matrix)
from .residue import JacobiElement, JacobiRing, _rep
from .ring import Poly, embed, embed_matrix, partial_derivative


class ParityWarning(UserWarning):
    """The closed defect formulas are asserted only for even variable counts;
    the raw residue is still computed and flagged."""


# -- defect operators --------------------------------------------------------

@dataclass
class DefectOperator:
    """A linear map Jac(source) -> Jac(target), stored by basis images."""

    source: JacobiRing
    target: JacobiRing
    images: list  # JacobiElement per source basis monomial

    def apply(self, el) -> JacobiElement:
        coords = self.source.coordinates(self.source.reduce(el))
        acc = self.target.zero()
        for c, img in zip(coords, self.images):
            if c:
                acc = acc + img.scale(c)
        return acc

    def matrix(self):
        """Columns over the source basis, rows over the target basis."""
        return polymat.transpose(
            [self.target.coordinates(img) for img in self.images])

    def compose(self, other: "DefectOperator") -> "DefectOperator":
        """self after other."""
        if other.target != self.source:
            raise ValueError("operators are not composable")
        return DefectOperator(other.source, self.target,
                              [self.apply(img) for img in other.images])

    def scale(self, c) -> "DefectOperator":
        return DefectOperator(self.source, self.target,
                              [img.scale(c) for img in self.images])

    def is_identity(self) -> bool:
        """Identity under the canonical identification of the quotient bases
        (the source may live in renamed copies of the target variables)."""
        if self.source.basis.monomials != self.target.basis.monomials:
            return False
        ident = [[Fraction(1) if i == j else Fraction(0)
                  for j in range(self.source.dimension)]
                 for i in range(self.target.dimension)]
        return self.matrix() == ident

    def __eq__(self, other):
        return (isinstance(other, DefectOperator)
                and self.source == other.source
                and self.target == other.target
                and [i.rep for i in self.images] == [i.rep for i in other.images])


def _str_with_derivatives(M, X: MatrixFactorisation, names) -> Poly:
    """str(M dd/dv_1 ... dd/dv_k) for d = d_X, with M embedded in X's ring
    (0 of that ring at rank 0)."""
    if not X.rank:
        return X.ctx.zero()
    prod = embed_matrix(M, X.ctx)
    for name in names:
        D = [[partial_derivative(e, name) for e in row] for row in X.d]
        prod = polymat.mat_mul(prod, D)
    return str_matrix(prod, X.parity)


def defect_supertrace(data: AdjointData, Phi=None) -> Poly:
    """str(Phi dd/dx_1 ... dd/dx_n dd/dz_1 ... dd/dz_m) over the joint ring;
    Phi is an even endomorphism of the base, the identity when omitted."""
    if Phi is None:
        M = polymat.identity(data.base.ctx, data.base.rank)
    elif Phi.parity:
        raise ValueError("field insertion must be even")
    else:
        M = Phi.mat
    return _str_with_derivatives(M, data.base,
                                 data.source.names + data.target.names)


def _parity_warn(data: AdjointData):
    if data.n % 2 or data.m % 2:
        warnings.warn(
            f"defect operator evaluated with odd variable count "
            f"(n={data.n}, m={data.m}); the closed formula is asserted "
            f"only for even counts", ParityWarning, stacklevel=3)


def _defect_wrap(integrand: Poly, over: DefectEnd, onto: DefectEnd, k: int,
                 fields) -> list:
    """(-1)^{C(k+1,2)} Res[f integrand dx / d(over)] in Jac(onto), per f.

    The residue runs over the variables of the end ``over`` and lands in the
    ring of the end ``onto``.
    """
    sign = signs.minus_one_to(signs.binom2(k + 1))
    ctx = over.base.ctx
    read = over.ring.residue_plan().placed(ctx)
    return [onto.ring.reduce(_project(read(embed(f, ctx) * integrand),
                                      onto.ring.ctx) * sign) for f in fields]


def defect_operator(data: AdjointData, side: str,
                    Phi: Morphism | None = None) -> DefectOperator:
    """Wrapping the defect, with the field Phi inserted on it, around bulk
    insertions: 'right' maps Jac(W) -> Jac(V), 'left' Jac(V) -> Jac(W)."""
    over, onto = data.ends(side)
    _parity_warn(data)
    images = _defect_wrap(defect_supertrace(data, Phi), over, onto,
                          len(onto.names),
                          [b.rep for b in over.ring.basis_elements()])
    return DefectOperator(over.ring, onto.ring, images)


def defect_act(data: AdjointData, field: Poly, side: str) -> JacobiElement:
    """The defect action of ``side`` on one bulk field (one residue).

    Equals ``defect_operator(data, side).apply(field)`` without forming the
    images of the whole Jacobi basis; ``defect_act(data, 1, side)`` is the
    quantum dimension.
    """
    over, onto = data.ends(side)
    _parity_warn(data)
    return _defect_wrap(defect_supertrace(data), over, onto, len(onto.names),
                        [over.ring.reduce(field).rep])[0]


def dual_defect(data: AdjointData) -> AdjointData:
    """The dual factorisation read as a defect in the opposite direction."""
    return AdjointData(dual(data.base), data.target.potential,
                       data.source.potential)


def shifted_defect(data: AdjointData) -> AdjointData:
    return AdjointData(shift(data.base), data.source.potential,
                       data.target.potential)


# -- boundary-bulk and bulk-boundary -----------------------------------------

def boundary_bulk(X: MatrixFactorisation, psi,
                  ring: JacobiRing) -> JacobiElement:
    """The boundary-bulk map: (-1)^{C(n+1,2)} str(psi dd/dx_1...dd/dx_n)
    in ``ring``, the Jacobi ring of X's potential."""
    n = len(ring.ctx.names)
    sign = signs.minus_one_to(signs.binom2(n + 1))
    return ring.reduce(_str_with_derivatives(psi.mat, X, ring.ctx.names)
                       * sign)


def chern_character(X: MatrixFactorisation, ring: JacobiRing) -> JacobiElement:
    return boundary_bulk(X, X.identity(), ring)


def bulk_boundary(X: MatrixFactorisation, phi) -> Morphism:
    """phi . Id_X: a bulk field acting as a central boundary endomorphism."""
    rep = phi.rep if isinstance(phi, JacobiElement) else phi
    rep = embed(rep, X.ctx)
    mat = [[e * rep for e in row] for row in polymat.identity(X.ctx, X.rank)]
    return Morphism(X, X, 0, mat)


# -- pairings ----------------------------------------------------------------

def _constant(p: Poly) -> Fraction:
    if p.is_zero():
        return Fraction(0)
    if not p.is_constant():
        raise ValueError(f"residue did not evaluate to a scalar: {p!r}")
    return p.constant_value()


def bulk_pairing(phi1, phi2, ring: JacobiRing) -> Fraction:
    """The two-point bulk correlator Res[phi1 phi2 dx / dW] on Jac(W)."""
    p = embed(_rep(phi1, ring), ring.ctx) * embed(_rep(phi2, ring), ring.ctx)
    return _constant(ring.residue_plan()(p))


def _require_endomorphism(f: Morphism, X: MatrixFactorisation, name: str,
                          even: bool = False):
    """Raise ValueError unless f maps X to X (and is even, if asked)."""
    if f.source is not X or f.target is not X:
        raise ValueError(f"{name} is not an endomorphism of {X!r}")
    if even and f.parity:
        raise ValueError(f"{name} must be even")


def kapustin_li_pairing(psi1: Morphism, psi2: Morphism,
                        X: MatrixFactorisation, ring: JacobiRing) -> Fraction:
    """The boundary correlator Res[str(psi1 psi2 dd...dd) dx / dW] of two
    endomorphisms of X, with ``ring`` the Jacobi ring of W."""
    _require_endomorphism(psi1, X, "psi1")
    _require_endomorphism(psi2, X, "psi2")
    num = _str_with_derivatives(polymat.mat_mul(psi1.mat, psi2.mat), X,
                                ring.ctx.names)
    return _constant(ring.residue_plan()(num))


def bulk_gram_matrix(ring: JacobiRing) -> list:
    """The bulk pairing on the monomial basis of the Jacobi ring."""
    read = ring.residue_plan().placed(ring.ctx)
    els = [b.rep for b in ring.basis_elements()]
    return [[_constant(read(a * b)) for b in els] for a in els]


# -- morphism cohomology -----------------------------------------------------

@dataclass
class HomCohomology:
    """Even/odd cohomology of the morphism complex, truncated by degree."""

    X: MatrixFactorisation
    Y: MatrixFactorisation
    bound: int
    h0: list                    # list of closed even Morphisms
    h1: list                    # list of closed odd Morphisms
    stable: bool                # dimensions agree at bound + 1
    # per parity p, the span of the coboundary columns at ``bound``
    # (boundaries of parity p ^ 1 maps), kept for the Cardy supertrace
    coboundaries: tuple = field(repr=False, compare=False)

    @property
    def dimensions(self):
        return (len(self.h0), len(self.h1))


def _classes_at(X, Y, bound, ctx):
    """Per parity: cocycle representatives of the classes on entries of
    degree <= bound, the span of the coboundary columns they were selected
    against, and the class count at bound + 1.  Each boundary system is
    built once, at bound + 1, with the unknowns of degree <= bound first, so
    their kernel vectors and columns are those at the bound.  A cocycle is a
    new class iff its remainder modulo the span is independent of the
    earlier classes' remainders.  As delta^2 = 0, the count at bound + 1 is
    dim Z - dim B + rank(B's parts above bound + 1).

    A coboundary span takes only the columns that are not free in the other
    parity's kernel: the kernel vector of a free column has that column as
    its largest key, so the column is a combination of earlier ones and
    would reduce to zero in the span."""
    top = bound + 1
    # keys below ``low_key`` have degree <= bound, keys from ``high_key``
    # on have degree > top
    low_key, high_key = ctx.lowest(top), ctx.lowest(top + 1)
    systems = []
    for p in (0, 1):
        dom, cols = _boundary_columns(X, Y, p, top, ctx)
        order = sorted(range(len(dom)), key=lambda k: dom[k][2] >= low_key)
        systems.append(([dom[k] for k in order], [cols[k] for k in order],
                        sum(m < low_key for _, _, m in dom)))
    kernels = [linalg.nullspace(_equations(cols)[0], len(dom), low)
               for dom, cols, low in systems]
    coboundaries = []
    for (_, cols, low), (_, cocycles) in zip(reversed(systems),
                                             reversed(kernels)):
        free = {max(vec) for vec in cocycles}
        coboundaries.append(linalg.Span(
            [col for k, col in enumerate(cols[:low]) if k not in free]))
    classes = []
    for (dom, _, _), (_, cocycles), cob in zip(systems, kernels,
                                               coboundaries):
        reps = ({dom[k]: c for k, c in vec.items()} for vec in cocycles)
        chosen = linalg.Span()
        classes.append([d for d in reps if chosen.add_remainder(d, cob)])
    ranks = [rank for rank, _ in kernels]
    counts = [len(systems[p][0]) - ranks[p] - ranks[p ^ 1] + linalg.rank(
        _equations([{k: c for k, c in col.items() if k[2] >= high_key}
                    for col in systems[p ^ 1][1]])[0]) for p in (0, 1)]
    return classes, tuple(coboundaries), counts


def default_cohomology_bound(X: MatrixFactorisation) -> int:
    return 2 * max(1, X.potential.total_degree())


def hom_cohomology(X: MatrixFactorisation, Y: MatrixFactorisation,
                   degree_bound: int | None = None) -> HomCohomology:
    """Cocycles modulo coboundaries on entries of degree <= degree_bound."""
    if X.potential != Y.potential:
        raise ValueError("factorisations of different potentials")
    _check_bound(degree_bound)
    bound = default_cohomology_bound(X) if degree_bound is None else degree_bound
    ctx = Y.ctx.merge(X.ctx)
    classes, coboundaries, counts = _classes_at(X, Y, bound, ctx)
    stable = [len(c) for c in classes] == counts
    h0, h1 = [[Morphism(X, Y, parity, _vector_matrix(d, Y.rank, X.rank, ctx))
               for d in reps] for parity, reps in enumerate(classes)]
    return HomCohomology(X=X, Y=Y, bound=bound, h0=h0, h1=h1, stable=stable,
                         coboundaries=coboundaries)


# -- the Cardy identity ------------------------------------------------------

@dataclass
class CardyReport:
    lhs: Fraction
    rhs: Fraction
    equal: bool
    stable: bool
    bound: int
    dimensions: tuple


def _cohomology_supertrace(coh: HomCohomology, phi: Morphism,
                           psi: Morphism) -> Fraction:
    """Supertrace of alpha -> psi o alpha o phi on the truncated cohomology."""
    X, Y = coh.X, coh.Y
    ctx = Y.ctx.merge(X.ctx)
    total = Fraction(0)
    for parity, basis in ((0, coh.h0), (1, coh.h1)):
        if not basis:
            continue
        images = [psi.compose(b).compose(phi) for b in basis]
        # coboundary columns at the bound itself do not always contain the
        # composite's class; above the bound, build them at its degree
        deg = max([coh.bound] + [e.total_degree() for im in images
                                 for row in im.mat for e in row
                                 if not e.is_zero()])
        span = (coh.coboundaries[parity] if deg == coh.bound else
                linalg.Span(_boundary_columns(X, Y, parity ^ 1, deg, ctx)[1]))
        bas = [span.reduce(_matrix_vector(b.mat, ctx)) for b in basis]
        ims = [span.reduce(_matrix_vector(im.mat, ctx)) for im in images]
        for k, im in enumerate(ims):
            sol = linalg.solve(*_equations(bas, im))
            if sol is None:
                raise RuntimeError("composite class escapes the truncated basis")
            total += (1 if parity == 0 else -1) * sol.get(k, 0)
    return total


def cardy_check(X: MatrixFactorisation, Y: MatrixFactorisation,
                phi: Morphism | None = None, psi: Morphism | None = None,
                degree_bound: int | None = None) -> CardyReport:
    """Both sides of the Cardy condition for the pair (X, Y).

    lhs: the supertrace of alpha -> psi o alpha o phi on the cohomology of
    the morphism complex.  rhs: (-1)^{C(n+1,2)} Res[beta_X(phi) beta_Y(psi)
    dx / dW].  phi and psi must be even endomorphisms of X and of Y.
    """
    phi = X.identity() if phi is None else phi
    psi = Y.identity() if psi is None else psi
    _require_endomorphism(phi, X, "phi", even=True)
    _require_endomorphism(psi, Y, "psi", even=True)
    ring = JacobiRing(X.potential)
    n = len(ring.ctx.names)
    coh = hom_cohomology(X, Y, degree_bound)
    lhs = _cohomology_supertrace(coh, phi, psi)
    bx = boundary_bulk(X, phi, ring)
    by = boundary_bulk(Y, psi, ring)
    sign = signs.minus_one_to(signs.binom2(n + 1))
    rhs = Fraction(sign) * bulk_pairing(bx, by, ring)
    return CardyReport(lhs=lhs, rhs=rhs, equal=(lhs == rhs),
                       stable=coh.stable, bound=coh.bound,
                       dimensions=coh.dimensions)


# -- shadows and the generalised boundary-bulk map ---------------------------

@dataclass
class ShadowDescription:
    """The shadow of the unit: the Jacobi ring placed in parity n mod 2."""

    ring: JacobiRing
    parity: int

    @property
    def dimension(self) -> int:
        return self.ring.dimension


def shadow_of_unit(ring: JacobiRing) -> ShadowDescription:
    return ShadowDescription(ring=ring, parity=len(ring.ctx.names) % 2)


def generalized_boundary_bulk(data: AdjointData,
                              psi: Morphism) -> JacobiElement:
    """(-1)^{C(m+1,2)} Res_z[str(psi dd/dx...dd/dz...) dz / dV] in Jac(W)."""
    # not defect_supertrace, which takes even insertions only: psi may be odd
    num = _str_with_derivatives(psi.mat, data.base,
                                data.source.names + data.target.names)
    over, onto = data.ends("left")
    return _defect_wrap(num, over, onto, len(over.names),
                        [data.base.ctx.one()])[0]
