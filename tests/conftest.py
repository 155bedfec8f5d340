"""Shared desk-scale corpus: potentials, factorisations, defects."""

from fractions import Fraction

import pytest

from lgmf import linalg, polymat
from lgmf.adjunction import AdjointData, KoszulValuedMap
from lgmf.mf import MatrixFactorisation, Morphism, mf_rename, new_mf
from lgmf.ring import RingContext, embed_matrix, rename
from lgmf.unit import koszul_unit


def canonical_coefficient(c) -> bool:
    """The one form of a polynomial coefficient: a nonzero int, or a
    Fraction with denominator > 1 (so never a float, a bool or
    Fraction(n))."""
    return ((type(c) is int and c != 0)
            or (type(c) is Fraction and c.denominator > 1))


def dense_invertible(matrix) -> bool:
    """Whether a square matrix given as dense lists is invertible."""
    return linalg.invertible(
        [{c: x for c, x in enumerate(row) if x} for row in matrix],
        len(matrix))


def kvm_difference(a: KoszulValuedMap, b: KoszulValuedMap) -> KoszulValuedMap:
    """a - b as a map with a's shape (integration data must agree)."""
    if (a.integration_names != b.integration_names
            or len(a.mat) != len(b.mat)):
        raise ValueError("maps have incompatible shapes")
    ctx = a._joint_ctx().merge(b._joint_ctx())
    mat = polymat.mat_sub(embed_matrix(a.mat, ctx), embed_matrix(b.mat, ctx))
    return KoszulValuedMap(kind=f"{a.kind}-diff", source=a.source,
                           target=a.target, parity=a.parity,
                           mat=mat, integration_names=a.integration_names,
                           denominators=a.denominators)


def ctx_of(*names) -> RingContext:
    return RingContext(list(names))


def corpus_potentials():
    """The five one- and two-variable potentials used throughout."""
    cx = ctx_of("x")
    cxy = ctx_of("x", "y")
    x = cx.gen("x")
    u, v = cxy.gen("x"), cxy.gen("y")
    return {
        "x^3": x ** 3,
        "x^4": x ** 4,
        "xy": u * v,
        "x^2-y^2": u ** 2 - v ** 2,
        "x^3-y^3": u ** 3 - v ** 3,
    }


def corpus_boundary_mfs():
    """Rank-two boundary factorisations (d0, d1 both 1x1)."""
    pots = corpus_potentials()
    out = {}

    def mk(key, f, g):
        W = pots[key]
        label = f"{key}:({f},{g})".replace(" ", "")
        out[label] = new_mf(
            W.ctx, W,
            [[parse(f, W.ctx)]], [[parse(g, W.ctx)]])

    from lgmf.ring import parse_poly as parse
    mk("x^3", "x", "x^2")
    mk("x^4", "x", "x^3")
    mk("x^4", "x^2", "x^2")
    mk("xy", "x", "y")
    mk("x^2-y^2", "x - y", "x + y")
    mk("x^3-y^3", "x - y", "x^2 + x*y + y^2")
    return out


def boundary_defect(X: MatrixFactorisation) -> AdjointData:
    """A factorisation of W as a defect from the empty theory to W."""
    empty = RingContext([])
    return AdjointData(X, empty.zero(), X.potential)


def line_defect(power: int) -> AdjointData:
    """The (x - y)-factorisation of x^power - y^power as a defect
    y^power -> x^power."""
    cs = ctx_of("y")
    ct = ctx_of("x")
    ctx = ct.merge(cs)
    x, y = ctx.gen("x"), ctx.gen("y")
    cof = sum((x ** k * y ** (power - 1 - k) for k in range(power)),
              ctx.zero())
    X = new_mf(ctx, x ** power - y ** power, [[x - y]], [[cof]])
    return AdjointData(X, cs.gen("y") ** power, ct.gen("x") ** power)


def delta_defect(W, src_names=None) -> AdjointData:
    """The stabilised diagonal of W read as an identity defect.

    The source copy gets fresh letter-suffixed names so the koszul units
    built on either side do not collide with the doubled context.
    """
    ctx = W.ctx
    unit = koszul_unit(W)
    mids = (tuple(n + "s" for n in ctx.names)
            if src_names is None else tuple(src_names))
    D = mf_rename(unit, dict(zip(unit.prime_names, mids)))
    sctx = RingContext(list(mids))
    Wsrc = rename(W, dict(zip(ctx.names, mids)), sctx)
    return AdjointData(D, Wsrc, W)


@pytest.fixture(scope="session")
def potentials():
    return corpus_potentials()


@pytest.fixture(scope="session")
def boundary_mfs():
    return corpus_boundary_mfs()


@pytest.fixture(scope="session")
def corpus_defects():
    """Three defects with source and target theories, plus boundaries."""
    mfs = corpus_boundary_mfs()
    return {
        "boundary x^3": boundary_defect(mfs["x^3:(x,x^2)"]),
        "line y^2->x^2": line_defect(2),
        "line y^3->x^3": line_defect(3),
    }


@pytest.fixture
def eta_x3(boundary_mfs):
    """The odd closed endomorphism [[0, -x], [1, 0]] of the x^3 boundary."""
    X = boundary_mfs["x^3:(x,x^2)"]
    cx = X.ctx
    x = cx.gen("x")
    return Morphism(X, X, 1, [[cx.zero(), -x], [cx.one(), cx.zero()]])
