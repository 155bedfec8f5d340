"""Z2-graded matrix factorisations and their morphisms.

A factorisation is stored as one square odd matrix d over its context with a
parity vector for the basis (even block first for freshly constructed ones,
interleaved for tensor products), satisfying d^2 = potential * Id.  Morphisms
are parity-homogeneous polynomial matrices; homotopies are found by exact
degree-bounded linear solves over Q.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, polymat
from .ring import (LIMIT, ExponentOverflow, Poly, RingContext, _clean,
                   _no_overflow, embed, embed_matrix, partial_derivative, rename,
                   rename_matrix)


class FactorisationError(ValueError):
    pass


class MatrixFactorisation:
    """A finite-rank Z2-graded free module with odd differential d, d^2 = W."""

    def __init__(self, ctx: RingContext, potential: Poly, parity, d,
                 validate: bool = True, factors=None):
        self.ctx = ctx
        self.potential = embed(potential, ctx)
        self.parity = tuple(parity)
        self.d = embed_matrix(d, ctx)
        r = len(self.parity)
        if len(self.d) != r or any(len(row) != r for row in self.d):
            raise FactorisationError("differential shape does not match rank")
        self.factors = factors  # (Y, X) for tensor products, else None
        if validate:
            failures = self.validation_failures()
            if failures:
                sample = "; ".join(
                    f"(d^2 - W)[{i}][{j}] = {p}" for i, j, p in failures[:4])
                raise FactorisationError(f"d^2 != W*Id: {sample}")

    # -- structure ----------------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.parity)

    @property
    def rank_even(self) -> int:
        return sum(1 for p in self.parity if p == 0)

    @property
    def rank_odd(self) -> int:
        return sum(1 for p in self.parity if p == 1)

    def validation_failures(self):
        """Offending entries of d^2 - W*Id (empty iff valid)."""
        out = []
        dd = polymat.mat_mul(self.d, self.d)
        for i in range(self.rank):
            for j in range(self.rank):
                want = self.potential if i == j else self.ctx.zero()
                if dd[i][j] != want:
                    out.append((i, j, dd[i][j] - want))
        for i in range(self.rank):
            for j in range(self.rank):
                if self.parity[i] == self.parity[j] and not self.d[i][j].is_zero():
                    out.append((i, j, self.d[i][j]))
        return out

    def max_entry_degree(self) -> int:
        return max((e.total_degree() for row in self.d for e in row), default=0)

    def identity(self) -> "Morphism":
        return Morphism(self, self, 0, polymat.identity(self.ctx, self.rank))

    def __repr__(self):
        return (f"MatrixFactorisation(rank {self.rank_even}+{self.rank_odd} "
                f"over {self.ctx.names}, W = {self.potential})")


def new_mf(ctx: RingContext, W: Poly, d0, d1) -> MatrixFactorisation:
    """Build a factorisation from its two blocks (even basis listed first).

    d0 maps the even basis to the odd one (ro x re) and d1 back (re x ro);
    blocks of other shapes raise FactorisationError."""
    d0 = embed_matrix(d0, ctx)
    d1 = embed_matrix(d1, ctx)
    re = len(d0[0]) if d0 else len(d1)
    ro = len(d0)
    if (any(len(row) != re for row in d0) or len(d1) != re
            or any(len(row) != ro for row in d1)):
        shapes = [f"{len(m)}x{len(m[0]) if m else 0}" for m in (d0, d1)]
        raise FactorisationError(f"blocks of shapes {shapes[0]} and "
                                 f"{shapes[1]} do not form a square odd "
                                 f"differential")
    parity = (0,) * re + (1,) * ro
    d = polymat.zeros(ctx, re + ro, re + ro)
    for a in range(ro):
        for b in range(re):
            d[re + a][b] = d0[a][b]
    for a in range(re):
        for b in range(ro):
            d[a][re + b] = d1[a][b]
    return MatrixFactorisation(ctx, W, parity, d)


def trivial_mf(ctx: RingContext) -> MatrixFactorisation:
    """The rank-(1,0) factorisation of 0 with d = 0 (the ring itself)."""
    return MatrixFactorisation(ctx, ctx.zero(), (0,), [[ctx.zero()]])


@dataclass
class Morphism:
    """A parity-homogeneous map of factorisations (matrix on basis columns).

    Entries live in the merged context of source and target; source entries
    are embedded as needed.
    """

    source: MatrixFactorisation
    target: MatrixFactorisation
    parity: int
    mat: list

    def __post_init__(self):
        ctx = self.target.ctx.merge(self.source.ctx)
        self.ctx = ctx
        self.mat = embed_matrix(self.mat, ctx)
        if len(self.mat) != self.target.rank or any(
                len(r) != self.source.rank for r in self.mat):
            raise ValueError("morphism shape mismatch")
        tp, sp = self.target.parity, self.source.parity
        for i, row in enumerate(self.mat):
            for j, e in enumerate(row):
                if e.packed and (tp[i] ^ sp[j]) != self.parity:
                    raise ValueError(f"entry [{i}][{j}] = {e} is not of "
                                     f"parity {self.parity}")

    def boundary(self) -> "Morphism":
        """delta(f) = d_T f - (-1)^{|f|} f d_S (zero iff f is closed)."""
        return Morphism(self.source, self.target, self.parity ^ 1,
                        _delta(self.target.d, self.mat, self.source.d,
                               self.parity, self.ctx))

    def verifies(self, phi: "Morphism") -> bool:
        """Whether this map is a null-homotopy of phi: boundary == phi."""
        return self.boundary() == phi

    def is_closed(self) -> bool:
        return polymat.is_zero_matrix(self.boundary().mat)

    def is_zero(self) -> bool:
        return polymat.is_zero_matrix(self.mat)

    def _check_parity(self, other: "Morphism"):
        if self.parity != other.parity:
            raise ValueError(f"morphisms of parity {self.parity} and "
                             f"{other.parity} cannot be added or subtracted")

    def __add__(self, other: "Morphism") -> "Morphism":
        self._check_parity(other)
        return Morphism(self.source, self.target, self.parity,
                        polymat.mat_add(self.mat, other.mat))

    def __sub__(self, other: "Morphism") -> "Morphism":
        self._check_parity(other)
        return Morphism(self.source, self.target, self.parity,
                        polymat.mat_sub(self.mat, other.mat))

    def __neg__(self) -> "Morphism":
        return self.scale(-1)

    def scale(self, c) -> "Morphism":
        return Morphism(self.source, self.target, self.parity,
                        polymat.mat_scale(self.mat, c))

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other: A -> B, self: B -> C)."""
        ctx = self.ctx.merge(other.ctx)
        a = embed_matrix(self.mat, ctx)
        b = embed_matrix(other.mat, ctx)
        return Morphism(other.source, self.target,
                        (self.parity + other.parity) % 2, polymat.mat_mul(a, b))

    def __eq__(self, other):
        if not (isinstance(other, Morphism) and self.parity == other.parity):
            return False
        ctx = self.ctx.merge(other.ctx)
        return polymat.mat_eq(embed_matrix(self.mat, ctx),
                              embed_matrix(other.mat, ctx))


def str_matrix(mat, parity) -> Poly:
    """sum_i (-1)^{parity_i} mat[i][i]; None for a rank-0 matrix, which
    names no context."""
    acc = None
    for i, p in enumerate(parity):
        t = mat[i][i] if p == 0 else -mat[i][i]
        acc = t if acc is None else acc + t
    return acc


def supertrace(phi: Morphism) -> Poly:
    """Supertrace of an even endomorphism (0 of its context at rank 0)."""
    if phi.source is not phi.target and phi.source.parity != phi.target.parity:
        raise ValueError("supertrace needs an endomorphism")
    if phi.parity != 0:
        raise ValueError("supertrace needs an even morphism")
    if not phi.source.rank:
        return phi.ctx.zero()
    return str_matrix(phi.mat, phi.source.parity)


# -- functors ----------------------------------------------------------------

def dual(X: MatrixFactorisation) -> MatrixFactorisation:
    """The dual factorisation of -W on the dual basis e_i^*."""
    d = [[(X.d[j][i] if X.parity[i] == 0 else -X.d[j][i])
          for j in range(X.rank)] for i in range(X.rank)]
    return MatrixFactorisation(X.ctx, -X.potential, X.parity, d)


def dual_morphism(phi: Morphism) -> Morphism:
    """The dual of a morphism: phi^v(nu) = (-1)^{|phi||nu|} nu o phi."""
    rows = phi.source.rank
    cols = phi.target.rank
    mat = [[phi.mat[j][i] * (-1) ** (phi.parity * phi.target.parity[j])
            for j in range(cols)] for i in range(rows)]
    return Morphism(dual(phi.target), dual(phi.source), phi.parity, mat)


def shift(X: MatrixFactorisation, k: int = 1) -> MatrixFactorisation:
    """Parity flip with negated differential, applied k mod 2 times."""
    if k % 2 == 0:
        return MatrixFactorisation(X.ctx, X.potential, X.parity, X.d,
                                   validate=False, factors=X.factors)
    return MatrixFactorisation(
        X.ctx, X.potential, tuple(p ^ 1 for p in X.parity),
        polymat.mat_scale(X.d, -1), validate=False)


def mf_rename(X: MatrixFactorisation, mapping) -> MatrixFactorisation:
    """Rename the context variables of a factorisation (injective by name)."""
    new_names = [mapping.get(n, n) for n in X.ctx.names]
    ctx = RingContext(new_names)
    d = rename_matrix(X.d, mapping, target_ctx=ctx)
    pot = rename(X.potential, mapping, target_ctx=ctx)
    return MatrixFactorisation(ctx, pot, X.parity, d, validate=False)


def tensor(Y: MatrixFactorisation,
           X: MatrixFactorisation) -> MatrixFactorisation:
    """Tensor product factorisation with Koszul signs (not validated).

    Basis is the flat row-major pair basis (a, b) -> a * rank(X) + b with
    parity sums; shared middle variables are identified by name through the
    merged context; the potential is the sum of the two potentials.

    d(e_a (x) e_b) = d_Y e_a (x) e_b + (-1)^|a| e_a (x) d_X e_b: each entry
    of d_Y (embedded once) and of d_X (embedded once, negated once if Y has
    an odd basis vector) is placed into its cells as the same immutable
    Poly, and only a cell that both terms reach holds a sum.
    """
    ctx = Y.ctx.merge(X.ctx)
    ry, rx = Y.rank, X.rank
    parity = tuple((Y.parity[a] + X.parity[b]) % 2
                   for a in range(ry) for b in range(rx))
    dY = embed_matrix(Y.d, ctx)
    dX = [(j, b, e) for j, row in enumerate(embed_matrix(X.d, ctx))
          for b, e in enumerate(row) if e.packed]
    negated = ([(j, b, -e) for j, b, e in dX]
               if any(p % 2 for p in Y.parity) else None)
    zero = ctx.zero()
    d = polymat.zeros(ctx, ry * rx, ry * rx)
    for a in range(ry):
        for i in range(ry):
            e = dY[i][a]
            if e.packed:
                for b in range(rx):
                    d[i * rx + b][a * rx + b] = e
    for a in range(ry):
        base = a * rx
        for j, b, e in (negated if Y.parity[a] % 2 else dX):
            row = d[base + j]
            cell = row[base + b]
            row[base + b] = e if cell is zero else cell + e
    pot = embed(Y.potential, ctx) + embed(X.potential, ctx)
    return MatrixFactorisation(ctx, pot, parity, d, validate=False,
                               factors=(Y, X))


def tensor_morphism(f: Morphism, g: Morphism) -> Morphism:
    """(f (x) g)(y (x) x) = (-1)^{|g||y|} f(y) (x) g(x)."""
    S = tensor(f.source, g.source)
    T = tensor(f.target, g.target)
    ctx = T.ctx.merge(S.ctx).merge(f.ctx).merge(g.ctx)
    rxs, rxt = g.source.rank, g.target.rank
    mat = polymat.zeros(ctx, T.rank, S.rank)
    for a in range(f.source.rank):
        sgn = (-1) ** (g.parity * f.source.parity[a])
        for i in range(f.target.rank):
            fe = embed(f.mat[i][a], ctx)
            if fe.is_zero():
                continue
            for b in range(rxs):
                for j in range(rxt):
                    ge = embed(g.mat[j][b], ctx)
                    if ge.is_zero():
                        continue
                    mat[i * rxt + j][a * rxs + b] = (
                        mat[i * rxt + j][a * rxs + b] + fe * ge * sgn)
    return Morphism(S, T, (f.parity + g.parity) % 2, mat)


# -- homotopies ---------------------------------------------------------------

def _delta(dT, K, dS, parity: int, ctx: RingContext):
    """d_T K - (-1)^parity K d_S, every matrix embedded in ``ctx``: the
    boundary of a map K of that parity (its commutator with d when odd)."""
    K = embed_matrix(K, ctx)
    left = polymat.mat_mul(embed_matrix(dT, ctx), K)
    right = polymat.mat_mul(K, embed_matrix(dS, ctx))
    return (polymat.mat_add if parity % 2 else polymat.mat_sub)(left, right)


def _monomials_up_to(ctx: RingContext, bound: int):
    """Keys of the monomials of total degree <= bound, in increasing lex
    order of their exponent tuples."""
    if bound >= LIMIT and ctx.names:
        raise ExponentOverflow(bound)
    out = [0] if bound >= 0 else []
    for unit in ctx._units:
        out = [m + e * unit for m in out
               for e in range(bound - ctx.degree(m) + 1)]
    return out


def _check_bound(bound):
    """Refuse a negative degree bound; None stands for a default."""
    if bound is not None and bound < 0:
        raise ValueError(f"negative degree bound {bound}")


def _boundary_columns(source: MatrixFactorisation, target: MatrixFactorisation,
                      parity: int, bound: int, ctx: RingContext, reduce=None):
    """The boundary delta(h) = d_T h - (-1)^{|h|} h d_S as sparse columns.

    The domain is the parity-homogeneous matrices h: source -> target with
    entries of degree <= bound: one unknown (i, j, mono) per slot and
    monomial, slot-major, then by sorted monomial.  Column k maps
    (row, col, exp) to the nonzero coefficients of delta of unknown k.
    ``reduce``, a linear map on entries such as a normal form, is applied to
    every entry of delta first.  Returns (domain, columns).
    """
    monos = _monomials_up_to(ctx, bound)
    domain = [(i, j, m) for i in range(target.rank) for j in range(source.rank)
              if (target.parity[i] + source.parity[j]) % 2 == parity
              for m in monos]
    dT = embed_matrix(target.d, ctx)
    dS = embed_matrix(source.d, ctx)
    # the terms of column i of d_T and of row j of d_S, the latter signed
    # by -(-1)^{|h|}
    left = [[(r, exp, c) for r in range(target.rank)
             for exp, c in dT[r][i].packed.items()]
            for i in range(target.rank)]
    right = [[(b, exp, c if parity else -c) for b in range(source.rank)
              for exp, c in dS[j][b].packed.items()]
             for j in range(source.rank)]
    if domain:
        _no_overflow(max([exp for side in (left, right) for terms in side
                          for _, exp, _ in terms], default=0) + max(monos))
    columns = []
    for (i, j, m) in domain:
        col = {}
        for r, exp, c in left[i]:
            key = (r, j, exp + m)
            if key in col:
                col[key] += c
            else:
                col[key] = c
        for b, exp, c in right[j]:
            key = (i, b, exp + m)
            if key in col:
                col[key] += c
            else:
                col[key] = c
        if reduce is not None:
            entries = {}
            for (r, b, exp), c in col.items():
                entries.setdefault((r, b), {})[exp] = c
            col = {(r, b, exp): c for (r, b), terms in entries.items()
                   for exp, c in reduce(_clean(ctx, terms)).packed.items()}
        columns.append({k: v for k, v in col.items() if v})
    return domain, columns


def _equations(columns, rhs=None):
    """The system sum_k x_k columns[k] = rhs on the sorted keys of the columns
    and of rhs: one sparse row {k: coefficient} per key, and each row's
    right-hand side (0 where rhs has no entry)."""
    rhs = {} if rhs is None else rhs
    rows = {key: {} for key in rhs}
    for k, col in enumerate(columns):
        for key, c in col.items():
            row = rows.get(key)
            if row is None:
                rows[key] = {k: c}
            else:
                row[k] = c
    keys = sorted(rows)
    return [rows[key] for key in keys], [rhs.get(key, 0) for key in keys]


def _matrix_vector(mat, ctx, reduce=None):
    """A matrix of Poly as the sparse vector {(i, j, exp): coefficient},
    with ``reduce`` applied to every entry first."""
    out = {}
    for i, row in enumerate(mat):
        for j, e in enumerate(row):
            e = embed(e, ctx)
            if reduce is not None:
                e = reduce(e)
            for exp, c in e.packed.items():
                out[(i, j, exp)] = c
    return out


def _vector_matrix(vec, rows: int, cols: int, ctx: RingContext):
    """The rows x cols matrix of Poly with the sparse vector's terms."""
    entries = {}
    for (i, j, exp), c in vec.items():
        entries.setdefault((i, j), {})[exp] = c
    return [[_clean(ctx, entries[(i, j)]) if (i, j) in entries else ctx.zero()
             for j in range(cols)] for i in range(rows)]


def _solve_boundary(source: MatrixFactorisation, target: MatrixFactorisation,
                    parity: int, bound: int, ctx: RingContext, rhs,
                    reduce=None):
    """Entries of h with delta(h) = rhs (a matrix of Poly), or None.

    h has the given parity and entries of degree <= bound; with ``reduce``
    the equation holds after reducing every entry.
    """
    domain, columns = _boundary_columns(source, target, parity, bound, ctx,
                                        reduce)
    rows, b = _equations(columns, _matrix_vector(rhs, ctx, reduce))
    sol = linalg.solve(rows, b)
    if sol is None:
        return None
    return _vector_matrix({domain[k]: c for k, c in sol.items()},
                          target.rank, source.rank, ctx)


def default_homotopy_bound(phi: Morphism) -> int:
    degs = [phi.source.potential.total_degree(), 0,
            phi.source.max_entry_degree(), phi.target.max_entry_degree(),
            max((e.total_degree() for row in phi.mat for e in row), default=0)]
    return max(degs[0], 0) + max(degs[1:])


def null_homotopy_search(phi: Morphism, degree_bound: int | None = None):
    """Exact witness h with boundary(h) = phi, entry degrees <= bound, or None.

    h is a Morphism of parity |phi| + 1.  The linear system on the unknown
    coefficients is solved over Q; a found witness is re-verified exactly
    before being returned.
    """
    _check_bound(degree_bound)
    if degree_bound is None:
        degree_bound = default_homotopy_bound(phi)
    hpar = phi.parity ^ 1
    hmat = _solve_boundary(phi.source, phi.target, hpar, degree_bound,
                           phi.ctx, phi.mat)
    if hmat is None:
        return None
    h = Morphism(phi.source, phi.target, hpar, hmat)
    if not h.verifies(phi):
        raise RuntimeError("homotopy witness failed exact re-verification")
    return h


def homotopic(f: Morphism, g: Morphism):
    """A homotopy witness for f - g at the default bound, or None."""
    return null_homotopy_search(f - g)


@dataclass
class NullHomotopySet:
    """Per-variable odd endomorphisms with [d, lambda_v] = sign * dW_v * Id."""

    mf: MatrixFactorisation
    side: str                    # 'source' or 'target'
    entries: dict                # name -> Morphism (odd endomorphism)
    order: tuple                 # variable names in operator order

    def product(self):
        """The composite Lambda = lambda_1 o ... o lambda_n as a matrix."""
        return self.permuted_product(range(1, len(self.order) + 1))

    def permuted_product(self, sigma):
        """Lambda with factors permuted: lambda_{sigma(1)} ... lambda_{sigma(n)}."""
        ctx = self.mf.ctx
        out = polymat.identity(ctx, self.mf.rank)
        for s in sigma:
            out = polymat.mat_mul(out, self.entries[self.order[s - 1]].mat)
        return out


def _commutator_mismatch(X: MatrixFactorisation, lam, name: str, sgn):
    """The first (i, j) where [d, lam] != sgn * dW/d(name) * Id, else None."""
    comm = _delta(X.d, lam, X.d, 1, X.ctx)
    want = partial_derivative(X.potential, name) * sgn
    for i in range(X.rank):
        for j in range(X.rank):
            if comm[i][j] != (want if i == j else X.ctx.zero()):
                return i, j
    return None


def default_null_homotopies(X: MatrixFactorisation, var_names,
                            side: str) -> NullHomotopySet:
    """lambda_v = -d/dv(d_X) for source-side vars, +d/dv(d_X) for target-side.

    Each entry is verified exactly: [d, lambda_v] = -(resp +) d/dv(potential).
    """
    if side not in ("source", "target"):
        raise ValueError("side must be 'source' or 'target'")
    sgn = -1 if side == "source" else 1
    entries = {}
    for name in var_names:
        lam = polymat.mat_scale(
            polymat.mat_map(lambda e: partial_derivative(e, name), X.d), sgn)
        bad = _commutator_mismatch(X, lam, name, sgn)
        if bad is not None:
            raise FactorisationError(
                f"[d, lambda_{name}] != {sgn}*dW/d{name}*Id at ({bad[0]},{bad[1]})")
        entries[name] = Morphism(X, X, 1, lam)
    return NullHomotopySet(mf=X, side=side, entries=entries,
                           order=tuple(var_names))

