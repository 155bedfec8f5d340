"""Declarative workspace files: rings, potentials, factorisations, defects.

One flat line-oriented grammar (no REPL): every computation is batch and
reproducible.  Polynomial expressions use the textual grammar of
:func:`lgmf.ring.parse_poly` (signed sums of terms with ``^``, ``*`` and
integer or ``p/q`` coefficients).

    # comment
    ring R = [x, y]
    potential W on R = x^3 - y^3
    mf X on W = ([x - y], [x^2 + x*y + y^2])
    defect D from W to V = ([...], [...])
    morphism f : X -> X parity 1 = [[0, -x], [1, 0]]

A flat bracket list in a factorisation denotes a diagonal block; a nested
list is a full matrix block (d0, d1).  A morphism's ends factor one potential.
Each bracket list is cut at its top-level commas in one scan of its
punctuation, recursing into the nested lists; brackets that do not balance
there raise an "unbalanced brackets" error.
Readers raise ``WorkspaceError`` (or ``ring.ExponentOverflow``, for a monomial
past the exponent limit) without a line; ``parse_workspace`` adds it in one
handler per declaration line, ``load_workspace`` for a non-UTF-8 byte.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .adjunction import AdjointData
from .mf import FactorisationError, MatrixFactorisation, Morphism, new_mf
from .ring import (PRIME_SUFFIX, ExponentOverflow, ParseError, Poly,
                   RingContext, _tokenize, embed, parse_poly as ring_parse_poly)


class WorkspaceError(ValueError):
    """A parse or resolution failure, carrying file position."""

    def __init__(self, message, line=None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


# -- polynomial expressions --------------------------------------------------

def parse_poly(text: str, ctx: RingContext) -> Poly:
    """An exact polynomial from the textual grammar, with workspace errors."""
    try:
        return ring_parse_poly(text, ctx)
    except (ParseError, ExponentOverflow) as exc:
        raise WorkspaceError(f"bad expression {text!r}: {exc}") from None


def _parse_matrix_literal(text: str):
    """Nested bracket lists with arbitrary expression leaves, kept as text."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise WorkspaceError(f"expected a bracket list, got {text!r}")
    return [_parse_matrix_literal(i) if i.startswith("[") else i
            for i in _list_items(text, 1, len(text) - 1)]


def _block_to_matrix(block, ctx):
    """A flat list is a diagonal block; a nested list is a full matrix."""
    if all(isinstance(e, str) for e in block):
        polys = [parse_poly(e, ctx) for e in block]
        k = len(polys)
        return [[polys[i] if i == j else ctx.zero() for j in range(k)]
                for i in range(k)]
    if not all(isinstance(row, list) for row in block):
        raise WorkspaceError("matrix block mixes rows and entries")
    return [[parse_poly(e, ctx) for e in row] for row in block]


_PUNCTUATION = re.compile(r"[\[\](),]")


def _split_top(text, start, end):
    """The stripped items of text[start:end] between commas outside
    brackets, sliced out in one scan of its punctuation.  Brackets (``[``
    and ``(`` alike) must balance there."""
    depth, items = 0, []
    for m in _PUNCTUATION.finditer(text, start, end):
        ch = m[0]
        if ch == ",":
            if not depth:
                items.append(text[start:m.start()].strip())
                start = m.end()
        elif ch == "[" or ch == "(":
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                break
    if depth:
        raise WorkspaceError(f"unbalanced brackets in {text!r}")
    items.append(text[start:end].strip())
    return items


def _list_items(text, start, end):
    """The items of text[start:end], the inside of a bracket list; a blank
    item after the last comma, or the one blank item of ``[]``, is dropped."""
    items = _split_top(text, start, end)
    return items if items[-1] else items[:-1]


# -- workspace ---------------------------------------------------------------

@dataclass
class Workspace:
    rings: dict = field(default_factory=dict)
    potentials: dict = field(default_factory=dict)
    mfs: dict = field(default_factory=dict)
    defects: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    positions: dict = field(default_factory=dict)  # name -> line number

    def _declare(self, kind, name, value, line):
        if name in self.positions:
            raise WorkspaceError(f"duplicate name {name!r} (first declared "
                                 f"at line {self.positions[name]})")
        getattr(self, kind)[name] = value
        self.positions[name] = line

    def potential(self, name) -> Poly:
        if name not in self.potentials:
            raise WorkspaceError(f"unknown potential {name!r}")
        return self.potentials[name]

    def factorisation(self, name) -> MatrixFactorisation:
        if name in self.mfs:
            return self.mfs[name]
        if name in self.defects:
            return self.defects[name].base
        raise WorkspaceError(f"unknown factorisation {name!r}")

    def defect(self, name) -> AdjointData:
        if name in self.defects:
            return self.defects[name]
        if name in self.mfs:
            # a plain factorisation is a boundary defect from the empty theory
            X = self.mfs[name]
            return AdjointData(X, RingContext([]).zero(), X.potential)
        raise WorkspaceError(f"unknown defect {name!r}")

    def morphism(self, name) -> Morphism:
        if name not in self.morphisms:
            raise WorkspaceError(f"unknown morphism {name!r}")
        return self.morphisms[name]


# -- declarations: one reader per kind --------------------------------------

def _factor_pair(body, ctx):
    # body is "blockA , blockB" at bracket depth zero, each block a list
    parts = _split_top(body, 0, len(body))
    if len(parts) != 2:
        raise WorkspaceError("factorisation needs exactly two blocks "
                             "(d0, d1)")
    return [_block_to_matrix(_parse_matrix_literal(p), ctx) for p in parts]


def _ring(ws, name, vars_):
    names = _list_items(vars_, 0, len(vars_))
    for v in names:
        try:
            tokens = _tokenize(v)
        except ParseError:
            tokens = None
        if tokens != [("var", v), ("end", "")]:
            raise WorkspaceError(f"ring {name!r}: {v!r} is not a variable "
                                 f"name")
        if PRIME_SUFFIX in v:
            raise WorkspaceError(f"ring {name!r}: variable {v!r} contains "
                                 f"{PRIME_SUFFIX!r}, which marks primed "
                                 f"copies")
    if len(set(names)) != len(names):
        raise WorkspaceError(f"repeated variable in ring {name!r}")
    return RingContext(names)


def _potential(ws, name, ring, expr):
    if ring not in ws.rings:
        raise WorkspaceError(f"unknown ring {ring!r}")
    return parse_poly(expr, ws.rings[ring])


def _mf(ws, name, pot, body):
    W = ws.potential(pot)
    d0, d1 = _factor_pair(body, W.ctx)
    try:
        return new_mf(W.ctx, W, d0, d1)
    except FactorisationError as exc:
        raise WorkspaceError(f"mf {name!r} does not factor {pot}: "
                             f"{exc}") from None


def _defect(ws, name, src, tgt, body):
    Ws, Wt = ws.potentials.get(src), ws.potentials.get(tgt)
    if Ws is None or Wt is None:
        raise WorkspaceError(f"unknown potential in defect {name!r}")
    ctx = Wt.ctx.merge(Ws.ctx)
    d0, d1 = _factor_pair(body, ctx)
    try:
        X = new_mf(ctx, embed(Wt, ctx) - embed(Ws, ctx), d0, d1)
        return AdjointData(X, Ws, Wt)
    except (FactorisationError, ValueError) as exc:
        raise WorkspaceError(f"defect {name!r}: {exc}") from None


def _morphism(ws, name, src, tgt, parity, body):
    X, Y = ws.factorisation(src), ws.factorisation(tgt)
    ctx = Y.ctx.merge(X.ctx)
    mat = _block_to_matrix(_parse_matrix_literal(body.strip()), ctx)
    try:
        f = Morphism(X, Y, int(parity), mat)
    except ValueError as exc:
        raise WorkspaceError(f"morphism {name!r}: {exc}") from None
    # a 2-morphism maps between factorisations of one potential
    if embed(X.potential, ctx) != embed(Y.potential, ctx):
        raise WorkspaceError(f"morphism {name!r}: {src} and {tgt} are "
                             f"factorisations of different potentials")
    return f


# (pattern, table, reader): reader(ws, name, *rest of the groups) is the value
_DECLARATIONS = (
    (re.compile(r"ring\s+(\w+)\s*=\s*\[([^\]]*)\]\s*$"), "rings", _ring),
    (re.compile(r"potential\s+(\w+)\s+on\s+(\w+)\s*=\s*(.+)$"),
     "potentials", _potential),
    (re.compile(r"mf\s+(\w+)\s+on\s+(\w+)\s*=\s*\((.+)\)\s*$"), "mfs", _mf),
    (re.compile(r"defect\s+(\w+)\s+from\s+(\w+)\s+to\s+(\w+)\s*=\s*"
                r"\((.+)\)\s*$"), "defects", _defect),
    (re.compile(r"morphism\s+(\w+)\s*:\s*(\w+)\s*->\s*(\w+)\s+parity\s+"
                r"([01])\s*=\s*(.+)$"), "morphisms", _morphism),
)


def parse_workspace(text: str) -> Workspace:
    """Deterministic parse; one handler per line gives each error its line."""
    ws = Workspace()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            for pattern, table, reader in _DECLARATIONS:
                m = pattern.match(line)
                if m:
                    ws._declare(table, m[1], reader(ws, *m.groups()), lineno)
                    break
            else:
                raise WorkspaceError(f"unrecognised declaration: {line!r}")
        except (WorkspaceError, ExponentOverflow) as exc:
            raise WorkspaceError(str(exc), lineno) from None
    return ws


def load_workspace(path: str) -> Workspace:
    """The workspace in the UTF-8 file at ``path``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise WorkspaceError(f"not UTF-8: {exc.reason}", line) from None
    return parse_workspace(text)
