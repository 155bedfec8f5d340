"""The package's import layers: each module imports only from lower layers.
Every public name of the package has a reader, every private name a reader
in the package, no public name has a mirrored twin, and every parameter
default of a public function, method or dataclass field has a caller that
relies on it.  Only linalg reads the elimination engine's private names."""

import ast
import pathlib
import re
from collections import Counter, defaultdict

from lgmf import ideal, residue, tft
from lgmf.ring import RingContext

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lgmf"

# lowest first; modules on one layer do not import each other
LAYERS = [{"ring"}, {"polymat", "linalg", "signs"}, {"ideal"},
          {"residue", "mf"}, {"unit"}, {"adjunction"}, {"tft"},
          {"workspace"}, {"cli"}]
RANK = {name: k for k, layer in enumerate(LAYERS) for name in layer}

_FROM_MODULE = re.compile(r"^\s*from \.(\w+) import", re.M)
_FROM_PACKAGE = re.compile(r"^\s*from \. import (?:\(([^)]*)\)|(.*))", re.M)


def _imports(text):
    names = set(_FROM_MODULE.findall(text))
    for groups in _FROM_PACKAGE.findall(text):
        for item in "".join(groups).split(","):
            names.add(item.split(" as ")[0].strip())
    names.discard("")
    return names


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)


def test_modules_import_only_lower_layers():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name in sorted(_imports(path.read_text(encoding="utf-8"))):
            if RANK[name] >= RANK[path.stem]:
                bad.append(f"{path.stem} imports {name}")
    assert bad == []


def test_import_parser_reads_both_forms():
    text = ("from . import linalg, polymat as pm\n"
            "from . import (signs,\n"
            "               ideal)\n"
            "from .ring import Poly\n"
            "    from .mf import (dual,\n"
            "                     shift)\n")
    assert _imports(text) == {"linalg", "polymat", "signs", "ideal", "ring",
                              "mf"}


def test_tft_reexports_the_jacobi_ring():
    assert tft.JacobiRing is residue.JacobiRing
    assert tft.JacobiElement is residue.JacobiElement


# Exponent tuples are the boundary of ring.py, whose kernels key every term
# by one packed int.  Elsewhere a module reads the tuple view ``.terms``,
# packs or unpacks exponent tuples, builds a Poly from them (``Poly(...)``,
# ``ctx.poly``) or builds one with tuple(map(...)) only in a boundary reader
# named here.
TUPLE_ATTRIBUTES = {"terms", "pack", "unpack", "poly"}
BOUNDARY_READERS = {"ideal.QuotientBasis.monomials"}


def _tuple_uses(tree, module):
    """'module.scope: what' for each exponent-tuple use in a parsed module
    (see TUPLE_ATTRIBUTES), scope being the enclosing classes and
    functions."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + [node.name]
        what = None
        if (isinstance(node, ast.Attribute)
                and node.attr in TUPLE_ATTRIBUTES):
            what = "." + node.attr
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            first = node.args[0] if node.args else None
            if node.func.id == "Poly":
                what = "Poly(...)"
            elif (node.func.id == "tuple" and isinstance(first, ast.Call)
                  and getattr(first.func, "id", None) == "map"):
                what = "tuple(map(...))"
        if what is not None:
            where = ".".join([module] + scope)
            if where not in BOUNDARY_READERS:
                found.append(f"{where}: {what}")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_ring_reads_exponent_tuples():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "ring":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += _tuple_uses(tree, path.stem)
    assert found == []


def test_the_tuple_guard_sees_every_form():
    tree = ast.parse(
        "def f(p, ctx):\n"
        "    return p.terms, ctx.unpack(0), ctx.pack(()), ctx.poly({})\n"
        "class QuotientBasis:\n"
        "    def monomials(self):\n"
        "        return self.ctx.unpack(0)\n"
        "    def other(self):\n"
        "        return tuple(map(max, a, b)), Poly(c, {}), p.packed\n"
        "x = [e.terms for e in y]\n")
    assert _tuple_uses(tree, "ideal") == [
        "ideal.f: .terms", "ideal.f: .unpack", "ideal.f: .pack",
        "ideal.f: .poly", "ideal.QuotientBasis.other: tuple(map(...))",
        "ideal.QuotientBasis.other: Poly(...)", "ideal: .terms"]


# The reduction data of divisors (``ideal._lt``: leading term and tail) is
# built where the divisors are: by ``division`` for its own divisors and by
# ``groebner`` for its basis, which carries it as ``reducers``.  Normal
# forms, power membership and residue plans read a built basis's.
LT_BUILDERS = {"ideal.groebner", "ideal.division"}


def _lt_callers(tree, module):
    """'module.function' of the outermost function around each call of
    ``_lt`` in a parsed module ('module' at top level)."""
    found = []

    def visit(node, outer):
        if outer is None and isinstance(node, ast.FunctionDef):
            outer = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", None) == "_lt" or getattr(f, "attr",
                                                          None) == "_lt":
                found.append(module if outer is None
                             else f"{module}.{outer}")
        for child in ast.iter_child_nodes(node):
            visit(child, outer)

    visit(tree, None)
    return found


def test_only_groebner_and_division_build_reduction_data():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += _lt_callers(tree, path.stem)
    assert found and set(found) <= LT_BUILDERS


def test_the_reduction_data_guard_sees_every_call():
    tree = ast.parse(
        "def groebner(gens):\n"
        "    def append(rem):\n"
        "        return _lt(0, rem, None)\n"
        "    return append\n"
        "def normal_form(g, gb):\n"
        "    return [ideal._lt(j, b, l) for j, b, l in gb]\n"
        "x = _lt(0, p, q)\n")
    assert _lt_callers(tree, "ideal") == [
        "ideal.groebner", "ideal.normal_form", "ideal"]


def test_plans_and_normal_forms_read_the_basis_reducers(monkeypatch):
    c3 = RingContext(["x", "y", "z"])
    x, y, z = (c3.gen(n) for n in c3.names)
    ring = tft.JacobiRing(x ** 3 * y + y ** 3 * z + z ** 3 * x)
    calls = []
    real = ideal._lt

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(ideal, "_lt", counted)
    ring.residue_plan()(x ** 2 * y ** 3 * z)
    ideal.normal_form(x ** 7 + y * z ** 5, ring.gb)
    ring.reduce(x ** 4 * y)
    assert calls == []
    ideal.groebner(ring.partials)
    assert calls


def test_a_basis_compares_and_prints_without_its_reducers():
    cx = RingContext(["x", "y"])
    gb = ideal.groebner([cx.gen("x") ** 2, cx.gen("y") ** 3])
    other = ideal.GroebnerBasis(gb.generators, gb.original_gens,
                                gb.cofactor_log, gb.ctx, gb.quotient,
                                reducers=[])
    assert other == gb
    assert repr(other) == repr(gb) and "reducers" not in repr(gb)


# A public name with a mirrored twin (f and f_tilde, f_left and f_right,
# left_f and right_f) keeps one concept twice; the side belongs in an
# argument.  unit_action_left/unit_action_right stay a pair only because
# the benchmark's hom_cardy workload calls unit_action_right by name; they
# merge when the benchmark is next changed (ROADMAP item 13).
MIRRORS_ALLOWED = {("unit.unit_action_left", "unit.unit_action_right")}


def _mirrored_pairs(tree, module):
    """(a, b) for each mirrored pair of public names defined together at
    a parsed module's top level or in one of its public classes."""
    scopes = [(module, tree.body)] + [
        (f"{module}.{node.name}", node.body) for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")]
    found = []
    for where, body in scopes:
        names = {node.name for node in body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")}
        for name in sorted(names):
            twins = [name + "_tilde"]
            if name.endswith("_left"):
                twins.append(name[:-len("left")] + "right")
            if name.startswith("left_"):
                twins.append("right" + name[len("left"):])
            found += [(f"{where}.{name}", f"{where}.{twin}")
                      for twin in twins if twin in names]
    return found


def test_no_module_keeps_a_mirrored_pair():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _mirrored_pairs(ast.parse(path.read_text(encoding="utf-8")),
                                 path.stem)
    assert set(found) == MIRRORS_ALLOWED


def test_the_mirror_guard_sees_every_form():
    tree = ast.parse(
        "def coev(d): pass\n"
        "def coev_tilde(d): pass\n"
        "def act_left(x): pass\n"
        "def act_right(x): pass\n"
        "class Data:\n"
        "    def left_adjoint(self): pass\n"
        "    def right_adjoint(self): pass\n"
        "class _Hidden:\n"
        "    def left_x(self): pass\n"
        "    def right_x(self): pass\n"
        "def _f(): pass\n"
        "def _f_tilde(): pass\n"
        "def ev(d): pass\n"
        "def ev_right(d): pass\n")
    assert _mirrored_pairs(tree, "m") == [
        ("m.act_left", "m.act_right"), ("m.coev", "m.coev_tilde"),
        ("m.Data.left_adjoint", "m.Data.right_adjoint")]


def _public_definitions():
    """(module, name) of each public module-level function or class."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def test_every_public_name_is_read_somewhere():
    """Each public function or class is named in src/, tests/ or layerbench/
    beyond its definitions.  ``cli.main`` finds the ``cmd_*`` functions by
    string, so they are exempt."""
    words = Counter()
    for top in ("src", "tests", "layerbench"):
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = list(_public_definitions())
    defined = Counter(name for _, name in defs)
    unread = [f"{module}.{name}" for module, name in defs
              if not name.startswith("cmd_") and words[name] <= defined[name]]
    assert unread == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


# One sparse elimination engine behind one API: outside linalg.py no module
# reads a private member of a Span (those Span reads through ``self``) or a
# private name of linalg.  A private attribute of another package module,
# such as ``ideal._reduce``, is that module's own.

def _span_privates(text):
    """The private attributes that class Span reads through ``self`` in
    linalg's source."""
    span = next(node for node in ast.parse(text).body
                if isinstance(node, ast.ClassDef) and node.name == "Span")
    return {node.attr for node in ast.walk(span)
            if isinstance(node, ast.Attribute) and _is_private(node.attr)
            and getattr(node.value, "id", None) == "self"}


def _engine_reads(tree, module, members):
    """'module:line: what' for each import of a private linalg name, read of
    ``linalg._name``, or read of a Span private member in ``members`` in a
    parsed module, sorted."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "linalg":
            found += [f"{module}:{node.lineno}: import {alias.name}"
                      for alias in node.names if _is_private(alias.name)]
        elif isinstance(node, ast.Attribute) and _is_private(node.attr):
            owner = getattr(node.value, "id", None)
            if owner == "linalg":
                found.append(f"{module}:{node.lineno}: linalg.{node.attr}")
            elif node.attr in members and owner not in RANK:
                found.append(f"{module}:{node.lineno}: .{node.attr}")
    return sorted(found)


def test_only_linalg_reads_the_engine_privates():
    members = _span_privates((SRC / "linalg.py").read_text(encoding="utf-8"))
    assert {"_rows", "_reduce", "_insert"} <= members
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "linalg":
            found += _engine_reads(
                ast.parse(path.read_text(encoding="utf-8")), path.stem,
                members)
    assert found == []


def test_the_engine_guard_sees_every_form():
    tree = ast.parse(
        "from .linalg import Span, _integral\n"
        "def f(cob, d):\n"
        "    rows = cob._rows\n"
        "    w = cob._reduce(linalg._integral(d)[0])[0]\n"
        "    return Span()._insert(w), ideal._reduce(w, [], 0), cob._other\n")
    assert _engine_reads(tree, "tft", {"_rows", "_reduce", "_insert"}) == [
        "tft:1: import _integral", "tft:3: ._rows", "tft:4: ._reduce",
        "tft:4: linalg._integral", "tft:5: ._insert"]


def _dead_private(sources):
    """The private module-level functions and classes, and the private
    methods of module-level classes, of the modules in ``sources`` (module
    name -> text) that no ``Name`` or ``Attribute`` node of those modules
    refers to.  An import is no reference; dunder names are the
    language's."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if _is_private(node.name) and node.name not in used:
                dead.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                dead += [f"{module}.{node.name}.{item.name}"
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and _is_private(item.name) and item.name not in used]
    return sorted(dead)


def test_every_private_name_is_read_in_the_package():
    """Private code is read by the package itself; a reader in tests/ or
    layerbench/ does not keep it alive."""
    assert _dead_private({path.stem: path.read_text(encoding="utf-8")
                          for path in sorted(SRC.glob("*.py"))}) == []


def test_the_dead_code_guard_sees_an_import_without_a_call():
    ring = ("def _terms_mul(a, b): pass\n"
            "def _terms_addmul(acc, a, b): pass\n"
            "class _Plan:\n"
            "    def __init__(self): self._used()\n"
            "    def _used(self): pass\n"
            "    def _unused(self): pass\n"
            "class Poly:\n"
            "    def __add__(self, other): return _Plan()\n")
    polymat = ("from .ring import _terms_addmul, _terms_mul\n"
               "def mat_mul(a, b):\n"
               "    return _terms_mul(a, b)\n")
    assert _dead_private({"ring": ring, "polymat": polymat}) == [
        "ring._Plan._unused", "ring._terms_addmul"]


def _defaults(node):
    """(name, position) of each parameter of a function definition that has
    a default; the position is None for a keyword-only parameter."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, k) for k, a in enumerate(positional) if k >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls_by_name():
    """Every call in src/, tests/ and layerbench/, keyed by the called name
    (``f(...)`` and ``obj.f(...)`` both count as calls of f)."""
    calls = defaultdict(list)
    for top in ("src", "tests", "layerbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    f = node.func
                    if isinstance(f, ast.Name):
                        calls[f.id].append(node)
                    elif isinstance(f, ast.Attribute):
                        calls[f.attr].append(node)
    return calls


def _omits(call, name, position):
    """Whether a call may leave the parameter to its default: it passes it
    neither by position nor by keyword, or it passes *args or **kw."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return True
    if position is not None and position < len(call.args):
        return False
    return all(k.arg != name for k in call.keywords)


def _is_dataclass(node):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in node.decorator_list)


def _field_defaults(node):
    """(name, position) of each field of a dataclass definition that has a
    default; a field with ``init=False`` is no parameter."""
    out, position = [], 0
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if (isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "field"):
            kw = {k.arg: k.value for k in value.keywords}
            init = kw.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if "default" in kw or "default_factory" in kw:
                out.append((item.target.id, position))
        elif value is not None:
            out.append((item.target.id, position))
        position += 1
    return out


def _method_defaults(node):
    """``_defaults`` of a method, its positions counted after ``self``."""
    return [(name, None if k is None else k - 1)
            for name, k in _defaults(node)]


def _public_defaults(tree):
    """(label, called name, defaults) of each public module-level function,
    and of the constructor (``__init__`` or dataclass fields) and the public
    methods of each public class."""
    for node in tree.body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _defaults(node)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                yield node.name, node.name, _field_defaults(node)
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                label = f"{node.name}.{item.name}"
                if item.name == "__init__":
                    yield label, node.name, _method_defaults(item)
                elif not item.name.startswith("_"):
                    yield label, item.name, _method_defaults(item)


def test_every_default_is_used_somewhere():
    """Each default of a public module-level function, of a public class's
    ``__init__`` or public method, or of a public dataclass's field is
    relied on by at least one call in src/, tests/ or layerbench/; a
    default no call omits is a required parameter in disguise, with code
    serving nothing.  A method counts as called by any call of its name."""
    calls = _calls_by_name()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, called, defaults in _public_defaults(tree):
            unused += [f"{path.stem}.{label}({name}=)"
                       for name, position in defaults
                       if not any(_omits(c, name, position)
                                  for c in calls[called])]
    assert unused == []


def test_class_defaults_are_read():
    """The default reader sees dataclass fields (not ``init=False`` ones or
    bare ``field()``s), ``__init__`` and public methods after ``self``."""
    tree = ast.parse(
        "@dataclass\n"
        "class A:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: dict = field(default_factory=dict)\n"
        "    d: dict = field(default_factory=dict, init=False)\n"
        "    e: tuple = field(repr=False)\n"
        "    def go(self, x, y=2): pass\n"
        "    def _hidden(self, z=3): pass\n"
        "class B:\n"
        "    def __init__(self, p, q=None): pass\n"
        "def _private(s=1): pass\n"
        "def public(t, u=1): pass\n")
    assert list(_public_defaults(tree)) == [
        ("A", "A", [("b", 1), ("c", 2)]),
        ("A.go", "go", [("y", 1)]),
        ("B.__init__", "B", [("q", 1)]),
        ("public", "public", [("u", 1)])]
