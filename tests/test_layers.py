"""The package's import layers: each module imports only from lower layers.
Every public name of the package has a reader, and every parameter default
of a public function has a caller that relies on it."""

import ast
import pathlib
import re
from collections import Counter, defaultdict

from lgmf import residue, tft

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


def test_every_default_is_used_somewhere():
    """Each default of a public module-level function is relied on by at
    least one call in src/, tests/ or layerbench/; a default no call omits
    is a required parameter in disguise, with code serving nothing."""
    calls = _calls_by_name()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                unused += [f"{path.stem}.{node.name}({name}=)"
                           for name, position in _defaults(node)
                           if not any(_omits(c, name, position)
                                      for c in calls[node.name])]
    assert unused == []
