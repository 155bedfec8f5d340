"""The package's import layers: each module imports only from lower layers.
Every public name of the package has a reader."""

import ast
import pathlib
import re
from collections import Counter

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
