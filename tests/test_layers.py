"""The package's import layers: each module imports only from lower layers."""

import pathlib
import re

from lgmf import residue, tft

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lgmf"

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
