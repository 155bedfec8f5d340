"""Command-line front end: batch computations over a workspace file.

Exit codes: 0 success, 1 mathematical failure (an identity did not hold or a
witness was not found), 2 input error (parse, resolution, validation).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import warnings
from fractions import Fraction

from . import tft
from .adjunction import KoszulValuedMap, ev_coev_maps, zorro_check
from .residue import (DenominatorError, NotAPotential, ResidueQuery,
                      grothendieck_residue)
from .ring import ExponentOverflow, Poly, RingContext, embed, embed_matrix
from .unit import koszul_unit, psi_phi_is_identity
from .workspace import WorkspaceError, load_workspace, parse_poly


class MathFailure(RuntimeError):
    """The requested identity failed or no witness was found."""


def _ser(obj):
    """JSON-safe serialization: rationals as 'p/q', polys as strings."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Poly):
        return str(obj)
    if isinstance(obj, tft.JacobiElement):
        return str(obj.rep)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_ser(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _ser(v) for k, v in obj.items()}
    return str(obj)


class Report:
    """Exact results plus provenance; serialises deterministically."""

    def __init__(self, command, inputs):
        self.command = command
        self.inputs = inputs
        self.outputs = {}
        self.warnings = []
        self._start = time.monotonic()

    def finish(self):
        self.timing_s = round(time.monotonic() - self._start, 6)
        return self

    def as_dict(self):
        return {
            "command": self.command,
            "inputs": _ser(self.inputs),
            "outputs": _ser(self.outputs),
            "warnings": list(self.warnings),
            "timing_s": self.timing_s,
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def human(self):
        lines = [f"{self.command}:"]
        for k, v in sorted(self.outputs.items()):
            lines.append(f"  {k} = {_ser(v)}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


@contextlib.contextmanager
def _capture_warnings(report):
    """Append the message of each warning raised in the block to ``report``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            report.warnings.extend(str(w.message) for w in caught)


# -- subcommands -------------------------------------------------------------

def cmd_check_potential(ws, args, report):
    W = ws.potential(args.name)
    report.outputs["potential"] = W
    try:
        ring = tft.JacobiRing(W)
    except NotAPotential as exc:
        report.outputs["is_potential"] = False
        report.outputs["unbounded_variable"] = exc.witness
        raise MathFailure(f"{args.name} is not a potential") from None
    report.outputs["is_potential"] = True
    report.outputs["jacobi_dimension"] = ring.dimension


def cmd_validate(ws, args, report):
    checked = {}
    for name, X in list(ws.mfs.items()):
        checked[name] = not X.validation_failures()
    for name, data in list(ws.defects.items()):
        checked[name] = not data.base.validation_failures()
    for name, f in list(ws.morphisms.items()):
        checked[name] = f.is_closed()
    report.outputs["checked"] = checked
    if not all(checked.values()):
        bad = sorted(n for n, ok in checked.items() if not ok)
        raise MathFailure(f"validation failed for: {', '.join(bad)}")


def cmd_unit(ws, args, report):
    W = ws.potential(args.name)
    tft.JacobiRing(W)                       # certify W
    unit = koszul_unit(W)
    report.outputs["rank"] = unit.rank
    report.outputs["variables"] = list(unit.base_names)
    report.outputs["primed_copies"] = list(unit.prime_names)
    report.outputs["psi_phi_identity"] = psi_phi_is_identity(unit)
    if not report.outputs["psi_phi_identity"]:
        raise MathFailure("unit splitting check failed")


def cmd_residue(ws, args, report):
    ctx = ws.rings.get(args.ring)
    if ctx is None:
        raise WorkspaceError(f"unknown ring {args.ring!r}")
    num = parse_poly(args.numerator, ctx)
    dens = [parse_poly(d, ctx) for d in args.denominators.split(";")]
    if len(dens) != len(ctx.names):
        raise WorkspaceError("need one denominator per ring variable")
    res = grothendieck_residue(ResidueQuery(num, dens, list(ctx.names)))
    report.outputs["residue"] = (res.constant_value()
                                 if res.is_constant() else res)


def _dump_kvm(kvm: KoszulValuedMap):
    ctx = kvm._joint_ctx()
    return {
        "kind": kvm.kind,
        "parity": kvm.parity,
        "context": list(ctx.names),
        "matrix": [[str(e) for e in row]
                   for row in embed_matrix(kvm.mat, ctx)],
        "integration": list(kvm.integration_names),
        "denominators": [str(embed(d, ctx)) for d in kvm.denominators],
    }


def reload_kvm(dump, template: KoszulValuedMap) -> KoszulValuedMap:
    """Re-parse a dumped map against its template's source and target."""
    ctx = RingContext(dump["context"])
    mat = [[parse_poly(e, ctx) for e in row] for row in dump["matrix"]]
    dens = tuple(parse_poly(d, ctx) for d in dump["denominators"])
    return KoszulValuedMap(
        kind=dump["kind"], source=template.source, target=template.target,
        parity=dump["parity"], mat=mat,
        integration_names=tuple(dump["integration"]), denominators=dens)


def cmd_evcoev_dump(ws, args, report):
    data = ws.defect(args.name)
    maps = ev_coev_maps(data)
    for label, kvm in (("coev_tilde", maps.coev_tilde), ("coev", maps.coev),
                       ("ev_tilde", maps.ev_tilde), ("ev", maps.ev)):
        dump = _dump_kvm(kvm)
        dump["closed"] = reload_kvm(dump, kvm).is_closed()
        report.outputs[label] = dump
    if not all(report.outputs[l]["closed"] for l in
               ("coev_tilde", "coev", "ev_tilde", "ev")):
        raise MathFailure("a dumped map failed re-verification")


def cmd_zorro_check(ws, args, report):
    data = ws.defect(args.name)
    res = zorro_check(data, degree_bound=args.degree_bound)
    for variant in ("right", "left"):
        r = res[variant]
        report.outputs[variant] = {
            "matrix": [[str(e) for e in row] for row in r["matrix"].mat],
            "exact_identity": r["exact"],
            "witness_found": r["witness"] is not None or r["exact"],
            "ok": r["ok"],
        }
    report.outputs["ok"] = res["ok"]
    if not res["ok"]:
        raise MathFailure("Zorro witness not found at this degree bound")


def cmd_qdim(ws, args, report):
    data = ws.defect(args.name)
    with _capture_warnings(report):
        q = tft.defect_act(data, 1, args.side)
    report.outputs["side"] = args.side
    report.outputs["quantum_dimension"] = q


def cmd_chern(ws, args, report):
    X = ws.factorisation(args.name)
    report.outputs["chern_character"] = tft.chern_character(
        X, tft.JacobiRing(X.potential))


def cmd_pair_bulk(ws, args, report):
    W = ws.potential(args.potential)
    ring = tft.JacobiRing(W)
    p1 = parse_poly(args.phi1, W.ctx)
    p2 = parse_poly(args.phi2, W.ctx)
    report.outputs["pairing"] = tft.bulk_pairing(p1, p2, ring)


def _endomorphism(ws, name, of, even=False):
    """The morphism ``name``; an input error unless it is an endomorphism of
    the factorisation ``of`` (and even, if asked).  The errors name both by
    their workspace names."""
    f = ws.morphism(name)
    X = ws.factorisation(of)
    if f.source is not X or f.target is not X:
        raise WorkspaceError(f"{name} is not an endomorphism of {of}")
    if even and f.parity:
        raise WorkspaceError(f"{name} must be even")
    return f


def cmd_pair_kl(ws, args, report):
    X = ws.factorisation(args.name)
    f = _endomorphism(ws, args.psi1, args.name)
    g = _endomorphism(ws, args.psi2, args.name)
    report.outputs["pairing"] = tft.kapustin_li_pairing(
        f, g, X, tft.JacobiRing(X.potential))


def cmd_defect_act(ws, args, report):
    data = ws.defect(args.name)
    near, _ = data.ends(args.side)
    field = parse_poly(args.field, near.potential.ctx)
    with _capture_warnings(report):
        out = tft.defect_act(data, field, args.side)
    report.outputs["side"] = args.side
    report.outputs["image"] = out


def cmd_cardy(ws, args, report):
    X = ws.factorisation(args.X)
    Y = ws.factorisation(args.Y)
    phi = _endomorphism(ws, args.phi, args.X, even=True) if args.phi else None
    psi = _endomorphism(ws, args.psi, args.Y, even=True) if args.psi else None
    try:
        rep = tft.cardy_check(X, Y, phi, psi, degree_bound=args.degree_bound)
    except ValueError as exc:       # factorisations of different potentials
        raise WorkspaceError(str(exc)) from None
    except RuntimeError as exc:     # a class escapes the truncated basis
        raise MathFailure(str(exc)) from None
    report.outputs["lhs"] = rep.lhs
    report.outputs["rhs"] = rep.rhs
    report.outputs["equal"] = rep.equal
    report.outputs["cohomology_dimensions"] = list(rep.dimensions)
    report.outputs["degree_bound"] = rep.bound
    report.outputs["stable"] = rep.stable
    if not rep.stable:
        report.warnings.append(
            "cohomology dimensions not stable at this degree bound")
    if not rep.equal:
        raise MathFailure("Cardy identity failed")


def _degree_bound(text):
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"negative degree bound {text}")
    return int(text)


# -- dispatch ----------------------------------------------------------------
#
# One parser serves every ``main`` call of a process; argparse fills a fresh
# namespace per call.  The parser holds no command function: ``main`` looks
# ``cmd_<command>`` up in this module when it runs, so a function replaced on
# the module after the parser was built (a test double, a tracing wrapper and
# its removal) is the one that runs.

_parser = None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lgmf",
        description="Exact Landau-Ginzburg computations over a workspace file")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results merged "
                             "deterministically; currently single-threaded)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *specs):
        p = sub.add_parser(name)
        p.add_argument("workspace", help="workspace file")
        for spec in specs:
            p.add_argument(*spec[0], **spec[1])
        return p

    add("check-potential", (("name",), {}))
    add("validate")
    add("unit", (("name",), {}))
    add("residue",
        (("--ring",), {"required": True}),
        (("--numerator",), {"required": True}),
        (("--denominators",), {"required": True,
         "help": "semicolon-separated, one per variable"}))
    add("evcoev-dump", (("name",), {}))
    add("zorro-check", (("name",), {}),
        (("--degree-bound",), {"type": _degree_bound, "default": None}))
    add("qdim", (("name",), {}),
        (("--side",), {"choices": ["left", "right"], "default": "right"}))
    add("chern", (("name",), {}))
    add("pair-bulk", (("potential",), {}),
        (("phi1",), {}), (("phi2",), {}))
    add("pair-kl", (("name",), {}),
        (("psi1",), {}), (("psi2",), {}))
    add("defect-act", (("name",), {}),
        (("--field",), {"required": True}),
        (("--side",), {"choices": ["left", "right"], "default": "right"}))
    add("cardy", (("X",), {}), (("Y",), {}),
        (("--phi",), {"default": None}), (("--psi",), {"default": None}),
        (("--degree-bound",), {"type": _degree_bound, "default": None}))
    return parser


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    report = Report(args.command, {
        k: v for k, v in sorted(vars(args).items())
        if k != "json" and v is not None})
    command = globals()["cmd_" + args.command.replace("-", "_")]
    code = 0
    try:
        ws = load_workspace(args.workspace)
        command(ws, args, report)
    except (WorkspaceError, OSError, DenominatorError, NotAPotential,
            ExponentOverflow) as exc:
        report.outputs["error"] = str(exc)
        code = 2
    except MathFailure as exc:
        report.outputs["error"] = str(exc)
        code = 1
    report.finish()
    print(report.to_json() if args.json else report.human())
    return code


if __name__ == "__main__":
    sys.exit(main())
