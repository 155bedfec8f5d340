"""The four workloads, each loading a different layer of lgmf.

A workload builds the inputs of one round from (seed, round) and returns the
round's items: named calls into lgmf, timed one by one.  Every round draws
fresh free inputs (bulk fields, insertions, potential signs, the CLI mix and
the item order) and names its variables after the round, so a cache keyed on
a round's inputs cannot serve a later round.  Problem shapes stay fixed, so
every seed and round costs the same.

``check`` runs after the round, outside the timed phase.  It compares each
item's exact output with the recorded reference data in ``reference.json``
and returns the failed item ids and the round's canonical outputs, whose
SHA-256 is the round's checksum.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs the same code
paths on small problems for the smoke test.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shutil
from fractions import Fraction

WORK_DIR = os.path.join("layerbench", ".work")
CORPUS = os.path.join("layerbench", "corpus.lg")
WORKSPACE = os.path.join(WORK_DIR, "corpus.lg")


# -- canonical exact outputs --------------------------------------------------

def frac(c) -> str:
    c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def canon_poly(p):
    """Terms as [exponents, coefficient], sorted; independent of names."""
    return sorted([list(e), frac(c)] for e, c in p.terms.items())


def canon_matrix(mat):
    return [[canon_poly(e) for e in row] for row in mat]


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def rank(rows) -> int:
    """Rank over Q by plain elimination (the oracle does not call lgmf)."""
    rows = [[Fraction(v) for v in row] for row in rows]
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def round_rng(workload, seed, rnd) -> random.Random:
    # str seeds hash through SHA-512, so draws repeat across processes
    return random.Random(f"{workload}:{seed}:{rnd}")


def nonzero(rng, lo=-3, hi=3) -> int:
    return rng.choice([c for c in range(lo, hi + 1) if c])


def _poly(ctx, terms):
    from lgmf.ring import Poly
    return Poly(ctx, {tuple(e): Fraction(c) for e, c in terms})


def _ctx(base, rnd):
    from lgmf.ring import RingContext
    return RingContext([f"{n}{rnd}" for n in base])


class Workload:
    name = ""
    sizes_spec = {}
    imports = ("lgmf.tft",)     # imported during set-up

    def __init__(self, size, reference):
        self.spec = self.sizes_spec[size]
        self.ref = reference

    def build(self, seed, rnd):
        """The round's inputs: everything lgmf derives from them is timed."""
        raise NotImplementedError

    def items(self, inputs):
        """[(item id, zero-argument call)] in the round's drawn order."""
        raise NotImplementedError

    def check(self, inputs, outputs):
        """(failed item ids, canonical outputs) for one round."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def record(self) -> dict:
        """Reference data computed at this commit, for reference.json."""
        raise NotImplementedError


# -- residue_gram: Grothendieck residues over one Jacobi ideal ----------------

class ResidueGram(Workload):
    """Bulk pairings on Jac(W), one residue per item.

    Every item is a residue over the partials of W, so residue plans and
    Groebner/Jacobi-ring memoisation show in full; linalg is never called.
    The seed draws the fields f_i = b_i + c_i b_k (b the monomial basis,
    k > i): the Gram matrix of the f is T G T^t for the recorded basis Gram
    matrix G.
    """

    name = "residue_gram"
    sizes_spec = {
        # Klein quartic x^3 y + y^3 z + z^3 x: Jacobi dimension 27, 729 items
        "full": {"vars": ["x", "y", "z"],
                 "terms": [[[3, 1, 0], 1], [[0, 3, 1], 1], [[1, 0, 3], 1]]},
        "tiny": {"vars": ["x", "y"], "terms": [[[4, 0], 1], [[0, 3], 1]]},
    }

    def build(self, seed, rnd):
        rng = round_rng(self.name, seed, rnd)
        ctx = _ctx(self.spec["vars"], rnd)
        W = _poly(ctx, self.spec["terms"])
        basis = [tuple(e) for e in self.ref["basis"]]
        d = len(basis)
        T = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
        fields = []
        for i in range(d):
            f = _poly(ctx, [(basis[i], 1)])
            if i + 1 < d:
                k, c = rng.randrange(i + 1, d), nonzero(rng)
                T[i][k] = Fraction(c)
                f = f + _poly(ctx, [(basis[k], c)])
            fields.append(f)
        pairs = [(i, j) for i in range(d) for j in range(d)]
        rng.shuffle(pairs)
        return {"W": W, "fields": fields, "T": T, "pairs": pairs}

    def items(self, inp):
        from lgmf import tft
        state = {}

        def ring():
            state["ring"] = tft.JacobiRing(inp["W"])
            return state["ring"]

        out = [("ring", ring)]
        f = inp["fields"]
        for i, j in inp["pairs"]:
            out.append((f"pair.{i}.{j}", lambda i=i, j=j: tft.bulk_pairing(
                f[i], f[j], state["ring"])))
        return out

    def check(self, inp, outputs):
        G = [[Fraction(v) for v in row] for row in self.ref["gram"]]
        T = inp["T"]
        d = len(G)
        TG = [[sum(T[i][k] * G[k][j] for k in range(d) if T[i][k])
               for j in range(d)] for i in range(d)]
        E = [[sum(TG[i][k] * T[j][k] for k in range(d) if T[j][k])
              for j in range(d)] for i in range(d)]
        failed = set()
        canon = {}
        ring = outputs.get("ring")
        basis = None if isinstance(ring, Exception) or ring is None else [
            list(m) for m in ring.basis.monomials]
        canon["ring"] = basis
        if basis != self.ref["basis"]:
            failed.add("ring")
        F = [[None] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                key = f"pair.{i}.{j}"
                v = outputs.get(key)
                if not isinstance(v, Fraction) or v != E[i][j]:
                    failed.add(key)
                    continue
                F[i][j] = v
                canon[key] = frac(v)
        complete = all(v is not None for row in F for v in row)
        if complete and (any(F[i][j] != F[j][i] for i in range(d)
                             for j in range(d)) or rank(F) != d):
            failed.update(f"pair.{i}.{j}" for i in range(d) for j in range(d))
        return failed, canon

    def sizes(self):
        d = len(self.ref["basis"])
        return {"variables": len(self.spec["vars"]), "jacobi_dimension": d,
                "top_degree": max(sum(m) for m in self.ref["basis"]),
                "items_per_round": d * d + 1, "pairings_per_round": d * d}

    def record(self):
        from lgmf import tft
        from lgmf.ring import RingContext
        ctx = RingContext(self.spec["vars"])
        W = _poly(ctx, self.spec["terms"])
        ring = tft.JacobiRing(W)
        gram = tft.bulk_gram_matrix(ring)
        return {"basis": [list(m) for m in ring.basis.monomials],
                "gram": [[frac(v) for v in row] for row in gram]}


# -- hom_cardy: exact elimination through Hom cohomology ----------------------

def line_defect_mf(p, ctx):
    """The (x - y)-factorisation of x^p - y^p (ctx = [x, y])."""
    from lgmf.mf import new_mf
    x, y = (ctx.gen(n) for n in ctx.names)
    cof = sum((x ** k * y ** (p - 1 - k) for k in range(p)), ctx.zero())
    return new_mf(ctx, x ** p - y ** p, [[x - y]], [[cof]])


class HomCardy(Workload):
    """Cardy's identity and homotopy witnesses: dense exact elimination.

    Items: ``cardy_check`` on the line-defect factorisations of x^p - y^p with
    seed-drawn bulk insertions phi = a.Id, psi = b.Id (a, b of degree one), the
    morphism classes X -> X (x) Delta of the right unit action rho, and
    witness searches showing that rho^{-1} o rho fixes seed-drawn
    combinations of those classes.  Both sides of Cardy are bilinear in
    (a, b), so they are checked against the recorded values on {1, x, y}.
    """

    name = "hom_cardy"
    sizes_spec = {
        "full": {"cardy": [3, 4], "rho_power": 2, "rho_bound": 2,
                 "witnesses": 3},
        "tiny": {"cardy": [2], "rho_power": 2, "rho_bound": 1,
                 "witnesses": 1},
    }
    BASE = ("x", "y")

    def build(self, seed, rnd):
        from lgmf import tft
        from lgmf.ring import RingContext
        rng = round_rng(self.name, seed, rnd)
        ctx = _ctx(self.BASE, rnd)
        x, y = (ctx.gen(n) for n in ctx.names)
        cardy = {}
        for p in self.spec["cardy"]:
            X = line_defect_mf(p, ctx)
            a = [nonzero(rng), nonzero(rng), rng.randint(-3, 3)]
            b = [nonzero(rng), nonzero(rng), rng.randint(-3, 3)]
            phi = tft.bulk_boundary(X, a[0] + a[1] * x + a[2] * y)
            psi = tft.bulk_boundary(X, b[0] + b[1] * x + b[2] * y)
            cardy[p] = {"X": X, "a": a, "b": b, "phi": phi, "psi": psi}
        p = self.spec["rho_power"]
        X = line_defect_mf(p, ctx)
        Wsrc = RingContext([ctx.names[1]]).gen(ctx.names[1]) ** p
        # one coefficient per class of the rho cohomology (there are fewer
        # than four), for each witness search
        combos = [[nonzero(rng) for _ in range(4)]
                  for _ in range(self.spec["witnesses"])]
        order = [f"cardy.{p}" for p in self.spec["cardy"]]
        rng.shuffle(order)
        return {"cardy": cardy, "rho": {"X": X, "W": Wsrc},
                "combos": combos, "order": order}

    def items(self, inp):
        from lgmf import mf, tft, unit
        state = {}

        def cardy(p):
            c = inp["cardy"][p]
            return tft.cardy_check(c["X"], c["X"], c["phi"], c["psi"])

        def classes():
            X = inp["rho"]["X"]
            u = unit.koszul_unit(inp["rho"]["W"])
            act = unit.unit_action_right(X, u)
            ri = unit.rho_inverse(X, u, action=act)
            T = act.tensor_mf
            Xb = mf.MatrixFactorisation(T.ctx, X.potential, list(X.parity),
                                        X.d)
            coh = tft.hom_cohomology(Xb, T,
                                     degree_bound=self.spec["rho_bound"])
            state.update(X=X, act=act, ri=ri, T=T, Xb=Xb, coh=coh)
            return coh

        def witness(k):
            s = state
            reps = s["coh"].h0 or s["coh"].h1
            mat = None
            for c, f in zip(inp["combos"][k], reps):
                m = [[e * c for e in row] for row in f.mat]
                mat = m if mat is None else [
                    [u + v for u, v in zip(r1, r2)] for r1, r2 in zip(mat, m)]
            f = mf.Morphism(s["Xb"], s["T"], reps[0].parity, mat)
            small = mf.Morphism(s["X"], s["T"], f.parity, f.mat)
            g = s["ri"].compose(s["act"].compose(small))
            wide = mf.Morphism(s["Xb"], s["T"], g.parity, g.mat)
            return mf.homotopic(wide, f), wide, f

        out = [(key, lambda p=int(key.split(".")[1]): cardy(p))
               for key in inp["order"]]
        out.append(("rho.classes", classes))
        out += [(f"rho.witness.{k}", lambda k=k: witness(k))
                for k in range(self.spec["witnesses"])]
        return out

    def check(self, inp, outputs):
        failed, canon = set(), {}
        for p in self.spec["cardy"]:
            key = f"cardy.{p}"
            rep, ref = outputs.get(key), self.ref["cardy"][str(p)]
            c = inp["cardy"][p]
            want = sum(Fraction(ref["bilinear"][u][v]) * c["a"][u] * c["b"][v]
                       for u in range(3) for v in range(3))
            ok = (hasattr(rep, "lhs") and rep.lhs == rep.rhs == want
                  and rep.equal and rep.stable == ref["stable"]
                  and list(rep.dimensions) == ref["dimensions"]
                  and rep.bound == ref["bound"])
            if not ok:
                failed.add(key)
                continue
            canon[key] = [frac(rep.lhs), frac(rep.rhs), rep.equal, rep.stable,
                          rep.bound, list(rep.dimensions)]
        coh = outputs.get("rho.classes")
        ref = self.ref["rho"]
        if not (hasattr(coh, "dimensions")
                and list(coh.dimensions) == ref["dimensions"]
                and coh.stable == ref["stable"]):
            failed.add("rho.classes")
        else:
            canon["rho.classes"] = [list(coh.dimensions), coh.stable]
        for k in range(self.spec["witnesses"]):
            key = f"rho.witness.{k}"
            out = outputs.get(key)
            if not isinstance(out, tuple) or out[0] is None \
                    or not out[0].verifies(out[1] - out[2]):
                failed.add(key)
                continue
            canon[key] = canon_matrix(out[0].mat)
        return failed, canon

    def sizes(self):
        ref = self.ref["cardy"]
        cardy = {str(p): {"jacobi_dimension": (p - 1) ** 2,
                          "degree_bound": ref[str(p)]["bound"],
                          "cohomology": ref[str(p)]["dimensions"]}
                 for p in self.spec["cardy"]}
        return {"cardy": cardy,
                "rho": {"power": self.spec["rho_power"],
                        "degree_bound": self.spec["rho_bound"],
                        "cohomology": self.ref["rho"]["dimensions"],
                        "witnesses": self.spec["witnesses"]},
                "items_per_round": len(self.spec["cardy"]) + 1
                + self.spec["witnesses"]}

    def record(self):
        from lgmf import tft
        from lgmf.ring import RingContext
        ctx = RingContext(self.BASE)
        monos = [ctx.one(), ctx.gen("x"), ctx.gen("y")]
        cardy = {}
        for p in self.spec["cardy"]:
            X = line_defect_mf(p, ctx)
            table, reps = [], []
            for u in monos:
                row = []
                for v in monos:
                    rep = tft.cardy_check(X, X, tft.bulk_boundary(X, u),
                                          tft.bulk_boundary(X, v))
                    if not rep.equal:
                        raise RuntimeError(f"Cardy fails on p={p}")
                    row.append(frac(rep.lhs))
                    reps.append(rep)
                table.append(row)
            cardy[str(p)] = {"bilinear": table, "stable": reps[0].stable,
                             "bound": reps[0].bound,
                             "dimensions": list(reps[0].dimensions)}
        inp = self.build(0, 0)
        coh = dict(self.items(inp))["rho.classes"]()
        return {"cardy": cardy, "rho": {"dimensions": list(coh.dimensions),
                                        "stable": coh.stable}}


# -- zorro_delta: residues in doubled contexts, ring, mat_mul and tensor ----

class ZorroDelta(Workload):
    """Zorro moves and ev/coev maps on stabilised diagonals Delta_W.

    The seed draws the sign of every term of W (all sign patterns are
    recorded, so any seed is checked exactly) and the item order.
    """

    name = "zorro_delta"
    imports = ("lgmf.adjunction",)
    sizes_spec = {
        "full": {"potentials": {
            "klein": {"vars": ["x", "y", "z"],
                      "terms": [[[3, 1, 0], 1], [[0, 3, 1], 1],
                                [[1, 0, 3], 1]]},
            "fermat": {"vars": ["x", "y", "z"],
                       "terms": [[[3, 0, 0], 1], [[0, 3, 0], 1],
                                 [[0, 0, 3], 1]]}}},
        "tiny": {"potentials": {
            "cubic": {"vars": ["x"], "terms": [[[3], 1]]},
            "fermat2": {"vars": ["x", "y"], "terms": [[[3, 0], 1],
                                                      [[0, 3], 1]]}}},
    }

    def _defect(self, key, signs, rnd):
        from lgmf.adjunction import AdjointData
        from lgmf.mf import mf_rename
        from lgmf.ring import RingContext, rename
        from lgmf.unit import koszul_unit
        spec = self.spec["potentials"][key]
        ctx = _ctx(spec["vars"], rnd)
        W = _poly(ctx, [(e, c * s) for (e, c), s in zip(spec["terms"],
                                                         signs)])
        u = koszul_unit(W)
        mids = tuple(n + "s" for n in ctx.names)
        D = mf_rename(u, dict(zip(u.prime_names, mids)))
        Wsrc = rename(W, dict(zip(ctx.names, mids)), RingContext(list(mids)))
        return AdjointData(D, Wsrc, W)

    def build(self, seed, rnd):
        rng = round_rng(self.name, seed, rnd)
        defects, signs = {}, {}
        for key, spec in self.spec["potentials"].items():
            signs[key] = [rng.choice([-1, 1]) for _ in spec["terms"]]
            defects[key] = self._defect(key, signs[key], rnd)
        order = [f"{kind}.{key}" for key in defects
                 for kind in ("zorro", "evcoev")]
        rng.shuffle(order)
        return {"defects": defects, "signs": signs, "order": order}

    def items(self, inp):
        from lgmf import adjunction
        calls = {"zorro": adjunction.zorro_check,
                 "evcoev": adjunction.ev_coev_maps}
        out = []
        for item in inp["order"]:
            kind, key = item.split(".")
            out.append((item, functools.partial(calls[kind],
                                                inp["defects"][key])))
        return out

    @staticmethod
    def canon_zorro(rep):
        return {v: {"matrix": canon_matrix(rep[v]["matrix"].mat),
                    "exact": rep[v]["exact"], "ok": rep[v]["ok"],
                    "witness": None if rep[v]["witness"] is None
                    else canon_matrix(rep[v]["witness"].mat)}
                for v in ("right", "left")} | {"ok": rep["ok"]}

    @staticmethod
    def canon_evcoev(maps):
        out = {}
        for kind in ("coev_tilde", "coev", "ev_tilde", "ev"):
            k = getattr(maps, kind)
            out[kind] = {"parity": k.parity, "matrix": canon_matrix(k.mat),
                         "integration": len(k.integration_names),
                         "denominators": [canon_poly(f)
                                          for f in k.denominators]}
        return out

    def check(self, inp, outputs):
        failed, canon = set(), {}
        for item in inp["order"]:
            kind, key = item.split(".")
            ref = self.ref[key]["".join("+" if s > 0 else "-"
                                        for s in inp["signs"][key])]
            out = outputs.get(item)
            try:
                c = (self.canon_zorro(out) if kind == "zorro"
                     else self.canon_evcoev(out))
            except (AttributeError, KeyError, TypeError):
                failed.add(item)
                continue
            if (kind == "zorro" and not c["ok"]) or digest(c) != ref[kind]:
                failed.add(item)
                continue
            canon[item] = digest(c)
        return failed, canon

    def sizes(self):
        out = {}
        for key, spec in self.spec["potentials"].items():
            n = len(spec["vars"])
            out[key] = {"variables": n, "unit_rank": 2 ** n,
                        "degree": max(sum(e) for e, _ in spec["terms"])}
        return {"potentials": out,
                "items_per_round": 2 * len(self.spec["potentials"])}

    def record(self):
        from lgmf import adjunction
        ref = {}
        for key, spec in self.spec["potentials"].items():
            ref[key] = {}
            n = len(spec["terms"])
            for mask in range(2 ** n):
                signs = [-1 if mask >> t & 1 else 1 for t in range(n)]
                d = self._defect(key, signs, 0)
                label = "".join("+" if s > 0 else "-" for s in signs)
                ref[key][label] = {
                    "zorro": digest(self.canon_zorro(
                        adjunction.zorro_check(d))),
                    "evcoev": digest(self.canon_evcoev(
                        adjunction.ev_coev_maps(d)))}
        return ref


# -- cli_corpus: the lgmf tool on a workspace with many declarations ----------

CLI_POOLS = {
    "check-potential": [["Wc"], ["W4"], ["W5"], ["Wuv"], ["Wq"], ["Wf"],
                        ["Ws"], ["Wa"]],
    "validate": [[]],
    "unit": [["Wc"], ["W4"], ["Wq"], ["Wf"], ["Wuv"]],
    "residue": [["--ring", "R2", "--numerator", "u*v",
                 "--denominators", "u^2;v^2"],
                ["--ring", "R1", "--numerator", "x",
                 "--denominators", "3*x^2"],
                ["--ring", "R2", "--numerator", "u^2*v + 3*u",
                 "--denominators", "u^3 - v;v^2"],
                ["--ring", "R1", "--numerator", "x^3 + 2",
                 "--denominators", "x^4"],
                ["--ring", "R2", "--numerator", "7",
                 "--denominators", "u^2 + v;v^3"]],
    "evcoev-dump": [["D"], ["Dab"], ["Xc"], ["Xuv"]],
    "zorro-check": [["D"], ["Dab"], ["Xc"], ["Xuv"], ["X4a"]],
    "qdim": [["D"], ["Dab"], ["Dab", "--side", "left"],
             ["D", "--side", "left"]],
    "chern": [["Xc"], ["X4a"], ["X4b"], ["X5"], ["Xuv"], ["Xq"]],
    "pair-bulk": [["Wq", "u", "v"], ["Wc", "x", "1"], ["Wf", "u*v", "1"],
                  ["W5", "x^2", "x"], ["W4", "x", "x"]],
    "pair-kl": [["Xc", "eta", "eta"], ["Xc", "idc", "xc"],
                ["X4a", "eta4", "eta4"], ["Xuv", "etauv", "etauv"],
                ["Xq", "etaq", "etaq"], ["X4b", "sq4", "sq4"]],
    "defect-act": [["Dab", "--field", "a"], ["D", "--field", "s"],
                   ["D", "--field", "t", "--side", "left"],
                   ["Dab", "--field", "b^2", "--side", "left"]],
    "cardy": [["Xc", "Xc"], ["Xc", "Xc", "--phi", "xc", "--psi", "xc"],
              ["X4a", "X4b"], ["X4a", "X4a", "--phi", "x4"], ["X5", "X5"],
              ["X4b", "X4b"]],
}
CLI_EXIT1 = [["check-potential", "Bad1"], ["check-potential", "Bad2"]]
CLI_EXIT2 = [["chern", "Nope"], ["pair-bulk", "Wq", "u", "w"],
             ["residue", "--ring", "R2", "--numerator", "u",
              "--denominators", "u^2"],
             ["residue", "--ring", "Rx", "--numerator", "x",
              "--denominators", "x"],
             ["cardy", "Xc", "X4a", "--phi", "nope"],
             ["unit", "Nope"], ["residue", "--ring", "R1"],
             ["MISSING", "validate"]]


def cli_argv(entry):
    """The argv of a catalogue entry: subcommand, workspace, arguments."""
    if entry[0] == "MISSING":
        return ["--json", entry[1], os.path.join(WORK_DIR, "missing.lg")]
    return ["--json", entry[0], WORKSPACE] + entry[1:]


def cli_canon(stdout) -> object:
    """The JSON report without its timing field (or the raw text)."""
    try:
        obj = json.loads(stdout)
    except ValueError:
        return stdout
    obj.pop("timing_s", None)
    return obj


class CliCorpus(Workload):
    """In-process ``lgmf.cli.main`` calls against a checked-in workspace.

    Every call reloads and re-validates the workspace, so this loads the
    workspace and cli layers and import cost.  Each round makes a fixed number
    of calls per subcommand plus calls that must exit 1 and 2; the seed draws
    their arguments from the catalogue and the order.
    """

    name = "cli_corpus"
    imports = ("lgmf.cli",)
    sizes_spec = {"full": {"per_command": 9, "exit1": 6, "exit2": 6},
                  "tiny": {"per_command": 1, "exit1": 1, "exit2": 1}}

    @staticmethod
    def catalogue():
        out = [[cmd] + args for cmd, pool in CLI_POOLS.items()
               for args in pool]
        return out + CLI_EXIT1 + CLI_EXIT2

    @staticmethod
    def write_workspace():
        os.makedirs(WORK_DIR, exist_ok=True)
        shutil.copyfile(CORPUS, WORKSPACE)

    def build(self, seed, rnd):
        # the mix depends on the seed alone, so call k costs the same in
        # every round; each round shuffles the order
        rng = round_rng(self.name, seed, 0)
        if rnd == 0:
            self.write_workspace()
        calls = []
        for cmd, pool in CLI_POOLS.items():
            calls += [[cmd] + rng.choice(pool)
                      for _ in range(self.spec["per_command"])]
        calls += [rng.choice(CLI_EXIT1) for _ in range(self.spec["exit1"])]
        calls += [rng.choice(CLI_EXIT2) for _ in range(self.spec["exit2"])]
        order = list(range(len(calls)))
        round_rng(self.name, seed, rnd).shuffle(order)
        return {"calls": calls, "order": order}

    @staticmethod
    def run_call(entry):
        from lgmf import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(cli_argv(entry))
            except SystemExit as exc:       # argparse rejects the arguments
                code = exc.code
        return code, out.getvalue()

    def items(self, inp):
        return [(f"call.{k}", lambda e=inp["calls"][k]: self.run_call(e))
                for k in inp["order"]]

    def check(self, inp, outputs):
        failed, canon = set(), {}
        for k, entry in enumerate(inp["calls"]):
            key = f"call.{k}"
            out = outputs.get(key)
            ref = self.ref.get(" ".join(entry))
            if not isinstance(out, tuple) or ref is None:
                failed.add(key)
                continue
            c = [out[0], digest(cli_canon(out[1]))]
            if c != [ref["code"], ref["sha256"]]:
                failed.add(key)
                continue
            canon[key] = [" ".join(entry)] + c
        return failed, canon

    def sizes(self):
        n = (len(CLI_POOLS) * self.spec["per_command"] + self.spec["exit1"]
             + self.spec["exit2"])
        with open(CORPUS, encoding="utf-8") as fh:
            decls = sum(1 for line in fh
                        if line.split("#", 1)[0].strip())
        return {"subcommands": len(CLI_POOLS), "calls_per_round": n,
                "exit1_per_round": self.spec["exit1"],
                "exit2_per_round": self.spec["exit2"],
                "workspace_declarations": decls,
                "catalogue": len(self.catalogue()),
                "items_per_round": n}

    def record(self):
        self.write_workspace()
        ref = {}
        for entry in self.catalogue():
            code, stdout = self.run_call(entry)
            want = 1 if entry in CLI_EXIT1 else 2 if entry in CLI_EXIT2 else 0
            if code != want:
                raise RuntimeError(f"{entry} exits {code}, not {want}")
            ref[" ".join(entry)] = {"code": code,
                                    "sha256": digest(cli_canon(stdout))}
        return ref


WORKLOADS = {w.name: w for w in (ResidueGram, HomCardy, ZorroDelta,
                                 CliCorpus)}
