"""End-to-end runs of the command-line interface against a workspace file."""

import json
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgmf import adjunction, cli, mf, tft
from lgmf.cli import main
from lgmf.workspace import (WorkspaceError, load_workspace, parse_poly,
                            parse_workspace)

GOOD = """\
# desk-scale corpus
ring R1 = [x]
potential Wc on R1 = x^3
mf Xc on Wc = ([x], [x^2])
morphism eta : Xc -> Xc parity 1 = [[0, -x], [1, 0]]
morphism idX : Xc -> Xc parity 0 = [[1, 0], [0, 1]]

ring R2 = [u, v]
potential Wxy on R2 = u*v
mf Xxy on Wxy = ([u], [v])

ring Rs = [s]
potential Ws on Rs = s^2
ring Rt = [t]
potential Wt on Rt = t^2
defect D from Ws to Wt = ([t - s], [t + s])
"""


@pytest.fixture
def ws(tmp_path):
    path = tmp_path / "corpus.lg"
    path.write_text(GOOD)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


# -- workspace parsing --------------------------------------------------------

def test_workspace_loads_all_declarations(ws):
    w = load_workspace(ws)
    assert set(w.rings) == {"R1", "R2", "Rs", "Rt"}
    assert set(w.mfs) == {"Xc", "Xxy"}
    assert "D" in w.defects and "eta" in w.morphisms


CUBIC = "ring R = [x]\npotential W on R = x^3\n"
CUBIC_MF = CUBIC + "mf X on W = ([x], [x^2])\n"
SQUARES = ("ring Rs = [s]\npotential Ws on Rs = s^2\n"
           "ring Rt = [t]\npotential Wt on Rt = t^2\n")


@pytest.mark.parametrize("snippet,needle", [
    ("ring R1 = [x]\nring R1 = [y]\n", "duplicate"),
    ("ring R = [x]\npotential W on R = x^2\nmf X on W = ([x], [x^2])\n",
     "does not factor"),
    ("ring R = [x]\npotential W on Q = x^2\n", "unknown"),
    ("ring R = [x\n", "line 1"),
    ("ring R = [x]\npotential W on R = 1/0*x^3\n",
     "line 2: bad expression '1/0*x^3': zero denominator in 1/0"),
    ("ring R = [x]\npotential W on R = \u00b2*x\n",
     "line 2: bad expression '\u00b2*x': unexpected character"),
    # a factorisation of t^2 - p^2*q whose source is not a potential
    ("ring P = [p, q]\npotential Wp on P = p^2*q\nring T = [t]\n"
     "potential Vt on T = t^2\ndefect D from Wp to Vt = ([t^2 - p^2*q], [1])\n",
     "line 5: defect 'D': W = p^2*q is not a potential"),
    # an even morphism with odd entries
    ("ring R = [x]\npotential W on R = x^3\nmf Xc on W = ([x], [x^2])\n"
     "morphism f : Xc -> Xc parity 0 = [[0, -x], [1, 0]]\n",
     "line 4: morphism 'f': entry [0][1] = -x is not of parity 0"),
    # blocks that do not form a square odd differential
    ("ring R = [x]\npotential W on R = x^3\nmf X on W = ([x], [[x^2], [x]])\n",
     "line 3: mf 'X' does not factor W: blocks of shapes 1x1 and 2x1 do not "
     "form a square odd differential"),
    ("ring R = [x]\npotential W on R = x^3\nmf X on W = ([[x], [x]], [[x^2]])\n",
     "line 3: mf 'X' does not factor W: blocks of shapes 2x1 and 1x1"),
    ("ring R = [x]\npotential W on R = x^3\nmf X on W = ([[x, 1]], [[x^2]])\n",
     "line 3: mf 'X' does not factor W: blocks of shapes 1x2 and 1x1"),
    # a variable spelt like the primed copy of another
    ("ring R = [x, x']\npotential W on R = x^3 + x'^3\n",
     "line 1: ring 'R': variable \"x'\" contains \"'\""),
    # faults inside an mf, a defect and a morphism body name their line
    (CUBIC + "mf X on W = ([x], [y^2])\n",
     "line 3: bad expression 'y^2': unknown variable 'y'"),
    (CUBIC + "mf X on W = ([[x], x], [x^2])\n",
     "line 3: matrix block mixes rows and entries"),
    (CUBIC + "mf X on W = (x, [x^2])\n",
     "line 3: expected a bracket list, got 'x'"),
    (SQUARES + "defect D from Ws to Wt = ([t - s], [t + y])\n",
     "line 5: bad expression 't + y': unknown variable 'y'"),
    (SQUARES + "defect D from Ws to Wt = ([t - s], [[t + s], s])\n",
     "line 5: matrix block mixes rows and entries"),
    (SQUARES + "defect D from Ws to Wt = ([t - s], t + s)\n",
     "line 5: expected a bracket list, got 't + s'"),
    (CUBIC_MF + "morphism f : X -> X parity 1 = [[0, -y], [1, 0]]\n",
     "line 4: bad expression '-y': unknown variable 'y'"),
    (CUBIC_MF + "morphism f : X -> X parity 1 = [[0, -x], 1]\n",
     "line 4: matrix block mixes rows and entries"),
    (CUBIC_MF + "morphism f : X -> X parity 1 = 0\n",
     "line 4: expected a bracket list, got '0'"),
    # a ring item is one variable token of the expression grammar
    ("ring R = [x-y]\n", "line 1: ring 'R': 'x-y' is not a variable name"),
    ("ring R = [x y]\n", "line 1: ring 'R': 'x y' is not a variable name"),
    ("ring R = [x,,y]\n", "line 1: ring 'R': '' is not a variable name"),
    ("ring R = [x, 2]\n", "line 1: ring 'R': '2' is not a variable name"),
    ("ring R = [x, y$]\n", "line 1: ring 'R': 'y$' is not a variable name"),
    # only a blank last item is dropped, so [,] keeps one blank entry
    (CUBIC + "mf X on W = ([,], [x^2])\n",
     "line 3: bad expression '': unexpected token ''"),
    (CUBIC_MF + "morphism f : X -> X parity 1 = []\n",
     "line 4: morphism 'f': morphism shape mismatch"),
])
def test_workspace_errors(tmp_path, snippet, needle):
    path = tmp_path / "bad.lg"
    path.write_text(snippet)
    with pytest.raises(WorkspaceError) as err:
        load_workspace(str(path))
    assert needle.lower() in str(err.value).lower()


GOOD_LINES = GOOD.splitlines()


@st.composite
def corruptions(draw):
    """GOOD with one declaration line cut, spliced into or overwritten."""
    i = draw(st.sampled_from([i for i, line in enumerate(GOOD_LINES)
                              if line and not line.startswith("#")]))
    line = GOOD_LINES[i]
    a = draw(st.integers(0, len(line)))
    b = draw(st.integers(a, len(line)))
    piece = draw(st.text("[](),^*+-=:'/# 012xyuvstcXDW", max_size=6))
    return "\n".join(GOOD_LINES[:i] + [line[:a] + piece + line[b:]]
                     + GOOD_LINES[i + 1:])


@settings(max_examples=200, deadline=None)
@given(corruptions())
@example(GOOD.replace("([x], [x^2])", "([x], [y^2])"))
@example(GOOD.replace("= [[1, 0], [0, 1]]", "= [[1, 0], 1]"))
@example(GOOD.replace("([t - s], [t + s])", "([t - s], t + s)"))
def test_every_load_error_names_its_line(text):
    try:
        parse_workspace(text)
    except WorkspaceError as exc:
        assert exc.line is not None
        assert str(exc).startswith(f"line {exc.line}: ")


def test_ring_lists_drop_only_a_blank_last_item():
    w = parse_workspace("ring E = []\nring R = [x, y,]\nring S = [ s ]\n")
    assert [list(w.rings[k].names) for k in "ERS"] == [[], ["x", "y"], ["s"]]


def test_the_readme_grammar_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("### Workspace grammar\n\n```\n", 1)[1]
    w = parse_workspace(text.split("```", 1)[0])
    assert set(w.positions) == {"R1", "Wc", "Xc", "eta", "Rs", "Ws", "Rt",
                                "Wt", "D"}


def test_loading_builds_no_adjoint(ws, monkeypatch):
    duals = []

    def counting(real):
        def dual(X):
            duals.append(X)
            return real(X)
        return dual

    monkeypatch.setattr(adjunction, "dual", counting(adjunction.dual))
    monkeypatch.setattr(mf, "dual", counting(mf.dual))
    w = load_workspace(ws)
    assert duals == []
    w.defect("D").right_adjoint, w.defect("D").left_adjoint
    assert len(duals) == 1      # both adjoints share one dual


@pytest.mark.parametrize("name", ["D", "Xc", "Xxy"])
def test_adjoints_built_on_first_use_equal_the_eager_ones(ws, name):
    data = load_workspace(ws).defect(name)
    dl = mf.dual(data.base)
    right = mf.shift(dl, data.n)
    flip = data.m % 2
    for got, parity, d in (
            (data.right_adjoint, right.parity, right.d),
            (data.left_adjoint, tuple(p ^ flip for p in dl.parity), dl.d)):
        assert got.parity == parity
        assert got.potential == dl.potential
        assert got.d == d
        assert not got.validation_failures()


def test_a_factorisation_read_as_a_defect_is_built_once(ws, monkeypatch):
    w = load_workspace(ws)
    first = w.defect("Xc")
    built = []
    real = tft.JacobiRing.__init__

    def counting(self, W):
        built.append(W)
        real(self, W)

    monkeypatch.setattr(tft.JacobiRing, "__init__", counting)
    assert w.defect("Xc") is first
    assert built == []


def test_misfactored_mf_reports_witness(tmp_path):
    path = tmp_path / "bad.lg"
    path.write_text("ring R = [x]\npotential W = x^2 on R\n")
    # malformed potential line: exit through the CLI with code 2
    code = main(["check-potential", str(path), "W"])
    assert code == 2


# -- subcommands --------------------------------------------------------------

def test_check_potential(ws, capsys):
    code, rep = run_json(capsys, "check-potential", ws, "Wc")
    assert code == 0
    assert rep["outputs"]["is_potential"] is True
    assert rep["outputs"]["jacobi_dimension"] == 2


def test_check_potential_without_variables(tmp_path, capsys):
    path = tmp_path / "point.lg"
    path.write_text("ring R0 = []\npotential P on R0 = 1\n")
    code, rep = run_json(capsys, "check-potential", str(path), "P")
    assert code == 0
    assert rep["outputs"]["is_potential"] is True
    assert rep["outputs"]["jacobi_dimension"] == 1


def test_validate(ws, capsys):
    code, rep = run_json(capsys, "validate", ws)
    assert code == 0
    checked = rep["outputs"]["checked"]
    assert checked == {name: True for name in checked}
    assert {"Xc", "Xxy", "D", "eta", "idX"} <= set(checked)


def test_unit(ws, capsys):
    code, rep = run_json(capsys, "unit", ws, "Wc")
    assert code == 0
    assert rep["outputs"]["psi_phi_identity"] is True
    assert rep["outputs"]["rank"] == 2


def test_residue(ws, capsys):
    code, rep = run_json(capsys, "residue", ws, "--ring", "R1",
                         "--numerator", "x", "--denominators", "3*x^2")
    assert code == 0
    assert rep["outputs"]["residue"] == "1/3"


def test_an_integral_residue_prints_as_a_rational(ws, capsys):
    code, rep = run_json(capsys, "residue", ws, "--ring", "R1",
                         "--numerator", "x", "--denominators", "x^2")
    assert code == 0
    assert rep["outputs"]["residue"] == "1/1"


def test_residue_bad_denominator_count_fails_cleanly(ws, capsys):
    code, rep = run_json(capsys, "residue", ws, "--ring", "R2",
                         "--numerator", "u", "--denominators", "u")
    assert code == 2
    assert "denominator" in rep["outputs"]["error"]


@pytest.mark.parametrize("num, dens, message", [
    pytest.param("1", "x^2 - 1", "x is not nilpotent",
                 id="x^2 - 1-x is not nilpotent"),
    pytest.param("1", "0", "infinite quotient", id="0-infinite quotient"),
    pytest.param("1/0", "x", "zero denominator in 1/0",
                 id="numerator 1/0-zero denominator"),
    pytest.param("1", "3/0*x^2", "zero denominator in 3/0",
                 id="3/0*x^2-zero denominator")])
def test_residue_bad_denominators_exit_two(ws, capsys, num, dens, message):
    code, rep = run_json(capsys, "residue", ws, "--ring", "R1",
                         "--numerator", num, "--denominators", dens)
    assert code == 2
    assert message in rep["outputs"]["error"]


def test_qdim_chern_and_pairings(ws, capsys):
    code, rep = run_json(capsys, "qdim", ws, "D")
    assert code == 0

    code, rep = run_json(capsys, "chern", ws, "Xxy")
    assert code == 0
    assert rep["outputs"]["chern_character"] in ("1", "-1")

    code, rep = run_json(capsys, "pair-bulk", ws, "Wc", "1", "x")
    assert code == 0
    assert rep["outputs"]["pairing"] == "1/3"

    code, rep = run_json(capsys, "pair-kl", ws, "Xc", "idX", "eta")
    assert code == 0
    assert rep["outputs"]["pairing"] == "-1/1"


def test_defect_act(ws, capsys):
    data = load_workspace(ws).defect("D")
    for side, field in (("right", "1"), ("right", "s"),
                        ("right", "s^3 - 2*s + 1/2"),
                        ("left", "1"), ("left", "t"), ("left", "(t + 1)^2")):
        code, rep = run_json(capsys, "defect-act", ws, "D", "--field", field,
                             "--side", side)
        assert code == 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", tft.ParityWarning)
            op = (tft.defect_operator_right if side == "right"
                  else tft.defect_operator_left)(data)
        want = op.apply(parse_poly(field, op.source.ctx))
        assert rep["outputs"] == {"side": side, "image": str(want.rep)}
        # D has one source and one target variable: one parity warning
        assert rep["warnings"] == [
            "defect operator evaluated with odd variable count (n=1, m=1); "
            "the closed formula is asserted only for even counts"]


def test_defect_act_builds_one_jacobi_ring_per_potential(ws, capsys,
                                                         monkeypatch):
    built = []
    real = tft.JacobiRing.__init__

    def counting(self, W):
        built.append(W)
        real(self, W)

    monkeypatch.setattr(tft.JacobiRing, "__init__", counting)
    for side in ("right", "left"):
        code, _ = run_json(capsys, "defect-act", ws, "D", "--field", "1",
                           "--side", side)
        assert code == 0
    assert len(built) == 4


def test_koszul_units_are_built_on_first_use(ws, capsys, monkeypatch):
    built = []
    real = adjunction.koszul_unit

    def counting(W, *args, **kw):
        built.append(W)
        return real(W, *args, **kw)

    monkeypatch.setattr(adjunction, "koszul_unit", counting)
    code, _ = run_json(capsys, "chern", ws, "Xxy")
    assert code == 0
    assert built == []          # the workspace declares the defect D
    code, _ = run_json(capsys, "zorro-check", ws, "D")
    assert code == 0
    assert len(built) == 2      # one unit per side of D


def test_cardy(ws, capsys):
    code, rep = run_json(capsys, "cardy", ws, "Xxy", "Xxy")
    assert code == 0
    assert rep["outputs"]["lhs"] == rep["outputs"]["rhs"]
    assert rep["outputs"]["equal"] is True


def test_zorro_check(ws, capsys):
    code, rep = run_json(capsys, "zorro-check", ws, "D")
    assert code == 0
    assert rep["outputs"]["ok"] is True


@pytest.mark.parametrize("argv", [
    ["cardy", "Xc", "Xc", "--degree-bound", "-3"],
    ["zorro-check", "D", "--degree-bound", "-1"]])
def test_a_negative_degree_bound_exits_two(ws, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--json", argv[0], ws] + argv[1:])
    assert exc.value.code == 2
    assert f"negative degree bound {argv[-1]}" in capsys.readouterr().err


def test_a_class_escaping_the_truncation_exits_one(tmp_path, capsys):
    """At bound 0 the composite u . Id of Xq leaves the truncated basis:
    the bound is too small, a mathematical failure, not an input error."""
    path = tmp_path / "q.lg"
    path.write_text("ring R2 = [u, v]\npotential Wq on R2 = u^3 - v^3\n"
                    "mf Xq on Wq = ([u - v], [u^2 + u*v + v^2])\n"
                    "morphism uq : Xq -> Xq parity 0 = [[u, 0], [0, u]]\n")
    code, rep = run_json(capsys, "cardy", str(path), "Xq", "Xq", "--phi",
                         "uq", "--degree-bound", "0")
    assert code == 1
    assert rep["outputs"] == {
        "error": "composite class escapes the truncated basis"}
    code, rep = run_json(capsys, "cardy", str(path), "Xq", "Xq", "--phi",
                         "uq", "--degree-bound", "1")
    assert code == 0 and rep["outputs"]["equal"] is True


def test_evcoev_dump_round_trips(ws, capsys):
    code, rep = run_json(capsys, "evcoev-dump", ws, "D")
    assert code == 0
    maps = rep["outputs"]
    assert set(maps) == {"coev_tilde", "coev", "ev_tilde", "ev"}
    # "closed" is re-verified on the reloaded, re-parsed matrices
    assert all(maps[k]["closed"] is True for k in maps)


def test_unknown_name_exits_two(ws, capsys):
    code, rep = run_json(capsys, "chern", ws, "Nope")
    assert code == 2
    assert "error" in rep["outputs"]


def test_missing_file_exits_two(capsys):
    code, _ = run(capsys, "validate", "/nonexistent/corpus.lg")
    assert code == 2


MORE = GOOD + """potential W4 on R1 = x^4
mf X4a on W4 = ([x], [x^3])
mf X4b on W4 = ([x^2], [x^2])
morphism eta4 : X4a -> X4a parity 1 = [[0, -x^2], [1, 0]]
morphism x4 : X4a -> X4a parity 0 = [[x, 0], [0, x]]
ring Rd = [p, q]
potential Bad1 on Rd = p^2*q
"""
NOT_A_POTENTIAL = ("W = p^2*q is not a potential: its Jacobi ideal has "
                   "infinite colength (unbounded in q)")


@pytest.mark.parametrize("argv, message", [
    (["unit", "Bad1"], NOT_A_POTENTIAL),
    (["pair-bulk", "Bad1", "p", "q"], NOT_A_POTENTIAL),
    (["cardy", "Xc", "X4a"], "factorisations of different potentials"),
    (["cardy", "Xc", "Xc", "--psi", "eta"], "eta must be even"),
    (["cardy", "X4a", "X4b", "--phi", "x4", "--psi", "x4"],
     "x4 is not an endomorphism of X4b"),
    (["pair-kl", "Xc", "idX", "eta4"], "eta4 is not an endomorphism of Xc"),
    (["cardy", "Xc", "X4a", "--phi", "nope"], "unknown morphism 'nope'"),
], ids=["unit-Bad1", "pair-bulk-Bad1", "cardy-potentials", "cardy-odd-psi",
        "cardy-foreign-psi", "pair-kl-foreign", "cardy-unknown-phi"])
def test_inconsistent_inputs_exit_two(tmp_path, capsys, argv, message):
    path = tmp_path / "more.lg"
    path.write_text(MORE)
    code, rep = run_json(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert rep["outputs"]["error"] == message


def test_a_morphism_across_potentials_exits_two(tmp_path, capsys):
    path = tmp_path / "more.lg"
    path.write_text(MORE + "morphism f : Xc -> X4a parity 0 = "
                           "[[1, 0], [0, 1]]\n")
    code, rep = run_json(capsys, "validate", str(path))
    assert code == 2
    assert rep["outputs"]["error"] == (
        f"line {len(MORE.splitlines()) + 1}: morphism 'f': Xc and X4a are "
        "factorisations of different potentials")


def test_a_morphism_between_factorisations_of_one_potential_loads(
        tmp_path, capsys):
    path = tmp_path / "more.lg"
    path.write_text(MORE + "morphism h : X4a -> X4b parity 0 = "
                           "[[1, 0], [0, x]]\n")
    code, rep = run_json(capsys, "validate", str(path))
    assert code == 0
    assert rep["outputs"]["checked"]["h"] is True


def test_a_bad_ring_variable_exits_two_naming_line_one(tmp_path, capsys):
    path = tmp_path / "bad.lg"
    path.write_text("ring R = [x-y]\npotential W on R = x^3\n")
    code, rep = run_json(capsys, "validate", str(path))
    assert code == 2
    assert rep["outputs"]["error"] == (
        "line 1: ring 'R': 'x-y' is not a variable name")


EMPTY = CUBIC_MF + ("mf Z on W = ([], [])\n"
                    "morphism z : Z -> Z parity 0 = []\n")


@pytest.mark.parametrize("argv", [
    ["chern", "Z"], ["cardy", "Z", "Z"], ["cardy", "X", "Z"],
    ["pair-kl", "Z", "z", "z"], ["zorro-check", "Z"], ["evcoev-dump", "Z"]])
def test_empty_blocks_are_the_rank_zero_factorisation(tmp_path, capsys,
                                                      argv):
    path = tmp_path / "empty.lg"
    path.write_text(EMPTY)
    assert load_workspace(str(path)).mfs["Z"].rank == 0
    code, rep = run_json(capsys, "validate", str(path))
    assert code == 0
    assert rep["outputs"]["checked"] == {"X": True, "Z": True, "z": True}
    code, rep = run_json(capsys, argv[0], str(path), *argv[1:])
    assert code == 0
    out = rep["outputs"]
    if argv[0] == "chern":
        assert out["chern_character"] == "0"
    if argv[0] == "cardy":
        assert out["lhs"] == out["rhs"] == "0/1"
        assert out["cohomology_dimensions"] == [0, 0]


def test_a_workspace_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.lg"
    path.write_bytes(b"ring R = [x]\npotential W on R = x^3 \xff\n")
    code, rep = run_json(capsys, "validate", str(path))
    assert code == 2
    assert rep["outputs"]["error"] == (
        "line 2: not UTF-8: invalid start byte")


# -- report format ------------------------------------------------------------

def test_json_reports_are_deterministic(ws, capsys):
    _, rep1 = run_json(capsys, "cardy", ws, "Xc", "Xc")
    _, rep2 = run_json(capsys, "cardy", ws, "Xc", "Xc")
    rep1.pop("timing_s"), rep2.pop("timing_s")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)


def test_human_report_mentions_command(ws, capsys):
    code, out = run(capsys, "check-potential", ws, "Wc")
    assert code == 0
    assert "check-potential" in out


# -- one parser per process ---------------------------------------------------

def test_successive_calls_are_independent(ws, capsys):
    code, rep = run_json(capsys, "qdim", ws, "D", "--side", "left")
    assert (code, rep["outputs"]["side"]) == (0, "left")
    code, rep = run_json(capsys, "qdim", ws, "D")
    assert (code, rep["outputs"]["side"]) == (0, "right")
    assert rep["inputs"] == {"command": "qdim", "jobs": 1, "name": "D",
                             "side": "right", "workspace": ws}
    code, out = run(capsys, "check-potential", ws, "Wc")
    assert code == 0 and out.startswith("check-potential:\n")
    with pytest.raises(SystemExit) as exc:
        main(["qdim", ws, "D", "--side", "up"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, rep = run_json(capsys, "chern", ws, "Xxy")
    assert code == 0 and rep["command"] == "chern"


def test_the_parser_is_built_once(ws, capsys, monkeypatch):
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["unit", ws, "Wc"], ["chern", ws, "Xc"],
                 ["qdim", ws, "D"]):
        assert run_json(capsys, *argv)[0] == 0
    assert len(builds) == 1


def test_commands_are_looked_up_when_called(ws, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    calls = []

    def wrapped(ws_, args, report):
        calls.append(args.name)
        report.outputs["chern_character"] = "stub"

    # a replacement installed before the parser is built, then removed, is
    # not reachable from the parser (as a tracing wrapper must not be)
    with monkeypatch.context() as m:
        m.setattr(cli, "cmd_chern", wrapped)
        code, rep = run_json(capsys, "chern", ws, "Xc")
        assert rep["outputs"]["chern_character"] == "stub"
    code, rep = run_json(capsys, "chern", ws, "Xc")
    assert rep["outputs"]["chern_character"] != "stub"
    # a replacement installed after the parser is built is the one that runs
    monkeypatch.setattr(cli, "cmd_chern", wrapped)
    code, rep = run_json(capsys, "chern", ws, "Xxy")
    assert (code, rep["outputs"]["chern_character"]) == (0, "stub")
    assert calls == ["Xc", "Xxy"]
