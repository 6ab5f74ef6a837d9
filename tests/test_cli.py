import hashlib
import json
from fractions import Fraction

import pytest

from mosva.cli import _series_report, main
from mosva.correlators import correlate
from mosva.document import load, save
from mosva.factory import build_heisenberg, with_scaled_entry
from mosva.graded import DualVec, GradedOp, GradedSpace, Vec
from mosva.vertex import ALGEBRA, LEFT, AlgebraInstance, ModuleInstance, VertexMap


@pytest.fixture()
def heis_file(tmp_path):
    path = tmp_path / "h.mosva"
    assert main(["example", "heisenberg", "--cutoff", "4", "-o", str(path)]) == 0
    return str(path)


def test_example_then_check_all(heis_file, capsys):
    assert main(["check", heis_file, "--suite", "all", "--max-weight", "3"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_example_matrix_check(tmp_path):
    path = str(tmp_path / "m.mosva")
    assert main(["example", "matrix", "-o", path]) == 0
    assert main(["check", path, "--suite", "all"]) == 0


def test_check_fault_file_exits_one(heis_file, tmp_path, capsys):
    inst = load(heis_file)
    bad = with_scaled_entry(inst, ("a1", -1, "a1"), 2)
    bad_path = str(tmp_path / "bad.mosva")
    save(bad, bad_path)
    assert main(["check", bad_path, "--suite", "assoc", "--max-weight", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "witness" in out


def test_correlate_text_output(heis_file, capsys):
    assert main(["correlate", heis_file, "--bra", "vac",
                 "--ops", "a1@z1,a1@z2", "--ket", "vac"]) == 0
    out = capsys.readouterr().out
    assert "z1^-2 z2^0" in out and "certified window" in out


@pytest.mark.parametrize("bra, ket, note, digest", [
    ("a1", "a1", "z1 in [-4, 0], z2 in [-2, 2]",
     "079d3ac09c4e18023227a11063608d848bf53cce39ae4e961bd45e41597ce8f2"),
    # an all-zero correlator still prints a box, [0, 0] in every variable
    ("vac", "a2", "z1 in [0, 0], z2 in [0, 0]",
     "7abf300511e4b9c827c20b1164a43883e5db6a41d7c0d28112448b6be2cce2ee"),
], ids=["nonzero", "all-zero"])
def test_correlate_machine_report_bytes(heis_file, capsys, bra, ket, note, digest):
    assert main(["correlate", heis_file, "--bra", bra, "--ops", "a1@z1,a1@z2",
                 "--ket", ket, "--report", "machine"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["notes"] == [f"certified window: {note}"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("bra, ket, digest", [
    ("vac", "vac", "b77824dde9786a0158a92d9fcada9789be91851902bd8186510173efbb648f88"),
    ("a1", "a1", "a2e31f09f31941f7e0f254bec8a39771ca12277c5bdada92d8dbefa0080097e5"),
    ("a2", "vac", "a9bf38e741e966d0e82c3277a8dba3a50ca00c0c4480e6cfc504e7fc6091a803"),
], ids=["two-point", "four-point", "zero-function"])
def test_reconstruct_machine_report_bytes(heis_file, capsys, bra, ket, digest):
    # pinned before reconstruct_rational kept its results on the series
    assert main(["reconstruct", heis_file, "--bra", bra, "--ops", "a1@z1,a1@z2",
                 "--ket", ket, "--report", "machine"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_correlate_order_window_exit(heis_file, capsys):
    code = main(["correlate", heis_file, "--bra", "vac",
                 "--ops", "a1@z1,a1@z2", "--ket", "vac", "--order", "9"])
    assert code == 2
    err = capsys.readouterr().err
    assert "cutoff" in err


def test_machine_report_is_byte_stable(heis_file, capsys):
    assert main(["check", heis_file, "--suite", "vacuum",
                 "--report", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["check", heis_file, "--suite", "vacuum",
                 "--report", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["passed"] is True and doc["records"]


def test_report_dir_redirect(heis_file, tmp_path, monkeypatch, capsys):
    outdir = tmp_path / "reports"
    outdir.mkdir()
    monkeypatch.setenv("MOSVA_REPORT_DIR", str(outdir))
    assert main(["check", heis_file, "--suite", "structural"]) == 0
    stdout = capsys.readouterr().out
    copy = (outdir / "check-report.txt").read_text()
    assert copy == stdout


def test_oppose_transport_contragredient_files(heis_file, tmp_path, capsys):
    opp = str(tmp_path / "op.mosva")
    assert main(["oppose", heis_file, "-o", opp]) == 0
    assert main(["check", opp, "--suite", "grading"]) == 0

    # build a module file by hand: the Fock module of the same algebra
    from mosva.factory import self_module
    fock = self_module(load(heis_file), "left")
    fock_path = str(tmp_path / "fock.mosva")
    save(fock, fock_path)
    moved = str(tmp_path / "fock-right-op.mosva")
    assert main(["transport", fock_path, "--direction", "left_to_right_op",
                 "-o", moved]) == 0
    back = str(tmp_path / "fock-back.mosva")
    assert main(["transport", moved, "--direction", "right_op_to_left",
                 "-o", back]) == 0
    assert load(back).YL == fock.YL

    cg = str(tmp_path / "cg.mosva")
    assert main(["contragredient", fock_path, "-o", cg]) == 0
    assert main(["check", cg, "--suite", "mobius"]) == 0


def test_transport_on_algebra_is_usage_error(heis_file, capsys):
    assert main(["transport", heis_file, "--direction", "left_to_right_op",
                 "-o", "x.mosva"]) == 3


def test_reconstruct_and_regions(heis_file, capsys):
    assert main(["reconstruct", heis_file, "--bra", "vac",
                 "--ops", "a1@z1,a1@z2", "--ket", "vac"]) == 0
    out = capsys.readouterr().out
    assert "(z1-z2)^2" in out
    assert main(["regions", heis_file, "--bra", "vac",
                 "--ops", "a1@z1,a1@z2", "--ket", "vac", "--order", "4"]) == 0


def test_parse_error_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad.mosva"
    bad.write_text("{not json")
    assert main(["check", str(bad), "--suite", "vacuum"]) == 3
    assert "parse error" in capsys.readouterr().err


def test_unknown_label_usage_error(heis_file, capsys):
    assert main(["correlate", heis_file, "--bra", "nope",
                 "--ops", "a1@z1", "--ket", "vac"]) == 3


def test_usage_error_exits_three(capsys):
    assert main(["frobnicate"]) == 3


@pytest.mark.parametrize("command", ["correlate", "reconstruct", "regions"])
def test_broken_degree_invariant_exits_three(tmp_path, capsys, command):
    # vac stored at the unstored key (a1, 0, a1), whose output weight is 1:
    # the last step of the chain pairs it with the bra away from the bra's
    # mode, an ArithmeticError that is reported like the inner-step
    # ValueError, not as a verified failure
    alg, _ = build_heisenberg(1, cutoff=4)
    entries = dict(alg.Y.entries)
    assert ("a1", 0, "a1") not in entries
    entries[("a1", 0, "a1")] = alg.vacuum
    broken = AlgebraInstance(alg.space, VertexMap(ALGEBRA, alg.space, alg.space, alg.space,
                                                  entries), alg.vacuum, alg.D, alg.L1)
    path = str(tmp_path / "broken.mosva")
    save(broken, path)
    assert main([command, path, "--bra", "vac", "--ops", "a1@z1,a1@z2",
                 "--ket", "vac"]) == 3
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: degree invariant: monomial")


def test_correlate_mixed_mode_via_cli(heis_file, tmp_path, capsys):
    from mosva.factory import self_module
    bi = self_module(load(heis_file), "bi")
    bi_path = str(tmp_path / "bi.mosva")
    save(bi, bi_path)
    assert main(["correlate", bi_path, "--bra", "vac",
                 "--ops", "a1@z1,a1@z2", "--ket", "vac", "--mode", "mixed",
                 "--module-at", "1"]) == 0
    out = capsys.readouterr().out
    assert "coefficient" in out


@pytest.mark.parametrize("command", ["reconstruct", "regions"])
@pytest.mark.parametrize("flag", [["--mode", "iterate"], ["--mode", "product"],
                                  ["--module-at", "7"], ["--module-at", "0"]], ids=" ".join)
def test_product_form_commands_refuse_mode_and_module_at(heis_file, capsys, command, flag):
    # both work in the product form; an option they would ignore is refused
    assert main([command, heis_file, "--bra", "vac", "--ops", "a1@z1,a1@z2",
                 "--ket", "vac", *flag]) == 3
    out, err = capsys.readouterr()
    assert not out and err.startswith("usage error: unrecognized arguments") and flag[0] in err


@pytest.mark.parametrize("mode, module_at", [("product", None), ("iterate", None),
                                             ("mixed", 0), ("mixed", 1)])
def test_correlate_honours_mode_and_module_at(heis_file, tmp_path, capsys, mode, module_at):
    from mosva.factory import self_module
    bi = self_module(load(heis_file), "bi")
    bi_path = str(tmp_path / "bi.mosva")
    save(bi, bi_path)
    flags = ["--mode", mode] + (["--module-at", str(module_at)] if module_at is not None else [])
    assert main(["correlate", bi_path, "--bra", "vac", "--ops", "a1@z1,a1@z2",
                 "--ket", "vac", "--report", "machine", *flags]) == 0
    series = correlate(bi, DualVec(bi.space, {"vac": 1}),
                       [(bi.basis_vec("a1"), "z1"), (bi.basis_vec("a1"), "z2")],
                       bi.basis_vec("vac"), mode, module_at=module_at)
    assert not series.is_zero()
    assert capsys.readouterr().out == _series_report(series, "correlate").to_json()


def test_correlate_modes_give_different_reports(heis_file, capsys):
    outs = []
    for mode in ("product", "iterate"):
        assert main(["correlate", heis_file, "--bra", "vac", "--ops", "a1@z1,a1@z2",
                     "--ket", "vac", "--mode", mode]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != outs[1]


def test_correlate_refuses_an_out_of_range_module_at(heis_file, tmp_path, capsys):
    from mosva.factory import self_module
    bi_path = str(tmp_path / "bi.mosva")
    save(self_module(load(heis_file), "bi"), bi_path)
    assert main(["correlate", bi_path, "--bra", "vac", "--ops", "a1@z1,a1@z2",
                 "--ket", "vac", "--mode", "mixed", "--module-at", "7"]) == 3
    assert not capsys.readouterr().out


@pytest.mark.parametrize("ops, bra", [("a1@z1,vac@z2", "a1"), ("a1@z1,a1@z2", "a1.a1")])
def test_correlate_reads_each_label_in_the_space_of_its_position(tmp_path, capsys,
                                                                  ops, bra):
    # the Fock module with the algebra's labels at weights raised by 1/2,
    # transported to a right module: its first operator is a module element,
    # though the algebra has a label of the same name at another weight
    alg, fock = build_heisenberg(level=1, cutoff=4)
    h = Fraction(1, 2)
    space = GradedSpace({w + h: ls for w, ls in fock.space.components.items()},
                        fock.cutoff + h)

    def op(o):
        return GradedOp(space, o.weight_shift,
                        {lbl: Vec(space, v.entries) for lbl, v in o.action.items()})

    YL = VertexMap(LEFT, alg.space, space, space,
                   {key: Vec(space, v.entries) for key, v in fock.YL.entries.items()},
                   absent=fock.YL.absent)
    left = str(tmp_path / "shifted.mosva")
    save(ModuleInstance(LEFT, space, alg, YL=YL, D=op(fock.D), L1=op(fock.L1)), left)
    right = str(tmp_path / "shifted-right.mosva")
    assert main(["transport", left, "--direction", "left_to_right_op", "-o", right]) == 0
    capsys.readouterr()
    assert main(["correlate", right, "--bra", bra, "--ops", ops, "--ket", "vac",
                 "--report", "machine"]) == 0
    inst = load(right)
    (first, z1), (second, z2) = (piece.split("@") for piece in ops.split(","))
    series = correlate(inst, DualVec(inst.space, {bra: 1}),
                       [(inst.basis_vec(first), z1), (inst.algebra.basis_vec(second), z2)],
                       inst.algebra.basis_vec("vac"))
    assert not series.is_zero()
    assert capsys.readouterr().out == _series_report(series, "correlate").to_json()


def test_example_module_flag(tmp_path, capsys):
    fock = str(tmp_path / "fock.mosva")
    assert main(["example", "heisenberg", "--cutoff", "3", "--module", "left",
                 "-o", fock]) == 0
    assert main(["check", fock, "--suite", "vacuum"]) == 0
    out = str(tmp_path / "fock-r.mosva")
    assert main(["transport", fock, "--direction", "left_to_right_op",
                 "-o", out]) == 0
    assert main(["check", out, "--suite", "D"]) == 0
