import csv
import hashlib
import json

import numpy as np
import pytest

from gascap import BinaryPolynomial, StateVector
from gascap.cap import instance_to_dict, reference_instance, synthetic_instance
from gascap.cli import main
from gascap.simulator import DEFAULT_QUBIT_CAP
from test_cap import MALFORMED


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_formulate_reference_term_counts(tmp_path):
    out = tmp_path / "f"
    rc = main(["formulate", "--out", str(out),
               "--formulation", "hubo-asc", "--formulation", "hubo-desc"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hubo-asc"]["terms"] == 67
    assert summary["hubo-desc"]["terms"] == 55
    assert summary["counts"]["n_prime"] == 8
    assert (out / "hubo-asc.poly").exists()
    header = (out / "hubo-desc.poly").read_text().splitlines()[0]
    assert '"n_vars": 8' in header


def test_formulate_synthetic_sizes(tmp_path):
    out = tmp_path / "s"
    rc = main(["formulate", "--synthetic", "8,4", "--seed", "3",
               "--formulation", "hubo-asc", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hubo-asc"]["n_vars"] == 16
    assert summary["counts"]["n"] == 32


def test_formulate_one_hot_and_quadratized(tmp_path):
    out = tmp_path / "q"
    rc = main(["formulate", "--formulation", "qubo", "--formulation", "quadratized",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["qubo"]["n_vars"] == 12
    assert summary["quadratized"]["n_vars"] == 12
    assert summary["quadratized"]["degree"] <= 2


def test_estimate_outputs_and_orderings(tmp_path):
    out = tmp_path / "e"
    rc = main(["estimate", "--sweep", "4:12:2", "--enum-cap", "12", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "resources.csv")
    required = {"formulation", "encoding", "n_ap", "n_ch", "n", "m", "h", "r",
                "cr_1", "cr_2", "cnot_enumerated", "cnot_closed_form"}
    assert required <= set(rows[0].keys())
    by_size = {}
    for row in rows:
        by_size.setdefault(int(row["n_ap"]), {})[row["formulation"]] = row
    for n_ap, group in by_size.items():
        # binary encodings always need fewer qubits than one-hot
        assert int(group["hubo-asc"]["qubits_total"]) < int(group["qubo"]["qubits_total"])
        assert int(group["hubo-asc"]["qubits_closed_form"]) < int(group["qubo"]["qubits_closed_form"])
        assert int(group["hubo-desc"]["cnot_enumerated"]) <= int(group["hubo-asc"]["cnot_enumerated"])
        assert int(group["qubo"]["cnot_enumerated"]) == int(group["qubo"]["cnot_closed_form"])


def test_estimate_large_row_closed_form_only(tmp_path):
    out = tmp_path / "big"
    rc = main(["estimate", "--sweep", "128:128:1", "--enum-cap", "12", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "resources.csv")
    row = next(r for r in rows if r["formulation"] == "qubo")
    assert int(row["n"]) == 8192
    assert int(row["n_double_prime"]) == 8064
    assert row["cnot_enumerated"] == ""  # enumeration skipped above the cap
    hubo = next(r for r in rows if r["formulation"] == "hubo-asc")
    assert int(hubo["n_prime"]) == 768
    assert float(hubo["log2_grover_queries"]) == 384.0


def test_solve_reference_instance(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--formulation", "hubo-desc", "--backend", "ideal",
               "--runs", "10", "--budget-classical", "200",
               "--seed", "2023", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hubo-desc"]["reached_optimum"] == 10
    assert summary["oracle"]["evaluations"] == 81
    rows = read_csv(out / "trace_hubo-desc.csv")
    assert set(rows[0].keys()) == {
        "run_seed", "formulation", "encoding", "iter", "y_i", "L_i",
        "cum_classical", "cum_quantum", "best_y_normalized",
    }
    finals = [float(r["best_y_normalized"]) for r in rows]
    assert min(finals) == 0.0  # normalization pins the optimum at 0


def test_solve_is_byte_deterministic(tmp_path):
    args = ["solve", "--formulation", "hubo-asc", "--runs", "5",
            "--budget-classical", "100", "--seed", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "trace_hubo-asc.csv").read_bytes() == (out2 / "trace_hubo-asc.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"]["trace_hubo-asc.csv"] == m2["outputs"]["trace_hubo-asc.csv"]


def test_solve_quadratized_reaches_optimum(tmp_path):
    out = tmp_path / "quad"
    rc = main(["solve", "--formulation", "quadratized", "--runs", "5",
               "--budget-classical", "200", "--seed", "2023", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["quadratized"]["reached_optimum"] == 5
    rows = read_csv(out / "trace_quadratized.csv")
    assert rows[0]["encoding"] == "quadratized(binary_ascending)"


def test_solve_statevector_small(tmp_path):
    out = tmp_path / "sv"
    rc = main(["solve", "--formulation", "hubo-desc", "--backend", "sv",
               "--runs", "2", "--budget-classical", "150", "--seed", "9",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hubo-desc"]["reached_optimum"] == 2


def test_seed_env_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("GASCAP_SEED", "123")
    assert main(["solve", "--formulation", "hubo-asc", "--runs", "3",
                 "--budget-classical", "50", "--out", str(out1)]) == 0
    monkeypatch.delenv("GASCAP_SEED")
    assert main(["solve", "--formulation", "hubo-asc", "--runs", "3",
                 "--budget-classical", "50", "--seed", "123", "--out", str(out2)]) == 0
    assert (out1 / "trace_hubo-asc.csv").read_bytes() == (out2 / "trace_hubo-asc.csv").read_bytes()


def test_verify_passes_on_bundled_instance(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "28/28 checks passed" in out
    assert "[FAIL]" not in out


def test_verify_mismatch_exit_code(tmp_path, capsys):
    # a perturbed instance must trip the golden checks with exit code 2
    inst = reference_instance()
    data = instance_to_dict(inst)
    data["distances"][0][0] = 2.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    assert main(["verify", "--instance", str(path)]) == 2
    assert "[FAIL]" in capsys.readouterr().out


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_ap": 2, "n_ch": 1, "alpha": 1.0,
                               "distances": [[1.0, -1.0], [1.0, 1.0]],
                               "assoc": [[0], [1]]}))
    assert main(["solve", "--instance", str(bad), "--out", str(tmp_path / "x")]) == 1


def test_budget_exit_code(tmp_path):
    # 6^12 assignments exceed the brute-force budget behind the oracle
    inst = synthetic_instance(12, 6, seed=0)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(instance_to_dict(inst)))
    assert main(["solve", "--instance", str(path), "--formulation", "hubo-asc",
                 "--out", str(tmp_path / "y")]) == 3


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # the one-hot objective has 9 * 4 = 36 variables, above the table cap of 24
    assert main(["solve", "--synthetic", "9,4", "--formulation", "qubo",
                 "--out", str(tmp_path / "c")]) == 3
    assert "n_vars=36" in capsys.readouterr().err


def test_statevector_cap_exit_code_before_allocating(tmp_path, capsys, monkeypatch):
    # 18 key + 13 value qubits: the state would take 32 GiB, so numpy may
    # build nothing above the cap while the command runs
    zeros, widths = np.zeros, []

    def bounded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 1 << DEFAULT_QUBIT_CAP, f"allocating {shape} entries"
        return zeros(shape, *args, **kwargs)

    zero = StateVector.zero.__func__

    def spy(cls, n_qubits, *args, **kwargs):
        widths.append(n_qubits)
        with monkeypatch.context() as patch:
            patch.setattr(np, "zeros", bounded_zeros)
            return zero(cls, n_qubits, *args, **kwargs)

    monkeypatch.setattr(StateVector, "zero", classmethod(spy))
    assert main(["solve", "--synthetic", "6,3", "--backend", "sv", "--formulation", "quadratized",
                 "--runs", "1", "--out", str(tmp_path / "q")]) == 3
    assert widths == [31]
    assert "31 qubits above the simulation cap of 24" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [[(0, 0)], [(0, 2), (0, 3)]])
def test_non_finite_distance_exit_code(tmp_path, capsys, cells):
    data = instance_to_dict(reference_instance())
    for i, u in cells:
        data["distances"][i][u] = "INF"
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(data).replace('"INF"', "1e400"))
    assert main(["formulate", "--instance", str(path), "--out", str(tmp_path / "f")]) == 1
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("backend,kinds", [
    ("ideal", ["qubo", "hubo-asc", "hubo-desc", "quadratized"]),
    ("sv", ["hubo-asc", "hubo-desc"]),
])
def test_solve_builds_one_value_table_per_formulation(tmp_path, monkeypatch, backend, kinds):
    calls = []
    original = BinaryPolynomial.evaluate_all

    def counted(self):
        calls.append(self.n_vars)
        return original(self)

    monkeypatch.setattr(BinaryPolynomial, "evaluate_all", counted)
    argv = ["solve", "--backend", backend, "--runs", "3", "--budget-classical", "20",
            "--seed", "1", "--out", str(tmp_path / "t")]
    for kind in kinds:
        argv += ["--formulation", kind]
    assert main(argv) == 0
    assert len(calls) == len(kinds)


def test_solve_output_is_pinned(tmp_path):
    # sha256 of the outputs before the value table was shared between runs
    out = tmp_path / "pin"
    assert main(["solve", "--backend", "ideal", "--formulation", "hubo-asc",
                 "--formulation", "hubo-desc", "--runs", "5", "--seed", "7",
                 "--out", str(out)]) == 0
    want = {
        "summary.json": "12a4b890d8cf49ec83951bad5f302e05b8b640a6665fce169668a8618b262615",
        "trace_hubo-asc.csv": "1dac4e0c205183521a4b6c9e22bc6596d474905e93d20dcd8186bdfd6e9285d8",
        "trace_hubo-desc.csv": "6beaa09ca2c73e2b4dd81dcf419fd3001421ca1153bbe83eac61960bb3c38c4b",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_solve_statevector_output_is_pinned(tmp_path):
    # sha256 of the outputs when every gate was simulated on its own and
    # every draw rebuilt its circuits
    out = tmp_path / "pin-sv"
    assert main(["solve", "--backend", "sv", "--formulation", "hubo-asc",
                 "--formulation", "hubo-desc", "--runs", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    want = {
        "summary.json": "35212763d624e0e615270a1228afe95c70ae6460ca6e7ebab0df3b4502e2f7ee",
        "trace_hubo-asc.csv": "93da34da30b605b689b9cdbce3374ab0c81d75885b2aed86afdbedef4f887377",
        "trace_hubo-desc.csv": "fe7b545ab226f188776ae8a1bf6d606801fb347b6b5a5b47c7e4706a45b4716b",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("penalty", ["nan", "inf", "-inf"])
def test_non_finite_penalty_exit_code(tmp_path, capsys, penalty):
    assert main(["solve", "--formulation", "qubo", f"--penalty={penalty}", "--runs", "2",
                 "--out", str(tmp_path / "p")]) == 1
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["formulate", "--formulation", "qubo"],
    ["solve", "--formulation", "qubo", "--runs", "2"],
    ["formulate", "--synthetic", "6,5", "--formulation", "hubo-asc", "--formulation", "hubo-desc"],
])
def test_overflowing_penalty_exit_code(tmp_path, capsys, argv):
    # a finite penalty whose scaled coefficients overflow to inf or nan
    out = tmp_path / "w"
    assert main(argv + ["--penalty", "1e308", "--out", str(out)]) == 1
    assert "is not finite at penalty weight 1e+308" in capsys.readouterr().err
    assert not list(out.glob("*.poly"))


def test_single_access_point_exit_code(tmp_path, capsys):
    with pytest.warns(UserWarning, match="trivial"):
        assert main(["formulate", "--synthetic", "1,2", "--out", str(tmp_path / "one")]) == 1
    assert "at least 2 access points" in capsys.readouterr().err


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_non_positive_runs_exit_code(tmp_path, capsys, runs):
    # no runs would leave the confidence interval dividing by zero
    out = tmp_path / "r"
    assert main(["solve", "--formulation", "hubo-asc", f"--runs={runs}", "--out", str(out)]) == 1
    assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


def test_path_loss_underflow_exit_code(tmp_path, capsys):
    # finite distances whose cross gains underflow to zero at alpha = 2
    data = instance_to_dict(reference_instance())
    data["alpha"] = 2.0
    data["distances"][0][2] = data["distances"][0][3] = 1e200
    path = tmp_path / "far.json"
    path.write_text(json.dumps(data))
    assert main(["formulate", "--instance", str(path), "--out", str(tmp_path / "f")]) == 1
    assert "invalid input" in capsys.readouterr().err


def test_formulate_output_is_pinned(tmp_path):
    # sha256 of the outputs when each objective was built with one immutable
    # add per AP pair and quadratize recounted every pair on every step
    out = tmp_path / "pin-f"
    assert main(["formulate", "--synthetic", "8,5", "--formulation", "qubo",
                 "--formulation", "hubo-asc", "--formulation", "hubo-desc",
                 "--formulation", "quadratized", "--seed", "3", "--out", str(out)]) == 0
    want = {
        "qubo.poly": "fdcb496832de323da5be031308aa3d50ed35f3741af1c904c27a52f080d13100",
        "hubo-asc.poly": "39d7f79df06a7e2eb3095064ef8495ffbb14d9e4064817fbc1660dda0494743a",
        "hubo-desc.poly": "ea50d40f7f8c1ce869fbf3caec73ad86c8a93609e4ffb6501bb57268a0bc2884",
        "quadratized.poly": "dca21633ae5974e4bb1d671b14fc098668e841b2531df76c350ec6c54dd60892",
        "summary.json": "f4e11feeabe5d2c1c96be479e9952032d9d22af0794fb4a19d652fb3abb19ea5",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_estimate_output_is_pinned(tmp_path):
    # sha256 of resources.csv when the closed forms took a "hubo" kind alias
    out = tmp_path / "pin-e"
    assert main(["estimate", "--sweep", "4:10:2", "--enum-cap", "10", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "resources.csv").read_bytes()).hexdigest()
    assert digest == "6fd8879a9978d8b402936cc96b6f591cc0da0b2a21622458906b7098f2f3f2db"


def test_solve_one_hot_and_quadratized_output_is_pinned(tmp_path):
    # sha256 of the outputs while Encoding's values were the output labels;
    # the traces carry the one_hot and quadratized(binary_ascending) labels
    out = tmp_path / "pin-q"
    assert main(["solve", "--backend", "ideal", "--formulation", "qubo",
                 "--formulation", "quadratized", "--runs", "3", "--seed", "5",
                 "--out", str(out)]) == 0
    want = {
        "summary.json": "81e2ae34a8ff62631a1982e23c039387212ced5caf7460ad74158fde9f5cf25e",
        "trace_qubo.csv": "c47b4a3f72eb0fbe9abd48a532090f02c2ef07fd83d674da37fa2d13867f1156",
        "trace_quadratized.csv": "1bcfe29be0be3235fbf8faaf6e686da0d52224010de48ea59609ef26d9c373de",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_solve_statevector_one_hot_output_is_pinned(tmp_path):
    # sha256 of the outputs while the CLI translated "sv" to a second backend
    # name; the only path that sizes the value register from the formulation
    out = tmp_path / "pin-sv-q"
    assert main(["solve", "--backend", "sv", "--formulation", "qubo", "--runs", "1",
                 "--budget-classical", "6", "--seed", "5", "--out", str(out)]) == 0
    want = {
        "summary.json": "9c731d3a606d80d07481fc9408cdd1cc9fcb9a9a27cf6ae4660f493c642e1a7e",
        "trace_qubo.csv": "28b4485555e5c263cebb190645ff1c5652ab261045b807cecf65bb1830dd56d7",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["solve", "--formulation", "bogus"],
    ["solve", "--runs", "abc"],
    [],
], ids=["unknown-formulation", "non-integer-runs", "no-command"])
def test_usage_error_exit_code(tmp_path, capsys, argv):
    # exit 2 is reserved for golden-value mismatches
    out = tmp_path / "u"
    assert main(argv + ["--out", str(out)] if argv else argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    assert "--backend {ideal,sv}" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_instance_exit_code(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED[name]))
    assert main(["solve", "--instance", str(path), "--runs", "1",
                 "--out", str(tmp_path / "m")]) == 1
    assert "invalid input" in capsys.readouterr().err
