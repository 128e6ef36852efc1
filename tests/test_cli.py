import csv
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from gascap import (
    BinaryPolynomial,
    Encoding,
    GasTrace,
    build_formulation,
    cli,
    default_quadratization_scale,
    loads_poly,
    quadratize,
    simulator,
)
from gascap.cap import instance_to_dict, reference_instance, synthetic_instance
from gascap.cli import main
from gascap.gas import GasIteration
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


@pytest.mark.parametrize("source", [[], ["--synthetic", "6,3", "--seed", "5"]],
                         ids=["bundled", "synthetic"])
def test_formulate_poly_files_read_back_as_the_library_objectives(tmp_path, source):
    out = tmp_path / "f"
    kinds = ["qubo", "hubo-asc", "hubo-desc", "quadratized"]
    argv = ["formulate", *source, "--out", str(out)]
    assert main(argv + [arg for kind in kinds for arg in ("--formulation", kind)]) == 0
    inst = synthetic_instance(6, 3, seed=5) if source else reference_instance()
    asc = build_formulation(inst, "hubo-asc").objective
    want = {kind: build_formulation(inst, kind).objective for kind in kinds[:3]}
    want["quadratized"] = quadratize(asc, default_quadratization_scale(asc)).poly
    for kind in kinds:
        text = (out / f"{kind}.poly").read_text()
        header = text.partition("\n")[0]
        assert header.startswith("# ")  # the line loads_poly skips
        assert loads_poly(text, json.loads(header[2:])["n_vars"]) == want[kind], kind
    # a polynomial compares unequal to anything else, by the other side's rule
    assert want["qubo"].__eq__(header) is NotImplemented and want["qubo"] != header


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


def test_env_seeded_manifest_replays(tmp_path, monkeypatch):
    # the manifest echoes the seed $GASCAP_SEED gave, so its args alone
    # rerun the command to the same outputs
    first, replay = tmp_path / "env", tmp_path / "replay"
    monkeypatch.setenv("GASCAP_SEED", "123")
    assert main(["solve", "--synthetic", "5,3", "--runs", "3", "--out", str(first)]) == 0
    monkeypatch.delenv("GASCAP_SEED")
    args = json.loads((first / "manifest.json").read_text())["args"]
    assert args["seed"] == 123
    argv = [args.pop("command")]
    for key, value in {**args, "out": str(replay)}.items():
        for v in value if isinstance(value, list) else [] if value is None else [value]:
            argv += [f"--{key.replace('_', '-')}", str(v)]
    assert main(argv) == 0
    files = sorted(path.name for path in first.iterdir() if path.name != "manifest.json")
    assert files == sorted(path.name for path in replay.iterdir() if path.name != "manifest.json")
    for name in files:
        assert (first / name).read_bytes() == (replay / name).read_bytes(), name


@pytest.mark.parametrize("value", ["-1", "abc"])
@pytest.mark.parametrize("command", ["formulate", "estimate", "solve"])
def test_seed_env_out_of_range_exit_code(tmp_path, monkeypatch, capsys, command, value):
    # formulate once wrote the negative seed into its manifest, and solve
    # failed with numpy's message after making its output directory
    monkeypatch.setenv("GASCAP_SEED", value)
    out = tmp_path / "s"
    assert main([command, "--out", str(out)]) == 1
    assert "GASCAP_SEED" in capsys.readouterr().err
    assert not out.exists()
    # --seed takes precedence over the variable
    assert main(["formulate", "--seed", "0", "--out", str(out)]) == 0


def test_verify_passes_on_bundled_instance(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "28/28 checks passed" in out
    assert "[FAIL]" not in out


def test_verify_builds_each_formulation_once(monkeypatch, capsys):
    # the channel-1 coefficient checks read the one-hot objective of the loop
    kinds = []
    original = cli.build_formulation

    def counted(inst, kind, *args):
        kinds.append(kind)
        return original(inst, kind, *args)

    monkeypatch.setattr(cli, "build_formulation", counted)
    assert main(["verify"]) == 0
    assert kinds == ["qubo", "hubo-asc", "hubo-desc"]
    assert "28/28 checks passed" in capsys.readouterr().out


def test_formulate_builds_each_objective_once(tmp_path, monkeypatch):
    # quadratized reduces the hubo-asc objective of the same command, in
    # either order, and writes the same file as when it is requested alone
    built = []
    original = cli.build_formulation

    def counted(inst, kind, *args):
        built.append(kind)
        return original(inst, kind, *args)

    monkeypatch.setattr(cli, "build_formulation", counted)
    texts = set()
    for kinds, want in [
        (["quadratized"], ["hubo-asc"]),
        (["quadratized", "hubo-asc"], ["hubo-asc"]),
        (["hubo-asc", "quadratized"], ["hubo-asc"]),
        (["qubo", "hubo-asc", "hubo-desc", "quadratized"], ["qubo", "hubo-asc", "hubo-desc"]),
    ]:
        built.clear()
        out = tmp_path / "-".join(kinds)
        argv = ["formulate", "--synthetic", "6,5", "--seed", "3", "--out", str(out)]
        for kind in kinds:
            argv += ["--formulation", kind]
        assert main(argv) == 0
        assert built == want
        texts.add((out / "quadratized.poly").read_bytes())
    assert len(texts) == 1


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


def test_verify_over_budget_exits_3(tmp_path, capsys):
    # 3^15 assignments exceed the enumeration budget before any check prints
    path = tmp_path / "big.json"
    path.write_text(json.dumps(instance_to_dict(synthetic_instance(15, 3, seed=0))))
    assert main(["verify", "--instance", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("budget exceeded: search space 14348907 exceeds the "
                            "enumeration budget 10000000\n")
    assert captured.out == ""


def test_cap_exceeded_exit_code(tmp_path, capsys):
    # the one-hot objective has 9 * 4 = 36 variables, above the table cap of 24
    assert main(["solve", "--synthetic", "9,4", "--formulation", "qubo",
                 "--out", str(tmp_path / "c")]) == 3
    assert "n_vars=36" in capsys.readouterr().err


def test_statevector_cap_exit_code_before_allocating(tmp_path, capsys, monkeypatch):
    # 18 key + 12 value qubits at the base width: the state would take
    # 16 GiB, so numpy may build nothing above the cap while the command runs
    widths, check_cap = [], simulator._check_cap

    def bounded(alloc):
        def guarded(shape, *args, **kwargs):
            assert np.prod(shape) <= 1 << DEFAULT_QUBIT_CAP, f"allocating {shape} entries"
            return alloc(shape, *args, **kwargs)
        return guarded

    monkeypatch.setattr(np, "zeros", bounded(np.zeros))
    monkeypatch.setattr(np, "empty", bounded(np.empty))
    # the sampler checks its base width when it is built, before any draw
    monkeypatch.setattr(simulator, "_check_cap", lambda n: widths.append(n) or check_cap(n))
    monkeypatch.setattr(simulator.StateVectorSampler, "sample", lambda *a: pytest.fail("drew"))
    out = tmp_path / "q"
    assert main(["solve", "--synthetic", "6,3", "--backend", "sv", "--formulation", "quadratized",
                 "--runs", "1", "--out", str(out)]) == 3
    assert widths == [30]
    assert not out.exists()
    assert "30 qubits above the simulation cap of 24" in capsys.readouterr().err


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


@pytest.mark.parametrize("extra, want", [
    ([], {
        "summary.json": "76e67fc09feb6f811426678bf13d609b162f78bc7eb5cdba27c5b4e014513c60",
        "trace_hubo-asc.csv": "fb3b4bd1c66ae40fb592f3214d12bc1a0aec688dc67ed2d99cf26d5bc5f072d7",
        "trace_hubo-desc.csv": "94ca8705426ad124fed12267b478783ec7c186e08a6ec8b64f706bfe9e9ad8cb",
    }),
    (["--budget-quantum", "40"], {
        "summary.json": "23da3fdd6ea1b1c3be39921d92d32c90b546cbefc04a2413988d18f5562b8e07",
        "trace_hubo-asc.csv": "3f1057159c5bc9e3a8fb6ee34d12bbc770e6d5a06a746dce5607128c866fe470",
        "trace_hubo-desc.csv": "f58de77225038cce3277a88f73e61a1b53097edd0a7cba1fd8b55145053f6ee0",
    }),
])
def test_solve_benchmark_size_output_is_pinned(tmp_path, extra, want):
    # sha256 of the outputs while the sampler sorted its table stably and
    # worked out t and the marked probability on every draw; the 16-variable
    # tables hold 25,652 and 11,615 distinct values, so many of their keys tie
    out = tmp_path / "pin-ideal-25"
    assert main(["solve", "--synthetic", "8,3", "--seed", "1", "--backend", "ideal",
                 "--formulation", "hubo-asc", "--formulation", "hubo-desc", "--runs", "25",
                 *extra, "--out", str(out)]) == 0
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_trace_lines_are_the_csv_writers_rows(tmp_path):
    # the rows cmd_solve and cmd_estimate wrote with csv.writer before they
    # wrote lines
    def writer_text(rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()

    its = [GasIteration(0, 2.0, 1.0, 0, 5, 2.0, False),
           GasIteration(1, 2.0, 1.1, 3, 1, -3.25, True),
           GasIteration(2, -3.25, 1.0, 1, 2, 1e-7, False),
           GasIteration(3, 1e17, 1.3, 2, 7, 1e-7, True),
           GasIteration(4, 1e-7, 1.0, 0, 4, -math.inf, True),
           GasIteration(5, math.inf, 2.0, 1, 0, math.inf, False),
           GasIteration(6, -1e-300, 1.0, 4, 3, math.nan, False),
           GasIteration(7, 123456789012345.0, 1.0, 0, 6, 3.0, True)]
    trace = GasTrace(its, 6, 3.0, len(its) + 1, 11)
    for kind in cli.FORMULATION_KINDS:
        encoding = "quadratized(binary_ascending)" if kind == "quadratized" else Encoding(kind).label
        for lo, span in ((-3.25, 1.0), (0.0, 1e17), (2.0, 7.0)):
            rows, cum_q = [], 0
            for it in trace.iterations:
                cum_q += it.l_i
                best = min(it.y_i, it.sampled_y)
                rows.append([4, kind, encoding, it.i, cli._fmt(it.y_i), it.l_i,
                             it.i + 2, cum_q, cli._fmt(100.0 * (best - lo) / span)])
            got = "".join(cli._trace_lines(f"4,{kind},{encoding}", trace, lo, span))
            assert got == writer_text(rows)
    # no field of resources.csv needs quoting, enumerated or not
    for sizes, cap in (("4:16:1", "16"), ("4:12:2", "12"), ("4:40:3", "8")):
        out = tmp_path / sizes.replace(":", "_")
        assert main(["estimate", "--sweep", sizes, "--enum-cap", cap, "--out", str(out)]) == 0
        text = (out / "resources.csv").read_text()
        rows = list(csv.reader(io.StringIO(text)))
        assert len({len(row) for row in rows}) == 1  # an unquoted "," adds a field
        assert text == writer_text(rows)


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


def test_solve_statevector_benchmark_size_output_is_pinned(tmp_path):
    # sha256 of the outputs while every draw simulated its state afresh; at
    # 25 runs per formulation the draws revisit thresholds and rotation counts
    out = tmp_path / "pin-sv-25"
    assert main(["solve", "--backend", "sv", "--formulation", "hubo-asc",
                 "--formulation", "hubo-desc", "--runs", "25", "--seed", "4",
                 "--out", str(out)]) == 0
    want = {
        "summary.json": "dc9905dca3935f596e6ae62ede1719f48609558e18e3f71bfb0b8d64e4e4389e",
        "trace_hubo-asc.csv": "709216d3ade7157e40c27acb6e135e66c6821c0cd5c40c42e345f76445bf15b8",
        "trace_hubo-desc.csv": "c80ad202d2f5c8ab37fbdaf64d9c3a1f01122d0f69e7a49791d817bd6d06170b",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["--backend", "ideal", "--formulation", "qubo", "--formulation", "hubo-asc",
     "--formulation", "hubo-desc", "--runs", "10", "--seed", "3"],
    ["--synthetic", "8,3", "--seed", "1", "--formulation", "hubo-asc",
     "--formulation", "hubo-desc", "--runs", "10"],
    ["--backend", "sv", "--formulation", "hubo-asc", "--formulation", "hubo-desc",
     "--runs", "5", "--seed", "4"],
])
def test_solve_output_does_not_depend_on_tie_order(tmp_path, monkeypatch, argv):
    # a draw returns some key of the drawn value's tie group, and only that
    # value moves the search, so reversing the keys within every group of
    # equal values changes no output
    def written(name):
        out = tmp_path / name
        assert main(["solve", *argv, "--out", str(out)]) == 0
        return {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}

    want = written("sorted")
    init = simulator.IdealSampler.__init__
    reordered = []

    def reversed_ties(self, p):
        init(self, p)
        v = self.sorted_values  # finite: an objective's table holds no NaN
        group = np.cumsum(np.r_[True, v[1:] != v[:-1]])
        # within a group, the later position first
        order = self.order[np.lexsort((-np.arange(v.size), group))]
        reordered.append((group[-1] < v.size, not np.array_equal(order, self.order)))
        self.order, self.sorted_values = order, self.values[order]

    monkeypatch.setattr(simulator.IdealSampler, "__init__", reversed_ties)
    got = written("reversed")
    # one sampler per formulation, each with ties to reverse
    assert all(tied and moved for tied, moved in reordered)
    assert got.keys() == want.keys() and len(got) == len(reordered) + 1
    for name in want:
        assert got[name] == want[name], name


def test_solve_frees_each_value_table_before_the_next(tmp_path):
    # a sampler holds its objective's value table, three arrays of 2^18
    # entries at 18 variables; the second formulation's search must not
    # also hold the first one's
    def peak(*kinds):
        argv = ["solve", "--synthetic", "9,4", "--runs", "1", "--out", str(tmp_path / kinds[-1])]
        tracemalloc.start()
        try:
            assert main(argv + [a for kind in kinds for a in ("--formulation", kind)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = max(peak("hubo-asc"), peak("hubo-desc"))  # the first also pays first-call costs
    assert peak("hubo-asc", "hubo-desc") < alone + (1 << 19)


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


def test_formulate_benchmark_size_output_is_pinned(tmp_path):
    # sha256 of the outputs at the compile benchmark's 16 x 6 size, where
    # quadratize makes 64 substitutions and many pair counts tie, taken while
    # its pair counts lived in a Python dict and every builder's dict was
    # canonicalized again by the public constructor
    out = tmp_path / "pin-f16"
    assert main(["formulate", "--synthetic", "16,6", "--formulation", "qubo",
                 "--formulation", "hubo-asc", "--formulation", "hubo-desc",
                 "--formulation", "quadratized", "--seed", "1", "--out", str(out)]) == 0
    want = {
        "qubo.poly": "804ecedb21ed6c735afc627b9d610a5a99deab614c7e822b6b4a801708cc29d7",
        "hubo-asc.poly": "28b37c030d72aee8a142e63a7922f7aa7de379c1ab057d56e78c0a742f6426b1",
        "hubo-desc.poly": "8026e03119a24d6ea86cad93af6bf9d6dd186846be1e439fcb2b0d22562bbc4a",
        "quadratized.poly": "092ae49ecee335da5d41a4c258cf2bfced19d2c2807499d25e47090045e56ed1",
        "summary.json": "4b205acbb5e250d6f122ac6c7caa2b03c6a2ec574e85683ca6e53a45dd5ed4ba",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_formulate_penalty_output_is_pinned(tmp_path):
    # sha256 of the outputs while each kind wrote its own .poly header; the
    # header echoes a penalty other than the default
    out = tmp_path / "pin-fp"
    assert main(["formulate", "--synthetic", "6,5", "--formulation", "qubo",
                 "--formulation", "hubo-asc", "--formulation", "hubo-desc",
                 "--formulation", "quadratized", "--seed", "3", "--penalty", "2.5",
                 "--out", str(out)]) == 0
    want = {
        "qubo.poly": "153d388ddfd62c2ad6b1f98cb4ef9f9c0c997995d49d61881975821a6546f6a1",
        "hubo-asc.poly": "abfdb10c06094250d2f3252cd63c02a520a22f3bcdd49c4cbc88c7552f15815a",
        "hubo-desc.poly": "99147e187fdc32e9376e19bbcdb53efead4e6b5b689c667e143b954f0f433615",
        "quadratized.poly": "378194830f143240e4e5dd6a569c0ffcf6d09fa390f827f90257a3e71e985214",
        "summary.json": "b06881848f2460f35ee791c7e9924e9ed478518073cd4ade33c4220153dd0454",
    }
    for name, digest in want.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_estimate_output_is_pinned(tmp_path):
    # sha256 of resources.csv when the closed forms took a "hubo" kind alias
    out = tmp_path / "pin-e"
    assert main(["estimate", "--sweep", "4:10:2", "--enum-cap", "10", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "resources.csv").read_bytes()).hexdigest()
    assert digest == "6fd8879a9978d8b402936cc96b6f591cc0da0b2a21622458906b7098f2f3f2db"


def test_compile_estimate_output_is_pinned(tmp_path):
    # sha256 of resources.csv for the compile benchmark's sweep while every
    # phase rotation was its own gate, counted one by one
    out = tmp_path / "pin-e16"
    assert main(["estimate", "--sweep", "4:16:1", "--enum-cap", "16", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "resources.csv").read_bytes()).hexdigest()
    assert digest == "853c90110b6fce78ff99ed383431a0371a92dc163129a7c92003332735d631f2"


def test_closed_form_estimate_output_is_pinned(tmp_path):
    # sha256 of resources.csv past any enumeration, 16 sizes x 3 kinds of
    # closed-form columns only, while the qubit total and the gate report
    # came from two closed forms
    out = tmp_path / "pin-e64"
    assert main(["estimate", "--sweep", "4:64:4", "--enum-cap", "0", "--out", str(out)]) == 0
    text = (out / "resources.csv").read_bytes()
    assert text.count(b"\n") == 49
    digest = hashlib.sha256(text).hexdigest()
    assert digest == "42d4843a69cebd94c7272f30c4f4ea38386a5df5a850113f2da6f7689d71f88d"


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
    out = tmp_path / "m"
    assert main(["solve", "--instance", str(path), "--runs", "1", "--out", str(out)]) == 1
    assert "invalid input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["n_ap", "n_ch", "distances", "assoc"])
def test_missing_instance_field_exit_code(tmp_path, capsys, field):
    # a missing field once escaped as a KeyError, printed as its bare name
    data = instance_to_dict(reference_instance())
    del data[field]
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(data))
    assert main(["formulate", "--instance", str(path), "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == f"invalid input: an instance needs the field {field!r}\n"


def test_verify_needs_the_golden_access_points(tmp_path, capsys):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(instance_to_dict(synthetic_instance(3, 2, seed=0))))
    assert main(["verify", "--instance", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "invalid input: verify needs the 4 golden access points, got 3\n"
    assert captured.out == ""


@pytest.mark.parametrize("error", [IndexError, KeyError])
def test_an_internal_lookup_error_is_not_invalid_input(tmp_path, monkeypatch, error):
    def broken(inst):
        raise error("internal")

    monkeypatch.setattr(cli, "coeff_table", broken)
    with pytest.raises(error, match="internal"):
        main(["formulate", "--out", str(tmp_path / "b")])


@pytest.mark.parametrize("source, matched", [
    # at the default penalty this objective's minimum, 3.1187, spells no
    # assignment; the oracle's optimum is 3.4656
    (["--synthetic", "8,3", "--seed", "1"], False),
    ([], True),  # the bundled network: every minimum is the oracle's 0.010
])
def test_oracle_matched_compares_against_the_oracle(tmp_path, source, matched):
    out = tmp_path / "o"
    assert main(["solve", *source, "--formulation", "hubo-asc", "--runs", "3",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hubo-asc"]["reached_optimum"] == 3
    assert summary["hubo-asc"]["oracle_matched"] is matched


@pytest.mark.parametrize("argv, code", [
    (["solve", "--synthetic", "12,4"], 3),
    (["formulate", "--synthetic", "4,1", "--formulation", "hubo-asc"], 1),
    # a later formulation fails after an earlier one has succeeded: the 9x3
    # qubo objective has 27 variables, above the value-table cap of 24, and at
    # penalty 1e308 the one-hot coefficients overflow where the binary ones do not
    (["solve", "--synthetic", "9,3", "--formulation", "hubo-asc", "--formulation", "qubo",
      "--runs", "1"], 3),
    (["formulate", "--synthetic", "6,4", "--formulation", "hubo-asc", "--formulation", "qubo",
      "--penalty", "1e308"], 1),
])
def test_failed_command_leaves_no_output_directory(tmp_path, argv, code):
    out = tmp_path / "never"
    assert main(argv + ["--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["formulate", "--formulation", "qubo", "--formulation", "quadratized"],
    ["estimate", "--sweep", "4:6:2"],
    ["solve", "--formulation", "hubo-asc", "--formulation", "quadratized", "--runs", "2"],
], ids=["formulate", "estimate", "solve"])
def test_manifest_matches_the_output_directory(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {path.name for path in out.iterdir()} - {"manifest.json"}
    assert set(manifest["outputs"]) == files
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert manifest["command"] == argv[0]
    assert manifest["args"]["out"] == str(out)


@pytest.mark.parametrize("argv", [
    ["solve", "--budget-classical=-1"],
    ["solve", "--budget-classical=0"],
    ["solve", "--budget-quantum=-5"],
    ["estimate", "--sweep=16:4:1"],
    ["estimate", "--sweep=4:8:-1"],
    ["estimate", "--sweep=4:8:0"],
    ["estimate", "--sweep=2:3:1"],
    ["estimate", "--sweep=4:8"],
    ["estimate", "--sweep=4:8:two"],
    ["estimate", "--enum-cap=-1"],
    ["formulate", "--synthetic=4"],
    ["solve", "--synthetic=4,3,2"],
    ["formulate", "--seed=-1"],
    ["estimate", "--seed=-1"],
    ["solve", "--seed=-1"],
], ids="_".join)
def test_flag_out_of_range_exit_code(tmp_path, capsys, argv):
    # each of these once ran and wrote an empty or meaningless result, or
    # failed with a message that did not say which flag was wrong
    out = tmp_path / "v"
    assert main(argv + ["--formulation=hubo-asc"] * (argv[0] != "estimate")
                + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err
    assert argv[1].split("=")[0] in err
    assert not out.exists()


def test_instance_and_synthetic_together_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(instance_to_dict(reference_instance())))
    out = tmp_path / "both"
    assert main(["formulate", "--instance", str(path), "--synthetic", "6,3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "not allowed with argument --instance" in err
    assert not out.exists()
