"""Tests for the command-line interface: exit codes, outputs, manifests."""

import json
import math
import os

import numpy as np
import pytest

from blockldp import (MarkovSpec, digit_source, file_source, gaussian_source,
                      markov_path)
from blockldp import cli, experiments, sources
from blockldp._serialize import read_csv_columns
from blockldp.cli import main


def _sym_chain_file(tmp_path):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"P": [[0.9, 0.1], [0.1, 0.9]],
                             "phi": [0.0, 1.0]}))
    return str(p)


def test_usage_exit_codes(tmp_path, capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["--version"]) == 0
    assert main(["regime", "--model", "nope:1", "--lambda0", "0.5"]) == 2
    assert main(["regime", "--model", "bernoulli:2.0", "--lambda0", "0.5"]) == 2
    assert main(["regime", "--model", "gaussian:2", "--lambda0", "0.5"]) == 2
    out = str(tmp_path / "x.csv")
    base = ["analyze", "--kind", "iid-digit", "--n", "5", "--out", out]
    assert main(base) == 2                      # neither --k nor --c
    assert main(base + ["--k", "2", "--c", "0.1"]) == 2  # both
    # k = ceil(e^600) blocks cannot be indexed: usage error, no CSV written
    assert main(["analyze", "--kind", "iid-digit", "--n", "2000", "--c", "0.3",
                 "--out", out]) == 2
    assert not os.path.exists(out)
    assert "n*k" in capsys.readouterr().err
    capsys.readouterr()


def test_missing_input_exit_code(tmp_path):
    out = str(tmp_path / "x.csv")
    code = main(["analyze", "--in", str(tmp_path / "missing.txt"), "--n", "5",
                 "--k", "2", "--out", out])
    assert code == 4


def test_data_exit_codes(tmp_path, capsys):
    data = tmp_path / "short.txt"
    data.write_text("123456")
    out = str(tmp_path / "o.csv")
    code = main(["analyze", "--in", str(data), "--n", "5", "--k", "3",
                 "--lambda-grid", "0,1", "--out", out])
    assert code == 3  # only one full block available
    csv = tmp_path / "f.csv"
    csv.write_text("lambda,value\n1.0,0.5\n0.0,0.0\n")
    code = main(["legendre", "--in", str(csv), "--x-grid", "0,1", "--out", out])
    assert code == 3  # non-increasing lambda column
    bad = tmp_path / "h.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["legendre", "--in", str(bad), "--x-grid", "0,1",
                 "--out", out]) == 3
    # extra cell, non-numeric cell, short row
    for body in ("0.0,0.0\n1.0,0.5,9\n", "0.0,0.0\n1.0,abc\n", "0.0,0.0\n1.0\n"):
        bad.write_text("lambda,value\n" + body)
        assert main(["legendre", "--in", str(bad), "--x-grid", "0,1",
                     "--out", out]) == 3
        assert "line 3" in capsys.readouterr().err


def test_gen_digit_stream_frozen(tmp_path, capsys):
    out = tmp_path / "d.txt"
    code = main(["gen", "--kind", "iid-digit", "--m", "10", "--seed", "7",
                 "--count", "8", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "7\n4\n6\n3\n4\n5\n8\n2\n"
    with open(str(out) + ".manifest.json") as fh:
        man = json.load(fh)
    assert man["command"] == "gen" and man["seeds"] == [7]
    assert int(man["config"]["count"]) == 8
    capsys.readouterr()


def test_gen_rerun_identical_and_roundtrip(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["gen", "--kind", "iid-digit", "--m", "10", "--seed", "1",
            "--count", "64"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # the emitted file re-ingests as the same symbol stream
    sym = file_source(a, 10).symbols(0, 64)
    assert np.array_equal(sym, digit_source(1, 10).symbols(0, 64))
    capsys.readouterr()


def test_gen_gaussian_and_markov(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "gaussian", "--d", "2", "--seed", "3",
                 "--count", "4", "--out", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines()]
    assert len(rows) == 4 and all(len(r) == 2 for r in rows)
    got = np.array([[float(c) for c in r] for r in rows])
    assert np.array_equal(got, gaussian_source(3, 2).batch(0, 4))
    out2 = tmp_path / "m.txt"
    assert main(["gen", "--kind", "markov", "--markov-file",
                 _sym_chain_file(tmp_path), "--seed", "5", "--count", "6",
                 "--out", str(out2)]) == 0
    got = [float(line) for line in out2.read_text().split()]
    spec = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]))
    assert got == list(markov_path(spec, 5, 6))
    capsys.readouterr()


def test_gen_bad_markov_specs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "m.txt")
    argv = ["gen", "--kind", "markov", "--markov-file", str(bad),
            "--count", "3", "--out", out]
    bad.write_text("{not json")
    assert main(argv) == 2
    bad.write_text(json.dumps({"P": [[0.5, 0.4], [0.1, 0.9]],
                               "phi": [0.0, 1.0]}))
    assert main(argv) == 2
    bad.write_text(json.dumps({"P": [[1.0]], "phi": [0.0], "extra": 1}))
    assert main(argv) == 2
    bad.write_text(json.dumps({"phi": [0.0]}))
    assert main(argv) == 2
    bad.write_text(json.dumps({"P": [[1.0], [0.5, 0.5]], "phi": [0.0]}))
    assert main(argv) == 2
    capsys.readouterr()


def test_analyze_known_values(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("100000000020000000003000000000")
    out = tmp_path / "scgf.csv"
    code = main(["analyze", "--in", str(data), "--m", "10", "--n", "10",
                 "--k", "3", "--lambda-grid", "0,0.5", "--ball", "0.2,0.05",
                 "--out", str(out)])
    assert code == 0
    cols = read_csv_columns(out, ["lambda", "value"])
    assert cols["value"][0] == 0.0
    want = math.log((math.exp(0.5) + math.exp(1.0) + math.exp(1.5)) / 3.0) / 10
    assert cols["value"][1] == pytest.approx(want, rel=1e-14)
    ball = read_csv_columns(tmp_path / "scgf_ball.csv", ["x", "mass"])
    assert ball["x"][0] == 0.2
    assert ball["mass"][0] == pytest.approx(1.0 / 3.0, rel=1e-15)
    with open(str(out) + ".manifest.json") as fh:
        man = json.load(fh)
    assert "d.txt" in man["input_checksums"]
    assert int(man["config"]["n"]) == 10
    capsys.readouterr()


def test_analyze_bad_ball_writes_nothing(tmp_path, capsys):
    out = tmp_path / "scgf.csv"
    code = main(["analyze", "--kind", "iid-digit", "--n", "5", "--k", "2",
                 "--lambda-grid", "0,1", "--ball", "0.1", "--out", str(out)])
    assert code == 2  # a center but no radius
    assert not out.exists()
    capsys.readouterr()


def test_analyze_with_schedule_exponent(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = main(["analyze", "--kind", "iid-bernoulli", "--p", "0.5", "--seed",
                 "2", "--n", "10", "--c", "0.2", "--lambda-grid=-1:1:0.5",
                 "--out", str(out)])
    assert code == 0
    cols = read_csv_columns(out, ["lambda", "value"])
    assert cols["lambda"].size == 5
    # k = ceil(e^2) = 8 blocks of means in [0, 1] bound the values by |lambda|
    assert np.all(np.abs(cols["value"]) <= 1.0)
    capsys.readouterr()


def test_legendre_cli_roundtrip(tmp_path, capsys):
    lam = tmp_path / "lam.csv"
    xs = np.linspace(-3.0, 3.0, 601)
    rows = "\n".join("%r,%r" % (float(l), float(0.5 * l * l)) for l in xs)
    lam.write_text("lambda,value\n" + rows + "\n")
    out = tmp_path / "conj.csv"
    assert main(["legendre", "--in", str(lam), "--x-grid=-1:1:0.5",
                 "--out", str(out)]) == 0
    cols = read_csv_columns(out, ["x", "value", "argmax_lambda", "boundary"])
    assert cols["value"][2] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(cols["value"] - 0.5 * cols["x"] ** 2)) <= 1e-4
    assert not cols["boundary"].any()
    assert os.path.exists(str(out) + ".manifest.json")
    capsys.readouterr()


def test_regime_cli_gaussian_json(capsys):
    code = main(["regime", "--model", "gaussian:1", "--lambda0", "1.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "critical"
    assert doc["model"] == "gaussian:1"
    assert doc["threshold"] == 0.5 and doc["c"] == 0.5
    assert doc["lambda1"] == pytest.approx(-1.0, abs=1e-7)
    assert doc["lambda2"] == pytest.approx(1.0, abs=1e-7)
    assert doc["x1"] == pytest.approx(-1.0, abs=1e-7)
    assert doc["x2"] == pytest.approx(1.0, abs=1e-7)
    assert doc["prediction"]["samples"]["2"] == pytest.approx(1.5, rel=1e-12)


def test_regime_cli_markov_model(tmp_path, capsys):
    spec = _sym_chain_file(tmp_path)
    for c, want in (("0.02", "subcritical"), ("0.5", "supercritical")):
        code = main(["regime", "--model", "markov:" + spec, "--lambda0", "1.0",
                     "--c", c])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["regime"] == want


def test_freq_cli_json_and_csv(tmp_path, capsys):
    data = tmp_path / "d.txt"
    data.write_text("3.14159265358979")
    out = tmp_path / "w.csv"
    code = main(["freq", "--in", str(data), "--n0", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 15 and doc["windows"] == 15
    assert doc["uniform"] == 0.1
    assert doc["max_dev"] == pytest.approx(0.1, rel=1e-12)
    cols = read_csv_columns(out, ["word", "count", "freq"])
    assert cols["count"].sum() == 15
    assert cols["count"][5] == 3.0  # '5' appears three times
    code = main(["freq", "--in", str(data), "--n0", "1", "--count", "3"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["windows"] == 3


def test_freq_cli_decodes_file_once(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.txt"
    data.write_text("3.14159265358979")
    real = sources.read_digit_file
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (cli, experiments, sources):
        monkeypatch.setattr(mod, "read_digit_file", counting, raising=False)
    assert main(["freq", "--in", str(data), "--n0", "2"]) == 0
    assert len(calls) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 15 and doc["windows"] == 14


def test_manifest_flag_keys(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "gaussian", "--d", "2", "--count", "2",
                 "--out", str(out)]) == 0
    with open(str(out) + ".manifest.json") as fh:
        keys = set(json.load(fh)["config"])
    assert keys == {"kind", "seed", "m", "p", "d", "markov_file", "count", "out"}
    out = tmp_path / "a.csv"
    assert main(["analyze", "--kind", "iid-digit", "--n", "4", "--k", "3",
                 "--lambda-grid", "0,1", "--out", str(out)]) == 0
    with open(str(out) + ".manifest.json") as fh:
        keys = set(json.load(fh)["config"])
    assert keys == {"infile", "kind", "seed", "m", "a", "p", "d", "markov_file",
                    "n", "k", "c", "lambda_grid", "ball", "out"}
    assert main(["gen", "--count", "2", "--out", str(out)]) == 2  # --kind required
    assert main(["gen", "--kind", "iid-digit", "--a", "1", "--count", "2",
                 "--out", str(out)]) == 2  # no file flags on gen
    capsys.readouterr()


def test_out_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BLOCKLDP_OUT", str(tmp_path))
    assert main(["gen", "--kind", "iid-digit", "--seed", "1", "--count", "3",
                 "--out", "rel.txt"]) == 0
    assert (tmp_path / "rel.txt").exists()
    assert (tmp_path / "rel.txt.manifest.json").exists()
    capsys.readouterr()


def test_fig1_cli_and_bad_config(tmp_path, capsys):
    cfg = {"kind": "iid-digit", "m": 10, "a": 0, "n_list": [20], "seeds": [1],
           "budget": 1e5, "lambda_grid": [-1.0, 1.0, 0.5],
           "x_grid": [0.05, 0.25, 0.05], "out_dir": str(tmp_path / "out")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["fig1", "--config", str(p)]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    p.write_text("{oops")
    assert main(["fig1", "--config", str(p)]) == 2
    p.write_text(json.dumps({"kind": "iid-digit", "mystery": 1}))
    assert main(["fig1", "--config", str(p)]) == 2
    p.write_text("[]")
    assert main(["fig1", "--config", str(p)]) == 2
    p.write_text(json.dumps({"n_list": "ab"}))
    assert main(["fig1", "--config", str(p)]) == 2
    assert main(["fig1", "--config", str(tmp_path / "nope.json")]) == 4
    capsys.readouterr()


def test_brownian_cli(tmp_path, capsys):
    cfg = {"kind": "gaussian", "d": 1, "c": 0.5, "R": 1.0, "eps": 0.2,
           "n_list": [6], "seeds": [1], "x_list": [0.0], "budget": 1e5,
           "out_dir": str(tmp_path / "bw")}
    p = tmp_path / "b.json"
    p.write_text(json.dumps(cfg))
    assert main(["brownian", "--config", str(p)]) == 0
    cols = read_csv_columns(tmp_path / "bw" / "brownian.csv", None)
    assert cols["n"][0] == 6.0 and cols["k"][0] == 21.0
    assert 0.0 < cols["mass"][0] <= 1.0
    assert (tmp_path / "bw" / "manifest.json").exists()
    bad = dict(cfg)
    del bad["R"]
    p.write_text(json.dumps(bad))
    assert main(["brownian", "--config", str(p)]) == 2
    bad = dict(cfg)
    bad["budget"] = 10
    p.write_text(json.dumps(bad))
    assert main(["brownian", "--config", str(p)]) == 2
    capsys.readouterr()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "all selftests passed"
    assert all(line.startswith("ok - ") for line in lines[:-1])


def test_selftest_failure_exit(monkeypatch, capsys):
    monkeypatch.setattr(cli, "SELFTESTS", cli.SELFTESTS + [
        ("deliberately wrong", lambda: 1 + 1 == 3),
        ("deliberately raising", lambda: 1 / 0)])
    assert main(["selftest"]) == 3
    out = capsys.readouterr().out
    assert "FAIL - deliberately wrong: " in out
    assert "FAIL - deliberately raising: division by zero" in out
    assert out.splitlines()[-1] == "2 selftest failure(s)"
