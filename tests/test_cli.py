"""Tests for the command-line interface: exit codes, outputs, manifests."""

import glob
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.stats import norm

from blockldp import (MarkovSpec, digit_source, file_source, gaussian_source,
                      markov_source)
from blockldp import cli, experiments, sources
from blockldp._serialize import fmt_cell, read_csv_columns
from blockldp.cli import main

from _reference import sizes

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _run_python(args, cwd, preexec_fn=None):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    env.pop("BLOCKLDP_OUT", None)
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=preexec_fn)


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
    capsys.readouterr()
    for lambda0 in ("nan", "inf"):
        assert main(["regime", "--model", "bernoulli:0.5", "--lambda0", lambda0]) == 2
        assert "tilt" in capsys.readouterr().err
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


def test_non_ascii_digit_file_names_the_byte(tmp_path, capsys):
    # The 0xC3 of a UTF-8 "\u00e9" and the 0xEF of a byte-order mark are named
    # by value, not as the Latin-1 characters they would decode to.
    data = tmp_path / "d.txt"
    out = str(tmp_path / "a.csv")
    for body, byte, offset in ((b"31\xc3\xa9415", r"b'\xc3'", 2),
                               (b"\xef\xbb\xbf31415", r"b'\xef'", 0)):
        data.write_bytes(body)
        for argv in (["freq", "--in", str(data)],
                     ["analyze", "--in", str(data), "--n", "1", "--k", "5", "--out", out]):
            assert main(argv) == 3
            assert capsys.readouterr().err == (
                "error: unexpected byte %s at offset %d in digit file\n" % (byte, offset))
    assert not os.path.exists(out)


def test_analyze_takes_one_of_in_and_kind(tmp_path, capsys):
    # A file run that also names a generated kind is refused before anything
    # is read or written, rather than analyzing the file under a manifest
    # that records the kind's flags.
    data = tmp_path / "d.txt"
    data.write_text("31415926")
    out = tmp_path / "a.csv"
    base = ["analyze", "--n", "2", "--k", "2", "--lambda-grid", "0,1", "--out", str(out)]
    assert main(base + ["--in", str(data), "--kind", "gaussian", "--seed", "9"]) == 2
    assert "not allowed with argument --in" in capsys.readouterr().err
    assert main(base) == 2  # neither
    assert "--in --kind" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "a.csv.manifest.json").exists()
    assert main(base + ["--in", str(data)]) == 0
    assert main(base + ["--kind", "iid-digit"]) == 0


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
    sym = file_source(a, 10).reader().read(64)
    assert np.array_equal(sym, digit_source(1, 10).reader().read(64))
    capsys.readouterr()


def test_gen_digit_layout_across_chunks(tmp_path, capsys):
    # gen writes one digit per line: 400,002 bytes, over six chunks of the
    # default size, each with half its bytes line breaks.
    out = tmp_path / "d.txt"
    assert main(["gen", "--kind", "iid-digit", "--m", "7", "--seed", "5",
                 "--count", "200001", "--out", str(out)]) == 0
    assert out.stat().st_size == 400_002
    src = digit_source(5, 7)
    assert np.array_equal(file_source(out, 7).reader().read(200_002), src.reader().read(200_001))
    capsys.readouterr()
    csv = tmp_path / "w.csv"
    assert main(["freq", "--in", str(out), "--m", "7", "--n0", "2", "--out", str(csv)]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = experiments.frequency_test(src, 2, 200_001)
    assert (doc["N"], doc["windows"], doc["max_dev"]) == (want.N, want.windows, want.max_dev)
    cols = read_csv_columns(csv, ["word", "count", "freq"])
    assert cols["count"].tolist() == want.counts.tolist()


def test_gen_gaussian_and_markov(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "gaussian", "--d", "2", "--seed", "3",
                 "--count", "4", "--out", str(out)]) == 0
    rows = [line.split() for line in out.read_text().splitlines()]
    assert len(rows) == 4 and all(len(r) == 2 for r in rows)
    got = np.array([[float(c) for c in r] for r in rows])
    assert np.array_equal(got, gaussian_source(3, 2).reader().read(4))
    out2 = tmp_path / "m.txt"
    assert main(["gen", "--kind", "markov", "--markov-file",
                 _sym_chain_file(tmp_path), "--seed", "5", "--count", "6",
                 "--out", str(out2)]) == 0
    got = [float(line) for line in out2.read_text().split()]
    spec = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]))
    assert got == markov_source(spec, 5).reader().read(6)[:, 0].tolist()
    capsys.readouterr()


GEN_KINDS = {
    "iid-digit": ["--kind", "iid-digit", "--m", "10"],
    "iid-bernoulli": ["--kind", "iid-bernoulli", "--p", "0.3"],
    "gaussian": ["--kind", "gaussian", "--d", "2"],
    "markov": ["--kind", "markov"],
}


@pytest.mark.parametrize("kind", sorted(GEN_KINDS))
def test_gen_writes_in_batches(kind, tmp_path, monkeypatch, capsys):
    # 21 or 23 rows in batches of 7, the last one full or not: the file
    # equals one-shot formatting of every row.
    sizes(monkeypatch, block=7)
    counts = []
    read = sources.Reader.read

    def counted(self, count):
        counts.append(count)
        return read(self, count)

    monkeypatch.setattr(sources.Reader, "read", counted)
    for rows, batches in ((21, [7, 7, 7]), (23, [7, 7, 7, 2])):
        flags = GEN_KINDS[kind] + ["--seed", "4", "--count", str(rows)]
        if kind == "markov":
            flags += ["--markov-file", _sym_chain_file(tmp_path)]
        out = tmp_path / "g.txt"
        counts.clear()
        assert main(["gen"] + flags + ["--out", str(out)]) == 0
        # every kind, a Markov chain too, generates one batch at a time
        assert counts == batches
        src = cli._build_source(cli.build_parser().parse_args(
            ["gen"] + flags + ["--out", str(out)]))
        # uint8 digit and Bernoulli values format as integers
        lines = [" ".join(map(fmt_cell, row)) for row in read(src.reader(), rows)]
        assert out.read_text() == "\n".join(lines) + "\n"
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
    bad.write_text(json.dumps({"P": [["a"]], "phi": [0.0]}))
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec", [
    {"P": [[0.9, 0.1], [0.1, 0.9]], "phi": [float("nan"), 1.0]},
    {"P": [[0.9, 0.1], [0.1, 0.9]], "phi": [0.0, 1.0], "pi": [float("nan"), 1.0]},
], ids=["phi-nan", "pi-nan"])
def test_gen_rejects_nonfinite_markov_spec(tmp_path, capsys, spec):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(spec))  # json writes the bare NaN literal
    out = tmp_path / "m.txt"
    assert main(["gen", "--kind", "markov", "--markov-file", str(bad),
                 "--count", "3", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


def test_gen_slow_markov_chain(tmp_path, capsys):
    spec = tmp_path / "slow.json"
    spec.write_text(json.dumps({"P": [[0.99999, 1e-5], [2e-5, 0.99998]],
                                "phi": [0, 1]}))
    out = tmp_path / "m.txt"
    assert main(["gen", "--kind", "markov", "--markov-file", str(spec),
                 "--seed", "1", "--count", "5", "--out", str(out)]) == 0
    assert len(out.read_text().split()) == 5
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
    # a center but no radius; a non-finite center; a non-finite radius
    for ball in ("0.1", "nan,0.1", "0,inf"):
        code = main(["analyze", "--kind", "iid-digit", "--n", "5", "--k", "2",
                     "--lambda-grid", "0,1", "--ball", ball, "--out", str(out)])
        assert code == 2, ball
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


@pytest.mark.parametrize("flags", [
    ["--kind", "markov", "--markov-file", "vec.json"],
], ids=["markov-vector-phi"])
def test_analyze_refuses_vector_source_before_reading(tmp_path, monkeypatch, capsys,
                                                      flags):
    # The empirical SCGF is scalar: a chain with vector phi is refused before
    # any block is reduced, however large k is.  analyze has no --d.
    def no_blocks(*args):
        raise AssertionError("block_means was called")

    monkeypatch.setattr(cli, "block_means", no_blocks)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "vec.json").write_text(json.dumps({"P": [[0.9, 0.1], [0.1, 0.9]],
                                                   "phi": [[0.0, 1.0], [1.0, 0.0]]}))
    code = main(["analyze"] + flags + ["--n", "10", "--k", "1000000",
                                       "--lambda-grid", "0,1", "--out", "s.csv"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "d=2" in err[0]
    assert os.listdir(tmp_path) == ["vec.json"]


def test_analyze_overflowing_block_sums_is_one_error_line(tmp_path):
    # Ten values of 1e308 sum to inf: the block means are refused as data
    # (exit 3) with one error line, no numpy overflow warning before it.
    (tmp_path / "big.json").write_text(json.dumps({"P": [[0.9, 0.1], [0.1, 0.9]],
                                                   "phi": [0.0, 1e308]}))
    proc = _run_python(["-m", "blockldp.cli", "analyze", "--kind", "markov",
                        "--markov-file", "big.json", "--n", "10", "--k", "50",
                        "--lambda-grid", "0,1", "--out", "s.csv"], str(tmp_path))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == ["error: block means contain non-finite entries"]
    assert proc.stdout == "" and os.listdir(tmp_path) == ["big.json"]


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


def test_legendre_cli_refuses_minus_inf(tmp_path, monkeypatch, capsys):
    # A -inf value is a data error (exit 3), not a sample to drop as +inf is.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text("lambda,value\n0,-inf\n1,2\n")
    before = _tree(tmp_path)
    assert main(["legendre", "--in", "c.csv", "--x-grid", "0,0.5", "--out", "o.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "-inf" in err and err.count("\n") == 1, err
    assert _tree(tmp_path) == before


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


def test_regime_cli_zero_tilt(capsys):
    assert main(["regime", "--model", "digit:10:0", "--lambda0", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["regime"] == "critical" and doc["threshold"] == 0.0
    assert doc["lambda1"] == doc["lambda2"] == 0.0
    assert doc["x1"] == doc["x2"] == doc["x0"]


def test_regime_cli_markov_model(tmp_path, capsys):
    spec = _sym_chain_file(tmp_path)
    for c, want in (("0.02", "subcritical"), ("0.5", "supercritical")):
        code = main(["regime", "--model", "markov:" + spec, "--lambda0", "1.0",
                     "--c", c])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["regime"] == want


def test_regime_cli_unattained_left_level_is_open(tmp_path, capsys):
    # The threshold exceeds the rate at the left edge of the mean range, so
    # no lambda < 0 reaches it: that side is open, the other is unchanged.
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"P": [[0.9, 0.1], [0.2, 0.8]], "phi": [0, 1]}))
    for model, lambda0 in (("digit:10:0", "2.0"), ("markov:" + str(chain), "0.8")):
        assert main(["regime", "--model", model, "--lambda0", lambda0]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "critical"
        assert doc["lambda1"] == "-inf" and doc["x1"] is None
        assert doc["lambda2"] == pytest.approx(float(lambda0), abs=1e-7)
        assert doc["x2"] == pytest.approx(doc["x0"], abs=1e-7)


def test_regime_cli_unattained_right_level_is_open(capsys):
    # Mirror image of the digit case: Bernoulli(0.9) has the small rate
    # -log 0.9 at its right edge x = 1, below the threshold at lambda0 = -2.
    assert main(["regime", "--model", "bernoulli:0.9", "--lambda0", "-2.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lambda2"] == "inf" and doc["x2"] is None
    assert doc["lambda1"] == pytest.approx(-2.0, abs=1e-7)
    assert doc["x1"] == pytest.approx(doc["x0"], abs=1e-7)


def test_regime_cli_overflowing_tilt_exits_3(tmp_path):
    # g = lambda L'(lambda) - L(lambda) is inf - inf at lambda0 = 1e200: a
    # numerical error naming the tilt, with no numpy warning on stderr.
    for extra in ([], ["--c", "0.1"]):
        proc = _run_python(["-m", "blockldp.cli", "regime", "--model", "gaussian:1",
                            "--lambda0", "1e200"] + extra, str(tmp_path))
        assert proc.returncode == 3, proc.stderr
        assert "lambda=1e+200" in proc.stderr and "Warning" not in proc.stderr
        assert proc.stdout == ""


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
    # a count past the end of the file is a data error; a count that holds
    # no window is a usage error, whatever the file holds
    assert main(["freq", "--in", str(data), "--n0", "1", "--count", "16"]) == 3
    assert main(["freq", "--in", str(data), "--count", "-5"]) == 2
    assert main(["freq", "--in", str(data), "--n0", "3", "--count", "2"]) == 2
    capsys.readouterr()


def test_freq_cli_short_file_messages(tmp_path, capsys):
    # A whole-file read names the word length, a given --count the count;
    # neither prints Python's None.
    empty, data = tmp_path / "empty.txt", tmp_path / "d.txt"
    empty.write_bytes(b"")
    data.write_text("3.1415926535\n")
    for path, extra, want in (
            (empty, ["--n0", "1"], "digit file has symbol count 0, below the word length n0=1"),
            (data, ["--n0", "2", "--count", "20"],
             "digit file has symbol count 11, below the requested N=20")):
        assert main(["freq", "--in", str(path)] + extra) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: %s\n" % want)


def test_freq_cli_decodes_file_once(tmp_path, monkeypatch, capsys):
    data = tmp_path / "d.txt"
    data.write_text("3.14159265358979")
    real = sources._file_symbols
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sources, "_file_symbols", counting)
    assert main(["freq", "--in", str(data), "--n0", "2"]) == 0
    assert len(calls) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 15 and doc["windows"] == 14


@pytest.mark.parametrize("m, n0", [(10, 3), (2, 4), (7, 2)])
def test_freq_cli_words_in_code_order(tmp_path, capsys, m, n0):
    data = tmp_path / "d.txt"
    data.write_text("".join(map(str, np.random.default_rng(m).integers(0, m, 500))))
    out = tmp_path / "w.csv"
    assert main(["freq", "--in", str(data), "--m", str(m), "--n0", str(n0),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    res = experiments.frequency_test(file_source(data, m), n0)
    words = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert words == res.words == [np.base_repr(c, m).zfill(n0) for c in range(m ** n0)]


def test_out_of_memory_exit_code(tmp_path):
    # An address-space limit on the child alone makes the 7.28 TiB array of
    # Gaussian block means fail to allocate (a lattice source such as iid-digit
    # keeps a histogram flat in k instead); the CLI maps that to exit 3 and
    # one error line.
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    proc = _run_python(["-m", "blockldp.cli", "analyze", "--kind", "gaussian",
                        "--n", "1", "--k", "1000000000000", "--lambda-grid", "0",
                        "--out", "x.csv"], tmp_path, preexec_fn=limit)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.csv").exists()


def test_runtime_imports_no_scipy(tmp_path):
    proc = _run_python(["-c", "import sys, blockldp, blockldp.cli; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                       tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_manifests_strict_json_for_infinite_values(tmp_path, capsys):
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    cfg = {"kind": "iid-digit", "m": 10, "a": 0, "n_list": [20], "seeds": [1],
           "budget": "BUDGET", "lambda_grid": [-1.0, 1.0, 0.5],
           "x_grid": [0.05, 0.25, 0.05], "out_dir": str(tmp_path / "out")}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg).replace('"BUDGET"', "1e999"))
    assert main(["fig1", "--config", str(p)]) == 0
    with open(tmp_path / "out" / "manifest.json") as fh:
        assert json.load(fh, parse_constant=reject)["config"]["budget"] == "inf"
    out = str(tmp_path / "a.csv")
    assert main(["analyze", "--kind", "iid-digit", "--n", "4", "--k", "3",
                 "--lambda-grid", "0,1", "--p", "1e999", "--out", out]) == 0
    with open(out + ".manifest.json") as fh:  # a digit source does not read --p
        assert "p" not in json.load(fh, parse_constant=reject)["config"]
    capsys.readouterr()


def test_manifest_flag_keys(tmp_path, monkeypatch, capsys):
    # A manifest records the source flags its kind reads and no other.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.json").write_text(json.dumps({"P": [[1.0]], "phi": [0.0]}))
    (tmp_path / "d.txt").write_text("31415926")
    gen, wrote = ["--count", "2", "--out", "o"], {"count", "out"}
    analyze = ["analyze", "--n", "4", "--k", "2", "--lambda-grid", "0,1", "--out", "o"]
    analyzed = {"n", "k", "c", "lambda_grid", "ball", "out"}
    for argv, keys in (
            (["gen", "--kind", "gaussian", "--d", "2"] + gen, wrote | {"kind", "seed", "d"}),
            (["gen", "--kind", "markov", "--markov-file", "chain.json"] + gen,
             wrote | {"kind", "seed", "markov_file"}),
            (analyze + ["--kind", "iid-digit"], analyzed | {"kind", "seed", "m", "a"}),
            (analyze + ["--kind", "iid-bernoulli"], analyzed | {"kind", "seed", "p"}),
            (analyze + ["--in", "d.txt"], analyzed | {"infile", "m", "a"})):
        assert main(argv) == 0, argv
        with open("o.manifest.json") as fh:
            assert set(json.load(fh)["config"]) == keys, argv
    assert main(["gen", "--count", "2", "--out", "o"]) == 2  # --kind required
    assert main(["gen", "--kind", "iid-digit", "--a", "1", "--count", "2",
                 "--out", "o"]) == 2  # no file flags on gen
    assert main(analyze + ["--kind", "gaussian", "--d", "2"]) == 2  # no --d on analyze
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["gen", "--count", "5"],
    ["analyze", "--n", "4", "--k", "3", "--lambda-grid", "0,1"],
], ids=["gen", "analyze"])
def test_markov_spec_file_is_a_checksummed_input(tmp_path, monkeypatch, capsys, argv):
    # A chain's spec file fixes the run as much as its seed: the manifest keeps
    # the seed and records the spec's sha256, so an edited spec changes it.
    monkeypatch.chdir(tmp_path)
    chain = tmp_path / "chain.json"
    argv = argv + ["--kind", "markov", "--markov-file", "chain.json", "--seed", "5",
                   "--out", "o.txt"]
    docs = []
    for P in ([[0.9, 0.1], [0.1, 0.9]], [[0.8, 0.2], [0.1, 0.9]]):
        with open(chain, "w") as fh:
            json.dump({"P": P, "phi": [0.0, 1.0]}, fh)
        assert main(argv) == 0
        with open("o.txt.manifest.json") as fh:
            docs.append(json.load(fh))
        with open(chain, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert docs[-1]["seeds"] == [5]
        assert docs[-1]["input_checksums"] == {"chain.json": digest}
    assert docs[0]["input_checksums"] != docs[1]["input_checksums"]
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
    for key, val in (("lambda_grid", [0, 1]), ("x_grid", [0.1, 0.2, 0.1, 0.3]),
                     ("lambda_grid", [-1, "1", 0.5]), ("budget", "x"), ("m", None),
                     ("a", 1.5), ("a", True), ("p", 0.5), ("gamma_prime", 1.0)):
        p.write_text(json.dumps(dict(cfg, **{key: val})))
        assert main(["fig1", "--config", str(p)]) == 2, (key, val)
    capsys.readouterr()
    p.write_text(json.dumps(dict(cfg, lambda0=math.nan)))  # the bare NaN literal
    assert main(["fig1", "--config", str(p)]) == 2
    assert "tilt" in capsys.readouterr().err
    assert main(["fig1", "--config", str(tmp_path / "nope.json")]) == 4
    capsys.readouterr()


FIG1_SMALL = {"kind": "iid-digit", "n_list": [20], "seeds": [1], "budget": 1e5,
              "lambda_grid": [-1.0, 1.0, 0.5], "x_grid": [0.05, 0.25, 0.05]}
BROWNIAN_SMALL = {"kind": "gaussian", "d": 1, "c": 0.5, "R": 1.0, "eps": 0.2,
                  "n_list": [6], "seeds": [1], "x_list": [0.0], "budget": 1e5}


def test_fig1_rejects_c(tmp_path, capsys):
    # fig1 always runs at the critical c of lambda0; a given c is refused,
    # not silently replaced.
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(FIG1_SMALL, c=0.5, out_dir=str(tmp_path / "out"))))
    assert main(["fig1", "--config", str(p)]) == 2
    assert "leave c unset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, base, key, val", [
    ("fig1", FIG1_SMALL, "seeds", [1.7]),
    ("fig1", FIG1_SMALL, "seeds", [True]),
    ("fig1", FIG1_SMALL, "n_list", [20.9]),
    ("brownian", BROWNIAN_SMALL, "x_list", ["0.5"]),
    ("brownian", BROWNIAN_SMALL, "kind", None),
    ("fig1", FIG1_SMALL, "out_dir", None),
    ("fig1", dict(FIG1_SMALL, kind="digit-file"), "path", 7),
    ("fig1", dict(FIG1_SMALL, gamma=0.3, R=2.0), "eps", 0.1),
    ("brownian", dict(BROWNIAN_SMALL, lambda0=0.7), "m", 3),
    ("brownian", BROWNIAN_SMALL, "kind", "iid-digit"),
    ("fig1", FIG1_SMALL, "n_list", []),
    ("fig1", FIG1_SMALL, "seeds", []),
    ("brownian", BROWNIAN_SMALL, "n_list", []),
    ("brownian", BROWNIAN_SMALL, "seeds", []),
    ("fig1", dict(FIG1_SMALL, kind="digit-file", path=sources.pi_fixture_path()),
     "seeds", [5, 6]),
    ("fig1", FIG1_SMALL, "path", sources.pi_fixture_path()),
], ids=["seeds-float", "seeds-bool", "n_list-float", "x_list-string", "kind-null",
        "out_dir-null", "path-int", "fig1-unread-keys", "brownian-unread-keys",
        "brownian-digit-kind", "fig1-n_list-empty", "fig1-seeds-empty",
        "brownian-n_list-empty", "brownian-seeds-empty", "fig1-file-seeds",
        "fig1-generated-path"])
def test_config_values_keep_their_json_types(tmp_path, capsys, command, base, key,
                                             val):
    cfg = dict(base, out_dir=str(tmp_path / "out"))
    cfg[key] = val
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main([command, "--config", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: config ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--kind", "iid-digit", "--n", "2", "--k", "2",
     "--lambda-grid=0:inf:1", "--out", "s.csv"],
    ["analyze", "--kind", "iid-digit", "--n", "2", "--k", "2",
     "--lambda-grid=nan:1:0.1", "--out", "s.csv"],
    ["analyze", "--kind", "iid-digit", "--n", "2", "--k", "2",
     "--lambda-grid=0:1:inf", "--out", "s.csv"],
    ["analyze", "--kind", "iid-digit", "--n", "2", "--k", "2",
     "--lambda-grid=0.5,-inf", "--out", "s.csv"],
    ["legendre", "--in", "f.csv", "--x-grid", "0:inf:1", "--out", "c.csv"],
    ["legendre", "--in", "f.csv", "--x-grid", "nan,inf,0.5", "--out", "c.csv"],
    ["fig1", "--config", "cfg.json"],
], ids=["analyze-inf-hi", "analyze-nan-lo", "analyze-inf-step", "analyze-list-inf",
        "legendre-inf-hi", "legendre-list-nan", "fig1-inf-hi"])
def test_nonfinite_grid_bounds_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text("lambda,value\n0,0\n1,1\n")
    # JSON has no infinity literal; 1e999 overflows to inf when parsed.
    (tmp_path / "cfg.json").write_text(
        json.dumps(dict(FIG1_SMALL, out_dir="out")).replace(
            '"lambda_grid": [-1.0, 1.0, 0.5]', '"lambda_grid": [0, 1e999, 0.1]'))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid ") and err.count("\n") == 1
    assert not any(p.name in ("s.csv", "c.csv", "out") for p in tmp_path.iterdir())


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
    with open(tmp_path / "bw" / "manifest.json") as fh:  # no key brownian leaves unread
        assert set(json.load(fh)["config"]) == set(cfg) | {"gamma"}
    bad = dict(cfg)
    del bad["R"]
    p.write_text(json.dumps(bad))
    assert main(["brownian", "--config", str(p)]) == 2
    bad = dict(cfg)
    bad["budget"] = 10
    p.write_text(json.dumps(bad))
    assert main(["brownian", "--config", str(p)]) == 2
    for key, val in (("c", "0.7"), ("eps", "0.1"), ("R", "1"), ("d", "1"),
                     ("gamma", "2"), ("gamma_prime", 1.0)):
        p.write_text(json.dumps(dict(cfg, **{key: val})))
        assert main(["brownian", "--config", str(p)]) == 2, (key, val)
    capsys.readouterr()


def test_brownian_far_tail_oracle(tmp_path, capsys):
    # The exact mass of B(x0, eps) under N(0, 1/n) is a difference of upper
    # tails; at x0 = 2 it is 9.7e-18, which a difference of two numbers near
    # 1 would round to 0.
    cfg = dict(BROWNIAN_SMALL, c=0.2, R=3.0, eps=0.1, n_list=[20], x_list=[2.0, -2.0],
               out_dir=str(tmp_path / "bw"))
    p = tmp_path / "b.json"
    p.write_text(json.dumps(cfg))
    assert main(["brownian", "--config", str(p)]) == 0
    want = norm.sf(1.9 * math.sqrt(20)) - norm.sf(2.1 * math.sqrt(20))
    got = read_csv_columns(tmp_path / "bw" / "brownian.csv", None)["oracle_mass"]
    assert np.all(np.abs(got / want - 1.0) <= 1e-13)
    capsys.readouterr()
    for bad, code in ((dict(cfg, x_list=[10.0], R=11.0), 3),  # the mass underflows
                      (dict(cfg, gamma=-1.0), 2)):
        bad["out_dir"] = str(tmp_path / "out")
        p.write_text(json.dumps(bad))
        assert main(["brownian", "--config", str(p)]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, config, want", [
    (["analyze", "--kind", "iid-digit", "--n", "2000", "--c", "0.3"], None,
     "n*k = 2000*3.773e+260 observations exceed"),
    (["analyze", "--kind", "iid-digit", "--n", "5", "--k", str(3 * 10 ** 400)], None,
     "n*k = 5*3.000e+400 observations exceed"),
    (["brownian"], dict(BROWNIAN_SMALL, n_list=[1000], c=0.7),
     "n=1000 needs n*k=1.014e+307 > 100000 observations"),
    (["brownian"], dict(BROWNIAN_SMALL, x_list=[2.0]),
     "center 2.0000000000000000e+00 violates"),
    # json writes and reads the bare NaN literal, which no check may pass
    (["brownian"], dict(BROWNIAN_SMALL, R=math.nan), "|x| + eps <= R = nan"),
    (["brownian"], dict(BROWNIAN_SMALL, x_list=[math.nan]), "center nan violates"),
    # |inf| + eps <= R = inf holds, so the ball mass refuses the center
    (["brownian"], dict(BROWNIAN_SMALL, R=math.inf, x_list=[math.inf]),
     "ball center inf must be finite"),
    (["brownian"], dict(BROWNIAN_SMALL, budget=math.nan),
     "n=6 needs n*k=126 > nan observations"),
    (["fig1"], dict(FIG1_SMALL, budget=math.nan), "n=20 needs n*k=60 > nan observations"),
], ids=["schedule-k", "given-k", "budget", "center", "R-nan", "center-nan", "center-inf",
        "budget-nan", "fig1-budget-nan"])
def test_usage_errors_print_short_numbers(tmp_path, capsys, argv, config, want):
    # A huge integer prints in e-notation formed from its digits (3e400 is
    # past float range) and a center as a CSV cell: one short line, no
    # traceback, and nothing written.
    out = tmp_path / "out"
    if config is None:
        argv = argv + ["--out", str(out)]
    else:
        (tmp_path / "b.json").write_text(json.dumps(dict(config, out_dir=str(out))))
        argv = argv + ["--config", str(tmp_path / "b.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 120 and "Traceback" not in err, err
    assert err.startswith("error: ") and want in err, err
    assert not out.exists()


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


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["regime", "--model", "gaussian:1", "--lambda0", "0.5"],
                                  ["selftest"]], ids=["regime", "selftest"])
def test_closed_stdout_exits_0_quietly(tmp_path, argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes a byte
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run([sys.executable, "-m", "blockldp.cli"] + argv, cwd=tmp_path,
                              env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


# Every file-writing command; the runs fed by a file name their one input.
MANIFEST_RUNS = [
    (["gen", "--kind", "iid-digit", "--seed", "7", "--count", "5", "--out", "g.txt"],
     "g.txt.manifest.json", None),
    (["analyze", "--kind", "iid-digit", "--seed", "3", "--a", "0", "--n", "10", "--k", "50",
      "--lambda-grid=-1:1:0.5", "--ball", "0.1,0.05", "--out", "a.csv"],
     "a.csv.manifest.json", None),
    (["analyze", "--in", "pi.txt", "--a", "0", "--n", "10", "--k", "50",
      "--lambda-grid=-1:1:0.5", "--ball", "0.1,0.05", "--out", "af.csv"],
     "af.csv.manifest.json", "pi.txt"),
    (["legendre", "--in", "a.csv", "--x-grid", "0.1:0.3:0.1", "--out", "l.csv"],
     "l.csv.manifest.json", "a.csv"),
    (["freq", "--in", "pi.txt", "--n0", "2", "--out", "w.csv"], "w.csv.manifest.json",
     "pi.txt"),
    (["brownian", "--config", "bw.json"], "bw/manifest.json", None),
    (["fig1", "--config", "fg.json"], "fg/manifest.json", None),
    (["fig1", "--config", "ff.json"], "ff/manifest.json", "pi.txt"),
]


def test_every_manifest_repeats_but_its_wallclock(tmp_path, monkeypatch, capsys):
    configs = {"bw.json": dict(BROWNIAN_SMALL, out_dir="bw"),
               "fg.json": dict(FIG1_SMALL, seeds=[1, 2], out_dir="fg"),
               "ff.json": dict(FIG1_SMALL, kind="digit-file", path="pi.txt", out_dir="ff")}
    del configs["ff.json"]["seeds"]
    runs = []
    for name in ("first", "second"):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        shutil.copy(sources.pi_fixture_path(), "pi.txt")
        for cfg_name, cfg in configs.items():
            (work / cfg_name).write_text(json.dumps(cfg))
        for argv, _, _ in MANIFEST_RUNS:
            assert main(argv) == 0, argv
        runs.append({man: [line for line in (work / man).read_bytes().splitlines(True)
                           if not line.lstrip().startswith(b'"wallclock_s": ')]
                     for _, man, _ in MANIFEST_RUNS})
    capsys.readouterr()
    assert runs[0] == runs[1]
    digest = hashlib.sha256((tmp_path / "first" / "pi.txt").read_bytes()).hexdigest()
    for argv, man, infile in MANIFEST_RUNS:
        with open(tmp_path / "first" / man) as fh:
            doc = json.load(fh)
        assert doc["command"] == argv[0] and doc["wallclock_s"] >= 0.0
        if infile is None:  # a generated run records its seeds
            assert doc["seeds"] and doc["input_checksums"] == {}, man
        else:
            assert doc["seeds"] == [] and list(doc["input_checksums"]) == [infile], man
    with open(tmp_path / "first" / "ff" / "manifest.json") as fh:
        assert json.load(fh)["input_checksums"] == {"pi.txt": digest}


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "../d.txt", "--n", "2", "--k", "2", "--out", "d.txt"],
    ["analyze", "--in", "../d_ball.txt", "--n", "2", "--k", "2", "--ball", "0.5,0.1",
     "--out", "d.txt"],
    ["analyze", "--kind", "markov", "--markov-file", "../chain.json", "--n", "2", "--k", "2",
     "--out", "chain.json"],
    ["legendre", "--in", "../s.csv", "--x-grid", "0,1", "--out", "s.csv"],
    ["freq", "--in", "../d.txt", "--out", "d.txt"],
    ["gen", "--kind", "markov", "--markov-file", "../chain.json", "--count", "3",
     "--out", "chain.json"],
], ids=["analyze", "analyze-ball", "analyze-markov", "legendre", "freq", "gen-markov"])
def test_output_naming_an_input_is_refused(tmp_path, monkeypatch, capsys, argv):
    # An output over a file the run reads would replace the input and race its
    # hash.  --out resolves against BLOCKLDP_OUT first; the run exits 2 before
    # it reads or writes anything.
    (tmp_path / "d.txt").write_text("31415926")
    (tmp_path / "d_ball.txt").write_text("31415926")
    (tmp_path / "s.csv").write_text("lambda,value\n0.0,0.0\n1.0,0.5\n")
    _sym_chain_file(tmp_path)
    (tmp_path / "run").mkdir()
    monkeypatch.chdir(tmp_path / "run")
    monkeypatch.setenv("BLOCKLDP_OUT", str(tmp_path))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: output ") and err.count("\n") == 1
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


def test_unhashable_input_exits_4(tmp_path, monkeypatch, capsys):
    # The helper thread keeps the error it hits and write() raises it on the
    # run's own thread: one error line, exit 4, no manifest.
    monkeypatch.chdir(tmp_path)
    shutil.copy(sources.pi_fixture_path(), "pi.txt")
    _sym_chain_file(tmp_path)
    os.mkdir("dir.json")
    gen = ["gen", "--kind", "markov", "--count", "3", "--out", "g.txt"]
    assert main(gen + ["--markov-file", "dir.json"]) == 4  # read and hashed as a directory
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] ") and err.count("\n") == 1

    def unreadable(path):
        raise PermissionError(13, "Permission denied", os.fspath(path))

    monkeypatch.setattr(experiments, "_sha256", unreadable)
    for argv, name in ((["analyze", "--in", "pi.txt", "--n", "10", "--k", "5",
                         "--lambda-grid", "0,1", "--out", "a.csv"], "pi.txt"),
                       (gen + ["--markov-file", "chain.json"], "chain.json")):
        assert main(argv) == 4, argv
        assert capsys.readouterr().err == "error: [Errno 13] Permission denied: %r\n" % name
    assert not glob.glob("*.manifest.json")


def test_runs_hash_their_inputs_on_a_thread_that_ends_with_them(tmp_path, monkeypatch,
                                                                capsys):
    # A run hashes the files it reads, and only those, on a helper thread
    # that is gone when main returns; a run that reads no file, or writes no
    # manifest, hashes nothing.
    monkeypatch.chdir(tmp_path)
    shutil.copy(sources.pi_fixture_path(), "pi.txt")
    _sym_chain_file(tmp_path)
    (tmp_path / "fg.json").write_text(json.dumps(dict(FIG1_SMALL, out_dir="fg")))
    hashed, sha256 = [], experiments._sha256
    monkeypatch.setattr(experiments, "_sha256", lambda path: hashed.append(path) or sha256(path))
    before = set(threading.enumerate())
    for argv, want in (
            (["analyze", "--in", "pi.txt", "--n", "10", "--k", "50", "--lambda-grid", "0,1",
              "--out", "a.csv"], ["pi.txt"]),
            (["legendre", "--in", "a.csv", "--x-grid", "0,1", "--out", "l.csv"], ["a.csv"]),
            (["freq", "--in", "pi.txt", "--n0", "2", "--out", "w.csv"], ["pi.txt"]),
            (["freq", "--in", "pi.txt", "--n0", "2"], []),
            (["gen", "--kind", "markov", "--markov-file", "chain.json", "--count", "3",
              "--out", "g.txt"], ["chain.json"]),
            (["gen", "--kind", "iid-digit", "--count", "3", "--out", "g.txt"], []),
            (["fig1", "--config", "fg.json"], [])):
        hashed.clear()
        assert main(argv) == 0, argv
        assert hashed == want, argv
        assert set(threading.enumerate()) <= before, argv
    capsys.readouterr()


def _tree(root):
    """Every path under root, directories included, with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("name", ["summary.csv", "scgf_n20_s0.csv", "manifest.json"])
def test_fig1_refuses_to_write_over_its_digit_file(tmp_path, monkeypatch, capsys, name):
    # The digit file sits where the run would put one of its outputs: the run
    # exits 2 before it reads, writes or makes anything.
    monkeypatch.chdir(tmp_path)
    os.mkdir("out")
    shutil.copy(sources.pi_fixture_path(), os.path.join("out", name))
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"kind": "digit-file", "path": "out/" + name, "n_list": [20], "out_dir": "out",
         "lambda0": 0.8}))
    before = _tree(tmp_path)
    assert main(["fig1", "--config", "cfg.json"]) == 2
    err = capsys.readouterr().err
    assert err == "error: output out/%s is an input of this run\n" % name
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command, config, name", [
    ("fig1", {"kind": "iid-digit", "seeds": [1], "n_list": [20], "out_dir": "out",
              "lambda0": 0.8}, "out/summary.csv"),
    ("brownian", {"kind": "gaussian", "c": 0.3, "R": 1.0, "eps": 0.1, "x_list": [0.0],
                  "n_list": [10], "seeds": [1], "out_dir": "bw"}, "bw/brownian.csv"),
    ("fig1", {"kind": "iid-digit", "seeds": [1], "n_list": [20], "out_dir": "out2",
              "lambda0": 0.8}, "out2/manifest.json"),
], ids=["fig1-summary", "brownian-table", "fig1-manifest"])
def test_pipeline_refuses_to_write_over_its_config(tmp_path, monkeypatch, capsys, command,
                                                   config, name):
    # The config sits where the run would put one of its outputs: the run
    # exits 2 before it writes or makes anything, and the config is intact.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOCKLDP_OUT", raising=False)
    os.mkdir(os.path.dirname(name))
    (tmp_path / name).write_text(json.dumps(config))
    before = _tree(tmp_path)
    assert main([command, "--config", name]) == 2
    assert capsys.readouterr().err == "error: output %s is an input of this run\n" % name
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv, code, want", [
    (["fig1", "--config", "bad.json"], 2, "config bad.json is not UTF-8 JSON"),
    (["brownian", "--config", "bad.json"], 2, "config bad.json is not UTF-8 JSON"),
    (["gen", "--kind", "markov", "--markov-file", "bad.json", "--count", "3",
      "--out", "g.txt"], 2, "Markov spec bad.json is not UTF-8 JSON"),
    (["regime", "--model", "markov:bad.json", "--lambda0", "0.5"], 2,
     "Markov spec bad.json is not UTF-8 JSON"),
    (["legendre", "--in", "bad.csv", "--x-grid", "0,1", "--out", "l.csv"], 3,
     "CSV bad.csv is not UTF-8 text"),
    (["gen", "--kind", "markov", "--markov-file", "deep.json", "--count", "3",
      "--out", "g.txt"], 2, "Markov spec deep.json is not UTF-8 JSON: maximum recursion"),
], ids=["fig1", "brownian", "gen-markov", "regime-markov", "legendre-csv", "too-deep"])
def test_unreadable_json_or_csv_is_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                                  code, want):
    # A config or a chain spec that is not UTF-8 JSON, or nests deeper than
    # the parser recurses, is a usage error; a CSV input that is not UTF-8
    # text is a data error.  Each names its file, and nothing is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(b'{"P": [[1.0]], "phi": [0.0], "x": "\xff"}')
    (tmp_path / "bad.csv").write_bytes(b"lambda,value\n0.0,0.\xff\n")
    (tmp_path / "deep.json").write_text('{"P": %s}' % ("[" * 10 ** 5 + "]" * 10 ** 5))
    before = _tree(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: " + want) and err.count("\n") == 1, err
    assert _tree(tmp_path) == before


def test_every_manifest_lists_the_files_its_run_made(tmp_path, monkeypatch, capsys):
    # A manifest's files are the outputs its run declared when it opened; they
    # must be exactly the files the run created, the manifest aside.
    monkeypatch.chdir(tmp_path)
    shutil.copy(sources.pi_fixture_path(), "pi.txt")
    file_fed = dict(FIG1_SMALL, kind="digit-file", path="pi.txt", out_dir="ff")
    del file_fed["seeds"]
    for name, cfg in (("bw.json", dict(BROWNIAN_SMALL, out_dir="bw")),
                      ("fg.json", dict(FIG1_SMALL, seeds=[1, 2], out_dir="fg")),
                      ("ff.json", file_fed)):
        (tmp_path / name).write_text(json.dumps(cfg))
    for argv, man, _ in MANIFEST_RUNS:
        before = {p for p in tmp_path.rglob("*") if p.is_file()}
        assert main(argv) == 0, argv
        made = {p for p in tmp_path.rglob("*") if p.is_file()} - before
        with open(man) as fh:
            files = json.load(fh)["files"]
        assert files == sorted(p.name for p in made - {tmp_path / man}), argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["analyze", "--in", "d.txt", "--n", "2", "--k", "2", "--out", "link.csv"],
    ["legendre", "--in", "s.csv", "--x-grid", "0,1", "--out", "link.csv"],
    ["freq", "--in", "d.txt", "--out", "link.csv"],
], ids=["analyze", "legendre", "freq"])
def test_output_linked_to_an_input_is_refused(tmp_path, monkeypatch, capsys, argv):
    # An --out that is a symlink to the --in file names the same file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.txt").write_text("31415926")
    (tmp_path / "s.csv").write_text("lambda,value\n0.0,0.0\n1.0,0.5\n")
    os.symlink(argv[2], "link.csv")
    before = _tree(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: output link.csv is an input of this run\n"
    assert _tree(tmp_path) == before
