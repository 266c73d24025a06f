"""Tests for the experiment pipelines, configs and run manifests."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import blockldp
from blockldp import (DataError, ExperimentConfig, RunManifest, Schedule, UsageError,
                      bernoulli_model, bernoulli_source, brownian_experiment,
                      brownian_pipeline, digit_indicator_model, digit_source, fig1_pipeline,
                      file_source, frequency_test, gaussian_source,
                      pi_fixture_path, regime_experiment)
from blockldp.experiments import RunRecord

from _reference import sizes

DIGIT_THRESHOLD = 0.04299898970786353
DIGIT_LAM_08 = 0.11560652909389964
TILTED_T2 = 0.27421204789566282
# fixture digit tallies, frozen from a character-level scan of the file
PI_COUNTS = [9999, 10137, 9908, 10026, 9971, 10026, 10028, 10025, 9978, 9902]


def test_config_from_json_roundtrip(tmp_path):
    doc = {"kind": "iid-digit", "m": 10, "a": 0, "n_list": [30], "seeds": [1],
           "budget": 1e5, "lambda_grid": [-2.0, 1.0, 0.1],
           "x_list": [0.5, [0.1, 0.2]]}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = ExperimentConfig.from_json(p)
    assert cfg.n_list == (30,) and cfg.seeds == (1,)
    assert cfg.x_list == (0.5, (0.1, 0.2))
    echo = cfg.check_reads("fig1", ("iid-digit",), ("d", "eps"))
    assert echo["n_list"] == (30,) and not {"d", "eps"} & set(echo)
    p.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(UsageError, match="bogus"):
        ExperimentConfig.from_json(p)


def test_run_manifest_layout(tmp_path):
    def reject(token):
        raise ValueError("non-standard JSON constant %s" % token)

    man = RunManifest(command="x", seeds=[1, 2],
                      config={"a": 1, "hi": math.inf, "v": [-math.inf, math.nan]},
                      files=[str(tmp_path / "b.csv"), str(tmp_path / "a.csv")])
    path = man.write(tmp_path / "m.json")
    with open(path) as fh:
        # strict JSON: non-finite floats are strings, not bare Infinity/NaN
        doc = json.load(fh, parse_constant=reject)
    assert doc["config"] == {"a": 1, "hi": "inf", "v": ["-inf", "nan"]}
    assert doc["files"] == ["a.csv", "b.csv"]
    assert doc["library_version"] == blockldp.__version__
    assert list(doc) == sorted(doc)
    # The version and a run's clock are the library's own, set by no caller.
    with pytest.raises(TypeError, match="library_version"):
        RunManifest(command="x", config={}, seeds=[], files=[], library_version="0")
    with pytest.raises(TypeError, match="started"):
        RunRecord("x", str(tmp_path / "m.json"), started=0.0)


def test_fig1_pipeline_small(tmp_path):
    cfg = ExperimentConfig(kind="iid-digit", m=10, a=0, lambda0=0.8,
                           n_list=(30,), seeds=(1,), budget=1e5,
                           out_dir=str(tmp_path / "run"),
                           lambda_grid=(-2.0, 1.0, 0.25),
                           x_grid=(0.01, 0.3, 0.01))
    res = fig1_pipeline(cfg)
    # the schedule is pinned at the critical exponent of lambda0 = 0.8
    assert res.c == pytest.approx(DIGIT_THRESHOLD, abs=1e-14)
    run = res.runs[0]
    assert run.k == Schedule(res.c).k(30) == 4
    for stem in ("scgf_n30_s1", "abserr_n30_s1", "conj_n30_s1", "grad_n30_s1",
                 "summary"):
        assert (tmp_path / "run" / (stem + ".csv")).exists()
    with open(tmp_path / "run" / "manifest.json") as fh:
        man = json.load(fh)
    assert man["command"] == "fig1"
    assert man["config"]["k_by_n"] == {"30": 4}
    assert not {"d", "gamma", "R", "x_list", "eps", "path"} & set(man["config"])
    assert "summary.csv" in man["files"]
    # lambda = 0 lies on this grid, where the empirical curve is exactly 0
    assert run.scgf.grid[8] == 0.0
    assert run.scgf.values[8] == 0.0 and run.abs_err[8] == 0.0
    assert 0.0 <= run.mean_min <= run.mean_max <= 1.0


def test_fig1_digit_file_fixture(tmp_path):
    cfg = ExperimentConfig(kind="digit-file", m=10, a=0,
                           path=pi_fixture_path(), n_list=(60,), budget=1e5,
                           out_dir=str(tmp_path),
                           lambda_grid=(-1.2, 0.7, 0.1),
                           x_grid=(0.01, 0.3, 0.01))
    res = fig1_pipeline(cfg)
    assert [r.seed for r in res.runs] == [0]
    assert res.runs[0].k == 14
    assert np.all(np.isfinite(res.runs[0].scgf.values))
    assert np.all(np.isfinite(res.runs[0].conj.values))
    with open(res.manifest_path) as fh:
        man = json.load(fh)
    # a run fed by a file records its input, not seeds
    assert man["seeds"] == [] and "seeds" not in man["config"]
    assert list(man["input_checksums"]) == [os.path.basename(pi_fixture_path())]


def test_fig1_guards(tmp_path):
    with pytest.raises(UsageError, match="budget"):
        fig1_pipeline(ExperimentConfig(kind="iid-digit", n_list=(150,),
                                       budget=100, out_dir=str(tmp_path)))
    with pytest.raises(UsageError):
        fig1_pipeline(ExperimentConfig(kind="gaussian", out_dir=str(tmp_path)))
    with pytest.raises(UsageError):
        fig1_pipeline(ExperimentConfig(kind="digit-file", path=None,
                                       n_list=(10,), out_dir=str(tmp_path)))


def test_fig1_refuses_a_bad_seed_before_making_its_directory(tmp_path):
    out = tmp_path / "D"
    with pytest.raises(UsageError, match="seed"):
        fig1_pipeline(ExperimentConfig(seeds=(1.5,), n_list=(20,), out_dir=str(out)))
    assert not out.exists()


def test_fig1_rerun_byte_identical(tmp_path):
    outs = []
    for name in ("a", "b"):
        cfg = ExperimentConfig(kind="iid-digit", m=10, a=0, n_list=(25,),
                               seeds=(3,), budget=1e5,
                               out_dir=str(tmp_path / name),
                               lambda_grid=(-2.0, 1.0, 0.25),
                               x_grid=(0.05, 0.25, 0.05))
        fig1_pipeline(cfg)
        outs.append(sorted((tmp_path / name).glob("*.csv")))
    assert [p.name for p in outs[0]] == [p.name for p in outs[1]]
    for pa, pb in zip(*outs):
        assert pa.read_bytes() == pb.read_bytes()


def test_regime_experiment_supercritical_rows():
    ev = regime_experiment(bernoulli_model(0.5), bernoulli_source(0, 0.5),
                           0.5, 0.10, (20,), (1, 2))
    assert ev.report.regime == "supercritical"
    assert ev.columns == ["n", "seed", "k", "sup_error"]
    assert [(r[0], r[1], r[2]) for r in ev.rows] == [(20, 1, 8), (20, 2, 8)]
    assert all(0.0 <= r[3] < 1.0 for r in ev.rows)


def test_regime_experiment_monotone_evidence():
    # medians of the sup error should not increase with n (one inversion
    # tolerated for single-realization noise)
    ev = regime_experiment(bernoulli_model(0.5), bernoulli_source(0, 0.5),
                           0.5, 0.10, (50, 75, 100), (1, 2, 3))
    errs = {}
    for n, seed, k, err in ev.rows:
        errs.setdefault(n, []).append(err)
    medians = [float(np.median(errs[n])) for n in (50, 75, 100)]
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    assert inversions <= 1


def test_regime_experiment_subcritical_rows():
    ev = regime_experiment(bernoulli_model(0.5), bernoulli_source(0, 0.5),
                           math.log(9.0), 0.10, (60,), (1,), eps=0.05)
    assert ev.columns == ["n", "seed", "k", "count", "mass"]
    n, seed, k, count, mass = ev.rows[0]
    assert (n, seed, k) == (60, 1, 404)
    assert count == 0 and mass == 0.0
    with pytest.raises(UsageError):  # the ball radius is mandatory here
        regime_experiment(bernoulli_model(0.5), bernoulli_source(0, 0.5),
                          math.log(9.0), 0.10, (60,), (1,))


def test_regime_experiment_critical_rows():
    mdl = digit_indicator_model(10, 0)
    ev = regime_experiment(mdl, digit_source(0, 10, indicator_a=0), 0.8,
                           DIGIT_THRESHOLD, (20,), (1,))
    assert ev.columns == ["n", "seed", "k", "t", "empirical", "predicted",
                          "abs_error"]
    assert [r[3] for r in ev.rows] == [1.0, 1.5, 2.0]
    pred = {r[3]: r[5] for r in ev.rows}
    assert pred[1.0] == pytest.approx(DIGIT_LAM_08, abs=1e-13)
    assert pred[2.0] == pytest.approx(TILTED_T2, abs=1e-13)
    for r in ev.rows:
        assert r[6] == pytest.approx(abs(r[4] - r[5]), rel=1e-12)


def test_brownian_pipeline_writes_what_the_cli_writes(tmp_path, monkeypatch, capsys):
    # The same config file, run by the CLI in one directory and by the library
    # in another: equal CSV bytes, and equal manifests but for wallclock_s.
    from blockldp.cli import main

    monkeypatch.delenv("BLOCKLDP_OUT", raising=False)
    cfg = {"kind": "gaussian", "c": 0.5, "gamma": 1.0, "R": 1.0, "eps": 0.2,
           "x_list": [0.0, -0.5], "n_list": [4, 6], "seeds": [1, 2], "out_dir": "bw"}
    cli_dir, lib_dir = tmp_path / "cli", tmp_path / "lib"
    for work in (cli_dir, lib_dir):
        work.mkdir()
        (work / "b.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(cli_dir)
    assert main(["brownian", "--config", "b.json"]) == 0
    assert capsys.readouterr().out == "wrote bw/brownian.csv (8 rows)\n"
    monkeypatch.chdir(lib_dir)
    res = brownian_pipeline(ExperimentConfig.from_json("b.json"), config_file="b.json")
    assert (res.files, res.manifest_path) == (["bw/brownian.csv"], "bw/manifest.json")
    assert len(res.rows) == 8 and sorted(os.listdir("bw")) == ["brownian.csv", "manifest.json"]

    def written(work):
        return [[line for line in (work / "bw" / name).read_bytes().splitlines(True)
                 if not line.lstrip().startswith(b'"wallclock_s": ')]
                for name in ("brownian.csv", "manifest.json")]

    assert written(cli_dir) == written(lib_dir)


def test_brownian_experiment_oracle_columns():
    res = brownian_experiment(1, 1.0, Schedule(0.9), [10], [0.0], 0.1, [1])
    row = dict(zip(res.columns, res.rows[0]))
    assert row["k"] == Schedule(0.9).k(10)
    assert row["rel_err"] < 0.1
    assert row["oracle_rate"] == pytest.approx(
        -math.log(row["oracle_mass"]) / 10, rel=1e-12)
    # no gamma on the schedule: margin rule reduces to c > R^2 / 2
    assert bool(row["margin_ok"]) is True
    slow = brownian_experiment(1, 1.0, Schedule(0.4, gamma=1.0), [10], [0.0],
                               0.1, [1])
    # eps_n = log(10)/10 pushes the requirement above c = 0.4
    assert bool(slow.rows[0][-1]) is False


def test_brownian_oracle_matches_scipy_ndtr():
    from scipy.special import ndtr
    eps = 0.1
    res = brownian_experiment(1, 1.0, Schedule(0.9), [4, 10], [0.0, -0.45, 0.85],
                              eps, [1])
    for row in res.rows:
        r = dict(zip(res.columns, row))
        z = math.sqrt(r["n"])
        want = ndtr((r["x"] + eps) * z) - ndtr((r["x"] - eps) * z)
        assert abs(r["oracle_mass"] - want) <= 1e-15


def test_brownian_empty_ball_and_guards():
    res = brownian_experiment(1, 1.0, Schedule(0.2), [30], [0.0, 0.9], 0.05,
                              [1])
    by_x = {row[2]: dict(zip(res.columns, row)) for row in res.rows}
    assert by_x[0.9]["count"] == 0 and math.isinf(by_x[0.9]["local_rate"])
    assert by_x[0.0]["count"] > 0
    with pytest.raises(UsageError):  # |x| + eps must stay inside radius R
        brownian_experiment(1, 1.0, Schedule(0.2), [10], [0.95], 0.1, [1])
    with pytest.raises(UsageError):  # center dimension mismatch
        brownian_experiment(2, 1.0, Schedule(0.2), [10], [0.5], 0.1, [1])


def test_brownian_vector_centers():
    res = brownian_experiment(2, 1.0, Schedule(0.5), [8], [(0.0, 0.0)], 0.3,
                              [2])
    row = dict(zip(res.columns, res.rows[0]))
    assert row["k"] == 55
    assert math.isnan(row["oracle_mass"])  # closed form only kept for d = 1
    assert 0.0 <= row["mass"] <= 1.0
    assert ";" in row["x"]


def test_frequency_word_table(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("010101")
    res = frequency_test(file_source(p, 2), 2, 6)
    assert res.windows == 5
    assert list(res.counts) == [0, 3, 2, 0]
    assert res.words[1] == "01" and res.words[2] == "10"
    assert res.max_dev == pytest.approx(0.6 - 0.25, rel=1e-12)
    single = frequency_test(file_source(p, 2), 1, 6)
    assert list(single.counts) == [3, 3] and single.windows == 6
    one = frequency_test(file_source(p, 2), 2, 2)  # N = n0: one window
    assert one.windows == 1 and list(one.freqs) == [0.0, 1.0, 0.0, 0.0]


def test_frequency_base_from_source():
    sym = digit_source(4, 7).reader().read(500)[:, 0].astype(np.int64)
    res = frequency_test(digit_source(4, 7), 2, 500)
    assert res.m == 7 and res.counts.size == 49 and res.words[48] == "66"
    codes = sym[:-1] * 7 + sym[1:]
    assert np.array_equal(res.counts, np.bincount(codes, minlength=49))
    # the raw symbols are counted, not the indicator an observable carries
    flagged = frequency_test(digit_source(4, 7, indicator_a=3), 2, 500)
    assert np.array_equal(flagged.counts, res.counts)


def test_frequency_guards(tmp_path):
    from blockldp import DataError
    p = tmp_path / "d.txt"
    p.write_text("0101")
    with pytest.raises(UsageError):  # word length out of range
        frequency_test(file_source(p, 2), 5, 4)
    with pytest.raises(DataError):   # file shorter than the request
        frequency_test(file_source(p, 2), 1, 9)
    with pytest.raises(UsageError):  # N shorter than the word length: no window
        frequency_test(file_source(p, 2), 3, 2)
    short = tmp_path / "short.txt"
    short.write_text("010")
    with pytest.raises(DataError):   # the whole file is shorter than one word
        frequency_test(file_source(short, 2), 4)
    with pytest.raises(UsageError):  # no symbol alphabet
        frequency_test(gaussian_source(0, 1), 1, 100)


@pytest.mark.parametrize("chunk", [1, 7, 31])
def test_frequency_streams_in_pieces(chunk, tmp_path, monkeypatch):
    # Pieces of 1, 7 or 31 symbols, some shorter than a word, give the counts
    # of one pass over every window of the first N symbols.  The file's 31
    # symbols fill the last piece of 1 or 31, whose next read is empty.
    p = tmp_path / "d.txt"
    p.write_text("3.14159 26535\n89793 23846 26433 83279\n")
    sym = file_source(p, 10).reader().read(100)[:, 0].astype(np.int64)
    assert sym.size == 31
    sizes(monkeypatch, block=chunk)
    for n0 in (1, 2, 3, 4):
        for N in (None, 30, sym.size):
            res = frequency_test(file_source(p, 10), n0, N)
            size = sym.size if N is None else N
            words = [int("".join(map(str, sym[i:i + n0]))) for i in range(size - n0 + 1)]
            assert res.N == size and res.windows == size - n0 + 1
            assert np.array_equal(res.counts, np.bincount(words, minlength=10 ** n0))
    src = digit_source(4, 7)
    res = frequency_test(src, 3, 200)
    s7 = src.reader().read(200)[:, 0].astype(np.int64)
    assert np.array_equal(res.counts, np.bincount(s7[:-2] * 49 + s7[1:-1] * 7 + s7[2:],
                                                  minlength=343))
    with pytest.raises(DataError, match="symbol count %d," % sym.size):  # N past the end
        frequency_test(file_source(p, 10), 2, sym.size + 1)
    with pytest.raises(UsageError, match="digit-file"):  # a counter source has no end
        frequency_test(src, 2)


@pytest.mark.parametrize("m", [2, 10])
def test_frequency_counts_across_pieces_match_brute_force(m, monkeypatch):
    # Three pieces whose splits cut through windows; every code up to
    # m^4 - 1 (9,999 for m = 10) is formed in the narrow word dtype.
    src = digit_source(8, m)
    N, n0 = 12_000, 4
    sym = src.reader().read(N)[:, 0].astype(np.int64)
    words = sum(sym[t : N - n0 + 1 + t] * m ** (n0 - 1 - t) for t in range(n0))
    sizes(monkeypatch, block=4099)
    res = frequency_test(src, n0, N)
    assert res.counts.dtype == np.int64
    assert np.array_equal(res.counts, np.bincount(words, minlength=m ** n0))


def test_frequency_memory_flat_in_n():
    # An intp copy of one 2^21-symbol piece's word codes took 16.8 MB.
    peaks = []
    for n in (1 << 19, 1 << 22):
        tracemalloc.start()
        frequency_test(digit_source(1, 10), 3, n)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + (1 << 18) and peaks[1] < 2 << 20


def test_frequency_whole_file_default(tmp_path):
    p = tmp_path / "d.txt"
    p.write_text("3.14159 26535\n8979\n")
    whole = frequency_test(file_source(p, 10), 2)
    fixed = frequency_test(file_source(p, 10), 2, 15)
    assert whole.N == fixed.N == 15 and whole.windows == fixed.windows == 14
    assert np.array_equal(whole.counts, fixed.counts)
    assert np.array_equal(whole.freqs, fixed.freqs)
    assert whole.max_dev == fixed.max_dev
    with pytest.raises(UsageError):  # a generated stream has no end
        frequency_test(digit_source(1, 10), 1)


def test_frequency_pi_fixture_tallies():
    res = frequency_test(file_source(pi_fixture_path(), 10), 1, 100000)
    assert list(res.counts) == PI_COUNTS
    assert sum(res.counts) == 100000
    assert res.max_dev == pytest.approx(0.00137, abs=1e-12)
