"""Acceptance suite: twelve seeded end-to-end criteria with pinned oracles.

Each test prints one "criterion NN <name>: PASS|FAIL" line before asserting,
so a verbose run reads as a checklist.  Criterion 12 re-runs every pipeline
and compares the serialized outputs byte for byte.

Criteria 7 and 10 test single draws at n = 150 in the critical regime.  The
n -> infinity limits there (x1 = 0.0254 and x2 = 0.1983 for the smallest and
largest attained means, the affine continuation 0.274217 for L(1.6)) sit
about log(n)/n outside what a correct program gives at this size, so those
clauses check each seed against the exact finite-n law of k iid Bin(150, 1/10)
block sums instead, with tail probability ALPHA on each side; the detail line
prints each seed's band and the quantile its value sits at.
"""

import contextlib
import io
import json
import math
import os
import time

import numpy as np
import pytest
from scipy.stats import binom

from blockldp import (BlockStats, ExperimentConfig, MarkovSpec, Schedule,
                      SampledFunction, bernoulli_model, bernoulli_source,
                      block_means, brownian_experiment, digit_indicator_model,
                      digit_source, fig1_pipeline,
                      frequency_test, gaussian_model, legendre, markov_model,
                      pi_fixture_path, regime_experiment, scgf_values)
from blockldp._serialize import make_grid, write_csv
from blockldp.cli import main

from _reference import exact_prefix_scgf

# closed-form reference values, frozen from a 40-digit evaluation
DIGIT_THRESHOLD = 0.04299898970786353   # 0.8 L'(0.8) - L(0.8), digit:10:0
X1 = 0.02526372728402861                # L'(lambda1)
X2 = 0.19825689850220396                # L'(0.8)
LAMBDA_16 = 0.33311176974297448         # L(1.6)
TILTED_T2 = 0.27421204789566282         # L(0.8) + 0.8 X2
SYM_LAM = {1.0: 0.90171939946990602, -1.0: -0.098280600530093977}
DIGIT_P = 0.1                           # P(symbol == a) for base-10 digits
ALPHA = 1e-3                            # false-alarm rate in each tail


def _max_sum_law(n: int, k: int, p: float) -> np.ndarray:
    """P(max_j S_j <= s) = F(s)^k for k iid Bin(n, p) block sums, s = 0..n."""
    return np.exp(k * binom.logcdf(np.arange(n + 1), n, p))


def _min_sum_law(n: int, k: int, p: float) -> np.ndarray:
    """P(min_j S_j <= s) = 1 - (1 - F(s))^k for k iid Bin(n, p) block sums."""
    return -np.expm1(k * binom.logsf(np.arange(n + 1), n, p))


def _central_band(law: np.ndarray) -> tuple:
    """Smallest and largest sums outside the ALPHA tails of a discrete law."""
    return int(np.argmax(law > ALPHA)), int(np.argmax(law >= 1.0 - ALPHA))


def _tilted_value_law(n: int, k: int, p: float, lam: float) -> np.ndarray:
    """100,000 sorted Monte Carlo replicates of L_n(lam) for k iid Bin(n, p)
    block sums.

    L_n(lam) = (1/n) log mean_j exp(lam S_j) depends on the block sums only
    through their histogram, so each replicate draws that histogram as one
    multinomial of k blocks over the n + 1 sum values (in chunks of 20,000
    replicates to keep memory small).
    """
    rng = np.random.default_rng(20_000)
    s = np.arange(n + 1)
    pmf, weights = binom.pmf(s, n, p), np.exp(lam * s)
    return np.sort(np.concatenate(
        [np.log(rng.multinomial(k, pmf, size=20_000) @ weights / k) / n
         for _ in range(5)]))


def _verdict(num: int, name: str, checks, detail: str = "") -> None:
    """Print one summary line for the criterion, then assert all clauses."""
    bad = [label for label, ok in checks if not ok]
    line = "criterion %02d %s: %s" % (num, name, "FAIL" if bad else "PASS")
    if bad:
        line += " [" + ", ".join(bad) + "]"
    if detail:
        line += " | " + detail
    print(line)
    assert not bad, line


# ----- runners (shared by the criterion tests and the determinism re-run) ---

def _run_regime_cli():
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["regime", "--model", "digit:10:0", "--lambda0", "0.8"])
    return code, buf.getvalue(), time.perf_counter() - start


def _random_stats(rng, k=None) -> BlockStats:
    k = int(rng.integers(1, 200)) if k is None else k
    n = int(rng.integers(1, 40))
    return BlockStats(n=n, means=rng.normal(0.0, 2.0, size=(k, 1)))


def _run_zero_values():
    rng = np.random.default_rng(1804)
    return [(case, float(scgf_values(_random_stats(rng), np.array([0.0]))[0]))
            for case in range(100)]


def _run_convexity():
    rng = np.random.default_rng(905)
    grid = make_grid(-2.0, 2.0, 0.05)
    rows = []
    for case in range(50):
        stats = _random_stats(rng, k=int(rng.integers(2, 120)))
        f = SampledFunction(grid=grid, values=scgf_values(stats, grid))
        d2f = float(np.min(np.diff(f.values, 2)))
        xs = np.linspace(float(stats.means.min()), float(stats.means.max()), 41)
        d2c = float(np.min(np.diff(legendre(f, xs).values, 2)))
        rows.append((case, d2f, d2c))
    return rows


def _run_conjugation():
    mdl = digit_indicator_model(10, 0)
    g = make_grid(-6.0, 6.0, 0.002)
    xs = np.linspace(0.001, 0.97, 500)
    digit = legendre(SampledFunction(grid=g, values=mdl.lam(g)), xs)
    digit_err = np.abs(digit.values - mdl.conj(xs))
    gm = gaussian_model()
    xg = np.linspace(-3.0, 3.0, 500)
    gauss = legendre(SampledFunction(grid=g, values=gm.lam(g)), xg)
    gauss_err = np.abs(gauss.values - gm.conj(xg))
    return xs, digit.values, digit_err, xg, gauss.values, gauss_err


def _run_supercritical():
    start = time.perf_counter()
    ev = regime_experiment(bernoulli_model(0.5), bernoulli_source(0, 0.5),
                           0.5, 0.10, (100,), (1, 2, 3))
    return ev, time.perf_counter() - start


def _run_subcritical():
    start = time.perf_counter()
    ev = regime_experiment(bernoulli_model(0.5), bernoulli_source(0, 0.5),
                           math.log(9.0), 0.10, (60, 80, 100),
                           tuple(range(1, 11)), eps=0.05)
    return ev, time.perf_counter() - start


def _run_tilt():
    start = time.perf_counter()
    k = Schedule(0.043055).k(150)
    rows = []
    for seed in (1, 2, 3):
        stats = block_means(digit_source(seed, 10, indicator_a=0), 150, k)
        rows.append((150, seed, k,
                     float(scgf_values(stats, np.array([1.6]))[0])))
    return rows, time.perf_counter() - start


def _run_brownian():
    start = time.perf_counter()
    res = brownian_experiment(1, 1.0, Schedule(0.7), [20], [0.5], 0.1, [1])
    return res, time.perf_counter() - start


def _run_markov_table():
    spec = MarkovSpec(P=np.array([[0.9, 0.1], [0.1, 0.9]]),
                      phi=np.array([0.0, 1.0]))
    mdl = markov_model(spec)
    rows = [(lam, exact_prefix_scgf(spec, lam, 6),
             exact_prefix_scgf(spec, lam, 12), float(mdl.lam(lam)))
            for lam in (-1.0, 1.0)]
    return rows, float(mdl.lam(0.0)), float(mdl.grad(0.0))


def _run_fig1(out_dir):
    cfg = ExperimentConfig(kind="iid-digit", m=10, a=0, lambda0=0.8,
                           n_list=(150,), seeds=(1, 2, 3), budget=1e6,
                           out_dir=str(out_dir))
    return fig1_pipeline(cfg)


def _run_frequency():
    return frequency_test(digit_source(1, 10), 1, 10 ** 6)


# ----- module-scoped fixtures so criterion 12 can reuse the first runs ------

@pytest.fixture(scope="module")
def regime_run():
    return _run_regime_cli()


@pytest.fixture(scope="module")
def zero_run():
    return _run_zero_values()


@pytest.fixture(scope="module")
def convexity_run():
    return _run_convexity()


@pytest.fixture(scope="module")
def conjugation_run():
    return _run_conjugation()


@pytest.fixture(scope="module")
def supercritical_run():
    return _run_supercritical()


@pytest.fixture(scope="module")
def subcritical_run():
    return _run_subcritical()


@pytest.fixture(scope="module")
def tilt_run():
    return _run_tilt()


@pytest.fixture(scope="module")
def brownian_run():
    return _run_brownian()


@pytest.fixture(scope="module")
def markov_run():
    return _run_markov_table()


@pytest.fixture(scope="module")
def fig1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1_first")
    return out, _run_fig1(out)


@pytest.fixture(scope="module")
def freq_run():
    return _run_frequency()


# ----- criteria -------------------------------------------------------------

def test_criterion_01_level_points(regime_run):
    code, text, elapsed = regime_run
    doc = json.loads(text)
    checks = [
        ("exit 0", code == 0),
        ("lambda2 = 0.8 within 1e-6", abs(doc["lambda2"] - 0.8) <= 1e-6),
        ("lambda1 = -1.45 within 0.02", abs(doc["lambda1"] + 1.45) <= 0.02),
        ("x1 = 0.0254 within 5e-4", abs(doc["x1"] - 0.0254) <= 5e-4),
        ("x2 = 0.1983 within 5e-4", abs(doc["x2"] - 0.1983) <= 5e-4),
        ("under 1 s", elapsed < 1.0),
    ]
    _verdict(1, "digit level points", checks,
             "lambda1 %.6f lambda2 %.6f x1 %.6f x2 %.6f in %.2f s"
             % (doc["lambda1"], doc["lambda2"], doc["x1"], doc["x2"], elapsed))


def test_criterion_02_normalization(zero_run):
    worst = max(abs(v) for _, v in zero_run)
    _verdict(2, "zero-tilt normalization",
             [("|L_n(0)| <= 1e-12 on 100 random instances", worst <= 1e-12)],
             "worst %.3g" % worst)


def test_criterion_03_convexity(convexity_run):
    w_scgf = min(r[1] for r in convexity_run)
    w_conj = min(r[2] for r in convexity_run)
    checks = [("empirical SCGF second differences >= -1e-9", w_scgf >= -1e-9),
              ("conjugate second differences >= -1e-9", w_conj >= -1e-9)]
    _verdict(3, "convexity on 50 random inputs", checks,
             "worst %.2e / %.2e" % (w_scgf, w_conj))


def test_criterion_04_conjugation_oracle(conjugation_run):
    _, _, digit_err, _, _, gauss_err = conjugation_run
    de, ge = float(np.max(digit_err)), float(np.max(gauss_err))
    checks = [("digit conjugate within 1e-4", de <= 1e-4),
              ("gaussian conjugate within 1.5e-5", ge <= 1.5e-5)]
    _verdict(4, "discrete conjugation vs closed forms", checks,
             "max err %.2e / %.2e at 500 interior points" % (de, ge))


def test_criterion_05_supercritical_window(supercritical_run):
    ev, elapsed = supercritical_run
    sups = [r[3] for r in ev.rows]
    checks = [("k = 22027", all(r[2] == 22027 for r in ev.rows)),
              ("seeds 1,2,3", [r[1] for r in ev.rows] == [1, 2, 3]),
              ("sup error <= 0.02 on [0.3, 0.7]", all(s <= 0.02 for s in sups)),
              ("under 10 s", elapsed < 10.0)]
    _verdict(5, "supercritical uniform closeness", checks,
             "sup errors %s in %.2f s" % (["%.2e" % s for s in sups], elapsed))


def test_criterion_06_subcritical_emptiness(subcritical_run):
    ev, elapsed = subcritical_run
    counts = sorted({r[3] for r in ev.rows})
    checks = [("30 rows (n in {60,80,100} x 10 seeds)", len(ev.rows) == 30),
              ("x0 = 0.9", abs(ev.report.x0 - 0.9) <= 1e-12),
              ("every ball count is zero", counts == [0]),
              ("under 10 s", elapsed < 10.0)]
    _verdict(6, "subcritical ball emptiness", checks,
             "distinct counts %s in %.2f s" % (counts, elapsed))


def test_criterion_07_critical_tilted_limit(tilt_run):
    rows, elapsed = tilt_run
    laws = {k: _tilted_value_law(150, k, DIGIT_P, 1.6)
            for k in {r[2] for r in rows}}
    bands = [tuple(np.quantile(laws[r[2]], [ALPHA, 1.0 - ALPHA])) for r in rows]
    quants = [np.searchsorted(laws[r[2]], r[3]) / laws[r[2]].size for r in rows]
    gaps = [LAMBDA_16 - r[3] for r in rows]
    checks = [("k = 638", all(r[2] == 638 for r in rows)),
              ("L_150(1.6) inside the central 1 - 2e-3 band of its "
               "n = 150 law for all seeds",
               all(lo <= r[3] <= hi for r, (lo, hi) in zip(rows, bands))),
              ("at least 0.04 below L(1.6)", all(g >= 0.04 for g in gaps)),
              ("under 5 s", elapsed < 5.0)]
    _verdict(7, "critical tilted plateau", checks,
             "values %s bands %s quantiles %s (limit %.6f)"
             % (["%.6f" % r[3] for r in rows],
                ["[%.4f, %.4f]" % b for b in bands],
                ["%.3f" % q for q in quants], TILTED_T2))


def test_criterion_08_gaussian_ball_rate(brownian_run):
    res, elapsed = brownian_run
    row = dict(zip(res.columns, res.rows[0]))
    rate_gap = abs(row["local_rate"] - row["oracle_rate"])
    checks = [("k = 1202605", row["k"] == 1202605),
              ("empirical mass within 5% of the oracle",
               row["rel_err"] <= 0.05),
              ("oracle mass = 0.033176 within 5e-6",
               abs(row["oracle_mass"] - 0.033176) <= 5e-6),
              ("local rate within 0.01 of the oracle rate", rate_gap <= 0.01),
              ("under 60 s", elapsed < 60.0)]
    _verdict(8, "gaussian ball mass and local rate", checks,
             "mass %.6f oracle %.6f rel %.4f rate gap %.2e in %.1f s"
             % (row["mass"], row["oracle_mass"], row["rel_err"], rate_gap,
                elapsed))


def test_criterion_09_markov_spectral(markov_run):
    rows, at0, slope0 = markov_run
    mono = all(abs(l12 - spectral) < abs(l6 - spectral)
               for _, l6, l12, spectral in rows)
    frozen = max(abs(spectral - SYM_LAM[lam]) for lam, _, _, spectral in rows)
    checks = [("finite-n values approach the spectral limit at both tilts",
               mono),
              ("L(0) is exactly 0", at0 == 0.0),
              ("L'(0) = 0.5 within 1e-6", abs(slope0 - 0.5) <= 1e-6),
              ("spectral values match the frozen table within 1e-12",
               frozen <= 1e-12)]
    _verdict(9, "markov spectral limit", checks,
             "gaps n=6/12: %s" % [("%.4f/%.4f" % (abs(r[1] - r[3]),
                                                  abs(r[2] - r[3])))
                                  for r in rows])


def test_criterion_10_digit_reproduction(fig1_run, tmp_path_factory):
    out, res = fig1_run
    grid = res.runs[0].scgf.grid
    window = (grid >= -1.2) & (grid <= 0.7)
    sups = [float(np.max(r.abs_err[window])) for r in res.runs]
    min_sums = [round(r.mean_min * r.n) for r in res.runs]
    min_laws = [_min_sum_law(r.n, r.k, DIGIT_P) for r in res.runs]
    lo_bands = [_central_band(law) for law in min_laws]
    max_sums = [round(r.mean_max * r.n) for r in res.runs]
    max_laws = [_max_sum_law(r.n, r.k, DIGIT_P) for r in res.runs]
    hi_bands = [_central_band(law) for law in max_laws]
    fx_dir = tmp_path_factory.mktemp("fig1_pi")
    fx = fig1_pipeline(ExperimentConfig(kind="digit-file", m=10, a=0,
                                        path=pi_fixture_path(), n_list=(60,),
                                        budget=1e5, out_dir=str(fx_dir)))
    fx_ok = (bool(np.all(np.isfinite(fx.runs[0].scgf.values[window])))
             and bool(np.all(np.isfinite(fx.runs[0].conj.values)))
             and os.path.exists(fx.manifest_path))
    checks = [("budget n*k <= 1e6", all(150 * r.k <= 1e6 for r in res.runs)),
              ("sup error on [-1.2, 0.7] <= 0.05 for all seeds",
               all(s <= 0.05 for s in sups)),
              ("smallest block sum inside the central 1 - 2e-3 band of "
               "1 - (1 - F(s))^k for all seeds",
               all(lo <= s <= hi for s, (lo, hi) in zip(min_sums, lo_bands))),
              ("largest block sum inside the central 1 - 2e-3 band of "
               "F(s)^k for all seeds",
               all(lo <= s <= hi for s, (lo, hi) in zip(max_sums, hi_bands))),
              ("pi digit-file run completes with finite tables", fx_ok)]
    _verdict(10, "desk-scale digit reproduction", checks,
             "sup %s min sums %s bands %s quantiles %s (limit %.2f) "
             "max sums %s bands %s F^k %s (limit %.2f)"
             % (["%.4f" % s for s in sups], min_sums,
                ["[%d, %d]" % b for b in lo_bands],
                ["%.3f" % law[s] for s, law in zip(min_sums, min_laws)],
                150 * X1, max_sums, ["[%d, %d]" % b for b in hi_bands],
                ["%.3f" % law[s] for s, law in zip(max_sums, max_laws)],
                150 * X2))


def test_criterion_11_frequency_uniformity(freq_run):
    res = freq_run
    checks = [("1e6 windows", res.windows == 10 ** 6),
              ("max |freq - 0.1| <= 0.002", res.max_dev <= 0.002)]
    _verdict(11, "digit frequency uniformity", checks,
             "max deviation %.6f" % res.max_dev)


def test_criterion_12_determinism(tmp_path_factory, regime_run, zero_run,
                                  convexity_run, conjugation_run,
                                  supercritical_run, subcritical_run, tilt_run,
                                  brownian_run, markov_run, fig1_run,
                                  freq_run):
    tmp = tmp_path_factory.mktemp("repeat")
    mismatches = []

    def compare(tag, header, rows_a, rows_b):
        pa = write_csv(os.path.join(tmp, tag + "_a.csv"), header, rows_a)
        pb = write_csv(os.path.join(tmp, tag + "_b.csv"), header, rows_b)
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            if fa.read() != fb.read():
                mismatches.append(tag)

    _, text, _ = regime_run
    if _run_regime_cli()[1] != text:
        mismatches.append("regime-report")
    compare("zero", ["case", "value"], zero_run, _run_zero_values())
    compare("convexity", ["case", "d2_scgf", "d2_conj"], convexity_run,
            _run_convexity())
    a = conjugation_run
    b = _run_conjugation()
    compare("conjugation", ["x", "digit", "xg", "gauss"],
            zip(a[0], a[1], a[3], a[4]), zip(b[0], b[1], b[3], b[4]))
    compare("supercritical", supercritical_run[0].columns,
            supercritical_run[0].rows, _run_supercritical()[0].rows)
    compare("subcritical", subcritical_run[0].columns,
            subcritical_run[0].rows, _run_subcritical()[0].rows)
    compare("tilt", ["n", "seed", "k", "value"], tilt_run[0], _run_tilt()[0])
    compare("brownian", brownian_run[0].columns, brownian_run[0].rows,
            _run_brownian()[0].rows)
    compare("markov", ["lambda", "l6", "l12", "spectral"], markov_run[0],
            _run_markov_table()[0])
    fa = freq_run
    fb = _run_frequency()
    compare("frequency", ["word", "count", "freq"],
            zip(range(10), fa.counts, fa.freqs),
            zip(range(10), fb.counts, fb.freqs))
    out_a, _ = fig1_run
    out_b = tmp_path_factory.mktemp("fig1_second")
    _run_fig1(out_b)
    names_a = sorted(p for p in os.listdir(out_a) if p.endswith(".csv"))
    names_b = sorted(p for p in os.listdir(out_b) if p.endswith(".csv"))
    if names_a != names_b:
        mismatches.append("fig1-file-set")
    for name in names_a:
        with open(os.path.join(out_a, name), "rb") as fha, \
                open(os.path.join(out_b, name), "rb") as fhb:
            if fha.read() != fhb.read():
                mismatches.append("fig1:" + name)
    _verdict(12, "end-to-end rerun determinism",
             [("all serialized outputs byte-identical", not mismatches)],
             "mismatches %s" % (mismatches or "none"))
