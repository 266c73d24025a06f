"""Golden bytes: the sha256 of every CSV a small set of runs writes.

The digests were recorded from the per-cell writer and the dense Legendre
transform; any change to how a CSV is computed or formatted shows here as a
changed digest.  The runs cover the fig1 pipeline (summary included), the
legendre and freq commands, gen for every generated kind, and the Markov model's conjugate.
REGIME_SHA256 pins the regime layer: the stdout of the regime command (open
level sides included) and regime_experiment's rows in all three regimes,
written as CSVs; the critical run at lambda0 = -0.9 has decreasing tilts.  Like
BOUNDARY_SHA256 in test_sources, the digests assume numpy's float64 exp, log
and eig round as on the x86-64 build they were recorded with (numpy 2.4).
"""

import hashlib
import json
import math
import os

from blockldp import (ExperimentConfig, MarkovSpec, bernoulli_model, bernoulli_source,
                      digit_indicator_model, digit_source, fig1_pipeline, markov_model,
                      regime_experiment)
from blockldp._serialize import make_grid, write_csv
from blockldp.cli import main
from blockldp.regimes import rate_along
from blockldp.sources import pi_fixture_path

GOLDEN_SHA256 = {
    "fig1/abserr_n20_s1.csv": "a6082cbda808292edef6a18ee0c8ccac7a8a5333e7314075348ab84938c7c456",
    "fig1/abserr_n20_s2.csv": "4c68c3e64fc0fed20e15002bdbc54fc3afb4085f6a96d4813bf487f0a6992476",
    "fig1/abserr_n30_s1.csv": "8dae43c67417f4b2421794ec689e0dcedb9ec97bb4f590b92962b6e61b6bb1bd",
    "fig1/abserr_n30_s2.csv": "f5af16e4d44f1a96713ff62170e07542bda7b35a2b2889c3f7dc506b7eb26e30",
    "fig1/conj_n20_s1.csv": "811a9301aff97cea57f50ef99d5955605ee1009e7804565759f74870837c2180",
    "fig1/conj_n20_s2.csv": "fd24b2bb3ed185b409a5c258d66b751adc9fe1d26a1c36a4ab8beccef8fbd19e",
    "fig1/conj_n30_s1.csv": "27f998145f1c8a79af385557ccaaa48289f59abb539e79464e51e14bb504a96a",
    "fig1/conj_n30_s2.csv": "a3203402439f677004cbe2a1b6db29bf11f46bf6319108184be093b2cbaef02f",
    "fig1/grad_n20_s1.csv": "b763bd25990a4018dafc63049553dc2648bdb852784ea177d15d5d2c1578e038",
    "fig1/grad_n20_s2.csv": "eff18e2133681ee32bbae0e5c5972d089cec1b0778d8ca26d8e268921dc49b83",
    "fig1/grad_n30_s1.csv": "7e2c8325c2a63a0429dec0ae4a6c55456179c2e45fc9efb7b87e0637bf8487ba",
    "fig1/grad_n30_s2.csv": "f9df6aeee35fd9943cfab5c408f393f6e9817c78c01b2864047a8e1dedbe2480",
    "fig1/scgf_n20_s1.csv": "19f0ba6d9cd9029d1c9755b4a95fc7108cd21eb41302d3f610ca3a0cf920758d",
    "fig1/scgf_n20_s2.csv": "0ebdb31768c305f51cd180d99bbfeaae55827b0015fc5d298be6289100e4e0fc",
    "fig1/scgf_n30_s1.csv": "5ebe73fe538bcf0c3872a5e3f7efb5030ae96ebbe37443aabd7b397daf9005a0",
    "fig1/scgf_n30_s2.csv": "83c782bf7a1b782af3481961e7a733f02e059906818df4f6bc0fbd914ebf47c5",
    "fig1/summary.csv": "13a2d6c3c926b09070d8b7e276cf35b87a2efb7e51ba1bcb6317276db96b2dd5",
    "freq.csv": "619fbc740bb253f64edd2874d2b8ed5b33f24ffccde7d77a8a4aa42dc1e487a5",
    "gen_bernoulli.txt": "6c5410dda6f5ddc98f87e638fee9785f5f8fec65a97a2ba71b10ed651bed080a",
    "gen_digit.txt": "aca82b86fe26d8e18e07ff2c2af68443697039bb442843940df161fc4b5a49c1",
    "gen_gauss.txt": "9a66f6ddc2838b0362f22e54f633fa80b8cd4fc8e4a3d3a8b3565b2b8fe80659",
    "gen_markov.txt": "87be82f3d101963f97b0467630176d9980a989dae59c3caebd3d36bb9faba2e0",
    "legendre.csv": "a3203402439f677004cbe2a1b6db29bf11f46bf6319108184be093b2cbaef02f",
    "markov_conj.csv": "f5b35721cd3cb1909b065b9775a21bd494d078f867fc11c341f04979e62b71d9",
}

REGIME_SHA256 = {
    "regime/bernoulli-0.3-c0.01": "d093b0850feced85ce4c9ab2bad64a089ebe4a344e0454f982b08d780052d1c4",
    "regime/bernoulli-0.5-c0.1": "dc477f01d675aae117f703dd0ac1abaa73f4b8041ea5d7fce983564ea30d7741",
    "regime/digit-0.8": "004b62cd12559a4cf0b05a2b8507e83cacfbd790715006608f2d9b134346bab0",
    "regime/digit-2.0": "21a2c48da145117badd29e2f5d46f174379bee9e84ca567835567270016ba8f1",
    "regime/gaussian-0": "983a1b883b9478de9938bca07ad4fb42e16e40d400906f7648bae20f9a1ddac5",
    "regime/markov-0.8": "627b93559d5f7feb9aa19fcfd783d9a546471f7aefc69b45834dffeffe861edd",
    "regime/markov-0.8-c0.3": "2d6a90c2fd1ff75e041b2937e3a880969609e9650a77daa81d6cc92c0971dbf6",
    "rows/critical-0.8.csv": "938cf1605795625685d6518775316594037bbfc535d01a83806c9f42f1c0d816",
    "rows/critical-neg-0.9.csv": "da7b601510c7a675c63936d54f5be27e694821f1219eee9ba30b2611047afbe3",
    "rows/subcritical.csv": "9eaf5b43d125f693689fc17fd826105fef9f5b0bb648a7260519517fa36e33dd",
    "rows/supercritical.csv": "cdca65d0cd698367e8f752cb9683b09c62deb18cad9f81b0f975badb000b3242",
}


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _digests(out) -> dict:
    cfg = ExperimentConfig(kind="iid-digit", n_list=(20, 30), seeds=(1, 2),
                           out_dir=os.path.join(out, "fig1"))
    res = fig1_pipeline(cfg)
    got = {"fig1/" + os.path.basename(f): _sha(f) for f in res.files}
    scgf = os.path.join(out, "fig1", "scgf_n30_s2.csv")
    chain = os.path.join(out, "chain.json")
    with open(chain, "w") as fh:
        json.dump({"P": [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]],
                   "phi": [[0.0, 1.5], [-2.25, 0.1], [3.0, -0.7]]}, fh)
    runs = {
        "legendre.csv": ["legendre", "--in", scgf],
        "freq.csv": ["freq", "--in", pi_fixture_path(), "--n0", "2"],
        "gen_digit.txt": ["gen", "--kind", "iid-digit", "--seed", "3", "--count", "70000"],
        "gen_gauss.txt": ["gen", "--kind", "gaussian", "--d", "2", "--seed", "3",
                          "--count", "1000"],
        "gen_bernoulli.txt": ["gen", "--kind", "iid-bernoulli", "--p", "0.3", "--seed", "3",
                              "--count", "70000"],
        "gen_markov.txt": ["gen", "--kind", "markov", "--markov-file", chain, "--seed", "3",
                           "--count", "40000"],
    }
    for name, argv in runs.items():
        path = os.path.join(out, name)
        assert main(argv + ["--out", path]) == 0
        got[name] = _sha(path)
    model = markov_model(MarkovSpec(P=[[0.9, 0.1], [0.1, 0.9]], phi=[0.0, 1.0]))
    xs = make_grid(*ExperimentConfig.x_grid)
    got["markov_conj.csv"] = _sha(write_csv(os.path.join(out, "markov_conj.csv"),
                                            ["x", "value"], zip(xs, model.conj(xs))))
    return got


def test_output_bytes_are_pinned(tmp_path, capsys):
    got = _digests(str(tmp_path))
    assert len(got) == 24
    assert got == GOLDEN_SHA256


def test_regime_outputs_are_pinned(tmp_path, capsys):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"P": [[0.9, 0.1], [0.2, 0.8]], "phi": [0, 1]}))
    markov = "markov:" + str(chain)
    runs = {
        "digit-0.8": ["--model", "digit:10:0", "--lambda0", "0.8"],
        "bernoulli-0.5-c0.1": ["--model", "bernoulli:0.5", "--lambda0", "0.5", "--c", "0.1"],
        "digit-2.0": ["--model", "digit:10:0", "--lambda0", "2.0"],
        "gaussian-0": ["--model", "gaussian:1", "--lambda0", "0"],
        "markov-0.8": ["--model", markov, "--lambda0", "0.8"],
        "markov-0.8-c0.3": ["--model", markov, "--lambda0", "0.8", "--c", "0.3"],
        "bernoulli-0.3-c0.01": ["--model", "bernoulli:0.3", "--lambda0", "-1.5",
                                "--c", "0.01"],
    }
    got = {}
    capsys.readouterr()
    for name, argv in runs.items():
        assert main(["regime"] + argv) == 0
        got["regime/" + name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    digit, digits = digit_indicator_model(10, 0), digit_source(0, 10, indicator_a=0)
    coin, coins = bernoulli_model(0.5), bernoulli_source(0, 0.5)
    experiments = {
        "supercritical.csv": (coin, coins, 0.5, 0.10, (20, 40), None),
        "subcritical.csv": (coin, coins, math.log(9.0), 0.10, (20, 40), 0.2),
        "critical-0.8.csv": (digit, digits, 0.8, rate_along(digit, 0.8), (20, 40), None),
        "critical-neg-0.9.csv": (digit, digits, -0.9, rate_along(digit, -0.9), (40, 150),
                                 None),
    }
    for name, (model, source, lambda0, c, n_list, eps) in experiments.items():
        ev = regime_experiment(model, source, lambda0, c, n_list, (1, 2), eps=eps)
        got["rows/" + name] = _sha(write_csv(tmp_path / name, ev.columns, ev.rows))
    assert got == REGIME_SHA256
