"""Independent reference outputs and the correctness gate.

Nothing here imports blockldp.  The reference for every workload is rebuilt
from first principles for whatever seed the benchmark runs:

* the counter-based generator (SplitMix64 finalizer, documented in the
  package's sources module) is re-implemented here, so observations are
  regenerated without the library;
* digit indicators and two-state Markov observables have integer block sums,
  so their block means are known exactly as a histogram of sums;
* model SCGFs use closed forms (the two-state Perron root in closed form
  instead of the library's power iteration);
* Legendre transforms, slopes and word counts are recomputed by brute force.

Integers (k, ball counts, word counts, boundary flags, argmax tilts on the
grid) must match exactly.  Floats must satisfy
``|got - want| <= FLOAT_TOL * max(1, |want|)``: a reordered floating-point
sum moves a value by ~1e-16 relative and the library's finite-difference
model derivatives carry ~1e-11, while a wrong seed, block or tilt moves
values by more than 1e-4.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

FLOAT_TOL = 1e-9

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_CHUNK = 1 << 21


# ---------------------------------------------------------------- generator

def _words(seed: int, start: int, count: int) -> np.ndarray:
    """SplitMix64-finalized words for counters start..start+count-1."""
    i = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + i * _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    return ((_words(seed, start, count) >> np.uint64(11)).astype(np.float64)
            + 0.5) * 2.0 ** -53


def digits(seed: int, count: int, m: int = 10) -> np.ndarray:
    """Base-m digits at indices 0..count-1 as uint8."""
    limit = (1 << 64) - ((1 << 64) % m)
    out = np.empty(count, dtype=np.uint8)
    for s in range(0, count, _CHUNK):
        z = _words(seed, s, min(_CHUNK, count - s))
        if limit <= _MASK64 and np.any(z >= np.uint64(limit)):
            raise RuntimeError("digit rejection fired; the oracle does not "
                               "model the rejection chain")
        out[s:s + z.size] = z % np.uint64(m)
    return out


def gaussian_block_means(seed: int, n: int, k: int) -> np.ndarray:
    """Means of k length-n blocks of 1-d Box-Muller normals (cosine branch
    on the counter pair 2i, 2i+1)."""
    out = np.empty(k)
    step = max(1, _CHUNK // n)
    for j0 in range(0, k, step):
        cnt = min(step, k - j0)
        u = uniforms(seed, 2 * j0 * n, 2 * cnt * n)
        g = np.sqrt(-2.0 * np.log(u[0::2])) * np.cos(2.0 * np.pi * u[1::2])
        out[j0:j0 + cnt] = g.reshape(cnt, n).sum(axis=1) / n
    return out


def two_state_path(P, seed: int, length: int) -> np.ndarray:
    """States 0/1 of a two-state chain started from its stationary law.

    With P[1,0] <= P[0,0], a uniform u below P[1,0] sends both states to 0,
    one at or above P[0,0] sends both to 1, and any other keeps the state,
    so each state is the last such reset (or the initial draw).
    """
    P = np.asarray(P, dtype=np.float64)
    if P.shape != (2, 2) or not P[1, 0] <= P[0, 0]:
        raise ValueError("oracle supports two-state chains with P10 <= P00")
    u = uniforms(seed, 0, length)
    pi0 = P[1, 0] / (P[0, 1] + P[1, 0])
    state = np.full(length, -1, dtype=np.int64)
    state[0] = 0 if u[0] < pi0 else 1
    rest = u[1:]
    reset = np.full(length - 1, -1, dtype=np.int64)
    reset[rest < P[1, 0]] = 0
    reset[rest >= P[0, 0]] = 1
    state[1:] = reset
    last = np.where(state >= 0, np.arange(length), 0)
    np.maximum.accumulate(last, out=last)
    return state[last]


def block_sum_hist(values: np.ndarray, n: int, k: int) -> np.ndarray:
    """Histogram (length n+1) of the integer sums of k length-n blocks."""
    sums = values[:n * k].reshape(k, n).sum(axis=1, dtype=np.int64)
    return np.bincount(sums, minlength=n + 1)


# --------------------------------------------------------- exact statistics

def scgf_from_hist(hist: np.ndarray, n: int, lambdas) -> np.ndarray:
    """(1/n) log((1/k) sum_s hist[s] e^{lambda s}) by log-sum-exp."""
    lam = np.atleast_1d(np.asarray(lambdas, dtype=np.float64))
    s = np.nonzero(hist)[0]
    logw = np.log(hist[s].astype(np.float64))
    t = lam[:, None] * s[None, :] + logw[None, :]
    top = t.max(axis=1)
    total = top + np.log(np.exp(t - top[:, None]).sum(axis=1))
    return (total - math.log(int(hist.sum()))) / n


def lattice_ball_count(hist: np.ndarray, n: int, x: float, eps: float) -> int:
    """Blocks with |s/n - x| <= eps, in the library's float arithmetic
    (a lattice point can sit exactly on the sphere)."""
    means = np.arange(hist.size, dtype=np.float64) / n
    return int(hist[np.abs(means - x) <= eps].sum())


def schedule_k(c: float, n: int) -> int:
    return math.ceil(math.exp(c * n))


def grid(lo: float, hi: float, step: float) -> np.ndarray:
    return lo + step * np.arange(int(round((hi - lo) / step)) + 1)


def bernoulli_lam(p: float, lam) -> np.ndarray:
    return np.log1p(p * np.expm1(np.asarray(lam, dtype=np.float64)))


def bernoulli_grad(p: float, lam: float) -> float:
    e = math.exp(lam)
    return p * e / (1.0 - p + p * e)


def two_state_lam(P, phi, lam):
    """log Perron root of P_xy e^{lam phi_y} in closed form, with Lambda'."""
    P = np.asarray(P, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    e0, e1 = np.exp(lam * phi[0]), np.exp(lam * phi[1])
    a, b, c, d = P[0, 0] * e0, P[0, 1] * e1, P[1, 0] * e0, P[1, 1] * e1
    da, db, dc, dd = phi[0] * a, phi[1] * b, phi[0] * c, phi[1] * d
    root = np.sqrt((a - d) ** 2 + 4.0 * b * c)
    rho = 0.5 * (a + d + root)
    drho = 0.5 * (da + dd + ((a - d) * (da - dd) + 2.0 * (db * c + b * dc)) / root)
    return np.log(rho), drho / rho


def brute_legendre(g: np.ndarray, v: np.ndarray, xs: np.ndarray):
    """max_j (x g_j - v_j) over finite v, first maximiser on ties."""
    keep = np.isfinite(v)
    g, v = g[keep], v[keep]
    scores = xs[:, None] * g[None, :] - v[None, :]
    idx = np.argmax(scores, axis=1)
    vals = scores[np.arange(xs.size), idx]
    return vals, g[idx], (idx == 0) | (idx == g.size - 1)


def normal_ball_mass(x: float, eps: float, n: int) -> float:
    r = math.sqrt(n)
    phi = lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0))  # noqa: E731
    return phi((x + eps) * r) - phi((x - eps) * r)


# ------------------------------------------------------------ the gate

class Gate:
    """Collects mismatches between outputs and the reference."""

    def __init__(self):
        self.failures: list[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def exact(self, what: str, got, want) -> None:
        got = np.asarray(got, dtype=np.float64)
        want = np.asarray(want, dtype=np.float64)
        if got.shape != want.shape:
            self.fail("%s: shape %s, want %s" % (what, got.shape, want.shape))
        elif not np.array_equal(got, want):
            i = int(np.argmax(got != want))
            self.fail("%s: row %d is %r, want %r"
                      % (what, i, got.flat[i], want.flat[i]))

    def floats(self, what: str, got, want) -> None:
        got = np.atleast_1d(np.asarray(got, dtype=np.float64))
        want = np.atleast_1d(np.asarray(want, dtype=np.float64))
        if got.shape != want.shape:
            self.fail("%s: shape %s, want %s" % (what, got.shape, want.shape))
            return
        scale = np.maximum(1.0, np.abs(np.nan_to_num(want, posinf=0.0, neginf=0.0)))
        with np.errstate(invalid="ignore"):
            bad = ~((got == want) | (np.abs(got - want) <= FLOAT_TOL * scale))
        if bad.any():
            i = int(np.argmax(bad))
            self.fail("%s: row %d is %r, want %r"
                      % (what, i, float(got[i]), float(want[i])))

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.fail("%s: %r, want %r" % (what, got, want))


def read_csv(path: str):
    """Header and columns of a CSV as lists of strings."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = {h: [r[i] for r in rows] for i, h in enumerate(header)}
    return header, cols


def _csv(gate: Gate, path: str, header: list[str]):
    if not os.path.exists(path):
        gate.fail("missing output %s" % os.path.basename(path))
        return None
    got, cols = read_csv(path)
    if got != header:
        gate.fail("%s: header %r, want %r" % (os.path.basename(path), got, header))
        return None
    return {k: np.array([float(v) for v in vs]) for k, vs in cols.items()}


def _check_conj(gate: Gate, what: str, cols, lam: np.ndarray, values: np.ndarray,
                xs: np.ndarray) -> None:
    vals, argmax, boundary = brute_legendre(lam, values, xs)
    gate.floats(what + " x", cols["x"], xs)
    gate.floats(what + " value", cols["value"], vals)
    gate.exact(what + " argmax_lambda", cols["argmax_lambda"], argmax)
    gate.exact(what + " boundary", cols["boundary"], boundary.astype(int))


# --------------------------------------------------------------- workloads
#
# reference(params, seed, inputs) does the expensive, seed-dependent part once
# per benchmark invocation; check(out_dir, ref) compares one run's outputs.

def fig1_reference(p: dict, seed: int, inputs: dict) -> dict:
    m, lam0 = p["m"], p["lambda0"]
    x0 = bernoulli_grad(1.0 / m, lam0)
    c = lam0 * x0 - float(bernoulli_lam(1.0 / m, lam0))
    ks = {n: schedule_k(c, n) for n in p["n_list"]}
    top = max(n * ks[n] for n in p["n_list"])
    hists = {}
    for s in p["seeds"](seed):
        ind = (digits(s, top, m) == p["a"]).astype(np.uint8)
        for n in p["n_list"]:
            hists["%d_%d" % (n, s)] = block_sum_hist(ind, n, ks[n]).tolist()
    return {"c": c, "k": {str(n): k for n, k in ks.items()}, "hists": hists,
            "seeds": list(p["seeds"](seed))}


def fig1_check(p: dict, out: str, ref: dict, gate: Gate) -> None:
    m = p["m"]
    lam = grid(*p["lambda_grid"])
    xs = grid(*p["x_grid"])
    model = bernoulli_lam(1.0 / m, lam)
    summary = []
    for s in ref["seeds"]:
        for n in p["n_list"]:
            k = ref["k"][str(n)]
            hist = np.array(ref["hists"]["%d_%d" % (n, s)])
            gate.equal("k(n=%d)" % n, int(hist.sum()), k)
            tag = "n%d_s%d" % (n, s)
            want = scgf_from_hist(hist, n, lam)
            cols = _csv(gate, os.path.join(out, "scgf_%s.csv" % tag), ["lambda", "value"])
            if cols is None:
                continue
            gate.floats("scgf_%s lambda" % tag, cols["lambda"], lam)
            gate.floats("scgf_%s value" % tag, cols["value"], want)
            got = cols["value"]
            cols = _csv(gate, os.path.join(out, "abserr_%s.csv" % tag),
                        ["lambda", "abs_error"])
            if cols is not None:
                gate.floats("abserr_%s" % tag, cols["abs_error"], np.abs(want - model))
            cols = _csv(gate, os.path.join(out, "conj_%s.csv" % tag),
                        ["x", "value", "argmax_lambda", "boundary"])
            if cols is not None:
                _check_conj(gate, "conj_%s" % tag, cols, lam, got, xs)
            cols = _csv(gate, os.path.join(out, "grad_%s.csv" % tag),
                        ["lambda", "derivative"])
            if cols is not None:
                h = (lam[-1] - lam[0]) / (lam.size - 1)
                d = np.empty_like(got)
                d[1:-1] = (got[2:] - got[:-2]) / (2 * h)
                d[0] = (-3 * got[0] + 4 * got[1] - got[2]) / (2 * h)
                d[-1] = (3 * got[-1] - 4 * got[-2] + got[-3]) / (2 * h)
                gate.floats("grad_%s" % tag, cols["derivative"], d)
            nz = np.nonzero(hist)[0]
            summary.append((n, s, k, nz[0] / n, nz[-1] / n))
    cols = _csv(gate, os.path.join(out, "summary.csv"),
                ["n", "seed", "k", "mean_min", "mean_max"])
    if cols is not None:
        want = np.array(summary, dtype=np.float64).reshape(-1, 5)
        for j, name in enumerate(("n", "seed", "k")):
            gate.exact("summary " + name, cols[name], want[:, j])
        gate.floats("summary mean_min", cols["mean_min"], want[:, 3])
        gate.floats("summary mean_max", cols["mean_max"], want[:, 4])
    man = load_manifest(gate, os.path.join(out, "manifest.json"))
    if man is not None:
        gate.equal("manifest k_by_n", man["config"]["k_by_n"], ref["k"])
        gate.equal("manifest seeds", man["seeds"], ref["seeds"])
        gate.equal("manifest files", man["files"],
                   sorted(f for f in os.listdir(out) if f.endswith(".csv")))


def brownian_reference(p: dict, seed: int, inputs: dict) -> dict:
    n, c, eps = p["n"], p["c"], p["eps"]
    k = schedule_k(c, n)
    means = gaussian_block_means(seed, n, k)
    counts = [int(np.count_nonzero(np.abs(means - x) <= eps)) for x in p["x_list"]]
    return {"k": k, "counts": counts, "seed": seed}


def brownian_check(p: dict, out: str, ref: dict, gate: Gate) -> None:
    n, eps, k = p["n"], p["eps"], ref["k"]
    cols = _csv(gate, os.path.join(out, "brownian.csv"),
                ["n", "seed", "x", "k", "count", "mass", "local_rate",
                 "oracle_mass", "oracle_rate", "rel_err", "margin_ok"])
    if cols is None:
        return
    rows = len(p["x_list"])
    counts = np.array(ref["counts"], dtype=np.float64)
    mass = counts / k
    with np.errstate(divide="ignore"):
        rate = np.where(counts > 0, -np.log(mass) / n, np.inf)
    omass = np.array([normal_ball_mass(x, eps, n) for x in p["x_list"]])
    gate.exact("n", cols["n"], [n] * rows)
    gate.exact("seed", cols["seed"], [ref["seed"]] * rows)
    gate.floats("x", cols["x"], p["x_list"])
    gate.exact("k", cols["k"], [k] * rows)
    gate.exact("count", cols["count"], counts)
    gate.floats("mass", cols["mass"], mass)
    gate.floats("local_rate", cols["local_rate"], rate)
    gate.floats("oracle_mass", cols["oracle_mass"], omass)
    gate.floats("oracle_rate", cols["oracle_rate"], -np.log(omass) / n)
    gate.floats("rel_err", cols["rel_err"], np.abs(mass - omass) / omass)
    gate.exact("margin_ok", cols["margin_ok"],
              [int(p["c"] > p["R"] ** 2 / 2.0)] * rows)
    man = load_manifest(gate, os.path.join(out, "manifest.json"))
    if man is not None:
        gate.equal("manifest seeds", man["seeds"], [ref["seed"]])


def markov_reference(p: dict, seed: int, inputs: dict) -> dict:
    P, phi, lam0 = p["P"], p["phi"], p["lambda0"]
    v1, x0 = (float(a) for a in two_state_lam(P, phi, lam0))
    thr = lam0 * x0 - v1
    runs = []
    for name, (cmul, cadd), n_list, seeds in p["runs"](seed):
        c = cmul * thr + cadd
        ks = {n: schedule_k(c, n) for n in n_list}
        hists = {}
        for s in seeds:
            path = two_state_path(P, s, max(n * ks[n] for n in n_list))
            for n in n_list:
                hists["%d_%d" % (n, s)] = block_sum_hist(path, n, ks[n]).tolist()
        runs.append({"regime": name, "c": c, "k": {str(n): k for n, k in ks.items()},
                     "n_list": list(n_list), "seeds": list(seeds), "hists": hists})
    return {"x0": x0, "v1": v1, "threshold": thr, "runs": runs}


def markov_check(p: dict, out: str, ref: dict, gate: Gate) -> None:
    P, phi, lam0 = p["P"], p["phi"], p["lambda0"]
    for run in ref["runs"]:
        name = run["regime"]
        rows = []
        for s in run["seeds"]:
            for n in run["n_list"]:
                k = run["k"][str(n)]
                hist = np.array(run["hists"]["%d_%d" % (n, s)])
                if name == "supercritical":
                    win = grid(lam0 - 0.2, lam0 + 0.2, 0.01)
                    err = np.abs(scgf_from_hist(hist, n, win) - two_state_lam(P, phi, win)[0])
                    rows.append((n, s, k, float(err.max())))
                elif name == "subcritical":
                    cnt = lattice_ball_count(hist, n, ref["x0"], p["eps"])
                    rows.append((n, s, k, cnt, cnt / k))
                else:
                    ts = (1.0, 1.5, 2.0)
                    emp = scgf_from_hist(hist, n, [t * lam0 for t in ts])
                    for t, e in zip(ts, emp):
                        pred = ref["v1"] + (t - 1.0) * lam0 * ref["x0"]
                        rows.append((n, s, k, t, e, pred, abs(e - pred)))
        header = {"supercritical": ["n", "seed", "k", "sup_error"],
                  "subcritical": ["n", "seed", "k", "count", "mass"],
                  "critical": ["n", "seed", "k", "t", "empirical", "predicted",
                               "abs_error"]}[name]
        cols = _csv(gate, os.path.join(out, "%s.csv" % name), header)
        if cols is None:
            continue
        want = np.array(rows, dtype=np.float64).reshape(-1, len(header))
        for j, h in enumerate(header):
            if h in ("n", "seed", "k", "count"):
                gate.exact("%s %s" % (name, h), cols[h], want[:, j])
            else:
                gate.floats("%s %s" % (name, h), cols[h], want[:, j])
    lam = grid(*p["lambda_grid"])
    cols = _csv(gate, os.path.join(out, "lam.csv"), ["lambda", "value"])
    if cols is not None:
        gate.floats("lam", cols["value"], two_state_lam(P, phi, lam)[0])
    xs = grid(*p["x_grid"])
    cols = _csv(gate, os.path.join(out, "conj.csv"), ["x", "value"])
    if cols is not None:
        fine = -20.0 + 0.005 * np.arange(8001)
        want = brute_legendre(fine, two_state_lam(P, phi, fine)[0], xs)[0]
        gate.floats("conj", cols["value"], want)
    man = load_manifest(gate, os.path.join(out, "manifest.json"))
    if man is not None:
        gate.floats("manifest threshold", man["config"]["threshold"], ref["threshold"])


def filecli_reference(p: dict, seed: int, inputs: dict) -> dict:
    sym = digits(seed, p["symbols"])
    n, k = p["n"], p["k"]
    hist = block_sum_hist((sym == p["a"]).astype(np.uint8), n, k)
    n0, m = p["n0"], 10
    words = np.zeros(m ** n0, dtype=np.int64)
    for s in range(0, sym.size - n0 + 1, _CHUNK):
        e = min(s + _CHUNK, sym.size - n0 + 1)
        code = np.zeros(e - s, dtype=np.int64)
        for t in range(n0):
            code = code * m + sym[s + t:e + t]
        words += np.bincount(code, minlength=m ** n0)
    return {"hist": hist.tolist(), "words": words.tolist(),
            "sha256": inputs["sha256"], "digits": os.path.basename(inputs["path"])}


def filecli_check(p: dict, out: str, ref: dict, gate: Gate) -> None:
    n, k = p["n"], p["k"]
    hist = np.array(ref["hist"])
    gate.equal("k", int(hist.sum()), k)
    lam = grid(*p["lambda_grid"])
    scgf = scgf_from_hist(hist, n, lam)
    cols = _csv(gate, os.path.join(out, "scgf.csv"), ["lambda", "value"])
    if cols is not None:
        gate.floats("scgf lambda", cols["lambda"], lam)
        gate.floats("scgf value", cols["value"], scgf)
        conj = _csv(gate, os.path.join(out, "conj.csv"),
                    ["x", "value", "argmax_lambda", "boundary"])
        if conj is not None:
            _check_conj(gate, "conj", conj, cols["lambda"], cols["value"],
                        grid(*p["x_grid"]))
    x, eps = p["ball"]
    cols = _csv(gate, os.path.join(out, "scgf_ball.csv"), ["x", "mass"])
    if cols is not None:
        gate.floats("ball x", cols["x"], [x])
        gate.floats("ball mass", cols["mass"], [lattice_ball_count(hist, n, x, eps) / k])
    words = np.array(ref["words"])
    windows = p["symbols"] - p["n0"] + 1
    gate.equal("word windows", int(words.sum()), windows)
    header, raw = read_csv(os.path.join(out, "words.csv"))
    gate.equal("words.csv header", header, ["word", "count", "freq"])
    gate.equal("words", raw["word"], [str(i).zfill(p["n0"]) for i in range(words.size)])
    gate.exact("word count", np.array(raw["count"], dtype=float), words)
    gate.floats("word freq", np.array(raw["freq"], dtype=float), words / windows)
    with open(os.path.join(out, "stdout.txt")) as fh:
        text = fh.read()
    doc = json.loads(text[text.index("{"):text.rindex("}") + 1])
    gate.equal("freq N", doc["N"], p["symbols"])
    gate.equal("freq windows", doc["windows"], windows)
    gate.floats("freq max_dev", doc["max_dev"],
                np.max(np.abs(words / windows - 10.0 ** -p["n0"])))
    for name, want in (("scgf.csv", {ref["digits"]: ref["sha256"]}),
                       ("words.csv", {ref["digits"]: ref["sha256"]})):
        man = load_manifest(gate, os.path.join(out, name + ".manifest.json"))
        if man is not None:
            gate.equal(name + " manifest checksums", man["input_checksums"], want)
    man = load_manifest(gate, os.path.join(out, "conj.csv.manifest.json"))
    if man is not None and os.path.exists(os.path.join(out, "scgf.csv")):
        with open(os.path.join(out, "scgf.csv"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        gate.equal("conj manifest checksums", man["input_checksums"],
                   {"scgf.csv": digest})


def load_manifest(gate: Gate, path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        gate.fail("manifest %s unreadable: %s" % (os.path.basename(path), exc))
        return None


def normalized_manifest(path: str) -> bytes:
    """Manifest bytes with the wallclock entry removed (the only field that
    may differ between runs of one configuration)."""
    with open(path) as fh:
        doc = json.load(fh)
    doc.pop("wallclock_s", None)
    return json.dumps(doc, sort_keys=True).encode()
