"""Reproducible experiment runner.

Subcommands: smallball, tail, detconc, decoupling, gapreduce, rankgrow,
odlyzko, replay.  Every random outcome is a pure function of (seed,
trial index), so per-trial rows are bit-identical across reruns and any
worker count; `replay` re-executes a stored record and checks that.

Outputs: <out>.csv with one row per trial and <out>.json holding the
canonical config, its hash, the BLAS thread count the rows were computed
at (blas_threads: 1, or null where numpy bundles no OpenBLAS to pin;
outside the hash, like the worker count), rows, summary statistics and
the verdict.
Exit codes: 0 pass, 2 fail, 3 inconclusive, 1 error.  Every Monte Carlo
frequency is graded by detconc.bound_verdict: "inconclusive" whenever its
bound lies inside the frequency's Wilson interval.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .detconc import (SpacingUnverified, bound_verdict, cutoff_epsilon, detconc_trial,
                      envelope_norm, envelope_rule, loglog_slope, seed_repeats, tail_trial,
                      usable_cores, wilson_interval)
from .ensembles import (MembershipResult, blas_pinnable, check_atom_bound, exact_rank,
                        exact_sample, grow_and_track, read_matrix_exact, sample_symmetric,
                        spectral_summary, subspace_membership_mc, write_matrix_text)
from .gap import beta_close, format_gap, parse_gap, rank_reduce, spans
from .laws import AtomicLaw, SpacingCertificate, auto_certificate, parse_law, verify_spacing
from .smallball import (LinearForm, QuadraticForm, bilinear_small_ball,
                        linear_small_ball_exact, linear_small_ball_mc,
                        quadratic_small_ball_exact, quadratic_small_ball_mc)
from .streams import chunk_bounds, key_seed, substream
from .structure import Bipartition, decoupling_scan


class UnknownExperiment(Exception):
    pass


class InvalidConfig(Exception):
    pass


class ReplayMismatch(Exception):
    pass


def _fractions(text: str) -> List[Fraction]:
    return [Fraction(tok) for tok in text.split(",") if tok.strip()]


# Every config key, in the order of a resolved config, with its kind: int
# (an int of at least 0), size (an int of at least 1, or of the
# experiment's `least` for the key), sizes (a non-empty list of distinct
# sizes), real (a finite int or float), a range of reals (_RANGES), text, a
# parser the text must pass, or a tuple of the words allowed; reals and
# text are kept as given, so that records hash as before.  Flags and
# key=value lines are text; JSON and records are typed.
_KEYS: Dict[str, object] = {
    "law": parse_law, "n": "size", "n_list": "sizes", "trials": "size", "seed": "int",
    "workers": "size", "out": "text", "beta": "nonnegative", "a_exp": "real",
    "freq_bound": "probability", "epsilon": "positive", "spread_bound": "positive",
    "dev_bound": "probability", "c1": "real", "c2": "real", "c3": "unit",
    "form": ("linear", "quadratic", "bilinear"),
    "coeffs": "text", "method": ("exact", "mc"), "gap": parse_gap, "values": _fractions,
}

# the real kinds that are ranges: the test a value must pass, and its wording
_RANGES: Dict[str, Tuple[Callable[[float], bool], str]] = {
    "real": (lambda v: True, ""),
    "nonnegative": (lambda v: v >= 0, ">= 0"),
    "positive": (lambda v: v > 0, "> 0"),
    "unit": (lambda v: 0 <= v < 1, "in [0, 1)"),
    "probability": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}

# keys every experiment takes, with their defaults
_COMMON: Dict[str, object] = {"law": "bernoulli", "seed": 1, "workers": 1, "out": None}

# fields that identify an experiment; workers/out are execution details
# and stay out of the canonical form so a replay may change them
_HASH_EXCLUDED = {"workers", "out"}

# decoupling trials per decoupling_scan call, a stack enumerated at once:
# a worker's memory does not grow with its share of the trials
_DECOUPLING_STACK = 64


def _int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _from_text(key: str, text: str):
    """The value of key written as text, in a flag or a key=value line."""
    parse = {"int": int, "size": int, "sizes": _int_list,
             **dict.fromkeys(_RANGES, float)}.get(_KEYS.get(key), str)
    try:
        return parse(text)
    except ValueError:
        raise InvalidConfig(f"{key}: invalid value {text!r}") from None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _checked(key: str, value, least: int):
    """A typed value of key from any source, sizes as tuples; InvalidConfig
    naming the key unless it is of key's kind (for a parser, text that it
    accepts) and no size is below least."""
    kind = _KEYS[key]
    if kind == "sizes":
        ok = isinstance(value, (list, tuple)) and all(map(_is_int, value))
        value = tuple(value) if ok else value
    elif kind in ("int", "size"):
        ok = _is_int(value)
        if ok and kind == "int" and value < 0:
            raise InvalidConfig(f"{key}: invalid value {value!r}, needs {key} >= 0")
    elif kind in _RANGES:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value)
        if ok and not _RANGES[kind][0](value):
            raise InvalidConfig(f"{key}: invalid value {value!r}, needs {key} {_RANGES[kind][1]}")
    else:
        ok = isinstance(value, str) and (not isinstance(kind, tuple) or value in kind)
    if not ok:
        raise InvalidConfig(f"{key}: invalid value {value!r}")
    if kind in ("size", "sizes"):
        sizes = value if kind == "sizes" else (value,)
        if not sizes or min(sizes) < least:
            raise InvalidConfig(f"{key}: needs sizes >= {least}, got {list(sizes)}")
        if len(set(sizes)) < len(sizes):
            raise InvalidConfig(f"{key}: needs distinct sizes, got {list(sizes)}")
    elif callable(kind):
        try:
            kind(value)
        except (ValueError, ArithmeticError) as e:
            raise InvalidConfig(f"{key}: {e}") from None
    return value


def _atomic_law(text: str) -> AtomicLaw:
    """The law text names; InvalidConfig naming law unless it is atomic."""
    law = parse_law(text)
    if not isinstance(law, AtomicLaw):
        raise InvalidConfig(f"law: an atomic law is needed, got {text!r}")
    return law


class ExperimentConfig:
    """An experiment and the config values set for it (None: unset).  Each
    value is checked against the experiment's entry in EXPERIMENTS whatever
    its source: flags, a config file, a stored record or keywords."""

    def __init__(self, experiment: str, **values):
        spec = EXPERIMENTS.get(experiment)
        if spec is None:
            raise UnknownExperiment(f"unknown experiment {experiment!r}")
        unowned = sorted(set(values) - {*_COMMON, *spec.keys})
        if unowned:
            raise InvalidConfig(f"{', '.join(unowned)}: not a config key of {experiment}")
        self.experiment = experiment
        self.values = {k: _checked(k, v, spec.least.get(k, 1))
                       for k, v in values.items() if v is not None}


def resolve(config: ExperimentConfig) -> Dict[str, object]:
    """Canonical config dict: the values set and the common defaults in
    _KEYS order, then the experiment's other defaults in its table order."""
    values = {**_COMMON, **config.values}
    out: Dict[str, object] = {"experiment": config.experiment}
    out.update((k, values[k]) for k in _KEYS if values.get(k) is not None)
    for key, val in EXPERIMENTS[config.experiment].keys.items():
        if val is not None:
            out.setdefault(key, val)
    if config.experiment == "tail" and not {"c1", "c2", "c3"} <= out.keys():
        law = parse_law(out["law"])
        cert = auto_certificate(law)
        if cert is not None:
            out.setdefault("c1", float(cert.c1))
            out.setdefault("c2", float(cert.c2))
            out.setdefault("c3", float(cert.c3))
    return out


def config_hash(resolved: Dict[str, object]) -> str:
    payload = {k: v for k, v in resolved.items() if k not in _HASH_EXCLUDED}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=_jsonify)
    return hashlib.sha256(canon.encode()).hexdigest()


def _jsonify(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, (tuple, list)):
        return [_jsonify(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return str(x)


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    config: Dict[str, object]
    config_hash: str
    blas_threads: Optional[int]
    header: Tuple[str, ...]
    rows: Tuple[tuple, ...]
    summary: Dict[str, object]
    verdict: str
    wall_clock_s: float

    def write(self, out_base: str) -> None:
        """The rows as CSV, and the record as JSON with one row per line.
        Rows go through one C encoder made for the write and only the
        cells it cannot encode through _jsonify, so json.load gives what
        _jsonify of the rows gives."""
        with open(out_base + ".csv", "w") as fh:
            fh.write("\n".join([",".join(self.header),
                                *(",".join(map(_csv_cell, row)) for row in self.rows)]) + "\n")
        fields = {
            "experiment": self.experiment,
            "config": _jsonify(self.config),
            "config_hash": self.config_hash,
            "blas_threads": self.blas_threads,
            "header": list(self.header),
            "rows": None,       # written one per line below
            "summary": _jsonify(self.summary),
            "verdict": self.verdict,
            "wall_clock_s": self.wall_clock_s,
        }
        # JSONEncoder(default=_jsonify).encode's C encoder, which encode
        # remakes on every call
        encode = json.encoder.c_make_encoder({}, _jsonify, json.encoder.encode_basestring_ascii,
                                             None, ": ", ", ", False, False, True)
        rows = ",\n".join(["".join(encode(row, 0)) for row in self.rows])
        with open(out_base + ".json", "w") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(key)}: " + (f"[\n{rows}\n]" if key == "rows" else json.dumps(val))
                for key, val in fields.items()) + "\n}\n")


def _csv_cell(x) -> str:
    # str of a float is its repr since Python 3.2; of a numpy scalar, its
    # value.  A type test, as Fraction's metaclass is ABCMeta, whose
    # isinstance check every int and float cell would pay
    if type(x) is Fraction:
        return f"{x.numerator}/{x.denominator}"
    return str(x)


def _worst(verdicts: Sequence[str]) -> str:
    order = {"fail": 0, "inconclusive": 1, "pass": 2}
    return min(verdicts, key=lambda v: order[v]) if verdicts else "pass"


def _parallel(fn, items: Sequence, workers: int) -> List:
    """Deterministic map: results in item order regardless of workers."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    # under fork, the pool starts all its processes at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        return list(pool.map(fn, items, chunksize=1))


# ---------------------------------------------------------------------------
# per-experiment runners (worker functions are module-level: picklable)


def _w_trials(args) -> List[tuple]:
    trial, law_lit, n, seed, t0, t1, kw = args
    return trial(law=parse_law(law_lit), n=n, seed=seed, trials=range(t0, t1), **kw)


def _spectra(cfg: Dict[str, object]) -> Dict[str, object]:
    """keyed_spectra's settings in a run: BLAS pinned to one thread or
    not, and the usable cores shared among the processes computing rows."""
    return {"lanes": max(1, usable_cores() // cfg["workers"]), "pin_blas": cfg["pin_blas"]}


def _trial_rows(trial, cfg: Dict[str, object], **kw) -> List[tuple]:
    """Rows trial(law, n, seed, trials, **kw) for the one n, or n by n in
    n_list order: one block of trials per n, cut into one contiguous block
    per worker; each trial's rows depend on its own key only."""
    n_list = cfg["n_list"] if "n_list" in cfg else (cfg["n"],)
    per = -(-cfg["trials"] // cfg["workers"])
    items = [(trial, cfg["law"], n, cfg["seed"], t0, t1, kw) for n in n_list
             for _, t0, t1 in chunk_bounds(cfg["trials"], per)]
    chunks = _parallel(_w_trials, items, cfg["workers"])
    return [row for chunk in chunks for row in chunk]


def _run_tail(cfg: Dict[str, object]):
    """Per n the hits and frequencies (Wilson intervals) of {sigma_n <= n^-A}
    and {kappa >= n^A}, the seed repeats and the sigma_n verdict; then the
    log-log slope of the positive sigma_n frequencies."""
    law = parse_law(cfg["law"])
    cert = SpacingCertificate(cfg["c1"], cfg["c2"], cfg["c3"]) \
        if {"c1", "c2", "c3"} <= cfg.keys() else None
    if cert is None or not verify_spacing(law, cert):
        raise SpacingUnverified("no spacing certificate passes for this law")
    rows = _trial_rows(tail_trial, cfg, F=None, **_spectra(cfg))
    trials, a_exp = cfg["trials"], float(cfg["a_exp"])
    per_n: Dict[int, dict] = {}
    for i, n in enumerate(cfg["n_list"]):
        block = rows[i * trials:(i + 1) * trials]
        thr_sigma, thr_kappa = float(n) ** -a_exp, float(n) ** a_exp
        hits_s = sum(1 for r in block if r[2] <= thr_sigma)
        hits_k = sum(1 for r in block if r[3] >= thr_kappa)
        per_n[n] = {
            "hits_sigma": hits_s, "freq_sigma": hits_s / trials,
            "ci_sigma": wilson_interval(hits_s, trials),
            "hits_kappa": hits_k, "freq_kappa": hits_k / trials,
            "ci_kappa": wilson_interval(hits_k, trials),
            "seed_repeats": seed_repeats(cfg["seed"], n, trials),
            "verdict": bound_verdict(hits_s, trials, cfg["freq_bound"]),
        }
    hit = [n for n, stats in per_n.items() if stats["hits_sigma"]]
    summary = {"per_n": per_n,
               "loglog_slope": loglog_slope(hit, [per_n[n]["freq_sigma"] for n in hit])}
    return (("n", "trial", "sigma_n", "kappa"), rows, summary,
            _worst([stats["verdict"] for stats in per_n.values()]))


def _run_detconc(cfg: Dict[str, object]):
    """Per n the std and mean of the kept sum, its ratio to n^(1/3) log n,
    the hits and frequency (Wilson interval) of centered deviations >=
    2 log n / eps, none at n = 1, with their verdict, and the seed
    repeats; then the ratio spread and the envelope rule's shape verdict."""
    _atomic_law(cfg["law"])
    rows = _trial_rows(detconc_trial, cfg, epsilon=cfg.get("epsilon"), **_spectra(cfg))
    n_list, trials = cfg["n_list"], cfg["trials"]
    per_n: Dict[int, dict] = {}
    for i, n in enumerate(n_list):
        kept = np.array([r[4] for r in rows[i * trials:(i + 1) * trials]])
        eps = cutoff_epsilon(n, cfg.get("epsilon"))
        std, mean = float(kept.std(ddof=1)), float(kept.mean())
        thr = 2.0 * math.log(n) / eps
        hits = int(np.sum(np.abs(kept - mean) >= thr)) if n > 1 else 0
        per_n[n] = {
            "epsilon": eps, "std_kept": std, "ratio": std / envelope_norm(n),
            "dev_threshold": thr, "dev_hits": hits, "dev_freq": hits / trials,
            "dev_ci": wilson_interval(hits, trials), "mean_kept": mean,
            "seed_repeats": seed_repeats(cfg["seed"], n, trials),
            "dev_verdict": bound_verdict(hits, trials, cfg["dev_bound"]),
        }
    # max/min of the ratios, kept as a summary: n^(1/3) log n is an envelope,
    # not a predicted growth rate, so a falling ratio is no fault.  The rule
    # is envelope_rule, whose spread_bound caps the ratio's rise towards
    # larger n; a single n carries no shape evidence, a zero std fails it
    ratios = [stats["ratio"] for stats in per_n.values()]
    shape = envelope_rule(n_list, [stats["std_kept"] for stats in per_n.values()],
                          cfg["spread_bound"])
    shape_verdict = "inconclusive" if len(n_list) < 2 else "pass" if shape.ok else "fail"
    summary = {
        "per_n": per_n,
        "ratio_spread": max(ratios) / min(ratios) if min(ratios) > 0 else math.inf,
        "spread_bound": cfg["spread_bound"], "max_rise": shape.max_rise,
        "fitted_exponent": shape.fitted_exponent, "shape_verdict": shape_verdict,
    }
    header = ("n", "trial", "seed", "log_abs_det", "kept_sum",
              "dropped_count", "sigma_n", "kappa")
    verdicts = [stats["dev_verdict"] for stats in per_n.values()] + [shape_verdict]
    return header, rows, summary, _worst(verdicts)


def _decoupling_trial(law: AtomicLaw, n: int, seed: int, trials: Iterable[int],
                      beta) -> List[tuple]:
    """Decoupling rows (t, rho_quad, lhs, constant or -1, rhs, holds), trial
    t's form (entries in {-3..3}/4) and bipartition from substream(seed, t),
    the range keyed and checked in stacks of _DECOUPLING_STACK trials."""
    def draw(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        mat = np.zeros((n, n))
        while not np.any(mat):          # redrawn until an entry is off the diagonal
            mat = np.triu(rng.integers(-3, 4, size=(n, n)), 1)
            mat = mat + mat.T
        return mat, rng.random(n) < 0.5

    trials = list(trials)
    quarter = {k: Fraction(k, 4) for k in range(-3, 4)}
    rows = []
    for _, start, stop in chunk_bounds(len(trials), _DECOUPLING_STACK):
        stack = trials[start:stop]
        draws = substream(seed, stack).map(draw)
        forms = [QuadraticForm(tuple(tuple(quarter[int(x)] for x in row) for row in mat))
                 for mat, _ in draws]
        us = [Bipartition(tuple(bool(b) for b in side)) for _, side in draws]
        consts, checks = decoupling_scan(forms, law, beta, us)
        rows += [(t, float(chks[-1].rho_quad), chks[-1].lhs, const if const is not None else -1.0,
                  float(chks[-1].rhs), const is not None)
                 for t, const, chks in zip(stack, consts, checks)]
    return rows


def _run_decoupling(cfg: Dict[str, object]):
    _atomic_law(cfg["law"])
    rows = _trial_rows(_decoupling_trial, cfg, beta=cfg["beta"])
    header = ("trial", "rho_quad", "lhs", "radius_constant", "rhs", "holds")
    ok = all(r[5] for r in rows)
    summary = {
        "holds_all": ok,
        "max_constant_needed": max((r[3] for r in rows), default=0),
    }
    return header, rows, summary, "pass" if ok else "fail"


def _run_gapreduce(cfg: Dict[str, object]):
    if "gap" not in cfg or "values" not in cfg:
        raise InvalidConfig("gap, values: both required for gapreduce")
    q = parse_gap(cfg["gap"])
    vals = _fractions(cfg["values"])
    red = rank_reduce(q, vals)
    rows = []
    ok = True
    for v, w in zip(vals, red.witnesses):
        contained = beta_close(red.gap, v, 0) is not None
        ok = ok and contained
        rows.append((f"{v.numerator}/{v.denominator}", json.dumps(list(w)), contained))
    ok = ok and red.gap.rank <= q.rank and spans(red.gap, red.witnesses)
    header = ("value", "witness", "contained")
    summary = {
        "input_gap": format_gap(q),
        "output_gap": format_gap(red.gap),
        "rank": red.gap.rank,
        "inflation": red.inflation,
        "steps": len(red.steps),
    }
    return header, rows, summary, "pass" if ok else "fail"


def _rankgrow_trial(law: AtomicLaw, n: int, seed: int, trials: Iterable[int]) -> List[tuple]:
    """Rank growth rows (t, step, size, new_rank, jumped_by_2): trial t
    borders the n x n zero matrix n - 1 times, keyed key_seed(seed, t)."""
    trials = list(trials)
    runs = grow_and_track([[0] * n] * n, law, n - 1, seeds=key_seed(seed, trials))
    return [(t, i + 1, st.size, st.new_rank, st.jumped_by_2)
            for t, steps in zip(trials, runs) for i, st in enumerate(steps)]


def _run_rankgrow(cfg: Dict[str, object]):
    cert = auto_certificate(_atomic_law(cfg["law"]))
    if cert is None:
        raise InvalidConfig("law: needs a spacing certificate for the growth bound")
    n, trials = cfg["n"], cfg["trials"]
    rows = _trial_rows(_rankgrow_trial, cfg)
    header = ("trial", "step", "size", "new_rank", "jumped_by_2")
    jump1 = sum(1 for r in rows if r[1] == 1 and r[4])
    target_rank = 2 * n - 2
    chain = sum(1 for r in rows if r[2] == 2 * n - 1 and r[3] == target_rank)
    bound1 = 1 - math.sqrt(1 - float(cert.c3)) ** n
    # both claim a frequency of at least a bound: the misses are at most 1 - it
    v1 = bound_verdict(trials - jump1, trials, 1 - bound1)
    v2 = bound_verdict(trials - chain, trials, 0.5)
    summary = {
        "jump1_freq": jump1 / trials, "jump1_ci": wilson_interval(jump1, trials),
        "jump1_bound": bound1, "chain_freq": chain / trials,
        "chain_ci": wilson_interval(chain, trials), "chain_target_rank": target_rank,
        "verdict_jump1": v1, "verdict_chain": v2,
    }
    return header, rows, summary, _worst([v1, v2])


def _w_odlyzko(args) -> List[MembershipResult]:
    law_lit, n, k0, k1, trials, seed, c3 = args
    ks = range(k0, k1)
    return subspace_membership_mc(parse_law(law_lit), n, ks, trials, key_seed(seed, n, ks),
                                  c3=c3)


def _run_odlyzko(cfg: Dict[str, object]):
    """Rows (n, k) for k = 1 .. n - 1, n by n in n_list order: each n's k's
    cut into one contiguous block per worker; each row depends on the key
    (seed, n, k) only."""
    check_atom_bound(_atomic_law(cfg["law"]), cfg["c3"])     # before any worker starts
    items = [(cfg["law"], n, 1 + k0, 1 + k1, cfg["trials"], cfg["seed"], cfg["c3"])
             for n in cfg["n_list"]
             for _, k0, k1 in chunk_bounds(n - 1, -(-(n - 1) // cfg["workers"]))]
    results = [r for block in _parallel(_w_odlyzko, items, cfg["workers"]) for r in block]
    header = ("n", "k", "freq", "se", "bound")
    rows = [(r.n, r.k, r.freq, r.se, r.bound) for r in results]
    per_row = [{"n": r.n, "k": r.k, "freq": r.freq, "hits": r.hits,
                "ci": wilson_interval(r.hits, r.trials),
                "verdict": bound_verdict(r.hits, r.trials, r.bound)} for r in results]
    return header, rows, {"per_row": per_row}, _worst([r["verdict"] for r in per_row])


def _read_coeffs(path: Optional[str], kind: str, n: int):
    if path is None:
        if kind == "linear":
            return [Fraction(1)] * n
        return [[Fraction(1, 2) if i != j else Fraction(0) for j in range(2)]
                for i in range(2)]
    rows = read_matrix_exact(path)
    if kind == "linear":
        return [x for row in rows for x in row]
    return rows


def _run_smallball(cfg: Dict[str, object]):
    kind = cfg["form"]
    method = cfg["method"]
    law = (_atomic_law if method == "exact" else parse_law)(cfg["law"])
    beta, trials, seed = cfg["beta"], cfg["trials"], cfg["seed"]
    coeffs = _read_coeffs(cfg.get("coeffs"), kind, cfg["n"])
    if kind == "linear":
        form = LinearForm(tuple(coeffs))
        est = linear_small_ball_exact(form, law, beta) if method == "exact" \
            else linear_small_ball_mc(form, law, beta, trials, seed)
    elif kind == "quadratic":
        form = QuadraticForm(tuple(tuple(r) for r in coeffs))
        est = quadratic_small_ball_exact(form, law, beta) if method == "exact" \
            else quadratic_small_ball_mc(form, law, beta, trials, seed)
    else:
        form = QuadraticForm(tuple(tuple(r) for r in coeffs))
        est = bilinear_small_ball(form, law, law, beta, method=method,
                                  trials=trials, seed=seed)
    header = ("form", "method", "rho", "beta", "ci", "witness_center")
    rows = [(kind, est.method, est.rho, est.beta, est.ci_halfwidth, est.witness_center)]
    summary = {
        "rho": est.rho, "beta": est.beta, "method": est.method,
        "ci": est.ci_halfwidth, "witness_center": est.witness_center,
    }
    return header, rows, summary, "pass"


@dataclass(frozen=True)
class Experiment:
    """An experiment's runner, the keys it takes besides _COMMON with their
    defaults (None: unset until given) in the order the defaults join a
    resolved config, and the least value of a size key where it is above 1."""
    runner: Callable[[Dict[str, object]], tuple]
    keys: Dict[str, object]
    least: Dict[str, int] = field(default_factory=dict)


# decoupling needs an off-diagonal entry, rankgrow a step, odlyzko a k in 1..n-1
EXPERIMENTS: Dict[str, Experiment] = {
    "smallball": Experiment(_run_smallball, {"form": "linear", "method": "exact", "beta": 0.0,
                                             "n": 10, "trials": 100000, "coeffs": None}),
    "tail": Experiment(_run_tail, {"n_list": (20, 40), "a_exp": 3.0, "freq_bound": 0.01,
                                   "trials": 200, "c1": None, "c2": None, "c3": None}),
    "detconc": Experiment(_run_detconc, {"n_list": (20, 40, 80), "trials": 60,
                                         "spread_bound": 1.5, "dev_bound": 0.05,
                                         "epsilon": None}, {"trials": 30}),
    "decoupling": Experiment(_run_decoupling, {"n": 4, "beta": 0.1, "trials": 25}, {"n": 2}),
    "gapreduce": Experiment(_run_gapreduce, {"trials": 1, "gap": None, "values": None}),
    "rankgrow": Experiment(_run_rankgrow, {"n": 4, "trials": 2000}, {"n": 2}),
    "odlyzko": Experiment(_run_odlyzko, {"n_list": (8, 12), "c3": 0.5, "trials": 20000},
                          {"n_list": 2}),
}


def run(config: ExperimentConfig, pin_blas: bool = True) -> ResultRecord:
    """Dispatch to the named experiment; write CSV + JSON; return the record.
    pin_blas: eigenvalues are computed with BLAS at one thread, since from
    n = 208 up they depend on the thread count (otherwise at the count the
    process has, in one lane).  The record keeps the count, 1, when the pin
    took effect, and None when it did not (no bundled OpenBLAS to pin)."""
    resolved = resolve(config)
    pin_blas = pin_blas and blas_pinnable()
    t0 = time.monotonic()
    runner = EXPERIMENTS[config.experiment].runner
    header, rows, summary, verdict = runner({**resolved, "pin_blas": pin_blas})
    wall = time.monotonic() - t0
    rec = ResultRecord(
        experiment=config.experiment,
        config={k: v for k, v in resolved.items() if k not in _HASH_EXCLUDED},
        config_hash=config_hash(resolved),
        blas_threads=1 if pin_blas else None,
        header=tuple(header),
        rows=tuple(tuple(r) for r in rows),
        summary=summary,
        verdict=verdict,
        wall_clock_s=wall,
    )
    out_base = resolved.get("out") or f"randsym_{config.experiment}"
    rec.write(str(out_base))
    return rec


def replay(record_path: str, workers: Optional[int] = None) -> ResultRecord:
    """Re-run a stored record's config at its BLAS thread count and demand
    bit-identical rows.  A record with none (made before the count was
    kept, or where it could not be pinned) runs at the process's own count
    in one lane, as it was made; 1 is the only count a record is made at."""
    with open(record_path) as fh:
        stored = json.load(fh)
    threads = stored.get("blas_threads")
    if threads is not None and not (_is_int(threads) and threads == 1):
        raise InvalidConfig(f"blas_threads: invalid value {threads!r}, needs 1 or null")
    rec = run(ExperimentConfig(**{**stored["config"], "out": record_path + ".replay",
                                  "workers": workers or 1}), pin_blas=threads == 1)
    old_rows = stored["rows"]
    new_rows = _jsonify([list(r) for r in rec.rows])
    if len(old_rows) != len(new_rows):
        raise ReplayMismatch(f"row count changed: {len(old_rows)} -> {len(new_rows)}")
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        if a != b:
            raise ReplayMismatch(f"first differing row {i}: {a} != {b}")
    return rec


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidConfig(message)


def _add_keys(parser: _Parser, keys) -> _Parser:
    """One flag per config key (--n-list sets n_list), read as text."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), dest=key, default=None,
                            type=functools.partial(_from_text, key))
    return parser


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argument tree, built once per process: parse_args keeps no state
    between calls, so every main() call can share it."""
    p = _Parser(prog="randsym", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="experiment", required=True)
    # the experiments share the common flags' actions, as parents
    common = _add_keys(_Parser(add_help=False), _COMMON)
    common.add_argument("--config", type=str, default=None)
    for name, spec in EXPERIMENTS.items():
        _add_keys(sub.add_parser(name, parents=[common]), spec.keys)

    rpl = _add_keys(sub.add_parser("replay"), ["workers"])
    rpl.add_argument("record", type=str)

    en = sub.add_parser("ensemble")
    en.add_argument("action", choices=("sample", "spectrum", "rank", "grow"))
    en.add_argument("--F", dest="fixed", type=str, default=None)
    _add_keys(en, ("law", "n", "seed", "trials", "out")).set_defaults(
        law="bernoulli", n=4, seed=1, trials=1)
    return p


def _run_ensemble_action(args) -> int:
    """Matrix utilities: sample | spectrum | rank | grow."""
    for key in ("law", "n", "seed", "trials"):
        # grow borders n - 1 times, as rankgrow does
        _checked(key, getattr(args, key), 2 if (key, args.action) == ("n", "grow") else 1)
    law = (_atomic_law if args.action in ("rank", "grow") else parse_law)(args.law)
    if args.action == "grow":
        if args.fixed:
            raise InvalidConfig("F: grow borders the zero matrix and takes no fixed part")
        rows = _rankgrow_trial(law, args.n, args.seed, range(args.trials))
        for t, steps in itertools.groupby(rows, key=lambda row: row[0]):
            print(f"trial {t}: " + " ".join(f"{row[2]}:{row[3]}" for row in steps))
        return 0
    fixed = read_matrix_exact(args.fixed) if args.fixed else None
    if args.action == "rank":       # only rank reads the exact matrix
        for t in range(args.trials):
            rows = exact_sample(law, fixed, args.n, key_seed(args.seed, t))
            print(f"trial {t}: rank {exact_rank(rows)}")
        return 0
    stack = sample_symmetric(law, fixed, args.n, seed=key_seed(args.seed, range(args.trials)))
    for t, mat in enumerate(stack):
        if args.action == "sample":
            if args.out:
                write_matrix_text(mat, f"{args.out}.{t}.txt" if args.trials > 1
                                  else args.out + ".txt")
            else:
                for row in mat:
                    print(" ".join(repr(float(x)) for x in row))
        else:
            summ = spectral_summary(mat)
            print(json.dumps({
                "trial": t, "sigma_1": summ.sigma_1, "sigma_n": summ.sigma_n,
                "kappa": summ.kappa, "log_abs_det": summ.log_abs_det,
                "eigenvalues": [float(x) for x in summ.eigenvalues],
            }))
    return 0


def _load_config_file(path: str) -> Dict[str, object]:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out: Dict[str, object] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        out[key.strip()] = _from_text(key.strip(), val.strip())
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.experiment == "replay":
            rec = replay(args.record, workers=args.workers)
            print(f"replay ok: {len(rec.rows)} rows identical "
                  f"(config {rec.config_hash[:12]})")
            return 0
        if args.experiment == "ensemble":
            return _run_ensemble_action(args)
        base = _load_config_file(args.config) if args.config else {}
        base.update((k, v) for k, v in vars(args).items() if k != "config" and v is not None)
        rec = run(ExperimentConfig(**base))
        print(f"{rec.experiment}: verdict={rec.verdict} rows={len(rec.rows)} "
              f"hash={rec.config_hash[:12]} wall={rec.wall_clock_s:.2f}s")
        for key, val in rec.summary.items():
            print(f"  {key}: {_jsonify(val)}")
        return {"pass": 0, "fail": 2, "inconclusive": 3}[rec.verdict]
    except (InvalidConfig, UnknownExperiment) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ReplayMismatch as e:
        print(f"replay mismatch: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - surfaced, not masked
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
