"""Workloads of the randsym benchmark: op kinds, their inputs and checks.

An op is one experiment call made in the benchmark process: either
``randsym.cli.main(argv)`` with stdout captured, or a library call for
exact-determinant work that no CLI command reaches.  Each op kind has a
pool of ``SLOTS`` inputs; the k-th op of a kind uses slot ``k % SLOTS``,
whose op seed and input file derive from the slot's seed (``slot_seed``).
Repeating a slot therefore repeats the op exactly, so every repeat must
reproduce the slot's row digest bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import zlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

import numpy as np

DEFAULT_SEED = 1
SLOTS = 8
GAP = "gap{g0=0; g=[1,100,10000]; K=[-20,-20,-20]; K'=[20,20,20]}"

# exit codes of randsym.cli.main
PASS, ERROR, FAIL, INCONCLUSIVE = 0, 1, 2, 3


@dataclass(frozen=True)
class OpKind:
    """One experiment call; ``key`` names it in metrics and references and
    keys its op seeds, so two workloads sharing a key run the same ops."""

    key: str
    argv: Tuple[str, ...] = ()
    # library op: call(program, input) -> (exit code, text whose digest is checked)
    call: Optional[Callable] = None
    # make_input(rng, path) -> input of the op (a file path for CLI ops)
    make_input: Optional[Callable] = None
    verdicts: FrozenSet[int] = frozenset({PASS})

    @property
    def writes_record(self) -> bool:
        return bool(self.argv) and self.argv[0] != "ensemble"


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: Tuple[OpKind, ...]
    rotation: Tuple[str, ...]          # op kind keys in run order
    # rerun each kind with this --workers value after timing; rows must not change
    parallel_workers: Optional[str] = None

    def kind(self, key: str) -> OpKind:
        return next(k for k in self.kinds if k.key == key)


def slot_seed(seed: int, slot: int) -> int:
    """The workload seed keys the first half of the slots and DEFAULT_SEED the
    rest, so every run also replays ops whose rows are in reference.json."""
    return seed if slot < SLOTS // 2 else DEFAULT_SEED


def op_seed(seed: int, key: str, slot: int) -> int:
    key_seq = [slot_seed(seed, slot), zlib.crc32(key.encode()), slot]
    return int(np.random.SeedSequence(key_seq).generate_state(1)[0])


def input_rng(seed: int, key: str, slot: int) -> np.random.Generator:
    return np.random.default_rng([slot_seed(seed, slot), zlib.crc32(key.encode()), slot, 1])


# ---------------------------------------------------------------------------
# inputs


def _write_rows(path: str, rows) -> str:
    with open(path, "w") as fh:
        for row in rows:
            fh.write(" ".join(str(int(x)) for x in row) + "\n")
    return path


def _coeffs(n: int):
    """Integer coefficients 1..99 on one line (a linear form)."""
    return lambda rng, path: _write_rows(path, [rng.integers(1, 100, n)])


def _symmetric_int(n: int, lo: int, hi: int, rng) -> np.ndarray:
    while True:
        upper = np.triu(rng.integers(lo, hi + 1, (n, n)))
        mat = upper + np.triu(upper, 1).T
        if np.any(mat):
            return mat


def _form_matrix(n: int):
    """Symmetric integer matrix with entries in -3..3 (a quadratic or bilinear form)."""
    return lambda rng, path: _write_rows(path, _symmetric_int(n, -3, 3, rng))


def _sign_matrix(n: int):
    """Symmetric +-1 rows (a keyed Bernoulli sample) kept in memory."""
    return lambda rng, path: (2 * _symmetric_int(n, 0, 1, rng) - 1).tolist()


# ---------------------------------------------------------------------------
# library ops


def _exact_det(program, rows) -> Tuple[int, str]:
    return PASS, str(program.ensembles.exact_det(rows))


def _cofactor_check(program, rows) -> Tuple[int, str]:
    res = program.ensembles.cofactor_expansion_check(rows)
    return (PASS if res.equal else FAIL), f"{res.lhs} {res.rhs} {res.equal}"


def _det_mod(rows, p: int) -> int:
    """Determinant modulo a prime p < 2**31 by int64 elimination."""
    a = np.asarray(rows, dtype=np.int64) % p
    n = len(a)
    det = 1
    for k in range(n):
        nonzero = np.flatnonzero(a[k:, k])
        if not len(nonzero):
            return 0
        piv = k + int(nonzero[0])
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            det = -det
        det = det * int(a[k, k]) % p
        f = a[k + 1:, k] * pow(int(a[k, k]), p - 2, p) % p
        a[k + 1:, k:] = (a[k + 1:, k:] - f[:, None] * a[k, k:] % p) % p
    return det % p


def check_library_output(key: str, rows, text: str) -> bool:
    """Check a library op's exact answer by an independent method."""
    if key == "exact-det":
        p = 2 ** 31 - 1
        return int(text) % p == _det_mod(rows, p)
    if key == "cofactor-check":
        lhs, rhs, equal = text.split()
        det = round(np.linalg.det(np.asarray(rows, dtype=np.float64)))
        return equal == "True" and lhs == rhs and int(lhs) == det
    return True


# ---------------------------------------------------------------------------
# the workloads


# Why each workload exists is in BENCHMARK.json.  Rotations are weighted so
# that the median and the 90th percentile fall inside one kind's latency
# band, not on the edge between two bands where they would jump from run to
# run; in the exact workloads the median is the middle of one band and the
# 90th percentile the middle of the slowest kind's band (a fifth of the ops).
# The bands, fastest first, are in the comment above each rotation.

_SMALLBALL = ("smallball", "--method", "exact", "--form")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mc-serial",
        (
            # With 200 trials (50 at n = 200) the Wilson interval of a near-zero
            # sigma_n frequency always contains the 0.01 bound, so tail is
            # inconclusive; detconc's ratio spread is the criterion-10 red.
            OpKind("tail", ("tail", "--workers", "1"), verdicts=frozenset({INCONCLUSIVE})),
            OpKind("detconc", ("detconc", "--workers", "1"),
                   verdicts=frozenset({FAIL, INCONCLUSIVE})),
            OpKind("tail-n200", ("tail", "--n-list", "200", "--trials", "50", "--workers", "1"),
                   verdicts=frozenset({INCONCLUSIVE})),
        ),
        # detconc | tail | tail-n200 x3.  Both percentiles fall in the
        # LAPACK-bound tail-n200 band, whose latency is steady from one process
        # to the next; the Python-bound small-n ops vary by a quarter across
        # processes on a 2-core host.  Their medians are op.<kind>.p50_ms.
        ("tail-n200", "tail", "tail-n200", "detconc", "tail-n200"),
        parallel_workers="2"),
    Workload(
        "exact-rank",
        (
            OpKind("rankgrow", ("rankgrow", "--n", "8", "--trials", "200")),
            OpKind("odlyzko", ("odlyzko",)),
            OpKind("ensemble-rank", ("ensemble", "rank", "--n", "64", "--trials", "2")),
            OpKind("ensemble-spectrum",
                   ("ensemble", "spectrum", "--n", "48", "--trials", "4")),
            OpKind("exact-det", call=_exact_det, make_input=_sign_matrix(64)),
            OpKind("cofactor-check", call=_cofactor_check, make_input=_sign_matrix(10)),
        ),
        # cofactor-check x2 | exact-det | ensemble-spectrum | ensemble-rank x2
        # | odlyzko x2 | rankgrow x2
        ("cofactor-check", "rankgrow", "ensemble-rank", "odlyzko", "exact-det",
         "cofactor-check", "rankgrow", "ensemble-rank", "odlyzko", "ensemble-spectrum")),
    Workload(
        "exact-smallball",
        (
            # 48 coefficients stay on the int64 lattice; 120 pass 2**61 and
            # take the Python-dict path
            OpKind("linear-48", _SMALLBALL + ("linear",), make_input=_coeffs(48)),
            OpKind("linear-120", _SMALLBALL + ("linear",), make_input=_coeffs(120)),
            OpKind("quadratic-16", _SMALLBALL + ("quadratic",),
                   make_input=_form_matrix(16)),
            OpKind("bilinear-8", _SMALLBALL + ("bilinear",), make_input=_form_matrix(8)),
            OpKind("decoupling", ("decoupling", "--n", "5")),
            OpKind("gapreduce", ("gapreduce", "--gap", GAP, "--values", "101,202")),
        ),
        # linear-48 x2, bilinear-8 | gapreduce | quadratic-16 x2 | decoupling x2
        # | linear-120 x2
        ("linear-48", "linear-120", "quadratic-16", "decoupling", "bilinear-8",
         "linear-48", "linear-120", "quadratic-16", "decoupling", "gapreduce")),
)}


# ---------------------------------------------------------------------------
# running one op


@dataclass
class OpResult:
    key: str
    slot: int
    latency_s: float
    code: int
    output: Optional[str]   # record path, captured stdout or library text
    error: str = ""


def make_inputs(workload: Workload, seed: int, workdir: str) -> Dict[str, list]:
    """Inputs of every slot of every kind, written under workdir."""
    inputs: Dict[str, list] = {}
    for kind in workload.kinds:
        inputs[kind.key] = [
            kind.make_input(input_rng(seed, kind.key, slot),
                            os.path.join(workdir, f"{kind.key}.{slot}.txt"))
            if kind.make_input else None
            for slot in range(SLOTS)]
    return inputs


def with_workers(kind: OpKind, workers: str) -> OpKind:
    i = kind.argv.index("--workers")
    return replace(kind, argv=kind.argv[:i + 1] + (workers,) + kind.argv[i + 2:])


def cli_argv(kind: OpKind, seed: int, inp, out_base: str) -> List[str]:
    argv = list(kind.argv)
    if inp is not None:
        argv += ["--coeffs", inp]
    argv += ["--seed", str(seed)]
    if kind.writes_record:
        argv += ["--out", out_base]
    return argv


def run_op(program, kind: OpKind, seed: int, inp,
           out_base: str) -> Tuple[float, int, Optional[str], str]:
    """(latency s, exit code, output, error text) of one op."""
    if kind.call is not None:
        t0 = time.perf_counter()
        try:
            code, text = kind.call(program, inp)
        except Exception as e:  # an op failure is counted, not fatal
            return time.perf_counter() - t0, ERROR, None, f"{type(e).__name__}: {e}"
        return time.perf_counter() - t0, code, text, ""
    argv = cli_argv(kind, seed, inp, out_base)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = program.cli.main(argv)
    latency = time.perf_counter() - t0
    output = out_base if kind.writes_record else out.getvalue()
    return latency, code, output, err.getvalue().strip()


def row_digest(kind: OpKind, output: Optional[str]) -> Optional[str]:
    """SHA-256 of an op's rows: the record's rows, or the printed rows."""
    if output is None:
        return None
    if kind.writes_record:
        try:
            with open(output + ".json") as fh:
                rows = json.load(fh)["rows"]
        except (OSError, ValueError, KeyError):
            return None
        for ext in (".json", ".csv"):
            with contextlib.suppress(OSError):
                os.remove(output + ext)
        output = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(output.encode()).hexdigest()
