import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from randsym.cli import (ExperimentConfig, InvalidConfig, ReplayMismatch, ResultRecord,
                         UnknownExperiment, _csv_cell, _jsonify, config_hash, main, replay,
                         resolve, run)
from randsym.detconc import wilson_interval
from randsym.ensembles import blas_pinnable


def cfg(tmp_path, **kw):
    kw.setdefault("out", str(tmp_path / kw["experiment"]))
    return ExperimentConfig(**kw)


class TestRunRecords:
    def test_tail_deterministic_rerun(self, tmp_path):
        c = cfg(tmp_path, experiment="tail", n_list=(8, 12), trials=40, seed=7)
        r1 = run(c)
        r2 = run(ExperimentConfig(experiment="tail", n_list=(8, 12), trials=40,
                                  seed=7, out=str(tmp_path / "again")))
        assert r1.rows == r2.rows
        assert r1.config_hash == r2.config_hash
        assert len(r1.rows) == 80

    def test_worker_count_invariance(self, tmp_path):
        base = dict(experiment="detconc", n_list=(8, 12), trials=32, seed=3)
        r1 = run(cfg(tmp_path, **base, workers=1))
        r2 = run(ExperimentConfig(**base, workers=3, out=str(tmp_path / "w3")))
        assert r1.rows == r2.rows
        csv1 = (tmp_path / "detconc.csv").read_bytes()
        csv2 = (tmp_path / "w3.csv").read_bytes()
        assert csv1 == csv2

    def test_detconc_shape_verdicts(self, tmp_path):
        # n = 1 has a zero std: no exponent, and the shape rule fails
        rec = run(cfg(tmp_path, experiment="detconc", n_list=(1, 4), trials=30, seed=2))
        assert rec.summary["fitted_exponent"] is None
        assert rec.summary["shape_verdict"] == "fail" and rec.verdict == "fail"
        # a single n carries no shape evidence (a repeated n is refused)
        rec = run(cfg(tmp_path, experiment="detconc", n_list=(6,), trials=30, seed=2))
        assert rec.summary["shape_verdict"] == "inconclusive"

    def test_detconc_no_deviation_at_n1(self, tmp_path):
        # the threshold 2 log 1 / eps is 0 at n = 1: no trial counts as a deviation
        rec = run(cfg(tmp_path, experiment="detconc", n_list=(1, 4), trials=30, seed=2))
        stats = rec.summary["per_n"][1]
        assert stats["dev_hits"] == 0 and stats["dev_freq"] == 0.0

    def test_gapreduce_worked_instance(self, tmp_path):
        c = cfg(tmp_path, experiment="gapreduce",
                gap="gap{g0=0; g=[1,10]; K=[-2,-2]; K'=[2,2]}", values="11,22")
        rec = run(c)
        assert rec.verdict == "pass"
        assert rec.summary["output_gap"] == "gap{g0=0; g=[11]; K=[-2]; K'=[2]}"

    def test_unknown_experiment(self):
        with pytest.raises(UnknownExperiment):
            ExperimentConfig(experiment="frobnicate")

    def test_outputs_written(self, tmp_path):
        c = cfg(tmp_path, experiment="smallball", form="linear", n=6, beta=0.0)
        rec = run(c)
        assert os.path.exists(str(tmp_path / "smallball") + ".csv")
        data = json.loads((tmp_path / "smallball.json").read_text())
        assert data["config_hash"] == rec.config_hash
        assert data["summary"]["rho"] == "5/16"

    def test_smallball_coeffs_file(self, tmp_path):
        from fractions import Fraction
        path = tmp_path / "coeffs.txt"
        path.write_text("0 1/2\n1/2 0\n")
        c = cfg(tmp_path, experiment="smallball", form="bilinear",
                coeffs=str(path), beta=0.0)
        rec = run(c)
        assert rec.summary["rho"] == Fraction(1, 2)


class TestRecordFormat:
    ROWS = ((0, F(1, 3), np.int64(-7), np.float64(0.1), np.bool_(True), ("a", (1, F(-2, 5)))),
            (1, F(0), np.int64(2 ** 62), np.float64(-2.5e-300), np.bool_(False), ()),
            (2, None, -3, float("inf"), True, [np.float64(1 / 3), [np.int64(0)]]))

    def record(self, rows):
        return ResultRecord(experiment="smallball", config={"n": 2, "beta": F(1, 2)},
                            config_hash="0" * 64, blas_threads=1, header=tuple("abcdef"),
                            rows=rows, summary={"rho": F(3, 8), "ok": np.bool_(True)},
                            verdict="pass", wall_clock_s=0.25)

    @pytest.mark.parametrize("rows", [ROWS, ()])
    def test_loads_as_jsonify_of_the_record(self, tmp_path, rows):
        rec = self.record(rows)
        rec.write(str(tmp_path / "r"))
        text = (tmp_path / "r.json").read_text()
        assert json.loads(text) == {
            "experiment": "smallball", "config": {"n": 2, "beta": "1/2"},
            "config_hash": "0" * 64, "blas_threads": 1, "header": list("abcdef"),
            "rows": _jsonify([list(r) for r in rows]),
            "summary": {"rho": "3/8", "ok": True}, "verdict": "pass",
            "wall_clock_s": 0.25}
        assert json.loads(text)["rows"] == json.loads(json.dumps(_jsonify(list(rows))))
        lines = text.splitlines()       # one row per line
        first = lines.index('"rows": [') + 1
        assert [json.loads(line.rstrip(",")) for line in lines[first:first + len(rows)]] \
            == _jsonify([list(r) for r in rows])
        # byte for byte the text of JSONEncoder.encode, one call per row
        encode = json.JSONEncoder(default=_jsonify).encode
        assert "\n".join(lines[first:first + len(rows)]) == ",\n".join(map(encode, rows))
        csv = "a,b,c,d,e,f\n" + "".join(",".join(_csv_cell(x) for x in r) + "\n" for r in rows)
        assert (tmp_path / "r.csv").read_text() == csv


    def test_numpy_scalars_written_as_values(self):
        # numpy 2's repr of a scalar names its type: np.float64(0.1)
        assert _csv_cell(np.float64(0.1)) == "0.1" == _csv_cell(0.1)
        assert _csv_cell(np.float64(-2.5e-300)) == repr(-2.5e-300)
        assert _csv_cell(np.bool_(True)) == "True" == _csv_cell(True)
        assert _jsonify(np.bool_(True)) is True and _jsonify(np.bool_(False)) is False
        assert json.dumps(_jsonify({"ok": np.bool_(True), "rows": [np.bool_(False)]})) \
            == '{"ok": true, "rows": [false]}'


class TestConfigHash:
    def test_key_order_irrelevant(self):
        a = {"experiment": "tail", "seed": 1, "trials": 10}
        b = {"trials": 10, "experiment": "tail", "seed": 1}
        assert config_hash(a) == config_hash(b)

    def test_workers_and_out_excluded(self):
        a = {"experiment": "tail", "seed": 1, "workers": 1, "out": "x"}
        b = {"experiment": "tail", "seed": 1, "workers": 8, "out": "y"}
        assert config_hash(a) == config_hash(b)

    def test_seed_changes_hash(self):
        a = {"experiment": "tail", "seed": 1}
        b = {"experiment": "tail", "seed": 2}
        assert config_hash(a) != config_hash(b)


class TestReplay:
    def test_roundtrip(self, tmp_path):
        c = cfg(tmp_path, experiment="odlyzko", n_list=(8,), trials=2000, seed=5)
        rec = run(c)
        out = replay(str(tmp_path / "odlyzko") + ".json")
        assert out.rows == rec.rows

    def test_replay_ignores_worker_count(self, tmp_path):
        c = cfg(tmp_path, experiment="tail", n_list=(8,), trials=30, seed=9)
        rec = run(c)
        out = replay(str(tmp_path / "tail") + ".json", workers=2)
        assert out.rows == rec.rows

    def test_edited_seed_mismatch(self, tmp_path):
        c = cfg(tmp_path, experiment="tail", n_list=(8,), trials=30, seed=9)
        run(c)
        path = str(tmp_path / "tail") + ".json"
        data = json.loads(Path(path).read_text())
        data["config"]["seed"] = 10
        Path(path).write_text(json.dumps(data))
        with pytest.raises(ReplayMismatch):
            replay(path)

    def test_deleted_row_mismatch(self, tmp_path, capsys):
        run(cfg(tmp_path, experiment="tail", n_list=(8,), trials=30, seed=9))
        path = str(tmp_path / "tail") + ".json"
        data = json.loads(Path(path).read_text())
        del data["rows"][7]
        Path(path).write_text(json.dumps(data))
        assert main(["replay", path]) == 1
        assert capsys.readouterr().err == "replay mismatch: row count changed: 29 -> 30\n"


RECORDS = os.path.join(os.path.dirname(__file__), "records")


def _contains(new, old) -> bool:
    """Every key of old is in new with an equal value (dicts recursively)."""
    if isinstance(old, dict):
        return isinstance(new, dict) and all(k in new and _contains(new[k], v)
                                             for k, v in old.items())
    return new == old


# What one verdict rule for every Monte Carlo frequency changed in records
# made before it: rankgrow's chain, 23 of 40, has 0.5 inside its Wilson
# interval [0.42, 0.72] and is inconclusive now; the keys of the normal
# +-3 se rules it replaced (None) are gone.
_REGRADED = {
    "rankgrow": {"verdict": "inconclusive", "verdict_chain": "inconclusive", "jump1_se": None},
    "odlyzko": {"holds_all": None, "worst_excess_se": None},
}


class TestStoredRecords:
    """Records written by an earlier version of the runner, one per
    experiment, a tail record at n = 240 made at one BLAS thread, a
    decoupling record at n = 5 (the benchmark's size, whose masked forms
    split into blocks) made before the block enumeration, and an odlyzko
    record at its defaults (five chunks of trial rows per row) made
    before the float chunks:
    replay must give their rows, CSV bytes, verdict and summary again
    (as _REGRADED changed them), with any worker count (three cut
    rankgrow's trials unevenly)."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("experiment", ["smallball", "tail", "detconc", "decoupling",
                                            "gapreduce", "rankgrow", "odlyzko", "tail_n240",
                                            "decoupling_n5", "odlyzko_default"])
    def test_replay(self, tmp_path, experiment, workers):
        src = os.path.join(RECORDS, experiment)
        path = str(tmp_path / experiment) + ".json"
        shutil.copy(src + ".json", path)
        stored = json.loads(Path(path).read_text())
        rec = replay(path, workers=workers)
        verdict, summary = stored["verdict"], stored["summary"]
        for key, value in _REGRADED.get(experiment, {}).items():
            if key == "verdict":
                verdict = value
            elif value is None:
                del summary[key]
                assert key not in rec.summary
            else:
                summary[key] = value
        assert rec.verdict == verdict
        assert rec.config_hash == stored["config_hash"]
        assert _contains(json.loads(json.dumps(_jsonify(rec.summary))), summary)
        assert Path(path + ".replay.csv").read_bytes() == Path(src + ".csv").read_bytes()

    def test_decoupling_in_small_stacks(self, tmp_path, monkeypatch):
        # the 25 trials checked in stacks of 4, the last of one trial
        from randsym import cli
        monkeypatch.setattr(cli, "_DECOUPLING_STACK", 4)
        src = os.path.join(RECORDS, "decoupling_n5")
        path = str(tmp_path / "decoupling_n5.json")
        shutil.copy(src + ".json", path)
        replay(path, workers=1)
        assert Path(path + ".replay.csv").read_bytes() == Path(src + ".csv").read_bytes()


PINS = os.path.join(os.path.dirname(__file__), "pins", "summaries.json")


def test_tail_and_detconc_summaries_pinned(tmp_path):
    """The exit code, verdict and whole summary of twelve tail and detconc
    runs, captured while detconc still built these summaries (the stored
    records are checked for rows and lack later summary keys): the
    defaults, the stored records' configs, n = 1, n = 200, infinite
    spreads at n = 1, 2, a point mass, a continuous law, an explicit
    epsilon at two workers, and A = 1.5."""
    pins = json.loads(Path(PINS).read_text())
    got = []
    for i, pin in enumerate(pins):
        out = str(tmp_path / f"pin{i}")
        code = main(pin["argv"] + ["--out", out])
        rec = json.loads(Path(out + ".json").read_text())
        got.append({"argv": pin["argv"], "exit": code, "verdict": rec["verdict"],
                    "summary": rec["summary"]})
    assert got == pins


class TestVerdicts:
    """Every Monte Carlo frequency is graded by detconc.bound_verdict: a
    bound inside the frequency's Wilson interval is inconclusive, exit 3,
    however many standard errors it lies from the frequency."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["odlyzko", "--n-list", "2", "--trials", "10"], id="odlyzko-n2"),
        pytest.param(["odlyzko", "--trials", "50"], id="odlyzko-zero-hits"),
        pytest.param(["rankgrow", "--n", "4", "--trials", "20"], id="rankgrow-chain")])
    def test_bound_inside_interval_is_inconclusive(self, tmp_path, argv):
        out = str(tmp_path / "o")
        assert main([*argv, "--out", out]) == 3
        record = json.loads(Path(out + ".json").read_text())
        summary = record["summary"]
        if argv[0] == "odlyzko":
            graded = [(g["ci"], r[4], g["verdict"])
                      for g, r in zip(summary["per_row"], record["rows"])]
        else:
            graded = [(summary["chain_ci"], 0.5, summary["verdict_chain"])]
        assert all(v != "fail" for _, _, v in graded)
        assert any(lo <= bound <= hi and v == "inconclusive" for (lo, hi), bound, v in graded)

    def test_summaries_carry_wilson_intervals(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["rankgrow", "--n", "8", "--trials", "200", "--out", out]) == 0
        summary = json.loads(Path(out + ".json").read_text())["summary"]
        assert summary["jump1_ci"] == list(wilson_interval(200, 200))
        assert summary["chain_ci"] == list(wilson_interval(round(summary["chain_freq"] * 200),
                                                           200))
        assert "jump1_se" not in summary
        rec = run(cfg(tmp_path, experiment="odlyzko", n_list=(6,), trials=400, seed=3))
        assert [(g["n"], g["k"], g["freq"]) for g in rec.summary["per_row"]] == \
            [r[:3] for r in rec.rows]
        for g, (_, _, freq, _, bound) in zip(rec.summary["per_row"], rec.rows):
            assert g["ci"] == wilson_interval(round(freq * 400), 400)
            assert g["verdict"] == "pass" and bound > g["ci"][1]


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(args, threads: str = None, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's sources, with
    OPENBLAS_NUM_THREADS set when threads is given; past the timeout its
    whole process group is killed, forked children too."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    posix = hasattr(os, "killpg")
    with subprocess.Popen([sys.executable, *args], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=posix) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            if posix:
                os.killpg(proc.pid, signal.SIGKILL)
            else:
                proc.kill()
            raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


class TestBlasThreads:
    """Eigenvalues from n = 208 up depend on the BLAS thread count, so rows
    are computed at one BLAS thread and the record says so."""

    @pytest.mark.skipif(not blas_pinnable(), reason="numpy bundles no OpenBLAS to pin")
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_replay_n240_at_any_thread_count(self, tmp_path, threads, workers):
        path = str(tmp_path / "tail_n240.json")
        shutil.copy(os.path.join(RECORDS, "tail_n240.json"), path)
        assert json.loads(Path(path).read_text())["blas_threads"] == 1
        proc = _python(["-m", "randsym.cli", "replay", path, "--workers", workers], threads)
        assert proc.returncode == 0 and "replay ok: 6 rows" in proc.stdout, proc.stderr

    def test_replay_without_blas_threads_runs_unpinned(self, tmp_path, monkeypatch):
        import randsym.detconc
        counts = []
        pin = randsym.detconc.one_blas_thread

        def recording(on):
            counts.append(on)
            return pin(on)
        monkeypatch.setattr(randsym.detconc, "one_blas_thread", recording)
        path = str(tmp_path / "tail.json")
        shutil.copy(os.path.join(RECORDS, "tail.json"), path)
        assert "blas_threads" not in json.loads(Path(path).read_text())
        rec = replay(path, workers=1)
        assert rec.blas_threads is None and set(counts) == {False}
        assert json.loads(Path(path + ".replay.json").read_text())["blas_threads"] is None
        counts.clear()
        rec = run(cfg(tmp_path, experiment="tail", n_list=(8,), trials=30))
        # the count is kept only where the pin takes effect
        pinned = 1 if blas_pinnable() else None
        assert rec.blas_threads == pinned and set(counts) == {blas_pinnable()}
        assert json.loads((tmp_path / "tail.json").read_text())["blas_threads"] == pinned

    def test_unpinned_where_numpy_bundles_no_openblas(self, tmp_path, monkeypatch):
        import randsym.ensembles
        monkeypatch.setattr(randsym.ensembles, "_openblas", lambda: None)
        rec = run(cfg(tmp_path, experiment="tail", n_list=(8,), trials=30))
        assert rec.blas_threads is None
        assert json.loads((tmp_path / "tail.json").read_text())["blas_threads"] is None

    @pytest.mark.parametrize("threads", ["2", 2, 0, True, 1.0])
    def test_bad_blas_threads_named(self, tmp_path, threads):
        # records are made at one BLAS thread or unpinned; no other count
        path = str(tmp_path / "tail.json")
        data = json.loads(Path(os.path.join(RECORDS, "tail.json")).read_text())
        Path(path).write_text(json.dumps({**data, "blas_threads": threads}))
        with pytest.raises(InvalidConfig, match="blas_threads: invalid value .*needs 1 or null"):
            replay(path)

    def test_workers_after_lanes_in_one_interpreter(self, tmp_path):
        # lanes leave no thread pool behind for forked workers to inherit: a
        # pool kept between calls would leave the workers waiting on threads
        # that do not exist in them
        base = ["tail", "--n-list", "64", "--trials", "12", "--seed", "2"]
        code = (f"import sys; from randsym.cli import main; "
                f"a = main({base + ['--workers', '1', '--out', str(tmp_path / 'a')]!r}); "
                f"b = main({base + ['--workers', '2', '--out', str(tmp_path / 'b')]!r}); "
                f"sys.exit(0 if a == b else 1)")
        assert _python(["-c", code], timeout=60).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_forked_process_runs_lanes(self):
        # a process forked after a call with lanes runs lanes of its own
        code = """
import multiprocessing, sys
from concurrent.futures import ProcessPoolExecutor
from randsym import bernoulli
from randsym.detconc import tail_trial
def rows(_):
    return tail_trial(bernoulli(), None, 64, 2, range(12), lanes=2)
a = rows(0)
with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
    b = pool.submit(rows, 0).result()
sys.exit(0 if a == b else 1)
"""
        assert _python(["-c", code], timeout=60).returncode == 0


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "r")
        code = main(["gapreduce", "--gap", "gap{g0=0; g=[1,10]; K=[-2,-2]; K'=[2,2]}",
                     "--values", "11,22", "--out", out])
        assert code == 0
        code = main(["tail", "--n-list", "8", "--trials", "30", "--a-exp", "3",
                     "--seed", "1", "--out", str(tmp_path / "t")])
        assert code == 2       # small +-1 matrices are often near-singular
        # the ratio falls inside its envelope and the std grows, but 60
        # trials cannot separate a zero deviation frequency from 0.05
        code = main(["detconc", "--seed", "1", "--out", str(tmp_path / "d")])
        assert code == 3
        code = main(["bogus"])
        assert code == 1

    def test_consecutive_calls_share_nothing(self, tmp_path, capsys):
        # main() builds its parser once per process; no call may leave a
        # flag or an error behind for the next one
        import randsym.cli
        randsym.cli._build_parser.cache_clear()
        assert main(["ensemble", "sample"]) == 0
        defaults = capsys.readouterr().out
        assert len(defaults.splitlines()) == 4
        assert main(["ensemble", "sample", "--n", "3", "--seed", "5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert main(["ensemble", "sample"]) == 0
        assert capsys.readouterr().out == defaults
        out = str(tmp_path / "o")
        assert main(["odlyzko", "--n-list", "6", "--trials", "50", "--out", out]) == 0
        # 0 hits in 50 trials cannot show a bound below 0.071 (Wilson)
        assert main(["odlyzko", "--trials", "50", "--out", out]) == 3
        capsys.readouterr()
        config = json.loads(Path(out + ".json").read_text())["config"]
        assert config["n_list"] == list(resolve(ExperimentConfig("odlyzko"))["n_list"]) != [6]
        for rejected in (["odlyzko", "--frobnicate", "1"], ["odlyzko", "--trials", "abc"]):
            assert main(rejected) == 1
            assert main(["ensemble", "sample"]) == 0
            assert capsys.readouterr().out == defaults
        assert randsym.cli._build_parser.cache_info().misses == 1

    def test_unknown_config_keys_named(self, tmp_path, capsys):
        conf = tmp_path / "exp.cfg"
        conf.write_text("experiment=odlyzko\nfrobnicate=1\nsize_cap=9\n")
        assert main(["odlyzko", "--config", str(conf), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "frobnicate" in err and "size_cap" in err and "TypeError" not in err
        # a record written while `steps` was a config field no longer replays
        assert main(["odlyzko", "--n-list", "6", "--trials", "50",
                     "--out", str(tmp_path / "r")]) == 0
        path = str(tmp_path / "r") + ".json"
        data = json.loads(Path(path).read_text())
        data["config"]["steps"] = 3
        Path(path).write_text(json.dumps(data))
        with pytest.raises(InvalidConfig, match="steps"):
            replay(path)

    @pytest.mark.parametrize("experiment, setting, message", [
        pytest.param("odlyzko", "trials=abc", "invalid value", id="trials=abc"),
        pytest.param("odlyzko", "epsilon=wide", "invalid value", id="epsilon=wide"),
        pytest.param("odlyzko", "n_list=8,x", "invalid value", id="n_list=8,x"),
        pytest.param("odlyzko", "workers=two", "invalid value", id="workers=two"),
        pytest.param("smallball", "method=fast", "invalid value", id="method=fast"),
        pytest.param("tail", "form=linear", "not a config key of tail", id="form=linear"),
        pytest.param("odlyzko", {"trials": "abc"}, "invalid value", id="json-trials"),
        pytest.param("detconc", {"epsilon": "wide"}, "invalid value", id="json-epsilon"),
        pytest.param("odlyzko", {"n_list": [20, "x"]}, "invalid value", id="json-n_list"),
        pytest.param("odlyzko", {"workers": "2"}, "invalid value", id="json-workers"),
        pytest.param("smallball", {"method": "fast"}, "invalid value", id="json-method"),
        pytest.param("tail", {"form": "linear"}, "not a config key of tail", id="json-form"),
        pytest.param("tail", "law=foo", "unknown law literal", id="law=foo"),
        pytest.param("tail", "law=atoms[(1/0,1)]", "bad atom (1/0,1)", id="law=atoms-1/0"),
        pytest.param("gapreduce", {"values": "1,x"}, "Invalid literal", id="json-values"),
        pytest.param("odlyzko", "c3=2", "invalid value 2.0, needs c3 in [0, 1)", id="c3=2"),
        pytest.param("smallball", "beta=-1", "invalid value -1.0, needs beta >= 0",
                     id="smallball-beta=-1"),
        pytest.param("decoupling", {"beta": -1}, "invalid value -1, needs beta >= 0",
                     id="json-decoupling-beta"),
        pytest.param("detconc", "epsilon=-1", "invalid value -1.0, needs epsilon > 0",
                     id="epsilon=-1"),
        pytest.param("tail", "seed=-1", "invalid value -1, needs seed >= 0", id="seed=-1"),
        pytest.param("gapreduce", {"seed": -1}, "invalid value -1, needs seed >= 0",
                     id="json-seed"),
        pytest.param("tail", "n_list=4,4", "needs distinct sizes, got [4, 4]", id="n_list=4,4"),
        pytest.param("odlyzko", {"n_list": [3, 8, 3]}, "needs distinct sizes, got [3, 8, 3]",
                     id="json-n_list-repeat")])
    def test_bad_config_value_named(self, tmp_path, capsys, experiment, setting, message):
        # a key=value line is text; a JSON config is typed, so "2" is no int
        conf = tmp_path / "exp.cfg"
        if isinstance(setting, dict):
            conf.write_text(json.dumps({"experiment": experiment, **setting}))
            key = next(iter(setting))
        else:
            conf.write_text(f"experiment={experiment}\n{setting}\n")
            key = setting.partition("=")[0]
        assert main([experiment, "--config", str(conf), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: {message}")

    def test_config_file(self, tmp_path):
        conf = tmp_path / "exp.cfg"
        conf.write_text("experiment=odlyzko\nn_list=8\ntrials=500\nseed=3\n")
        code = main(["odlyzko", "--config", str(conf),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads((tmp_path / "o.json").read_text())
        assert data["config"]["trials"] == 500

    def test_replay_cli(self, tmp_path):
        out = str(tmp_path / "r")
        assert main(["odlyzko", "--n-list", "8", "--trials", "500", "--seed", "3",
                     "--out", out]) == 0
        assert main(["replay", out + ".json"]) == 0

    @staticmethod
    def spectrum_lines(stack) -> str:
        """What `ensemble spectrum` prints for a stack of matrices."""
        from randsym import spectral_summary
        lines = []
        for t, mat in enumerate(stack):
            summ = spectral_summary(mat)
            lines.append(json.dumps({
                "trial": t, "sigma_1": summ.sigma_1, "sigma_n": summ.sigma_n,
                "kappa": summ.kappa, "log_abs_det": summ.log_abs_det,
                "eigenvalues": [float(x) for x in summ.eigenvalues]}))
        return "".join(line + "\n" for line in lines)

    def test_ensemble_spectrum_computes_no_exact_rank(self, capsys, monkeypatch):
        import randsym.ensembles
        from randsym import bernoulli, sample_symmetric
        from randsym.streams import key_seed
        samples = [sample_symmetric(bernoulli(), None, 6, seed=key_seed(4, t)) for t in range(3)]

        def no_rank(rows):
            raise AssertionError("exact rank computed")
        monkeypatch.setattr(randsym.ensembles, "_rank", no_rank)
        # neither the library summary nor the command pays for an exact corank
        lines = self.spectrum_lines(samples)
        assert main(["ensemble", "spectrum", "--n", "6", "--seed", "4", "--trials", "3"]) == 0
        assert capsys.readouterr().out == lines

    @pytest.mark.parametrize("action, kind", [
        ("sample", "float"), ("spectrum", "float"), ("rank", "exact")])
    def test_ensemble_builds_exact_matrix_only_for_rank(self, action, kind, capsys, monkeypatch):
        import randsym.cli
        kinds = []

        def recording(sampler, kind):
            def call(*args, **kwargs):
                out = sampler(*args, **kwargs)
                # one float stack for every trial, or one exact matrix per trial
                kinds.extend([kind] * (len(out) if kind == "float" else 1))
                return out
            return call
        monkeypatch.setattr(randsym.cli, "sample_symmetric",
                            recording(randsym.cli.sample_symmetric, "float"))
        monkeypatch.setattr(randsym.cli, "exact_sample",
                            recording(randsym.cli.exact_sample, "exact"))
        assert main(["ensemble", action, "--n", "5", "--trials", "2"]) == 0
        assert kinds == [kind, kind]

    @pytest.mark.parametrize("law, rank_of_F", [("bernoulli", None), ("atoms[(0,1)]", 1)])
    def test_ensemble_rank_reads_F_exactly(self, law, rank_of_F, tmp_path, capsys):
        from randsym import exact_rank, exact_sample, parse_law
        from randsym.streams import key_seed
        # rank 1 over the rationals (1/9 = (1/3)^2), rank 2 as floats
        path = tmp_path / "F.txt"
        path.write_text("1/9 1/3\n1/3 1\n")
        fixed = [[F(1, 9), F(1, 3)], [F(1, 3), F(1)]]
        assert main(["ensemble", "rank", "--n", "2", "--trials", "4", "--seed", "5",
                     "--law", law, "--F", str(path)]) == 0
        want = [exact_rank(exact_sample(parse_law(law), fixed, 2, key_seed(5, t)))
                for t in range(4)]
        assert capsys.readouterr().out == "".join(f"trial {t}: rank {r}\n"
                                                  for t, r in enumerate(want))
        if rank_of_F is not None:       # X = 0: the rank of F itself
            assert want == [rank_of_F] * 4

    @pytest.mark.parametrize("action", ["sample", "spectrum"])
    def test_ensemble_floats_with_F(self, action, tmp_path, capsys):
        from randsym import bernoulli, sample_symmetric
        from randsym.streams import key_seed
        path = tmp_path / "F.txt"
        path.write_text("0.5 1/3 0\n1/3 -2 0.1\n0 0.1 3\n")
        fixed = [[0.5, 1 / 3, 0.0], [1 / 3, -2.0, 0.1], [0.0, 0.1, 3.0]]
        assert main(["ensemble", action, "--n", "3", "--trials", "2", "--seed", "6",
                     "--F", str(path)]) == 0
        stack = sample_symmetric(bernoulli(), fixed, 3, seed=key_seed(6, range(2)))
        want = self.spectrum_lines(stack) if action == "spectrum" else "".join(
            " ".join(repr(float(x)) for x in row) + "\n" for mat in stack for row in mat)
        assert capsys.readouterr().out == want

    def test_ensemble_grow_refuses_F(self, tmp_path, capsys):
        path = tmp_path / "F.txt"
        path.write_text("5 0\n0 5\n")
        assert main(["ensemble", "grow", "--n", "2", "--trials", "2", "--F", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: F:")

    @pytest.mark.parametrize("argv, key", [
        (["sample", "--n", "0"], "n"),
        (["rank", "--n", "-2"], "n"),
        (["grow", "--n", "0"], "n"),
        (["grow", "--n", "1"], "n"),
        (["spectrum", "--trials", "0"], "trials"),
        (["rank", "--seed", "-1"], "seed")])
    def test_ensemble_bad_sizes_named(self, capsys, monkeypatch, argv, key):
        import randsym.cli

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")
        for name in ("sample_symmetric", "exact_sample", "grow_and_track"):
            monkeypatch.setattr(randsym.cli, name, no_sampling)
        assert main(["ensemble"] + argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}:")

    def test_refusals_exit_1(self, tmp_path, capsys):
        out = ["--out", str(tmp_path / "r")]
        # a point mass has no spacing certificate: tail and rankgrow refuse it
        assert main(["tail", "--law", "atoms[(1,1)]", *out]) == 1
        assert capsys.readouterr().err == \
            "error: SpacingUnverified: no spacing certificate passes for this law\n"
        assert main(["rankgrow", "--law", "atoms[(1,1)]", *out]) == 1
        assert capsys.readouterr().err.startswith("error: law: needs a spacing certificate")
        assert main(["gapreduce", "--gap", "gap{g0=0; g=[1,10]; K=[-2,-2]; K'=[2,2]}",
                     *out]) == 1
        assert capsys.readouterr().err.startswith("error: gap, values: both required")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("experiment, flag, value, need", [
        ("tail", "--freq-bound", "2", "in [0, 1]"),
        ("tail", "--freq-bound", "-0.5", "in [0, 1]"),
        ("detconc", "--dev-bound", "1.5", "in [0, 1]"),
        ("detconc", "--spread-bound", "0", "> 0")])
    def test_bound_out_of_range_refused(self, tmp_path, capsys, experiment, flag, value, need):
        # a frequency bound past 1 would pass every n, one below 0 fail every n
        key = flag[2:].replace("-", "_")
        assert main([experiment, flag, value, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == \
            f"error: {key}: invalid value {float(value)!r}, needs {key} {need}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        *(["--n-list", "2", "--trials", "30", "--seed", str(s)] for s in range(1, 6)),
        ["--n-list", "6", "--trials", "30", "--seed", "5"],
        ["--law", "uniform3", "--n-list", "8", "--trials", "200", "--seed", "1"]])
    def test_detconc_takes_exactly_singular_samples(self, tmp_path, argv):
        # each run draws a matrix with an exactly zero eigenvalue below the
        # cutoff; its small product is bounded below by 0, not an error
        assert main(["detconc", *argv, "--out", str(tmp_path / "r")]) in (0, 2, 3)
        rows = json.loads((tmp_path / "r.json").read_text())["rows"]
        assert len(rows) == int(argv[argv.index("--trials") + 1])

    @pytest.mark.parametrize("argv, mass", [
        (["--law", "lazy(1/10)", "--n-list", "8", "--trials", "2000"], "9/10"),
        (["--c3", "0.9"], "1/2")])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_odlyzko_outside_atom_bound_refused(self, tmp_path, capsys, monkeypatch, argv,
                                                mass, workers):
        import randsym.cli

        def no_worker(*args, **kwargs):
            raise AssertionError("worker started")
        monkeypatch.setattr(randsym.cli, "_parallel", no_worker)
        assert main(["odlyzko", *argv, "--workers", workers,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: c3 = ") and f"atom mass {mass} " in err
        assert not list(tmp_path.iterdir())

    def test_ensemble_sample_files(self, tmp_path, capsys):
        from randsym import bernoulli, sample_symmetric
        from randsym.streams import key_seed
        out = str(tmp_path / "X")
        assert main(["ensemble", "sample", "--n", "5", "--seed", "3", "--trials", "2",
                     "--out", out]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["X.0.txt", "X.1.txt"]
        drawn = sample_symmetric(bernoulli(), None, 5, seed=key_seed(3, range(2)))
        for t in range(2):
            assert np.array_equal(np.loadtxt(f"{out}.{t}.txt"), drawn[t])

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_smallball_quadratic(self, tmp_path, method):
        from randsym import (QuadraticForm, bernoulli, quadratic_small_ball_exact,
                             quadratic_small_ball_mc)

        def library(rows):
            form = QuadraticForm(tuple(tuple(F(x) for x in row) for row in rows))
            if method == "exact":
                return quadratic_small_ball_exact(form, bernoulli(), 0.25)
            return quadratic_small_ball_mc(form, bernoulli(), 0.25, 3000, 6)

        path = tmp_path / "coeffs.txt"
        path.write_text("1 1/2 0\n1/2 -1 2\n0 2 1/3\n")
        base = dict(experiment="smallball", form="quadratic", method=method, beta=0.25,
                    trials=3000, seed=6)
        rec = run(cfg(tmp_path, **base, coeffs=str(path)))
        est = library([["1", "1/2", "0"], ["1/2", "-1", "2"], ["0", "2", "1/3"]])
        assert rec.rows == (("quadratic", est.method, est.rho, est.beta, est.ci_halfwidth,
                             est.witness_center),)
        # without a coeffs file the form is [[0, 1/2], [1/2, 0]], whatever n is
        rec = run(cfg(tmp_path, **base, n=7))
        est = library([[0, F(1, 2)], [F(1, 2), 0]])
        assert rec.summary == {"rho": est.rho, "beta": est.beta, "method": est.method,
                               "ci": est.ci_halfwidth, "witness_center": est.witness_center}

    def test_ensemble_utilities(self, tmp_path, capsys):
        assert main(["ensemble", "sample", "--n", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["ensemble", "sample", "--n", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first
        assert main(["ensemble", "rank", "--n", "4", "--seed", "2"]) == 0
        assert "rank" in capsys.readouterr().out
        assert main(["ensemble", "spectrum", "--n", "4", "--seed", "2"]) == 0
        assert "sigma_n" in capsys.readouterr().out
        assert main(["ensemble", "grow", "--n", "3", "--seed", "1"]) == 0
        assert capsys.readouterr().out.startswith("trial 0:")


class TestTrialBlocks:
    @pytest.mark.parametrize("argv, key", [
        (["tail", "--trials", "0"], "trials"),
        (["tail", "--trials", "-3"], "trials"),
        (["tail", "--n-list", "0"], "n_list"),
        (["tail", "--n-list", "8,-1"], "n_list"),
        (["detconc", "--trials", "0"], "trials"),
        (["detconc", "--n-list", "0,8"], "n_list"),
        (["rankgrow", "--trials", "0"], "trials"),
        (["odlyzko", "--trials", "0"], "trials"),
        (["decoupling", "--trials", "0"], "trials"),
        (["odlyzko", "--n-list", "1"], "n_list"),
        (["smallball", "--n", "0"], "n"),
        (["decoupling", "--n", "1"], "n"),
        (["rankgrow", "--n", "1"], "n")])
    def test_bad_sizes_named_before_sampling(self, tmp_path, capsys, monkeypatch, argv, key):
        import randsym.cli
        import randsym.detconc

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled")
        monkeypatch.setattr(randsym.detconc, "sample_symmetric", no_sampling)
        # every experiment samples inside run()
        monkeypatch.setattr(randsym.cli, "run", no_sampling)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 1
        # InvalidConfig prints "error: <key>: ..."; other errors their type name
        assert capsys.readouterr().err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("argv, key", [
        (["tail", "--law", "foo"], "law"),
        (["gapreduce", "--gap", "gap{g0=0; g=[1]; K=[-2]; K'=[2]}", "--values", "1,x"], "values"),
        (["gapreduce", "--gap", "gap{g0=0; g=[1]", "--values", "1"], "gap"),
        (["detconc", "--law", "gaussian"], "law"),
        (["decoupling", "--law", "gaussian"], "law"),
        (["smallball", "--law", "gaussian"], "law"),
        (["rankgrow", "--law", "uniform"], "law"),
        (["odlyzko", "--law", "gaussian"], "law"),
        (["ensemble", "rank", "--law", "gaussian"], "law"),
        (["ensemble", "grow", "--law", "gaussian"], "law"),
        (["tail", "--seed", "-1", "--workers", "2"], "seed")])
    def test_bad_law_named_before_any_trial(self, tmp_path, capsys, monkeypatch, argv, key):
        import randsym.cli

        def no_trial(*args, **kwargs):
            raise AssertionError("trial started")
        for name in ("_parallel", "sample_symmetric", "grow_and_track", "rank_reduce",
                     "linear_small_ball_exact", "quadratic_small_ball_exact"):
            monkeypatch.setattr(randsym.cli, name, no_trial)
        assert main(argv + ["--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}:")

    @pytest.mark.parametrize("experiment", ["tail", "detconc"])
    def test_rows_identical_across_workers(self, tmp_path, experiment):
        rows = [run(cfg(tmp_path, experiment=experiment, n_list=(7, 12), trials=31,
                        seed=4, workers=w, out=str(tmp_path / f"w{w}"))).rows
                for w in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2] and len(rows[0]) == 62
        assert [r[:2] for r in rows[0]] == [(n, t) for n in (7, 12) for t in range(31)]

    def test_no_process_left_after_pool_run(self, tmp_path):
        import multiprocessing
        assert main(["tail", "--n-list", "8,10", "--trials", "20", "--workers", "2",
                     "--out", str(tmp_path / "t")]) in (0, 2, 3)
        assert multiprocessing.active_children() == []

    def test_pool_no_larger_than_its_items(self, monkeypatch):
        import randsym.cli
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)
        monkeypatch.setattr(randsym.cli, "ProcessPoolExecutor", Recorder)
        assert randsym.cli._parallel(abs, [-1, -2], 8) == [1, 2]
        assert randsym.cli._parallel(abs, [-1, -2, -3], 2) == [1, 2, 3]
        assert sizes == [2, 2]


class TestResolve:
    def test_defaults_applied(self):
        r = resolve(ExperimentConfig(experiment="tail"))
        assert r["a_exp"] == 3.0 and r["freq_bound"] == 0.01
        assert r["c1"] == 2.0 and r["c3"] == 0.5

    def test_invalid_workers(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(experiment="tail", workers=0)
