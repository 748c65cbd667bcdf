"""Self-checks of the benchmark: python3 -m pytest perfbench -q

They make sure a renamed function or a new import binding cannot silently
drop a layer from the trace, and that the metric names match BENCHMARK.json.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import LAYERS, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

CLI = ["cli.run", "cli.resolve", "cli.ResultRecord.write"]
CALLED = {
    "mc-serial": CLI + [
        "laws.parse_law", "laws.auto_certificate", "laws.verify_spacing",
        "laws.AtomicLaw.sample_indices", "streams.substream",
        "ensembles.sample_symmetric", "ensembles.eigvalsh", "detconc.tail_trial",
        "detconc.detconc_trial", "detconc.truncated_log_det"],
    "exact-rank": CLI + [
        "streams.substream", "ensembles.spectral_summary", "ensembles.grow_and_track",
        "ensembles.subspace_membership_mc", "exactlinalg.exact_rank",
        "exactlinalg.bareiss_det", "exactlinalg.rowspace_membership",
        "exactlinalg.row_echelon_int", "exactlinalg.adjugate"],
    "exact-smallball": CLI + [
        "smallball.linear_small_ball_exact-48", "smallball.linear_small_ball_exact-120",
        "smallball.quadratic_small_ball_exact", "smallball.bilinear_small_ball",
        "gap.rank_reduce", "gap.beta_close", "gap.is_proper", "gap.spans",
        "structure.decoupling_scan", "structure.verify_decoupling"],
}


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    """One rotation untraced and one traced per workload, default seed."""
    return {name: run_main(["--workload", name, "--seconds", "0", "--trace", "1"])
            for name in wl.WORKLOADS}


def test_wrapper_replaces_every_binding():
    program = run.load_program()
    import randsym
    originals = {
        "sample_symmetric": program.ensembles.sample_symmetric,
        "exact_rank": randsym.exactlinalg.exact_rank,
    }
    bound = [(randsym, "sample_symmetric"), (randsym.ensembles, "sample_symmetric"),
             (randsym.detconc, "sample_symmetric"), (randsym.cli, "sample_symmetric"),
             (randsym.ensembles, "_rank"), (randsym.gap, "exact_rank"),
             (randsym, "rational_rank")]
    tracer = Tracer()
    tracer.install()
    try:
        for mod, attr in bound:
            assert getattr(mod, attr) not in originals.values(), (mod.__name__, attr)
        wrapped = {id(f) for f in originals.values()}
        for name, mod in list(sys.modules.items()):
            if name == "randsym" or name.startswith("randsym."):
                assert not wrapped & {id(v) for v in vars(mod).values()}, name
        program.ensembles.exact_rank([[1, 2], [2, 4]])
        assert tracer.layer_totals()["exactlinalg.exact_rank"][0] == 1
    finally:
        tracer.uninstall()
    for mod, attr in bound:
        assert getattr(mod, attr) in originals.values()


def test_every_layer_function_exists():
    run.load_program()
    import importlib
    for layer in LAYERS:
        owner = importlib.import_module(layer.module)
        for part in layer.attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), layer


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_run(traced, workload):
    code, result = traced[workload]
    # correct covers: verdicts, traced rows equal untraced rows, reference digests
    assert code == 0 and result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == {x["name"] for x in BENCHMARK["per_layer"]}
    for name in CALLED[workload]:
        assert m[f"{name}.calls"] >= 1, name
        assert m[f"{name}.errors"] == 0, name
    if workload == "mc-serial":
        assert not [k for k, v in m.items() if k.endswith(".calls") and v
                    and k.startswith(("exactlinalg.", "smallball."))]
    if workload == "exact-smallball":
        assert m["ensembles.sample_symmetric.calls"] == 0
        assert m["structure.decoupling_scan.checks_per_call"] >= 1
    if workload == "exact-rank":
        assert m["ensembles.spectral_summary.exact_corank_share"] > 0
    assert m["cli.record_bytes"] > 0


def test_untraced_metric_names():
    code, result = run_main(["--workload", "exact-smallball", "--seconds", "0",
                             "--trace", "0"])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {x["name"] for x in BENCHMARK["end_to_end"]}
    for x in BENCHMARK["end_to_end"]:
        assert result["metrics"][x["name"]]["unit"] == x["unit"]
        assert result["metrics"][x["name"]]["value"] > 0


def test_times_scale_to_reference_speed():
    # a host twice as slow as the reference halves every scaled time
    ops = [wl.OpResult("k", 0, latency, 0, "") for latency in (0.2, 0.4)]
    rotations = [(ops, 0.6, 2 * run.REFERENCE_CALIBRATION_S)] * 3
    wall = run.timing_metrics(rotations, 2, scaled=False)
    scaled = run.timing_metrics(rotations, 2, scaled=True)
    assert scaled["ops_per_s"][0] == pytest.approx(2 * wall["ops_per_s"][0])
    for name in ("op_p50_ms", "op_p90_ms"):
        assert scaled[name][0] == pytest.approx(wall[name][0] / 2)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "mc-serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
