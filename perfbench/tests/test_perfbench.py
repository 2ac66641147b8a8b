"""Tests of the benchmark itself, on every workload shrunk to a tiny size.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from mrfrecon import cli, nufft  # noqa: E402
from mrfrecon.maps import QMaps  # noqa: E402

from perfbench import run as bench_run  # noqa: E402
from perfbench import trace, workload  # noqa: E402

TINY = dict(
    matrix=16,
    coils=2,
    r=2,
    n_train=2,
    width=4,
    decoder_epochs=3,
    encoder_epochs=1,
    unrolled_epochs=1,
    setups=2,
    singular_values=None,
    config={
        "sequence": {"n_frames": 40},
        "grid": {"t1": {"count": 8}, "t2": {"count": 6}},
        "subspace": {"s": 4},
        "recon": {"power_iters": 3},
        "train": {"decoder_threshold": 10.0, "decoder_offgrid": 20},
        "epg": {"k_max": 10},
    },
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(workload.WORKLOADS[name], **TINY)


def execute(tmp_path, name, trace, seed=1, seconds=0.0):
    run = workload.Run(tiny(name), seed, tmp_path / f"{name}-{trace}-{seed}")
    run.execute(seconds, trace)
    return run


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workload.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, unit) for name, unit, _ in workload.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == workload.per_layer_names()


@pytest.mark.parametrize("name", list(workload.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, name):
    run = execute(tmp_path, name, trace=0)
    assert run.failed == 0, run.failures
    metrics = workload.end_to_end(run)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric, (value, _, _) in metrics.items():
        assert value is not None and math.isfinite(value) and value > 0, metric


@pytest.mark.parametrize("name", list(workload.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(tmp_path, name):
    run = execute(tmp_path, name, trace=1)
    assert run.failed == 0, run.failures
    metrics, per_op = workload.per_layer(run)
    assert not run.tracer.hook_errors
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(math.isfinite(v) for v, _ in metrics.values())
    assert metrics["build_dict.acquisition.share"][0] == 0.0
    assert metrics["nufft.fft.calls"][0] > 0 and metrics["nufft.fft.flops"][0] > 0
    kinds = [op["kind"] for op in per_op]
    assert kinds[:2] == ["setup", "setup"] and {"build_dict", "train_unrolled"} <= set(kinds)
    assert run.cycle_traced[:2] == [False, True]
    # layer self times plus the `other` remainder add up to each op's wall time
    for op in per_op:
        assert sum(op["layers"].values()) == pytest.approx(op["wall_s"], rel=1e-9, abs=1e-12)
    run.tracer.write(tmp_path / "spans.csv.gz")
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0


def test_computed_counts_repeat_exactly(tmp_path):
    first, _ = workload.per_layer(execute(tmp_path, "radial32", trace=1))
    second, _ = workload.per_layer(execute(tmp_path, "radial32", trace=1, seed=2))
    # a longer run traces more cycles; counts are per round, so they repeat
    third, _ = workload.per_layer(execute(tmp_path / "again", "radial32", trace=1, seconds=2.0))
    for name in workload.COMPUTED_NAMES:
        assert first[name][0] == third[name][0], name
        assert first[name][0] > 0, name
    # the work is fixed by the geometry, not by the phantom
    assert first["nufft.interp.taps"] == second["nufft.interp.taps"]


def test_fft_tracing_covers_every_transform():
    tracer = trace.Tracer()
    tracer.install()
    try:
        fft = next(v for v in vars(nufft).values() if isinstance(v, trace._FftProxy))
        x = np.ones((3, 8, 8), complex)
        tracer.enabled = True
        with tracer.op("probe"):
            fft.fftn(x, axes=(1, 2))  # 3 transforms of 64 points
            fft.rfft(x.real)  # 24 real transforms of 8 points, half the flops
            fft.fftshift(x)  # no transform work, not traced
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names == ["op.probe", "nufft.fft", "nufft.fft"]
    assert tracer.counts[("nufft.fft.flops", 0)] == 5 * 64 * 6 * 3 + 0.5 * 5 * 8 * 3 * 24
    assert not tracer.hook_errors


def test_fft_tracing_reports_a_missing_scipy_fft():
    tracer = trace.Tracer()
    tracer._install_fft(types.ModuleType("nufft_without_scipy_fft"))
    assert tracer.hook_errors == {"nufft.fft"}


def test_same_seed_gives_same_inputs_and_outputs(tmp_path):
    a = execute(tmp_path, "cartesian32", trace=0)
    b = execute(tmp_path / "b", "cartesian32", trace=0)
    assert a.inputs == b.inputs
    assert a.values == b.values
    assert workload.make_inputs(1, 3) != workload.make_inputs(2, 3)


def test_injected_faults_count_as_failed_ops(tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("injected fault")

    def nan_maps(y, op, grid=None, sub=None, encoder=None):
        shape = (op.matrix, op.matrix)
        return QMaps(np.full(shape, np.nan), np.ones(shape), np.ones(shape), np.ones(shape, bool))

    monkeypatch.setattr(cli, "pgd_reconstruct", crash)  # dm-pgd exits with code 1
    monkeypatch.setattr(cli, "backprojection_baseline", nan_maps)  # bp-dm output is wrong
    run = execute(tmp_path, "radial32", trace=0)
    # eval of the missing dm-pgd output fails too; nothing else does
    assert run.failures == ["recon_bpdm"] * 6 + ["recon_dmpgd"] * 2 + ["eval"]
    assert run.attempted == 24 and run.failed == 9
    metrics = workload.end_to_end(run)
    assert metrics["recon_dmpgd_s"][0] is None
    assert metrics["train_step_s"][0] > 0


def test_run_prints_the_result_as_its_last_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workload.WORKLOADS, "radial32", tiny("radial32"))
    monkeypatch.setattr(bench_run, "OUT_DIR", tmp_path)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "radial32", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
        assert bench_run.main(args) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    assert (tmp_path / "spans-radial32-seed3-trace1.csv.gz").is_file()
    assert not list(tmp_path.glob("work-*"))


def test_run_fails_cleanly_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = [sys.executable, "perfbench/run.py", "--workload", "radial32", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
