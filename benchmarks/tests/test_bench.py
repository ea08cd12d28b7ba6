"""Tests of the benchmark's own machinery: span arithmetic, the command
runner, output checks and the printed metric set."""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 2.0, 3.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def inner():
        return tracer.call("prob.c", lambda: None, (), {})

    def middle():
        return tracer.call("kernels.b", inner, (), {})

    tracer.call("bounds.a", middle, (), {})
    m = tracer.layer_metrics()
    # a: [0, 10] around b: [2, 5] around c: [3, 4]
    assert (m["bounds.self_s"], m["kernels.self_s"], m["prob.self_s"]) == (7.0, 2.0, 1.0)
    assert (m["bounds.a.s"], m["kernels.b.s"], m["bounds.a.calls"]) == (10.0, 3.0, 1)


def test_self_time_subtracts_union_of_parallel_children():
    parent = spans.Span(0, None, "cli.main", 0.0, 10.0, 1, False)
    child_a = spans.Span(1, 0, "simulate.work", 1.0, 6.0, 2, False)
    child_b = spans.Span(2, 0, "simulate.work", 4.0, 8.0, 3, False)
    selfs = spans.self_times([parent, child_a, child_b])
    assert selfs == {0: 3.0, 1: 5.0, 2: 4.0}


def test_worker_thread_spans_take_the_main_threads_open_span_as_parent():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work():
        barrier.wait()  # both workers run at once
        return tracer.call("simulate.work", lambda: None, (), {})

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work) for _ in range(2)]
            for f in futures:
                f.result(timeout=10)

    tracer.call("cli.main", fan_out, (), {})
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["cli.main"]
    assert [s.parent for s in by_name["simulate.work"]] == [top.sid, top.sid]
    assert all(s.thread != top.thread for s in by_name["simulate.work"])


def test_install_wraps_catchain_and_uninstall_restores_it():
    cli = bench.import_catchain(ROOT)
    from catchain import bounds, kernels

    original = bounds.bstar_from_b
    probs = kernels.KernelHandle.__dict__["probs"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.bstar_from_b is not original and bounds.bstar_from_b is cli.bstar_from_b
        cli.bstar_from_b(bounds.DecaySeq([0.5, 0.25]), horizon=3)
        assert tracer.leftovers()
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert cli.bstar_from_b is original and kernels.KernelHandle.__dict__["probs"] is probs
    m = tracer.layer_metrics()
    assert m["bounds.bstar_from_b.calls"] == 1 and m["bounds.bstar_from_b.horizon_sq"] == 16


def test_output_dirs_are_fresh_and_removed_outside_the_timed_region(tmp_path, monkeypatch):
    events = []
    real_rmtree = bench.shutil.rmtree

    def clock():
        events.append("clock")
        return float(len(events))

    def fake_main(argv):
        out = argv[argv.index("--out") + 1]
        events.append(("main", os.path.isdir(out), os.listdir(out)))
        with open(os.path.join(out, "verify_report.csv"), "w") as fh:
            fh.write("check,status,detail\nx,PASS,ok\n")
        return 0

    def rmtree(path):
        events.append("rmtree")
        real_rmtree(path)

    monkeypatch.setattr(bench.shutil, "rmtree", rmtree)
    cmd = workloads.Command("verify", "verify", {})
    dirs = [str(tmp_path / f"out-{i}") for i in range(2)]
    for out in dirs:
        result = bench.run_command(fake_main, cmd, "cfg.json", out, 7, clock=clock)
        assert result.problems == [] and not os.path.exists(out)
    assert events == ["clock", ("main", True, []), "clock", "rmtree"] * 2


def test_a_failed_command_names_the_failing_check(tmp_path):
    def failing_verify(argv):
        out = argv[argv.index("--out") + 1]
        with open(os.path.join(out, "verify_report.csv"), "w") as fh:
            fh.write("check,status,detail\nx,PASS,ok\nmc,FAIL,off by 4.1 sigma\n")
        return 1

    def failing_simulate(argv):
        return 1  # writes nothing: only the exit status is reported

    verify = workloads.Command("verify", "verify", {})
    result = bench.run_command(failing_verify, verify, "cfg.json", str(tmp_path / "a"), 7)
    assert result.problems == ["exit status 1", "verify check mc is FAIL: off by 4.1 sigma"]
    simulate = workloads.Command("simulate", "simulate", {"simulate": {"window": 2}})
    result = bench.run_command(failing_simulate, simulate, "cfg.json", str(tmp_path / "b"), 7)
    assert result.problems == ["exit status 1"]


def test_digest_change_between_repetitions_is_a_failure():
    def rep(digest):
        return [bench.CommandResult("simulate", 1.0, digests={"path.csv": digest})]

    summary = bench.summarize([(False, rep("a")), (False, rep("a")), (True, rep("b"))])
    assert (summary["attempted"], summary["failed"]) == (3, 1)
    assert "differ" in summary["problems"][0]


def _write(directory, name, text):
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(text)


def test_output_checks_flag_bad_outputs(tmp_path):
    d = str(tmp_path)
    _write(d, "b.csv", "m,value\n0,0.3\n1,0.4\n")
    _write(d, "bstar.csv", "m,value\n0,0.3\n1,1.5\n")
    _write(d, "dependence_bound.csv", "n,bound\n1,nan\n")
    assert len(workloads.check_bounds({}, d)) == 3
    _write(d, "verify_report.csv", "check,status,detail\na,PASS,x\nb,FAIL,y\n")
    assert workloads.check_verify({}, d) == ["verify check b is FAIL: y"]
    _write(d, "path.csv", "t,y,x_1\n1,0,0.5\n")
    _write(d, "certificate.json", json.dumps({"eps_achieved": 0.2, "eps_requested": 0.1}))
    assert len(workloads.check_simulate({"simulate": {"window": 2}}, d)) == 2
    _write(d, "fit_summary.txt", "convergence: failed\nselftest max abs error: 0.2\n")
    assert len(workloads.check_fit({}, d)) == 2


def test_printed_metrics_carry_a_name_and_a_unit_matching_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {"wall_s": [1.0, 1.2, 1.1], "traced_wall_s": [1.5]}
    printed = {
        "end_to_end": bench.end_to_end_metrics(summary, [0.4, 0.5]),
        "per_layer": bench.layer_metrics([{}], summary),
    }
    for section, metrics in printed.items():
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared
        for m in metrics.values():
            assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))


def test_workload_whys_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
