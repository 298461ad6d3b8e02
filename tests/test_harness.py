from __future__ import annotations

import csv
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import table, uniform_space
from interaction_bounds import bounds, functionals, harness
from interaction_bounds.functionals import interaction
from interaction_bounds.harness import (
    CHECKS,
    RandomInstanceSpec,
    SuiteReport,
    exact_tail,
    generate_instance,
    run_property_suite,
)
from interaction_bounds.cli import main
from interaction_bounds.rng import derive_seed, substream
from interaction_bounds.space import CapacityError, TabulatedFunction, expectation


class TestRng:
    def test_substreams_reproducible(self):
        a = substream(7, 1, 2).integers(0, 1 << 32, size=4)
        b = substream(7, 1, 2).integers(0, 1 << 32, size=4)
        assert np.array_equal(a, b)

    def test_substreams_distinct(self):
        a = substream(7, 1, 2).integers(0, 1 << 32, size=4)
        b = substream(7, 1, 3).integers(0, 1 << 32, size=4)
        assert not np.array_equal(a, b)

    def test_derive_seed_range(self):
        s = derive_seed(123, 4, 5)
        assert 0 <= s < 1 << 63
        assert s == derive_seed(123, 4, 5)


class TestGenerateInstance:
    def test_deterministic(self):
        spec = RandomInstanceSpec(seed=42)
        s1, f1 = generate_instance(spec)
        s2, f2 = generate_instance(spec)
        assert s1 == s2
        assert np.array_equal(f1.values, f2.values)

    def test_different_seeds_differ(self):
        _, f1 = generate_instance(RandomInstanceSpec(seed=1))
        _, f2 = generate_instance(RandomInstanceSpec(seed=2))
        assert f1.space != f2.space or not np.array_equal(f1.values, f2.values)

    def test_pure_sum_has_no_interaction(self):
        spec = RandomInstanceSpec(values="sum_plus_perturbation", epsilon=0.0, seed=5)
        _, f = generate_instance(spec)
        assert interaction(f) <= 1e-12

    def test_uniform_values_in_range(self):
        spec = RandomInstanceSpec(n_axes=(3, 3), axis_size=(3, 3), seed=9)
        space, f = generate_instance(spec)
        assert space.size == 27
        assert f.values.min() >= -1.0 and f.values.max() <= 1.0

    def test_dirichlet_weights_valid(self):
        spec = RandomInstanceSpec(weights="dirichlet", seed=11)
        space, _ = generate_instance(spec)
        for axis in space.axes:
            assert abs(math.fsum(axis.weights) - 1.0) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            RandomInstanceSpec(n_axes=(3, 2))
        with pytest.raises(ValueError):
            RandomInstanceSpec(values="cauchy")
        with pytest.raises(ValueError):
            RandomInstanceSpec(weights="zipf")
        with pytest.raises(ValueError):
            RandomInstanceSpec(epsilon=-1.0)
        with pytest.raises(ValueError, match=r"epsilon must be in \[0, 1\]"):
            RandomInstanceSpec(epsilon=1.5)


class TestExactTail:
    def test_beyond_range_is_zero(self):
        f = table(uniform_space(2, 2), lambda c: float(sum(c)))
        tmax = f.max() - expectation(f)
        assert exact_tail(f, tmax) == 0.0
        assert exact_tail(f, tmax + 1.0) == 0.0

    def test_below_range_is_one(self):
        f = table(uniform_space(2, 2), lambda c: float(sum(c)))
        tmin = f.min() - expectation(f)
        assert exact_tail(f, tmin - 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_two_point(self):
        f = table(uniform_space(2), lambda c: float(c[0]))
        assert exact_tail(f, 0.4) == pytest.approx(0.5)

    def test_nonincreasing(self):
        rng = np.random.default_rng(3)
        space = uniform_space(3, 3)
        f = TabulatedFunction(space, rng.uniform(-1, 1, space.size))
        ts = np.linspace(-2.0, 2.0, 41)
        tails = [exact_tail(f, float(t)) for t in ts]
        assert all(a >= b for a, b in zip(tails, tails[1:]))


class TestPropertySuite:
    def test_count_zero_gives_empty_report(self):
        report = run_property_suite(RandomInstanceSpec(seed=1), count=0)
        assert report.checks == ()
        assert report.passed

    def test_small_run_passes(self):
        report = run_property_suite(
            RandomInstanceSpec(seed=2024), count=6, entropy_count=2, scalar_count=10
        )
        assert report.passed, report.format_table()
        names = {c.name for c in report.checks}
        assert names == {name for name, _ in CHECKS}
        by_name = {c.name: c for c in report.checks}
        assert by_name["efron_stein"].instances == 6
        assert by_name["herbst_identity"].instances == 2 * 4  # beta grid

    def test_tables_built_once_per_function(self, monkeypatch):
        # scv(f) and variance(f) are shared between the exact checks and the
        # bounds; scv(rescaled) and the self-bounding operator of f do not
        # depend on beta.
        built = {"scv": [], "variance": [], "self_bounding_operator": []}
        # The counters live in this process, so the builds must run here too.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        for module in (harness, bounds):
            for name, calls in built.items():
                if hasattr(module, name):

                    def counting(g, *args, _build=getattr(module, name), _calls=calls):
                        _calls.append(g)
                        return _build(g, *args)

                    monkeypatch.setattr(module, name, counting)
        report = run_property_suite(
            RandomInstanceSpec(seed=2024), count=2, entropy_count=2, scalar_count=1
        )
        assert report.passed, report.format_table()
        for name, calls in built.items():
            assert calls, name
            assert len({id(g) for g in calls}) == len(calls), name

    def test_one_gibbs_state_per_rescaled_function_and_beta(self, monkeypatch):
        # The bennett_entropy check reads the entropy of the rescaled f and a
        # tilted expectation from one Gibbs state.
        states = []
        for module in (harness, functionals):
            def counting(g, beta, *args, _build=module.gibbs):
                states.append((g, beta))
                return _build(g, beta, *args)

            monkeypatch.setattr(module, "gibbs", counting)
        spec = RandomInstanceSpec(seed=5)
        _, f = generate_instance(spec)
        g = TabulatedFunction(f.space, np.linspace(-1.0, 1.0, f.space.size))
        list(harness._entropy_checks(f, g))
        rescaled = [beta for h, beta in states if h is not f]
        assert sorted(rescaled) == sorted(harness.BETA_GRID)

    def test_sparse_values_also_pass(self):
        report = run_property_suite(
            RandomInstanceSpec(seed=77, values="sparse"),
            count=4,
            entropy_count=1,
            scalar_count=5,
        )
        assert report.passed, report.format_table()

    def test_dirichlet_weights_also_pass(self):
        report = run_property_suite(
            RandomInstanceSpec(seed=78, weights="dirichlet"),
            count=4,
            entropy_count=1,
            scalar_count=5,
        )
        assert report.passed, report.format_table()

    def test_injected_bug_is_reported_with_witness(self):
        report = run_property_suite(
            RandomInstanceSpec(seed=3), count=3, entropy_count=1, scalar_count=5,
            inject_bug=True,
        )
        assert not report.passed
        failed = {c.name: c for c in report.checks if not c.passed}
        assert "efron_stein" in failed
        assert failed["efron_stein"].witness_seed is not None

    def test_witness_seed_reproduces_instance(self):
        spec = RandomInstanceSpec(seed=3)
        report = run_property_suite(
            spec, count=3, entropy_count=1, scalar_count=5, inject_bug=True
        )
        witness = next(
            c.witness_seed for c in report.checks if c.name == "efron_stein"
        )
        import dataclasses

        _, f = generate_instance(dataclasses.replace(spec, seed=witness))
        assert f.space.size >= 2  # regenerable instance

    def test_deterministic_report(self):
        a = run_property_suite(
            RandomInstanceSpec(seed=5), count=4, entropy_count=1, scalar_count=5
        )
        b = run_property_suite(
            RandomInstanceSpec(seed=5), count=4, entropy_count=1, scalar_count=5
        )
        assert a.to_json() == b.to_json()

    def test_format_table_lists_all_checks(self):
        report = run_property_suite(
            RandomInstanceSpec(seed=6), count=2, entropy_count=1, scalar_count=3
        )
        text = report.format_table()
        for name, _ in CHECKS:
            assert name in text


class TestWorkers:
    """The number of forked workers changes neither the report nor the errors."""

    @pytest.fixture(autouse=True)
    def no_process_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "spec, kwargs",
        [
            (RandomInstanceSpec(seed=11), dict(count=12, scalar_count=5)),
            (
                RandomInstanceSpec(seed=12, values="sparse", weights="dirichlet"),
                dict(count=9, entropy_count=4, scalar_count=3),
            ),
            (RandomInstanceSpec(seed=13), dict(count=7, scalar_count=3, inject_bug=True)),
            (RandomInstanceSpec(seed=14), dict(count=1, entropy_count=1, scalar_count=3)),
            (RandomInstanceSpec(seed=15), dict(count=2, entropy_count=0, scalar_count=3)),
            (RandomInstanceSpec(seed=16), dict(count=0)),
        ],
        ids=[
            "defaults", "sparse-dirichlet", "inject-bug", "fewer-jobs", "no-entropy", "empty"
        ],
    )
    def test_report_does_not_depend_on_cpus(self, monkeypatch, spec, kwargs):
        reports = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_cpu_count", lambda cpus=cpus: cpus)
            reports.append(run_property_suite(spec, **kwargs))
        serial = reports[0]
        for report in reports[1:]:
            assert report == serial
            assert report.to_json() == serial.to_json()
            assert report.format_table() == serial.format_table()
        if kwargs.get("inject_bug"):
            witness = {c.name: c.witness_seed for c in serial.checks}["efron_stein"]
            assert witness == derive_seed(spec.seed, 1, 0)

    def test_events_replay_in_serial_order(self, monkeypatch):
        streams = []
        real = harness._Accumulator.add

        def recording(acc, violation, seed):
            streams[-1].append((acc.name, violation, seed))
            real(acc, violation, seed)

        monkeypatch.setattr(harness._Accumulator, "add", recording)
        for cpus in (1, 3):
            monkeypatch.setattr(harness, "_cpu_count", lambda cpus=cpus: cpus)
            streams.append([])
            run_property_suite(RandomInstanceSpec(seed=17), count=5, scalar_count=2)
        assert streams[1] == streams[0]
        seeds = [seed for name, _, seed in streams[0] if name == "efron_stein"]
        assert seeds == [derive_seed(17, 1, i) for i in range(5)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("inject_bug", [False, True])
    def test_cli_bytes_do_not_depend_on_cpus(
        self, monkeypatch, tmp_path, capsys, fmt, inject_bug
    ):
        config = tmp_path / "cfg.json"
        config.write_text(
            '{"command": "verify", "params": {"inject_bug": %s}}' % str(inject_bug).lower()
        )
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(harness, "_cpu_count", lambda cpus=cpus: cpus)
            out = tmp_path / f"out-{cpus}.{fmt}"
            argv = ["--config", str(config), "--count", "6", "--seed", "3",
                    "--format", fmt, "--out", str(out)]
            code = main(argv)
            runs.append((code, capsys.readouterr(), out.read_bytes()))
        assert runs[0][0] == (1 if inject_bug else 0)
        assert runs[1] == runs[0]

    def test_one_cpu_runs_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        ran = []
        real = harness._suite_job

        def recording(spec, jobs, tail_points, inject_bug, position):
            ran.append((jobs[position], os.getpid()))
            return real(spec, jobs, tail_points, inject_bug, position)

        monkeypatch.setattr(harness, "_suite_job", recording)
        run_property_suite(
            RandomInstanceSpec(seed=4), count=3, entropy_count=2, scalar_count=1
        )
        jobs = [(1, 0), (1, 1), (1, 2), (3, 0), (3, 1), (harness._SCALAR_STREAM, 1)]
        assert ran == [(job, os.getpid()) for job in jobs]

    @pytest.mark.parametrize("params, code", [
        ({}, 0),
        ({"scalar_count": 0}, 0),
        ({"inject_bug": True}, 1),
    ], ids=["defaults", "no-scalar-triples", "inject-bug"])
    def test_scalar_job_bytes_do_not_depend_on_cpus(
        self, monkeypatch, tmp_path, capsys, params, code
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "verify", "params": params}))
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_cpu_count", lambda cpus=cpus: cpus)
            out = tmp_path / f"out-{cpus}.csv"
            assert main(["--config", str(config), "--count", "5", "--out", str(out)]) == code
            runs.append((capsys.readouterr(), out.read_text()))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        rows = {row[0]: row for row in csv.reader(runs[0][1].splitlines()[2:])}
        assert rows["psi_ratio_grid"][1] == str(len(harness.A_GRID) * 99)
        assert rows["chernoff_infimum"][1] == str(params.get("scalar_count", 100))
        if params.get("inject_bug"):
            assert rows["efron_stein"][4:] == ["false", str(derive_seed(0, 1, 0))]

    def test_instance_error_wins_over_the_scalar_job(self, monkeypatch):
        spec = RandomInstanceSpec(seed=22)
        over = derive_seed(spec.seed, 1, 1)
        real = harness.generate_instance

        def capped(s):
            if s.seed == over:
                raise CapacityError(f"instance {s.seed} has too many configurations")
            return real(s)

        def failing(rng, scalar_count):
            raise ValueError("scalar lemmas failed")

        monkeypatch.setattr(harness, "generate_instance", capped)
        monkeypatch.setattr(harness, "_scalar_checks", failing)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_cpu_count", lambda cpus=cpus: cpus)
            with pytest.raises(CapacityError, match=f"^instance {over} has"):
                run_property_suite(spec, count=3, scalar_count=1)
        monkeypatch.setattr(harness, "generate_instance", real)
        with pytest.raises(ValueError, match="^scalar lemmas failed$"):
            run_property_suite(spec, count=3, scalar_count=1)

    @pytest.mark.skipif(harness._cpu_count() < 2, reason="needs two CPUs to fork workers")
    def test_coordinator_loads_no_numpy_random(self):
        # A fresh interpreter: on two or more CPUs every check, and so every
        # seeded stream, runs in a worker.
        script = textwrap.dedent("""
            import contextlib, io, sys
            from interaction_bounds.cli import main

            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert main(["verify", "--count", "4"]) == 0
            print("numpy.random" in sys.modules)
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout == "False\n"

    def test_earliest_instance_error_wins(self, monkeypatch, capsys):
        # Jobs (1, 0) .. (1, 4), (3, 0): pairs 2 and 4 and the entropy
        # instance fail.  The serial loop stops at pair 2, so every worker
        # count must raise pair 2's error, whichever worker took which job.
        spec = RandomInstanceSpec(seed=21)
        over = {derive_seed(spec.seed, 1, 4), derive_seed(spec.seed, 1, 2),
                derive_seed(spec.seed, 3, 0)}
        real = harness.generate_instance

        def capped(s):
            if s.seed in over:
                raise CapacityError(f"instance {s.seed} has too many configurations")
            return real(s)

        monkeypatch.setattr(harness, "generate_instance", capped)
        expected = f"instance {derive_seed(spec.seed, 1, 2)} has too many configurations"
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "_cpu_count", lambda cpus=cpus: cpus)
            with pytest.raises(CapacityError) as caught:
                run_property_suite(spec, count=5, scalar_count=1)
            assert str(caught.value) == expected

        over = {derive_seed(spec.seed, 3, 0)}  # only the last job
        expected_last = f"instance {derive_seed(spec.seed, 3, 0)} has too many configurations"
        assert main(["verify", "--seed", "21", "--count", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {expected_last}\n"

    def test_killed_worker_is_one_failure_line(self, monkeypatch, capsys):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(harness, "_suite_job", killed)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        assert main(["verify", "--count", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        expected = "worker failure: a suite worker ended by SIGKILL without a result\n"
        assert captured.err == expected

    def test_interrupt_in_parent_kills_running_workers(self, monkeypatch):
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        def sleeping(*args):
            time.sleep(60)

        monkeypatch.setattr(harness, "_suite_job", sleeping)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        previous = signal.signal(signal.SIGALRM, interrupt)
        start = time.monotonic()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_property_suite(RandomInstanceSpec(seed=1), count=2, scalar_count=1)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_results_in_job_order(self, monkeypatch, cpus, count):
        monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
        assert harness._fork_map(lambda p: p * p, count) == [p * p for p in range(count)]

    def test_no_jobs_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked a worker for no jobs")

        monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
        monkeypatch.setattr(os, "fork", no_fork)
        assert harness._fork_map(lambda p: p, 0) == []

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_earliest_error_wins(self, monkeypatch, cpus):
        # Every job after job 0 fails.  The first worker holds job 0 while
        # the others fail jobs 1 and 2, then fails a later job itself, and it
        # is reaped first; the serial loop raises job 1's error.
        def job(p):
            if p == 0:
                time.sleep(0.2)
                return p
            raise ValueError(f"job {p}")

        monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
        with pytest.raises(ValueError, match="^job 1$"):
            harness._fork_map(job, 6)
