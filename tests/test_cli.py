from __future__ import annotations

import contextlib
import copy
import dataclasses
import functools
import importlib.machinery
import importlib.util
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import interaction_bounds
import oracles

from interaction_bounds import bounds, cli, exchangeable, rls
from interaction_bounds import ustat as usmod
from interaction_bounds.cli import main
from interaction_bounds.rng import derive_seed
from interaction_bounds.space import CapacityError, FiniteAxis
from interaction_bounds.ustat import UStatProblem, product_kernel


def read(path):
    return path.read_text(encoding="utf-8")


def assert_one_config_error(capsys):
    """The run wrote one ``config error:`` line to stderr and nothing else."""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "argv", [["verify", "--count", "2"], ["ustat"], ["rls"], ["bounds-table"], ["normal-limit-demo"]]
)
def test_json_output_is_strict_json(argv, capsys):
    # NaN and the infinities are not JSON; a strict parser rejects them.
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    assert main([*argv, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["schema"] == 1


class TestVerifyCommand:
    def test_passes_and_writes_schema_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["verify", "--count", "3", "--seed", "11", "--out", str(out)])
        assert code == 0
        text = read(out)
        assert text.startswith("#schema=1\n")
        assert "efron_stein" in text
        table = capsys.readouterr().err
        assert "chernoff_infimum" in table

    def test_json_on_stdout_parses(self, capsys):
        assert main(["verify", "--count", "2", "--seed", "3", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["count"] == 2
        assert "chernoff_infimum" in captured.err

    def test_negative_count_is_config_error(self, capsys):
        assert main(["verify", "--count", "-1"]) == 2
        assert_one_config_error(capsys)

    def test_count_zero_empty_report(self, tmp_path):
        out = tmp_path / "empty.json"
        code = main(
            ["verify", "--count", "0", "--seed", "1", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(read(out))
        assert doc["checks"] == []
        assert doc["passed"] is True

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["verify", "--count", "4", "--seed", "5", "--out", str(a)]) == 0
        assert main(["verify", "--count", "4", "--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_injected_bug_fails_with_exit_one(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "verify",
                    "seed": 3,
                    "count": 2,
                    "params": {"inject_bug": True, "scalar_count": 3, "entropy_count": 1},
                }
            )
        )
        out = tmp_path / "bug.json"
        code = main(["--config", str(config), "--format", "json", "--out", str(out)])
        assert code == 1
        doc = json.loads(read(out))
        failing = [c for c in doc["checks"] if not c["passed"]]
        assert failing and failing[0]["witness_seed"] is not None


class TestConfigHandling:
    def test_non_integer_seed(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "verify", "seed": "abc"}))
        assert main(["--config", str(config)]) == 2
        assert "seed" in assert_one_config_error(capsys)

    def test_unknown_top_level_field(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "verify", "speed": 3}))
        assert main(["--config", str(config)]) == 2
        assert "speed" in capsys.readouterr().err

    def test_unknown_params_field(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"command": "verify", "params": {"entropy_cont": 1}})
        )
        assert main(["--config", str(config)]) == 2
        assert "entropy_cont" in capsys.readouterr().err

    def test_missing_command(self):
        assert main([]) == 2

    def test_params_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "verify", "params": 5}))
        assert main(["--config", str(config)]) == 2
        assert "params" in assert_one_config_error(capsys)

    def test_null_params_mean_the_defaults(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "normal-limit-demo", "params": None}))
        assert main(["--config", str(config)]) == 0
        assert capsys.readouterr().err == ""

    def test_params_of_wrong_type(self, tmp_path, capsys):
        for command, params in (
            ("verify", {"tail_points": "abc"}),
            ("rls", {"t_points": "abc"}),
            ("bounds-table", {"t_points": "abc"}),
            ("ustat", {"m_values": 3}),
            ("ustat", {"n_values": ["x"]}),
            ("normal-limit-demo", {"n_values": ["x"]}),
        ):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"command": command, "params": params}))
            assert main(["--config", str(config)]) == 2, (command, params)
            assert f"bad {command} params" in assert_one_config_error(capsys)

    # (command, params, top-level fields, text the error must contain).  A dict
    # under "path" holds the fields an rls problem document changes from PROBLEM;
    # a top-level field named like "--out" is passed as that flag instead.
    BAD_INPUTS = [
        ("verify", {"tail_points": -5}, {}, "tail_points must be >= 1"),
        ("verify", {"scalar_count": -1}, {}, "scalar_count must be >= 0"),
        ("verify", {"entropy_count": -1}, {}, "entropy_count must be >= 0"),
        ("verify", {"inject_bug": "no"}, {}, "inject_bug must be true or false"),
        ("verify", {"inject_bug": 1}, {}, "inject_bug must be true or false"),
        ("bounds-table", {"t_points": -3}, {}, "t_points must be >= 1"),
        ("rls", {"t_points": -2}, {}, "t_points must be >= 1"),
        ("rls", {"mc_samples": 0}, {}, "mc_samples must be >= 1"),
        ("rls", {"replications": 1}, {}, "replications must be >= 2"),
        ("rls", {"grid": 0}, {}, "grid must be >= 1"),
        ("rls", {"h": 1}, {}, "h must be in (0, 0.25)"),
        ("rls", {"c": 0}, {}, "c must be in (0, inf)"),
        ("rls", {"lambda_sweep": [0.5, 1.5]}, {}, "lambda_sweep entries must be in (0, 1)"),
        ("rls", {"path": {"lambda": 1.5}}, {}, "lambda must be in (0, 1), got 1.5"),
        ("rls", {"path": {"n": 1}}, {}, "n must be >= 2, got 1"),
        ("ustat", {"m_values": [1]}, {}, "m_values entries must be >= 2"),
        ("ustat", {"t_values": [-1]}, {}, "t_values entries must be in (0, inf)"),
        ("ustat", {"mc_samples": 0}, {}, "mc_samples must be >= 1"),
        ("ustat", {"kernel": "nope", "m_values": []}, {}, "kernel must be one of"),
        ("ustat", {"base_weights": [0.2, 0.3, 0.5]}, {}, "base_points must align"),
        ("ustat", {"kernel": "mean", "base_points": [-2.0, 2.0]}, {}, "kernel value -2.0"),
        ("normal-limit-demo", {"kernel": "mean", "base_points": [0.0, 3.0]}, {}, "kernel value"),
        ("normal-limit-demo", {"n_values": [1]}, {}, "n_values (1,) must all exceed m = 2"),
        ("normal-limit-demo", {"m": 1}, {}, "m must be >= 2"),
        ("normal-limit-demo", {"t": -1}, {}, "t must be in (0, inf)"),
        ("normal-limit-demo", {"n_values": [30]}, {"cap": 30}, "exceed the cap of 30"),
        ("normal-limit-demo", {}, {"cap": -1}, "cap must be >= 1, got -1"),
        ("verify", {}, {"cap": 0}, "cap must be >= 1, got 0"),
        ("bounds-table", {"t_points": 2.7}, {}, "t_points: expected an integer, got 2.7"),
        ("bounds-table", {"t_points": True}, {}, "t_points: expected an integer, got True"),
        ("ustat", {"m_values": [2, 2.5]}, {}, "m_values: expected an integer, got 2.5"),
        ("verify", {}, {"seed": 1.5}, "expected an integer, got 1.5"),
        ("verify", {}, {"count": True}, "expected an integer, got True"),
        ("ustat", {}, {"cap": 1e3 + 0.5}, "expected an integer, got 1000.5"),
        ("verify", {"n_axes": [2, 4, 6]}, {}, "n_axes: got 3 entries, expected 2"),
        ("ustat", {"base_points": []}, {}, "base_points: got 0 entries, expected at least 1"),
        ("normal-limit-demo", {"base_weights": []}, {}, "base_weights: got 0 entries, expected at least 1"),
        ("ustat", {"base_points": [math.nan, 0.5]}, {}, "base_points: expected a finite number, got nan"),
        ("normal-limit-demo", {"base_points": [math.nan, 0.5]}, {}, "base_points: expected a finite number, got nan"),
        ("verify", {"epsilon": math.nan}, {}, "epsilon: expected a finite number, got nan"),
        ("bounds-table", {"epsilon": -math.inf}, {}, "epsilon: expected a finite number, got -inf"),
        ("rls", {"path": {"population": [{"x": [math.nan], "y": 0.8, "p": 1.0}]}}, {},
         "atom 0: x: expected a finite number, got nan"),
        ("rls", {"path": {"population": [{"x": [0.9], "y": math.nan, "p": 1.0}]}}, {},
         "atom 0: y: expected a finite number, got nan"),
        ("rls", {"path": {"population": [{"x": [0.9], "y": 0.8, "p": math.nan}]}}, {},
         "atom 0: p: expected a finite number, got nan"),
        ("rls", {"path": {"population": [{"x": [0.9], "y": 0.8, "p": 1.0, "q": 0}]}}, {},
         "atom 0: unknown field(s) ['q']"),
        ("rls", {"path": {"population": [{"x": [0.9], "y": 0.8}]}}, {}, "atom 0: p is required"),
        ("rls", {}, {"cap": 3}, "9 sample multisets exceed the cap of 3"),
        ("verify", {"epsilon": 2}, {"count": 1}, "epsilon must be in [0, 1], got 2.0"),
        ("verify", {"epsilon": -0.5}, {"count": 1}, "epsilon must be in [0, 1], got -0.5"),
        ("bounds-table", {"values": "sum_plus_perturbation", "epsilon": 1e160}, {"count": 1},
         "epsilon must be in [0, 1], got 1e+160"),
        ("verify", {}, {"command": ["verify"]}, "command: expected a string, got ['verify']"),
        ("verify", {}, {"command": {}}, "command: expected a string, got {}"),
        ("normal-limit-demo", {}, {"out": True}, "out: expected a string, got True"),
        ("normal-limit-demo", {}, {"out": 7}, "out: expected a string, got 7"),
        # only an absent or null params block means {}
        ("verify", {}, {"params": []}, "params must be an object, got []"),
        ("verify", {}, {"params": False}, "params must be an object, got False"),
        ("verify", {}, {"params": 0}, "params must be an object, got 0"),
        ("verify", {}, {"params": ""}, "params must be an object, got ''"),
        # an empty out, from the config and from the flag
        ("normal-limit-demo", {}, {"out": ""}, "out must be a nonempty path, got ''"),
        ("normal-limit-demo", {}, {"--out": ""}, "out must be a nonempty path, got ''"),
        # a --count or --cap that the command does not read, from the flag and from the config
        ("rls", {}, {"--count": "7"}, "--count is not read by rls"),
        ("ustat", {}, {"count": 0}, "--count is not read by ustat"),
        ("normal-limit-demo", {}, {"--count": "3"}, "--count is not read by normal-limit-demo"),
        ("verify", {}, {"--cap": "5"}, "--cap is not read by verify"),
        ("verify", {}, {"cap": 10_000_000}, "--cap is not read by verify"),
        # a product space holds at most 10^7 configurations, which --cap does not
        # reach: a --cap that would admit 4^12 is refused, and so is the space
        ("bounds-table", {"n_axes": [12, 12], "axis_size": [4, 4]}, {"--cap": "20000000"},
         "--cap is not read by bounds-table"),
        ("bounds-table", {"n_axes": [12, 12], "axis_size": [4, 4]}, {},
         "16777216 configurations exceed the cap of 10000000"),
        # a seed outside 64 bits, which the streams would wrap
        ("rls", {}, {"--seed": "-1"}, "seed must be in 0..2^64-1, got -1"),
        ("verify", {}, {"seed": 1 << 64}, "seed must be in 0..2^64-1, got 18446744073709551616"),
    ]
    PROBLEM = {"dim": 1, "lambda": 0.5, "n": 8, "population": [{"x": [0.9], "y": 0.8, "p": 1.0}]}

    @pytest.mark.parametrize("command, params, top, text", BAD_INPUTS)
    def test_bad_input_is_one_config_error(self, tmp_path, capsys, command, params, top, text):
        problem = isinstance(params.get("path"), dict)
        if problem:
            path = tmp_path / "problem.json"
            path.write_text(json.dumps({**self.PROBLEM, **params["path"]}))
            params = {"path": str(path)}
        flags = [arg for key, value in top.items() if key.startswith("--") for arg in (key, value)]
        top = {key: value for key, value in top.items() if not key.startswith("--")}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": command, "params": params, **top}))
        assert main(["--config", str(config), *flags]) == 2
        err = assert_one_config_error(capsys)
        assert text in err, err
        if problem:
            assert "bad rls problem document" in err, err

    def test_largest_seed_runs(self, capsys):
        assert main(["bounds-table", "--count", "1", "--seed", str((1 << 64) - 1)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, runner", [
        ("verify", "run_property_suite"), ("bounds-table", "tail_curve"),
    ])
    def test_out_of_memory_hint_only_where_cap_is_read(self, command, runner, monkeypatch, capsys):
        # both commands refuse --cap, so the out-of-memory line must not advise it
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(cli, runner, exhausted)
        assert main([command, "--count", "1"]) == 2
        err = assert_one_config_error(capsys)
        assert err == "config error: out of memory (Unable to allocate 74.5 GiB for an array)\n"

    @pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-dir", "directory"])
    def test_unwritable_out_is_one_config_error(self, tmp_path, capsys, missing_dir):
        out = tmp_path / "missing" / "x.csv" if missing_dir else tmp_path
        assert main(["normal-limit-demo", "--out", str(out)]) == 2
        assert str(out) in assert_one_config_error(capsys)

    def test_unparseable_json(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text("{not json")
        assert main(["--config", str(config)]) == 2

    def test_flag_overrides_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "verify", "count": 0, "seed": 9}))
        out = tmp_path / "r.json"
        code = main(
            ["--config", str(config), "--count", "2", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(read(out))
        assert doc["count"] == 2
        assert doc["seed"] == 9


class TestProblemDocument:
    """The rls problem document, read by ``cli._rls_problem``."""

    DOC = {
        "dim": 1,
        "lambda": 0.5,
        "n": 8,
        "population": [{"x": [0.9], "y": 0.8, "p": 0.5}, {"x": [-0.7], "y": -0.6, "p": 0.5}],
    }

    def test_round_trip(self):
        pop, n, lam = cli._rls_problem(self.DOC, "problem")
        assert n == 8 and lam == 0.5 and pop.size == 2
        assert pop.xs.tolist() == [[0.9], [-0.7]] and pop.ys.tolist() == [0.8, -0.6]

    def test_unknown_fields_rejected(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli._rls_problem({**self.DOC, "bogus": 1}, "problem")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(cli.ConfigError, match="atom 0: x: got 1 entries, expected 2"):
            cli._rls_problem({**self.DOC, "dim": 2}, "problem")

    @pytest.mark.parametrize("field, value", [("lambda", 1.5), ("lambda", 0.0), ("n", 1)])
    def test_out_of_range_lambda_and_n_rejected(self, field, value):
        with pytest.raises(cli.ConfigError, match=f"{field} must be .*, got {value}"):
            cli._rls_problem({**self.DOC, field: value}, "problem")


#: A valid tabulated kernel document: the product kernel on {-1, 1}.
KERNEL_DOC = {"points": [-1.0, 1.0], "table": [1.0, -1.0, -1.0, 1.0], "m": 2}


@pytest.mark.parametrize("change, text", [
    ({"scale": 2}, "unknown field(s) ['scale']"),
    ({"m": None}, "m: int() argument must be"),
    ({"table": [1.0, -1.0, -1.0, math.nan]}, "table: expected a finite number, got nan"),
    ({"points": []}, "points: got 0 entries, expected at least 1"),
    ({"m": 1}, "m must be >= 2, got 1"),
    # 2^(2^63) entries: refused from the table's length, without the power
    ({"m": 1 << 63}, f"table needs 2^{1 << 63} entries, got 4"),
])
def test_bad_kernel_document_is_one_config_error(tmp_path, capsys, change, text):
    kernel_path = tmp_path / "kernel.json"
    kernel_path.write_text(json.dumps({**KERNEL_DOC, **change}))
    config = tmp_path / "cfg.json"
    params = {"kernel_path": str(kernel_path), "m_values": [2], "n_values": [10]}
    config.write_text(json.dumps({"command": "ustat", "params": params}))
    assert main(["--config", str(config)]) == 2
    err = assert_one_config_error(capsys)
    assert f"bad kernel document {str(kernel_path)!r}: {text}" in err, err


#: Any JSON value, with lists and objects of at most 8 entries, so that no
#: kernel table grows large.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=8)
    | st.sampled_from([1 << 63, 1 << 64, -(1 << 64), 10**400]),
    lambda inner: (
        st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=8), inner, max_size=8)
    ),
    max_leaves=16,
)


@pytest.mark.parametrize("document", ["config", "params", "problem", "atom", "kernel"])
@given(data=st.data())
def test_one_field_of_any_value_is_read_or_one_config_error(document, data):
    # A valid run whose config, params, rls problem (or one of its atoms) or
    # tabulated kernel has one field replaced by any JSON value.
    config = {"command": "ustat", "seed": 3, "out": "out.csv", "format": "json", "params": {}}
    problem, kernel = copy.deepcopy(TestProblemDocument.DOC), dict(KERNEL_DOC)
    if document == "config":
        target, fields = config, cli._CONFIG_FIELDS
    elif document == "params":
        config["command"] = data.draw(st.sampled_from(sorted(cli._SCHEMA)))
        target, fields = config["params"], cli._SCHEMA[config["command"]].fields
    elif document == "kernel":
        config["params"] = {"kernel_path": "kernel.json", "m_values": [2], "n_values": [10]}
        target, fields = kernel, cli._KERNEL_DOCUMENT
    elif document == "problem":
        config.update(command="rls", params={"path": "problem.json"})
        target, fields = problem, cli._PROBLEM_DOCUMENT
    else:
        config.update(command="rls", params={"path": "problem.json"})
        target, fields = problem["population"][0], cli._atom_fields(1)
    target[data.draw(st.sampled_from([*fields, "bogus"]))] = data.draw(JSON_VALUES)
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        for name, doc in {"config": config, "problem": problem, "kernel": kernel}.items():
            Path(f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for name, command in cli._SCHEMA.items():
            patch.setitem(cli._SCHEMA, name, dataclasses.replace(command, run=lambda config: 0))
        try:  # only the reader runs, and it refuses with nothing but these two
            cli._build_config(cli._parser().parse_args(["--config", "config.json"]))
            refused = False
        except (cli.ConfigError, CapacityError):
            refused = True
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            status = main(["--config", "config.json"])
    err = err.getvalue()
    if refused:
        assert status == 2 and err.startswith("config error: ") and err.count("\n") == 1, err
    else:
        assert status == 0 and err == "", err


def test_rls_loads_lapack_without_scipy_linalg():
    # A fresh interpreter: verify loads no scipy module, rls loads only the
    # LAPACK extension, and its routines are the ones scipy.linalg.lapack exports.
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from interaction_bounds import rls
        from interaction_bounds.cli import main

        def scipy_modules():
            return sorted(name for name in sys.modules if name.startswith("scipy"))

        loaded = [scipy_modules()]
        for argv in (["verify", "--count", "2"], ["rls"]):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                assert main(argv) == 0, argv
            loaded.append(scipy_modules())
        import scipy.linalg.lapack
        dpotrf, dpotrs = rls._lapack()
        same = dpotrf is scipy.linalg.lapack.dpotrf and dpotrs is scipy.linalg.lapack.dpotrs
        print(json.dumps({"loaded": loaded, "same": same}))
    """)
    src = str(Path(interaction_bounds.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120, check=True,
    )
    got = json.loads(done.stdout)
    assert got["loaded"][:2] == [[], []]
    assert "scipy" not in got["loaded"][2] and "scipy.linalg" not in got["loaded"][2]
    assert got["same"]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
@pytest.mark.parametrize("threads", [None, "3"])
def test_lapack_starts_no_thread_pool(threads):
    # A fresh interpreter: loading scipy's LAPACK adds no thread, and leaves
    # OPENBLAS_NUM_THREADS as it found it.
    script = textwrap.dedent("""
        import json, os
        from interaction_bounds import rls

        before = len(os.listdir("/proc/self/task"))
        rls._lapack()
        after = len(os.listdir("/proc/self/task"))
        print(json.dumps([before, after, os.environ.get("OPENBLAS_NUM_THREADS")]))
    """)
    src = str(Path(interaction_bounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    before, after, variable = json.loads(done.stdout)
    assert after == before
    assert variable == threads


@pytest.mark.parametrize("scipy_dir", ["missing", "broken"])
def test_missing_lapack_is_one_solver_failure_line(scipy_dir, tmp_path, monkeypatch, capsys):
    spec = None
    if scipy_dir == "broken":  # a scipy whose LAPACK extension does not load
        (tmp_path / "linalg").mkdir()
        (tmp_path / "linalg" / "_flapack.so").write_bytes(b"not a shared object")
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    rls._lapack.cache_clear()
    try:
        assert main(["rls"]) == 1
    finally:
        rls._lapack.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and err.count("\n") == 1, err
    assert "scipy.linalg._flapack" in err


@pytest.mark.parametrize("doc, argv", [
    # m^m leaves the float range in the comparison bound's linear coefficient.
    ({"command": "ustat", "params": {"m_values": [150], "n_values": [200]}}, []),
    # C(n, m) is no float.  The exact path takes tens of seconds here, so --cap
    # sends the run to the Monte Carlo path, which divides by C(n, m) too.
    ({"command": "ustat", "params": {"m_values": [142], "n_values": [20000], "mc_samples": 20}},
     ["--cap", "10"]),
    # 4^16 configurations: the table alone would take 32 GiB.
    ({"command": "verify", "params": {"n_axes": [16, 16], "axis_size": [4, 4]}}, []),
    ({"command": "bounds-table", "params": {"n_axes": [16, 16], "axis_size": [4, 4]}}, []),
], ids=["ustat-m150", "ustat-comb-overflow", "verify-4^16", "bounds-table-4^16"])
def test_extreme_config_exits_cleanly(doc, argv, tmp_path):
    # A fresh interpreter with 3 GiB of address space, so an oversized table
    # fails to allocate instead of filling memory.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    src = str(Path(interaction_bounds.__file__).resolve().parents[1])
    limit = 3 << 30
    done = subprocess.run(
        [sys.executable, "-m", "interaction_bounds.cli", "--config", str(config), *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    # Success says nothing on stderr; a capacity error says one line.
    assert done.returncode in (0, 2), done.stderr
    lines = done.stderr.splitlines()
    if done.returncode == 2:
        assert len(lines) == 1 and lines[0].startswith("config error: "), done.stderr
    else:
        assert lines == [], done.stderr


def test_monte_carlo_sample_beyond_one_draw_runs_in_blocks(tmp_path):
    # 1.25 million samples of the default problem (n = 8), the most that the
    # Monte Carlo budget of 10^7 sample points allows: one rng.choice call
    # holds 76 MB of uniforms and 76 MB of indices at once, more than the
    # 272 MiB of address space here leave beside the interpreter (a one-shot
    # draw fails below about 350 MiB); blocks of 2^14 sample points fit.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"command": "rls", "params": {"mc_samples": 1_250_000}}))
    src = str(Path(interaction_bounds.__file__).resolve().parents[1])
    limit = 272 << 20
    done = subprocess.run(
        [sys.executable, "-m", "interaction_bounds.cli", "--config", str(config)],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    assert done.stdout.count("bound_curve,tail,") == 10


def test_monte_carlo_cell_holds_one_block_of_sample_points(tmp_path):
    # 2,000 samples of n = 5,000 points from 20 base points: drawn at once
    # they are 76 MB of indices and as much again of uniforms, over the
    # 200 MiB of address space here; blocks of 2^14 sample points fit.
    base = np.linspace(-1.0, 1.0, 20).tolist()
    params = {"kernel": "mean", "base_points": base, "m_values": [2], "n_values": [5000]}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"command": "ustat", "params": params}))
    src = str(Path(interaction_bounds.__file__).resolve().parents[1])
    limit = 200 << 20
    done = subprocess.run(
        [sys.executable, "-m", "interaction_bounds.cli", "--config", str(config), "--format", "json"],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert rows and {row["tail_kind"] for row in rows} == {"mc"}


def test_order_twelve_kernel_file_is_checked_in_seconds(tmp_path):
    # 4,096 entries on two points: comparing each index tuple with its 12!
    # permutations would take days.  The value depends only on how many of
    # the twelve indices are 1, so the table is symmetric until entry 5,
    # (0, ..., 0, 1, 0, 1), moves; the first entry of its orbit is reported.
    table = (np.indices((2,) * 12).sum(axis=0).ravel() / 12.0 - 0.5).tolist()
    kernel_path, config = tmp_path / "kernel.json", tmp_path / "cfg.json"
    params = {"kernel_path": str(kernel_path), "m_values": [12], "n_values": [13, 20]}
    config.write_text(json.dumps({"command": "ustat", "params": params}))
    src = str(Path(interaction_bounds.__file__).resolve().parents[1])
    for status in (0, 2):
        table[5] += 1e-9 * status / 2
        kernel_path.write_text(json.dumps({"points": [-1.0, 1.0], "table": table, "m": 12}))
        done = subprocess.run(
            [sys.executable, "-m", "interaction_bounds.cli", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == status, done.stderr
        if status:
            assert done.stderr.startswith("config error: ") and done.stderr.count("\n") == 1
            first = (0,) * 10 + (1, 1)
            assert done.stderr.rstrip().endswith(f"kernel table not symmetric at {first}")
        else:
            rows = done.stdout.splitlines()[2:]
            assert done.stderr == "" and rows and all(",exact," in row for row in rows)


class TestUstatCommand:
    def test_small_exact_run(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "ustat",
                    "seed": 1,
                    "params": {
                        "m_values": [2],
                        "n_values": [6],
                        "t_values": [0.1, 0.5],
                    },
                }
            )
        )
        out = tmp_path / "u.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert lines[0] == "#schema=1"
        assert len(lines) == 2 + 2  # header + one row per t
        assert ",exact," in lines[2]

    def test_mc_fallback_has_warning_note(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "ustat",
                    "seed": 1,
                    "params": {
                        "m_values": [2],
                        "n_values": [40],
                        "t_values": [0.2],
                        "mc_samples": 200,
                    },
                    "cap": 40,
                }
            )
        )
        out = tmp_path / "u.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        body = read(out)
        assert "fell back to Monte Carlo" in body

    @pytest.mark.parametrize(
        "params, cap, limit",
        [
            ({"kernel": "mean", "m_values": [4], "n_values": [50],
              "base_points": [-1.0, -0.5, 0.0, 0.5, 1.0]},
             1_000_000_000, "22137570 kernel terms exceed the cap of 10000000"),
            ({"m_values": [2], "n_values": [40]}, 40, "41 sample multisets exceed the cap of 40"),
        ],
        ids=["kernel-term-budget", "cap"],
    )
    def test_mc_fallback_note_names_the_limit(self, params, cap, limit, tmp_path, capsys):
        # --cap cannot lift the kernel-term budget, so the note must say which
        # limit refused the exact tails.
        config = tmp_path / "cfg.json"
        params = {**params, "t_values": [0.1, 0.5], "mc_samples": 200}
        config.write_text(json.dumps({"command": "ustat", "params": params}))
        assert main(["--config", str(config), "--cap", str(cap), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {row["tail_kind"] for row in rows} == {"mc"}
        assert {row["note"] for row in rows} == {
            f"exact tails: {limit}; fell back to Monte Carlo"
        }

    def test_mc_fallback_tails_are_the_one_shot_tails(self, tmp_path, capsys):
        samples = exchangeable.block_rows(40) + 1
        params = {"m_values": [2], "n_values": [40], "t_values": [0.05, 0.1, 0.2, 0.5],
                  "mc_samples": samples}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "ustat", "seed": 2, "params": params}))
        assert main(["--config", str(config), "--cap", "10", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert {row["tail_kind"] for row in rows} == {"mc"}
        problem = UStatProblem(product_kernel(2), FiniteAxis.uniform(2), (-1.0, 1.0))
        values = oracles.sample_u_values(problem, 40, samples, seed=2)
        want = oracles.mc_tails_of(np.abs(values - problem.u_mean), params["t_values"])
        assert [(row["tail"], row["tail_stderr"]) for row in rows] == want

    def test_mc_budget_counts_the_whole_sample_before_drawing(self, tmp_path, monkeypatch):
        # 142,858 samples times 70 kernel multisets exceed the 10^7 term budget,
        # though every block of 2^14 sample points would fit it
        def no_draws(*args):
            raise AssertionError("drew samples over the Monte Carlo budget")

        monkeypatch.setattr(cli, "mc_tails", no_draws)
        params = {"kernel": "mean", "m_values": [4], "n_values": [5], "t_values": [0.1, 0.5],
                  "base_points": [-1, -0.5, 0, 0.5, 1], "mc_samples": 142_858}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "ustat", "params": params, "cap": 100}))
        out = tmp_path / "u.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        # the parent's rows, byte for byte
        crossover = ["0.0098839133215641202"] * 2
        note = "tail skipped; Monte Carlo budget exceeded"
        want = [
            ["4", "5", "0.10000000000000001", "0.031250000000000014", "1.9993487816848123",
             "3.9998636181854788", "skipped", "", "", *crossover, note],
            ["4", "5", "0.5", "0.031250000000000014", "1.9867227751915006",
             "3.9993177652735463", "skipped", "", "", *crossover, note],
        ]
        lines = read(out).splitlines()
        assert lines[0] == "#schema=1" and len(lines) == 4
        assert [line.split(",") for line in lines[2:]] == want

    def test_one_multiset_table_per_sample_size(self, monkeypatch, capsys):
        # the default run: m in (2, 3, 4) and n in (10, 50, 200), nine exact cells
        sizes = []
        real = exchangeable.multisets

        def counting(n, s, *cap):
            sizes.append(n)
            return real(n, s, *cap)

        for module in (exchangeable, cli):
            monkeypatch.setattr(module, "multisets", counting, raising=False)
        # and the kernel once per multiset of base points, for each m
        evals = []
        factory = usmod.product_kernel

        def counted_kernel(m):
            kernel = factory(m)
            return dataclasses.replace(kernel, fn=lambda p: evals.append(m) or kernel.fn(p))

        monkeypatch.setattr(usmod, "product_kernel", counted_kernel)
        assert main(["ustat"]) == 0
        assert sorted(n for n in sizes if n >= 10) == [10, 50, 200]
        assert sorted(evals) == [2] * 3 + [3] * 4 + [4] * 5
        # the rows stay in m order, each m in n order, five t values a cell
        lines = capsys.readouterr().out.splitlines()[2:]
        cells = [tuple(int(v) for v in line.split(",")[:2]) for line in lines[::5]]
        assert cells == [(m, n) for m in (2, 3, 4) for n in (10, 50, 200)]

    def test_one_problem_per_kernel_order(self, monkeypatch):
        # the default run: m in (2, 3, 4) on two base points, so three problems
        # and 3 + 4 + 5 kernel values, shared by the nine cells
        problems, evals = [], []
        real = usmod.UStatProblem.__post_init__

        def counting(problem):
            problems.append(problem.kernel.m)
            real(problem)

        monkeypatch.setattr(usmod.UStatProblem, "__post_init__", counting)
        factory = usmod.product_kernel

        def counted_kernel(m):
            kernel = factory(m)
            return dataclasses.replace(kernel, fn=lambda p: evals.append(m) or kernel.fn(p))

        monkeypatch.setattr(usmod, "product_kernel", counted_kernel)
        assert main(["ustat", "--out", os.devnull]) == 0
        assert problems == [2, 3, 4]
        assert len(evals) == 12

    def test_sigma1_and_mean_once_per_kernel_order(self, monkeypatch):
        # neither depends on the sample size: three each for the nine cells
        calls = {"sigma1sq": [], "u_mean": []}
        for name, seen in calls.items():
            real = getattr(UStatProblem, name).func
            counted = functools.cached_property(
                lambda problem, _real=real, _seen=seen: _seen.append(problem.m) or _real(problem)
            )
            counted.__set_name__(UStatProblem, name)
            monkeypatch.setattr(UStatProblem, name, counted)
        assert main(["ustat", "--out", os.devnull]) == 0
        assert calls == {"sigma1sq": [2, 3, 4], "u_mean": [2, 3, 4]}

    def test_cell_over_the_kernel_term_budget_enumerates_no_sample_multisets(
        self, tmp_path, monkeypatch, capsys
    ):
        # 316,251 multisets of n = 50 draws from 5 points fit --cap, but times
        # 70 kernel multisets they exceed the term budget
        sizes = []
        real = exchangeable.multisets

        def counting(n, s, *cap):
            sizes.append(n)
            return real(n, s, *cap)

        monkeypatch.setattr(exchangeable, "multisets", counting)
        params = {"kernel": "mean", "m_values": [4], "n_values": [50], "t_values": [0.1],
                  "base_points": [-1.0, -0.5, 0.0, 0.5, 1.0], "mc_samples": 200}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "ustat", "params": params}))
        assert main(["--config", str(config), "--cap", "1000000000", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["tail_kind"], row["note"]) for row in rows] == [(
            "mc",
            "exact tails: 22137570 kernel terms exceed the cap of 10000000; "
            "fell back to Monte Carlo",
        )]
        assert 50 not in sizes

    def test_twenty_points_fit_400_mib(self, tmp_path, capsys):
        # m = 6 on 20 points: 177,100 kernel multisets and a cell over the
        # kernel-term budget.  A fresh interpreter under 400 MiB of address
        # space writes the rows of an unlimited run.
        params = {"kernel": "mean", "base_points": np.linspace(-1.0, 1.0, 20).tolist(),
                  "m_values": [6], "n_values": [7]}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "ustat", "params": params}))
        assert main(["--config", str(config)]) == 0
        want = capsys.readouterr().out
        src = str(Path(interaction_bounds.__file__).resolve().parents[1])
        limit = 400 << 20
        done = subprocess.run(
            [sys.executable, "-m", "interaction_bounds.cli", "--config", str(config)],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert done.returncode == 0 and done.stderr == "", done.stderr
        assert done.stdout == want

    def test_large_samples_get_exact_tails(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "ustat",
                    "params": {"m_values": [2], "n_values": [1030, 1200], "t_values": [0.05]},
                }
            )
        )
        out = tmp_path / "u.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        lines = read(out).splitlines()
        header = lines[1].split(",")
        rows = [line.split(",") for line in lines[2:]]
        assert [row[header.index("n")] for row in rows] == ["1030", "1200"]
        assert {row[header.index("tail_kind")] for row in rows} == {"exact"}

    def test_default_cells_are_exact(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main(["ustat", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        header = lines[1].split(",")
        kinds = {
            (row[0], row[1]): row[header.index("tail_kind")]
            for row in (line.split(",") for line in lines[2:])
        }
        assert len(kinds) == 9
        assert set(kinds.values()) == {"exact"}

    def test_kernel_table_limit_is_named_and_not_the_cap(self, tmp_path, capsys):
        # 20 base points at m = 8: C(27, 8) = 2,220,075 kernel multisets, over
        # ustat.KERNEL_TABLE_CAP, which a --cap of 10^8 does not raise
        params = {"kernel": "mean", "base_points": np.linspace(-1, 1, 20).tolist(), "m_values": [8]}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "ustat", "params": params}))
        assert main(["--config", str(config), "--cap", "100000000"]) == 2
        err = assert_one_config_error(capsys)
        assert "of order 8 holds 2220075 multisets of base points" in err, err
        assert "over ustat.KERNEL_TABLE_CAP = 1000000, which --cap does not raise" in err, err

    def test_missing_kernel_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"command": "ustat", "params": {"kernel_path": str(tmp_path / "none.json")}}
            )
        )
        assert main(["--config", str(config)]) == 2
        assert "none.json" in assert_one_config_error(capsys)

    @pytest.mark.parametrize("m, status", [(2, 0), (2.5, 2)])
    def test_kernel_file_order_must_be_integral(self, tmp_path, capsys, m, status):
        kernel_path = tmp_path / "kernel.json"
        kernel_path.write_text(
            json.dumps({"points": [-1.0, 1.0], "table": [1.0, -1.0, -1.0, 1.0], "m": m})
        )
        config = tmp_path / "cfg.json"
        params = {"kernel_path": str(kernel_path), "m_values": [2], "n_values": [10]}
        config.write_text(json.dumps({"command": "ustat", "params": params}))
        assert main(["--config", str(config), "--out", str(tmp_path / "u.csv")]) == status
        if status == 2:
            assert "bad kernel document" in assert_one_config_error(capsys)

    def test_crossover_column_near_expected_products(self, tmp_path):
        out = tmp_path / "u.csv"
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "ustat",
                    "params": {"m_values": [2, 3, 4], "n_values": [50], "t_values": [0.1]},
                }
            )
        )
        assert main(["--config", str(config), "--out", str(out)]) == 0
        rows = [line.split(",") for line in read(out).splitlines()[2:]]
        products = {int(r[0]): float(r[10]) for r in rows}
        assert 0.06 <= products[2] <= 0.24
        assert 0.03 <= products[3] <= 0.12
        assert 0.005 <= products[4] <= 0.02


class TestRlsCommand:
    def test_demo_run(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "rls",
                    "seed": 4,
                    "params": {
                        "mc_samples": 4000,
                        "replications": 20,
                        "t_points": 4,
                        "lambda_sweep": [0.2, 0.6],
                    },
                }
            )
        )
        out = tmp_path / "r.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        body = read(out)
        assert "derivative_check" in body
        assert "bound_curve" in body
        assert body.count("lambda_sweep") == 6  # three keys per swept lambda

    def test_problem_file(self, tmp_path):
        doc = {
            "dim": 1,
            "lambda": 0.4,
            "n": 5,
            "population": [
                {"x": [0.5], "y": 0.9, "p": 0.4},
                {"x": [-0.8], "y": -0.3, "p": 0.6},
            ],
        }
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps(doc))
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "rls",
                    "params": {
                        "path": str(problem_path),
                        "mc_samples": 2000,
                        "replications": 10,
                        "t_points": 3,
                        "lambda_sweep": [],
                    },
                }
            )
        )
        out = tmp_path / "r.json"
        assert main(["--config", str(config), "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["schema"] == 1
        sections = {row["section"] for row in doc["rows"]}
        assert {"summary", "derivative_check", "scv", "bound_curve"} <= sections

    def test_bound_curve_tails_are_the_one_shot_tails(self, tmp_path, capsys):
        samples = 3 * exchangeable.block_rows(8) + 1  # the demo problem has n = 8
        params = {"mc_samples": samples, "replications": 2, "lambda_sweep": []}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "rls", "seed": 3, "params": params}))
        assert main(["--config", str(config), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        rows = [row for row in rows if row["section"] == "bound_curve"]
        population, n, lam = cli._rls_problem(cli._DEMO_RLS, "rls demo problem")
        table = rls.GapTable(population, exchangeable.MultisetTable(population.probs, n), lam)
        mean = table.table.mean(table.gaps)
        values = oracles.mc_gap_values(table, samples, derive_seed(3, 0xA3))
        want = oracles.mc_tails_of(values - mean, [row["t"] for row in rows])
        assert len(rows) == 10 and [(row["value"], row["stderr"]) for row in rows] == want

    def test_cap_reaches_every_ingredients_call(self, monkeypatch):
        # --cap reaches the one multiset table, and the ingredients of every
        # lambda read that table
        caps = []
        real = exchangeable.MultisetTable.ingredients

        def recording(table, values):
            caps.append(table.cap)
            return real(table, values)

        monkeypatch.setattr(exchangeable.MultisetTable, "ingredients", recording)
        assert main(["rls", "--cap", "50"]) == 0
        assert len(caps) == 9 and set(caps) == {50}

    def test_sweep_keeps_only_the_main_gap_table(self, monkeypatch, capsys):
        # the default run: the main lambda (0.5) and 8 more in the sweep; each
        # sweep table is gone before the next one is built
        alive = []
        real = rls.GapTable

        class Recording(real):
            def __init__(self, *args):
                assert sum(ref() is not None for ref in alive) <= 1
                super().__init__(*args)
                alive.append(weakref.ref(self))

        monkeypatch.setattr(rls, "GapTable", Recording)
        assert main(["rls"]) == 0
        assert len(alive) == 9

    def test_one_multiset_table_for_every_lambda(self, monkeypatch, capsys):
        # the default run: 9 distinct lambdas, lambda = 0.5 among them
        levels = []
        real = exchangeable.multiset_probabilities

        def counting(counts, probs):
            levels.append(int(np.asarray(counts).sum(axis=1).max()))
            return real(counts, probs)

        for module in (exchangeable, rls, cli):
            monkeypatch.setattr(module, "multiset_probabilities", counting, raising=False)
        assert main(["rls"]) == 0
        assert sorted(levels) == [7, 8]
        out = capsys.readouterr().out
        sweep = [line for line in out.splitlines() if line.startswith("lambda_sweep,")]
        assert len(sweep) == 27

    def test_mc_samples_over_the_budget_exit_before_any_work(self, tmp_path, monkeypatch, capsys):
        # 10^10 samples of n = 8 would take over an hour to draw
        def no_draws(*args):
            raise AssertionError("drew samples over the Monte Carlo budget")

        def no_solves(*args):
            raise AssertionError("solved before refusing the config")

        for module in (exchangeable, cli):
            monkeypatch.setattr(module, "mc_tails", no_draws)
        monkeypatch.setattr(rls, "solve_stack", no_solves)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "rls", "params": {"mc_samples": 10**10}}))
        assert main(["--config", str(config)]) == 2
        err = assert_one_config_error(capsys)
        assert "80000000000" in err and "10000000" in err
        # one sample point over the budget is refused too
        config.write_text(json.dumps({"command": "rls", "params": {"mc_samples": 1_250_001}}))
        assert main(["--config", str(config)]) == 2
        assert "10000008 sample points" in assert_one_config_error(capsys)

    @pytest.mark.parametrize("name, value, work, points", [
        ("grid", 1000, "derivative_bound_check", 112_000_000),
        ("grid", 299, "derivative_bound_check", 10_012_912),
        ("replications", 1_000_000, "empirical_scv", 128_000_000),
        ("replications", 78_126, "empirical_scv", 10_000_128),
    ])
    def test_sample_points_over_the_budget_exit_before_any_work(
        self, tmp_path, monkeypatch, capsys, name, value, work, points
    ):
        # n = 8: the derivative lattice solves 14 grid^2 samples of 8 points,
        # and empirical_scv 2 replications * 8 samples of 8 points
        def no_work(*args, **kwargs):
            raise AssertionError(f"ran {work} before refusing the config")

        monkeypatch.setattr(rls, work, no_work)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"command": "rls", "params": {name: value}}))
        assert main(["--config", str(config)]) == 2
        err = assert_one_config_error(capsys)
        assert f"{name} {value} at n 8 is {points} sample points" in err
        assert "budget of 10000000" in err

    def test_out_of_memory_is_one_config_error(self, monkeypatch, capsys):
        def exhausted(counts):
            raise MemoryError("Unable to allocate 898. MiB for an array")

        monkeypatch.setattr(exchangeable, "rank", exhausted)
        assert main(["rls"]) == 2
        err = assert_one_config_error(capsys)
        assert "out of memory (Unable to allocate 898. MiB for an array)" in err
        assert err.rstrip().endswith("lower --cap")

    def test_bad_problem_file_is_config_error(self, tmp_path, capsys):
        problem_path = tmp_path / "problem.json"
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"command": "rls", "params": {"path": str(problem_path)}})
        )
        atom = {"y": 0.5, "p": 1.0}
        for doc in (
            {"dim": 1},
            {"dim": 0, "lambda": 0.5, "n": 4, "population": [{"x": [], **atom}]},
            {"dim": 1.5, "lambda": 0.5, "n": 4, "population": [{"x": [0.5], **atom}]},
            {"dim": 1, "lambda": 0.5, "n": 3.7, "population": [{"x": [0.5], **atom}]},
        ):
            problem_path.write_text(json.dumps(doc))
            assert main(["--config", str(config)]) == 2, doc
            assert "bad rls problem document" in assert_one_config_error(capsys)

    def test_missing_problem_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"command": "rls", "params": {"path": str(tmp_path / "none.json")}})
        )
        assert main(["--config", str(config)]) == 2
        assert "none.json" in assert_one_config_error(capsys)


class TestBoundsTableCommand:
    def test_row_count_is_instances_times_grid(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"command": "bounds-table", "seed": 2, "count": 3,
                        "params": {"t_points": 5}})
        )
        out = tmp_path / "b.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert len(lines) == 2 + 3 * 5

    def test_variance_term_ordering_every_row(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds-table", "--count", "4", "--seed", "6", "--out", str(out)]) == 0
        lines = read(out).splitlines()
        header = lines[1].split(",")
        i_bd = header.index("bd_term")
        i_sup = header.index("sup_scv")
        i_e = header.index("e_scv")
        for line in lines[2:]:
            row = line.split(",")
            assert float(row[i_e]) <= float(row[i_sup]) + 1e-12
            assert float(row[i_sup]) <= float(row[i_bd]) + 1e-12


    def test_bound_below_the_exact_tail_exits_1_with_the_witness(
        self, tmp_path, monkeypatch, capsys
    ):
        real = bounds.main_bound

        def too_small(*args):
            report = real(*args)
            return dataclasses.replace(report, value=0.1 * report.value)

        monkeypatch.setattr(bounds, "main_bound", too_small)
        out = tmp_path / "b.csv"
        assert main(["bounds-table", "--count", "3", "--out", str(out)]) == 1
        lines = read(out).splitlines()
        assert len(lines) == 2 + 3 * 20  # the table is still written
        rows = {(row[0], row[2]) for row in (line.split(",") for line in lines[2:])}
        err = capsys.readouterr().err.splitlines()
        assert err
        for i, line in enumerate(err):
            seed = derive_seed(0, 0xB0, i)
            head = f"bound violated: instance {i} (seed {seed}), t "
            assert line.startswith(head), line
            t, rest = line[len(head):].split(": ", 1)
            assert (str(i), t) in rows
            assert rest.startswith("main is below the exact tail by ")
            assert float(rest.rsplit(" ", 1)[1]) > 1e-10


class TestNormalLimitDemo:
    def test_one_row_per_n(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {
                    "command": "normal-limit-demo",
                    "params": {"kernel": "mean", "m": 2, "n_values": [4, 6, 8]},
                }
            )
        )
        out = tmp_path / "n.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        lines = read(out).splitlines()
        assert len(lines) == 2 + 3
        # the linear correction term shrinks with n
        header = lines[1].split(",")
        i_lin = header.index("linear_term")
        linear = [float(line.split(",")[i_lin]) for line in lines[2:]]
        assert linear == sorted(linear, reverse=True)

    def test_large_sample_on_multisets(self, tmp_path):
        # 2^300 configurations, but only 301 sample multisets
        config = tmp_path / "cfg.json"
        doc = {"command": "normal-limit-demo", "params": {"n_values": [300]}}
        config.write_text(json.dumps(doc))
        out = tmp_path / "n.csv"
        assert main(["--config", str(config), "--out", str(out)]) == 0
        assert read(out).splitlines()[2].startswith("300,")

    def test_default_sample_sizes_follow_m(self, tmp_path):
        out = tmp_path / "n.csv"
        assert main(["normal-limit-demo", "--out", str(out)]) == 0
        assert [int(line.split(",")[0]) for line in read(out).splitlines()[2:]] == list(range(4, 13))
