from __future__ import annotations

import json

from interaction_bounds.cli import main


def read(path):
    return path.read_text(encoding="utf-8")


def assert_one_config_error(capsys):
    """The run wrote one ``config error:`` line to stderr and nothing else."""
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err


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

    def test_missing_kernel_file_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps(
                {"command": "ustat", "params": {"kernel_path": str(tmp_path / "none.json")}}
            )
        )
        assert main(["--config", str(config)]) == 2
        assert "none.json" in assert_one_config_error(capsys)

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

    def test_bad_problem_file_is_config_error(self, tmp_path):
        problem_path = tmp_path / "problem.json"
        problem_path.write_text(json.dumps({"dim": 1}))
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"command": "rls", "params": {"path": str(problem_path)}})
        )
        assert main(["--config", str(config)]) == 2

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
