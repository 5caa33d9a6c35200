"""CLI-level tests for ``python -m repro.analysis.lint``.

The acceptance contract: exit 0 on the real tree, non-zero on the seeded
violation fixture, machine-readable JSON on request.
"""

import json
import pathlib
import subprocess
import sys

from repro.analysis.lint import main

REPO = pathlib.Path(__file__).resolve().parents[2]
FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "seeded_violations.py.txt"


class TestMain:
    def test_fixture_fails(self, capsys):
        assert main([str(FIXTURE)]) == 1
        out = capsys.readouterr()
        assert "SIM002" in out.out
        assert "SCA002" in out.out
        assert "SCA003" in out.out
        assert "4 violation(s)" in out.err

    def test_fixture_json_output(self, capsys):
        assert main(["--format", "json", str(FIXTURE)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "scalla-lint"
        assert payload["files_checked"] == 1
        assert {v["rule"] for v in payload["violations"]} == {"SIM002", "SCA002", "SCA003"}
        for v in payload["violations"]:
            assert v["line"] > 0 and v["message"]

    def test_clean_file_passes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import random\nrng = random.Random(7)\n")
        assert main([str(clean)]) == 0
        assert "0 violation(s) in 1 file(s)" in capsys.readouterr().err

    def test_select_restricts_rules(self, capsys):
        # Only SCA002 selected: the SIM002 violation in the fixture is ignored.
        assert main(["--select", "SCA002", str(FIXTURE)]) == 1
        assert "SIM002" not in capsys.readouterr().out

    def test_select_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select", "NOPE99", str(FIXTURE)]) == 2

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_list_rules_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        rule_ids = ("SIM001", "SIM002", "SIM003", "SIM004", "SCA001", "SCA002", "SCA003", "SCA004")
        for rule_id in rule_ids:
            assert rule_id in out

    def test_directory_walk_skips_fixture(self, capsys):
        # The .py.txt fixture must not pollute a directory walk.
        assert main([str(FIXTURE.parent)]) == 0


class TestModuleEntry:
    def test_real_tree_is_clean(self):
        """The committed baseline: the whole repo lints clean (exit 0)."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", "src", "tests", "benchmarks"],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_module_entry_fails_on_fixture(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", str(FIXTURE)],
            cwd=REPO,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
