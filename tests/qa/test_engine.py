"""Engine behaviour: suppression audit, fixing, output formats, CLI gate."""

import json
from pathlib import Path, PurePath

from repro.cli import main
from repro.qa import scan_paths, scan_source
from repro.qa.engine import (
    PARSE_ERROR_ID,
    UNUSED_SUPPRESSION_ID,
    fix_unused_suppressions,
)
from repro.qa.report import render_json


class TestUnusedSuppressions:
    def test_unused_noqa_is_reported(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            "def _f(x: int) -> int:\n"
            "    return x + 1  # repro: noqa[REP004] stale reason\n"
        )
        result = scan_paths([target])
        assert [f.rule_id for f in result.findings] == [UNUSED_SUPPRESSION_ID]
        assert result.unused_suppressions[str(target)] == {2: {"REP004"}}

    def test_unknown_rule_id_is_flagged_as_unknown(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("X = 1  # repro: noqa[REP777]\n")
        result = scan_paths([target])
        assert "unknown rule" in result.findings[0].message

    def test_mixed_line_keeps_used_drops_unused(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text(
            "def _guard(x: float) -> bool:\n"
            "    return x == 0.0  # repro: noqa[REP004,REP001] sentinel\n"
        )
        result = scan_paths([target])
        # REP004 suppression is used; REP001's matches nothing
        assert [f.rule_id for f in result.findings] == [UNUSED_SUPPRESSION_ID]
        removed = fix_unused_suppressions(result)
        assert removed == 1
        text = target.read_text()
        assert "noqa[REP004]" in text and "REP001" not in text
        assert "sentinel" in text  # the reason survives a partial fix
        assert scan_paths([target]).ok

    def test_fix_removes_whole_comment_when_empty(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("X = 1  # repro: noqa[REP004] stale\n")
        result = scan_paths([target])
        fix_unused_suppressions(result)
        assert target.read_text() == "X = 1\n"
        assert scan_paths([target]).ok

    def test_docstring_mention_is_not_a_suppression(self):
        source = '"""Use `# repro: noqa[REP004]` to suppress."""\nX = 1\n'
        findings, unused = scan_source(source, PurePath("m.py"))
        assert findings == [] and unused == {}


class TestOutputs:
    def test_parse_error_is_a_finding(self, tmp_path):
        target = tmp_path / "broken.py"
        target.write_text("def broken(:\n")
        result = scan_paths([target])
        assert [f.rule_id for f in result.findings] == [PARSE_ERROR_ID]
        assert not result.ok

    def test_json_payload_shape(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("def visible():\n    return 1\n")
        payload = json.loads(render_json(scan_paths([target])))
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"REP007": 1}
        finding = payload["findings"][0]
        assert finding["rule"] == "REP007"
        assert finding["severity"] == "warning"
        assert finding["line"] == 1

    def test_scan_is_deterministic(self, tmp_path):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("def visible():\n    return 1\n")
        first = scan_paths([tmp_path])
        second = scan_paths([tmp_path])
        assert first.findings == second.findings
        paths = [f.path for f in first.findings]
        assert paths == sorted(paths)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("def visible() -> int:\n    return 1\n")
        assert main(["qa", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("def visible():\n    return 1\n")
        assert main(["qa", str(tmp_path)]) == 1
        assert "REP007" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["qa", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_json_flag(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("X = 1\n")
        assert main(["qa", "--json", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_fix_suppressions_flag(self, tmp_path, capsys):
        target = tmp_path / "module.py"
        target.write_text("X = 1  # repro: noqa[REP004] stale\n")
        assert main(["qa", "--fix-suppressions", str(tmp_path)]) == 0
        assert target.read_text() == "X = 1\n"

    def test_list_rules(self, capsys):
        assert main(["qa", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for i in (1, 2, 3, 4, 7, 8):
            assert f"REP00{i}" in out
        # retired: ruff's BLE001 and B006 cover them
        assert "REP005" not in out and "REP006" not in out

    def test_gate_on_repo_src_is_clean(self, capsys):
        # the acceptance criterion: the shipped tree passes its own gate
        src = Path(__file__).resolve().parents[2] / "src"
        assert main(["qa", str(src)]) == 0
