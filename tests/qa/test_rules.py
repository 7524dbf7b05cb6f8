"""Per-rule fixture tests: positive, negative, and noqa-suppression cases.

Each rule has three snippet files under ``fixtures/``; REP002's live in
``fixtures/simulator/`` because the rule is path-scoped to the
simulated-time packages.
"""

from pathlib import Path

import pytest

from repro.qa import all_rules, scan_paths
from repro.qa.engine import UNUSED_SUPPRESSION_ID

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> fixture directory (REP002 needs a scoped path segment).
CASES = {
    "REP001": FIXTURES,
    "REP002": FIXTURES / "simulator",
    "REP003": FIXTURES,
    "REP004": FIXTURES,
    "REP007": FIXTURES,
    "REP008": FIXTURES,
}


def findings_for(path: Path) -> list:
    return scan_paths([path]).findings


def fixture(rule_id: str, kind: str) -> Path:
    path = CASES[rule_id] / f"{rule_id.lower()}_{kind}.py"
    assert path.exists(), f"missing fixture {path}"
    return path


class TestFixtureMatrix:
    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_positive_fires(self, rule_id):
        findings = findings_for(fixture(rule_id, "pos"))
        assert any(f.rule_id == rule_id for f in findings), (
            f"{rule_id} did not fire on its positive fixture: {findings}"
        )

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_positive_gates_cli(self, rule_id, capsys):
        from repro.cli import main

        assert main(["qa", str(fixture(rule_id, "pos"))]) == 1
        assert rule_id in capsys.readouterr().out

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_negative_is_clean(self, rule_id):
        findings = findings_for(fixture(rule_id, "neg"))
        assert [f for f in findings if f.rule_id == rule_id] == []

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_noqa_suppresses_without_leftovers(self, rule_id):
        # the suppression silences the rule AND counts as used (no REP000)
        findings = findings_for(fixture(rule_id, "noqa"))
        assert [f for f in findings if f.rule_id == rule_id] == []
        assert [f for f in findings if f.rule_id == UNUSED_SUPPRESSION_ID] == []


class TestScoping:
    def test_rep002_out_of_scope_path_is_exempt(self):
        findings = findings_for(FIXTURES / "rep002_out_of_scope.py")
        assert [f for f in findings if f.rule_id == "REP002"] == []

    def test_rep002_fires_on_raw_clock_reads_in_obs(self):
        # perf_counter/monotonic inside an obs/ path are findings: the
        # observability layer must go through its injectable clock seam.
        findings = findings_for(FIXTURES / "obs" / "rep002_pos.py")
        hits = [f for f in findings if f.rule_id == "REP002"]
        assert len(hits) == 2, hits

    def test_rep002_obs_clock_seam_pattern_is_clean(self):
        findings = findings_for(FIXTURES / "obs" / "rep002_neg.py")
        assert [f for f in findings if f.rule_id == "REP002"] == []

    def test_rep002_fires_on_raw_clock_reads_in_ingest(self):
        # The ingest package is scoped in: backoff deadlines and commit
        # timings must come from the injectable clock seam.
        findings = findings_for(FIXTURES / "ingest" / "rep002_pos.py")
        hits = [f for f in findings if f.rule_id == "REP002"]
        assert len(hits) == 2, hits

    def test_rep002_ingest_clock_seam_pattern_is_clean(self):
        findings = findings_for(FIXTURES / "ingest" / "rep002_neg.py")
        assert [f for f in findings if f.rule_id == "REP002"] == []

    def test_shipped_ingest_package_is_clean(self):
        # No raw wall-clock reads, no global RNG: the reporter's jitter
        # comes from a seeded stream and all time flows through Clock.
        import repro.ingest

        pkg = Path(repro.ingest.__file__).parent
        findings = scan_paths([pkg]).findings
        assert findings == [], findings

    def test_shipped_obs_package_is_clean(self):
        # The real package's only wall-clock read is the acknowledged
        # seam in repro/obs/clock.py; everything else must stay clean.
        import repro.obs

        pkg = Path(repro.obs.__file__).parent
        findings = scan_paths([pkg]).findings
        assert findings == [], findings

    def test_rep001_flags_unseeded_streams_and_the_module_as_argument(self):
        # The interprocedural cases once left to a whole-program pass:
        # a fresh unseeded Random() or the random module itself handed
        # to a callee.  The seeded forms stay clean.
        hits = [f for f in findings_for(fixture("REP001", "pos")) if f.rule_id == "REP001"]
        assert [f.line for f in hits] == [7, 15, 19]

    def test_rep003_flags_an_unordered_argument_beside_a_stream(self):
        hits = [f for f in findings_for(fixture("REP003", "pos")) if f.rule_id == "REP003"]
        assert [f.line for f in hits] == [7, 15]

    def test_rep004_exempts_test_modules(self):
        from pathlib import PurePath

        from repro.qa import scan_source

        source = "def _check(x: float) -> bool:\n    return x == 0.5\n"
        hit, _ = scan_source(source, PurePath("src/repro/metrics.py"))
        clean, _ = scan_source(source, PurePath("tests/test_metrics.py"))
        assert any(f.rule_id == "REP004" for f in hit)
        assert not any(f.rule_id == "REP004" for f in clean)


class TestRegistry:
    def test_six_rules_registered(self):
        # Retired in favour of ruff: REP005 (broad except, BLE001) and
        # REP006 (mutable defaults, B006).
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [f"REP00{i}" for i in (1, 2, 3, 4, 7, 8)]

    def test_rules_document_themselves(self):
        for rule in all_rules():
            assert rule.title and rule.rationale
