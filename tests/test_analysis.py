"""reprolint end-to-end: fixtures trip rules, suppression works, src/ is clean.

Each file under ``tests/analysis_fixtures/`` holds a deliberate
violation of exactly one rule.  Per rule the tests assert three things:
the fixture produces findings, every finding carries that rule's id,
and disabling the rule silences the fixture entirely — so each test
fails if its rule is unregistered or gutted.  The final class pins the
zero-false-positive contract over the real source tree: ``check src/``
must stay green, which is what lets CI treat any finding as a failure.
"""

from pathlib import Path

import pytest

from repro.analysis.core import Finding, all_rules, run_check
from repro.analysis.rules.dtypes import DTYPE_CONTRACTS

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

#: rule id -> the fixture path that must trip it (a directory for the
#: project-level rule, a single file for the rest).
RULE_FIXTURES = {
    "unseeded-rng": FIXTURES / "determinism_bad.py",
    "set-iteration": FIXTURES / "set_iteration_bad.py",
    "dtype-contract": FIXTURES / "index" / "dtypes_bad.py",
    "lock-discipline": FIXTURES / "locks_bad.py",
    "trace-stage": FIXTURES / "stages_bad.py",
    "spec-plumb": FIXTURES / "spec_plumb",
    "deadline-required": FIXTURES / "service",
    "wire-pickle": FIXTURES / "service" / "pickle_bad.py",
}


class TestRegistry:
    def test_every_rule_has_a_fixture_and_vice_versa(self):
        assert set(all_rules()) == set(RULE_FIXTURES)

    def test_at_least_six_rules_registered(self):
        assert len(all_rules()) >= 6

    def test_unknown_rule_ids_are_rejected(self):
        with pytest.raises(ValueError, match="no-such-rule"):
            run_check([str(FIXTURES)], enabled=["no-such-rule"])
        with pytest.raises(ValueError, match="no-such-rule"):
            run_check([str(FIXTURES)], disabled=["no-such-rule"])


class TestTruePositives:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_fixture_trips_its_rule(self, rule_id):
        findings = run_check([str(RULE_FIXTURES[rule_id])], enabled=[rule_id])
        assert findings, f"fixture for {rule_id!r} produced no findings"
        assert all(f.rule == rule_id for f in findings)
        assert all(isinstance(f, Finding) and f.line > 0 for f in findings)

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_disabling_the_rule_silences_the_fixture(self, rule_id):
        """The true-positive evaporates when its rule is switched off.

        This is the guarantee that each fixture test above fails when
        the rule it covers is disabled or deleted, rather than passing
        vacuously off some other rule's findings.
        """
        findings = run_check([str(RULE_FIXTURES[rule_id])], disabled=[rule_id])
        assert not [f for f in findings if f.rule == rule_id]

    def test_unseeded_rng_reports_both_draw_styles(self):
        findings = run_check(
            [str(RULE_FIXTURES["unseeded-rng"])], enabled=["unseeded-rng"]
        )
        blob = " ".join(f.message for f in findings)
        assert "np.random" in blob  # the legacy global-state draw
        assert "default_rng" in blob  # the unseeded Generator

    def test_dtype_contract_reports_alloc_cast_and_rematerialise(self):
        findings = run_check(
            [str(RULE_FIXTURES["dtype-contract"])], enabled=["dtype-contract"]
        )
        # np.zeros, .astype on a name and on a call, np.asarray sites
        assert len(findings) == 4
        assert DTYPE_CONTRACTS["offsets"] == "uint32"  # table is the oracle
        assert DTYPE_CONTRACTS["members"] == "uint32"
        assert any("offsets" in f.message for f in findings)
        assert any("re-materialising" in f.message for f in findings)

    def test_dtype_contract_holds_the_sketched_bucket_ids_to_uint32(self, tmp_path):
        """``sketched`` (the sorted ids of the sketched buckets) is a
        ``uint32`` contract under ``index/``; the per-bucket
        ``sketch_rows`` map it replaced is no longer one."""
        assert DTYPE_CONTRACTS["sketched"] == "uint32"
        assert "sketch_rows" not in DTYPE_CONTRACTS
        path = tmp_path / "index" / "mod.py"
        path.parent.mkdir()
        for dtype, expected in (("int32", 2), ("uint32", 0)):
            path.write_text(
                "import numpy as np\n\n\n"
                "def f(sizes, t):\n"
                f"    sketched = np.flatnonzero(sizes > t).astype(np.{dtype})\n"
                f"    empty_sketched = np.empty(0, dtype=np.{dtype})\n"
                "    sketch_rows = np.full(sizes.size, -1, dtype=np.int64)\n"
                "    return sketched, empty_sketched, sketch_rows\n"
            )
            findings = run_check([str(path)], enabled=["dtype-contract"])
            assert len(findings) == expected
            assert all("'sketched'" in f.message for f in findings)

    def test_spec_plumb_names_the_dead_fields_only(self):
        findings = run_check([str(RULE_FIXTURES["spec-plumb"])], enabled=["spec-plumb"])
        # metric/radius (IndexSpec) and k/adaptive (QuerySpec) are
        # consumed; only the two dead knobs report, each against its
        # own consumer set.
        assert len(findings) == 2
        blob = " ".join(f.message for f in findings)
        assert "IndexSpec.dead_knob" in blob
        assert "QuerySpec.dead_request_knob" in blob
        assert all(f.path.endswith("api/spec.py") for f in findings)

    def test_deadline_required_reports_both_shapes(self):
        findings = run_check(
            [str(RULE_FIXTURES["deadline-required"])], enabled=["deadline-required"]
        )
        # Pipe fixture: unguarded recv, poll(None), and the recv behind
        # poll(None).  Socket fixture: unguarded recv, unguarded accept,
        # unguarded connect, settimeout(None).  The guarded functions in
        # both fixtures report nothing.
        assert len(findings) == 7
        blob = " ".join(f.message for f in findings)
        assert "poll(None)" in blob
        assert "no bounded" in blob
        assert "settimeout(None)" in blob
        assert ".accept()" in blob
        assert ".connect()" in blob

    def test_wire_pickle_reports_imports_calls_and_connections(self):
        findings = run_check(
            [str(RULE_FIXTURES["wire-pickle"])], enabled=["wire-pickle"]
        )
        # import pickle, pickle.loads, multiprocessing.Pipe(), and the
        # pipe's send() and recv(); the framed socket reports nothing.
        assert len(findings) == 5
        blob = " ".join(f.message for f in findings)
        assert "imports pickle" in blob
        assert "pickle.loads" in blob
        assert "multiprocessing.Pipe()" in blob
        assert "parent.send()" in blob and "child.recv()" in blob

    def test_wire_pickle_covers_faults_and_leaves_other_layers_alone(self, tmp_path):
        source = "import pickle\n\n\ndef f(b):\n    return pickle.loads(b)\n"
        for layer, expected in (("faults", 2), ("service", 2), ("core", 0)):
            path = tmp_path / layer / "mod.py"
            path.parent.mkdir()
            path.write_text(source)
            assert len(run_check([str(path)], enabled=["wire-pickle"])) == expected

    def test_lock_discipline_points_at_the_bare_mutation(self):
        findings = run_check(
            [str(RULE_FIXTURES["lock-discipline"])], enabled=["lock-discipline"]
        )
        assert len(findings) == 1
        assert "_items" in findings[0].message
        assert "add()" in findings[0].message  # the guarded sibling is named


class TestSuppression:
    def test_inline_disable_comment_drops_the_finding(self):
        noisy = run_check(
            [str(FIXTURES / "determinism_bad.py")], enabled=["unseeded-rng"]
        )
        assert noisy  # the identical un-suppressed draw does report
        quiet = run_check(
            [str(FIXTURES / "suppressed_ok.py")], enabled=["unseeded-rng"]
        )
        assert quiet == []

    def test_suppression_is_per_rule(self, tmp_path):
        """A disable comment for one rule does not silence another."""
        source = (FIXTURES / "suppressed_ok.py").read_text().replace(
            "disable=unseeded-rng", "disable=set-iteration"
        )
        path = tmp_path / "wrong_rule.py"
        path.write_text(source)
        findings = run_check([str(path)], enabled=["unseeded-rng"])
        assert [f.rule for f in findings] == ["unseeded-rng"]


class TestCli:
    def test_check_exits_nonzero_and_prints_findings(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["check", str(RULE_FIXTURES["lock-discipline"])])
        out = capsys.readouterr()
        assert rc == 1
        assert "[lock-discipline]" in out.out
        assert "finding(s)" in out.err

    def test_check_exits_zero_on_clean_input(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["check", str(FIXTURES / "suppressed_ok.py")])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_list_rules_prints_all_ids(self, capsys):
        from repro.analysis.__main__ import main

        rc = main(["list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for rule_id in RULE_FIXTURES:
            assert rule_id in out


class TestRealSourceTree:
    def test_src_is_finding_free(self):
        """The zero-false-positive contract CI relies on.

        Every rule runs over the real source tree and must report
        nothing — genuine violations were fixed (not suppressed) when
        the rules were introduced, and any regression lands here first.
        """
        assert run_check([str(SRC)]) == []
