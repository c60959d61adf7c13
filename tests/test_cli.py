"""Tests for the command-line interface (tiny scales)."""

import io
import json
import os
import signal
import subprocess
import sys

import pytest

from repro.cli import main

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestCli:
    def test_table1(self, capsys):
        assert main([
            "table1", "--datasets", "corel", "--n", "800",
            "--queries", "10", "--tables", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "corel-like" in out
        assert "% Cost" in out

    def test_figure2(self, capsys):
        assert main([
            "figure2", "--dataset", "mnist", "--n", "800",
            "--queries", "8", "--tables", "6", "--repeats", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "Hybrid (s)" in out
        assert "mnist-like" in out

    def test_figure3(self, capsys):
        assert main([
            "figure3", "--n", "800", "--queries", "10", "--tables", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "%LS calls" in out

    def test_profile(self, capsys):
        assert main([
            "profile", "--dataset", "webspam", "--n", "800", "--queries", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "suggested sweep" in out
        assert "hardness at r" in out

    def test_recall(self, capsys):
        assert main([
            "recall", "--dataset", "corel", "--n", "800",
            "--queries", "8", "--tables", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "Hybrid recall" in out
        assert "Analytic" in out

    def test_serve(self, capsys, monkeypatch):
        from repro.datasets import corel_like

        dataset = corel_like(n=400, seed=0)
        lines = [
            json.dumps({"query": dataset.points[0].tolist()}),
            json.dumps({"query": [1.0, 2.0]}),
            json.dumps({"op": "stats"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main([
            "serve", "--dataset", "corel", "--n", "400",
            "--tables", "4", "--cache-size", "16",
        ]) == 0
        captured = capsys.readouterr()
        assert "serving corel-like" in captured.err
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert 0 in responses[0]["ids"]
        assert "error" in responses[1]
        assert responses[2]["queries_served"] == 1

    def test_serve_stats_interval_writes_jsonl_log(self, capsys, monkeypatch, tmp_path):
        from repro.datasets import corel_like

        dataset = corel_like(n=400, seed=0)
        lines = [
            json.dumps({"query": dataset.points[0].tolist()}),
            json.dumps({"op": "metrics"}),
        ]
        log = tmp_path / "stats.jsonl"
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        # A long interval never fires mid-run; the reporter still emits
        # one final snapshot line at shutdown, which is what we assert.
        assert main([
            "serve", "--dataset", "corel", "--n", "400", "--tables", "4",
            "--stats-interval", "30", "--stats-log", str(log),
        ]) == 0
        captured = capsys.readouterr()
        responses = [json.loads(line) for line in captured.out.splitlines()]
        assert "repro_queries_served_total 1" in responses[1]["metrics"]
        snapshots = [json.loads(line) for line in log.read_text().splitlines()]
        assert snapshots, "stats reporter wrote no snapshot lines"
        final = snapshots[-1]
        assert final["queries_served"] == 1
        assert final["latency"]["count"] == 1
        assert "ts" in final

    def test_build_then_serve_saved_index(self, capsys, monkeypatch, tmp_path):
        from repro.datasets import corel_like

        out = str(tmp_path / "cli-index")
        assert main([
            "build", "--dataset", "corel", "--n", "300",
            "--tables", "4", "--shards", "2", "--out", out,
        ]) == 0
        capsys.readouterr()
        dataset = corel_like(n=300, seed=0)
        lines = [
            json.dumps({"query": dataset.points[0].tolist()}),
            json.dumps({"op": "spec"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--index", out]) == 0
        responses = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert 0 in responses[0]["ids"]
        assert responses[1]["spec"]["num_shards"] == 2

    def test_serve_index_rejects_conflicting_build_flags(self, tmp_path):
        """--index serves the saved spec; silently ignoring --cache-size
        etc. would serve a different policy than the operator asked for."""
        with pytest.raises(SystemExit, match="cache-size"):
            main(["serve", "--index", str(tmp_path / "x"), "--cache-size", "64"])

    def test_serve_sharded(self, capsys, monkeypatch):
        from repro.datasets import corel_like

        dataset = corel_like(n=300, seed=0)
        request = json.dumps({"query": dataset.points[5].tolist()})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main([
            "serve", "--dataset", "corel", "--n", "300",
            "--tables", "4", "--shards", "2",
        ]) == 0
        captured = capsys.readouterr()
        assert 5 in json.loads(captured.out.splitlines()[0])["ids"]

    def test_line_stream_probe_sees_buffered_burst(self):
        """A keep-alive client's burst must be visible to the backlog
        probe even once it sits in the reader's buffer, so serve keeps
        micro-batching instead of degrading to per-line answers."""
        import os

        from repro.cli import _line_stream_with_probe

        read_fd, write_fd = os.pipe()
        try:
            with open(read_fd, closefd=False) as stdin:
                os.write(write_fd, b"one\ntwo\nthree\n")
                lines, more_ready = _line_stream_with_probe(stdin)
                assert next(lines) == "one\n"
                # The burst now lives in the internal buffer, not the fd.
                assert more_ready() is True
                assert next(lines) == "two\n"
                assert more_ready() is True
                assert next(lines) == "three\n"
                assert more_ready() is False  # idle client: flush now
                os.close(write_fd)
                write_fd = -1
                assert list(lines) == []
        finally:
            if write_fd >= 0:
                os.close(write_fd)
            os.close(read_fd)

    def test_line_stream_probe_without_fd_falls_back(self):
        from repro.cli import _line_stream_with_probe

        source = io.StringIO("a\nb\n")
        lines, more_ready = _line_stream_with_probe(source)
        assert more_ready is None
        assert lines is source

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure2", "--dataset", "nope"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_retired_throughput_command_is_an_argparse_error(self, capsys):
        """No shim, no alias: speed is measured by benchmarks/perf/run.py."""
        with pytest.raises(SystemExit) as excinfo:
            main(["throughput"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'throughput'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])  # crashed on an unescaped % until PR 19
        assert excinfo.value.code == 0
        listing = capsys.readouterr().out
        assert "figure3" in listing and "throughput" not in listing


class TestCliFailurePaths:
    """Misbehaving input must degrade per line (serve) or exit with a
    clear non-zero status (build), never a traceback or a dead stream."""

    def _serve(self, monkeypatch, capsys, lines, argv=None):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(
            ["serve", "--dataset", "corel", "--n", "300", "--tables", "4"]
            + (argv or [])
        ) == 0
        return [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]

    def test_serve_survives_malformed_and_partial_json(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.datasets import corel_like

        monkeypatch.chdir(tmp_path)
        dataset = corel_like(n=300, seed=0)
        good = json.dumps({"query": dataset.points[0].tolist()})
        malformed = [
            "this is not json",
            '{"query": [0.1, 0.2',          # truncated mid-object
            '["query"]',                     # valid JSON, wrong shape
        ]
        # A missing or mistyped required field is named, not echoed as a
        # bare KeyError repr (or, for a null path, obeyed).
        fieldless = {
            '{"op": "insert"}': 'insert needs "points"',
            '{"op": "save"}': 'save needs "path"',
            '{"op": "open"}': 'open needs "path"',
            '{"op": "create", "points": [[0.0]]}': 'create needs "spec"',
            '{"op": "save", "path": null}': "path must be a string, got None",
            '{"op": "open", "path": 5}': "path must be a string, got 5",
        }
        lines = [*malformed, *fieldless, good]  # the stream must still serve
        responses = self._serve(monkeypatch, capsys, lines)
        assert len(responses) == len(lines)
        for bad in responses[:3]:
            assert set(bad) == {"error"}
            assert bad["error"].startswith("bad request:")
        assert [r.get("error") for r in responses[3:-1]] == list(fieldless.values())
        assert not list(tmp_path.iterdir())  # no directory named "None"
        assert 0 in responses[-1]["ids"]

    def test_serve_survives_unknown_op(self, capsys, monkeypatch):
        from repro.datasets import corel_like

        dataset = corel_like(n=300, seed=0)
        good = json.dumps({"query": dataset.points[0].tolist()})
        responses = self._serve(
            monkeypatch, capsys,
            [json.dumps({"op": "explode"}), json.dumps({"op": "insert"}), good],
        )
        assert "error" in responses[0]
        assert "unknown request" in responses[0]["error"]
        assert "error" in responses[1]  # insert without points
        assert 0 in responses[2]["ids"]

    def test_serve_concurrent_loop_survives_malformed_lines(self, capsys, monkeypatch):
        """The --inflight > 1 reader-thread loop has its own parse path."""
        from repro.datasets import corel_like

        dataset = corel_like(n=300, seed=0)
        good = json.dumps({"query": dataset.points[0].tolist()})
        responses = self._serve(
            monkeypatch, capsys,
            ["{{nope", good, json.dumps({"op": "bogus"}), good],
            argv=["--inflight", "3"],
        )
        assert len(responses) == 4
        assert "error" in responses[0]
        assert 0 in responses[1]["ids"]
        assert "error" in responses[2]
        assert 0 in responses[3]["ids"]

    @pytest.mark.parametrize("layout", ["frozen", "dict"])
    def test_build_bad_layout_exits_nonzero(self, layout, tmp_path, capsys):
        """No --layout flag is left: frozen is the only serving layout,
        so an old invocation is an argparse error, not a silent no-op."""
        with pytest.raises(SystemExit) as excinfo:
            main([
                "build", "--dataset", "corel", "--n", "300",
                "--layout", layout, "--out", str(tmp_path / "x"),
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --layout" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_build_bad_dataset_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "build", "--dataset", "imagenet", "--out", str(tmp_path / "x"),
            ])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_build_covering_on_wrong_metric_exits_with_message(self, tmp_path):
        """Semantic misconfiguration (not an argparse choice error) must
        exit non-zero with the validation message, not a traceback."""
        with pytest.raises(SystemExit, match="hamming"):
            main([
                "build", "--dataset", "corel", "--n", "300",
                "--variant", "covering", "--out", str(tmp_path / "x"),
            ])

    def test_build_processes_needs_no_layout_flag(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main([
            "build", "--dataset", "corel", "--n", "300", "--tables", "4",
            "--shards", "2", "--execution", "processes", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        meta = json.loads((out / "index.json").read_text())
        assert meta["layout"] == "frozen"
        assert meta["spec"]["execution"] == "processes"


class TestCliVariants:
    def test_build_then_serve_frozen_multiprobe(self, capsys, monkeypatch, tmp_path):
        from repro.datasets import corel_like

        out = str(tmp_path / "mp-index")
        assert main([
            "build", "--dataset", "corel", "--n", "300", "--tables", "4",
            "--variant", "multiprobe", "--probes", "3", "--out", out,
        ]) == 0
        capsys.readouterr()
        dataset = corel_like(n=300, seed=0)
        lines = [
            json.dumps({"op": "spec"}),
            json.dumps({"query": dataset.points[3].tolist()}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--index", out]) == 0
        responses = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert responses[0]["spec"]["variant"] == "multiprobe"
        assert responses[0]["spec"]["num_probes"] == 3
        assert 3 in responses[1]["ids"]

    def test_build_then_serve_frozen_covering(self, capsys, monkeypatch, tmp_path):
        from repro.datasets import mnist_like

        out = str(tmp_path / "cov-index")
        assert main([
            "build", "--dataset", "mnist", "--n", "300",
            "--variant", "covering", "--out", out,
        ]) == 0
        capsys.readouterr()
        dataset = mnist_like(n=300, seed=0)
        lines = [
            json.dumps({"op": "spec"}),
            json.dumps({"query": dataset.points[3].tolist()}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--index", out]) == 0
        responses = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert responses[0]["spec"]["variant"] == "covering"
        assert 3 in responses[1]["ids"]


def _spawn_shard_server(artifact, shards=None):
    """Launch ``repro.cli shard-serve`` and parse its startup banner."""
    argv = [sys.executable, "-m", "repro.cli", "shard-serve", "--artifact", artifact]
    if shards is not None:
        argv += ["--shards", shards]
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    if not line:
        proc.wait(timeout=10)
        raise RuntimeError(f"shard-serve exited {proc.returncode} without a banner")
    return proc, json.loads(line)


class TestCliNetworked:
    """shard-serve / loadgen / serve --connect: the deployment surface."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("cli-net") / "idx")
        assert main([
            "build", "--dataset", "corel", "--n", "300", "--tables", "4",
            "--shards", "2", "--execution", "processes", "--out", out,
        ]) == 0
        return out

    def test_loadgen_reports_tail_latency(self, artifact, capsys, tmp_path):
        report = tmp_path / "latency.json"
        assert main([
            "loadgen", "--index", artifact, "--rate", "80",
            "--duration", "0.5", "--json", str(report),
        ]) == 0
        err = capsys.readouterr().err
        assert "loadgen:" in err and "p99" in err
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro-loadgen/1"
        assert doc["requests"] > 0
        assert doc["failures"] == 0
        latency = doc["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert "samples" not in doc  # dropped unless --samples

    def test_shard_serve_banner_loadgen_connect_and_serve_connect(
        self, artifact, capsys, monkeypatch, tmp_path
    ):
        from repro.datasets import corel_like

        proc, banner = _spawn_shard_server(artifact)
        try:
            assert banner["shards"] == [0, 1]
            assert banner["pid"] == proc.pid
            endpoint = f"{banner['host']}:{banner['port']}"
            report = tmp_path / "tcp-latency.json"
            assert main([
                "loadgen", "--index", artifact, "--connect", endpoint,
                "--rate", "60", "--duration", "0.5", "--json", str(report),
            ]) == 0
            capsys.readouterr()
            doc = json.loads(report.read_text())
            assert doc["requests"] > 0 and doc["failures"] == 0
            # The same endpoint serves the JSON-lines protocol too.
            dataset = corel_like(n=300, seed=0)
            request = json.dumps({"query": dataset.points[0].tolist()})
            monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
            assert main([
                "serve", "--index", artifact, "--connect", endpoint,
            ]) == 0
            out = capsys.readouterr().out
            assert 0 in json.loads(out.splitlines()[0])["ids"]
            # SIGINT shuts the server down cleanly.
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_shard_serve_rejects_bad_shard_lists(self, artifact):
        with pytest.raises(SystemExit, match="comma-separated"):
            main(["shard-serve", "--artifact", artifact, "--shards", "x"])
        with pytest.raises(SystemExit, match="out of range"):
            main(["shard-serve", "--artifact", artifact, "--shards", "9"])

    def test_serve_connect_requires_index(self):
        with pytest.raises(SystemExit, match="--index"):
            main(["serve", "--connect", "127.0.0.1:1"])

    def test_serve_allow_partial_stays_clean_on_a_healthy_pool(
        self, artifact, capsys, monkeypatch
    ):
        from repro.datasets import corel_like

        dataset = corel_like(n=300, seed=0)
        request = json.dumps({"query": dataset.points[0].tolist()})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        assert main([
            "serve", "--index", artifact, "--allow-partial",
        ]) == 0
        response = json.loads(capsys.readouterr().out.splitlines()[0])
        assert 0 in response["ids"]
        # The v2 envelope always carries the degraded flag; a healthy
        # pool reports it explicitly false with no missing shards.
        assert response["degraded"] is False
        assert response["missing_shards"] == []


def _cli_invocations(text, markdown=False):
    """``(subcommand, {--flags})`` of every ``python -m repro.cli SUB ...``
    shell line in ``text``.  Shell continuations (and, in markdown, inline
    code spans) keep one command on several lines, so they are folded
    first; a command ends at a comment, a pipe, a redirect or a closing
    backtick."""
    import re

    text = re.sub(r"\\\n\s*", " ", text)
    chunks = [text]
    if markdown:
        fenced = re.compile(r"^```.*?^```", re.S | re.M)
        prose = fenced.sub("", text)
        prose = re.sub(r"`[^`]*`", lambda m: m.group(0).replace("\n", " "), prose)
        chunks = fenced.findall(text) + [prose]
    command = re.compile(r"python -m repro\.cli\s+([a-z][a-z0-9-]*)([^`|<>&;#\n]*)")
    for chunk in chunks:
        for line in chunk.splitlines():
            for m in command.finditer(line):
                yield m.group(1), set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", m.group(2)))


def test_docs_name_only_commands_and_scripts_that_exist():
    """README, the CLI usage docstring, the CI workflow, the examples and
    the verify skill are executable documentation: a `python -m repro.cli
    <sub>` line must name a registered subcommand and pass it only flags
    that subcommand's parser defines, and a benchmark or example path in
    the README must be a real file."""
    import argparse
    import re
    from pathlib import Path

    import repro.cli

    root = Path(_SRC).parent
    (subparsers,) = (
        action
        for action in repro.cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    readme = (root / "README.md").read_text(encoding="utf-8")
    sources = [(readme, True), (repro.cli.__doc__, False)]
    skill = root / ".claude" / "skills" / "verify" / "SKILL.md"
    ci = root / ".github" / "workflows" / "ci.yml"
    for path in (skill, ci, *sorted((root / "examples").glob("*.py"))):
        if path.is_file():  # the skill and the workflow are absent from an sdist
            sources.append((path.read_text(encoding="utf-8"), path.suffix == ".md"))
    named, undefined, flags_checked = set(), set(), 0
    for text, markdown in sources:
        for sub, flags in _cli_invocations(text, markdown):
            named.add(sub)
            parser = subparsers.choices.get(sub)
            if parser is None:
                undefined.add(f"no subcommand {sub!r}")
                continue
            known = parser._option_string_actions
            undefined |= {f"{sub} {flag}" for flag in flags if flag not in known}
            flags_checked += len(flags)
    assert {"build", "serve", "loadgen", "shard-serve"} <= named  # the patterns
    assert flags_checked >= 40  # still bite
    assert not undefined, sorted(undefined)

    paths = set(re.findall(r"\b((?:benchmarks|examples)/[\w/]+\.py)\b", readme))
    paths |= {f"benchmarks/{name}" for name in re.findall(r"\bbench_\w+\.py\b", readme)}
    assert paths
    missing = sorted(path for path in paths if not (root / path).is_file())
    assert not missing, missing
