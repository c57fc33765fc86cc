"""The determinism lint: every seeded-bug fixture flagged, repo clean."""

from pathlib import Path

import pytest

import repro
import repro.analyze.__main__ as cli
from repro.analyze.lint import (_rule_applies, iter_python_files, lint_paths,
                                lint_source)
from repro.analyze.rules import ALL_RULES, WallClock

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(__file__).parent.parent / "src"


def lint_fixture(name, rules=None):
    path = FIXTURES / name
    return lint_source(path.read_text(), path, rules)


# -- one fixture per rule, each correctly flagged --------------------------------

def test_truthy_time_fixture():
    found = lint_fixture("truthy_time.py")
    lines = [(f.rule, f.line) for f in found]
    assert ("truthy-time", 5) in lines      # evt.start_time or 0.0
    assert ("truthy-time", 6) in lines      # if evt.finish_time:
    assert ("truthy-time", 12) in lines     # while not task.completion_time:
    assert ("truthy-time", 14) in lines     # assert task.completion_time
    assert all(f.rule == "truthy-time" for f in found)


def test_wall_clock_fixture():
    found = lint_fixture("wall_clock.py", rules=["wall-clock"])
    assert [(f.rule, f.line) for f in found] == [
        ("wall-clock", 8), ("wall-clock", 9), ("wall-clock", 10)]


def test_unseeded_random_fixture():
    found = lint_fixture("unseeded_random.py", rules=["unseeded-random"])
    assert [f.line for f in found] == [7, 11, 12]


def test_unwaited_request_fixture():
    found = lint_fixture("unwaited_request.py")
    by_line = {f.line: f.rule for f in found}
    assert by_line.get(5) == "unwaited-request"    # discarded isend
    assert by_line.get(9) == "unwaited-request"    # req never read again
    # the properly waited request (line 14) must NOT be flagged
    assert 14 not in by_line and 15 not in by_line


def test_unordered_iter_fixture():
    found = lint_fixture("unordered_iter.py")
    lines = [f.line for f in found if f.rule == "unordered-iter"]
    assert 6 in lines        # for t in ready (bound to a set comprehension)
    assert 11 in lines       # comprehension over a set literal
    # sorted(...) wrapping is the sanctioned fix — not flagged
    assert all(n < 14 for n in lines)


def test_swallowed_exception_fixture():
    found = lint_fixture("swallowed_exception.py",
                         rules=["swallowed-exception"])
    assert [f.line for f in found] == [7, 11, 15]
    # line 19 handles-and-re-raises, line 23 catches a specific type,
    # line 27 is suppressed — none flagged


def test_swallowed_exception_scopes_to_substrate_packages():
    src = "def f():\n    try:\n        g()\n    except Exception:\n        pass\n"
    assert lint_source(src, Path("src/repro/bench/harness.py")) == []
    assert len(lint_source(src, Path("src/repro/faults/injector.py"))) == 1
    assert len(lint_source(src, Path("src/repro/runtime/cluster.py"))) == 1


def test_every_rule_has_a_fixture_and_fires():
    fired = set()
    for path in FIXTURES.glob("*.py"):
        for f in lint_source(path.read_text(), path):
            fired.add(f.rule)
    assert fired == set(ALL_RULES)


# -- suppression ------------------------------------------------------------------

def test_suppression_by_rule_name():
    src = "def f(evt):\n    return evt.start_time or 0.0  # lint: ignore[truthy-time]\n"
    assert lint_source(src, Path("x.py")) == []


def test_suppression_bare_ignores_all_rules():
    src = "def f(evt):\n    return evt.start_time or 0.0  # lint: ignore\n"
    assert lint_source(src, Path("x.py")) == []


def test_suppression_of_other_rule_does_not_apply():
    src = "def f(evt):\n    return evt.start_time or 0.0  # lint: ignore[wall-clock]\n"
    found = lint_source(src, Path("x.py"))
    assert [f.rule for f in found] == ["truthy-time"]


# -- package scoping --------------------------------------------------------------

def test_substrate_rules_scope_to_sim_cuda_mpi():
    assert _rule_applies(WallClock, Path("src/repro/sim/engine.py"))
    assert _rule_applies(WallClock, Path("src/repro/mpi/transport.py"))
    assert not _rule_applies(WallClock, Path("src/repro/bench/harness.py"))
    # files outside a repro package tree (fixtures) are always checked
    assert _rule_applies(WallClock, Path("tests/fixtures/lint/wall_clock.py"))


def test_wall_clock_allowed_outside_substrate():
    src = "import time\n\ndef f():\n    return time.time()\n"
    assert lint_source(src, Path("src/repro/bench/harness.py")) == []
    assert len(lint_source(src, Path("src/repro/sim/engine.py"))) == 1


# -- report plumbing --------------------------------------------------------------

def test_lint_paths_builds_shared_report():
    report = lint_paths([FIXTURES / "truthy_time.py"])
    assert not report.ok
    assert report.counts["lint/truthy-time"] == 4
    f = report.findings[0]
    assert f.checker == "lint"
    assert f.subjects[0].endswith("truthy_time.py:5")
    assert f.time == 0.0


def test_lint_paths_reports_syntax_errors():
    bad = FIXTURES.parent / "bad_syntax_tmp.py"
    bad.write_text("def broken(:\n")
    try:
        report = lint_paths([bad])
        assert report.counts.get("lint/syntax-error") == 1
    finally:
        bad.unlink()


def test_iter_python_files_expands_directories():
    files = iter_python_files([FIXTURES])
    assert len(files) == len(list(FIXTURES.glob("*.py")))
    assert files == sorted(files)


# -- the CLI lints what it was given, from any directory ---------------------------

def test_cli_default_lints_the_package_from_any_directory(tmp_path,
                                                         monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    linted = []
    real = cli.lint_paths

    def spy(paths, rules=None):
        linted.extend(iter_python_files(paths))
        return real(paths, rules=rules)

    monkeypatch.setattr(cli, "lint_paths", spy)
    assert cli.main(["lint"]) == 0
    assert "clean" in capsys.readouterr().out
    assert Path(repro.__file__) in linted
    assert len(linted) > 50


@pytest.mark.parametrize("make, why", [
    pytest.param(lambda tmp: tmp / "missing", "does not exist", id="missing"),
    pytest.param(lambda tmp: (tmp / "empty").mkdir() or tmp / "empty",
                 "holds no .py file", id="no-py-files"),
])
def test_cli_path_with_nothing_to_lint_fails(tmp_path, monkeypatch, capsys,
                                             make, why):
    monkeypatch.chdir(tmp_path)
    path = make(tmp_path)
    assert cli.main(["lint", path.name]) == 1
    out = capsys.readouterr().out
    assert "nothing-to-lint" in out and why in out


# -- the repository itself must be lint-clean -------------------------------------

def test_repo_source_tree_is_clean():
    report = lint_paths([SRC])
    assert report.ok, report.summary()
