"""yasklint framework + rule tests over the seeded-violation corpus.

One test per rule asserts the exact rule id AND line numbers against
the known-bad fixtures under ``tests/analysis/fixtures/`` (laid out as
a miniature ``repro/`` tree so the path-scoped rule configuration is
exercised too), plus suppression-comment behaviour and the
acceptance-criteria check that ``src/`` itself lints clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tools.analysis.yasklint import (
    File,
    Scope,
    Violation,
    check_file,
    registered_rules,
    run,
)

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


def lint_fixture(relpath: str) -> list[Violation]:
    file = File.load(FIXTURES / relpath, FIXTURES)
    return check_file(file)


def findings(relpath: str, rule_id: str) -> list[tuple[int, str]]:
    return [
        (v.line, v.rule_id)
        for v in lint_fixture(relpath)
        if v.rule_id == rule_id
    ]


def test_yask101_mutation_path_lines() -> None:
    assert findings("repro/service/bad_mutation_path.py", "YASK101") == [
        (9, "YASK101"),
        (10, "YASK101"),
        (11, "YASK101"),
        (12, "YASK101"),
    ]


def test_yask101_sanctioned_entry_point_not_flagged() -> None:
    violations = lint_fixture("repro/service/bad_mutation_path.py")
    assert not any(v.line >= 16 for v in violations)


def test_yask102_atomic_write_lines() -> None:
    assert findings("repro/service/bad_atomic_write.py", "YASK102") == [
        (11, "YASK102"),
        (13, "YASK102"),
        (15, "YASK102"),
        (16, "YASK102"),
    ]


def test_yask102_read_mode_not_flagged() -> None:
    violations = lint_fixture("repro/service/bad_atomic_write.py")
    assert not any(v.line >= 19 for v in violations)


def test_yask103_float_eq_lines() -> None:
    flagged = findings("repro/whynot/bad_float_eq.py", "YASK103")
    assert flagged[:3] == [(9, "YASK103"), (11, "YASK103"), (13, "YASK103")]


def test_yask103_ordering_comparisons_not_flagged() -> None:
    violations = lint_fixture("repro/whynot/bad_float_eq.py")
    assert not any(16 <= v.line <= 19 for v in violations)


def test_yask104_hot_loop_lines() -> None:
    assert findings("repro/core/bad_hot_loop.py", "YASK104") == [
        (16, "YASK104"),
        (17, "YASK104"),
        (21, "YASK104"),
        (22, "YASK104"),
    ]


def test_yask104_setup_comprehension_and_unmarked_functions_exempt() -> None:
    violations = lint_fixture("repro/core/bad_hot_loop.py")
    # The pre-loop comprehension (line 14), the clean @hot_path scan and
    # the unmarked function must produce nothing.
    assert not any(v.line == 14 or v.line >= 26 for v in violations)


def test_yask105_bare_lock_lines() -> None:
    assert findings("repro/service/bad_bare_lock.py", "YASK105") == [
        (15, "YASK105"),
        (16, "YASK105"),
        (17, "YASK105"),
        (18, "YASK105"),
        (19, "YASK105"),
    ]


def test_yask105_ordered_lock_and_event_not_flagged() -> None:
    violations = lint_fixture("repro/service/bad_bare_lock.py")
    assert not any(v.line >= 22 for v in violations)


def test_yask106_swallowed_exception_lines() -> None:
    assert findings(
        "repro/service/bad_swallowed_exception.py", "YASK106"
    ) == [
        (7, "YASK106"),
        (16, "YASK106"),
        (23, "YASK106"),
    ]


def test_yask106_commented_and_handled_exempt() -> None:
    violations = [
        v
        for v in lint_fixture("repro/service/bad_swallowed_exception.py")
        if v.rule_id == "YASK106"
    ]
    # The reason-commented handlers and the one that logs must be clean.
    assert not any(v.line >= 27 for v in violations)


def test_yask107_cache_poke_lines() -> None:
    assert findings("repro/service/bad_cache_poke.py", "YASK107") == [
        (5, "YASK107"),
        (6, "YASK107"),
        (7, "YASK107"),
        (8, "YASK107"),
        (9, "YASK107"),
        (10, "YASK107"),
    ]


def test_yask107_executor_protocol_and_reads_exempt() -> None:
    violations = [
        v
        for v in lint_fixture("repro/service/bad_cache_poke.py")
        if v.rule_id == "YASK107"
    ]
    # maintain/invalidate/execute calls and cache reads are clean.
    assert not any(v.line >= 13 for v in violations)


def test_justified_suppression_silences_finding() -> None:
    violations = lint_fixture("repro/whynot/bad_float_eq.py")
    assert not any(v.line == 23 for v in violations)


def test_unjustified_suppression_keeps_finding_and_adds_yask100() -> None:
    violations = lint_fixture("repro/whynot/bad_float_eq.py")
    at_27 = sorted(v.rule_id for v in violations if v.line == 27)
    assert at_27 == ["YASK100", "YASK103"]


def test_scope_excludes_approved_modules() -> None:
    scope = Scope(include=("*repro/service/*",), approved=("*repro/service/wal.py",))
    assert scope.applies("repro/service/server.py")
    assert not scope.applies("repro/service/wal.py")
    assert not scope.applies("repro/core/kernel.py")


def test_rule_catalogue_registered() -> None:
    ids = [rule.rule_id for rule in registered_rules()]
    assert ids == [
        "YASK101",
        "YASK102",
        "YASK103",
        "YASK104",
        "YASK105",
        "YASK106",
        "YASK107",
    ]


def test_src_lints_clean() -> None:
    """The acceptance criterion: zero unsuppressed violations in src/."""
    violations, scanned = run([REPO_ROOT / "src"], REPO_ROOT)
    assert scanned > 40
    assert violations == []


def test_every_src_suppression_is_justified() -> None:
    """Belt and braces: every inline suppression carries a reason."""
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        file = File.load(path, REPO_ROOT)
        for suppression in file.suppressions.values():
            assert suppression.reason, (
                f"{file.relpath}:{suppression.line} suppression lacks a "
                "justification"
            )


def test_cli_json_output(tmp_path: Path) -> None:
    import json
    import subprocess
    import sys

    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "tools.analysis.yasklint",
            "tests/analysis/fixtures/repro/service/bad_bare_lock.py",
            "--root",
            "tests/analysis/fixtures",
            "--format",
            "json",
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert {entry["rule"] for entry in payload} == {"YASK105"}
    assert {entry["line"] for entry in payload} == {15, 16, 17, 18, 19}


def test_cli_clean_exit_zero() -> None:
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "tools.analysis.yasklint", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
