"""Tier-1 gate: the package must stay slackerlint-clean forever.

If this test fails, either fix the finding or suppress it with a
justified ``# slackerlint: disable=RULE`` pragma — see docs/LINT.md.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src" / "repro"
SCRIPTS = REPO_ROOT / "scripts"


def test_src_repro_and_scripts_are_lint_clean(whole_tree_lint):
    """No finding in ``src/repro`` or ``scripts``.  ``conftest``'s
    ``whole_tree_lint`` runs every per-file rule over each module it
    analyses, so its findings under these two trees are this gate's."""
    findings = [
        f
        for f in whole_tree_lint.findings
        if any(Path(f.path).resolve().is_relative_to(root) for root in (SRC, SCRIPTS))
    ]
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"slackerlint findings:\n{rendered}"


def test_project_rules_are_clean_over_the_whole_tree(whole_tree_lint):
    """The cross-module SLK10x family must also hold: no sim process
    reaches a blocking call, the protocol registry and dispatch agree,
    the migration state machine conforms, units do not mix, and every
    obs name resolves in the registry.  (The run is ``conftest``'s
    ``whole_tree_lint``, shared with the real-tree rule tests.)"""
    run = whole_tree_lint
    rendered = "\n".join(f.render() for f in run.findings)
    assert not run.findings, f"slackerlint --project findings:\n{rendered}"
    stale = "\n".join(
        f"{path}:{line}: {rule}" for path, line, rule in run.unused_pragmas
    )
    assert not run.unused_pragmas, f"stale suppression pragmas:\n{stale}"


def test_linter_still_detects_a_seeded_positive(tmp_path):
    """Guard against the gate going green because the linter went blind."""
    bad = tmp_path / "positive.py"
    bad.write_text("import time\nstarted = time.time()\n")
    findings = lint_paths([bad], root=tmp_path)
    assert any(f.rule == "SLK001" for f in findings)
