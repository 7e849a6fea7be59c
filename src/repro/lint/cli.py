"""Command-line front end: ``python -m repro.lint`` / ``repro-lint``.

Exit codes: 0 clean, 1 findings (or stale pragmas with
``--show-unused-pragmas``), 2 usage/IO errors — so CI can gate on the
linter the same way it gates on pytest.

``--project`` adds the whole-program pass: the import/symbol/call
graph is built over the given paths and the cross-module SLK101-SLK105
rules run on it alongside the per-file rules.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .config import LintConfig, find_pyproject, load_pyproject_config
from .framework import all_rules, iter_python_files
from .project import cache as result_cache
from .project.rules import all_project_rules
from .runner import run_lint
from .sarif import render_sarif

# Ensure rules are registered when the CLI is used directly.
from . import rules as _rules  # noqa: F401

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="slackerlint: determinism & units linter for the Slacker "
        "reproduction (per-file rules SLK001-SLK014, project rules "
        "SLK101-SLK108).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="also build the project graph and run the cross-module "
        "SLK101-SLK105 rules",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--disable",
        default="",
        metavar="RULES",
        help="comma-separated rule ids to skip, e.g. SLK004,SLK104",
    )
    parser.add_argument(
        "--show-unused-pragmas",
        action="store_true",
        help="report suppression pragmas that no longer match anything "
        "(exit 1 if any; implies --no-cache)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="memoize results in a content-hash cache (see --cache-dir)",
    )
    parser.add_argument(
        "--cache-dir",
        default=result_cache.DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"cache location (default: {result_cache.DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-config",
        action="store_true",
        help="ignore [tool.repro.lint] in pyproject.toml",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _resolve_config(args: argparse.Namespace) -> LintConfig:
    config: Optional[LintConfig] = None
    if not args.no_config:
        pyproject = find_pyproject()
        if pyproject is not None:
            config = load_pyproject_config(pyproject)
    config = config or LintConfig()
    extra = tuple(r.strip() for r in args.disable.split(",") if r.strip())
    if extra:
        config = config.with_extra_disabled(extra)
    return config


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Output was piped into e.g. `head` which closed early; that is
        # not a lint failure, but findings may have been truncated.
        return 1


def _run(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, rule_cls in sorted(all_rules().items()):
            print(f"{rule_id}  {rule_cls.summary}")
        for rule_id, rule_cls in sorted(all_project_rules().items()):
            print(f"{rule_id}  {rule_cls.summary}  [--project]")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    config = _resolve_config(args)
    files = list(iter_python_files(args.paths))
    run = run_lint(
        args.paths,
        config=config,
        project=args.project,
        use_cache=args.cache,
        cache_dir=args.cache_dir,
        collect_unused=args.show_unused_pragmas,
    )
    findings = run.findings

    if args.format == "json":
        print(
            json.dumps(
                {
                    "files_checked": len(files),
                    "cache_hit": run.cache_hit,
                    "findings": [f.to_dict() for f in findings],
                    "unused_pragmas": [
                        {"path": path, "line": line, "rule": rule_id}
                        for path, line, rule_id in run.unused_pragmas
                    ],
                },
                indent=2,
            )
        )
    elif args.format == "sarif":
        print(render_sarif(findings))
    else:
        for finding in findings:
            print(finding.render())
        for path, line, rule_id in run.unused_pragmas:
            print(f"{path}:{line}: unused suppression pragma for {rule_id}")
        noun = "finding" if len(findings) == 1 else "findings"
        suffix = " (cached)" if run.cache_hit else ""
        print(
            f"{len(findings)} {noun} in {len(files)} files{suffix}",
            file=sys.stderr,
        )
        if run.unused_pragmas:
            print(
                f"{len(run.unused_pragmas)} unused suppression pragma(s)",
                file=sys.stderr,
            )

    if findings:
        return 1
    if args.show_unused_pragmas and run.unused_pragmas:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
