"""Project rules SLK101-SLK108, the runner, cache, SARIF, and CLI.

Each rule gets a minimal fixture tree that satisfies the invariant and
a deliberately broken variant that must be caught — the gate is only
trustworthy if breaking an invariant provably trips it.
"""

from __future__ import annotations

import json
import textwrap
import time
from pathlib import Path

import pytest

from repro.lint import LintConfig, run_lint
from repro.lint.cli import main as lint_main
from repro.lint.project import analyze_project
from repro.lint.sarif import to_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


@pytest.fixture(scope="module")
def real_tree_findings():
    """The project rules' findings on the real ``src/repro``, analysed once."""
    return analyze_project([REPO_ROOT / "src" / "repro"], root=REPO_ROOT).findings


def project_findings(tmp_path, files, rule=None, config=None):
    write_tree(tmp_path, files)
    result = analyze_project([tmp_path], config=config, root=tmp_path)
    if rule is None:
        return result.findings
    return [f for f in result.findings if f.rule == rule]


class TestSLK101SimBlocking:
    def test_generator_reaching_sleep_through_helper(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim.py": """
                import time

                def helper():
                    time.sleep(0.1)

                def process(env):
                    yield 1
                    helper()
                """,
            },
            rule="SLK101",
        )
        assert len(findings) == 1
        assert "process() -> repro.sim.helper() -> time.sleep()" in (
            findings[0].message
        )

    def test_direct_wall_clock_read_in_generator(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim.py": """
                import time

                def process(env):
                    t = time.monotonic()
                    yield 1
                """,
            },
            rule="SLK101",
        )
        assert len(findings) == 1

    def test_clean_generator_is_silent(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim.py": """
                def helper(x):
                    return x + 1

                def process(env):
                    yield helper(1)
                """,
            },
            rule="SLK101",
        )
        assert findings == []

    def test_non_generator_may_block(self, tmp_path):
        # Only *processes* (generators) are constrained; setup code in
        # sim scope may legitimately touch the OS.
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim.py": """
                import time

                def setup():
                    time.sleep(0.1)
                """,
            },
            rule="SLK101",
        )
        assert findings == []

    def test_outside_sim_scope_is_exempt(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "tools/loose.py": """
                import time

                def process(env):
                    yield 1
                    time.sleep(0.1)
                """,
            },
            rule="SLK101",
        )
        assert findings == []

    def test_call_cycle_terminates(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim.py": """
                def a():
                    b()

                def b():
                    a()

                def process(env):
                    yield 1
                    a()
                """,
            },
            rule="SLK101",
        )
        assert findings == []

    def test_pragma_suppresses_at_call_site(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/sim.py": """
                import time

                def process(env):
                    yield 1
                    time.sleep(1)  # slackerlint: disable=SLK101
                """,
            },
            rule="SLK101",
        )
        assert findings == []


class TestSLK102ProtocolExhaustiveness:
    FILES = {
        "repro/__init__.py": "",
        "repro/proto.py": """
        def register_message(cls):
            return cls

        @register_message
        class Ping:
            pass

        @register_message
        class Pong:
            pass

        class Stray:
            pass
        """,
    }

    def test_exhaustive_dispatch_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["repro/node.py"] = """
        from .proto import Ping, Pong

        def dispatch_loop(msg):
            if isinstance(msg, Ping):
                return "ping"
            elif isinstance(msg, Pong):
                return "pong"
        """
        assert project_findings(tmp_path, files, rule="SLK102") == []

    def test_missing_arm_is_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["repro/node.py"] = """
        from .proto import Ping

        def dispatch_loop(msg):
            if isinstance(msg, Ping):
                return "ping"
        """
        findings = project_findings(tmp_path, files, rule="SLK102")
        assert len(findings) == 1
        assert "Pong" in findings[0].message
        assert findings[0].path.endswith("proto.py")

    def test_unregistered_message_in_dispatch_is_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["repro/node.py"] = """
        from .proto import Ping, Pong, Stray

        def dispatch_loop(msg):
            if isinstance(msg, (Ping, Pong)):
                return "pong"
            elif isinstance(msg, Stray):
                return "stray"
        """
        findings = project_findings(tmp_path, files, rule="SLK102")
        assert len(findings) == 1
        assert "Stray" in findings[0].message
        assert findings[0].path.endswith("node.py")

    def test_no_dispatch_function_skips_rule(self, tmp_path):
        # A tree that only *declares* messages (e.g. a protocol-only
        # fixture) cannot be checked for exhaustiveness.
        assert project_findings(tmp_path, dict(self.FILES), rule="SLK102") == []


class TestSLK103StateMachine:
    @staticmethod
    def machine(transitions: str, extra: str = "") -> dict[str, str]:
        return {
            "repro/__init__.py": "",
            "repro/machine.py": f"""
            import enum

            class Phase(enum.Enum):
                START = "start"
                WORK = "work"
                DONE = "done"
                ABORTED = "aborted"

            _TRANSITIONS = {transitions}

            _NO_ABORT_PHASES = frozenset({{Phase.DONE, Phase.ABORTED}})

            class Machine:
                def _transition(self, phase):
                    pass

                def run(self):
                    self._transition(Phase.WORK)
                    self._transition(Phase.DONE)
            {extra}
            """,
        }

    CONFORMANT = """{
                Phase.START: frozenset({Phase.WORK, Phase.ABORTED}),
                Phase.WORK: frozenset({Phase.DONE, Phase.ABORTED}),
                Phase.DONE: frozenset(),
                Phase.ABORTED: frozenset(),
            }"""

    def test_conformant_machine_is_clean(self, tmp_path):
        files = self.machine(self.CONFORMANT)
        assert project_findings(tmp_path, files, rule="SLK103") == []

    def test_missing_member_entry(self, tmp_path):
        files = self.machine(
            """{
                Phase.START: frozenset({Phase.WORK, Phase.ABORTED}),
                Phase.WORK: frozenset({Phase.DONE, Phase.ABORTED}),
                Phase.ABORTED: frozenset(),
            }"""
        )
        findings = project_findings(tmp_path, files, rule="SLK103")
        assert any("`DONE` has no entry" in f.message for f in findings)

    def test_transition_call_with_no_incoming_edge(self, tmp_path):
        files = self.machine(
            self.CONFORMANT,
            extra="""
                def rogue(self):
                    self._transition(Phase.START)
            """,
        )
        findings = project_findings(tmp_path, files, rule="SLK103")
        assert len(findings) == 1
        assert "_transition(Phase.START)" in findings[0].message

    def test_abortable_phase_without_abort_path(self, tmp_path):
        files = self.machine(
            """{
                Phase.START: frozenset({Phase.WORK, Phase.ABORTED}),
                Phase.WORK: frozenset({Phase.DONE}),
                Phase.DONE: frozenset(),
                Phase.ABORTED: frozenset(),
            }"""
        )
        findings = project_findings(tmp_path, files, rule="SLK103")
        assert any(
            "`WORK`" in f.message and "no path to ABORTED" in f.message
            for f in findings
        )

    def test_self_loop_that_still_terminates_is_legal(self, tmp_path):
        files = self.machine(
            """{
                Phase.START: frozenset({Phase.WORK, Phase.ABORTED}),
                Phase.WORK: frozenset({Phase.WORK, Phase.DONE, Phase.ABORTED}),
                Phase.DONE: frozenset(),
                Phase.ABORTED: frozenset(),
            }"""
        )
        assert project_findings(tmp_path, files, rule="SLK103") == []

    def test_phase_that_cannot_terminate(self, tmp_path):
        files = self.machine(
            """{
                Phase.START: frozenset({Phase.WORK, Phase.ABORTED}),
                Phase.WORK: frozenset({Phase.WORK}),
                Phase.DONE: frozenset(),
                Phase.ABORTED: frozenset(),
            }"""
        )
        findings = project_findings(tmp_path, files, rule="SLK103")
        assert any("cannot reach any terminal" in f.message for f in findings)

    def test_real_migration_state_machine_conforms(self):
        result = analyze_project(
            [REPO_ROOT / "src" / "repro" / "migration"], root=REPO_ROOT
        )
        assert [f for f in result.findings if f.rule == "SLK103"] == []


class TestSLK104UnitsFlow:
    def test_adding_seconds_to_millis(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/flow.py": """
                def f(delay_seconds, timeout_ms):
                    return delay_seconds + timeout_ms
                """,
            },
            rule="SLK104",
        )
        assert len(findings) == 1
        assert "seconds" in findings[0].message
        assert "millis" in findings[0].message

    def test_assignment_into_wrong_suffix(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/flow.py": """
                def snapshot_seconds():
                    return 1.0

                def g():
                    wait_ms = snapshot_seconds()
                    return wait_ms
                """,
            },
            rule="SLK104",
        )
        assert len(findings) == 1
        assert "wait_ms" in findings[0].message

    def test_call_boundary_mismatch(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/flow.py": """
                def sleep_for(delay_seconds):
                    return delay_seconds

                def h(pause_ms):
                    return sleep_for(pause_ms)
                """,
            },
            rule="SLK104",
        )
        assert len(findings) == 1
        assert "delay_seconds" in findings[0].message

    def test_explicit_conversion_is_clean(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/resources/__init__.py": "",
                "repro/resources/units.py": """
                MILLIS = 1e-3

                def from_millis(value_ms):
                    return value_ms * MILLIS
                """,
                "repro/flow.py": """
                from repro.resources.units import from_millis

                def f(delay_seconds, timeout_ms):
                    return delay_seconds + from_millis(timeout_ms)
                """,
            },
            rule="SLK104",
        )
        assert findings == []

    def test_multiplication_erases_kind(self, tmp_path):
        # bytes / seconds is a rate — dimension-changing arithmetic is
        # deliberately out of scope.
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/flow.py": """
                def rate(total_bytes, elapsed_seconds):
                    return total_bytes / elapsed_seconds
                """,
            },
            rule="SLK104",
        )
        assert findings == []

    def test_real_tree_units_flow_is_clean(self, real_tree_findings):
        mismatches = [f for f in real_tree_findings if f.rule == "SLK104"]
        assert mismatches == []


class TestSLK105ObsNames:
    FILES = {
        "repro/__init__.py": "",
        "repro/obs/__init__.py": "from . import names\n",
        "repro/obs/names.py": 'MIGRATION_SPAN = "migration"\n',
    }

    def test_known_constant_is_clean(self, tmp_path):
        files = dict(self.FILES)
        files["repro/use.py"] = """
        from repro.obs import names

        def instrument(registry):
            registry.counter(names.MIGRATION_SPAN)
        """
        assert project_findings(tmp_path, files, rule="SLK105") == []

    def test_unknown_attribute_is_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["repro/use.py"] = """
        from repro.obs import names

        def instrument(registry):
            registry.counter(names.NO_SUCH_NAME)
        """
        findings = project_findings(tmp_path, files, rule="SLK105")
        assert len(findings) == 1
        assert "NO_SUCH_NAME" in findings[0].message

    def test_import_of_missing_name_is_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["repro/use.py"] = "from repro.obs.names import NOPE\n"
        findings = project_findings(tmp_path, files, rule="SLK105")
        assert len(findings) == 1
        assert "NOPE" in findings[0].message

    def test_constant_defined_outside_registry_is_flagged(self, tmp_path):
        files = dict(self.FILES)
        files["repro/use.py"] = """
        LOCAL_NAME = "rogue"

        def instrument(registry):
            registry.counter(LOCAL_NAME)
        """
        findings = project_findings(tmp_path, files, rule="SLK105")
        assert len(findings) == 1
        assert "LOCAL_NAME" in findings[0].message

    def test_rule_skipped_without_names_module(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/use.py": (
                    "def instrument(registry):\n"
                    '    registry.counter("literal")\n'
                ),
            },
            rule="SLK105",
        )
        assert findings == []


class TestRunnerAndCache:
    FILES = {
        "repro/__init__.py": "",
        "repro/sim.py": """
        import time

        def process(env):
            started = time.time()
            yield 1
            time.sleep(1)
        """,
    }

    def test_cache_round_trip(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(self.FILES))
        cache_dir = tmp_path / "cache"
        first = run_lint(
            [tree], root=tree, project=True, use_cache=True, cache_dir=cache_dir
        )
        second = run_lint(
            [tree], root=tree, project=True, use_cache=True, cache_dir=cache_dir
        )
        assert not first.cache_hit and second.cache_hit
        assert first.findings == second.findings
        assert any(f.rule == "SLK101" for f in second.findings)

    def test_cache_invalidated_by_edit(self, tmp_path):
        tree = write_tree(tmp_path / "tree", dict(self.FILES))
        cache_dir = tmp_path / "cache"
        run_lint([tree], root=tree, project=True, use_cache=True, cache_dir=cache_dir)
        (tree / "repro" / "sim.py").write_text(
            "def process(env):\n    yield 1\n"
        )
        rerun = run_lint(
            [tree], root=tree, project=True, use_cache=True, cache_dir=cache_dir
        )
        assert not rerun.cache_hit
        assert rerun.findings == []

    def test_unused_pragma_reported(self, tmp_path):
        tree = write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/mod.py": (
                    "# slackerlint: disable=SLK003\n"
                    "def f():\n"
                    "    return 1\n"
                ),
            },
        )
        run = run_lint([tree], project=True, collect_unused=True)
        assert [(Path(p).name, line, rule) for p, line, rule in run.unused_pragmas] == [
            ("mod.py", 1, "SLK003")
        ]

    def test_used_pragma_not_reported(self, tmp_path):
        tree = write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/mod.py": (
                    "import time\n"
                    "t = time.time()  # slackerlint: disable=SLK001\n"
                ),
            },
        )
        run = run_lint([tree], project=True, collect_unused=True)
        assert run.unused_pragmas == []
        assert run.findings == []

    def test_pragma_for_scoped_away_rule_is_not_stale(self, tmp_path):
        # SLK001 does not run under wall_clock_allow prefixes, so a
        # defensive pragma there must not be reported as unused.
        tree = write_tree(
            tmp_path,
            {
                "scripts/__init__.py": "",
                "scripts/tool.py": (
                    "import time\n"
                    "t = time.time()  # slackerlint: disable=SLK001\n"
                ),
            },
        )
        config = LintConfig(wall_clock_allow=("scripts/",))
        run = run_lint(
            [tree], config=config, root=tree, project=True, collect_unused=True
        )
        assert run.unused_pragmas == []


class TestSarif:
    def test_sarif_shape(self, tmp_path):
        tree = write_tree(tmp_path, dict(TestRunnerAndCache.FILES))
        run = run_lint([tree], root=tree, project=True)
        log = to_sarif(run.findings)
        assert log["version"] == "2.1.0"
        (sarif_run,) = log["runs"]
        rule_ids = {r["id"] for r in sarif_run["tool"]["driver"]["rules"]}
        assert {"SLK001", "SLK101", "SLK105"} <= rule_ids
        assert sarif_run["results"], "expected results for a dirty tree"
        result = sarif_run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1
        assert result["ruleId"].startswith("SLK")


class TestCli:
    def test_project_flag_end_to_end(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dict(TestRunnerAndCache.FILES))
        monkeypatch.chdir(tmp_path)
        code = lint_main(["--project", "--no-config", "repro"])
        out = capsys.readouterr().out
        assert code == 1
        assert "SLK101" in out
        # Per-file rules run too: time import is fine, but wall-clock
        # *call* inside repro/ trips SLK001 as before.
        assert "SLK001" in out

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch):
        write_tree(
            tmp_path,
            {"repro/__init__.py": "", "repro/ok.py": "def f():\n    return 1\n"},
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main(["--project", "--no-config", "repro"]) == 0

    def test_show_unused_pragmas_gates(self, tmp_path, monkeypatch, capsys):
        write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/mod.py": (
                    "# slackerlint: disable=SLK003\n"
                    "def f():\n"
                    "    return 1\n"
                ),
            },
        )
        monkeypatch.chdir(tmp_path)
        code = lint_main(
            ["--project", "--no-config", "--show-unused-pragmas", "repro"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "unused suppression pragma" in out

    def test_sarif_output_parses(self, tmp_path, monkeypatch, capsys):
        write_tree(tmp_path, dict(TestRunnerAndCache.FILES))
        monkeypatch.chdir(tmp_path)
        lint_main(["--project", "--no-config", "--format", "sarif", "repro"])
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"]

    def test_list_rules_includes_project_family(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SLK001", "SLK101", "SLK102", "SLK103", "SLK104", "SLK105"):
            assert rule_id in out


class TestSLK106PlacementLaunchPath:
    def test_direct_migrate_tenant_is_flagged(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/placement/__init__.py": "",
                "repro/placement/manager.py": """
                def relieve(env, node, proposal):
                    yield env.process(
                        node.migrate_tenant(proposal.tenant_id, proposal.target)
                    )
                """,
            },
            rule="SLK106",
        )
        assert len(findings) == 1
        assert "migrate_tenant" in findings[0].message
        assert "budget" in findings[0].message

    def test_enqueue_migration_is_flagged(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/placement/__init__.py": "",
                "repro/placement/policy.py": """
                def queue_all(node, proposals):
                    for proposal in proposals:
                        node.enqueue_migration(proposal.tenant_id, proposal.target)
                """,
            },
            rule="SLK106",
        )
        assert len(findings) == 1

    def test_executor_is_on_the_allow_list(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/placement/__init__.py": "",
                "repro/placement/executor.py": """
                def launch(env, node, proposal, setpoint):
                    return env.process(
                        node.migrate_tenant(
                            proposal.tenant_id, proposal.target, setpoint=setpoint
                        )
                    )
                """,
            },
            rule="SLK106",
        )
        assert findings == []

    def test_outside_placement_scope_is_exempt(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/admin.py": """
                def do_migrate(env, source, tenant_id, target):
                    proc = env.process(source.migrate_tenant(tenant_id, target))
                    return env.run(until=proc)
                """,
            },
            rule="SLK106",
        )
        assert findings == []

    def test_pragma_suppresses_at_call_site(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/placement/__init__.py": "",
                "repro/placement/manager.py": (
                    "def relieve(node, proposal):\n"
                    "    node.migrate_tenant(  # slackerlint: disable=SLK106\n"
                    "        proposal.tenant_id, proposal.target\n"
                    "    )\n"
                ),
            },
            rule="SLK106",
        )
        assert findings == []

    def test_real_placement_tree_is_clean(self, real_tree_findings):
        """The shipped placement package itself obeys the invariant."""
        launches = [f for f in real_tree_findings if f.rule == "SLK106"]
        assert launches == []


_FENCING_PROTOCOL = """
def register_message(cls):
    return cls


@register_message
class MigrateRequest:
    tenant_id: int = 0
    token: int = 0


@register_message
class Heartbeat:
    node: str = ""
"""


class TestSLK107FencingTokenRequired:
    def test_tokenless_construction_is_flagged(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/protocol.py": _FENCING_PROTOCOL,
                "repro/middleware/node.py": """
                from .protocol import Heartbeat, MigrateRequest

                def start(tenant_id):
                    frame = MigrateRequest(tenant_id=tenant_id)
                    beat = Heartbeat(node="a")
                    return frame, beat
                """,
            },
            rule="SLK107",
        )
        assert len(findings) == 1
        assert "MigrateRequest" in findings[0].message
        assert "fencing" in findings[0].message

    def test_token_kwarg_satisfies_the_rule(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/protocol.py": _FENCING_PROTOCOL,
                "repro/middleware/node.py": """
                from .protocol import MigrateRequest

                def start(tenant_id, token):
                    return MigrateRequest(tenant_id=tenant_id, token=token)
                """,
            },
            rule="SLK107",
        )
        assert findings == []

    def test_kwargs_spread_is_trusted(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/protocol.py": _FENCING_PROTOCOL,
                "repro/middleware/node.py": """
                from .protocol import MigrateRequest

                def replay(fields):
                    return MigrateRequest(**fields)
                """,
            },
            rule="SLK107",
        )
        assert findings == []

    def test_outside_fencing_scope_is_exempt(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/protocol.py": _FENCING_PROTOCOL,
                "repro/experiments/__init__.py": "",
                "repro/experiments/driver.py": """
                from repro.middleware.protocol import MigrateRequest

                def probe(tenant_id):
                    return MigrateRequest(tenant_id=tenant_id)
                """,
            },
            rule="SLK107",
        )
        assert findings == []

    def test_pragma_allows_legacy_constructor(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/protocol.py": _FENCING_PROTOCOL,
                "repro/middleware/node.py": (
                    "from .protocol import MigrateRequest\n"
                    "\n"
                    "def legacy(tenant_id):\n"
                    "    return MigrateRequest(  # slackerlint: disable=SLK107\n"
                    "        tenant_id=tenant_id\n"
                    "    )\n"
                ),
            },
            rule="SLK107",
        )
        assert findings == []

    def test_real_migration_tree_is_clean(self, real_tree_findings):
        """Every shipped migration-scope frame already carries token=."""
        unfenced = [f for f in real_tree_findings if f.rule == "SLK107"]
        assert unfenced == []


class TestSLK108ChunkFlipFenced:
    def test_tokenless_flip_is_flagged(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/migration/__init__.py": "",
                "repro/migration/fluid.py": """
                def rollback(chunk_map, chunk):
                    return chunk_map.flip_chunk(chunk, "source")
                """,
            },
            rule="SLK108",
        )
        assert len(findings) == 1
        assert "flip_chunk" in findings[0].message
        assert "fencing" in findings[0].message

    def test_tokenless_location_update_is_flagged(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/middleware/__init__.py": "",
                "repro/middleware/node.py": """
                def notify(frontend, tenant_id, chunk, target):
                    frontend.update_chunk_location(tenant_id, chunk, target)
                """,
            },
            rule="SLK108",
        )
        assert len(findings) == 1
        assert "update_chunk_location" in findings[0].message

    def test_token_kwarg_satisfies_the_rule(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/migration/__init__.py": "",
                "repro/migration/fluid.py": """
                def flip(chunk_map, chunk, token):
                    return chunk_map.flip_chunk(chunk, "target", token=token)
                """,
            },
            rule="SLK108",
        )
        assert findings == []

    def test_kwargs_spread_is_trusted(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/migration/__init__.py": "",
                "repro/migration/fluid.py": """
                def replay(chunk_map, chunk, fields):
                    return chunk_map.flip_chunk(chunk, "target", **fields)
                """,
            },
            rule="SLK108",
        )
        assert findings == []

    def test_outside_fencing_scope_is_exempt(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/experiments/__init__.py": "",
                "repro/experiments/driver.py": """
                def probe(chunk_map, chunk):
                    return chunk_map.flip_chunk(chunk, "target")
                """,
            },
            rule="SLK108",
        )
        assert findings == []

    def test_pragma_allows_unfenced_caller(self, tmp_path):
        findings = project_findings(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/migration/__init__.py": "",
                "repro/migration/fluid.py": (
                    "def seed(chunk_map, chunk):\n"
                    "    return chunk_map.flip_chunk(  # slackerlint: disable=SLK108\n"
                    "        chunk, 'source'\n"
                    "    )\n"
                ),
            },
            rule="SLK108",
        )
        assert findings == []

    def test_real_migration_tree_is_clean(self, real_tree_findings):
        """Every shipped chunk flip already goes through the fence."""
        unfenced = [f for f in real_tree_findings if f.rule == "SLK108"]
        assert unfenced == []


class TestTiming:
    def test_project_pass_is_fast_enough_for_ci(self):
        """Whole-tree project lint must stay well under the CI budget.

        Wall-clock use is fine here: tests are not simulation code, and
        this is exactly the latency CI will pay on every push.
        """
        started = time.perf_counter()
        run = run_lint(
            [REPO_ROOT / "src"], root=REPO_ROOT, project=True
        )
        elapsed = time.perf_counter() - started
        assert run.findings == []
        assert elapsed < 10.0, f"project lint took {elapsed:.1f}s"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
