"""Per-rule fixtures for slackerlint: one positive and one negative
snippet per rule, plus pragma suppression, config, and CLI output tests."""

from __future__ import annotations

import json

from repro.lint import LintConfig, all_rules, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.config import load_pyproject_config, parse_lint_table
from repro.lint.framework import ImportTracker, parse_pragmas


def rule_ids(source: str, rel_path: str = "src/repro/example.py", config=None):
    return [f.rule for f in lint_source(source, rel_path=rel_path, config=config)]


class TestSLK001WallClock:
    def test_positive_time_time(self):
        src = "import time\nstarted = time.time()\n"
        assert "SLK001" in rule_ids(src)

    def test_positive_datetime_now(self):
        src = "from datetime import datetime\nts = datetime.now()\n"
        assert "SLK001" in rule_ids(src)

    def test_positive_aliased_import(self):
        src = "import time as t\nx = t.monotonic()\n"
        assert "SLK001" in rule_ids(src)

    def test_negative_sim_clock(self):
        src = "def probe(env):\n    return env.now\n"
        assert "SLK001" not in rule_ids(src)

    def test_allowlisted_path_is_exempt(self):
        src = "import time\nstarted = time.time()\n"
        assert "SLK001" not in rule_ids(src, rel_path="scripts/bench.py")

    def test_time_sleep_is_not_a_clock_read(self):
        src = "import time\ntime.sleep(1)\n"
        assert "SLK001" not in rule_ids(src)


class TestSLK002GlobalRandom:
    def test_positive_module_level_function(self):
        src = "import random\nx = random.random()\n"
        assert "SLK002" in rule_ids(src)

    def test_positive_unseeded_random(self):
        src = "import random\nrng = random.Random()\n"
        assert "SLK002" in rule_ids(src)

    def test_positive_literal_seed(self):
        src = "import random\nrng = random.Random(0)\n"
        assert "SLK002" in rule_ids(src)

    def test_positive_from_import(self):
        src = "from random import Random\nrng = Random(42)\n"
        assert "SLK002" in rule_ids(src)

    def test_negative_derived_seed(self):
        src = (
            "import random\n"
            "def make(seed_for):\n"
            "    return random.Random(seed_for('cpu'))\n"
        )
        assert "SLK002" not in rule_ids(src)

    def test_negative_instance_method(self):
        src = "def draw(rng):\n    return rng.random()\n"
        assert "SLK002" not in rule_ids(src)


class TestSLK003FloatEquality:
    def test_positive_float_literal(self):
        src = "def f(x):\n    return x == 1.5\n"
        assert "SLK003" in rule_ids(src)

    def test_positive_negated_float(self):
        src = "def f(x):\n    return x != -0.5\n"
        assert "SLK003" in rule_ids(src)

    def test_positive_float_call(self):
        src = "def f(x, y):\n    return x == float(y)\n"
        assert "SLK003" in rule_ids(src)

    def test_negative_int_literal(self):
        src = "def f(x):\n    return x == 0\n"
        assert "SLK003" not in rule_ids(src)

    def test_negative_inequality(self):
        src = "def f(x):\n    return x < 1.5\n"
        assert "SLK003" not in rule_ids(src)


class TestSLK004MutableDefault:
    def test_positive_list_default(self):
        src = "def f(items=[]):\n    return items\n"
        assert "SLK004" in rule_ids(src)

    def test_positive_dict_call_default(self):
        src = "def f(opts=dict()):\n    return opts\n"
        assert "SLK004" in rule_ids(src)

    def test_positive_kwonly_default(self):
        src = "def f(*, items={}):\n    return items\n"
        assert "SLK004" in rule_ids(src)

    def test_negative_none_default(self):
        src = "def f(items=None):\n    return items or []\n"
        assert "SLK004" not in rule_ids(src)

    def test_negative_dataclass_field_factory(self):
        src = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class C:\n"
            "    xs: list = field(default_factory=list)\n"
        )
        assert "SLK004" not in rule_ids(src)


class TestSLK005SwallowedException:
    def test_positive_bare_except(self):
        src = "try:\n    run()\nexcept:\n    pass\n"
        assert "SLK005" in rule_ids(src)

    def test_positive_swallowed_exception(self):
        src = "try:\n    run()\nexcept Exception:\n    pass\n"
        assert "SLK005" in rule_ids(src)

    def test_negative_narrow_handler(self):
        src = "try:\n    run()\nexcept ValueError:\n    pass\n"
        assert "SLK005" not in rule_ids(src)

    def test_negative_handled_exception(self):
        src = "try:\n    run()\nexcept Exception:\n    log()\n    raise\n"
        assert "SLK005" not in rule_ids(src)


class TestSLK006RawByteLiteral:
    def test_positive_kib_product(self):
        src = "THRESHOLD = 64 * 1024\n"
        assert "SLK006" in rule_ids(src)

    def test_positive_shift(self):
        src = "FLOOR = 1 << 20\n"
        assert "SLK006" in rule_ids(src)

    def test_positive_bare_megabyte(self):
        src = "BUF = 1048576\n"
        assert "SLK006" in rule_ids(src)

    def test_negative_units_helper(self):
        src = "from repro.resources.units import KB\nTHRESHOLD = 64 * KB\n"
        assert "SLK006" not in rule_ids(src)

    def test_negative_non_byte_number(self):
        src = "N_RESAMPLES = 2000\n"
        assert "SLK006" not in rule_ids(src)

    def test_units_scope_limits_rule(self):
        src = "THRESHOLD = 64 * 1024\n"
        config = LintConfig(units_scope=("src/repro/migration/",))
        assert "SLK006" in rule_ids(
            src, rel_path="src/repro/migration/live.py", config=config
        )
        assert "SLK006" not in rule_ids(
            src, rel_path="src/repro/analysis/plot.py", config=config
        )


class TestSLK007WallClockCallback:
    def test_positive_named_callback(self):
        src = (
            "import time\n"
            "def stamp(event):\n"
            "    return time.time()\n"
            "def attach(event):\n"
            "    event.callbacks.append(stamp)\n"
        )
        assert "SLK007" in rule_ids(src)

    def test_positive_lambda_callback(self):
        src = (
            "import time\n"
            "def attach(event):\n"
            "    event.callbacks.append(lambda e: time.time())\n"
        )
        assert "SLK007" in rule_ids(src)

    def test_negative_clean_callback(self):
        src = (
            "def stamp(event):\n"
            "    return event.env.now\n"
            "def attach(event):\n"
            "    event.callbacks.append(stamp)\n"
        )
        assert "SLK007" not in rule_ids(src)

    def test_negative_wall_clock_not_registered(self):
        # SLK001 still fires, but SLK007 is about registration sites.
        src = (
            "import time\n"
            "def stamp(event):\n"
            "    return time.time()\n"
        )
        ids = rule_ids(src)
        assert "SLK007" not in ids
        assert "SLK001" in ids


class TestSLK008SharedModuleState:
    WORKER_PATH = "src/repro/parallel/tasks.py"

    def test_positive_module_level_dict(self):
        src = "CACHE = {}\n"
        assert "SLK008" in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_positive_module_level_list_call(self):
        src = "RESULTS = list()\n"
        assert "SLK008" in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_positive_annotated_mutable(self):
        src = "SEEN: dict = {}\n"
        assert "SLK008" in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_positive_collections_factory(self):
        src = (
            "import collections\n"
            "COUNTS = collections.defaultdict(int)\n"
        )
        assert "SLK008" in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_positive_global_statement(self):
        src = (
            "TOTAL = 0\n"
            "def bump():\n"
            "    global TOTAL\n"
            "    TOTAL += 1\n"
        )
        assert "SLK008" in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_negative_immutable_constants(self):
        src = (
            "RATES = (4, 8, 12)\n"
            "NAMES = frozenset({'a', 'b'})\n"
            "TASK = 'repro.parallel.tasks:single_tenant_point'\n"
        )
        assert "SLK008" not in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_negative_dunder_metadata(self):
        src = "__all__ = ['SweepRunner']\n"
        assert "SLK008" not in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_negative_function_local_mutables(self):
        src = "def collect():\n    out = []\n    return out\n"
        assert "SLK008" not in rule_ids(src, rel_path=self.WORKER_PATH)

    def test_negative_outside_worker_scope(self):
        src = "CACHE = {}\n"
        assert "SLK008" not in rule_ids(src, rel_path="src/repro/example.py")

    def test_worker_scope_configurable(self):
        src = "CACHE = {}\n"
        config = LintConfig(worker_scope=("src/mypool/",))
        assert "SLK008" in rule_ids(src, rel_path="src/mypool/w.py", config=config)
        assert "SLK008" not in rule_ids(
            src, rel_path=self.WORKER_PATH, config=config
        )


class TestPragmas:
    def test_line_pragma_suppresses_only_that_line(self):
        src = (
            "import time\n"
            "a = time.time()  # slackerlint: disable=SLK001\n"
            "b = time.time()\n"
        )
        findings = lint_source(src, rel_path="src/repro/example.py")
        slk001 = [f for f in findings if f.rule == "SLK001"]
        assert [f.line for f in slk001] == [3]

    def test_file_pragma_suppresses_whole_file(self):
        src = (
            "# slackerlint: disable=SLK001\n"
            "import time\n"
            "a = time.time()\n"
            "b = time.time()\n"
        )
        assert "SLK001" not in rule_ids(src)

    def test_pragma_with_multiple_rules(self):
        src = (
            "import time, random\n"
            "x = time.time() + random.random()  "
            "# slackerlint: disable=SLK001,SLK002\n"
        )
        ids = rule_ids(src)
        assert "SLK001" not in ids and "SLK002" not in ids

    def test_pragma_in_string_is_ignored(self):
        src = (
            'PRAGMA = "# slackerlint: disable=SLK001"\n'
            "import time\n"
            "a = time.time()\n"
        )
        assert "SLK001" in rule_ids(src)

    def test_parse_pragmas_classification(self):
        src = (
            "# slackerlint: disable=SLK006\n"
            "x = f()  # slackerlint: disable=SLK001\n"
        )
        pragmas = parse_pragmas(src)
        assert pragmas.file_disabled == {"SLK006": 1}
        assert pragmas.line_disabled == {2: {"SLK001"}}


class TestConfig:
    def test_disable_drops_rule(self):
        src = "def f(items=[]):\n    return items\n"
        config = LintConfig(disable=("SLK004",))
        assert "SLK004" not in rule_ids(src, config=config)

    def test_wall_clock_allow_prefix(self):
        src = "import time\nx = time.time()\n"
        config = LintConfig(wall_clock_allow=("tools/",))
        assert "SLK001" in rule_ids(src, rel_path="scripts/a.py", config=config)
        assert "SLK001" not in rule_ids(src, rel_path="tools/a.py", config=config)

    def test_load_pyproject_config(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.lint]\n"
            'disable = ["SLK004", "SLK006"]\n'
            'wall_clock_allow = ["scripts/", "benchmarks/"]\n'
        )
        config = load_pyproject_config(pyproject)
        assert config is not None
        assert config.disable == ("SLK004", "SLK006")
        assert config.wall_clock_allow == ("scripts/", "benchmarks/")

    def test_load_pyproject_without_lint_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text("[project]\nname = 'x'\n")
        assert load_pyproject_config(pyproject) is None

    def test_fallback_parser_matches_tomllib(self):
        text = (
            "[project]\n"
            'name = "repro"\n'
            "[tool.repro.lint]\n"
            'disable = ["SLK004"]  # trailing comment\n'
            'wall_clock_allow = ["scripts/"]\n'
            "[tool.other]\n"
            'disable = ["NOT-OURS"]\n'
        )
        table = parse_lint_table(text)
        assert table == {
            "disable": ["SLK004"],
            "wall_clock_allow": ["scripts/"],
        }


class TestRegistryAndSyntax:
    def test_all_eight_rules_registered(self):
        ids = set(all_rules())
        assert {f"SLK00{i}" for i in range(1, 9)} <= ids

    def test_syntax_error_reported_not_raised(self):
        findings = lint_source("def broken(:\n")
        assert [f.rule for f in findings] == ["E000"]

    def test_lint_paths_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "bad.py").write_text("import time\nx = time.time()\n")
        (tmp_path / "pkg" / "good.py").write_text("Y = 1\n")
        findings = lint_paths([tmp_path / "pkg"], root=tmp_path)
        assert {f.rule for f in findings} == {"SLK001"}


class TestCli:
    def test_exit_zero_and_text_output_on_clean_file(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("X = 1\n")
        assert lint_main([str(clean), "--no-config"]) == 0
        assert "0 findings" in capsys.readouterr().err

    def test_exit_one_with_rule_id_and_location(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nx = time.time()\n")
        assert lint_main([str(dirty), "--no-config"]) == 1
        out = capsys.readouterr().out
        assert "SLK001" in out
        assert "dirty.py:2:" in out

    def test_json_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\nrandom.seed(3)\n")
        assert lint_main([str(dirty), "--format", "json", "--no-config"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule"] == "SLK002"
        assert payload["findings"][0]["line"] == 2

    def test_disable_flag(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(a=[]):\n    return a\n")
        assert lint_main([str(dirty), "--disable", "SLK004", "--no-config"]) == 0

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py"), "--no-config"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "SLK001" in out and "SLK007" in out


class TestImportTracker:
    def test_doctest_examples(self):
        import ast

        tree = ast.parse("import time as t\nfrom random import Random\n")
        tracker = ImportTracker.from_tree(tree)
        assert tracker.resolve_name("t") == "time"
        assert tracker.resolve_name("Random") == "random.Random"

    def test_qualname_of_attribute_chain(self):
        import ast

        tree = ast.parse("import datetime\nx = datetime.datetime.now()\n")
        tracker = ImportTracker.from_tree(tree)
        call = tree.body[1].value
        assert tracker.qualname(call.func) == "datetime.datetime.now"


class TestSLK009UnboundedRetry:
    def test_positive_retry_from_except_handler(self):
        src = (
            "def send_forever(sock, data):\n"
            "    while True:\n"
            "        try:\n"
            "            sock.send(data)\n"
            "            return\n"
            "        except OSError:\n"
            "            continue\n"
        )
        assert "SLK009" in rule_ids(src)

    def test_negative_attempt_counter_bounds_loop(self):
        src = (
            "def send_bounded(sock, data, max_attempts):\n"
            "    attempt = 0\n"
            "    while True:\n"
            "        try:\n"
            "            sock.send(data)\n"
            "            return\n"
            "        except OSError:\n"
            "            attempt += 1\n"
            "            if attempt >= max_attempts:\n"
            "                raise\n"
            "            continue\n"
        )
        assert "SLK009" not in rule_ids(src)

    def test_negative_deadline_bounds_loop(self):
        src = (
            "def send_until(env, sock, data, deadline):\n"
            "    while True:\n"
            "        try:\n"
            "            sock.send(data)\n"
            "            return\n"
            "        except OSError:\n"
            "            if env.now > deadline:\n"
            "                raise\n"
            "            continue\n"
        )
        assert "SLK009" not in rule_ids(src)

    def test_negative_range_loop_is_bounded_by_construction(self):
        src = (
            "def send_retrying(sock, data, n):\n"
            "    for attempt in range(n):\n"
            "        try:\n"
            "            sock.send(data)\n"
            "            return\n"
            "        except OSError:\n"
            "            continue\n"
            "    raise RuntimeError\n"
        )
        assert "SLK009" not in rule_ids(src)

    def test_negative_continue_outside_except(self):
        src = (
            "def pump(queue):\n"
            "    while True:\n"
            "        item = queue.get()\n"
            "        if item is None:\n"
            "            continue\n"
            "        queue.handle(item)\n"
        )
        assert "SLK009" not in rule_ids(src)

    def test_negative_continue_in_nested_loop_belongs_to_it(self):
        src = (
            "def drain(conns):\n"
            "    while True:\n"
            "        try:\n"
            "            pass\n"
            "        except OSError:\n"
            "            for c in conns:\n"
            "                if not c:\n"
            "                    continue\n"
            "            raise\n"
        )
        assert "SLK009" not in rule_ids(src)

    def test_positive_jitter_constructs_fresh_rng(self):
        src = (
            "import random\n"
            "def backoff_with_jitter(base):\n"
            "    rng = random.Random()  # slackerlint: disable=SLK002\n"
            "    return base + rng.random()\n"
        )
        assert "SLK009" in rule_ids(src)

    def test_negative_jitter_from_passed_stream(self):
        src = (
            "def backoff_with_jitter(base, rng):\n"
            "    return base + base * rng.random()\n"
        )
        assert "SLK009" not in rule_ids(src)

    def test_scope_exempts_tests(self):
        src = (
            "def loop(sock):\n"
            "    while True:\n"
            "        try:\n"
            "            sock.send(b'x')\n"
            "        except OSError:\n"
            "            continue\n"
        )
        assert "SLK009" not in rule_ids(src, rel_path="tests/test_example.py")

    def test_retry_scope_configurable(self):
        src = (
            "def loop(sock):\n"
            "    while True:\n"
            "        try:\n"
            "            sock.send(b'x')\n"
            "        except OSError:\n"
            "            continue\n"
        )
        config = LintConfig(retry_scope=("mypkg/",))
        assert "SLK009" in rule_ids(src, rel_path="mypkg/net.py", config=config)
        assert "SLK009" not in rule_ids(src, rel_path="src/repro/x.py", config=config)

class TestSLK010DynamicMetricName:
    def test_positive_fstring_counter_name(self):
        src = (
            "def hook(registry, tenant):\n"
            "    registry.counter(f'migrations.{tenant}.total').inc()\n"
        )
        assert "SLK010" in rule_ids(src)

    def test_positive_concatenated_span_name(self):
        src = (
            "def hook(tracer, phase):\n"
            "    tracer.begin('migration.' + phase)\n"
        )
        assert "SLK010" in rule_ids(src)

    def test_positive_string_literal_name(self):
        # Even a plain literal at the call site bypasses the registered
        # vocabulary: two sites can drift apart unnoticed.
        src = (
            "def hook(registry):\n"
            "    registry.counter('migration.phases_total').inc()\n"
        )
        assert "SLK010" in rule_ids(src)

    def test_positive_call_built_name(self):
        src = (
            "def hook(obs, kind):\n"
            "    obs.tracer.event('fault_{}'.format(kind))\n"
        )
        assert "SLK010" in rule_ids(src)

    def test_negative_module_constant(self):
        src = (
            "from repro.obs import names\n"
            "def hook(registry):\n"
            "    registry.counter(names.MIGRATION_PHASES_TOTAL).inc()\n"
        )
        assert "SLK010" not in rule_ids(src)

    def test_negative_bare_constant_reference(self):
        src = (
            "PHASES_TOTAL = 'migration.phases_total'\n"
            "def hook(registry):\n"
            "    registry.counter(PHASES_TOTAL).inc()\n"
        )
        assert "SLK010" not in rule_ids(src)

    def test_negative_suffix_keyword_carries_cardinality(self):
        src = (
            "from repro.obs import names\n"
            "def hook(registry, server):\n"
            "    registry.gauge(names.DISK_UTILIZATION, suffix=server).set(0.5)\n"
        )
        assert "SLK010" not in rule_ids(src)

    def test_negative_unrelated_receiver(self):
        # .event()/.begin() on non-observability objects must not fire.
        src = (
            "def notify(dispatcher, kind):\n"
            "    dispatcher.event(f'user.{kind}')\n"
        )
        assert "SLK010" not in rule_ids(src)

    def test_obs_scope_configurable(self):
        src = (
            "def hook(registry, tenant):\n"
            "    registry.counter(f'x.{tenant}').inc()\n"
        )
        config = LintConfig(obs_scope=("mypkg/",))
        assert "SLK010" in rule_ids(src, rel_path="mypkg/obs.py", config=config)
        assert "SLK010" not in rule_ids(src, rel_path="src/repro/x.py", config=config)

    def test_pragma_suppresses(self):
        src = (
            "def hook(registry, tenant):\n"
            "    registry.counter(f'x.{tenant}').inc()  "
            "# slackerlint: disable=SLK010\n"
        )
        assert "SLK010" not in rule_ids(src)


class TestSLK011EagerPeriodicLoop:
    PATH = "src/repro/middleware/pump.py"

    def test_positive_constant_interval(self):
        src = (
            "def heartbeat_loop(env):\n"
            "    while True:\n"
            "        yield env.timeout(0.5)\n"
            "        env.beat()\n"
        )
        assert "SLK011" in rule_ids(src, rel_path=self.PATH)

    def test_positive_attribute_interval(self):
        src = (
            "def refill_loop(self):\n"
            "    while self._running:\n"
            "        yield self.env.timeout(self.tick)\n"
            "        self.bucket.put(self.rate * self.tick)\n"
        )
        assert "SLK011" in rule_ids(src, rel_path=self.PATH)

    def test_negative_rng_drawn_interval_is_aperiodic(self):
        src = (
            "def arrival_loop(env, rng, rate):\n"
            "    while True:\n"
            "        yield env.timeout(rng.expovariate(rate))\n"
            "        env.emit()\n"
        )
        assert "SLK011" not in rule_ids(src, rel_path=self.PATH)

    def test_negative_interval_reassigned_in_loop(self):
        src = (
            "def backoff_loop(env, delay):\n"
            "    while True:\n"
            "        yield env.timeout(delay)\n"
            "        delay = delay * 2\n"
        )
        assert "SLK011" not in rule_ids(src, rel_path=self.PATH)

    def test_negative_attribute_leaf_reassigned_in_loop(self):
        src = (
            "def adaptive_loop(self, env):\n"
            "    while True:\n"
            "        yield env.timeout(self.interval)\n"
            "        self.interval = self.controller.update()\n"
        )
        assert "SLK011" not in rule_ids(src, rel_path=self.PATH)

    def test_negative_one_shot_timeout_outside_loop(self):
        src = (
            "def settle(env):\n"
            "    yield env.timeout(5.0)\n"
            "    env.done()\n"
        )
        assert "SLK011" not in rule_ids(src, rel_path=self.PATH)

    def test_negative_out_of_scope_path(self):
        src = (
            "def heartbeat_loop(env):\n"
            "    while True:\n"
            "        yield env.timeout(0.5)\n"
        )
        assert "SLK011" not in rule_ids(src, rel_path="src/repro/workload/pump.py")

    def test_periodic_scope_configurable(self):
        src = (
            "def heartbeat_loop(env):\n"
            "    while True:\n"
            "        yield env.timeout(0.5)\n"
        )
        config = LintConfig(periodic_scope=("mypkg/",))
        assert "SLK011" in rule_ids(src, rel_path="mypkg/pump.py", config=config)
        assert "SLK011" not in rule_ids(
            src, rel_path="src/repro/middleware/pump.py", config=config
        )
        disabled = LintConfig(periodic_scope=())
        assert "SLK011" not in rule_ids(src, rel_path=self.PATH, config=disabled)

    def test_pragma_suppresses(self):
        src = (
            "def refill_loop(self):\n"
            "    while self._running:\n"
            "        yield self.env.timeout(self.tick)  "
            "# slackerlint: disable=SLK011\n"
        )
        assert "SLK011" not in rule_ids(src, rel_path=self.PATH)


class TestSLK013UnconsumedService:
    def test_negative_yield_from_in_a_process(self):
        src = (
            "def op(self, txn, cost):\n"
            "    yield from self.server.cpu.execute(cost)\n"
            "    yield from self.server.disk.read(PAGE_SIZE, sequential=True)\n"
            "    yield from self.source.server.nic_out.transfer(PAGE_SIZE)\n"
            "    yield from engine._access_page(txn, 0, False)\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_negative_returned_outside_a_process(self):
        src = (
            "def read(self, nbytes):\n"
            "    return self.disk.read(nbytes)\n"
            "def setup(env, cpu):\n"
            "    env.process(cpu.execute(1.0))\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_negative_other_receivers(self):
        src = (
            "def loop(self, txn, console, handle):\n"
            "    yield from self.engine.execute(txn)\n"
            "    console.execute('status')\n"
            "    handle.read()\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_negative_nested_function_outside_the_process(self):
        src = (
            "def proc(env, disk):\n"
            "    def start():\n"
            "        return env.process(disk.read(4))\n"
            "    yield env.timeout(1.0)\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_positive_passed_to_env_process(self):
        src = (
            "def noise(env, disk):\n"
            "    while True:\n"
            "        yield env.timeout(1.0)\n"
            "        env.process(disk.read(16))\n"
        )
        assert "SLK013" in rule_ids(src)

    def test_positive_stored_then_consumed(self):
        src = (
            "def op(self, cost):\n"
            "    work = self.server.cpu.execute(cost)\n"
            "    self.stats.ops += 1\n"
            "    yield from work\n"
        )
        assert "SLK013" in rule_ids(src)

    def test_positive_returned_from_a_process(self):
        src = (
            "def fetch(self):\n"
            "    yield self.env.timeout(0)\n"
            "    return self.link.transfer(8)\n"
        )
        assert "SLK013" in rule_ids(src)

    def test_positive_yielded_instead_of_yield_from(self):
        src = "def burst(cpu):\n    yield cpu.execute(1.0)\n"
        assert "SLK013" in rule_ids(src)

    def test_positive_page_access_combined(self):
        src = (
            "def touch(env, engine, txn):\n"
            "    yield env.all_of([env.process(engine._access_page(txn, 1, True))])\n"
        )
        assert "SLK013" in rule_ids(src)

    def test_pragma_suppresses(self):
        src = (
            "def noise(env, disk):\n"
            "    yield env.timeout(1.0)\n"
            "    env.process(disk.read(16))  # slackerlint: disable=SLK013\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_negative_get_yielded_in_a_process(self):
        src = (
            "def worker(self, pieces, slots):\n"
            "    txn = yield self._queue.get()\n"
            "    envelope = yield self.inbox.get()\n"
            "    size = yield pieces.get()\n"
            "    yield slots.get(1)\n"
            "    yield self._bucket.get(size)\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_negative_get_outside_a_process_or_on_other_receivers(self):
        src = (
            "def receive(self):\n"
            "    return self.inbox.get()\n"
            "def lookup(self, key, registry):\n"
            "    yield self.env.timeout(0)\n"
            "    registry.get(key)\n"
            "    self._stale.get(key, 0)\n"
        )
        assert "SLK013" not in rule_ids(src)

    def test_positive_get_stored_then_yielded(self):
        src = (
            "def acquire(self, piece):\n"
            "    get_event = self._bucket.get(piece)\n"
            "    self._arm()\n"
            "    yield get_event\n"
        )
        assert "SLK013" in rule_ids(src)

    def test_positive_get_inside_any_of(self):
        src = (
            "def receive(env, inbox):\n"
            "    yield env.any_of([inbox.get(), env.timeout(1.0)])\n"
        )
        assert "SLK013" in rule_ids(src)

    def test_positive_get_yielded_from(self):
        src = "def worker(work_queue):\n    yield from work_queue.get()\n"
        assert "SLK013" in rule_ids(src)


class TestSLK014DigestOwner:
    DRIVER = "src/repro/experiments/fig7_tradeoff.py"

    def test_positive_sha256_in_a_driver(self):
        src = "import hashlib\ndigest = hashlib.sha256()\n"
        assert "SLK014" in rule_ids(src, rel_path=self.DRIVER)

    def test_positive_from_import_and_other_algorithms(self):
        src = (
            "from hashlib import blake2b\n"
            "import hashlib as h\n"
            "a = blake2b()\n"
            "b = h.new('md5')\n"
        )
        assert rule_ids(src, rel_path=self.DRIVER).count("SLK014") == 2

    def test_negative_the_owner_module(self):
        src = "import hashlib\ndigest = hashlib.sha256()\n"
        owner = "src/repro/experiments/fingerprint.py"
        assert "SLK014" not in rule_ids(src, rel_path=owner)

    def test_negative_outside_the_experiments(self):
        src = "import hashlib\ndigest = hashlib.sha256()\n"
        assert "SLK014" not in rule_ids(src, rel_path="src/repro/parallel/cache.py")
        assert "SLK014" not in rule_ids(src, rel_path="src/repro/obs/report.py")

    def test_negative_calling_the_fingerprint(self):
        src = (
            "from .fingerprint import trajectory_fingerprint\n"
            "def fingerprint(records):\n"
            "    return trajectory_fingerprint(records)\n"
        )
        assert "SLK014" not in rule_ids(src, rel_path=self.DRIVER)

    def test_pragma_suppresses(self):
        src = (
            "import hashlib\n"
            "digest = hashlib.sha256()  # slackerlint: disable=SLK014\n"
        )
        assert "SLK014" not in rule_ids(src, rel_path=self.DRIVER)
