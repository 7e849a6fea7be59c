"""The SLK rule set: determinism and units discipline for the sim stack.

Each rule is a small :class:`~repro.lint.framework.Rule` visitor.  The
ids are stable and documented in ``docs/LINT.md``; add new rules at the
end and never reuse an id.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from .framework import Rule, register

__all__ = [
    "WallClockRule",
    "GlobalRandomRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "SwallowedExceptionRule",
    "RawByteLiteralRule",
    "WallClockCallbackRule",
    "SharedModuleStateRule",
    "UnboundedRetryRule",
    "DynamicMetricNameRule",
    "EagerPeriodicLoopRule",
    "UnconsumedServiceRule",
    "DigestOwnerRule",
]

#: Call targets that read the wall clock (dotted names after import
#: resolution).  ``datetime.datetime.now`` covers ``import datetime``;
#: ``datetime.now`` covers ``from datetime import datetime``.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "date.today",
    }
)

#: Module-level ``random`` functions that mutate the hidden global RNG.
GLOBAL_RANDOM_FUNCS = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
    }
)


def _wall_clock_target(qualname: Optional[str]) -> bool:
    return qualname is not None and qualname in WALL_CLOCK_CALLS


@register
class WallClockRule(Rule):
    """SLK001: no wall-clock reads inside simulation code.

    Simulated components must take time from ``env.now``; a wall-clock
    read couples results to host speed and destroys run-to-run
    determinism.  Paths in ``wall_clock_allow`` (default ``scripts/``)
    are exempt; anything else needs a line pragma with a justification.
    """

    id = "SLK001"
    summary = "wall-clock call (time.time, datetime.now, ...) in simulation code"

    def applies_to(self, rel_path: str) -> bool:
        return not any(
            rel_path.startswith(prefix) or f"/{prefix}" in f"/{rel_path}"
            for prefix in self.ctx.config.wall_clock_allow
        )

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self.ctx.imports.qualname(node.func)
        if _wall_clock_target(qualname):
            self.report(
                node,
                f"wall-clock call `{qualname}` — use the simulation clock "
                "(env.now); wall time breaks determinism",
            )
        self.generic_visit(node)


@register
class GlobalRandomRule(Rule):
    """SLK002: no global-RNG use and no constant-seed ``Random`` defaults.

    Module-level ``random.*`` draws share one hidden global stream, so
    any new caller perturbs every existing one.  ``random.Random()``
    seeds from the OS (non-reproducible) and ``random.Random(<literal>)``
    hard-codes a seed — two components defaulting to the same literal
    silently produce *correlated* noise.  RNGs must be passed in or
    derived per purpose (``server.rng(purpose)`` /
    ``simulation.rng.default_rng(purpose)``).
    """

    id = "SLK002"
    summary = "global `random` module use or unseeded/constant-seed Random()"

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self.ctx.imports.qualname(node.func)
        if qualname is not None:
            if (
                qualname.startswith("random.")
                and qualname.split(".", 1)[1] in GLOBAL_RANDOM_FUNCS
            ):
                self.report(
                    node,
                    f"global RNG call `{qualname}` — thread a seeded "
                    "random.Random through instead (server.rng(purpose))",
                )
            elif qualname in ("random.Random", "random.SystemRandom"):
                self._check_random_ctor(node, qualname)
        self.generic_visit(node)

    def _check_random_ctor(self, node: ast.Call, qualname: str) -> None:
        if not node.args and not node.keywords:
            self.report(
                node,
                f"`{qualname}()` without a seed is non-reproducible — "
                "derive the RNG from the experiment seed "
                "(simulation.rng.default_rng(purpose))",
            )
            return
        if node.args and isinstance(node.args[0], ast.Constant):
            self.report(
                node,
                f"`{qualname}({node.args[0].value!r})` hard-codes a seed; "
                "components sharing a literal seed emit correlated streams "
                "— use default_rng(purpose) / server.rng(purpose)",
            )


def _is_floatish(node: ast.expr) -> bool:
    """Expression statically known to produce a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatish(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    return False


@register
class FloatEqualityRule(Rule):
    """SLK003: no ``==`` / ``!=`` against float quantities.

    Simulated latencies and rates accumulate rounding; exact equality
    flips on harmless reorderings and makes figures irreproducible.
    Compare with a tolerance (``math.isclose``) or restructure.
    """

    id = "SLK003"
    summary = "float equality comparison (== / != with a float operand)"

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_floatish(left) or _is_floatish(right)
            ):
                self.report(
                    node,
                    "float equality comparison — use math.isclose or an "
                    "explicit tolerance",
                )
                break
        self.generic_visit(node)


_MUTABLE_CALLS = frozenset({"list", "dict", "set"})


@register
class MutableDefaultRule(Rule):
    """SLK004: no mutable default arguments.

    A mutable default is shared across calls, so state leaks between
    independently-constructed components — e.g. two experiments sharing
    one latency buffer.
    """

    id = "SLK004"
    summary = "mutable default argument ([], {}, set(), list(), dict())"

    def _check_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if isinstance(
                default,
                (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
            ):
                self.report(default, "mutable default argument — default to None")
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            ):
                self.report(default, "mutable default argument — default to None")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node)
        self.generic_visit(node)


def _body_is_only_pass(body: list[ast.stmt]) -> bool:
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


@register
class SwallowedExceptionRule(Rule):
    """SLK005: no bare ``except:`` and no silently-swallowed ``Exception``.

    The simulation kernel deliberately crashes on unhandled event
    failures ("errors should never pass silently"); a swallowing handler
    upstream converts a correctness bug into a quietly-wrong figure.
    Narrow handlers (``except ValueError: pass``) are fine.
    """

    id = "SLK005"
    summary = "bare except / `except Exception: pass` swallowing"

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.report(
                node,
                "bare `except:` — catch a specific exception (a bare except "
                "hides kernel failures, including KeyboardInterrupt)",
            )
        else:
            qualname = self.ctx.imports.qualname(node.type)
            if qualname in ("Exception", "BaseException") and _body_is_only_pass(
                node.body
            ):
                self.report(
                    node,
                    f"`except {qualname}: pass` swallows simulation errors — "
                    "handle or re-raise",
                )
        self.generic_visit(node)


def _const_int(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


@register
class RawByteLiteralRule(Rule):
    """SLK006: raw byte-size literals must go through ``resources/units.py``.

    ``64 * 1024`` vs ``64 * 1000`` is exactly the MB-vs-MiB ambiguity the
    units module exists to remove; a literal ``1024`` in migration/DB
    code re-opens it.  Flags integer literals that are non-zero
    multiples of 1024 and constant ``1 << 20``-style shifts.
    """

    id = "SLK006"
    summary = "raw byte-size literal (1024 multiples) instead of units helpers"

    def applies_to(self, rel_path: str) -> bool:
        scope = self.ctx.config.units_scope
        if not scope:
            return True
        return any(
            rel_path.startswith(prefix) or f"/{prefix}" in f"/{rel_path}"
            for prefix in scope
        )

    def visit_Constant(self, node: ast.Constant) -> None:
        value = node.value
        # slackerlint: disable=SLK006 -- the 1024s here are the detector itself
        if type(value) is int and value >= 1024 and value % 1024 == 0:
            self.report(
                node,
                f"raw byte literal {value} — express it via resources.units "
                "(KB/MB/GB) so units stay auditable",
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.LShift):
            left, right = _const_int(node.left), _const_int(node.right)
            if left is not None and right is not None and (left << right) >= 1024:
                self.report(
                    node,
                    f"raw byte literal {left} << {right} — use resources.units "
                    "(KB/MB/GB) helpers",
                )
                return  # don't also visit the operand constants
        self.generic_visit(node)


@register
class WallClockCallbackRule(Rule):
    """SLK007: simulator event callbacks must not read the wall clock.

    A callback registered on an :class:`~repro.simulation.core.Event`
    runs at event-processing time; if it captures wall time the recorded
    timestamps depend on host load rather than ``env.now``, which is how
    subtle non-determinism sneaks into traces.
    """

    id = "SLK007"
    summary = "event callback registered on the simulator reads the wall clock"

    def run(self):  # type: ignore[override]
        # Pass 1: local function defs / lambdas that touch the wall clock.
        tainted_names: set[str] = set()
        tainted_lambdas: set[int] = set()
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                if self._reads_wall_clock(node):
                    if isinstance(node, ast.Lambda):
                        tainted_lambdas.add(id(node))
                    else:
                        tainted_names.add(node.name)
        # Pass 2: registration sites.
        for node in ast.walk(self.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not self._is_callback_registration(node):
                continue
            for arg in node.args:
                if (isinstance(arg, ast.Lambda) and id(arg) in tainted_lambdas) or (
                    isinstance(arg, ast.Name) and arg.id in tainted_names
                ):
                    self.report(
                        node,
                        "event callback reads the wall clock — capture env.now "
                        "at registration or inside the callback instead",
                    )
                    break
        return self.findings

    def _reads_wall_clock(self, func: ast.AST) -> bool:
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _wall_clock_target(
                    self.ctx.imports.qualname(node.func)
                ):
                    return True
        return False

    def _is_callback_registration(self, node: ast.Call) -> bool:
        """True for ``<expr>.callbacks.append(...)`` registration calls."""
        func = node.func
        return (
            isinstance(func, ast.Attribute)
            and func.attr == "append"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "callbacks"
        )


#: Constructors whose result is a mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)


@register
class SharedModuleStateRule(Rule):
    """SLK008: no shared mutable module-level state in worker-reachable code.

    Sweep workers import task modules independently, so module-level
    mutable state silently *forks*: each worker mutates its own copy,
    ``jobs=1`` and ``jobs=N`` diverge, and the serial/parallel
    bit-identity guarantee breaks.  Within ``worker_scope`` (default
    ``repro/parallel/``), module globals must be immutable constants
    (tuples, frozensets, strings, numbers); anything mutable must live
    on an instance or travel through task arguments.  ``global``
    statements are flagged for the same reason.
    """

    id = "SLK008"
    summary = "shared mutable module-level state in worker-reachable code"

    def applies_to(self, rel_path: str) -> bool:
        return any(
            rel_path.startswith(prefix) or f"/{prefix}" in f"/{rel_path}"
            for prefix in self.ctx.config.worker_scope
        )

    def run(self):  # type: ignore[override]
        tree = self.ctx.tree
        if isinstance(tree, ast.Module):
            for stmt in tree.body:
                self._check_module_stmt(stmt)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                self.report(
                    node,
                    "`global` rebinds module state — workers each mutate "
                    "their own interpreter's copy, so jobs=1 and jobs=N "
                    "diverge; pass state through task arguments instead",
                )
        return self.findings

    def _check_module_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            return
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if names and all(n.startswith("__") and n.endswith("__") for n in names):
            return  # module metadata (__all__ and friends) is fine
        if self._is_mutable(value):
            label = ", ".join(names) or "<target>"
            self.report(
                stmt,
                f"module-level mutable `{label}` is per-process state — "
                "each sweep worker gets an independent copy; use an "
                "immutable constant (tuple/frozenset) or pass it via "
                "task kwargs",
            )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            return self.ctx.imports.qualname(node.func) in _MUTABLE_FACTORIES
        return False


#: Loop-local names whose presence in a comparison marks a retry loop
#: as bounded (attempt counters, deadlines, budgets).
_BOUND_NAME_RE = re.compile(
    r"(attempt|retr|tries|try_count|deadline|budget|remaining)", re.IGNORECASE
)

#: Function names expected to produce retry jitter/backoff values.
_JITTER_NAME_RE = re.compile(r"(backoff|jitter)", re.IGNORECASE)

#: Constructors of process-seeded RNGs (non-replayable jitter sources).
_FRESH_RNG_CALLS = frozenset({"random.Random", "random.SystemRandom"})


@register
class UnboundedRetryRule(Rule):
    """SLK009: retry loops must be bounded, retry jitter must be seeded.

    Two failure patterns of hardened transports:

    * a ``while True:`` loop that re-enters from an ``except`` handler
      (``continue`` inside the handler) with no visible attempt counter,
      deadline, or budget in sight — under a fault plan that makes the
      operation *always* fail, such a loop spins forever and the chaos
      run wedges instead of aborting;
    * jitter/backoff helpers constructing a fresh ``random.Random`` —
      its seed differs per process, so ``jobs=1`` and ``jobs=N`` sweeps
      draw different backoff delays and the bit-identical replay
      guarantee breaks.  Jitter must come from a ``simulation.rng``
      stream passed in by the caller.

    Scoped to ``retry_scope`` (default ``repro/``); tests are exempt.
    """

    id = "SLK009"
    summary = "unbounded retry loop or process-seeded retry jitter"

    def applies_to(self, rel_path: str) -> bool:
        return any(
            rel_path.startswith(prefix) or f"/{prefix}" in f"/{rel_path}"
            for prefix in self.ctx.config.retry_scope
        )

    def run(self):  # type: ignore[override]
        for node in ast.walk(self.ctx.tree):
            if isinstance(node, ast.While) and self._is_forever(node):
                self._check_retry_loop(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _JITTER_NAME_RE.search(node.name):
                    self._check_jitter_function(node)
        return self.findings

    @staticmethod
    def _is_forever(loop: ast.While) -> bool:
        return isinstance(loop.test, ast.Constant) and bool(loop.test.value)

    def _scope_nodes(self, stmts):
        """Nodes within ``stmts``, not descending into nested loops or
        function definitions (a ``continue`` there belongs to *that*
        loop; a counter there does not bound *this* one)."""
        stack = list(stmts)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node,
                (
                    ast.While,
                    ast.For,
                    ast.AsyncFor,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.Lambda,
                ),
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _check_retry_loop(self, loop: ast.While) -> None:
        if self._has_bound(loop):
            return
        for node in self._scope_nodes(loop.body):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                for stmt in self._scope_nodes(handler.body):
                    if isinstance(stmt, ast.Continue):
                        self.report(
                            stmt,
                            "`while True:` retries from an except handler "
                            "with no attempt counter, deadline, or budget "
                            "in sight — a permanent fault spins this loop "
                            "forever; bound it (e.g. `for attempt in "
                            "range(n)`) so exhaustion raises",
                        )
                        return

    def _has_bound(self, loop: ast.While) -> bool:
        for node in self._scope_nodes(loop.body):
            if not isinstance(node, ast.Compare):
                continue
            for sub in ast.walk(node):
                name = None
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                if name is not None and _BOUND_NAME_RE.search(name):
                    return True
        return False

    def _check_jitter_function(self, func) -> None:
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and self.ctx.imports.qualname(node.func) in _FRESH_RNG_CALLS
            ):
                self.report(
                    node,
                    "jitter/backoff constructs its own RNG — per-process "
                    "seeds break bit-identical replay; draw from a "
                    "simulation.rng stream passed in by the caller",
                )


#: Methods on observability objects whose first argument is an
#: instrument or span name.
_OBS_NAMING_METHODS = frozenset(
    {"counter", "gauge", "histogram", "span", "begin", "event"}
)

#: Receiver names (variable or attribute) treated as observability
#: handles; keeps the rule from firing on unrelated `.event(...)` calls.
_OBS_RECEIVERS = frozenset({"registry", "tracer", "obs", "metrics"})


@register
class DynamicMetricNameRule(Rule):
    """SLK010: metric/span names must be registered module-level constants.

    An f-string (or any expression built at the call site) as a metric
    or span name means string formatting on the hot path *and* an
    unbounded, undiscoverable name space — two different call sites can
    silently emit `"migration_phase"` and `"migration.phase"`.  Names
    must be constants from :mod:`repro.obs.names` (or an equally
    constant module-level reference); per-entity cardinality goes
    through the ``suffix=`` keyword, which keeps the *name* constant.
    """

    id = "SLK010"
    summary = "metric/span name built at the call site instead of a constant"

    def applies_to(self, rel_path: str) -> bool:
        scope = self.ctx.config.obs_scope
        return any(
            rel_path.startswith(prefix) or f"/{prefix}" in f"/{rel_path}"
            for prefix in scope
        )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _OBS_NAMING_METHODS
            and self._receiver_is_obs(func.value)
            and node.args
        ):
            name_arg = node.args[0]
            if not isinstance(name_arg, (ast.Name, ast.Attribute)):
                self.report(
                    name_arg,
                    f"`.{func.attr}(...)` name is built at the call site — "
                    "reference a module-level constant (repro.obs.names) "
                    "instead; per-entity labels go through suffix=",
                )
        self.generic_visit(node)

    @staticmethod
    def _receiver_is_obs(receiver: ast.expr) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id in _OBS_RECEIVERS
        if isinstance(receiver, ast.Attribute):
            return receiver.attr in _OBS_RECEIVERS
        return False


@register
class EagerPeriodicLoopRule(Rule):
    """SLK011: eager per-tick timeout loops in hot scopes.

    ``while True: yield env.timeout(interval)`` with a loop-invariant
    interval schedules one kernel event per tick whether or not the
    tick does anything — the pattern that made heartbeats, failure
    detectors, and token refills dominate fleet-scale event counts.
    Within ``periodic_scope`` such loops must go through
    :class:`repro.simulation.timers.PeriodicTicker` (whose chained
    tick clock keeps timestamps bit-identical while letting the
    process skip no-op ticks).

    Intervals computed fresh each iteration — RNG draws like
    ``timeout(rng.expovariate(...))``, or a name reassigned inside the
    loop — are *not* periodic and are exempt; so are one-shot timeouts
    outside ``while`` loops.  A loop whose every tick does real work
    can keep the ticker trivially (``yield ticker.tick()`` each pass),
    so the rule still points it at the API; suppress with
    ``# slackerlint: disable=SLK011`` where the eager form is load-
    bearing (e.g. the heartbeat loop, whose interval is measured from
    send completion rather than on a tick grid).
    """

    id = "SLK011"
    summary = "eager per-tick timeout loop instead of the coalesced timer API"

    def applies_to(self, rel_path: str) -> bool:
        scope = self.ctx.config.periodic_scope
        if not scope:
            return False
        return any(
            rel_path.startswith(prefix) or f"/{prefix}" in f"/{rel_path}"
            for prefix in scope
        )

    def visit_While(self, node: ast.While) -> None:
        rebound = self._rebound_names(node.body)
        for stmt in node.body:
            call = self._yielded_timeout(stmt)
            if call is not None and self._loop_invariant_interval(call, rebound):
                self.report(
                    stmt,
                    "periodic `yield <env>.timeout(<interval>)` loop — one "
                    "kernel event per tick; drive it with "
                    "simulation.timers.PeriodicTicker (tick()/skip()) so "
                    "no-op ticks coalesce while timestamps stay "
                    "bit-identical",
                )
        self.generic_visit(node)

    @staticmethod
    def _yielded_timeout(stmt: ast.stmt) -> Optional[ast.Call]:
        """The ``timeout`` call of a top-level ``yield X.timeout(...)``."""
        if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Yield):
            return None
        value = stmt.value.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("timeout", "timeout_at")
            and len(value.args) >= 1
        ):
            return value
        return None

    @staticmethod
    def _rebound_names(body: list) -> set:
        """Names and attributes assigned anywhere inside the loop body."""
        rebound: set = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                targets: list = []
                if isinstance(sub, ast.Assign):
                    targets = sub.targets
                elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
                    targets = [sub.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            rebound.add(leaf.id)
                        elif isinstance(leaf, ast.Attribute):
                            rebound.add(leaf.attr)
        return rebound

    def _loop_invariant_interval(self, call: ast.Call, rebound: set) -> bool:
        """True when the timeout argument cannot change across iterations.

        Constants are invariant; bare names and attribute chains are
        invariant unless the loop body reassigns them.  Anything
        computed per iteration (calls, arithmetic on calls) is treated
        as aperiodic.
        """
        interval = call.args[0]
        if isinstance(interval, ast.Constant):
            return isinstance(interval.value, (int, float))
        if isinstance(interval, ast.Name):
            return interval.id not in rebound
        if isinstance(interval, ast.Attribute):
            for leaf in ast.walk(interval):
                if isinstance(leaf, ast.Call):
                    return False
                if isinstance(leaf, ast.Attribute) and leaf.attr in rebound:
                    return False
                if isinstance(leaf, ast.Name) and leaf.id in rebound:
                    return False
            return True
        return False


#: Resource services that do their work when called (see
#: :class:`UnconsumedServiceRule`): method name -> pattern the receiver's
#: own name must match.  ``_access_page`` is the engine's page access,
#: which touches the buffer pool when called, on any receiver.
SERVICE_RECEIVERS = {
    "execute": re.compile(r"cpu", re.IGNORECASE),
    "read": re.compile(r"disk", re.IGNORECASE),
    "write": re.compile(r"disk", re.IGNORECASE),
    "transfer": re.compile(r"nic|link", re.IGNORECASE),
    "_access_page": re.compile(r""),
}

#: Receivers whose ``.get(...)`` may be met in place (see
#: :class:`UnconsumedServiceRule`): the names the ``Store`` queues and
#: the ``Container`` buckets of ``src/`` go by.
GET_RECEIVERS = re.compile(r"(queue|inbox|slots|pieces|bucket)$", re.IGNORECASE)

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func: ast.AST):
    """Nodes of ``func``'s body, not descending into nested scopes."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _receiver_name(node: ast.AST) -> Optional[str]:
    """The name a method call's receiver goes by, if it is a plain one."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return None
    receiver = node.func.value
    if isinstance(receiver, ast.Attribute):
        return receiver.attr
    if isinstance(receiver, ast.Name):
        return receiver.id
    return None


def _is_service_call(node: ast.AST) -> bool:
    """A call of a service method on a receiver named for its device."""
    name = _receiver_name(node)
    if name is None:
        return False
    pattern = SERVICE_RECEIVERS.get(node.func.attr)
    return pattern is not None and pattern.search(name) is not None


def _is_get_call(node: ast.AST) -> bool:
    """A ``.get(...)`` on a receiver named for a queue or a bucket."""
    name = _receiver_name(node)
    if name is None or node.func.attr != "get":
        return False
    return GET_RECEIVERS.search(name) is not None


@register
class UnconsumedServiceRule(Rule):
    """SLK013: a service call or a queue get in a process not consumed at once.

    ``Cpu.execute``, ``Disk.read``/``write``, ``NetworkLink.transfer``
    and the engine's ``_access_page`` do their work when called: a
    service that fits before the next event runs there and returns
    ``()``; otherwise it returns a generator that finishes the work —
    holding the unit its service started on at the call.  Inside a process
    (a generator function) the only safe shape is therefore::

        yield from cpu.execute(cost)

    in the same statement as the call.  A stored result runs the work
    early, a returned or ``env.process``-ed one runs the rest of it in
    another process or never, and a generator that is never run never
    releases its unit.  Calls outside a process are exempt: a plain
    function that returns a service hands the contract to its own
    caller (as ``Disk.read`` does), and at the top level a service is
    always a generator that does all of its work once run.  Receivers
    are matched by name (``cpu``, ``disk``, ``nic``/``link``).

    A ``.get(...)`` on a queue or a bucket (a receiver named like
    ``*queue``, ``inbox``, ``slots``, ``pieces`` or ``*bucket``) follows
    the same contract with ``yield``: a get met at once, with nothing
    else due, takes its item there and returns an event already
    processed, which is right only if the process yields it before
    anything else is scheduled.  So inside a process it is the operand
    of a ``yield`` in the same statement::

        txn = yield self._queue.get()
    """

    id = "SLK013"
    summary = (
        "resource-service call or queue/bucket get in a process "
        "not consumed by `yield from`/`yield` at once"
    )

    def visit_Module(self, node: ast.Module) -> None:
        for func in ast.walk(node):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(_own_nodes(func))
            if not any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes):
                continue  # not a process
            consumed = {
                id(n.value) for n in nodes if isinstance(n, ast.YieldFrom)
            }
            yielded = {id(n.value) for n in nodes if isinstance(n, ast.Yield)}
            for sub in nodes:
                if _is_service_call(sub) and id(sub) not in consumed:
                    self.report(
                        sub,
                        f"`.{sub.func.attr}(...)` in a process must be consumed "
                        "by `yield from` in the same statement: the service "
                        "does its work when called and may hold a unit the "
                        "returned generator releases",
                    )
                elif _is_get_call(sub) and id(sub) not in yielded:
                    self.report(
                        sub,
                        "`.get(...)` on a queue or bucket in a process must be "
                        "yielded in the same statement: a get met at once "
                        "continues in place, which holds only if nothing is "
                        "scheduled before the yield",
                    )


#: The one module under :data:`DIGEST_SCOPE` that may build digests.
DIGEST_OWNER = "repro/experiments/fingerprint.py"
DIGEST_SCOPE = "repro/experiments/"


@register
class DigestOwnerRule(Rule):
    """SLK014: a ``hashlib`` digest in the experiment drivers outside ``fingerprint.py``.

    A trajectory fingerprint is a spec: ``tests/golden/fingerprints.json``
    pins one per driver, and a kernel change proves itself bit-identical
    by leaving them alone.  That holds only while one function decides
    what a fingerprint hashes — the simulated trajectory, never kernel
    bookkeeping or RunReports — so a driver that hashes its own record
    goes through :func:`repro.experiments.fingerprint.trajectory_fingerprint`
    instead of calling ``hashlib`` itself.
    """

    id = "SLK014"
    summary = "hashlib digest under repro/experiments/ outside fingerprint.py"

    def applies_to(self, rel_path: str) -> bool:
        path = f"/{rel_path}"
        return f"/{DIGEST_SCOPE}" in path and not path.endswith(f"/{DIGEST_OWNER}")

    def visit_Call(self, node: ast.Call) -> None:
        qualname = self.ctx.imports.qualname(node.func)
        if qualname is not None and qualname.startswith("hashlib."):
            self.report(
                node,
                f"`{qualname}` in an experiment driver — fingerprint the "
                "trajectory with repro.experiments.fingerprint."
                "trajectory_fingerprint, the one owner of the digest format",
            )
        self.generic_visit(node)
