"""Import/symbol graph and best-effort call graph over a file tree.

The builder parses every python file under the given roots exactly
once and derives, per module:

* the module's dotted name (from ``__init__.py`` package nesting, so
  ``src/repro/db/engine.py`` is ``repro.db.engine`` and
  ``scripts/gen_api_doc.py`` is ``scripts.gen_api_doc``);
* a symbol table mapping local names to dotted targets, with relative
  imports resolved against the module's package and re-exports through
  ``__init__.py`` chased to their defining module;
* for a package, its lazy export table (``_EXPORTS``, a dict literal
  from each public name to the relative module that defines it, which
  the package's PEP 562 ``__getattr__`` imports on first use), so a
  name the ``__init__`` never imports still resolves to its definition;
* every top-level function, class (with methods and bases), and
  module-level constant assignment;
* per-function call sites as written (``self._transition``,
  ``time.sleep``, ``names.FOO``), resolvable on demand.

Resolution is deliberately *best-effort*: anything the static view
cannot pin down (a call through an instance attribute of unknown type,
a dynamically built name) resolves to its raw dotted text, never to a
wrong symbol.  The project rules are written so that an unresolved name
means "no finding", keeping the engine free of type-inference-shaped
false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from ..framework import (
    Finding,
    Pragmas,
    _relative_to_root,
    iter_python_files,
    parse_pragmas,
)

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "ProjectGraph",
    "dotted_name",
    "module_name_for",
]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def module_name_for(path: Path) -> str:
    """Dotted module name from package nesting on disk.

    Walks up while the parent directory is a package (has an
    ``__init__.py``); ``pkg/sub/__init__.py`` names the package itself.
    """
    path = Path(path)
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass(frozen=True)
class CallSite:
    """One call expression, by its dotted target text as written."""

    raw: str
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """A module-level function or a method."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]
    lineno: int
    col: int
    is_generator: bool
    params: tuple[str, ...]
    calls: tuple[CallSite, ...]
    node: ast.AST = field(repr=False)


@dataclass
class ClassInfo:
    """A top-level class with its methods and raw base/decorator names."""

    qualname: str
    module: str
    name: str
    lineno: int
    col: int
    bases: tuple[str, ...]
    decorators: tuple[str, ...]
    methods: dict[str, FunctionInfo]
    node: ast.ClassDef = field(repr=False)


@dataclass
class ModuleInfo:
    """Everything the project rules need to know about one module."""

    name: str
    path: str
    rel_path: str
    source: str
    tree: ast.Module = field(repr=False)
    pragmas: Pragmas
    #: local name -> dotted import target (relative imports resolved).
    symbols: dict[str, str]
    functions: dict[str, FunctionInfo]
    classes: dict[str, ClassInfo]
    #: module-level ``NAME = <expr>`` assignments.
    constants: dict[str, ast.expr] = field(repr=False)
    is_package: bool = False
    #: a package's ``_EXPORTS`` table: public name -> dotted target.
    exports: dict[str, str] = field(default_factory=dict)

    def iter_functions(self) -> Iterable[FunctionInfo]:
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()


def _is_generator(func: ast.AST) -> bool:
    """Yield anywhere in the body, not counting nested defs/lambdas."""
    body = func.body if isinstance(func.body, list) else [func.body]
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _collect_calls(func: ast.AST) -> tuple[CallSite, ...]:
    """Every call with a dotted target anywhere in the function body.

    Nested defs are *included* deliberately — reachability rules treat
    a helper defined inside a process as part of that process (a safe
    over-approximation for a lint).
    """
    calls: list[CallSite] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            raw = dotted_name(node.func)
            if raw is not None:
                calls.append(CallSite(raw, node.lineno, node.col_offset))
    return tuple(calls)


def _param_names(func: ast.AST) -> tuple[str, ...]:
    args = func.args
    names = [a.arg for a in (*args.posonlyargs, *args.args)]
    return tuple(names)


class ProjectGraph:
    """Parsed modules plus symbol/call resolution over them."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        #: qualname -> FunctionInfo (module functions and methods).
        self.functions: dict[str, FunctionInfo] = {}
        #: qualname -> ClassInfo.
        self.classes: dict[str, ClassInfo] = {}
        #: files that failed to parse, as E000 findings.
        self.errors: list[Finding] = []

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls,
        paths: Iterable[str | Path],
        root: Optional[Path] = None,
    ) -> "ProjectGraph":
        graph = cls()
        for file_path in iter_python_files(paths):
            graph._add_file(Path(file_path), root=root)
        return graph

    def _add_file(self, path: Path, root: Optional[Path] = None) -> None:
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            self.errors.append(
                Finding(str(path), 0, 0, "E001", f"cannot read file: {exc}")
            )
            return
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.errors.append(
                Finding(
                    str(path),
                    exc.lineno or 0,
                    exc.offset or 0,
                    "E000",
                    f"syntax error: {exc.msg}",
                )
            )
            return
        name = module_name_for(path)
        is_package = path.name == "__init__.py"
        module = ModuleInfo(
            name=name,
            path=str(path),
            rel_path=_relative_to_root(path, root),
            source=source,
            tree=tree,
            pragmas=parse_pragmas(source),
            symbols={},
            functions={},
            classes={},
            constants={},
            is_package=is_package,
        )
        self._collect_top_level(module)
        if name in self.modules:
            # Same dotted name reached twice (e.g. two roots overlapping);
            # first one wins, deterministically (files are sorted).
            return
        self.modules[name] = module
        for func in module.iter_functions():
            self.functions[func.qualname] = func
        for cls_info in module.classes.values():
            self.classes[cls_info.qualname] = cls_info

    def _collect_top_level(self, module: ModuleInfo) -> None:
        package = module.name if module.is_package else module.name.rpartition(".")[0]
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    if alias.asname:
                        module.symbols[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        module.symbols[top] = top
            elif isinstance(stmt, ast.ImportFrom):
                base = self._import_base(stmt.level, stmt.module, package)
                if base is None:
                    continue
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.symbols[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module.functions[stmt.name] = self._function_info(
                    module, stmt, cls=None
                )
            elif isinstance(stmt, ast.ClassDef):
                module.classes[stmt.name] = self._class_info(module, stmt)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        module.constants[target.id] = stmt.value
                        if target.id == "_EXPORTS" and module.is_package:
                            module.exports = self._export_table(
                                stmt.value, package
                            )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    module.constants[stmt.target.id] = stmt.value

    @staticmethod
    def _import_base(level: int, name: Optional[str], package: str) -> Optional[str]:
        """Absolute module of ``from <level dots><name> import ...``."""
        if level == 0:
            return name or ""
        # Relative import: level 1 is the module's own package, each
        # further level strips one more component.
        base_parts = package.split(".") if package else []
        strip = level - 1
        if strip > len(base_parts):
            return None  # beyond the root; unresolvable here
        if strip:
            base_parts = base_parts[: len(base_parts) - strip]
        if name:
            base_parts.append(name)
        return ".".join(base_parts)

    @staticmethod
    def _export_table(value: ast.expr, package: str) -> dict[str, str]:
        """Public name -> dotted target of an ``_EXPORTS`` table.

        The table is a dict literal, bare or wrapped in one call
        (``MappingProxyType({...})``), of string constants such as
        ``"Environment": ".core"``; any other entry is skipped.
        """
        if isinstance(value, ast.Call) and len(value.args) == 1:
            value = value.args[0]
        if not isinstance(value, ast.Dict):
            return {}
        table: dict[str, str] = {}
        for key, where in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(where, ast.Constant)
                and isinstance(where.value, str)
            ):
                continue
            submodule = where.value.lstrip(".")
            level = len(where.value) - len(submodule)
            base = ProjectGraph._import_base(level, submodule, package)
            if base:
                table[key.value] = f"{base}.{key.value}"
        return table

    def _function_info(
        self, module: ModuleInfo, node: ast.AST, cls: Optional[str]
    ) -> FunctionInfo:
        qual = (
            f"{module.name}.{cls}.{node.name}" if cls else f"{module.name}.{node.name}"
        )
        return FunctionInfo(
            qualname=qual,
            module=module.name,
            name=node.name,
            cls=cls,
            lineno=node.lineno,
            col=node.col_offset,
            is_generator=_is_generator(node),
            params=_param_names(node),
            calls=_collect_calls(node),
            node=node,
        )

    def _class_info(self, module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
        methods = {
            stmt.name: self._function_info(module, stmt, cls=node.name)
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        bases = tuple(
            name for name in (dotted_name(b) for b in node.bases) if name is not None
        )
        decorators = tuple(
            name
            for name in (
                dotted_name(d.func) if isinstance(d, ast.Call) else dotted_name(d)
                for d in node.decorator_list
            )
            if name is not None
        )
        return ClassInfo(
            qualname=f"{module.name}.{node.name}",
            module=module.name,
            name=node.name,
            lineno=node.lineno,
            col=node.col_offset,
            bases=bases,
            decorators=decorators,
            methods=methods,
            node=node,
        )

    # -- resolution ----------------------------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str) -> str:
        """Canonical fully-qualified name for ``dotted`` as seen from
        ``module`` — through imports, then through re-exports.

        Unresolvable names come back unchanged (e.g. builtins, names
        bound at runtime), so callers can still match externals like
        ``time.sleep`` textually.
        """
        head, _, rest = dotted.partition(".")
        if head in module.symbols:
            base = module.symbols[head]
        elif (
            head in module.functions
            or head in module.classes
            or head in module.constants
        ):
            base = f"{module.name}.{head}"
        else:
            return dotted
        full = f"{base}.{rest}" if rest else base
        return self.canonicalize(full)

    def canonicalize(self, fq: str, _seen: Optional[frozenset[str]] = None) -> str:
        """Chase re-exports: map ``repro.middleware.Heartbeat`` to
        ``repro.middleware.protocol.Heartbeat`` when the package
        ``__init__`` merely re-imported it or lists it in its
        ``_EXPORTS`` table.  Cycle-safe."""
        seen = _seen or frozenset()
        if fq in seen:
            return fq
        parts = fq.split(".")
        for i in range(len(parts), 0, -1):
            mod_name = ".".join(parts[:i])
            if mod_name not in self.modules:
                continue
            rest = parts[i:]
            if not rest:
                return fq
            module = self.modules[mod_name]
            head = rest[0]
            if (
                head in module.functions
                or head in module.classes
                or head in module.constants
            ):
                return fq
            target = module.symbols.get(head, module.exports.get(head))
            if target is not None:
                tail = ".".join(rest[1:])
                full = f"{target}.{tail}" if tail else target
                return self.canonicalize(full, seen | {fq})
            return fq
        return fq

    def lookup_function(self, qualname: str) -> Optional[FunctionInfo]:
        return self.functions.get(qualname)

    def lookup_method(
        self, module: ModuleInfo, class_name: str, method: str
    ) -> Optional[FunctionInfo]:
        """Find ``method`` on ``class_name`` (as visible from ``module``),
        chasing base classes that resolve within the project."""
        seen: set[str] = set()
        queue = [self.resolve(module, class_name)]
        while queue:
            qual = queue.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls = self.classes.get(qual)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            base_module = self.modules.get(cls.module)
            if base_module is not None:
                queue.extend(self.resolve(base_module, b) for b in cls.bases)
        return None

    def call_targets(self, func: FunctionInfo) -> list[tuple[CallSite, str]]:
        """(call site, canonical target) pairs for one function.

        ``self.method()`` resolves within the enclosing class (and its
        project-local bases); other dotted calls resolve through the
        module's symbol table.  Unresolvable targets keep their raw
        dotted text.
        """
        module = self.modules.get(func.module)
        if module is None:
            return []
        out: list[tuple[CallSite, str]] = []
        for call in func.calls:
            target = call.raw
            if call.raw.startswith("self.") and func.cls is not None:
                rest = call.raw[len("self.") :]
                if "." not in rest:
                    method = self.lookup_method(module, func.cls, rest)
                    if method is not None:
                        target = method.qualname
            else:
                target = self.resolve(module, call.raw)
            out.append((call, target))
        return out
