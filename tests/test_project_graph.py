"""Project graph builder: naming, imports, re-exports, call targets."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.project import ProjectGraph
from repro.lint.project.graph import module_name_for


def build_tree(tmp_path, files: dict[str, str]) -> ProjectGraph:
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return ProjectGraph.build([tmp_path], root=tmp_path)


class TestModuleNaming:
    def test_package_nesting(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/sub/__init__.py": "",
                "pkg/sub/mod.py": "x = 1\n",
            },
        )
        assert set(graph.modules) == {"pkg", "pkg.sub", "pkg.sub.mod"}

    def test_non_package_dir_is_flat(self, tmp_path):
        graph = build_tree(tmp_path, {"loose/tool.py": "x = 1\n"})
        # loose/ has no __init__.py, so the module is just `tool`.
        assert set(graph.modules) == {"tool"}

    def test_main_module_keeps_its_name(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/__main__.py": "print('hi')\n"},
        )
        assert "pkg.__main__" in graph.modules

    def test_module_name_for_init(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        init = tmp_path / "pkg" / "__init__.py"
        init.write_text("")
        assert module_name_for(init) == "pkg"

    def test_syntax_error_becomes_e000(self, tmp_path):
        graph = build_tree(tmp_path, {"bad.py": "def broken(:\n"})
        assert [f.rule for f in graph.errors] == ["E000"]
        assert "bad" not in graph.modules


class TestImports:
    def test_absolute_and_aliased(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "VALUE = 1\n",
                "pkg/b.py": "import pkg.a as pa\nfrom pkg.a import VALUE\n",
            },
        )
        b = graph.modules["pkg.b"]
        assert b.symbols["pa"] == "pkg.a"
        assert graph.resolve(b, "VALUE") == "pkg.a.VALUE"

    def test_relative_imports(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "pkg/__init__.py": "",
                "pkg/a.py": "def helper():\n    pass\n",
                "pkg/sub/__init__.py": "",
                "pkg/sub/b.py": "from ..a import helper\nfrom . import c\n",
                "pkg/sub/c.py": "X = 2\n",
            },
        )
        b = graph.modules["pkg.sub.b"]
        assert graph.resolve(b, "helper") == "pkg.a.helper"
        assert graph.resolve(b, "c.X") == "pkg.sub.c.X"

    def test_relative_import_beyond_root_is_ignored(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {"pkg/__init__.py": "", "pkg/a.py": "from ...nowhere import thing\n"},
        )
        a = graph.modules["pkg.a"]
        assert "thing" not in a.symbols  # unresolvable, not wrong


class TestReExports:
    def test_reexport_through_init(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "pkg/__init__.py": "from .impl import Widget\n",
                "pkg/impl.py": "class Widget:\n    pass\n",
                "user.py": "from pkg import Widget\n",
            },
        )
        user = graph.modules["user"]
        assert graph.resolve(user, "Widget") == "pkg.impl.Widget"

    def test_reexport_cycle_terminates(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "a.py": "from b import thing\n",
                "b.py": "from a import thing\n",
            },
        )
        a = graph.modules["a"]
        # Nothing ever defines `thing`; resolution must not loop forever.
        resolved = graph.resolve(a, "thing")
        assert resolved in ("a.thing", "b.thing")

    def test_local_definition_beats_reexport_chase(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "pkg/__init__.py": "from .impl import thing\n\ndef local():\n    pass\n",
                "pkg/impl.py": "def thing():\n    pass\n",
            },
        )
        assert graph.canonicalize("pkg.local") == "pkg.local"
        assert graph.canonicalize("pkg.thing") == "pkg.impl.thing"


    def test_lazy_export_table_is_chased(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "pkg/__init__.py": """
                from types import MappingProxyType

                _EXPORTS = MappingProxyType(
                    {"Widget": ".impl", "helper": ".sub.tools", "bad": 3}
                )
                """,
                "pkg/impl.py": "class Widget:\n    pass\n",
                "pkg/sub/__init__.py": '_EXPORTS = {"tool": "..impl"}\n',
                "pkg/sub/tools.py": "def helper():\n    pass\n",
                "user.py": "from pkg import Widget, helper\nimport pkg.sub\n",
            },
        )
        user = graph.modules["user"]
        assert graph.resolve(user, "Widget") == "pkg.impl.Widget"
        assert graph.resolve(user, "helper") == "pkg.sub.tools.helper"
        assert graph.canonicalize("pkg.sub.tool") == "pkg.impl.tool"
        assert graph.canonicalize("pkg.bad") == "pkg.bad"


class TestFunctionsAndCalls:
    def test_generator_detection_excludes_nested_defs(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "m.py": """
                def plain():
                    def inner():
                        yield 1
                    return inner

                def gen():
                    yield 1

                async def agen():
                    yield 1
                """,
            },
        )
        m = graph.modules["m"]
        assert not m.functions["plain"].is_generator
        assert m.functions["gen"].is_generator
        assert m.functions["agen"].is_generator

    def test_self_method_call_resolves_through_bases(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {
                "base.py": """
                class Base:
                    def helper(self):
                        pass
                """,
                "child.py": """
                from base import Base

                class Child(Base):
                    def run(self):
                        self.helper()
                """,
            },
        )
        run = graph.functions["child.Child.run"]
        targets = dict((c.raw, t) for c, t in graph.call_targets(run))
        assert targets["self.helper"] == "base.Base.helper"

    def test_unresolved_call_keeps_raw_text(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {"m.py": "import time\n\ndef f():\n    time.sleep(1)\n    mystery()\n"},
        )
        f = graph.functions["m.f"]
        targets = [t for _, t in graph.call_targets(f)]
        assert "time.sleep" in targets
        assert "mystery" in targets

    def test_methods_are_indexed_by_qualname(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {"m.py": "class C:\n    def method(self):\n        pass\n"},
        )
        assert "m.C.method" in graph.functions
        assert graph.functions["m.C.method"].cls == "C"

    def test_module_constants_collected(self, tmp_path):
        graph = build_tree(
            tmp_path,
            {"m.py": "LIMIT = 10\nNAMES: dict = {}\nother, more = 1, 2\n"},
        )
        constants = graph.modules["m"].constants
        assert "LIMIT" in constants and "NAMES" in constants


class TestDuplicateNames:
    def test_first_module_wins_deterministically(self, tmp_path):
        # Two roots both containing `dup.py`: iteration order is sorted,
        # so the first wins and the graph stays consistent.
        (tmp_path / "r1").mkdir()
        (tmp_path / "r2").mkdir()
        (tmp_path / "r1" / "dup.py").write_text("WHICH = 'r1'\n")
        (tmp_path / "r2" / "dup.py").write_text("WHICH = 'r2'\n")
        graph = ProjectGraph.build(
            [tmp_path / "r1", tmp_path / "r2"], root=tmp_path
        )
        assert graph.modules["dup"].rel_path == "r1/dup.py"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
