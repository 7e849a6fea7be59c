"""Package exports are lazy: importing a package runs none of its submodules.

Every package declares its public names once, in an ``_EXPORTS`` table,
and a PEP 562 ``__getattr__`` imports a name's module on first use (see
``repro._lazy_exports``).  The import checks run in a fresh interpreter,
because this one has long since imported everything.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Every package of ``repro``, the top level included.
PACKAGES = ("repro",) + tuple(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


def fresh_modules(statement: str) -> set[str]:
    """The module names loaded after ``statement`` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_repro_loads_no_submodule():
    loaded = fresh_modules("import repro")
    assert sorted(m for m in loaded if m.startswith("repro")) == ["repro"]


def test_task_module_imports_only_what_a_point_runs():
    """A sweep worker's entry point loads no pool, no CLI and no driver."""
    loaded = fresh_modules("import repro.parallel.tasks")
    unwanted = {
        "argparse",
        "concurrent.futures",
        "multiprocessing",
        "repro.analysis.compare",
        "repro.parallel.pool",
    }
    assert loaded & unwanted == set()
    experiments = {m for m in loaded if m.startswith("repro.experiments.")}
    assert experiments == {"repro.experiments.harness"}


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_resolves_every_export_cold(package):
    """From a cold start, ``import *`` binds every name in ``__all__``."""
    fresh_modules(
        f"from {package} import *\n"
        f"import {package} as pkg\n"
        "missing = [n for n in pkg.__all__ if n not in globals()]\n"
        "assert not missing, missing"
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_listed_and_unknown_names_raise(package):
    module = import_module(package)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=f"'{package}'"):
        getattr(module, "no_such_export")


def test_first_access_caches_the_name_in_the_package():
    import repro.simulation as simulation
    from repro.simulation.core import Environment

    assert simulation.Environment is Environment
    assert vars(simulation)["Environment"] is Environment

