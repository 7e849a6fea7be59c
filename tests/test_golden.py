"""The checked-in trajectory spec: one fingerprint per experiment driver.

``tests/golden/fingerprints.json`` pins, at reduced scale, the
trajectory fingerprint (:func:`repro.experiments.fingerprint.trajectory_fingerprint`)
of every driver in :data:`repro.experiments.REGISTRY`, the extended
Figure 7 sweep, the fleet drain and every fixed chaos plan in
``tests/chaos_plans``.  The test recomputes each one and never writes.

A change that moves a trajectory on purpose regenerates the file and
gives the reason in CHANGES.md, so the re-baseline shows in the diff::

    PYTHONPATH=src python tests/test_golden.py --write

A change that only makes the kernel cheaper leaves every entry alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.experiments import REGISTRY, chaos_fuzz, fig7_tradeoff, fleet_sweep
from repro.experiments.fingerprint import trajectory_fingerprint
from repro.parallel.tasks import execute

GOLDEN = Path(__file__).with_name("golden") / "fingerprints.json"
PLANS = Path(__file__).with_name("chaos_plans")

#: Database scale of the driver entries (shape-preserving, ~0.1-1.5 s each).
SCALE = 0.1


def _driver(name: str):
    """Run one registry driver and fingerprint what it measured.

    Each driver's result is mapped to its runs here (label -> outcome)
    plus the figures it derived; drivers that keep only derived figures
    (fig11, stop-and-copy, ext-source-target) are pinned by those.
    """
    module = REGISTRY[name]
    if name == "stop-and-copy":
        return trajectory_fingerprint({}, facts=module.run().points)
    result = module.run(scale=SCALE)
    if name == "fig5":
        return trajectory_fingerprint(result.outcomes)
    if name == "fig7":
        return trajectory_fingerprint(result.fig5.outcomes, facts=result.rows())
    if name in ("fig6", "fig12"):
        return trajectory_fingerprint({name: result.outcome})
    if name in ("fig13a", "fig13b"):
        return trajectory_fingerprint({"slacker": result.slacker, "fixed": result.fixed})
    if name == "fig11":
        return trajectory_fingerprint({}, facts=(result.fixed, result.slacker))
    assert name == "ext-source-target", name
    return trajectory_fingerprint({}, facts=(result.source_only, result.both_ends))


def _fleet_drain() -> str:
    point = next(p for p in fleet_sweep.sweep_points() if p.label == "drain")
    return execute(point.task, point.config, point.spec, point.kwargs).fingerprint


def _entries() -> dict:
    """Entry name -> zero-argument function computing its fingerprint."""
    entries = {name: (lambda name=name: _driver(name)) for name in REGISTRY}
    entries["fig7-extended"] = lambda: fig7_tradeoff.run_extended(
        scale=SCALE
    ).fingerprint()
    entries["fleet-drain"] = _fleet_drain
    for point in chaos_fuzz.plan_points(str(PLANS)):
        entries[f"chaos/{point.label}"] = lambda point=point: execute(
            point.task, point.config, point.spec, point.kwargs
        ).fingerprint
    return entries


ENTRIES = _entries()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_names_every_entry():
    assert sorted(_golden()) == sorted(ENTRIES)
    assert len(ENTRIES) == 23


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_fingerprint_matches_golden(name):
    assert ENTRIES[name]() == _golden()[name], (
        f"{name}'s trajectory moved: if on purpose, rerun "
        "`python tests/test_golden.py --write` and say why in CHANGES.md"
    )


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(__doc__)
        return 2
    golden = {name: compute() for name, compute in sorted(ENTRIES.items())}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} fingerprints to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
