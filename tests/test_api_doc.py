"""docs/API.md must match what scripts/gen_api_doc.py generates."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "gen_api_doc.py"


def test_api_doc_matches_generator():
    spec = importlib.util.spec_from_file_location("gen_api_doc", SCRIPT)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    assert generator.API_DOC.read_text() == generator.render(), (
        "docs/API.md is stale: run `PYTHONPATH=src python scripts/gen_api_doc.py`"
    )
