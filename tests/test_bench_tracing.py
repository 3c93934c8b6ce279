"""The benchmark's traced run patches resilink functions by module and name.

A renamed or bypassed function would silently blank its layer in the
trace, so every target must resolve, a traced pipeline on the fixtures
must pass through each gazetteer and RDF writer layer, and a traced
report must load through the traced reload.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PIPE = ROOT / "tests" / "fixtures" / "pipeline"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = [
    (name, module, attr) for name, targets in tracing.SPANS.items() for module, attr in targets
] + [(name, module, attr) for name, (module, attr) in tracing.COUNTED.items()]


@pytest.mark.parametrize("name, module, attr", TARGETS, ids=[f"{n}-{a}" for n, _, a in TARGETS])
def test_traced_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _traced(tmp_path: Path, name: str, *argv) -> dict:
    spans_out = tmp_path / f"{name}.spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans_out), "fixtures", "--",
         *map(str, argv)],
        check=True, env=env, capture_output=True,
    )
    return json.loads(spans_out.read_text())


@pytest.fixture(scope="module")
def traced_pipeline(tmp_path_factory) -> tuple[dict, Path]:
    """The spans of a traced pipeline on the fixtures, and its outdir."""
    tmp_path = tmp_path_factory.mktemp("traced")
    doc = _traced(
        tmp_path, "pipeline",
        "pipeline", "--config", PIPE / "config.json",
        "--eor-input", PIPE / "eor.json", "--eor-format", "json",
        "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
        "--outdir", tmp_path / "out",
    )
    return doc, tmp_path / "out"


def test_traced_pipeline_reaches_every_gazetteer_layer(traced_pipeline):
    doc, outdir = traced_pipeline
    names = {span[0] for span in doc["spans"]}
    for layer in ("gazetteer.load", "gazetteer.enrich", "gazetteer.name", "gazetteer.reverse",
                  "gazetteer.postal", "integration.candidates", "integration.classify",
                  "rdf.emit", "rdf.serialize"):
        assert layer in names
    assert doc["counts"]["gazetteer.nearest_place_calls"] > 0
    nt = outdir / "integrated.nt"
    assert doc["counts"]["rdf.nt_bytes"] == nt.stat().st_size
    assert doc["counts"]["rdf.triples"] == len(nt.read_bytes().splitlines())


def test_traced_report_loads_through_the_reload(traced_pipeline, tmp_path):
    _, outdir = traced_pipeline
    doc = _traced(tmp_path, "report", "report", "uc2", "--input", outdir / "integrated.nt",
                  "--keyword", "school", "--out", tmp_path / "uc2.csv")
    assert {"rdf.parse", "rdf.reload", "analytics.uc2"} <= {span[0] for span in doc["spans"]}
