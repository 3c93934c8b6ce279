"""The benchmark's traced run patches resilink functions by module and name.

A renamed or bypassed function would silently blank its layer in the
trace, so every target must resolve, and a traced pipeline on the
fixtures must pass through each gazetteer layer.
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


def test_traced_pipeline_reaches_every_gazetteer_layer(tmp_path):
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans_out), "fixtures", "--",
         "pipeline", "--config", str(PIPE / "config.json"),
         "--eor-input", str(PIPE / "eor.json"), "--eor-format", "json",
         "--ch-input", str(PIPE / "ch.csv"), "--ch-format", "csv",
         "--outdir", str(tmp_path / "out")],
        check=True, env=env, capture_output=True,
    )
    doc = json.loads(spans_out.read_text())
    names = {span[0] for span in doc["spans"]}
    for layer in ("gazetteer.load", "gazetteer.enrich", "gazetteer.name", "gazetteer.reverse",
                  "gazetteer.postal", "integration.candidates", "integration.classify"):
        assert layer in names
    assert doc["counts"]["gazetteer.nearest_place_calls"] > 0
