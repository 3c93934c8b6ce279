"""Every file the CLI writes on the fixtures, pinned by its sha256.

A refactor that keeps these digests writes the same bytes as before. A
change that means to alter an output updates the digest it names, and
says why.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from resilink.cli import run_subcommand

PIPE = Path(__file__).parent / "fixtures" / "pipeline"

EXPECTED = {
    "ch.enriched.json": "c83925af16608992182879756a3d9da5a79864dfb6abebc0d4f436db3f634ddb",
    "ch.events.json": "ad612ae29b32a86e49555b6b30bc6a4025a39d77f81ceacd9899d8048525052a",
    "convert.ttl": "f0650eff12830167bb231c675d37a81026d477341fe25f3f405c34f82bc0148c",
    "counts.json": "edf5b47a999fbadd416c519b879aa8900699b0473c5af270f6216c67c714586f",
    "eor.enriched.json": "35b11eada732a4826f544cdc63d0176f1e16148326e1687d25ac67e928fa57b7",
    "eor.events.json": "f02dd9cb1c12e065fb7ff4aa8be77ec88589bf8b79d593a61f956fb4e27596e6",
    "integrate.ttl": "6c9337795a2e20707fd40afa5205c11a19749fe8547f621e58bcb7528f350e3d",
    "integrated.nt": "25f18a94d032d00d6bf71df2f185fd60bcec74da52359d9f452fe512267225c9",
    "pairs.csv": "edd648fe4edad1045f486408f5d561286ac46bb4a1f7c59441e2daf48ab11714",
    "uc1.geojson": "a8e4834c24ba3a53129756cff4bdfa557cc2f0ece2f607b699b55a48c19fedff",
    "uc1.nt": "d76d9bd6167a6728abb7e21ddc36888ee2c8614a429c28248667561665da350a",
    "uc2.csv": "f0929ef1ab880252298f4ceb2b511bc96af00d70e1d1ecf1ead39efbb29c253e",
    "uc3.csv": "6efec0bf21b02a6bf1c3d383af99b3a676e78aed99248b09bafa6704b2c4ec86",
    "uc4.csv": "44190c649a81686fa69c4784303541c82f5fcd028f2489b4bf38687609657bde",
    "uc5.csv": "48b018e978074ae21b3d3c25b5eafb4f972ff4ca426de4a244d804b6252fff4b",
    "uc6.csv": "2ac5899487f3cfe9a184c1ac3c74230a75b6eca5e1b903b651b457af762884d9",
    "uc6.geojson": "dcbde1b6aae615c19f88f9a41b25681ee690652ee5b7e6f1f51469bb2260d631",
}


def _run(*argv) -> None:
    assert run_subcommand([str(a) for a in argv]) == 0, argv


def _write_outputs(work: Path) -> Path:
    """Run pipeline, convert, integrate and report uc1..uc6; return the output directory."""
    out = work / "out"
    _run("pipeline", "--config", PIPE / "config.json",
         "--eor-input", PIPE / "eor.json", "--ch-input", PIPE / "ch.csv", "--ch-format", "csv",
         "--outdir", out)
    _run("convert", "--input", out / "eor.enriched.json", "--out", out / "convert.ttl",
         "--rdf-format", "turtle")
    _run("integrate", "--eor", out / "eor.enriched.json", "--ch", out / "ch.enriched.json",
         "--out", out / "integrate.ttl", "--rdf-format", "turtle")
    nt = out / "integrated.nt"
    _run("report", "uc1", "--input", nt, "--start", "2022-03-01", "--end", "2022-12-31",
         "--out-nt", out / "uc1.nt", "--out-geojson", out / "uc1.geojson")
    _run("report", "uc2", "--input", nt, "--keyword", "school", "--out", out / "uc2.csv")
    _run("report", "uc3", "--input", nt, "--top", "5", "--out", out / "uc3.csv")
    _run("report", "uc4", "--input", nt, "--start", "2022-01-01", "--end", "2024-01-01",
         "--top", "3", "--out", out / "uc4.csv")
    deaths = work / "deaths.csv"
    deaths.write_text("month,deaths\n2022-03,4\n2022-04,2\n2022-10,7\n")
    _run("report", "uc5", "--input", nt, "--deaths", deaths, "--out", out / "uc5.csv")
    shelters = work / "shelters.csv"
    shelters.write_text("name,lat,lon\ncentral,49.9935,36.2304\nizyum,49.2128,37.2573\n")
    _run("report", "uc6", "--input", nt, "--shelters", shelters,
         "--out-geojson", out / "uc6.geojson", "--out", out / "uc6.csv")
    return out


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_fixture_outputs_are_byte_identical(tmp_path):
    assert _digests(_write_outputs(tmp_path)) == EXPECTED
