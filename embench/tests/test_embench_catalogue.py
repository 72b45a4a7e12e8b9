"""BENCHMARK.json names the catalogue's metrics with the same units."""

import json
from pathlib import Path

from catalogue import END_TO_END, PER_LAYER

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_manifest_lists_the_catalogue():
    manifest = json.loads(MANIFEST.read_text())
    for key, catalogue in (("end_to_end", END_TO_END),
                           ("per_layer", PER_LAYER)):
        assert {m["name"]: m["unit"] for m in manifest[key]} == catalogue
    assert len(manifest["per_layer"]) == len(PER_LAYER)
