"""The work-and-parity ledger (``tools/ledger.py``) at a small size:
two runs print the same document, and its steps follow the stream."""

from __future__ import annotations

import json

from tools.ledger import ledger


def test_ledger_is_deterministic_and_tracks_the_tail():
    sizes = dict(objects=2000, batches=12, every=6, sessions=4, cold=10)
    first = json.dumps(ledger(**sizes), sort_keys=True)
    assert json.dumps(ledger(**sizes), sort_keys=True) == first
    document = json.loads(first)
    steps = document["steps"]
    assert [step["batches"] for step in steps] == [0, 6, 12]
    assert steps[0]["global_tail"] is None  # built by the first step's reads
    assert 0 < steps[1]["global_tail"] < steps[2]["global_tail"]
    for step in steps:
        assert step["sessions"]["dual_views"] >= sizes["sessions"]
        assert step["cold"]["scan_calls"] >= sizes["cold"]
        assert len(step["answers_sha256"]) == 64
    assert "_ms" not in first
