"""The committed fingerprint of the pipeline's datasets.

``fingerprint.json`` holds the sha256 of the files that ``gen-data``
writes for the tiny config that CI runs through the CLI.
These bytes come from the market, the behaviour loggers and the hindsight
expert alone, and have been the same under every BLAS kernel and numpy
SIMD level tried, so they are checked on any machine.  The file is
updated only by a change that alters the datasets on purpose and says
why in CHANGES.md; it is never regenerated to hide an unexplained change.
"""

import hashlib
import json
from pathlib import Path

from bagbid.cli import main

FINGERPRINT = Path(__file__).with_name("fingerprint.json")

# the config of CI's "Tiny pipeline through the CLI" step
CI_TINY_CONFIG = {
    "seed": 7,
    "market": {"steps_per_episode": 24, "opportunities_per_step": 20},
    "campaigns": [
        {"campaign_id": "c0", "budget": 6.0, "ros_bound": 6.0},
        {"campaign_id": "c1", "budget": 9.0, "ros_bound": 6.0},
    ],
    "train_episodes_per_campaign": 4,
    "test_periods": 2,
    "test_seeds_per_period": 2,
    "model": {"d_model": 16, "n_layers": 1, "n_heads": 2, "context_steps": 24,
              "bag_len": 8, "train_steps": 60, "batch_size": 4},
    "disc": {"steps": 80, "batch_size": 64},
}


def test_datasets_match_the_committed_fingerprint(tmp_path):
    """gen-data of CI's tiny config writes the datasets and manifest whose
    sha256 ``fingerprint.json`` records."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CI_TINY_CONFIG))
    out = tmp_path / "run"
    assert main(["gen-data", "--config", str(config), "--output-dir", str(out)]) == 0
    expected = json.loads(FINGERPRINT.read_text())["sha256"]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in expected} == expected
