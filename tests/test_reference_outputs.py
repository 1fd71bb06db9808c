"""Every output path of the command line writes its reference bytes.

``tests/test_reference_hashes.py`` gates the three benchmark jobs; this
gates the paths they do not run: ``simulate``, ``synth-data``, the
one-bandwidth ``mise``, ``estimate`` at a fixed ``--h`` and with
``--h2 --clamp``, ``--format json``, ingest with ``--group``, and the
bootstrap on the tied ages of ``synth-data --seed 1``.  Each run is
small, in a fresh working directory with relative paths, and compares
the SHA-256 of its table and of its sidecar, with ``config.out``
masked as acceptance criterion 9 masks it, against
``tests/reference_outputs.json``.

``python tests/test_reference_outputs.py`` rewrites that file from the
code it imports, running in a temporary directory: only for a change
that means to move these bytes.
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from npmixcure import cli

REFERENCE = Path(__file__).resolve().parent / "reference_outputs.json"

_TIED = ["--data", "synth-data.csv", "--covariate-col", "age",
         "--group-col", "stage"]

# in order: the tied runs read the file synth-data writes
RUNS = {
    "simulate": ["simulate", "--model", "2", "--n", "30", "--seed", "3"],
    "synth-data": ["synth-data", "--seed", "1"],
    "mise": ["mise", "--model", "1", "--n", "30", "--m", "2", "--x", "5",
             "--grid", "10:40:3", "--time-grid-size", "20", "--seed", "2"],
    "estimate-fixed": ["estimate", "--model", "1", "--n", "40", "--x", "5",
                       "--x", "8", "--h", "15", "--time-points", "20",
                       "--seed", "4"],
    "estimate-h2-clamp": ["estimate", "--model", "2", "--n", "40", "--x", "5",
                          "--h", "10", "--h2", "20", "--clamp",
                          "--time-points", "20", "--seed", "5"],
    "estimate-json": ["estimate", "--model", "1", "--n", "30", "--x", "5",
                      "--h", "12", "--time-points", "10", "--seed", "6",
                      "--format", "json"],
    "ingest-group": ["estimate", *_TIED, "--group", "1", "--group", "3",
                     "--x", "60", "--h", "10", "--time-points", "20"],
    "tied-estimate": ["estimate", *_TIED, "--group", "2", "--x", "60",
                      "--h", "auto", "--grid", "10:80:5", "--B", "10",
                      "--time-points", "20"],
    "tied-selectbw": ["selectbw", *_TIED, "--group", "2", "--x", "50",
                      "--x", "70", "--grid", "10:80:5", "--B", "10"],
}


def _output_hashes():
    """``{run: [table hash, masked sidecar hash]}`` of every run, written
    in the working directory."""
    hashes = {}
    for name, argv in RUNS.items():
        out = f"{name}.{'json' if 'json' in argv else 'csv'}"
        assert cli.main([*argv, "--out", out]) == 0, name
        meta = json.loads(Path(out + ".meta.json").read_text())
        meta["config"]["out"] = "<out>"
        hashes[name] = [
            hashlib.sha256(Path(out).read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(meta, sort_keys=True).encode())
            .hexdigest(),
        ]
    return hashes


def test_every_output_path_writes_its_reference_bytes(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NPMIXCURE_OUTDIR", raising=False)
    assert _output_hashes() == json.loads(REFERENCE.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        os.environ.pop("NPMIXCURE_OUTDIR", None)
        hashes = _output_hashes()
    REFERENCE.write_text(json.dumps(hashes, indent=2) + "\n")
    print(f"wrote {REFERENCE}: {len(hashes)} runs", file=sys.stderr)
