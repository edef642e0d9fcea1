"""Byte-for-byte gate on the outputs of three bundled configs.

The files under tests/golden/ were written by `fraglab run exact_fit`,
`fraglab run fig3_smallobjects` and `fraglab grid grid_smoke` while the
volume still kept one marker per cluster.  Bookkeeping changes must leave
every byte alone; a change that alters one changes simulated behaviour and
must say why.
"""

from pathlib import Path

import pytest

from fraglab import cli
from fraglab.errors import EXIT_OK

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("run", "exact_fit", ["exact_fit.csv", "exact_fit.json.out"]),
    ("run", "fig3_smallobjects", ["fig3_smallobjects.csv", "fig3_smallobjects.json.out"]),
    ("grid", "grid_smoke", ["grid_smoke.csv", "grid_smoke_summary.json"]),
]


@pytest.mark.parametrize("command, name, outputs", CASES, ids=[c[1] for c in CASES])
def test_bundled_outputs_match_golden(tmp_path, monkeypatch, command, name, outputs):
    monkeypatch.chdir(tmp_path)  # the bundled configs write into the working directory
    assert cli.main([command, name]) == EXIT_OK
    for out in outputs:
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes(), out
