"""Byte-for-byte gate on the outputs of bundled configs and golden grids.

The files under tests/golden/ were written by the cases in
tests/golden/regen.py, from the code of an earlier commit: three bundled
configs, and two grids that run every policy, with deferred and with
immediate frees.  Bookkeeping changes must leave every byte alone; a change
that alters one changes simulated behaviour and must say why.
"""

import pytest

from fraglab import cli
from fraglab.errors import EXIT_OK
from golden.regen import CASES, GOLDEN, config_arg


@pytest.mark.parametrize("command, name, outputs", CASES,
                         ids=[c[1].removesuffix(".json") for c in CASES])
def test_bundled_outputs_match_golden(tmp_path, monkeypatch, command, name, outputs):
    monkeypatch.chdir(tmp_path)  # the configs write into the working directory
    assert cli.main([command, config_arg(name)]) == EXIT_OK
    for out in outputs:
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes(), out
