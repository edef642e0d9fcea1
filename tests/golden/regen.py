"""Write the golden files in this directory from the code of one git revision.

    python tests/golden/regen.py REV

The revision's tree is unpacked with `git archive` into a temporary
directory, and each case in CASES runs there through that tree's `fraglab`
CLI.  A case names a bundled config or a grid document kept here; documents
are read from the working tree, so a case may be added before the revision
that first runs it.  Golden files are regenerated only from the code of the
commit a change is based on, never from the change itself.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

# (subcommand, bundled config name or document in this directory, files it writes)
CASES = [
    ("run", "exact_fit", ["exact_fit.csv", "exact_fit.json.out"]),
    ("run", "fig3_smallobjects", ["fig3_smallobjects.csv", "fig3_smallobjects.json.out"]),
    ("grid", "grid_smoke", ["grid_smoke.csv", "grid_smoke_summary.json"]),
    ("grid", "all_policies_deferred.json",
     ["all_policies_deferred.csv", "all_policies_deferred_summary.json"]),
    ("grid", "all_policies_immediate.json",
     ["all_policies_immediate.csv", "all_policies_immediate_summary.json"]),
]


def config_arg(name: str) -> str:
    """The CLI argument for a case: a document here by its path, else the bundled name."""
    return str(GOLDEN / name) if name.endswith(".json") else name


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    archive = subprocess.run(["git", "archive", rev], cwd=GOLDEN.parents[1], check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        run_dir = Path(tmp) / "run"
        run_dir.mkdir()
        cli = "import sys; from fraglab import cli; sys.exit(cli.main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        for command, name, outputs in CASES:
            subprocess.run([sys.executable, "-c", cli, command, config_arg(name)],
                           cwd=run_dir, env=env, check=True)
            for out in outputs:
                shutil.copyfile(run_dir / out, GOLDEN / out)
                print(f"wrote tests/golden/{out} from {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
