"""Byte identity of what the CLI writes, held to committed digests, and every CSV replayed from its own header.

``compare_outputs.py`` holds the run list: the preset CSVs, the g2 sweeps, the ``g2check`` reports and the refused
runs. Here they run in process, and each output's sha256, ``# generated`` stamp removed, must match
``output_digests.json``. A change that moves bytes on purpose regenerates that file with
``python tests/compare_outputs.py --digests src > tests/output_digests.json`` and says which files moved, and why.
"""
import contextlib
import io
import json
from pathlib import Path

import pytest

from compare_outputs import digests, kept_lines, write_outputs
from thermalcast.cli import main

DIGESTS = json.loads(Path(__file__).with_name("output_digests.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The run list's outputs, written once in process, and the names of those compared."""
    out = tmp_path_factory.mktemp("outputs")

    def run(*argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(list(argv))
        return code, stdout.getvalue(), stderr.getvalue()

    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(out)
        return out, write_outputs(out, run)


def test_every_output_keeps_its_digest(outputs):
    got = digests(*outputs)
    assert sorted(got) == sorted(DIGESTS)
    moved = [name for name in DIGESTS if got[name] != DIGESTS[name]]
    assert not moved, f"{len(moved)} of {len(DIGESTS)} outputs changed their bytes: {', '.join(moved)}"


def test_every_csv_replays_from_its_own_header(outputs, tmp_path, capsys):
    # the header is the run's config: given back as --config, each CSV rebuilds itself byte for byte
    out, names = outputs
    csvs = [name for name in names if name.endswith(".csv")]
    assert len(csvs) == 16 + 3
    for name in csvs:
        replay = tmp_path / "replay.csv"
        assert main(["sweep", "--config", str(out / name), "--out", str(replay)]) == 0, name
        assert kept_lines(replay) == kept_lines(out / name), name
    capsys.readouterr()
