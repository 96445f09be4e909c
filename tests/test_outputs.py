"""Byte identity of what the CLI writes, held to committed digests.

``compare_outputs.py`` holds the run list: the preset CSVs, the g2 sweeps, the ``g2check`` reports and the refused
runs. Here they run in process, and each output's sha256, ``# generated`` stamp removed, must match
``output_digests.json``. A change that moves bytes on purpose regenerates that file with
``python tests/compare_outputs.py --digests src > tests/output_digests.json`` and says which files moved, and why.
"""
import json
from pathlib import Path

from compare_outputs import digests, write_outputs
from thermalcast.cli import main

DIGESTS = json.loads(Path(__file__).with_name("output_digests.json").read_text())


def test_every_output_keeps_its_digest(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()

    def run(*argv):
        code = main(list(argv))
        return (code, *capsys.readouterr())

    got = digests(tmp_path, write_outputs(tmp_path, run))
    assert sorted(got) == sorted(DIGESTS)
    moved = [name for name in DIGESTS if got[name] != DIGESTS[name]]
    assert not moved, f"{len(moved)} of {len(DIGESTS)} outputs changed their bytes: {', '.join(moved)}"
