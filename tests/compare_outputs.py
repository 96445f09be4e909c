"""Compare what the CLI writes from two ``src/`` trees, line by aligned line.

Not collected by pytest. Run it from the repository root with the two trees to compare::

    python tests/compare_outputs.py OLD_SRC NEW_SRC

Each tree runs in its own interpreter, with that tree first on ``PYTHONPATH``:

* ``figure --name all``: the preset CSVs;
* a bright ``full`` g2 sweep, where every verdict is far from the 3-sigma noise line;
* a ``basic`` g2 sweep across that line: nu 1.0:1.1:401, eta_ab 0.5, 20,000 samples, seed 99;
* a ``basic`` g2 sweep of 2,500 points at 1,000 samples, more than one chunk of ``hbt._REPORT_POINTS`` points,
  so the seams between chunks are compared too;
* five ``g2check`` calls, their stdout kept as a text file each;
* refused runs (``REFUSED``): each one's exit code and ``error:`` lines, kept as a text file each, so a
  change that moves a rule shows every sentence it changed. Two of them replay a CSV: ``config_other_generator``
  names a generator other than the build's, and ``config_old_header`` has the ``# key: value`` header of
  versions before the header became the run's config.

It aligns the two versions of each file with ``difflib``, ignoring ``# generated`` stamps, and prints each run of
lines that differs, so a line added to a header is reported alone, not with every line after it. Then it prints one
summary line per file with its count of differing lines and of ``nan`` cells in each tree. It exits 1 when any line
differs.

With ``--digests SRC`` it writes one tree's outputs and prints the sha256 of each, ``# generated`` stamps
removed, as the JSON of ``tests/output_digests.json``, which ``test_outputs.py`` holds the outputs to::

    python tests/compare_outputs.py --digests src > tests/output_digests.json
"""
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SWEEPS = {
    "bright_full_g2": ["scenario=full", "nu=10", "eta_th=0.8", "v_th=2", "eta_th_a=0.9", "v_alpha=1.5",
                       "eta_th_b=0.7", "v_beta=2.5", "sweep=eta_ab:0.2:0.8:41", "outputs=g2", "seed=5",
                       "samples=100000"],
    "straddle_basic_g2": ["scenario=basic", "eta_ab=0.5", "sweep=nu:1.0:1.1:401", "outputs=g2", "seed=99",
                          "samples=20000"],
    "slices_basic_g2": ["scenario=basic", "nu=10", "sweep=eta_ab:0.01:0.99:2500", "outputs=g2", "seed=7",
                        "samples=1000"],
}
G2CHECKS = [
    ["--nu", "10", "--eta-ab", "0.5", "--seed", "1"],
    ["--nu", "5", "--eta-ab", "0.3", "--eta-th", "0.7", "--v-th", "2", "--seed", "2"],
    ["--nu", "1000", "--eta-ab", "0.4", "--eta-th", "0.8", "--v-th", "2", "--eta-th-a", "0.9", "--v-alpha", "1.5",
     "--eta-th-b", "0.7", "--v-beta", "2.5", "--seed", "3"],
    ["--nu", "1", "--seed", "4"],
    ["--nu", "1.02", "--eta-ab", "0.5", "--samples", "20000", "--seed", "5"],
]
CSV_STAMP = ["# thermalcast 0.1.0", "# generated: 2026-01-01T00:00:00+00:00"]
# Runs the CLI must refuse: a list is a config for ``sweep``, a tuple a whole argv.
REFUSED = {
    "config_scenario": ["scenario=bogus", "sweep=eta_ab:0.1:0.9:9", "outputs=cmi"],
    "config_transmittance": ["scenario=basic", "eta_ab=1.5", "sweep=nu:1:2:3", "outputs=cmi"],
    "config_swept_transmittance": ["scenario=basic", "sweep=eta_ab:0.1:1.5:3", "outputs=cmi"],
    "config_variance": ["scenario=basic", "nu=0.5", "sweep=eta_ab:0.1:0.9:3", "outputs=cmi"],
    "config_foreign_parameter": ["scenario=basic", "eta_th=0.5", "sweep=eta_ab:0.1:0.9:3", "outputs=cmi"],
    "config_unknown_parameter": ["scenario=basic", "sweep=mass:0.1:0.9:3", "outputs=cmi"],
    "config_unknown_output": ["scenario=basic", "sweep=eta_ab:0.1:0.9:3", "outputs=cmi,g3"],
    "config_no_seed": ["scenario=basic", "sweep=eta_ab:0.1:0.9:3", "outputs=g2"],
    "config_few_samples": ["scenario=basic", "sweep=eta_ab:0.1:0.9:3", "outputs=g2", "seed=1", "samples=10"],
    "config_one_point_range": ["scenario=basic", "sweep=nu:1:5:1", "outputs=cmi"],
    "config_other_generator": [*CSV_STAMP, "# scenario=basic", "# sweep=eta_ab:0.1:0.9:3", "# outputs=g2", "# seed=1",
                               "# samples=1000", "# generator=pcg64/v1", "# points: 3 failed: 0", "eta_ab,g2"],
    "config_old_header": [*CSV_STAMP, "# scenario: basic", "# fixed: nu=2", "# sweep: eta_ab:0.1:0.9:3",
                          "# outputs: cmi", "# seed: none", "# points: 3 failed: 0", "eta_ab,cmi"],
    "g2check_transmittance": ("g2check", "--eta-ab", "1.5", "--seed", "1"),
    "g2check_variance": ("g2check", "--nu", "0.5", "--seed", "1"),
    "g2check_huge_variance": ("g2check", "--v-th", "1e7", "--seed", "1"),
    "g2check_few_samples": ("g2check", "--samples", "10", "--seed", "1"),
    "g2check_seed": ("g2check", "--seed", "-1"),
    "figure_unknown": ("figure", "--name", "fig9", "--out-dir", "figures"),
}


def write_outputs(out: Path, run) -> list[str]:
    """Write every output into ``out`` and return the names of those compared; ``run(*argv)`` runs the CLI with
    ``out`` as its working directory and returns its exit code, stdout and stderr."""
    def cli(*argv):
        code, stdout, stderr = run(*argv)
        if code:
            sys.exit(f"{out}: {' '.join(argv)} exited {code}: {stderr.strip()}")
        return stdout

    cli("figure", "--name", "all", "--out-dir", "figures")
    for name, lines in SWEEPS.items():
        (out / f"{name}.cfg").write_text("\n".join(lines) + "\n")
        cli("sweep", "--config", f"{name}.cfg", "--out", f"{name}.csv")
    for k, argv in enumerate(G2CHECKS):
        (out / f"g2check_{k}.txt").write_text(cli("g2check", *argv))
    for name, argv in REFUSED.items():
        if isinstance(argv, list):
            (out / f"{name}.cfg").write_text("\n".join(argv) + "\n")
            argv = ("sweep", "--config", f"{name}.cfg", "--out", f"{name}.csv")
        code, _, stderr = run(*argv)
        errors = [line for line in stderr.splitlines() if line.startswith("error:")]
        (out / f"refused_{name}.txt").write_text("\n".join([f"exit {code}", *errors]) + "\n")
    return (sorted(str(path.relative_to(out)) for path in out.rglob("*.csv"))
            + [f"g2check_{k}.txt" for k in range(len(G2CHECKS))] + [f"refused_{name}.txt" for name in REFUSED])


def run_tree(src: Path, out: Path) -> list[str]:
    """Write every output of one tree into ``out``, each command in its own interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "thermalcast.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    out.mkdir(parents=True)
    return write_outputs(out, run)


def kept_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("# generated")]


def digests(out: Path, names: list[str]) -> dict[str, str]:
    """The sha256 of each named output, its kept lines joined by newlines."""
    return {name: hashlib.sha256("\n".join(kept_lines(out / name)).encode()).hexdigest() for name in names}


def main(old_src: str, new_src: str) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        old, new = Path(scratch, "old"), Path(scratch, "new")
        names, new_names = run_tree(Path(old_src), old), run_tree(Path(new_src), new)
        if names != new_names:
            print(f"the trees wrote different files: {names} and {new_names}")
            return 1
        summary, differ = [], False
        for name in names:
            before, after = kept_lines(old / name), kept_lines(new / name)
            changed = [op for op in difflib.SequenceMatcher(None, before, after, autojunk=False).get_opcodes()
                       if op[0] != "equal"]
            for _, i, j, k, m in changed:  # before[i:j] became after[k:m]
                print(f"{name}:{i + 1}" + "".join(f"\n  - {line}" for line in before[i:j])
                      + "".join(f"\n  + {line}" for line in after[k:m]))
            if len(before) != len(after):
                print(f"{name}: {len(before)} lines -> {len(after)} lines")
            nans = [sum(line.count("nan") for line in lines if not line.startswith("#")) for lines in (before, after)]
            count = sum(max(j - i, m - k) for _, i, j, k, m in changed)
            summary.append(f"{name}: {count} of {len(before)} lines differ, nan cells {nans[0]} -> {nans[1]}")
            differ = differ or bool(changed)
        print("\n".join(summary))
        return int(differ)


def print_digests(src: str) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch, "tree")
        print(json.dumps(digests(out, run_tree(Path(src), out)), indent=1))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(print_digests(sys.argv[2]) if sys.argv[1] == "--digests" else main(*sys.argv[1:]))
