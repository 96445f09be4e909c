"""The README states the user's contracts: its examples run or parse, its preset table is the presets', and every
name it cites is public."""
import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import thermalcast
from thermalcast import expand_preset, parse_config
from thermalcast.cli import _PARSER
from thermalcast.sweep import PRESET_NAMES

ROOT = Path(__file__).resolve().parent.parent
TEXT = (ROOT / "README.md").read_text(encoding="utf-8")
FENCES = re.findall(r"^```(\w*)\n(.*?)^```$", TEXT, flags=re.M | re.S)  # (info string, body)
PROSE = re.sub(r"^```.*?^```$", "", TEXT, flags=re.M | re.S)
SPANS = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", PROSE)]  # a span may wrap a line
MODULES = ("cli", "errors", "gaussian", "hbt", "info", "scenarios", "sweep")


def test_quick_start_prints_the_digits_its_comment_shows():
    [code] = [body for info, body in FENCES if info == "python"]
    [shown] = re.findall(r"^print\(.*#(.*)$", code, flags=re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    printed, digits = out.getvalue().split(), [value.rstrip(".") for value in shown.split()]
    assert len(printed) == len(digits)
    for value, prefix in zip(printed, digits):
        assert value.startswith(prefix), (value, prefix)


def test_every_command_line_parses():
    lines = [line for info, body in FENCES if info == "sh" for line in body.splitlines()
             if line.startswith("thermalcast ")]
    assert lines
    for line in lines:  # parsed only: a bad flag raises UsageError
        assert _PARSER.parse_args(shlex.split(line, comments=True)[1:]).handler


def test_config_example_parses():
    configs = [body for info, body in FENCES if info == "cfg"]
    assert configs
    for body in configs:
        parse_config(body)


def test_preset_table_is_what_expand_preset_builds():
    rows = {cells[0]: cells[1:] for cells in ([cell.strip() for cell in line.strip("|").split("|")]
                                              for line in TEXT.splitlines() if re.match(r"\| fig\d", line))}
    assert tuple(rows) == PRESET_NAMES
    for name, (scenario, outputs, sweep, branches, fixed) in rows.items():
        specs = [spec for _, spec in expand_preset(name)]
        assert {(spec.scenario, ",".join(spec.outputs), spec.swept.describe()) for spec in specs} == {
            (scenario, outputs, sweep)}, name
        assert len(specs) == int(branches), name
        listed = {}  # "k=j=1,10": parameters k and j each take the values 1 and 10 across the branches
        for token in fixed.split():
            *keys, values = token.split("=")
            listed.update((key, {float(value) for value in values.split(",")}) for key in keys)
        assert {key: {spec.fixed[key] for spec in specs} for key in specs[0].fixed} == listed, name


def test_no_code_names_a_private_symbol():
    # _x or mod._x; a dunder such as __all__ is public
    private = [span for span in SPANS + [body for _, body in FENCES] if re.search(r"(?<!\w)_[A-Za-z0-9]", span)]
    assert not private


@pytest.mark.parametrize("span", [span for span in dict.fromkeys(SPANS)
                                  if re.fullmatch(r"[A-Za-z]\w*(\.\w+)+(\(.*\))?", span)
                                  and span.split(".")[0] in ("thermalcast", *MODULES, *thermalcast.__all__)])
def test_every_cited_dotted_name_is_public(span):
    head, *parts = span.split("(")[0].split(".")
    obj = (thermalcast if head == "thermalcast" else importlib.import_module(f"thermalcast.{head}")
           if head in MODULES else getattr(thermalcast, head))
    for part in parts:  # a dunder such as __all__ is public
        assert not re.match(r"_(?!_)", part), span
        obj = getattr(obj, part)


@pytest.mark.parametrize("span", [span for span in dict.fromkeys(SPANS) if re.fullmatch(r"[A-Za-z]\w*\(.*\)", span)])
def test_every_cited_call_is_thermalcast_or_numpys(span):
    name = span.split("(")[0]
    assert name in thermalcast.__all__ or hasattr(np.random, name), span


def test_every_cited_readme_heading_exists():
    headings = set(re.findall(r"^#+ (.+)$", TEXT, flags=re.M))
    cited = {match for path in [*ROOT.glob("src/thermalcast/*.py"), *ROOT.glob("tests/*.py")]
             if path.name != "test_readme.py"
             for match in re.findall(r"README's \"([^\"]+)\"", path.read_text(encoding="utf-8"))}
    assert "Accuracy contracts" in cited and "Accuracy contracts" in headings
    assert cited <= headings
