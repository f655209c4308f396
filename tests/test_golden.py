"""Byte-for-byte comparison of ``bellbox model`` reports against stored copies.

The files under ``tests/golden/`` are the machine and text reports of every
model name under both isomorphisms, plus the two vessel constructions at
nonzero phases.  Any change to a report's bytes shows up here.
"""

from pathlib import Path

import pytest

from bellbox.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

NAMES = ("animal-acts", "vessels", "vessels-alt", "vessels-separated")

CASES = [(name, iso, ()) for name in NAMES for iso in ("canonical", "swapped")] + [
    (name, "canonical", ("--alpha", "0.7", "--beta", "-0.3"))
    for name in ("vessels", "vessels-alt")
]


def _golden_path(name: str, iso: str, phases: tuple, fmt: str) -> Path:
    suffix = "-phases" if phases else ""
    ext = "json" if fmt == "machine" else "txt"
    return GOLDEN / f"model-{name}-{iso}{suffix}.{ext}"


@pytest.mark.parametrize("fmt", ("machine", "text"))
@pytest.mark.parametrize(
    "name,iso,phases", CASES, ids=[f"{n}-{i}{'-phases' if p else ''}" for n, i, p in CASES]
)
def test_model_report_bytes(capsys, name, iso, phases, fmt):
    code = main(["model", name, "--iso", iso, "--format", fmt, *phases])
    out = capsys.readouterr().out
    assert code == 0
    assert out == _golden_path(name, iso, phases, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ("machine", "text"))
def test_phase_free_model_reports_no_phase(capsys, fmt):
    # animal-acts has no phase, so --alpha/--beta change nothing it reports
    code = main(["model", "animal-acts", "--alpha", "0.7", "--beta", "-0.3", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == _golden_path("animal-acts", "canonical", (), fmt).read_text(encoding="utf-8")
