"""The README's Python examples and ftcalc commands run as written; the
examples give what their comments say."""

import math
import re
import shlex
from pathlib import Path

import pytest

from ftcalc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
COMMANDS = [line.strip() for block in re.findall(r"```sh\n(.*?)```", TEXT, re.S)
            for line in block.splitlines() if line.strip().startswith("ftcalc ")]
TOUR = next(block for block in BLOCKS if "fft_fn" in block)


def _comment(expr: str) -> str:
    """The comment on the quick-tour line whose code is expr."""
    for line in TOUR.splitlines():
        code, _, comment = line.partition("#")
        if code.strip() == expr:
            return comment.strip()
    raise AssertionError(f"the README quick tour has no line {expr!r}")


def test_readme_python_blocks_run(capsys):
    assert len(BLOCKS) >= 2
    for block in BLOCKS:
        exec(compile(block, str(README), "exec"), {})
    assert "checks passed" in capsys.readouterr().out


def test_readme_quick_tour_results():
    ns: dict = {}
    exec(compile(TOUR, str(README), "exec"), ns)
    p = ns["p"]

    assert _comment("p = monomial([0, 0, 1])") == "x^2"
    assert p.coeffs == (0, 0, 1) and p.basis.value == "monomial"

    assert _comment("fft_poly(p)").startswith("(x)_2 with the same coefficient list")
    q = eval("fft_poly(p)", ns)
    assert q.coeffs == p.coeffs and q.basis.value == "falling"

    assert _comment("ifft_poly(fft_poly(p)) == p").startswith("True")
    assert eval("ifft_poly(fft_poly(p)) == p", ns) is True

    tour = "float(fft_fn(lambda n: 1 / math.factorial(n), 0.5))"
    stated = float(_comment(tour).rpartition("=")[2])
    got = eval(tour, ns)
    assert abs(got - math.sqrt(2.0)) <= 1e-12
    assert abs(got - stated) <= 1e-12


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_commands_exit_zero(command, tmp_path, monkeypatch):
    """Every ftcalc command in the README's shell blocks succeeds, so the
    README names no removed subcommand or flag."""
    monkeypatch.chdir(tmp_path)  # where `--json report.json` writes
    assert main(shlex.split(command)[1:]) == 0
