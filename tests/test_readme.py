"""The README's library quick tour runs and names only real functions."""
import re
from pathlib import Path

import wigner_bounds

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quick tour", 1)[1].split("\n## ", 1)[0]


def test_quick_tour_code_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", quick_tour(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    capsys.readouterr()


def test_quick_tour_prose_names_exist():
    prose = re.sub(r"```.*?```", "", quick_tour(), flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert "load_region" in names
    missing = [n for n in names if not hasattr(wigner_bounds, n)]
    assert not missing, "README names %s, which the package does not export" % missing
