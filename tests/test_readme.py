"""The README's library quick tour runs and names only real functions,
its command line section names only real flags and its bounds samples
print what the command prints; the package exports only what its
modules export."""
import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import wigner_bounds
from wigner_bounds.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
# the rows of the README module map, lowest layer first
MODULES = ["specfun", "regions", "wigner", "spectra", "cli"]
# the private names one module may import from another: the conic's axes,
# the Laguerre sweep and the Gauss-Legendre rule, each shared by layers
# that must compute them alike
SHARED_PRIVATE = {"_conic", "_laguerre_terms", "_legendre_rule"}


def section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## " + title, 1)[1].split("\n## ", 1)[0]


def test_quick_tour_code_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", section("Library quick tour"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    capsys.readouterr()


def test_quick_tour_prose_names_exist():
    prose = re.sub(r"```.*?```", "", section("Library quick tour"), flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert "load_region" in names
    missing = [n for n in names if not hasattr(wigner_bounds, n)]
    assert not missing, "README names %s, which the package does not export" % missing


def test_command_line_flags_exist():
    ap = build_parser()
    commands = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    flags = {f for sub in commands.choices.values() for a in sub._actions for f in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section("Command line")))
    assert "--window" in named
    missing = sorted(named - flags)
    assert not missing, "README names %s, which no subcommand takes" % missing


def test_bounds_samples_match_the_command(tmp_path, capsys):
    """The `bounds disk.json` and `bounds diamond.json` samples, run on
    the region files the section shows, print their lines verbatim, so
    the basis= and error= shown cannot drift from the code."""
    text = section("Command line")
    regions = {
        "disk.json": re.search(r"^\$ cat disk\.json\n(.*?)\n", text, re.M).group(1),
        "diamond.json": re.search(r"```json\n(\{\"type\": \"graph\".*?)```", text, re.S).group(1),
    }
    for name, region in regions.items():
        (tmp_path / name).write_text(region)
        want = re.search(r"^\$ wigner-bounds bounds %s\n(.*?)```" % re.escape(name), text, re.M | re.S).group(1)
        assert main(["bounds", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out == want


def test_package_exports_match_module_exports():
    """Every name in the package's __all__ is in the __all__ of the
    module the package imports it from."""
    source = {
        alias.name: node.module
        for node in ast.parse(inspect.getsource(wigner_bounds)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in wigner_bounds.__all__:
        module = importlib.import_module("wigner_bounds." + source[name])
        assert name in module.__all__, "%s.__all__ lacks %s" % (module.__name__, name)


def test_modules_import_only_lower_layers():
    """Each module imports only modules above it in the README module
    map; spectra, which computes eigenvalues and builds no
    wavefunction, only regions and specfun.  Of another module's
    private names it imports only SHARED_PRIVATE, so each file format
    and each rule has one home."""
    imports, private = {}, {}
    for module in MODULES:
        tree = ast.parse(inspect.getsource(importlib.import_module("wigner_bounds." + module)))
        nodes = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
        imports[module] = {node.module for node in nodes}
        private[module] = {alias.name for node in nodes for alias in node.names if alias.name.startswith("_")}
    for k, module in enumerate(MODULES):
        assert imports[module] <= set(MODULES[:k]), "%s imports %s" % (module, sorted(imports[module]))
        assert private[module] <= SHARED_PRIVATE, "%s imports %s" % (module, sorted(private[module] - SHARED_PRIVATE))
    assert imports["spectra"] == {"regions", "specfun"}


def test_module_map_names_exist():
    """Every backticked name in the contents column of the README module
    map is in the __all__ of the module named in that row."""
    rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", section("Module map"), re.M)
    assert [module for module, _ in rows] == MODULES
    for module, contents in rows:
        exported = importlib.import_module("wigner_bounds." + module).__all__
        missing = [n for n in re.findall(r"`([A-Za-z_]\w*)`", contents) if n not in exported]
        assert not missing, "README module map names %s, which %s does not export" % (missing, module)


def test_cli_samples_no_analytic_state():
    """wigner writes number and coherent states from their closed forms,
    so cli imports neither position-grid state builder; sampled states
    reach it only as csv: members.  No package module exports the
    builders, a coherent closed form beside the displaced vacuum
    (coherent_wigner), a mixture path beside cmd_wigner's (Ensemble,
    mixed_wigner), a Laguerre polynomial beside number_state_wigner's
    recurrence (laguerre_poly), or the grid checks only tests call,
    which tests/oracle.py holds."""
    tree = ast.parse(inspect.getsource(importlib.import_module("wigner_bounds.cli")))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "number_state_wigner" in names
    assert not names & {"oscillator_state", "coherent_state"}
    gone = {"oscillator_state", "coherent_state", "coherent_wigner", "Ensemble", "mixed_wigner",
            "laguerre_poly", "integral_identities", "pointwise_bound_report", "Identities", "BoundReport"}
    for module in [wigner_bounds] + [importlib.import_module("wigner_bounds." + m) for m in MODULES]:
        exported = set(module.__all__)
        assert not exported & gone, "%s exports %s" % (module.__name__, sorted(exported & gone))
