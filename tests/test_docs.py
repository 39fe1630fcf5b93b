import importlib
import pkgutil
import re
from pathlib import Path

import klwalk
from klwalk import ExperimentSpec
from klwalk.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
KLWALK_IMPORT = re.compile(r"^from klwalk(?:\.\w+)* import (?:\([^)]*\)|[^\n]*)", re.M)
PROSE_NAME = re.compile(r"`(\w+)\.(\w+)")


def readme_imports():
    blocks = FENCED_BLOCK.findall(README.read_text())
    return [stmt for block in blocks for stmt in KLWALK_IMPORT.findall(block)]


def test_readme_imports_name_live_api():
    # a README that names a deleted function fails here, not in a reader's shell
    statements = readme_imports()
    assert statements
    for stmt in statements:
        exec(stmt, {})


def test_readme_prose_names_live_module_attributes():
    # a backticked `module.name` in prose, for a klwalk submodule, must resolve
    prose = FENCED_BLOCK.sub("", README.read_text())
    submodules = {info.name for info in pkgutil.iter_modules(klwalk.__path__)}
    names = [(mod, name) for mod, name in PROSE_NAME.findall(prose) if mod in submodules]
    assert names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(f"klwalk.{mod}"), name)]
    assert not missing


def test_readme_config_block_is_the_default_experiment(tmp_path):
    # README's "Fields and defaults" block, its `//` comments stripped,
    # must load as the stock experiment written to "out"
    block = re.search(r"^```json\n(.*?)^```", README.read_text(), re.S | re.M).group(1)
    config = tmp_path / "config.json"
    config.write_text(re.sub(r"\s*//[^\n]*", "", block))
    assert load_config(str(config), environ={}) == (ExperimentSpec(), "out")
