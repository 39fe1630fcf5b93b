import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
FENCED_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
KLWALK_IMPORT = re.compile(r"^from klwalk(?:\.\w+)* import (?:\([^)]*\)|[^\n]*)", re.M)


def readme_imports():
    blocks = FENCED_BLOCK.findall(README.read_text())
    return [stmt for block in blocks for stmt in KLWALK_IMPORT.findall(block)]


def test_readme_imports_name_live_api():
    # a README that names a deleted function fails here, not in a reader's shell
    statements = readme_imports()
    assert statements
    for stmt in statements:
        exec(stmt, {})
