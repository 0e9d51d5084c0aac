"""Every name a package module, test module or demo imports is used in that file."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "causalpairs"
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_modules_found():
    assert {"cli.py", "cnn.py", "nnet.py", "probs.py"} <= {p.name for p in MODULES}
    assert {"test_cli.py", "01_parse_and_rasterize.py"} <= {p.name for p in SCRIPTS}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=lambda p: p.relative_to(ROOT).with_suffix("").as_posix()
)
def test_no_unused_imports_in_tests_and_demos(script):
    assert unused_imports(script.read_text(encoding="utf-8")) == []


def test_detects_unused_names():
    source = "import io\nimport numpy as np\nfrom .probs import LABELS, check_probs\nnp.zeros(LABELS)\n"
    assert unused_imports(source) == ["check_probs", "io"]
