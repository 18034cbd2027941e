"""The reachability gate: a module is used when a production root
imports it — by path, or by a name its package re-exports — and a
package ``__init__`` importing it is not a use."""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "check_reachability", REPO_ROOT / "tools" / "check_reachability.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root, files):
    """Write ``{relative path: source}`` under ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


PACKAGE = {
    "src/pkg/__init__.py": "from pkg.used import Used\nfrom pkg.hidden import Hidden\n",
    "src/pkg/used.py": "from pkg.helper import help\nclass Used: pass\n",
    "src/pkg/helper.py": "def help(): pass\n",
    "src/pkg/hidden.py": "class Hidden: pass\n",
    "src/pkg/orphan.py": "X = 1\n",
}


def test_an_orphan_and_a_module_only_its_package_re_exports_are_reported(tool, tmp_path):
    repo = tree(tmp_path, {**PACKAGE, "examples/demo.py": "from pkg import Used\n"})
    # `used` is reached through the re-exported name somebody imports,
    # `helper` through `used`; `hidden` is re-exported but never
    # imported, `orphan` not even that.
    assert tool.unreachable(repo) == ["pkg.hidden", "pkg.orphan"]


def test_tests_are_not_callers_but_scripts_are(tool, tmp_path):
    repo = tree(
        tmp_path,
        {
            **PACKAGE,
            "benchmarks/test_smoke.py": "from pkg.orphan import X\n",
            "tools/run.py": "def main():\n    from pkg import hidden\n",
            "pyproject.toml": '[project.scripts]\ncli = "pkg.used:main"\n\n[tool.x]\n',
        },
    )
    assert tool.unreachable(repo) == ["pkg.orphan"]
    assert tool.main(["check_reachability", str(repo)]) == 1


def test_the_real_tree_has_no_unreachable_module(tool, capsys):
    assert tool.main(["check_reachability"]) == 0
    assert "0 unreachable" in capsys.readouterr().out
