"""Documentation-site integrity (the stdlib half of the docs CI job).

``mkdocs build --strict`` runs in CI where mkdocs can be installed; this
module keeps the dependency-free invariants — nav completeness, link/anchor
integrity, docstring coverage of the public API surface — inside the tier-1
suite so documentation rot fails fast, locally.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "docs" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_docs", module)
    spec.loader.exec_module(module)
    return module


def test_docs_site_integrity():
    """Every nav page exists, no orphans, all relative links/anchors resolve."""
    checker = _load_checker()
    failures = checker.check_docs()
    assert not failures, "\n".join(failures)


def test_docs_nav_covers_required_pages():
    """The pages the satellite tasks promise are present in the nav."""
    checker = _load_checker()
    pages = set(checker.nav_pages())
    for required in ("index.md", "quickstart.md", "architecture.md",
                     "howto-rb-irb.md", "caching.md", "api.md"):
        assert required in pages, f"{required} missing from mkdocs nav"


def test_public_api_docstring_coverage():
    """Mirror of the blocking ruff D1 check (which CI runs with real ruff).

    Every public module/class/function/method under ``benchmarking/``,
    ``backend/``, ``session/``, ``store/``, ``service/`` and ``obs/`` (walked
    recursively) and in ``solvers/expm_utils.py`` must carry a docstring.
    Definitions nested inside a function are not public (as in pydocstyle).
    """
    packages = ("benchmarking", "backend", "session", "store", "service", "obs")
    targets = [
        path
        for package in packages
        for path in sorted((REPO_ROOT / "src/repro" / package).rglob("*.py"))
    ] + [REPO_ROOT / "src/repro/solvers/expm_utils.py"]
    assert targets, "target modules not found"
    missing: list[str] = []

    def walk(path: Path, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("_") and not ast.get_docstring(child):
                    missing.append(f"{path.relative_to(REPO_ROOT)}:{child.lineno} {child.name}")
                if isinstance(child, ast.ClassDef):
                    walk(path, child)

    for path in targets:
        tree = ast.parse(path.read_text())
        if not ast.get_docstring(tree):
            missing.append(f"{path.relative_to(REPO_ROOT)}: module docstring")
        walk(path, tree)
    assert not missing, "missing public docstrings:\n" + "\n".join(missing)
