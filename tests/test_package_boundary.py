"""The product does not import the comparators.

``repro.baselines`` holds the paper's comparator algorithms and formats
(top-down peeling, sketched H matrices, HODLR, ACA).  Every module of
``src/repro`` outside that package is a product module; none of them may
import it.  The one exception is ``repro/__init__.py``, which re-exports
exactly ``convert`` and ``HODLRFactorization`` for the end-to-end benchmark.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
BASELINES = "repro.baselines"
TOP_LEVEL_REEXPORTS = {"convert", "HODLRFactorization"}


def _module_name(path: Path, root: Path = PACKAGE) -> str:
    parts = path.relative_to(root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_baselines(name: str) -> bool:
    return name == BASELINES or name.startswith(BASELINES + ".")


def baseline_imports(path: Path, root: Path = PACKAGE):
    """``(line, imported module, names)`` of every import in ``path`` (a
    module of the package at ``root``) that resolves to ``repro.baselines``
    or one of its modules."""
    module = _module_name(path, root)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_baselines(alias.name):
                    found.append((node.lineno, alias.name, set()))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module or ""
            names = {alias.name for alias in node.names}
            if _is_baselines(source):
                found.append((node.lineno, source, names))
            else:
                for name in names:
                    if _is_baselines(f"{source}.{name}"):
                        found.append((node.lineno, f"{source}.{name}", set()))
    return found


def product_modules():
    return sorted(
        path for path in PACKAGE.rglob("*.py")
        if "baselines" not in path.relative_to(PACKAGE).parts
    )


def test_walk_sees_the_product():
    names = {_module_name(path) for path in product_modules()}
    assert {"repro", "repro.solvers.hss_factor", "repro.persist.serializers"} <= names
    assert not any(_is_baselines(name) for name in names)
    # The non-nested formats, ACA and the conversion registry left the product.
    assert not names & {
        "repro.api.conversion",
        "repro.hmatrix.aca",
        "repro.hmatrix.hmatrix",
        "repro.hmatrix.hodlr",
        "repro.solvers.hodlr_factor",
    }


@pytest.mark.parametrize(
    "path", product_modules(), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_product_module_does_not_import_baselines(path):
    found = baseline_imports(path)
    if path == PACKAGE / "__init__.py":
        # Exactly the re-exports benchmarks/e2e imports (ROADMAP item 1(a)).
        assert [(source, names) for _, source, names in found] == [
            (BASELINES, TOP_LEVEL_REEXPORTS)
        ]
    else:
        assert found == []


def test_resolver_catches_every_spelling(tmp_path):
    """Absolute, relative and submodule-as-name imports all resolve."""
    fake = tmp_path / "repro"
    (fake / "solvers").mkdir(parents=True)
    module = fake / "solvers" / "probe.py"
    module.write_text(
        "import repro.baselines.hodlr\n"
        "from ..baselines import convert\n"
        "from .. import baselines\n"
        "from ..baselines.aca import aca_low_rank\n"
        "from ..hmatrix import H2Matrix\n"
    )
    assert [line for line, _, _ in baseline_imports(module, fake)] == [1, 2, 3, 4]
