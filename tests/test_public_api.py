"""Guards on the public API surface of the top-level ``repro`` package.

* ``repro.__all__`` stays alphabetically sorted, duplicate-free, and every
  name is actually importable;
* every name in it is imported from ``repro`` by an example, a
  ``benchmarks/e2e`` module or a ``*_pinned.py`` test, or sits in the
  allow-set below (kernels, typed errors, subpackages, the types the entry
  points take or return, ``__version__``) — adding a top-level name means
  editing that set here;
* the façade names are part of the contract;
* the module-docstring quickstart stays executable (the same docstring runs
  under ``pytest --doctest-modules src/repro/__init__.py`` in CI).
"""

from __future__ import annotations

import ast
import doctest
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Top-level names kept without a reader importing them: every kernel, every
#: typed error, the subpackages, the types an entry point takes or returns,
#: and the version.
ALLOWED_WITHOUT_READER = {
    # kernels
    "ExponentialKernel", "GaussianKernel", "HelmholtzKernel", "KernelFunction",
    "LaplaceKernel", "Matern32Kernel", "Matern52Kernel", "PairwiseKernel",
    "ScaledKernel", "SumKernel", "WhiteNoiseKernel",
    # typed errors
    "NotPositiveDefiniteError", "ResilienceError", "SolveDidNotConvergeError",
    # subpackages
    "backends", "observe", "persist", "resilience", "serve",
    # types an entry point takes or returns
    "ConstructionResult", "GaussianProcess", "H2Matrix", "HSSFactorization",
    "HealthThresholds", "KrylovResult", "RecoveryPolicy",
    "__version__",
}


def names_read_from_repro(path: Path) -> set:
    """Names ``path`` imports from ``repro`` (``from repro import X``) or
    reads off it (``import repro`` ... ``repro.X``)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "repro"}
        elif isinstance(node, ast.ImportFrom) and node.module == "repro" and not node.level:
            names |= {a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def reader_files() -> list:
    return sorted(
        list((ROOT / "examples").glob("*.py"))
        + list((ROOT / "benchmarks" / "e2e").glob("*.py"))
        + list((ROOT / "tests").glob("*_pinned.py"))
    )


class TestAllListing:
    def test_sorted(self):
        assert repro.__all__ == sorted(repro.__all__), (
            "repro.__all__ must stay alphabetically sorted"
        )

    def test_unique(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_name_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_facade_names_exported(self):
        for name in (
            "compress",
            "Session",
            "ExecutionPolicy",
            "backends",
        ):
            assert name in repro.__all__, name

    def test_protocol_is_gone(self):
        """H2Matrix is the one operator type: no structural protocol, no
        exported mixin."""
        import repro.api

        for name in ("HierarchicalOperator", "HierarchicalOperatorMixin", "PROTOCOL_METHODS"):
            for module in (repro, repro.api):
                assert not hasattr(module, name), (module.__name__, name)
                assert name not in module.__all__, (module.__name__, name)

    def test_diagnostics_is_gone(self):
        """The trace is the one record of timings: no second report layer.
        The GP sweep table stays a top-level name (examples read it)."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"{repro.__name__}.diagnostics")
        assert "gp_sweep_table" in repro.__all__
        assert repro.gp_sweep_table is repro.gp.gp_sweep_table

    def test_backend_registry_is_gone(self):
        """A backend is a name or an instance: nothing registers one."""
        import repro.backends
        import repro.batched.backend

        for name in ("register", "available"):
            assert not hasattr(repro.backends, name)
        for name in ("register_backend", "available_backends"):
            assert not hasattr(repro.batched.backend, name)
            assert not hasattr(repro.batched, name)

    def test_every_name_has_a_reader(self):
        """A top-level name is imported by an example, a benchmarks/e2e
        module or a pinned test, or it is in ALLOWED_WITHOUT_READER."""
        files = reader_files()
        assert len(files) > 10, files
        read = set().union(*(names_read_from_repro(path) for path in files))
        orphans = sorted(set(repro.__all__) - read - ALLOWED_WITHOUT_READER)
        assert orphans == [], f"top-level names nobody imports: {orphans}"
        assert ALLOWED_WITHOUT_READER <= set(repro.__all__)
        assert len(repro.__all__) <= 66

    def test_legacy_names_still_exported(self):
        assert "H2Constructor" in repro.__all__

    def test_baseline_formats_leave_the_top_level(self):
        """HODLR, H matrices and ACA live in repro.baselines; the top level
        keeps only the two names benchmarks/e2e still imports."""
        import repro.baselines

        for name in ("HMatrix", "HODLRMatrix", "build_hodlr", "build_hmatrix_aca",
                     "register_conversion", "available_conversions"):
            assert name not in repro.__all__, name
            assert not hasattr(repro, name), name
        assert repro.convert is repro.baselines.convert
        assert repro.HODLRFactorization is repro.baselines.HODLRFactorization

    def test_versions_agree(self):
        import pathlib
        import re

        pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
        declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M)
        assert declared is not None
        assert declared.group(1) == repro.__version__


class TestQuickstartDoctest:
    def test_module_docstring_runs(self):
        parser = doctest.DocTestParser()
        test = parser.get_doctest(
            repro.__doc__, {"repro": repro}, "repro.__doc__", None, 0
        )
        runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
        runner.run(test)
        assert runner.failures == 0, "the repro quickstart docstring must execute"
        # The quickstart must exercise the façade, not the legacy boilerplate.
        assert "repro.compress(" in repro.__doc__
        assert "Session(" in repro.__doc__


def _package_of(path: Path) -> list:
    """The dotted package of ``path``, a module of ``src/repro``, as parts."""
    parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    return parts[:-1]


def _import_source(node: ast.ImportFrom, package: list) -> str:
    """The absolute module of ``from <module> import ...`` in ``package``."""
    base = package[: len(package) - node.level + 1] if node.level else []
    return ".".join(base + ([node.module] if node.module else []))


def _defining_module(source: str, name: str) -> str | None:
    """The module of ``src/repro`` that ``from source import name`` reaches
    when ``source`` is a package: the submodule ``source.name``, or the module
    the package's ``__init__`` imports ``name`` from, followed through
    re-exports; ``None`` when ``source`` is not a package of ``src/repro``."""
    init = ROOT / "src" / Path(*source.split(".")) / "__init__.py"
    if not init.exists():
        return None
    sub = init.parent / name
    if sub.with_suffix(".py").exists() or (sub / "__init__.py").exists():
        return f"{source}.{name}"
    for node in ast.walk(ast.parse(init.read_text(), filename=str(init))):
        if not isinstance(node, ast.ImportFrom):
            continue
        for alias in node.names:
            if (alias.asname or alias.name) == name:
                origin = _import_source(node, _package_of(init))
                return _defining_module(origin, alias.name) or origin
    return None


def _imported_modules(path: Path) -> set:
    """Modules ``path`` (a module of ``src/repro``) imports at run time:
    ``from a import b`` counts as ``a``, ``a.b`` and, when ``a`` is a package,
    the module that defines ``b``; imports under ``if TYPE_CHECKING:`` are
    skipped."""
    package = _package_of(path)
    found = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.If):
            test = node.test
            name = test.id if isinstance(test, ast.Name) else getattr(test, "attr", None)
            if name == "TYPE_CHECKING":
                for child in node.orelse:
                    visit(child)
                return
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _import_source(node, package)
            found.add(source)
            for alias in node.names:
                found.add(f"{source}.{alias.name}")
                defining = _defining_module(source, alias.name)
                if defining is not None:
                    found.add(defining)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return found


class TestLayering:
    """The construction core, the solvers, the operator, the batched engine
    and the tracer sit below the façade: none imports ``repro.api`` (so no
    binding is built from the policy type below it), and the core does not
    import ``repro.persist``.  No layer below ``repro.serve`` imports a
    metrics registry."""

    #: Only ``repro.serve`` (and ``repro.observe`` itself) holds a metrics
    #: registry: every other layer keeps its counts on its own objects.
    REGISTRY = ("repro.observe.metrics", "repro.observe.openmetrics")
    FORBIDDEN = {
        "core": ("repro.api", "repro.persist") + REGISTRY,
        "solvers": ("repro.api",) + REGISTRY,
        "batched": ("repro.api",) + REGISTRY,
        "hmatrix": ("repro.api",),
        "observe": ("repro.api",),
        "persist": REGISTRY,
        "resilience": REGISTRY,
    }

    @pytest.mark.parametrize("layer", sorted(FORBIDDEN))
    def test_layer_imports_nothing_above_it(self, layer):
        modules = sorted((ROOT / "src" / "repro" / layer).rglob("*.py"))
        assert modules
        violations = [
            f"{path.relative_to(ROOT)}: {name}"
            for path in modules
            for name in sorted(_imported_modules(path))
            if any(name == top or name.startswith(top + ".")
                   for top in self.FORBIDDEN[layer])
        ]
        assert violations == []

    def test_walk_resolves_relative_imports(self):
        """The walk resolves ``from .x`` / ``from ..x`` imports and skips the
        typing-only ones."""
        facade = _imported_modules(ROOT / "src" / "repro" / "api" / "facade.py")
        assert {"repro.api.policy", "repro.core.builder"} <= facade
        ladder = _imported_modules(ROOT / "src" / "repro" / "solvers" / "ladder.py")
        assert "repro.solvers.krylov" in ladder
        assert not any(name.startswith("repro.api") for name in ladder)
        # ``from ..observe import MetricsRegistry`` reaches the defining module.
        assert _defining_module("repro.observe", "MetricsRegistry") == "repro.observe.metrics"
