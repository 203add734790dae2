"""Guards on the public API surface of the top-level ``repro`` package.

* ``repro.__all__`` stays alphabetically sorted, duplicate-free, and every
  name is actually importable;
* the façade names are part of the contract;
* the module-docstring quickstart stays executable (the same docstring runs
  under ``pytest --doctest-modules src/repro/__init__.py`` in CI).
"""

from __future__ import annotations

import doctest

import repro


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
            "HierarchicalOperator",
            "HierarchicalOperatorMixin",
            "backends",
        ):
            assert name in repro.__all__, name

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
