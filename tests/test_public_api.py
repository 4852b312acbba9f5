"""Public-API quality gates: exports exist, everything is documented."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.storage",
    "repro.hr",
    "repro.views",
    "repro.maintenance",
    "repro.engine",
    "repro.workload",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_exports_resolve(self, package_name):
        module = importlib.import_module(package_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package_name}.{name} missing"

    def test_module_docstring(self, package_name):
        module = importlib.import_module(package_name)
        assert module.__doc__ and module.__doc__.strip()


def _documented(func, owner: type | None = None, attr_name: str | None = None) -> bool:
    if func.__doc__ and func.__doc__.strip():
        return True
    if owner is not None and attr_name is not None:
        # An override inherits its contract's documentation.
        for base in owner.__mro__[1:]:
            base_attr = base.__dict__.get(attr_name)
            if base_attr is not None and getattr(base_attr, "__doc__", None):
                return True
    return False


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_items_documented(package_name):
    """Every exported class and function carries a docstring, and every
    public method of an exported class does too (a documented base-class
    contract counts for overrides)."""
    module = importlib.import_module(package_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        item = getattr(module, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(f"{package_name}.{name}")
        if inspect.isclass(item):
            for attr_name, attr in vars(item).items():
                if attr_name.startswith("_"):
                    continue
                if inspect.isfunction(attr) and not _documented(attr, item, attr_name):
                    undocumented.append(f"{package_name}.{name}.{attr_name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_version_exposed():
    import repro

    assert repro.__version__


def test_star_import_clean():
    namespace = {}
    exec("from repro import *", namespace)  # noqa: S102 - deliberate check
    assert "recommend" in namespace
    assert "Parameters" in namespace
