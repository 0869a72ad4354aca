"""Public-API hygiene: exports resolve, are documented, and cohere."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.ddt",
    "repro.memory",
    "repro.net",
    "repro.apps",
    "repro.tools",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    module = importlib.import_module(package_name)
    assert hasattr(module, "__all__"), f"{package_name} has no __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_sorted_and_unique(package_name):
    module = importlib.import_module(package_name)
    names = list(module.__all__)
    assert len(names) == len(set(names)), f"{package_name}.__all__ has duplicates"


def _public_items():
    for package_name in PACKAGES:
        module = importlib.import_module(package_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                yield f"{package_name}.{name}", obj


@pytest.mark.parametrize("qualname,obj", list(_public_items()))
def test_public_items_documented(qualname, obj):
    assert obj.__doc__ and obj.__doc__.strip(), f"{qualname} lacks a docstring"


def test_every_module_has_docstring():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a module docstring"
        if hasattr(package, "__path__"):
            for info in pkgutil.walk_packages(package.__path__, package_name + "."):
                module = importlib.import_module(info.name)
                assert module.__doc__, f"{info.name} lacks a module docstring"


def test_public_classes_have_documented_public_methods():
    undocumented = []
    for qualname, obj in _public_items():
        if not inspect.isclass(obj):
            continue
        for name, member in inspect.getmembers(obj):
            if name.startswith("_") or not callable(member):
                continue
            if not inspect.isfunction(member) and not inspect.ismethod(member):
                continue
            if member.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited from elsewhere
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(f"{qualname}.{name}")
    assert not undocumented, f"undocumented public methods: {undocumented}"


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_doctests_in_key_modules():
    """Run the doctest examples embedded in docstrings."""
    import doctest

    for module_name in (
        "repro.memory.cacti",
        "repro.memory.pools",
        "repro.memory.profiler",
        "repro.ddt.base",
        "repro.ddt.chunked",
        "repro.ddt.records",
        "repro.ddt.registry",
        "repro.net.addresses",
        "repro.core.pareto",
        "repro.core.constraints",
    ):
        module = importlib.import_module(module_name)
        result = doctest.testmod(module)
        assert result.attempted > 0, f"no doctests in {module_name}"
        assert result.failed == 0, f"doctest failures in {module_name}"
