"""Documentation-coverage guard: every public item carries a docstring."""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name for _finder, name, _pkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
    if not name.endswith("__main__")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_api_documented(module_name):
    """Everything exported via ``__all__`` must have a docstring."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    undocumented = []
    for name in exported:
        obj = getattr(module, name)
        if inspect.ismodule(obj):
            continue
        if isinstance(obj, (int, float, str, dict, tuple, frozenset, list)):
            continue  # constants documented in the module docstring
        if not inspect.getdoc(obj):
            undocumented.append(name)
    assert not undocumented, \
        f"{module_name} exports undocumented items: {undocumented}"


@pytest.mark.parametrize("module_name", [
    "repro.core", "repro.models", "repro.geometry", "repro.datasets",
    "repro.nn", "repro.nn.tape", "repro.mwis", "repro.crowd",
    "repro.social", "repro.study",
    "repro.bench", "repro.training", "repro.training.engine",
    "repro.obs",
    "repro.serving", "repro.serving.session", "repro.serving.engine",
    "repro.serving.replay", "repro.serving.workload",
])
def test_public_methods_documented(module_name):
    """Public methods of exported classes must have docstrings."""
    module = importlib.import_module(module_name)
    missing = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if not inspect.isclass(obj):
            continue
        for method_name, method in inspect.getmembers(obj):
            if method_name.startswith("_"):
                continue
            if not (inspect.isfunction(method) or isinstance(
                    getattr(obj, method_name, None), property)):
                continue
            target = method.fget if isinstance(method, property) else method
            if not inspect.getdoc(target):
                missing.append(f"{name}.{method_name}")
    assert not missing, f"{module_name}: undocumented methods {missing}"
