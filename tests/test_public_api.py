"""Public API hygiene: exports exist, are documented, and stay stable."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.axes",
    "repro.core",
    "repro.durability",
    "repro.encoding",
    "repro.labels",
    "repro.schemes",
    "repro.store",
    "repro.strategies",
    "repro.ulang",
    "repro.updates",
    "repro.xmlmodel",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip()


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert getattr(module, name, None) is not None, (
            f"{module_name}.{name} is exported but missing"
        )


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_are_documented(module_name):
    """Every class and function named in __all__ carries a docstring."""
    module = importlib.import_module(module_name)
    undocumented = []
    for name in getattr(module, "__all__", []):
        member = getattr(module, name)
        if inspect.isclass(member) or inspect.isfunction(member):
            if not (member.__doc__ and member.__doc__.strip()):
                undocumented.append(name)
    assert undocumented == []


def test_top_level_quickstart_names():
    import repro

    for name in (
        "parse", "serialize", "make_scheme", "LabeledDocument",
        "XMLRepository", "VersionedDocument", "figure7_schemes",
        "suggest_scheme",
    ):
        assert name in repro.__all__


def test_every_scheme_class_is_documented():
    from repro.schemes.registry import available_schemes, scheme_class

    for name in available_schemes():
        cls = scheme_class(name)
        assert cls.__doc__ and cls.__doc__.strip(), name
        assert cls.metadata.display_name
        assert cls.metadata.reference


def test_scheme_public_methods_documented():
    from repro.schemes.base import LabelingScheme

    for name, member in inspect.getmembers(
        LabelingScheme, predicate=inspect.isfunction
    ):
        if name.startswith("_"):
            continue
        assert member.__doc__ and member.__doc__.strip(), name


def _toml_table(text, name):
    """The body of ``[name]`` in a TOML document, up to the next table."""
    body = text.split(f"\n[{name}]\n", 1)[1]
    return re.split(r"^\[", body, maxsplit=1, flags=re.M)[0]


def test_installed_version_is_the_package_version():
    """pyproject.toml declares the version ``repro.__version__`` reports.

    Read without ``tomllib``, which Python 3.10 lacks.
    """
    import repro

    text = "\n" + (Path(__file__).resolve().parents[1]
                   / "pyproject.toml").read_text(encoding="utf-8")
    project = _toml_table(text, "project")
    static = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    if static:
        declared = static.group(1)
    else:
        assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', project, re.M)
        attr = re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"([\w.]+)"\s*\}',
                         _toml_table(text, "tool.setuptools.dynamic"),
                         re.M).group(1)
        module_name, name = attr.rsplit(".", 1)
        declared = getattr(importlib.import_module(module_name), name)
    assert declared == repro.__version__
