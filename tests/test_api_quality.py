"""Meta-tests on API quality: documentation coverage, exports, errors.

A downstream adopter's first contact is ``help()`` and tab completion;
these tests keep that surface complete as the package grows.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.compressors",
    "repro.simnet",
    "repro.comm",
    "repro.cluster",
    "repro.fanstore",
    "repro.selection",
    "repro.training",
    "repro.baselines",
    "repro.datasets",
    "repro.bench",
    "repro.util",
    "repro.obs",
]


def _all_modules():
    names = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.append(f"{pkg_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", _all_modules())
def test_every_module_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_dunder_all_entries_resolve(pkg_name):
    pkg = importlib.import_module(pkg_name)
    exported = getattr(pkg, "__all__", [])
    for name in exported:
        assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name}"


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_public_classes_and_functions_documented(pkg_name):
    pkg = importlib.import_module(pkg_name)
    undocumented = []
    for name in getattr(pkg, "__all__", []):
        obj = getattr(pkg, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(f"{pkg_name}.{name}")
    assert not undocumented, undocumented


def test_error_hierarchy_rooted_at_repro_error():
    from repro import errors

    exception_types = [
        obj
        for _, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception)
    ]
    assert len(exception_types) >= 10
    for exc_type in exception_types:
        assert issubclass(exc_type, errors.ReproError)


def test_os_compatible_errors_catchable_as_builtins():
    """Intercepted code catches builtin exception types; ours must
    subclass them where POSIX semantics demand it."""
    from repro import errors

    assert issubclass(errors.FileNotFoundInStoreError, FileNotFoundError)
    assert issubclass(errors.WriteViolationError, PermissionError)
    assert issubclass(errors.BadFileDescriptorError, OSError)
    assert issubclass(errors.UnknownCompressorError, KeyError)


def _os_error_types() -> list[type]:
    from repro import errors

    return sorted(
        (
            obj for obj in vars(errors).values()
            if inspect.isclass(obj) and issubclass(obj, OSError)
        ),
        key=lambda cls: cls.__name__,
    )


@pytest.mark.parametrize(
    "exc_type", _os_error_types(), ids=lambda cls: cls.__name__
)
def test_os_errors_print_their_detail_errno_and_path(exc_type):
    """``str()`` of a typed OSError-family error names the detail, the
    errno and the path; it used to print ``None`` for the detail. A
    path-less error prints no ``None`` for the path either."""
    params = list(inspect.signature(exc_type).parameters)
    detail, path = "what went wrong", "a/b"
    if params[0] == "detail":
        exc = exc_type(detail, path)
        assert exc.args[0] == detail
        bare = exc_type(detail)
        assert str(bare) == f"[Errno {bare.errno}] {detail}"
    elif "detail" in params:
        exc = exc_type(path, detail)
    else:
        exc, detail = exc_type(path), path
    assert isinstance(exc.errno, int) and exc.filename == path
    text = str(exc)
    assert text.startswith(f"[Errno {exc.errno}] ")
    assert detail in text and repr(path) in text
    assert "None" not in text


def test_version_is_consistent():
    from repro._version import __version__

    assert repro.__version__ == __version__
    parts = __version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_no_deprecation_shims_in_the_package():
    """Nothing outside this repo calls it, so nothing is ever deprecated
    here: an API that is superseded is deleted in the same change. A
    shim cannot come back silently."""
    offenders = [
        str(path)
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        if "DeprecationWarning" in path.read_text(encoding="utf-8")
    ]
    assert not offenders, offenders
