"""The public surface the lazy package tables serve (DESIGN.md §6).

Every package resolves its ``__all__`` through
:func:`repro._lazy.lazy_exports`; these tests hold that surface to what
eager imports gave: every name resolves to its defining module's object,
``import *`` works, the quickstart doctest runs, and the backend registry
answers without loading the multi-process backends.
"""

from __future__ import annotations

import doctest
import importlib
import types

import pytest

import repro
from repro.feast.backends import (
    BACKENDS,
    backend_names,
    make_backend,
    register_backend,
)
from repro.feast.backends.serial import SerialBackend

from tests.test_import_contract import run_fresh

PACKAGES = (
    "repro",
    "repro.core",
    "repro.graph",
    "repro.machine",
    "repro.sched",
    "repro.obs",
    "repro.feast",
    "repro.feast.backends",
    "repro.qa",
    "repro.serve",
)


#: Names served from modules that import numpy, an optional dependency
#: (``test_batch.py`` skips without it). Every other name must resolve
#: on a numpy-free interpreter.
NUMPY_BACKED = {
    "repro.core": (
        "DistributeRequest",
        "batch_distribute",
        "distribute_many",
        "fallback_reason",
    ),
}


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    assert len(package.__all__) == len(set(package.__all__))
    optional = NUMPY_BACKED.get(name, ())
    assert set(optional) <= set(package.__all__)
    for attr in package.__all__:
        assert attr in dir(package)
        if attr in optional:
            continue
        value = getattr(package, attr)
        assert not isinstance(value, types.ModuleType), attr


def test_numpy_backed_names_resolve():
    pytest.importorskip("numpy")
    from repro.core import batch

    core = importlib.import_module("repro.core")
    for attr in NUMPY_BACKED["repro.core"]:
        assert getattr(core, attr) is getattr(batch, attr)


def test_surface_without_numpy():
    """With numpy unimportable, only the numpy-backed names fail."""
    out = run_fresh("""
        import importlib, json, sys
        sys.modules["numpy"] = None  # import numpy -> ModuleNotFoundError
        failed = {}
        for name in sys.argv[1:]:
            package = importlib.import_module(name)
            for attr in package.__all__:
                try:
                    getattr(package, attr)
                except ImportError:
                    failed.setdefault(name, []).append(attr)
        exec("from repro import *", {})
        print(json.dumps(failed))
    """, *PACKAGES)
    assert out == {name: list(names) for name, names in NUMPY_BACKED.items()}


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        package.no_such_name  # noqa: B018


def test_lazy_names_are_their_defining_objects():
    from repro.core.slicer import ast
    from repro.sched.export import schedule_to_svg

    assert repro.ast is ast
    assert repro.sched.schedule_to_svg is schedule_to_svg


def test_star_import():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["__version__"] == repro.__version__


def test_quickstart_doctest():
    result = doctest.testmod(repro, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_backend_names_before_pool_or_shards_loads():
    out = run_fresh("""
        import json, sys
        from repro.feast import backend_names
        print(json.dumps({
            "names": backend_names(),
            "loaded": "repro.feast.backends.shards" in sys.modules,
        }))
    """)
    assert out == {"names": ["pool", "serial", "subprocess"], "loaded": False}
    assert backend_names() == ["pool", "serial", "subprocess"]


def test_register_backend_replaces_a_builtin():
    class Marked(SerialBackend):
        name = "pool"

    original = BACKENDS["pool"]
    try:
        register_backend("pool", Marked)
        assert isinstance(make_backend("pool"), Marked)
        assert backend_names() == ["pool", "serial", "subprocess"]
    finally:
        register_backend("pool", original)
    assert type(make_backend("pool")).__name__ == "SubprocessBackend"


def test_replaced_builtin_never_loads_its_module():
    out = run_fresh("""
        import json, sys
        from repro.feast import build_experiment, register_backend
        from repro.feast import run_experiment
        from repro.feast.backends.serial import SerialBackend
        register_backend("subprocess", SerialBackend)
        (config,) = build_experiment("figure5", n_graphs=1)
        result = run_experiment(config, backend="subprocess")
        print(json.dumps({
            "records": len(result.records) == config.n_trials,
            "loaded": "repro.feast.backends.shards" in sys.modules,
        }))
    """)
    assert out == {"records": True, "loaded": False}
