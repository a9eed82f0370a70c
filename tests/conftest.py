"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import re

import pytest

from repro.cluster import uniform_cluster
from repro.runtime import SpmdRuntime

#: builtin pytest marks that may legitimately appear in a -m expression
_BUILTIN_MARKS = {
    "parametrize", "skip", "skipif", "xfail", "usefixtures", "filterwarnings",
}

_MARK_EXPR_KEYWORDS = {"and", "or", "not", "True", "False", "None"}


def pytest_addoption(parser):
    parser.addoption(
        "--fault-seed",
        action="store",
        type=int,
        default=0,
        help="seed for the deterministic fault-injection (chaos) tests",
    )


def pytest_configure(config):
    """Fail fast on ``-m`` expressions naming unregistered markers.

    ``--strict-markers`` only protects the *declaration* side
    (``@pytest.mark.typo`` errors at collection); a typo on the *selection*
    side (``pytest -m chaso``) would still silently deselect everything and
    report success.  Validate every identifier in the expression against the
    registered marker list so a CI lane cannot go green by matching nothing.
    """
    expr = config.getoption("markexpr", "")
    if not expr:
        return
    registered = {
        line.split(":", 1)[0].split("(", 1)[0].strip()
        for line in config.getini("markers")
    }
    allowed = registered | _BUILTIN_MARKS | _MARK_EXPR_KEYWORDS
    idents = set(re.findall(r"[A-Za-z_]\w*", expr))
    unknown = sorted(idents - allowed)
    if unknown:
        raise pytest.UsageError(
            f"-m expression {expr!r} references unregistered marker(s) "
            f"{unknown}; registered: {sorted(registered)}"
        )


def pytest_collection_modifyitems(config, items):
    """``slow`` cases run only when the ``-m`` expression names ``slow``."""
    if "slow" in re.findall(r"[A-Za-z_]\w*", config.getoption("markexpr", "")):
        return
    skip = pytest.mark.skip(reason="slow lane: run with -m slow")
    for item in items:
        if item.get_closest_marker("slow"):
            item.add_marker(skip)


@pytest.fixture
def fault_seed(request):
    return request.config.getoption("--fault-seed")


@pytest.fixture
def cluster4():
    return uniform_cluster(4)


@pytest.fixture
def rt4(cluster4):
    return SpmdRuntime(cluster4)


def run_spmd(world_size: int, fn, *args, materialize: bool = True, **kwargs):
    """One-shot SPMD run on a fresh uniform cluster; returns per-rank results."""
    rt = SpmdRuntime(uniform_cluster(world_size))
    return rt.run(fn, *args, materialize=materialize, **kwargs)


def set_default_device(device) -> None:
    """Bind the device a tensor built outside an SPMD run lands on (``None``
    restores the lazily built host device), so a test can assert accounting
    against a small pool."""
    import repro.tensor.tensor as tensor_module

    with tensor_module._fallback_lock:
        tensor_module._fallback_device = device
