"""The seams the paper-reproduction benchmark's time ledger wraps.

``paperbench/ledger.py`` times each layer from outside: it replaces the
functions and methods named in its layer tables, ``ProcessPoolBackend._unpack``
and the module global ``backends.run_chunk``. These tests pin that every one
of those seams still exists where the ledger looks for it, so a refactor of
``src/`` cannot silently break the benchmark. They only read ``paperbench/``.
"""

from __future__ import annotations

import importlib
import importlib.util
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.harness import backends

from .conftest import small_config

LEDGER_PATH = Path(__file__).resolve().parents[1] / "paperbench" / "ledger.py"


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("paperbench_ledger", LEDGER_PATH)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(layers: dict) -> list[tuple[str, str | None, str]]:
    targets = []
    for entry in layers.values():
        targets.extend(entry if isinstance(entry, list) else [entry])
    return targets


def test_every_wrapped_layer_resolves(ledger):
    targets = _targets(ledger.POINT_LAYERS) + _targets(ledger.CAMPAIGN_LAYERS)
    assert targets
    for module_name, owner, attr in targets:
        module = importlib.import_module(module_name)
        holder = module if owner is None else getattr(module, owner)
        assert attr in vars(holder), f"{module_name}.{owner or ''}.{attr} is gone"


def test_pool_backend_defines_unpack():
    assert "_unpack" in vars(backends.ProcessPoolBackend)


def test_pool_submits_the_current_run_chunk(monkeypatch):
    """The pool must look ``backends.run_chunk`` up at submit time, so a
    replacement installed after import is the one the workers run."""
    calls = []
    marker = object()

    def recorder(configs, policy):
        calls.append(len(configs))
        return [(marker, None) for _ in configs]

    backend = backends.ProcessPoolBackend(2, chunksize=1)
    monkeypatch.setattr(backend, "_spawn", lambda: ThreadPoolExecutor(max_workers=2))
    monkeypatch.setattr(backends, "run_chunk", recorder)
    configs = [small_config(seed=seed) for seed in (1, 2, 3)]
    results, report = backend.run(configs)
    assert calls == [1, 1, 1]
    assert results == [marker] * 3
    assert not report.failures
