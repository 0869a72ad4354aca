"""Tests of the persistent trace store and its binary format."""

import dataclasses
import os
import pickle
import shutil

import pytest

from repro.core.engine import EnvSpec
from repro.core.simulate import SimulationEnvironment
from repro.net.config import NetworkConfig
from repro.net.profiles import PROFILES, profile
from repro.net import tracestore as tracestore_module
from repro.net.tracegen import default_trace_store, generate_all_traces, generate_trace
from repro.net.tracestore import (
    TraceStore,
    TraceStoreError,
    profile_fingerprint,
    read_trace_binary,
    write_trace_binary,
)

SMALL = "Whittemore"


class TestBinaryFormat:
    def test_round_trip_bit_identical(self, tmp_path):
        prof = profile(SMALL)
        trace = generate_trace(prof)
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path, profile_fingerprint(prof))
        loaded, fp = read_trace_binary(path)
        assert fp == profile_fingerprint(prof)
        assert loaded == trace  # dataclass equality covers every packet field

    def test_round_trip_preserves_urls_and_flags(self, tmp_path):
        trace = generate_trace(profile("Collis"))  # highest HTTP fraction
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path, "fp")
        loaded, _ = read_trace_binary(path)
        urls = [p.url for p in trace.packets]
        assert any(u is not None for u in urls)
        assert [p.url for p in loaded.packets] == urls
        assert [p.flags for p in loaded.packets] == [p.flags for p in trace.packets]
        assert [p.timestamp for p in loaded.packets] == [
            p.timestamp for p in trace.packets
        ]

    def test_not_a_store_file(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"hello world")
        with pytest.raises(TraceStoreError, match="not a ddt-tracestore"):
            read_trace_binary(path)

    def test_truncated_body_rejected(self, tmp_path):
        trace = generate_trace(profile(SMALL))
        path = tmp_path / "t.bin"
        write_trace_binary(trace, path, "fp")
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(TraceStoreError, match="expected"):
            read_trace_binary(path)


class TestProfileFingerprint:
    def test_stable(self):
        assert profile_fingerprint(profile(SMALL)) == profile_fingerprint(
            profile(SMALL)
        )

    def test_any_parameter_changes_it(self):
        prof = profile(SMALL)
        base = profile_fingerprint(prof)
        assert profile_fingerprint(dataclasses.replace(prof, seed=99)) != base
        assert profile_fingerprint(dataclasses.replace(prof, packets=100)) != base
        assert (
            profile_fingerprint(dataclasses.replace(prof, http_fraction=0.1)) != base
        )


class TestTraceStore:
    def test_generate_once_then_memo(self, tmp_path):
        store = TraceStore(tmp_path)
        first = store.get(SMALL)
        second = store.get(SMALL)
        assert first is second
        assert store.counters() == {
            "generations": 1,
            "disk_loads": 0,
            "memo_hits": 1,
        }

    def test_fresh_instance_loads_from_disk(self, tmp_path):
        TraceStore(tmp_path).get(SMALL)
        warm = TraceStore(tmp_path)
        trace = warm.get(SMALL)
        assert warm.generations == 0
        assert warm.disk_loads == 1
        assert trace == generate_trace(profile(SMALL))

    def test_corrupt_file_regenerated(self, tmp_path):
        store = TraceStore(tmp_path)
        store.get(SMALL)
        path = store.path_for(SMALL)
        with open(path, "wb") as handle:
            handle.write(b"garbage")
        recovering = TraceStore(tmp_path)
        trace = recovering.get(SMALL)
        assert recovering.generations == 1
        assert trace == generate_trace(profile(SMALL))
        # and the good bytes were written back
        assert TraceStore(tmp_path).get(SMALL) == trace

    def test_stale_fingerprint_invisible(self, tmp_path):
        # A file whose *content* fingerprint disagrees with the live
        # profile must be ignored, even if it sits at the right path.
        store = TraceStore(tmp_path)
        trace = generate_trace(profile(SMALL))
        write_trace_binary(trace, store.path_for(SMALL), "0" * 16)
        assert store.get(SMALL) == trace
        assert store.generations == 1  # regenerated, not trusted

    def test_generator_source_keys_the_file(self, tmp_path, monkeypatch):
        """File names cover the generator's source too: after an edit to
        ``net/tracegen.py`` (a comment will do) the store names another
        file and regenerates instead of loading what the old code
        wrote; an edit outside ``repro.net`` names the same file."""
        directory = tmp_path / "store"
        TraceStore(directory).get(SMALL)
        written = TraceStore(directory).path_for(SMALL)
        package = tracestore_module.TRACE_SOURCE_ROOT

        def edited_store(name, edit):
            copy = tmp_path / name
            shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
            with open(copy / edit, "a", encoding="utf-8") as handle:
                handle.write("# edited\n")
            monkeypatch.setattr(tracestore_module, "TRACE_SOURCE_ROOT", str(copy))
            return TraceStore(directory)

        engine_edit = edited_store("engine", "core/engine.py")
        assert engine_edit.path_for(SMALL) == written
        engine_edit.get(SMALL)
        assert (engine_edit.disk_loads, engine_edit.generations) == (1, 0)
        generator_edit = edited_store("generator", "net/tracegen.py")
        assert generator_edit.path_for(SMALL) != written
        generator_edit.get(SMALL)
        assert (generator_edit.disk_loads, generator_edit.generations) == (0, 1)

    def test_memory_only_store_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = TraceStore(directory=None)
        store.get(SMALL)
        store.get(SMALL)
        assert store.path_for(SMALL) is None
        assert store.generations == 1 and store.memo_hits == 1
        assert list(tmp_path.iterdir()) == []

    def test_ensure_prewarns_disk(self, tmp_path):
        store = TraceStore(tmp_path)
        generated = store.ensure([SMALL, "Sudikoff", SMALL])
        assert generated == 2
        assert store.ensure([SMALL, "Sudikoff"]) == 0
        warm = TraceStore(tmp_path)
        warm.get(SMALL)
        warm.get("Sudikoff")
        assert warm.generations == 0 and warm.disk_loads == 2

    def test_ensure_leaves_existing_files_unread(self, tmp_path):
        """Only a missing file costs anything: an existing one is neither
        parsed nor memoised (whoever simulates loads it)."""
        TraceStore(tmp_path).ensure([SMALL])
        store = TraceStore(tmp_path)
        assert store.ensure([SMALL, "Sudikoff"]) == 1
        assert store.counters() == {"generations": 1, "disk_loads": 0, "memo_hits": 0}
        assert len(store) == 1  # the generated trace, not the existing one

    def test_len_counts_memoised_traces(self, tmp_path):
        store = TraceStore(tmp_path)
        assert len(store) == 0
        store.get(SMALL)
        assert len(store) == 1

    def test_unknown_trace_name(self, tmp_path):
        with pytest.raises(KeyError, match="unknown trace"):
            TraceStore(tmp_path).get("NOPE")


class TestGenerateAllTracesRouting:
    def test_repeated_calls_share_one_generation(self):
        first = generate_all_traces()
        second = generate_all_traces()
        assert set(first) == {p.name for p in PROFILES}
        for name in first:
            assert first[name] is second[name]  # memoised, not regenerated

    def test_default_store_is_memory_only(self):
        store = default_trace_store()
        assert store.directory is None
        assert default_trace_store() is store


class TestEnvironmentIntegration:
    def test_env_sources_traces_from_store(self, tmp_path):
        store = TraceStore(tmp_path)
        env = SimulationEnvironment(trace_store=store)
        trace = env.trace_for(NetworkConfig(SMALL))
        assert store.generations == 1
        assert trace == generate_trace(profile(SMALL))
        # the env's own cache keeps the store out of the hot path
        env.trace_for(NetworkConfig(SMALL))
        assert store.memo_hits == 0

    def test_envspec_carries_store_path(self, tmp_path):
        store = TraceStore(tmp_path)
        env = SimulationEnvironment(trace_store=store)
        spec = EnvSpec.from_env(env)
        assert spec.trace_store == os.fspath(tmp_path)
        clone = pickle.loads(pickle.dumps(spec))
        rebuilt = clone.build()
        assert rebuilt.trace_store is not None
        assert rebuilt.trace_store.directory == os.fspath(tmp_path)

    def test_envspec_without_store(self):
        spec = EnvSpec.from_env(SimulationEnvironment())
        assert spec.trace_store is None
        assert spec.build().trace_store is None

    def test_worker_hydration_is_load_not_generation(self, tmp_path):
        TraceStore(tmp_path).get(SMALL)  # pre-warm disk
        spec = EnvSpec(
            cacti=SimulationEnvironment().cacti,
            costs=SimulationEnvironment().costs,
            trace_store=os.fspath(tmp_path),
        )
        worker_env = spec.build()  # what every worker process does
        worker_env.trace_for(NetworkConfig(SMALL))
        assert worker_env.trace_store.generations == 0
        assert worker_env.trace_store.disk_loads == 1
