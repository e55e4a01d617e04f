"""BENCH export: entry schemas and the keyed append/merge contract."""

import json

import pytest

from repro.obs.export import (
    ExportSchemaError, append_bench, bench_entry, funnel_counts, git_sha,
    load_bench, validate_bench_entry, validate_gdo_entry,
)


def _gdo_entry(key="abc123", circuit="C880"):
    return {
        "key": key, "circuit": circuit,
        "delay_before": 10.0, "delay_after": 8.5,
        "area_before": 100.0, "area_after": 99.0,
        "mods": 12, "rounds": 2, "seconds": 3.25,
        "phase_seconds": {"delay": 2.0, "area": 1.25},
        "hot_spans": [{"name": "gdo.prove", "count": 40, "wall_s": 1.5}],
        "broker": {"dispatched": 40, "cache_hits": 5,
                   "cache_misses": 35, "hit_rate": 0.125,
                   "sim_invalid": 20},
        "funnel": {"generated": 200, "static_proved": 3,
                   "static_refuted": 1, "to_bpfs": 196,
                   "bpfs_survived": 60, "proved": 40, "committed": 12},
    }


def test_git_sha_never_fails(tmp_path):
    # Outside any checkout it must still return a usable key.
    assert isinstance(git_sha(str(tmp_path)), str)
    assert git_sha(str(tmp_path))


def test_bench_entry_requires_key():
    entry = bench_entry(key="deadbeef", circuit="C432", seconds=1.0)
    validate_bench_entry(entry)
    with pytest.raises(ExportSchemaError):
        validate_bench_entry({"circuit": "C432"})
    with pytest.raises(ExportSchemaError):
        validate_bench_entry({"key": ""})


def test_gdo_entry_schema_enforced():
    validate_gdo_entry(_gdo_entry())
    for missing in ("circuit", "broker", "funnel", "hot_spans"):
        bad = _gdo_entry()
        del bad[missing]
        with pytest.raises(ExportSchemaError):
            validate_gdo_entry(bad)
    bad = _gdo_entry()
    bad["broker"].pop("sim_invalid")
    with pytest.raises(ExportSchemaError, match="sim_invalid"):
        validate_gdo_entry(bad)
    bad = _gdo_entry()
    bad["funnel"].pop("proved")
    with pytest.raises(ExportSchemaError):
        validate_gdo_entry(bad)
    bad = _gdo_entry()
    bad["hot_spans"] = [{"count": 1}]
    with pytest.raises(ExportSchemaError, match="hot span"):
        validate_gdo_entry(bad)
    bad = _gdo_entry()
    bad["mods"] = "twelve"
    with pytest.raises(ExportSchemaError, match="mods"):
        validate_gdo_entry(bad)


def test_append_bench_appends_and_merges(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    append_bench(path, bench_entry(key="sha1", circuit="C432", seconds=1.0))
    append_bench(path, bench_entry(key="sha1", circuit="C880", seconds=2.0))
    append_bench(path, bench_entry(key="sha2", circuit="C432", seconds=3.0))
    assert len(load_bench(path)) == 3

    # Same (key, circuit) replaces its previous entry in place.
    append_bench(path, bench_entry(key="sha1", circuit="C432", seconds=9.0))
    entries = load_bench(path)
    assert len(entries) == 3
    by_key = {(e["key"], e["circuit"]): e for e in entries}
    assert by_key[("sha1", "C432")]["seconds"] == 9.0
    assert by_key[("sha1", "C880")]["seconds"] == 2.0

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data) == {"entries"}


def test_load_bench_tolerates_absent_and_corrupt_files(tmp_path):
    assert load_bench(str(tmp_path / "missing.json")) == []
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert load_bench(str(bad)) == []
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps([{"key": "a"}, "junk"]))
    assert load_bench(str(bare)) == [{"key": "a"}]


def test_funnel_counts_none_snapshot_is_zeros():
    assert funnel_counts(None) == {
        "generated": 0, "static_proved": 0, "static_refuted": 0,
        "to_bpfs": 0, "bpfs_survived": 0, "proved": 0, "committed": 0,
    }
