"""Tests for the on-disk entry store: key scheme, checksums, quarantine, gc."""

import pytest

from repro.runner.artifacts import ArtifactStore
from repro.runner.cache import (
    ResultCache,
    code_version,
    default_cache_dir,
    read_entry,
)
from repro.runner.journal import task_key


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


def test_round_trip(cache):
    cache.put("T1", {"days": 5.0}, 1, {"answer": 42})
    hit, value = cache.get("T1", {"days": 5.0}, 1)
    assert hit and value == {"answer": 42}
    assert cache.stats.hits == 1 and cache.stats.writes == 1


def test_miss_on_empty_cache(cache):
    hit, value = cache.get("T1", {"days": 5.0}, 1)
    assert not hit and value is None
    assert cache.stats.misses == 1


def test_key_depends_on_every_component(cache):
    base = task_key("T1", {"days": 5.0}, 1)
    assert task_key("T2", {"days": 5.0}, 1) != base
    assert task_key("T1", {"days": 6.0}, 1) != base
    assert task_key("T1", {"days": 5.0}, 2) != base
    # The code version is the directory: another version's entry lives apart.
    other_version = ResultCache(root=cache.root, version="deadbeef")
    cache.put("T1", {"days": 5.0}, 1, "value")
    other_version.put("T1", {"days": 5.0}, 1, "value")
    assert cache.current_entries() != other_version.current_entries()
    assert len(cache.entries()) == 2


def test_key_is_insensitive_to_dict_ordering():
    a = task_key("T1", {"days": 5.0, "seed": 3}, 1)
    b = task_key("T1", {"seed": 3, "days": 5.0}, 1)
    assert a == b


def test_key_distinguishes_tuple_knob_values():
    a = task_key("R1", {"seeds": (1, 2)}, 1)
    b = task_key("R1", {"seeds": (1, 3)}, 1)
    assert a != b


def test_corrupt_entry_is_a_miss_and_quarantined(cache):
    cache.put("T1", {}, 1, "value")
    (entry,) = cache.entries()
    entry.write_bytes(b"not a pickle")
    hit, value = cache.get("T1", {}, 1)
    assert not hit and value is None
    assert cache.entries() == []
    assert cache.stats.quarantined == 1
    # Forensics beat deletion: the damaged bytes are kept aside.
    (kept,) = cache.quarantined_entries()
    assert kept.read_bytes() == b"not a pickle"


def test_bitflip_fails_checksum_and_quarantines(cache):
    cache.put("T1", {}, 1, {"rows": [1, 2, 3]})
    (entry,) = cache.entries()
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0xFF  # single flipped bit-pattern in the payload
    entry.write_bytes(bytes(blob))
    hit, value = cache.get("T1", {}, 1)
    assert not hit and value is None
    assert cache.stats.quarantined == 1


def test_truncated_entry_is_quarantined_not_raised(cache):
    cache.put("T1", {}, 1, list(range(100)))
    (entry,) = cache.entries()
    entry.write_bytes(entry.read_bytes()[:20])  # torn write survivor
    hit, value = cache.get("T1", {}, 1)
    assert not hit and value is None
    assert cache.stats.quarantined == 1


def test_quarantined_entries_do_not_shadow_recomputes(cache):
    cache.put("T1", {}, 1, "good")
    (entry,) = cache.entries()
    entry.write_bytes(b"garbage")
    cache.get("T1", {}, 1)  # quarantines
    cache.put("T1", {}, 1, "recomputed")
    hit, value = cache.get("T1", {}, 1)
    assert hit and value == "recomputed"


def test_clear_removes_everything(cache):
    for seed in range(3):
        cache.put("T1", {}, seed, seed)
    assert len(cache.entries()) == 3
    assert cache.clear() == 3
    assert cache.entries() == []
    assert cache.size_bytes() == 0


def test_clear_removes_quarantined_entries_too(cache):
    cache.put("T1", {}, 1, "value")
    (entry,) = cache.entries()
    entry.write_bytes(b"junk")
    cache.get("T1", {}, 1)
    assert cache.clear() == 1
    assert cache.quarantined_entries() == []


def test_put_overwrites_atomically(cache):
    cache.put("T1", {}, 1, "old")
    cache.put("T1", {}, 1, "new")
    hit, value = cache.get("T1", {}, 1)
    assert hit and value == "new"
    # No leftover temp files from the write-and-rename protocol.
    assert [p for p in cache.root.rglob("*") if p.suffix == ".tmp"] == []


def test_entries_are_loadable_checksummed_blobs(cache):
    cache.put("T1", {"days": 1.0}, 7, {"rows": [1, 2, 3]})
    (entry,) = cache.entries()
    assert entry.read_bytes().startswith(b"RPC1")
    assert read_entry(entry) == {"rows": [1, 2, 3]}


def test_read_entry_rejects_foreign_files(tmp_path):
    foreign = tmp_path / "foreign.pkl"
    foreign.write_bytes(b"anything at all")
    with pytest.raises(ValueError, match="not a checksummed"):
        read_entry(foreign)


def test_code_version_is_stable_and_short():
    assert code_version() == code_version()
    assert len(code_version()) == 16


def test_default_cache_dir_honors_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
    assert default_cache_dir() == tmp_path / "custom"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == tmp_path / "xdg" / "repro"


def test_default_roots_share_the_cache_dir(tmp_path):
    assert ResultCache.under(tmp_path).root == tmp_path / "results"
    assert ArtifactStore.under(tmp_path).root == tmp_path / "artifacts"


def test_gc_prunes_only_stale_result_versions(cache):
    cache.put("T1", {}, 1, "current")
    stale = ResultCache(root=cache.root, version="0123456789abcdef")
    stale.put("T1", {}, 1, "stale")
    cache.quarantine_root.mkdir()
    (cache.quarantine_root / "damaged.pkl").write_bytes(b"x")

    assert cache.gc() == 1
    assert cache.entries() == cache.current_entries()
    assert len(cache.entries()) == 1
    assert not (cache.root / stale.version).exists()
    assert cache.get("T1", {}, 1) == (True, "current")
    assert len(cache.quarantined_entries()) == 1


@pytest.mark.parametrize("store_kind", ["results", "artifacts"])
def test_writes_fsync_the_entry_directory(tmp_path, monkeypatch, store_kind):
    import os
    import stat

    synced_dirs = []
    real_fsync = os.fsync

    def spy(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            synced_dirs.append(fd)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    if store_kind == "results":
        ResultCache(root=tmp_path).put("T1", {}, 1, "value")
    else:
        from repro.workloads.synthetic import CampaignArtifact, CampaignKey

        key = CampaignKey.make(days=1.0, seed=1)
        artifact = CampaignArtifact(
            key=key, records=[], job_truth={}, identity_truth={},
            active_identities=frozenset(), community_accounts=frozenset(),
            total_nu=0.0, transfers=(),
        )
        ArtifactStore(root=tmp_path).save(key, artifact)
    assert synced_dirs
