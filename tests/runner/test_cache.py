"""Tests for the content-hash keyed disk cache."""

import json

import pytest

from repro.runner import DiskCache, content_key


class TestContentKey:
    def test_stable_across_dict_ordering(self):
        assert content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})

    def test_distinguishes_payloads(self):
        assert content_key({"a": 1}) != content_key({"a": 2})
        assert content_key("x") != content_key(["x"])

    def test_is_hex_sha256(self):
        key = content_key("payload")
        assert len(key) == 64
        int(key, 16)


class TestDiskCache:
    def test_miss_returns_default(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        assert cache.get(content_key("absent")) is None
        assert cache.get(content_key("absent"), default=7) == 7
        assert cache.misses == 2
        assert cache.hits == 0

    def test_put_get_roundtrip(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = content_key({"job": 1})
        value = {"makespan": 123, "points": [[1, 10], [2, 5]]}
        cache.put(key, value)
        assert cache.get(key) == value
        assert cache.hits == 1
        assert key in cache
        assert len(cache) == 1

    def test_shared_directory_across_instances(self, tmp_path):
        key = content_key("shared")
        DiskCache(tmp_path / "c").put(key, [1, 2, 3])
        reader = DiskCache(tmp_path / "c")
        assert reader.get(key) == [1, 2, 3]

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        key = content_key("x")
        cache.put(key, {"ok": True})
        cache._path(key).write_text("{not json")
        assert cache.get(key) is None
        cache._path(key).write_bytes(b"\xff\xfe\x00garbage")
        assert cache.get(key) is None
        assert cache.misses == 2
        # overwriting repairs the entry
        cache.put(key, {"ok": True})
        assert cache.get(key) == {"ok": True}

    def test_stats(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        cache.get(content_key("a"))
        cache.put(content_key("b"), 1)
        cache.get(content_key("b"))
        assert cache.stats() == {"hits": 1, "misses": 1, "puts": 1,
                                 "corrupt": 0}

    def test_put_leaves_no_temp_files(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        for i in range(5):
            cache.put(content_key(f"k{i}"), {"i": i})
        leftovers = [
            p for p in (tmp_path / "c").rglob("*")
            if p.is_file() and p.suffix != ".json"
        ]
        assert leftovers == []

    def test_put_cleans_temp_on_failure(self, tmp_path):
        cache = DiskCache(tmp_path / "c")
        with pytest.raises(TypeError):
            cache.put(content_key("bad"), {"x": object()})
        leftovers = [
            p for p in (tmp_path / "c").rglob("*") if p.is_file()
        ]
        assert leftovers == []

    def test_concurrent_writers_leave_valid_json(self, tmp_path):
        """Threaded same-key writers can never tear an entry."""
        import threading

        cache = DiskCache(tmp_path / "c")
        key = content_key("contended")
        value = {"points": list(range(200))}
        threads = [
            threading.Thread(target=cache.put, args=(key, value))
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        raw = cache._path(key).read_text()
        assert json.loads(raw) == value
