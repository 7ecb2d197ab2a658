import hashlib
import json
import os

import pytest

from spindle import cache, cli


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINDLE_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_disabled_without_env(monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    key = cache.cache_key("dynkin", "A", 2, (1, 1))
    cache.store(key, {"x": 1})
    assert cache.load(key) is None


def test_round_trip(cache_env):
    key = cache.cache_key("dynkin", "G", 2, (1, 0))
    assert cache.load(key) is None
    cache.store(key, {"coefficients": ["1", "2"], "variable": "q"})
    assert cache.load(key) == {"coefficients": ["1", "2"], "variable": "q"}


def test_key_depends_on_inputs():
    base = cache.cache_key("dynkin", "A", 2, (1, 1))
    assert cache.cache_key("dynkin", "A", 2, (1, 2)) != base
    assert cache.cache_key("dynkin", "A", 3, (1, 1)) != base
    assert cache.cache_key("dynkin", "B", 2, (1, 1)) != base
    assert cache.cache_key("character", "A", 2, (1, 1)) != base
    assert cache.cache_key("dynkin", "A", 2, (1, 1), extra="weyl") != base
    assert cache.cache_key("dynkin", "A", 2, (1, 1)) == base


def test_key_depends_on_schema_version(monkeypatch):
    before = cache.cache_key("dynkin", "A", 2, (1, 1))
    monkeypatch.setattr(cache, "SCHEMA_VERSION", cache.SCHEMA_VERSION + 1)
    assert cache.cache_key("dynkin", "A", 2, (1, 1)) != before


def test_double_store_idempotent(cache_env):
    key = cache.cache_key("dynkin", "A", 1, (2,))
    cache.store(key, [1, 2, 3])
    cache.store(key, [1, 2, 3])
    assert cache.load(key) == [1, 2, 3]
    # no leftover temp files
    assert all(not f.endswith(".tmp") for f in os.listdir(cache_env))


def test_corrupt_entry_recovers(cache_env, capsys):
    key = cache.cache_key("dynkin", "A", 1, (3,))
    cache.store(key, {"v": 1})
    (path,) = cache_env.iterdir()
    for bad in ("{ not json", json.dumps({"v": 1})):  # a bare value too
        path.write_text(bad)
        assert cache.load(key) is None
        err = capsys.readouterr().err
        assert "corrupt cache entry" in err and err.count("\n") == 1
        assert not path.exists()
        # the cached() wrapper recomputes and repopulates
        value = cache.cached("dynkin", "A", 1, (3,), lambda: {"v": 1})
        assert value == {"v": 1}
        assert json.loads(path.read_text()) == {"key": key, "value": {"v": 1}}


def test_keys_that_share_a_file_each_get_their_own_value(
        cache_env, capsys, monkeypatch):
    monkeypatch.setattr(cache, "_digest", lambda key: "same")
    calls = []

    def compute(value):
        calls.append(value)
        return value

    for weight, value in [((1,), [1]), ((2,), [2]), ((1,), [1]), ((1,), [1])]:
        assert cache.cached("op", "A", 1, weight,
                            lambda: compute(value)) == value
    # each switch of key is a miss that overwrites the one file
    assert calls == [[1], [2], [1]]
    assert [p.name for p in cache_env.iterdir()] == ["same.json"]
    assert capsys.readouterr().err == ""


def test_entry_that_records_another_key_is_a_silent_miss(cache_env, capsys):
    mine = cache.cache_key("dynkin", "A", 1, (4,))
    other = cache.cache_key("dynkin", "A", 1, (5,))
    cache.store(other, {"coefficients": ["1"]})
    (stored,) = cache_env.iterdir()
    copied = cache_env / (cache._digest(mine) + ".json")
    copied.write_bytes(stored.read_bytes())
    assert cache.load(mine, "dynkin") is None
    assert capsys.readouterr().err == ""
    assert copied.exists()
    cache.store(mine, {"coefficients": ["2"]})
    assert cache.load(mine, "dynkin") == {"coefficients": ["2"]}
    assert cache.load(other, "dynkin") == {"coefficients": ["1"]}
    assert json.loads(copied.read_text())["key"] == mine


def test_cached_skips_compute_on_hit(cache_env):
    calls = []

    def compute():
        calls.append(1)
        return {"v": 7}

    assert cache.cached("op", "A", 2, (1, 0), compute) == {"v": 7}
    assert cache.cached("op", "A", 2, (1, 0), compute) == {"v": 7}
    assert len(calls) == 1


@pytest.mark.parametrize("sub, bad", [
    ("dynkin", {}),
    ("f-lambda", {"coefficients": ["1", "x"]}),
    ("character", {"a": 1}),
    ("character", [[[1, 1], "1"]]),
])
def test_wrong_shape_entry_is_dropped_and_recomputed(
        sub, bad, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", sub, "--type", "A",
            "--rank", "2", "--weight", "1,1"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    entry = next(tmp_path.iterdir())
    key = json.loads(entry.read_text())["key"]
    entry.write_text(json.dumps({"key": key, "value": bad}))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert "wrong shape" in captured.err and captured.err.count("\n") == 1
    assert json.loads(entry.read_text())["value"] != bad


def test_cached_without_a_directory_hashes_nothing(monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)

    def no_key(*args, **kwargs):
        raise AssertionError("cache_key called with caching off")

    monkeypatch.setattr(cache, "cache_key", no_key)
    assert cache.cached("op", "A", 2, (1, 0), lambda: {"v": 7}) == {"v": 7}


def test_unusable_directory_warns_once_and_computes(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for directory in (not_a_dir, not_a_dir / "sub"):
        value = cache.cached("op", "A", 2, (1, 0), lambda: {"v": 7},
                             directory=str(directory))
        assert value == {"v": 7}
        err = capsys.readouterr().err
        assert err.startswith(f"warning: unusable cache directory {directory}")
        assert err.count("\n") == 1
    assert not_a_dir.read_text() == ""


@pytest.mark.parametrize("value", [
    {"b": [1, "2", {"z": None, "a": -3}], "a": "q"},
    [],
    [[[1, -2], 3]],
    [[[i, -i], {"m": i, "c": str(i)}] for i in range(300)],
    list(range(256)),
    list(range(513)),
    {"coefficients": list(range(500)), "denominator_exponents": [2, 3]},
])
def test_store_writes_the_sorted_json_dump(cache_env, value):
    key = cache.cache_key("op", "A", 1, (1,))
    cache.store(key, value)
    (path,) = cache_env.iterdir()
    assert path.read_text() == json.dumps({"key": key, "value": value},
                                          sort_keys=True)


def test_character_cache_miss_and_hit_print_the_same(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", "character", "--type",
            "E", "--rank", "7", "--weight", "1,0,0,0,0,0,1"]
    digests = []
    for _ in range(2):  # a miss that stores the entry, then a hit
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digests.append(hashlib.md5(captured.out.encode()).hexdigest())
    assert len(list(tmp_path.iterdir())) == 1
    assert digests == ["16b48d31ac07f32f6684928476932fdc"] * 2
