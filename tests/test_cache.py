import hashlib
import json
import os

import pytest

from spindle import cache, cli
from spindle.characters import WeightCharacter
from spindle.qpoly import QPolynomial


@pytest.fixture
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SPINDLE_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_disabled_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    for value in (QPolynomial([1]), QPolynomial([2])):
        assert cache.cached(QPolynomial, "dynkin", "A", 2, (1, 1),
                            lambda: value) == value
    assert list(tmp_path.iterdir()) == []


def test_round_trip(cache_env):
    key = cache.cache_key("dynkin", "G", 2, (1, 0))
    assert cache.load(QPolynomial, key, cache_env) is None
    cache.store(key, {"coefficients": ["1", "2"], "variable": "q"}, cache_env)
    assert cache.load(QPolynomial, key, cache_env) == QPolynomial([1, 2])


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
    char = WeightCharacter({(1,): 2, (-1,): 3})
    cache.store(key, char.to_json(), cache_env)
    cache.store(key, char.to_json(), cache_env)
    assert cache.load(WeightCharacter, key, cache_env).entries == char.entries
    # no leftover temp files
    assert all(not f.endswith(".tmp") for f in os.listdir(cache_env))


def test_corrupt_entry_recovers(cache_env, capsys):
    key = cache.cache_key("dynkin", "A", 1, (3,))
    poly = QPolynomial([1, 1, 1, 1])
    cache.store(key, poly.to_json(), cache_env)
    (path,) = cache_env.iterdir()
    for bad in ("{ not json", json.dumps(poly.to_json())):  # a bare value too
        path.write_text(bad)
        assert cache.load(QPolynomial, key, cache_env) is None
        err = capsys.readouterr().err
        assert "corrupt cache entry" in err and err.count("\n") == 1
        assert not path.exists()
        # the cached() wrapper recomputes and repopulates
        value = cache.cached(QPolynomial, "dynkin", "A", 1, (3,), lambda: poly)
        assert value == poly
        assert json.loads(path.read_text()) == {"key": key,
                                                "value": poly.to_json()}


def test_keys_that_share_a_file_each_get_their_own_value(
        cache_env, capsys, monkeypatch):
    monkeypatch.setattr(cache, "_digest", lambda key: "same")
    calls = []

    def compute(value):
        calls.append(value)
        return value

    one, two = QPolynomial([1]), QPolynomial([2])
    for weight, value in [((1,), one), ((2,), two), ((1,), one), ((1,), one)]:
        assert cache.cached(QPolynomial, "op", "A", 1, weight,
                            lambda: compute(value)) == value
    # each switch of key is a miss that overwrites the one file
    assert calls == [one, two, one]
    assert [p.name for p in cache_env.iterdir()] == ["same.json"]
    assert capsys.readouterr().err == ""


def test_entry_that_records_another_key_is_a_silent_miss(cache_env, capsys):
    mine = cache.cache_key("dynkin", "A", 1, (4,))
    other = cache.cache_key("dynkin", "A", 1, (5,))
    one, two = QPolynomial([1]), QPolynomial([2])
    cache.store(other, one.to_json(), cache_env)
    (stored,) = cache_env.iterdir()
    copied = cache_env / (cache._digest(mine) + ".json")
    copied.write_bytes(stored.read_bytes())
    assert cache.load(QPolynomial, mine, cache_env) is None
    assert capsys.readouterr().err == ""
    assert copied.exists()
    cache.store(mine, two.to_json(), cache_env)
    assert cache.load(QPolynomial, mine, cache_env) == two
    assert cache.load(QPolynomial, other, cache_env) == one
    assert json.loads(copied.read_text())["key"] == mine


def test_cached_skips_compute_on_hit(cache_env):
    calls = []

    def compute():
        calls.append(1)
        return QPolynomial([7])

    for _ in range(2):
        assert cache.cached(QPolynomial, "op", "A", 2, (1, 0),
                            compute) == QPolynomial([7])
    assert len(calls) == 1


# The character of A2 with highest weight (1,1) as to_json writes it.
A2_ADJOINT = [[[-2, 1], 1], [[-1, -1], 1], [[-1, 2], 1], [[0, 0], 2],
              [[1, -2], 1], [[1, 1], 1], [[2, -1], 1]]


@pytest.mark.parametrize("sub, bad", [
    ("dynkin", {}),
    ("f-lambda", {"coefficients": ["1", "x"]}),
    ("character", {"a": 1}),
    ("character", [[[1, 1], "1"]]),
    # values from_json reads, but to_json does not write back
    ("dynkin", {"coefficients": ["1_0", "2", "2", "2", "1"], "variable": "q"}),
    ("dynkin", {"coefficients": [1, 2, 2, 2, 1], "variable": "q"}),
    ("f-lambda", {"coefficients": ["1", "2", "3", "3", "1", "0"],
                  "variable": "q"}),
    ("character", A2_ADJOINT[::-1]),
    ("character", A2_ADJOINT + A2_ADJOINT[:1]),
    ("character", [[[float(x) for x in mu], m] for mu, m in A2_ADJOINT]),
    ("character", [[mu, m == 1 or m] for mu, m in A2_ADJOINT]),
    ("character", [[[float("inf"), 1], 1]]),  # json writes Infinity
])
def test_wrong_shape_entry_is_dropped_and_recomputed(
        sub, bad, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", sub, "--type", "A",
            "--rank", "2", "--weight", "1,1"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    entry = next(tmp_path.iterdir())
    good = entry.read_text()
    key = json.loads(good)["key"]
    entry.write_text(json.dumps({"key": key, "value": bad}))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert "wrong shape" in captured.err and captured.err.count("\n") == 1
    # the recomputed entry replaces the bad one; != would take 1.0 for 1
    assert entry.read_text() == good


@pytest.mark.parametrize("sub", ["character", "dynkin", "f-lambda"])
@pytest.mark.parametrize("redump", [
    lambda entry: json.dumps(entry, sort_keys=True, separators=(",", ":")),
    lambda entry: json.dumps({"value": entry["value"], "key": entry["key"]}),
], ids=["compact", "value-first"])
def test_a_valid_value_in_other_formatting_is_dropped_and_rewritten(
        sub, redump, tmp_path, capsys, monkeypatch):
    # an entry is valid when its text is what store writes for its value
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", sub, "--type", "A",
            "--rank", "2", "--weight", "1,1"]
    assert cli.main(argv) == 0
    want = capsys.readouterr().out
    entry = next(tmp_path.iterdir())
    good = entry.read_text()
    entry.write_text(redump(json.loads(good)))
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == want
    assert "wrong shape" in captured.err and captured.err.count("\n") == 1
    assert entry.read_text() == good


def _replace_on_a_full_disk(src, dst):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("block", ["directory", "full disk"])
def test_an_entry_that_cannot_be_written_warns_and_prints(
        block, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    argv = ["--cache-dir", str(tmp_path), "compute", "dynkin", "--type", "A",
            "--rank", "1", "--weight", "2"]
    entry = tmp_path / "21041a1d.json"
    if block == "directory":  # the entry's name is taken by a directory
        entry.mkdir()
    else:
        monkeypatch.setattr(cache.os, "replace", _replace_on_a_full_disk)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "1 + q + q^2\n"
    assert captured.err.startswith(
        f"warning: unusable cache directory {tmp_path}: ")
    assert captured.err.count("\n") == 1
    # the tmp file is removed
    assert [p.name for p in tmp_path.iterdir()] == (
        ["21041a1d.json"] if block == "directory" else [])


def test_cached_without_a_directory_hashes_nothing(monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)

    def no_key(*args, **kwargs):
        raise AssertionError("cache_key called with caching off")

    monkeypatch.setattr(cache, "cache_key", no_key)
    # compute() is returned as it is: no codec runs
    assert cache.cached(QPolynomial, "op", "A", 2, (1, 0),
                        lambda: {"v": 7}) == {"v": 7}


def test_unusable_directory_warns_once_and_computes(tmp_path, capsys):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    for directory in (not_a_dir, not_a_dir / "sub"):
        value = cache.cached(QPolynomial, "op", "A", 2, (1, 0),
                             lambda: QPolynomial([7]),
                             directory=str(directory))
        assert value == QPolynomial([7])
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
    cache.store(key, value, cache_env)
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


def test_null_value_is_dropped_with_a_warning(cache_env, capsys):
    key = cache.cache_key("dynkin", "A", 1, (1,))
    cache.store(key, None, cache_env)
    (path,) = cache_env.iterdir()
    assert cache.cached(QPolynomial, "dynkin", "A", 1, (1,),
                        lambda: QPolynomial([1, 1])) == QPolynomial([1, 1])
    err = capsys.readouterr().err
    assert "wrong shape" in err and err.count("\n") == 1
    assert json.loads(path.read_text())["value"] == QPolynomial([1, 1]).to_json()


def test_weight_character_json_round_trip():
    char = WeightCharacter({(1, -1): 2, (-1, 1): 1, (0, 0): 3})
    obj = char.to_json()
    assert obj == [[[-1, 1], 1], [[0, 0], 3], [[1, -1], 2]]
    assert WeightCharacter.from_json(obj).entries == char.entries
    assert WeightCharacter.from_json([]).entries == {}


# The files the previous release wrote for A2 with weight (1,1), name and
# bytes: the same schema, so they are read as hits, and a cold call of
# this release writes them byte for byte.
EARLIER_ENTRIES = {
    "5c4e5d73.json": '{"key": "{\\"extra\\":null,\\"operation\\":\\"dynkin\\",'
                     '\\"rank\\":2,\\"schema\\":2,\\"type\\":\\"A\\",'
                     '\\"weight\\":[1,1]}", "value": {"coefficients": '
                     '["1", "2", "2", "2", "1"], "variable": "q"}}',
    "62655403.json": '{"key": "{\\"extra\\":\\"auto\\",\\"operation\\":'
                     '\\"f-lambda\\",\\"rank\\":2,\\"schema\\":2,\\"type\\":'
                     '\\"A\\",\\"weight\\":[1,1]}", "value": {"coefficients": '
                     '["1", "2", "3", "3", "1"], "variable": "q"}}',
    "fb1f1c30.json": '{"key": "{\\"extra\\":null,\\"operation\\":'
                     '\\"character\\",\\"rank\\":2,\\"schema\\":2,\\"type\\":'
                     '\\"A\\",\\"weight\\":[1,1]}", "value": [[[-2, 1], 1], '
                     '[[-1, -1], 1], [[-1, 2], 1], [[0, 0], 2], [[1, -2], 1], '
                     '[[1, 1], 1], [[2, -1], 1]]}',
}
CACHED_SUBCOMMANDS = ["character", "dynkin", "f-lambda"]


def _a2_adjoint(sub, fmt, head=()):
    return [*head, "compute", sub, "--type", "A", "--rank", "2",
            "--weight", "1,1", "--format", fmt]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_entries_of_the_earlier_release_are_hits(tmp_path, capsys,
                                                 monkeypatch, fmt):
    from spindle import characters, dynkin, qanalogues

    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    want = []
    for sub in CACHED_SUBCOMMANDS:
        assert cli.main(_a2_adjoint(sub, fmt)) == 0
        want.append(capsys.readouterr().out)
    for name, text in EARLIER_ENTRIES.items():
        (tmp_path / name).write_text(text)

    def no_compute(*args, **kwargs):
        raise AssertionError("a hit computed its value")

    monkeypatch.setattr(characters, "irreducible_character", no_compute)
    monkeypatch.setattr(dynkin, "dynkin_product", no_compute)
    monkeypatch.setattr(qanalogues, "f_lambda", no_compute)
    head = ("--cache-dir", str(tmp_path))
    for sub, out in zip(CACHED_SUBCOMMANDS, want):
        assert cli.main(_a2_adjoint(sub, fmt, head)) == 0
        assert capsys.readouterr() == (out, "")
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == (
        EARLIER_ENTRIES)


def test_a_cold_call_writes_the_entries_of_the_earlier_release(
        tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)
    for sub in CACHED_SUBCOMMANDS:
        assert cli.main(_a2_adjoint(sub, "text",
                                    ("--cache-dir", str(tmp_path)))) == 0
    assert capsys.readouterr().err == ""
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == (
        EARLIER_ENTRIES)


@pytest.mark.parametrize("sub", CACHED_SUBCOMMANDS)
def test_an_uncached_call_runs_no_codec(sub, capsys, monkeypatch):
    monkeypatch.delenv("SPINDLE_CACHE_DIR", raising=False)

    def no_codec(*args, **kwargs):
        raise AssertionError("a codec ran with caching off")

    for cls in (QPolynomial, WeightCharacter):
        monkeypatch.setattr(cls, "to_json", no_codec)
        monkeypatch.setattr(cls, "from_json", staticmethod(no_codec))
    assert cli.main(_a2_adjoint(sub, "text")) == 0
    assert capsys.readouterr().err == ""
