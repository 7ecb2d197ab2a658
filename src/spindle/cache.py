"""JSON result cache, one file per entry, that knows no value.

An entry's key is the canonical JSON of what it holds (schema version,
operation, root system, weight, extra).  Its file is named by the zlib
crc32 of the key, and the entry records the key: ``{"key": key, "value":
value.to_json()}``.  A value is returned only when the recorded key is the
one asked for, so a digest collision or a copied entry is a miss, which
the next store overwrites; and only when its class's ``from_json`` reads
it back to itself.  Writes are atomic (tmp file + os.replace).  A corrupt
entry, one that fails that round trip and an unwritable directory draw a
warning and a fresh computation.  The directory is the caller's
``directory`` argument, else SPINDLE_CACHE_DIR; with neither, caching is
off and no key is built.
"""

from __future__ import annotations

import os
import sys
import tempfile

SCHEMA_VERSION = 2


def cache_dir(directory=None):
    return directory or os.environ.get("SPINDLE_CACHE_DIR") or None


def cache_key(operation, type_letter, rank, weight, extra=None):
    """The canonical JSON description of one cached result."""
    import json

    payload = {
        "schema": SCHEMA_VERSION,
        "operation": operation,
        "type": type_letter,
        "rank": rank,
        "weight": list(weight) if weight is not None else None,
        "extra": extra,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(key):
    """The file stem of key.  It names the entry only; the key the entry
    records decides a hit."""
    import zlib

    return f"{zlib.crc32(key.encode('utf-8')):08x}"


def _path(directory, key):
    return os.path.join(directory, _digest(key) + ".json")


def _drop(path, why):
    print(f"warning: dropping corrupt cache entry {path}: {why}",
          file=sys.stderr)
    try:
        os.remove(path)
    except OSError:
        pass


def load(key, directory=None):
    """Stored JSON value for key, or None on a miss, an entry that records
    another key, or corruption."""
    directory = cache_dir(directory)
    if directory is None:
        return None
    import json

    path = _path(directory, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if not isinstance(entry, dict) or entry.keys() != {"key", "value"}:
            raise ValueError("not a cache entry")
        if entry["key"] != key:
            return None  # another key under the same name: store replaces it
        if entry["value"] is None:  # None stands for a miss
            raise ValueError("wrong shape: a null value")
        return entry["value"]
    except (FileNotFoundError, NotADirectoryError):
        # a missing entry, or a directory that is a file: store reports it
        return None
    except (ValueError, OSError) as exc:
        _drop(path, exc)
        return None


def store(key, value, directory=None):
    """Atomically write the entry of value under key; no-op without a
    cache directory.  The file holds json.dumps({"key": key, "value":
    value}, sort_keys=True)."""
    directory = cache_dir(directory)
    if directory is None:
        return
    import json

    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        print(f"warning: unusable cache directory {directory}: {exc}", file=sys.stderr)
        return
    path = _path(directory, key)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write('{"key": ' + json.dumps(key) + ', "value": ')
            # json.dump would run the pure-Python encoder; dumps runs the C
            # one, which holds every token of its output until the final
            # join, so a long list is encoded a slice at a time
            if isinstance(value, list):
                fh.write("[")
                for i in range(0, len(value), 256):
                    fh.write((", " if i else "")
                             + json.dumps(value[i:i + 256], sort_keys=True)[1:-1])
                fh.write("]")
            else:
                fh.write(json.dumps(value, sort_keys=True))
            fh.write("}")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


def _same(a, b):
    """a == b as JSON: 1, 1.0 and true differ."""
    if type(a) is dict and type(b) is dict:
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if type(a) is list and type(b) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def cached(cls, operation, type_letter, rank, weight, compute, extra=None,
           directory=None):
    """compute(), a value of cls, through the cache: a stored value is
    used when cls.from_json reads it back to itself, any other is dropped
    with a warning, and a fresh value is stored as value.to_json()."""
    directory = cache_dir(directory)
    if directory is None:  # json and zlib stay unimported, no codec runs
        return compute()
    key = cache_key(operation, type_letter, rank, weight, extra)
    stored = load(key, directory)
    if stored is not None:
        try:
            value = cls.from_json(stored)
            if _same(value.to_json(), stored):
                return value
        except (ArithmeticError, LookupError, TypeError, ValueError):
            pass  # from_json found no value of cls
        _drop(_path(directory, key), f"wrong shape for {cls.__name__}")
    value = compute()
    store(key, value.to_json(), directory)
    return value
