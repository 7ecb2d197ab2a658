"""JSON result cache, one file per entry.

An entry's key is the canonical JSON of what it holds (schema version,
operation, root system, weight, extra).  Its file is named by the zlib
crc32 of the key, and the entry records the key: ``{"key": key, "value":
value}``.  A value is returned only when the recorded key is the one asked
for, so a digest collision or an entry copied to another name is a miss,
which the next store overwrites.  Entries written under an earlier schema
have other names and are never read.  Writes are atomic (tmp file +
os.replace) and idempotent.  A corrupt entry, an entry of the wrong shape
for its operation and an unwritable directory draw a warning and a fresh
computation.  The directory is the caller's ``directory`` argument, else
SPINDLE_CACHE_DIR; with neither, caching is off and no key is built.
"""

from __future__ import annotations

import os
import re
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


def _is_int(x):
    """An int, or the decimal string QPolynomial.to_json writes for one."""
    if isinstance(x, str):
        return re.fullmatch(r"-?[0-9]+", x) is not None
    return type(x) is int


def _is_polynomial(value):
    return (isinstance(value, dict)
            and isinstance(value.get("coefficients"), list)
            and all(_is_int(c) for c in value["coefficients"]))


def _is_character(value):
    return isinstance(value, list) and all(
        isinstance(entry, list) and len(entry) == 2
        and isinstance(entry[0], list)
        and all(type(x) is int for x in entry[0])
        and type(entry[1]) is int
        for entry in value
    )


# Shape of a stored value, per operation.
_SHAPES = {
    "dynkin": _is_polynomial,
    "f-lambda": _is_polynomial,
    "character": _is_character,
}


def load(key, operation=None, directory=None):
    """Cached JSON value for key, or None on a miss, an entry that records
    another key, corruption or a value of the wrong shape for
    ``operation``."""
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
        value = entry["value"]
        valid = _SHAPES.get(operation)
        if valid is not None and not valid(value):
            raise ValueError(f"wrong shape for {operation}")
        return value
    except (FileNotFoundError, NotADirectoryError):
        # a missing entry, or a directory that is a file: store reports it
        return None
    except (ValueError, OSError) as exc:
        print(f"warning: dropping corrupt cache entry {path}: {exc}",
              file=sys.stderr)
        try:
            os.remove(path)
        except OSError:
            pass
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


def cached(operation, type_letter, rank, weight, compute, extra=None,
           directory=None):
    """Fetch-or-compute wrapper around load/store."""
    if cache_dir(directory) is None:  # json and zlib stay unimported
        return compute()
    key = cache_key(operation, type_letter, rank, weight, extra)
    hit = load(key, operation, directory)
    if hit is not None:
        return hit
    value = compute()
    store(key, value, directory)
    return value
