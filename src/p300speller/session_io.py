"""On-disk session bundles.

A bundle is a directory of three files:

* ``manifest.json`` -- format version, rate, geometry, channel names, and
  a ``meta`` block (``pipeline.schedule_meta``, the events' flash
  ``pattern`` and free-form provenance).
* ``signal.f32`` -- little-endian IEEE-754 float32, sample-major: all
  channels of sample 0, then sample 1, and so on.  A writer may stream it
  to ``signal.f32.tmp`` (``streamed_signal``) for ``write_session`` to
  rename; it is read through a read-only ``mmap.mmap``, not copied, which
  ``dsp.filter_recording`` finds through the array's ``base`` and whose
  pages it drops once it has read them.
* ``events.jsonl`` -- one stimulus-event object per line, streamable; a
  flash's ``cells`` are written from the pattern and checked against it.
  The writer's canonical line is compact JSON with sorted keys, e.g.
  ``{"block":"row","cells":[[1,2],[2,1]],"char_index":0,"flash_id":2,``
  ``"is_target":false,"kind":"flash","onset_s":0.0,"repetition":0,"slot":0}``.
  It is written a block of ``EVENT_LINES`` lines at a time
  (``write_events``), so the whole text is never held; a writer may
  stream it to ``events.jsonl.tmp`` alongside the signal.
  The reader has two lanes and one rule set.  A file of canonical lines,
  each ending in ``\n``, passes one group-free line regex, matched over
  windows of about 32 KiB of whole lines; numpy then finds each line's
  nine colons, compares its block and cells, flash_id and kind texts with
  the pattern's, byte for byte, reads its integers from their digits,
  ``is_target`` from its first byte and its onset by ``float`` of its
  slice.  Any other file (``\r\n`` line ends included), and a canonical
  one that breaks a rule or holds an integer text longer than 18 bytes,
  is read by ``json.loads`` of each line, its key fields re-encoded
  canonically; those values meet the same rules, which report first a
  line that is not JSON (or nests too deep) or lacks or mistypes a field,
  then a key or cells not of the pattern, then an integer past int64,
  then a non-finite onset.  The line regex is the same for every
  pattern: ``re`` keeps each pattern it compiles (up to 512), and a line
  regex built from a pattern's key texts held 160-200 kB per pattern.

Writes are atomic (temp file + rename) and byte-deterministic for
identical inputs, and a streamed bundle that fails part-way leaves no
temp file and no directory made for it.  Reads verify that each file is
a regular file, the version, that the signal size matches the manifest,
and every event line.
A bundle file must be replaced by rename, never rewritten in place, while
a command reads it: truncating the mapped signal in place raises SIGBUS.
"""

import io
import json
import mmap
import os
import re
import stat
from contextlib import contextmanager, suppress
from itertools import takewhile
from pathlib import Path

import numpy as np

from .dsp import Recording
from .errors import BundleError, ValidationError
from .patterns import FlashPattern, cells_for_flash, pair_table
from .scheduler import BLOCKS, COLUMNS, FLASH, PAUSE, Events

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
SIGNAL_NAME = "signal.f32"
EVENTS_NAME = "events.jsonl"
# events.jsonl lines formatted and written per step of ``write_events``
EVENT_LINES = 256
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_INTEGER = r"-?(?:0|[1-9][0-9]*)"
# every field of the canonical events.jsonl line, in its (sorted) key order,
# with a regex its JSON text matches; the key fields are fixed by the line's
# (kind, block, flash_id) and checked against the pattern, the others vary
_EVENT_FIELDS = {
    "block": r'null|"\w*"',
    "cells": r"\[[][0-9,]*\]",
    "char_index": _INTEGER,
    "flash_id": r"null|[0-9]+",
    "is_target": "true|false",
    "kind": r'"\w*"',
    "onset_s": r"NaN|-?Infinity|" + _INTEGER + r"(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?",
    "repetition": _INTEGER,
    "slot": _INTEGER,
}
_KEY_FIELDS = ("kind", "block", "flash_id", "cells")
_VARYING_FIELDS = tuple(name for name in _EVENT_FIELDS if name not in _KEY_FIELDS)
# what a varying field's JSON value must be, as the error for a line names it
_MUST_BE = {"char_index": "a JSON integer", "is_target": "true or false",
            "onset_s": "a JSON number", "repetition": "a JSON integer", "slot": "a JSON integer"}
# the one JSON-type rule of an event field and of a manifest field: whether the
# value json.loads gives is what the kind names (a bool is no JSON integer)
_JSON_KINDS = {
    "a JSON integer": lambda value: type(value) is int,
    "a JSON number": lambda value: type(value) in (int, float),
    "true or false": lambda value: type(value) is bool,
    "a string": lambda value: type(value) is str,
    "a list of strings": lambda value: type(value) is list and all(type(v) is str for v in value),
    "a list of [integer, integer] pairs": lambda value: type(value) is list and all(
        type(pair) is list and list(map(type, pair)) == [int, int] for pair in value),
}
# whole canonical lines, without groups, so that a match keeps no substrings
_CANONICAL_LINES = (
    r"(?:\{" + ",".join(f'"{name}":(?:{regex})' for name, regex in _EVENT_FIELDS.items())
    + r"\}\n)*"
).encode()
# bytes of whole lines per match of _CANONICAL_LINES, whose ``*`` holds about
# 1.5 KB of backtracking state per line until the match returns
_CHECK_BYTES = 1 << 15
# bytes from the end of a field's value to the next field's value: ,"name":
_NEXT_KEYS = [len(f',"{name}":') for name in list(_EVENT_FIELDS)[1:]]
_INDEX = {name: i for i, name in enumerate(_EVENT_FIELDS)}


@contextmanager
def streamed_signal(path):
    """Yield the paths of ``<path>/signal.f32.tmp`` and ``<path>/events.jsonl.tmp``
    for a writer to stream a bundle's signal and events to, making the
    directory if need be; ``write_session(..., streamed=True)`` then renames
    them into place.  If the writer raises, both temp files go, and so does
    each directory made for them, so a bundle already at ``path`` is left as
    it was."""
    path = Path(path)
    made = list(takewhile(lambda directory: not directory.exists(), [path, *path.parents]))
    path.mkdir(parents=True, exist_ok=True)
    temps = [_temp_path(path / name) for name in (SIGNAL_NAME, EVENTS_NAME)]
    try:
        yield temps
    except BaseException:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        with suppress(OSError):
            for directory in made:  # the deepest first
                directory.rmdir()
        raise


def write_session(rec: Recording, path, meta: dict | None = None, streamed: bool = False) -> None:
    """Write a recording as a bundle directory; ``meta`` gains the events' pattern.
    ``streamed``: the signal and the events are already in their temp files
    (see ``streamed_signal``), and are renamed, not written."""
    if rec.events is None:  # a bundle without meta.pattern could not be read back
        raise ValidationError("a bundle needs the recording's events and their pattern")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {**(meta or {}), "pattern": rec.events.pattern.to_json()}
    manifest = {
        "format_version": FORMAT_VERSION,
        "fs_hz": rec.fs_hz,
        "n_samples": rec.n_samples,
        "n_channels": rec.n_channels,
        "channel_names": list(rec.channel_names),
        "meta": meta,
    }
    if streamed:
        os.replace(_temp_path(path / SIGNAL_NAME), path / SIGNAL_NAME)
    else:
        atomic_write(path / SIGNAL_NAME, np.ascontiguousarray(rec.samples, dtype="<f4"))
        with open(_temp_path(path / EVENTS_NAME), "wb") as file:
            for _ in write_events(rec.events, file):
                pass
    os.replace(_temp_path(path / EVENTS_NAME), path / EVENTS_NAME)
    atomic_write(
        path / MANIFEST_NAME,
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
    )


def events_jsonl(events: Events) -> str:
    """One canonical line (compact, key-sorted JSON) per event: the join of
    ``_event_blocks``, whose blocks ``write_events`` writes."""
    return "".join(_event_blocks(events))


def write_events(events: Events, file):
    """Write ``events_jsonl(events)`` to the binary ``file`` ``EVENT_LINES``
    lines at a time: a generator that formats and writes one block per step,
    so a caller can take the steps in between other work."""
    for text in _event_blocks(events):
        file.write(text.encode())
        yield


def _event_blocks(events: Events):
    """The canonical lines of ``EVENT_LINES`` events at a time: each (block,
    flash_id) of the pattern has one %-format string holding its key fields'
    JSON, and each event fills in the fields that vary, from columns built a
    block at a time."""
    formats = {}
    for key, texts in _key_texts(events.pattern).items():
        fields = (f'"{name}":' + (texts[name].replace("%", "%%") if name in texts else "%s")
                  for name in _EVENT_FIELDS)
        formats[key] = "{" + ",".join(fields) + "}\n"
    for i in range(0, len(events), EVENT_LINES):
        part = events[i : i + EVENT_LINES]
        columns = {
            "char_index": part.char_index.tolist(),
            "is_target": list(map(("false", "true").__getitem__, part.is_target.tolist())),
            "onset_s": list(map(repr, part.onset_s.tolist())),  # finite, as Recording checks
            "repetition": part.repetition.tolist(),
            "slot": part.slot.tolist(),
        }
        keys = zip(part.block.tolist(), part.flash_id.tolist())
        rows = zip(*map(columns.get, _VARYING_FIELDS))
        yield "".join(map(str.__mod__, map(formats.__getitem__, keys), rows))


def _cells_by_key(pattern: FlashPattern) -> dict:
    """(kind, block, flash_id) of every flash of the pattern, and of a pause,
    mapped to the sorted [row, col] cells it lights."""
    cells = {(PAUSE, None, None): []}
    for block in BLOCKS:
        for f in range(1, pattern.n + 1):
            cells[FLASH, block, f] = sorted([list(c) for c in cells_for_flash(pattern, block, f)])
    return cells


def _key_texts(pattern: FlashPattern) -> dict:
    """The (block, flash_id) columns of every flash of the pattern, and of a
    pause, mapped to the JSON text of each key field of its line."""
    texts = {}
    for (kind, block, flash_id), cells in _cells_by_key(pattern).items():
        key = (BLOCKS.index(block), flash_id) if kind == FLASH else (-1, 0)
        fields = {"kind": kind, "block": block, "flash_id": flash_id, "cells": cells}
        texts[key] = {name: _EVENT_ENCODER.encode(value) for name, value in fields.items()}
    return texts


def _regular_file_size(path: Path) -> int:
    """The size of an input file; anything but a regular file is a BundleError
    (opening a FIFO would wait for a writer forever)."""
    info = os.stat(path)
    if not stat.S_ISREG(info.st_mode):
        raise BundleError(f"{path}: not a regular file")
    return info.st_size


def read_text(path) -> str:
    """The UTF-8 text of an input file, which must be a regular file."""
    _regular_file_size(path)
    return Path(path).read_text(encoding="utf-8")


def read_manifest(path) -> dict:
    path = Path(path)
    try:
        manifest = json.loads(read_text(path / MANIFEST_NAME))
    except FileNotFoundError:
        raise BundleError(f"no {MANIFEST_NAME} in {path}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: invalid JSON at line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, or an integer past 4,300 digits
        raise BundleError(f"{path / MANIFEST_NAME}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise BundleError(f"{path / MANIFEST_NAME}: not a JSON object")
    version = manifest.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # not true, not 1.0
        raise BundleError(f"{path / MANIFEST_NAME}: unsupported format_version {version!r} "
                          f"(expected the JSON integer {FORMAT_VERSION})")
    return manifest


def manifest_field(path, manifest: dict, name: str, must_be: str, default=None):
    """The manifest's field ``name`` (``meta.<key>``: a key of its meta), which
    must be ``must_be`` by its JSON type (``_JSON_KINDS``), a JSON number read
    as a float (NaN and +-inf pass); absent, ``default``.  A value of another
    type, or an absent one without a default, is a BundleError."""
    section, _, key = name.rpartition(".")
    fields, where = manifest.get(section, {}) if section else manifest, Path(path) / MANIFEST_NAME
    if key not in fields and default is None:
        raise BundleError(f"{where}: missing or unusable field ({name!r})")
    value = fields.get(key, default)
    if not _JSON_KINDS[must_be](value):
        raise BundleError(f"{where}: {name} must be {must_be}, got {value!r}")
    try:
        return float(value) if must_be == "a JSON number" else value
    except OverflowError as exc:  # an integer past float's range
        raise BundleError(f"{where}: {name}: {exc}") from exc


def read_session(path, manifest: dict | None = None) -> Recording:
    """Inverse of write_session; ``manifest``: its ``read_manifest``, if read."""
    path = Path(path)
    manifest = read_manifest(path) if manifest is None else manifest
    n_samples, n_channels, fs_hz, channel_names = (
        manifest_field(path, manifest, name, must_be) for name, must_be in (
            ("n_samples", "a JSON integer"), ("n_channels", "a JSON integer"),
            ("fs_hz", "a JSON number"), ("channel_names", "a list of strings")))
    if not (n_samples > 0 and n_channels == len(channel_names) > 0 and 0 < fs_hz < np.inf):
        raise BundleError(f"{path / MANIFEST_NAME}: missing or unusable field (needs samples, "
                          f"one name per channel and a finite rate > 0)")
    try:
        pattern = FlashPattern.from_json(manifest["meta"]["pattern"])
        pair_table(pattern)  # entries in 1..n, and each couple of flashes lights one cell
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: no usable meta.pattern ({exc})") from exc

    size = _regular_file_size(path / SIGNAL_NAME)
    expected = n_samples * n_channels * 4
    if size != expected:
        raise BundleError(
            f"{path / SIGNAL_NAME}: {size} bytes, but the manifest implies {expected} "
            f"({n_samples} samples x {n_channels} channels x 4)"
        )
    # mapped, not copied: the filter reads its row blocks from the page cache
    with open(path / SIGNAL_NAME, "rb") as file:
        mapping = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
    samples = np.frombuffer(mapping, dtype="<f4").reshape(n_samples, n_channels)
    events = _read_events(path / EVENTS_NAME, pattern)
    try:
        return Recording(fs_hz=fs_hz, samples=samples, channel_names=tuple(channel_names),
                         events=events)
    except ValidationError as exc:  # an onset outside the signal
        raise BundleError(f"{path / EVENTS_NAME}: {exc}") from exc


def _read_events(path: Path, pattern: FlashPattern) -> Events:
    """Parse events.jsonl: a file of canonical lines by ``_canonical_events``;
    any other file, or one in which that finds a fault, into each line's
    fields by ``_json_rows``, which are then checked."""
    _regular_file_size(path)
    data = path.read_bytes()
    if _canonical(data):
        events = _canonical_events(data, *_value_spans(data), pattern)
        if events is not None:
            return events
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise BundleError(f"{path}: {exc}") from exc
    rows, linenos = _json_rows(path, text)
    columns = dict(zip(_EVENT_FIELDS, zip(*rows))) if rows else dict.fromkeys(_EVENT_FIELDS, ())
    # the (block, flash_id) columns of each key of the pattern, by its key fields' texts
    known = {tuple(map(texts.get, _KEY_FIELDS)): key for key, texts in _key_texts(pattern).items()}
    keys = list(zip(*map(columns.get, _KEY_FIELDS)))
    if not known.keys() >= set(keys):  # once per distinct key
        raise _key_fault(path, keys, linenos, known)
    block, flash_id = np.array([known[key] for key in keys], np.int64).reshape(-1, 2).T
    varying = {name: columns[name] for name in _VARYING_FIELDS}
    # by its text: float() of an integer past float's range is inf, not OverflowError
    varying["onset_s"] = [float(str(value)) for value in varying["onset_s"]]
    try:
        events = Events(pattern, block=block, flash_id=flash_id, **varying)
    except OverflowError as exc:  # past int64
        raise BundleError(f"{path}: an integer field is out of range ({exc})") from exc
    infinite = np.flatnonzero(~np.isfinite(events.onset_s))
    if infinite.size:
        i = infinite[0]
        raise BundleError(f"{path} line {linenos[i]}: onset_s must be finite, "
                          f"got {varying['onset_s'][i]!r}")
    return events


def _canonical(data: bytes) -> bool:
    """Whether ``data`` is whole canonical lines, matched ``_CHECK_BYTES`` of
    lines at a time."""
    lines = re.compile(_CANONICAL_LINES)
    start = 0
    while start < len(data):
        end = data.rfind(b"\n", start, start + _CHECK_BYTES) + 1 or data.find(b"\n", start) + 1
        if not (end and lines.fullmatch(data, start, end)):
            return False
        start = end
    return True


def _value_spans(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Where each field's value starts and ends, one row per line and one
    column per field, in canonical lines: a value starts after its key's
    colon, the line's only colons, and ends where ``,"name":`` of the next
    field starts, or the last at its line's ``}``."""
    colons = np.flatnonzero(np.frombuffer(data, np.uint8) == ord(":"))
    starts = colons.reshape(-1, len(_EVENT_FIELDS)) + 1
    ends = np.empty_like(starts)
    ends[:, :-1] = starts[:, 1:] - _NEXT_KEYS
    ends[:-1, -1] = starts[1:, 0] - len('}\n{"block":')
    ends[-1:, -1] = len(data) - len("}\n")
    return starts, ends


def _canonical_events(data: bytes, starts: np.ndarray, ends: np.ndarray,
                      pattern: FlashPattern) -> Events | None:
    """The events of canonical lines whose field values lie at
    ``data[starts:ends]`` (one column per field), or None if a line breaks a
    rule or holds an integer text longer than 18 bytes, for the caller's
    checks to name: each line's key texts must equal those of a key of the
    pattern, byte for byte, and its integers are read from their digits."""
    if not len(starts):
        return Events(pattern, *[[]] * len(COLUMNS))
    codes = np.frombuffer(data, np.uint8)
    integers = [_integers(codes, starts[:, _INDEX[name]], ends[:, _INDEX[name]])
                for name in ("flash_id", "char_index", "repetition", "slot")]
    if any(values is None for values in integers):
        return None
    flash_id, char_index, repetition, slot = integers
    # which key each line names: the pause, then each row flash, then each
    # column flash; the second byte of "row", "col" or null tells them apart
    n = pattern.n
    second = codes[starts[:, _INDEX["block"]] + 1]
    flash = (second == ord("r")) | (second == ord("c"))
    if not np.all((flash & (flash_id >= 1) & (flash_id <= n)) | (second == ord("u"))):
        return None
    key = np.where(flash, flash_id + n * (second == ord("c")), 0)
    keys = [(-1, 0)] + [(block, f) for block in range(len(BLOCKS)) for f in range(1, n + 1)]
    key_texts = _key_texts(pattern)
    texts = [key_texts[k] for k in keys]
    for first, last, expected in (
        ("block", "cells", [f'{t["block"]},"cells":{t["cells"]}' for t in texts]),  # one span
        ("flash_id", "flash_id", [t["flash_id"] for t in texts]),
        ("kind", "kind", [t["kind"] for t in texts]),
    ):
        if not _spans_equal(codes, starts[:, _INDEX[first]], ends[:, _INDEX[last]], key, expected):
            return None
    onsets = map(slice, starts[:, _INDEX["onset_s"]].tolist(), ends[:, _INDEX["onset_s"]].tolist())
    onset_s = np.array(list(map(float, map(data.__getitem__, onsets))))
    if not np.isfinite(onset_s).all():
        return None
    key_block, key_flash_id = np.array(keys).T
    return Events(
        pattern, onset_s=onset_s, slot=slot, char_index=char_index, repetition=repetition,
        block=key_block[key], flash_id=key_flash_id[key],
        is_target=codes[starts[:, _INDEX["is_target"]]] == ord("t"),
    )


def _spans_equal(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, key: np.ndarray,
                 texts: list) -> bool:
    """Whether every line's ``codes[starts:ends]`` is the text of its key."""
    encoded = [text.encode() for text in texts]
    lengths = np.array(list(map(len, encoded)))
    if not np.array_equal(ends - starts, lengths[key]):
        return False
    size = int(lengths.max())
    table = np.frombuffer(b"".join(text.ljust(size, b"\0") for text in encoded), np.uint8)
    table = table.reshape(len(encoded), size)
    for length in np.unique(lengths).tolist():  # one gather per length of text
        lines = np.flatnonzero(lengths[key] == length)
        window = np.lib.stride_tricks.sliding_window_view(codes, length)[starts[lines]]
        if not np.array_equal(window, table[key[lines], :length]):
            return False
    return True


def _integers(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The values of the decimal integers at ``codes[starts:ends]`` (a minus
    or not, then digits), or None if one is more than 18 bytes long."""
    widths = ends - starts
    if widths.max() > 18:  # so no value passes int64
        return None
    values = np.zeros(starts.shape, np.int64)
    for place in range(int(widths.max())):  # the digit of each 10**place, from the right
        digit = codes[ends - 1 - place].astype(np.int64) - ord("0")
        values += np.where((place < widths) & (digit >= 0), digit, 0) * 10**place  # not the minus
    return np.where(codes[starts] == ord("-"), -values, values)


def _json_rows(path: Path, text: str) -> tuple[list, list]:
    """Each non-blank line's fields from ``json.loads``, in ``_EVENT_FIELDS``
    order, the key fields re-encoded as their canonical texts, and its line
    number; a line that is not an object of the nine fields, nests too deep
    to decode, or whose varying field's value is not of its JSON type, is a
    BundleError."""
    rows, linenos = [], []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            values = {name: obj[name] for name in _EVENT_FIELDS}
            values.update((name, _EVENT_ENCODER.encode(values[name])) for name in _KEY_FIELDS)
            for name, must_be in _MUST_BE.items():
                if not _JSON_KINDS[must_be](values[name]):
                    raise ValueError(f"{name} must be {must_be}, got {values[name]!r}")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise BundleError(f"{path} line {lineno}: {exc}") from exc
        rows.append(tuple(values.values()))
        linenos.append(lineno)
    return rows, linenos


def _key_fault(path: Path, keys: list, linenos: list, known: dict) -> BundleError:
    """The error for the first line whose (kind, block, flash_id, cells) texts,
    taken from ``_json_rows``, are no key of the pattern."""
    i, key = next((i, key) for i, key in enumerate(keys) if key not in known)
    kind, block, flash_id, cells = map(json.loads, key)
    lit = {known_key[:3]: known_key[3] for known_key in known}.get(key[:3])
    reason = (f"kind, block and flash_id {[kind, block, flash_id]} name neither a pause nor a "
              f"flash of the pattern in meta" if lit is None else
              f"cells {cells} differ from {json.loads(lit)}, which the pattern in meta lights "
              f"for {[kind, block, flash_id]}")
    return BundleError(f"{path} line {linenos[i]}: {reason}")


def atomic_write(target: Path, data) -> None:
    """Write bytes, or an array's buffer, to ``target`` through a temp file."""
    tmp = _temp_path(target)
    tmp.write_bytes(data)
    os.replace(tmp, target)


def _temp_path(target: Path) -> Path:
    return target.with_name(target.name + ".tmp")
