"""On-disk session bundles.

A bundle is a directory of three files:

* ``manifest.json`` -- format version, rate, geometry, channel names, and
  a ``meta`` block (``pipeline.schedule_meta``, the events' flash
  ``pattern`` and free-form provenance).
* ``signal.f32`` -- little-endian IEEE-754 float32, sample-major: all
  channels of sample 0, then sample 1, and so on.
* ``events.jsonl`` -- one stimulus-event object per line, streamable; a
  flash's ``cells`` are written from the pattern and checked against it.

Writes are atomic (temp file + rename) and byte-deterministic for
identical inputs; reads verify the version, that the signal size matches
the manifest, and every event line.
"""

import json
import os
from pathlib import Path

import numpy as np

from .dsp import Recording
from .errors import BundleError
from .patterns import FlashPattern, cells_for_flash
from .scheduler import BLOCKS, COLUMNS, FLASH, PAUSE, Events

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
SIGNAL_NAME = "signal.f32"
EVENTS_NAME = "events.jsonl"
_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# the JSON types each number field of events.jsonl takes; a dict lookup or
# int() would also take true for 1, 2.0 for 2 and "17" for 17
_NUMBER_TYPES = {"onset_s": {int, float}, "slot": {int}, "char_index": {int},
                 "repetition": {int}, "flash_id": {int}}


def write_session(rec: Recording, path, meta: dict | None = None) -> None:
    """Write a recording as a bundle directory; ``meta`` gains the events' pattern."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = dict(meta or {})
    if rec.events is not None:
        meta["pattern"] = rec.events.pattern.to_json()
    manifest = {
        "format_version": FORMAT_VERSION,
        "fs_hz": rec.fs_hz,
        "n_samples": rec.n_samples,
        "n_channels": rec.n_channels,
        "channel_names": list(rec.channel_names),
        "meta": meta,
    }
    signal = np.ascontiguousarray(rec.samples, dtype="<f4")
    atomic_write(path / SIGNAL_NAME, signal.tobytes())
    events = "" if rec.events is None else events_jsonl(rec.events)
    atomic_write(path / EVENTS_NAME, events.encode())
    atomic_write(
        path / MANIFEST_NAME,
        (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode(),
    )


def events_jsonl(events: Events) -> str:
    """One compact, key-sorted JSON object per event and line."""
    cells = _cells_by_key(events.pattern)
    lines = []
    for onset, slot, char, rep, block, flash_id, target in zip(
        *(getattr(events, name).tolist() for name in COLUMNS)
    ):
        kind, name, fid = (FLASH, BLOCKS[block], flash_id) if block >= 0 else (PAUSE, None, None)
        obj = {"onset_s": onset, "kind": kind, "block": name, "flash_id": fid,
               "cells": cells[kind, name, fid], "char_index": char, "repetition": rep,
               "is_target": target, "slot": slot}
        lines.append(_EVENT_ENCODER.encode(obj) + "\n")
    return "".join(lines)


def _cells_by_key(pattern: FlashPattern) -> dict:
    """(kind, block, flash_id) of every flash of the pattern, and of a pause,
    mapped to the sorted [row, col] cells it lights."""
    cells = {(PAUSE, None, None): []}
    for block in BLOCKS:
        for f in range(1, pattern.n + 1):
            cells[FLASH, block, f] = sorted([list(c) for c in cells_for_flash(pattern, block, f)])
    return cells


def read_manifest(path) -> dict:
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except FileNotFoundError:
        raise BundleError(f"no {MANIFEST_NAME} in {path}") from None
    except json.JSONDecodeError as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(manifest, dict):
        raise BundleError(f"{path / MANIFEST_NAME}: not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise BundleError(
            f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    return manifest


def read_session(path) -> Recording:
    """Inverse of write_session."""
    path = Path(path)
    manifest = read_manifest(path)
    try:
        n_samples = int(manifest["n_samples"])
        n_channels = int(manifest["n_channels"])
        fs_hz = float(manifest["fs_hz"])
        channel_names = tuple(manifest["channel_names"])
        if not (n_samples > 0 and n_channels == len(channel_names) > 0 and 0 < fs_hz < np.inf):
            raise ValueError("needs samples, one name per channel and a finite rate > 0")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: missing or unusable field ({exc})") from exc
    try:
        pattern = FlashPattern.from_json(manifest["meta"]["pattern"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise BundleError(f"{path / MANIFEST_NAME}: no usable meta.pattern ({exc})") from exc

    raw = (path / SIGNAL_NAME).read_bytes()
    expected = n_samples * n_channels * 4
    if len(raw) != expected:
        raise BundleError(
            f"{path / SIGNAL_NAME}: {len(raw)} bytes, but the manifest implies {expected} "
            f"({n_samples} samples x {n_channels} channels x 4)"
        )
    samples = np.frombuffer(raw, dtype="<f4").reshape(n_samples, n_channels)
    events = _read_events(path / EVENTS_NAME, pattern)
    return Recording(fs_hz=fs_hz, samples=samples, channel_names=channel_names, events=events)


def _read_events(path: Path, pattern: FlashPattern) -> Events:
    """Parse events.jsonl, checking each line's fields and its cells against the pattern."""
    cells = _cells_by_key(pattern)
    rows, linenos = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                key = (obj["kind"], obj["block"], obj["flash_id"])
                if key not in cells:
                    raise ValueError(f"kind, block and flash_id {list(key)} name neither a "
                                     f"pause nor a flash of the pattern in meta")
                if obj["cells"] != cells[key]:
                    raise ValueError(f"cells {obj['cells']} differ from {cells[key]}, which "
                                     f"the pattern in meta lights for {list(key)}")
                if not isinstance(obj["is_target"], bool):
                    raise ValueError(f"is_target must be true or false, got {obj['is_target']!r}")
                block = BLOCKS.index(key[1]) if key[0] == FLASH else -1
                rows.append((
                    obj["onset_s"], obj["slot"], obj["char_index"], obj["repetition"],
                    block, key[2] or 0, obj["is_target"],
                ))
                linenos.append(lineno)
            except (KeyError, TypeError, ValueError) as exc:
                raise BundleError(f"{path} line {lineno}: {exc}") from exc
    columns = dict(zip(COLUMNS, zip(*rows))) if rows else dict.fromkeys(COLUMNS, ())
    for name, types in _NUMBER_TYPES.items():
        if not set(map(type, columns[name])) <= types:  # one pass per column, not per line
            i = next(i for i, value in enumerate(columns[name]) if type(value) not in types)
            kind = "number" if float in types else "integer"
            raise BundleError(f"{path} line {linenos[i]}: {name} must be a JSON {kind}, "
                              f"got {columns[name][i]!r}")
    try:
        return Events(pattern, **columns)
    except OverflowError as exc:
        raise BundleError(f"{path}: an integer field is out of range ({exc})") from exc


def atomic_write(target: Path, data: bytes) -> None:
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, target)
