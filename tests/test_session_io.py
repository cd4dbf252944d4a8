import gc
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from p300speller import pipeline, session_io
from p300speller.cli import main
from p300speller.dsp import Recording
from p300speller.errors import BundleError, ValidationError
from p300speller.patterns import default_matrix, make_constrained_pattern, make_rc_pattern
from p300speller.scheduler import (
    BLOCKS, COLUMNS, FLASH, Events, make_cp300_schedule, make_xp300_schedule,
)
from p300speller.session_io import events_jsonl, read_manifest, read_session, write_session
from p300speller.synth import synthesize_session

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@pytest.fixture()
def recording():
    pat = make_constrained_pattern(6)
    sched = make_xp300_schedule(pat, reps=2, isi_s=0.133, targets=[(1, 1), (3, 4)], seed=7)
    return synthesize_session(sched, seed=42)


class TestWrite:
    def test_signal_file_size(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        size = (tmp_path / "s" / "signal.f32").stat().st_size
        assert size == recording.n_samples * recording.n_channels * 4
        assert read_manifest(tmp_path / "s")["n_samples"] == recording.n_samples

    def test_small_recording_exact_size(self, tmp_path, recording):
        rec = Recording(fs_hz=25.0, samples=np.zeros((100, 8), dtype=np.float32),
                        events=recording.events[:0])
        write_session(rec, tmp_path / "s")
        assert (tmp_path / "s" / "signal.f32").stat().st_size == 3200

    def test_recording_without_events_rejected_up_front(self, tmp_path):
        """A bundle's meta.pattern comes from the events: without them the
        bundle could not be read back."""
        rec = Recording(fs_hz=25.0, samples=np.zeros((100, 8), dtype=np.float32))
        with pytest.raises(ValidationError, match="needs the recording's events"):
            write_session(rec, tmp_path / "s")
        assert not (tmp_path / "s").exists()

    def test_byte_determinism(self, tmp_path, recording):
        write_session(recording, tmp_path / "a", meta={"seed": 1})
        write_session(recording, tmp_path / "b", meta={"seed": 1})
        for name in ("manifest.json", "signal.f32", "events.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_meta_echo(self, tmp_path, recording):
        meta = {"paradigm": "xp300", "seed": 3}
        write_session(recording, tmp_path / "s", meta=meta)
        manifest = read_manifest(tmp_path / "s")
        pattern = recording.events.pattern.to_json()
        assert manifest["meta"] == {"paradigm": "xp300", "seed": 3, "pattern": pattern}
        assert meta == {"paradigm": "xp300", "seed": 3}  # the caller's dict is not changed


@pytest.fixture(scope="module")
def events():
    """559 events: neither a multiple of 7 nor of the default block of lines."""
    sched = make_xp300_schedule(make_constrained_pattern(6), reps=10, isi_s=0.133,
                                targets=[(1, 1), (3, 4), (6, 6), (2, 5)], seed=7)
    return sched.events[:-1]


class TestEventWriter:
    """``write_events`` writes ``events_jsonl``'s bytes a block of lines per step."""

    @pytest.mark.parametrize("lines", [1, 7, session_io.EVENT_LINES])
    def test_same_bytes_as_events_jsonl(self, events, lines, monkeypatch):
        assert len(events) == 559
        expected = events_jsonl(events).encode()  # at the default block of lines
        monkeypatch.setattr(session_io, "EVENT_LINES", lines)
        file = io.BytesIO()
        steps = sum(1 for _ in session_io.write_events(events, file))
        assert steps == math.ceil(len(events) / lines)
        assert file.getvalue() == expected

    def test_empty_table(self, events):
        file = io.BytesIO()
        assert list(session_io.write_events(events[:0], file)) == []
        assert file.getvalue() == b"" == events_jsonl(events[:0]).encode()

    def test_write_session_holds_a_few_blocks_of_lines(self, tmp_path):
        """Writing 28,000 events (a 4.7 MB file) peaks under eight blocks of
        lines; the whole text, its lines and its encoding took 15 MB."""
        matrix = default_matrix(6)
        targets = [matrix.locate(ch) for ch in "THEQUICKBROWNFOX1234" * 10]
        sched = make_xp300_schedule(make_constrained_pattern(6), reps=10, isi_s=0.133,
                                    targets=targets, seed=0)
        n = int(sched.events.onset_s.max()) + 2  # at 1 Hz, a 130 kB signal
        rec = Recording(fs_hz=1.0, samples=np.zeros((n, 8), dtype=np.float32), events=sched.events)
        tracemalloc.start()
        try:
            write_session(rec, tmp_path / "s")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = (tmp_path / "s" / "events.jsonl").stat().st_size
        assert len(rec.events) == 28000 and size > 4_500_000
        assert peak < 8 * session_io.EVENT_LINES * size / len(rec.events)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        again = read_session(tmp_path / "s")
        assert again.fs_hz == recording.fs_hz
        assert again.channel_names == recording.channel_names
        assert again.samples.dtype == np.float32
        assert np.array_equal(again.samples, recording.samples)
        assert again.events == recording.events

    def test_empty_events(self, tmp_path, recording):
        no_events = recording.events[:0]
        rec = Recording(fs_hz=25.0, samples=np.ones((10, 8), dtype=np.float32), events=no_events)
        write_session(rec, tmp_path / "s")
        again = read_session(tmp_path / "s")
        assert len(again.events) == 0 and again.events == no_events


class TestReadErrors:
    def test_version_mismatch(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        manifest_path = tmp_path / "s" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="version"):
            read_session(tmp_path / "s")

    def test_truncated_signal(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        signal_path = tmp_path / "s" / "signal.f32"
        signal_path.write_bytes(signal_path.read_bytes()[:-8])
        with pytest.raises(BundleError, match="bytes"):
            read_session(tmp_path / "s")

    def test_malformed_event_line_number(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        events_path = tmp_path / "s" / "events.jsonl"
        lines = events_path.read_text().splitlines()
        lines[2] = "{not json"
        events_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BundleError, match="line 3"):
            read_session(tmp_path / "s")

    @pytest.mark.parametrize("field, value, kind", [
        ("slot", "2", "integer"), ("repetition", 0.0, "integer"), ("onset_s", True, "number"),
    ])
    def test_mistyped_number_names_line_and_field(self, tmp_path, recording, field, value, kind):
        write_session(recording, tmp_path / "s")
        events_path = tmp_path / "s" / "events.jsonl"
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        events[2][field] = value
        events_path.write_text("\n" + "".join(json.dumps(e) + "\n" for e in events))
        with pytest.raises(BundleError, match=f"line 4: {field} must be a JSON {kind}, got"):
            read_session(tmp_path / "s")

    @pytest.mark.parametrize("onset", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_onset_names_line(self, tmp_path, recording, onset):
        write_session(recording, tmp_path / "s")
        events_path = tmp_path / "s" / "events.jsonl"
        lines = events_path.read_text().splitlines(keepends=True)
        lines[4] = lines[4].replace('"onset_s":0.532,', f'"onset_s":{onset},')
        events_path.write_text("".join(lines))
        with pytest.raises(BundleError, match="line 5: onset_s must be finite, got"):
            read_session(tmp_path / "s")

    @pytest.mark.parametrize("onset", ["-0.5", "1e6"])
    def test_onset_outside_signal_names_events_file(self, tmp_path, recording, onset):
        write_session(recording, tmp_path / "s")
        events_path = tmp_path / "s" / "events.jsonl"
        lines = events_path.read_text().splitlines(keepends=True)
        lines[4] = lines[4].replace('"onset_s":0.532,', f'"onset_s":{onset},')
        events_path.write_text("".join(lines))
        with pytest.raises(BundleError, match=f"events.jsonl: event at {float(onset)}s lies "
                                              f"outside the recording"):
            read_session(tmp_path / "s")

    @pytest.mark.parametrize("name", ["events.jsonl", "manifest.json"])
    def test_undecodable_file(self, tmp_path, recording, name):
        write_session(recording, tmp_path / "s")
        with open(tmp_path / "s" / name, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        with pytest.raises(BundleError, match=f"{name}: .* can't decode byte 0xff"):
            read_session(tmp_path / "s")

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(BundleError, match="manifest"):
            read_session(tmp_path / "empty")

    @pytest.mark.parametrize("name", ["manifest.json", "signal.f32", "events.jsonl"])
    def test_directory_is_not_a_regular_file(self, tmp_path, recording, name):
        write_session(recording, tmp_path / "s")
        (tmp_path / "s" / name).unlink()
        (tmp_path / "s" / name).mkdir()
        with pytest.raises(BundleError, match=f"{name}: not a regular file"):
            read_session(tmp_path / "s")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("name", ["manifest.json", "signal.f32", "events.jsonl"])
    def test_fifo_exits_3_without_waiting(self, tmp_path, recording, name):
        """Opening a FIFO for reading waits for a writer, so the check comes
        before the open; the CLI runs in a child so a wait fails the test."""
        write_session(recording, tmp_path / "s")
        (tmp_path / "s" / name).unlink()
        os.mkfifo(tmp_path / "s" / name)
        src = str(Path(session_io.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "p300speller.cli", "train", "--session", str(tmp_path / "s"),
             "--out", str(tmp_path / "m")],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert f"{name}: not a regular file" in proc.stderr


@pytest.fixture(scope="module")
def wide_bundle(tmp_path_factory):
    """A 64-channel x 200k-sample bundle (51.2 MB of signal) and its recording."""
    pat = make_constrained_pattern(6)
    events = make_xp300_schedule(pat, reps=1, isi_s=0.133, targets=[(2, 3)], seed=3).events
    samples = np.random.default_rng(3).standard_normal((200_000, 64), dtype=np.float32)
    rec = Recording(fs_hz=2000.0, samples=samples, events=events,
                    channel_names=tuple(f"E{i}" for i in range(64)))
    path = tmp_path_factory.mktemp("wide") / "s"
    write_session(rec, path)
    return path, rec


def _maps(path) -> bool:
    """Whether this process maps ``path``."""
    with open("/proc/self/maps") as fh:
        return os.path.realpath(path) in fh.read()


class TestMappedSignal:
    """read_session maps signal.f32 read-only and copies none of it."""

    def test_read_copies_no_signal(self, wide_bundle):
        path, _ = wide_bundle
        tracemalloc.start()
        try:
            rec = read_session(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6  # the signal alone is 51.2 MB
        assert not rec.samples.flags.writeable

    def test_preprocess_same_bytes_as_in_memory(self, wide_bundle):
        path, written = wide_bundle
        cfg = pipeline.PipelineConfig()
        mapped = pipeline.preprocess(read_session(path), cfg)
        resident = pipeline.preprocess(written, cfg)
        assert mapped.samples.tobytes() == resident.samples.tobytes()

    def test_own_writers_leave_a_mapped_read_alone(self, tmp_path, recording):
        """write_session replaces each file by rename, so a reader's mapping
        keeps the old file; a rewrite in place would change its samples, or
        raise SIGBUS once the file is shorter than the mapping."""
        path = tmp_path / "s"
        write_session(recording, path)
        rec = read_session(path)
        cfg = pipeline.PipelineConfig()
        filtered = pipeline.preprocess(rec, cfg).samples.tobytes()
        other = Recording(fs_hz=recording.fs_hz, samples=np.ones((100, 8), np.float32),
                          events=recording.events[:0])
        write_session(other, path)
        assert read_session(path).n_samples == 100
        assert np.array_equal(rec.samples, recording.samples)
        shutil.rmtree(path)
        assert np.array_equal(rec.samples, recording.samples)
        assert pipeline.preprocess(rec, cfg).samples.tobytes() == filtered

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_commands_release_the_mapping(self, tmp_path):
        """In-process commands unmap what they read: the benchmark runs
        hundreds of them in one process."""
        for name, seed in (("a", "1"), ("b", "2")):
            assert main(["simulate", "--out", str(tmp_path / name), "--seed", seed, "--reps", "3",
                         "--targets", "ABCDEF"]) == 0
        signal = tmp_path / "a" / "signal.f32"
        rec = read_session(tmp_path / "a")
        assert _maps(signal)  # the check can see a mapping
        del rec
        assert not _maps(signal)
        assert main(["train", "--session", str(tmp_path / "a"), "--out", str(tmp_path / "m")]) == 0
        assert not _maps(signal)
        assert main(["eval", "--train-session", str(tmp_path / "a"), "--test-session",
                     str(tmp_path / "b"), "--out", str(tmp_path / "e"), "--swap"]) == 0
        assert not _maps(signal) and not _maps(tmp_path / "b" / "signal.f32")


class TestFormatPinned:
    """The bundles of criterion 10's two ``simulate`` commands, byte for byte
    as the format was written when each event still carried its cells."""

    @pytest.mark.parametrize(
        "argv, events_sha, manifest_sha",
        [
            (["--seed", "5"],
             "1dfaae564c5ff8e2e6a7e7b6e3e2b89c698aff8f8443c258ea773cf0530d5851",
             "e86dc9b2fc1830a7951327a4a74d77a6170c9bacd501aa13ae33db065662e47c"),
            (["--paradigm", "cp300", "--seed", "6"],
             "5c3d96f27641a657ed67e3307f0e58a0c7489032e23508fb3d1b118ce43ef2ca",
             "9ff3dffe5e50da1e9bff88a11f1aa42bf6e7425d67522b02f9f3c86254ed3198"),
        ],
        ids=["xp300", "cp300"],
    )
    def test_sha256(self, tmp_path, argv, events_sha, manifest_sha):
        out = tmp_path / "b"
        assert main(["simulate", "--out", str(out)] + argv + ["--reps", "3", "--targets", "ABCDEF"]) == 0
        for name, sha in (("events.jsonl", events_sha), ("manifest.json", manifest_sha)):
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha, name


def _outcome(read, *args):
    """What ``read(*args)`` returns, or the message of the BundleError it raises."""
    try:
        return read(*args)
    except BundleError as exc:
        return str(exc)


# the JSON types each number field of events.jsonl takes; a dict lookup or
# int() would also take true for 1, 2.0 for 2 and "17" for 17
_NUMBER_TYPES = {"onset_s": {int, float}, "slot": {int}, "char_index": {int},
                 "repetition": {int}, "flash_id": {int}}


def _read_event_lines(path: Path, pattern) -> Events:
    """Parse events.jsonl line by line, checking each line's fields and its
    cells against the pattern: the reference reader that ``_read_events``
    must agree with."""
    cells = session_io._cells_by_key(pattern)
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
        events = Events(pattern, **columns)
    except OverflowError as exc:
        raise BundleError(f"{path}: an integer field is out of range ({exc})") from exc
    infinite = np.flatnonzero(~np.isfinite(events.onset_s))
    if infinite.size:
        i = infinite[0]
        raise BundleError(f"{path} line {linenos[i]}: onset_s must be finite, "
                          f"got {columns['onset_s'][i]!r}")
    return events


def _onset_line(line: str, onset: str) -> str:
    return line.replace('"onset_s":0.133,', f'"onset_s":{onset},')


def _edit_first(lines: list, old: str, new: str) -> list:
    """``lines`` with ``old`` replaced by ``new`` in the first line holding it."""
    i = next(i for i, line in enumerate(lines) if old in line)
    return lines[:i] + [lines[i].replace(old, new)] + lines[i + 1:]


def _cells(lines: list, block: str) -> str:
    """The cells text of the first line of ``block`` ("row" or "col")."""
    line = next(line for line in lines if f'"block":"{block}"' in line)
    return re.search(r'"cells":(\[[][0-9,]*\]),', line).group(1)


# (id, edit of the lines of a canonical events.jsonl): each yields a file the
# per-line reader accepts in another spelling, or rejects
LINE_EDITS = [
    ("blank-line", lambda lines: lines[:3] + ["\n"] + lines[3:]),
    ("no-final-newline", lambda lines: lines[:-1] + [lines[-1].rstrip("\n")]),
    ("crlf", lambda lines: [line.replace("\n", "\r\n") for line in lines]),
    ("spaced", lambda lines: [json.dumps(json.loads(lines[0])) + "\n"] + lines[1:]),
    ("unsorted", lambda lines: [json.dumps(dict(reversed(json.loads(lines[0]).items())),
                                           separators=(",", ":")) + "\n"] + lines[1:]),
    ("extra-key", lambda lines: [lines[0].replace("{", '{"a":1,', 1)] + lines[1:]),
    ("escaped-block", lambda lines: [lines[0].replace('"row"', '"r\\u006fw"')] + lines[1:]),
    ("exponent-onset", lambda lines: [lines[0], _onset_line(lines[1], "1.33E-1")] + lines[2:]),
    ("integer-onset", lambda lines: [lines[0].replace('"onset_s":0.0,', '"onset_s":0,')]
     + lines[1:]),
    ("negative-zero-onset", lambda lines: [lines[0].replace('"onset_s":0.0,', '"onset_s":-0,')]
     + lines[1:]),
    ("nan-onset", lambda lines: [lines[0], _onset_line(lines[1], "NaN")] + lines[2:]),
    ("overflowing-onset", lambda lines: [lines[0], _onset_line(lines[1], "1e400")] + lines[2:]),
    ("non-ascii-digit", lambda lines: [lines[0].replace('"slot":0}', '"slot":\u0660}')]
     + lines[1:]),
    ("leading-zero", lambda lines: [lines[0].replace('"slot":0}', '"slot":00}')] + lines[1:]),
    ("int64-overflow", lambda lines: [lines[0].replace('"slot":0}', '"slot":9' + "9" * 19 + "}")]
     + lines[1:]),
    ("text-slot", lambda lines: [lines[0].replace('"slot":0}', '"slot":"0"}')] + lines[1:]),
    ("other-flash-cells", lambda lines: [lines[0].replace('"flash_id":6', '"flash_id":3')]
     + lines[1:]),
    ("flash-as-pause", lambda lines: [lines[0].replace('"kind":"flash"', '"kind":"pause"')]
     + lines[1:]),
    ("title-case-bool", lambda lines: [lines[0].replace("false", "False", 1)] + lines[1:]),
    ("trailing-comma-cells", lambda lines: [lines[0].replace("]],", "],],", 1)] + lines[1:]),
    ("leading-zero-flash-id", lambda lines: [lines[0].replace('"flash_id":6', '"flash_id":06')]
     + lines[1:]),
    ("float-slot", lambda lines: [lines[0], lines[1].replace('"slot":1}', '"slot":1.0}')]
     + lines[2:]),
    ("missing-key", lambda lines: [lines[0], lines[1].replace(',"slot":1}', "}")] + lines[2:]),
    ("array-line", lambda lines: [lines[0], "[1, 2]\n"] + lines[2:]),
    ("form-feed", lambda lines: [lines[0].replace("}\n", "}\f\n")] + lines[1:]),
    ("integer-target", lambda lines: [lines[0].replace('"is_target":false', '"is_target":0')]
     + lines[1:]),
    ("negative-slot", lambda lines: [lines[0].replace('"slot":0}', '"slot":-1}')] + lines[1:]),
    ("int64-max-slot", lambda lines: [lines[0].replace('"slot":0}', f'"slot":{2**63 - 1}}}')]
     + lines[1:]),
    ("int64-max-plus-one-slot", lambda lines: [lines[0].replace('"slot":0}', f'"slot":{2**63}}}')]
     + lines[1:]),
    ("lowercase-exponent-onset", lambda lines: [lines[0], _onset_line(lines[1], "1.33e-1")]
     + lines[2:]),
    ("negative-zero-float-onset",
     lambda lines: [lines[0].replace('"onset_s":0.0,', '"onset_s":-0.0,')] + lines[1:]),
    ("flash-id-past-n", lambda lines: [lines[0].replace('"flash_id":6', '"flash_id":7')]
     + lines[1:]),
    ("pause-as-flash", lambda lines: _edit_first(lines, '"kind":"pause"', '"kind":"flash"')),
    ("row-flash-with-column-cells",
     lambda lines: _edit_first(lines, _cells(lines, "row"), _cells(lines, "col"))),
]


class TestCanonicalReader:
    """A file of the writer's canonical lines is checked by one line regex
    and read by numpy at its colons; every file gives what the per-line
    reader gives."""

    @pytest.fixture()
    def canonical(self, tmp_path, recording):
        write_session(recording, tmp_path / "s")
        return tmp_path / "s" / "events.jsonl", recording.events.pattern

    @pytest.mark.parametrize("edit", [edit for _, edit in LINE_EDITS],
                             ids=[name for name, _ in LINE_EDITS])
    def test_same_outcome_as_per_line_reader(self, canonical, edit):
        path, pattern = canonical
        text = path.read_text()
        edited = "".join(edit(text.splitlines(keepends=True)))
        assert edited != text
        path.write_text(edited, newline="")
        per_line = _outcome(_read_event_lines, path, pattern)
        assert _outcome(session_io._read_events, path, pattern) == per_line

    @pytest.mark.parametrize("first, second, message", [
        (lambda line: line.replace('"kind":"flash"', '"kind":"pause"'),
         lambda line: line.replace('"slot":3}', '"slot":"3"}'),
         "line 4: slot must be a JSON integer, got '3'"),
        (lambda line: line.replace('"slot":0}', '"slot":9' + "9" * 19 + "}"),
         lambda line: line.replace('"flash_id":5', '"flash_id":3'),
         "line 4: cells [[1, 5], [2, 6], [3, 1], [4, 2], [5, 3], [6, 4]] differ from "
         "[[1, 3], [2, 4], [3, 5], [4, 6], [5, 1], [6, 2]], which the pattern in meta lights "
         "for ['flash', 'row', 3]"),
        (lambda line: line.replace('"onset_s":0.0,', '"onset_s":NaN,'),
         lambda line: line.replace('"slot":3}', '"slot":-9' + "9" * 19 + "}"),
         "an integer field is out of range"),
    ], ids=["mistyped-before-key", "key-before-range", "range-before-finite"])
    def test_fault_order(self, canonical, first, second, message):
        """In a file with several faults, the one reported is the first line
        that is not JSON or lacks or mistypes a field; then the first whose
        key or cells the pattern does not hold; then an integer out of int64
        range; then the first non-finite onset."""
        path, pattern = canonical
        lines = path.read_text().splitlines(keepends=True)
        lines[0], lines[3] = first(lines[0]), second(lines[3])
        path.write_text("".join(lines))
        with pytest.raises(BundleError, match=re.escape(message)):
            session_io._read_events(path, pattern)

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line.replace('"flash_id":6', '"flash_id":6.0'),
         "line 1: kind, block and flash_id ['flash', 'row', 6.0] name neither a pause nor a "
         "flash of the pattern in meta"),
        (lambda line: line.replace("[[1,6],", "[[1.0,6],"),
         "line 1: cells [[1.0, 6], [2, 1], [3, 2], [4, 3], [5, 4], [6, 5]] differ from "
         "[[1, 6], [2, 1], [3, 2], [4, 3], [5, 4], [6, 5]], which the pattern in meta lights "
         "for ['flash', 'row', 6]"),
    ], ids=["float-flash-id", "float-cell"])
    def test_key_fields_compared_as_canonical_text(self, canonical, edit, message):
        """A key field must be the writer's JSON text: ``6.0`` is not the
        flash ``6``, though the per-line reader's ``==`` took it for one."""
        path, pattern = canonical
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([edit(lines[0])] + lines[1:]))
        with pytest.raises(BundleError, match=re.escape(message)):
            session_io._read_events(path, pattern)

    def test_integer_past_the_digit_limit(self, canonical):
        """A canonical line may hold more digits than ``int()`` converts."""
        path, pattern = canonical
        lines = path.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace('"slot":0}', '"slot":' + "9" * 5000 + "}")
        path.write_text("".join(lines))
        with pytest.raises(BundleError, match="an integer field is out of range .*4300 digits"):
            session_io._read_events(path, pattern)

    @pytest.mark.parametrize("bundle", ["xp300", "cp300", "12x12"])
    def test_no_json_loads_for_a_simulated_bundle(self, tmp_path, monkeypatch, bundle):
        """Only the manifest goes through ``json.loads``, and the array lane
        reads the events: a writer whose lines stopped matching the canonical
        form would send every read to the per-line reader, one call per
        event, and a fault in the array lane would send the file to the
        field texts.  A 12x12 grid's cells texts differ in length."""
        out = tmp_path / "b"
        if bundle == "12x12":
            sched = make_xp300_schedule(make_constrained_pattern(12), reps=2, isi_s=0.133,
                                        targets=[(1, 12), (12, 1), (7, 9)], seed=4)
            n_samples = int(sched.events.onset_s.max() * 25) + 1
            write_session(Recording(fs_hz=25.0, samples=np.zeros((n_samples, 8), np.float32),
                                    events=sched.events), out)
        else:
            assert main(["simulate", "--out", str(out), "--seed", "5", "--reps", "3",
                         "--targets", "ABCDEF", "--paradigm", bundle]) == 0
        calls, taken = [], []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append(text) or loads(text))
        lane = session_io._canonical_events
        monkeypatch.setattr(session_io, "_canonical_events",
                            lambda *args: taken.append(lane(*args)) or taken[-1])
        rec = read_session(out)
        assert len(calls) == 1
        assert len(rec.events) == {"xp300": 252, "cp300": 216, "12x12": 156}[bundle]
        assert len(taken) == 1 and taken[0] is rec.events
        lines = (out / "events.jsonl").read_text().splitlines(keepends=True)
        lines[7] = json.dumps(json.loads(lines[7])) + "\n"
        (out / "events.jsonl").write_text("".join(lines))
        calls.clear()
        assert read_session(out).events == rec.events
        assert len(calls) == 1 + len(lines)

    @pytest.mark.parametrize("window", [1, 300, session_io._CHECK_BYTES])
    @pytest.mark.parametrize("edit", [
        lambda lines: lines,
        lambda lines: lines[:-1] + [lines[-1].rstrip("\n")],
        lambda lines: lines[:-1] + [lines[-1].replace('"slot":', '"slot": ')],
        lambda lines: lines[:1] + [lines[1].replace('"slot":1}', '"slot":' + "9" * 400 + "}")]
        + lines[2:],
    ], ids=["canonical", "no-final-newline", "last-line-spaced", "line-longer-than-a-window"])
    def test_check_window_does_not_change_the_outcome(self, canonical, monkeypatch, window, edit):
        """The line regex runs over windows of whole lines; a line longer
        than the window is a window of its own."""
        path, pattern = canonical
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        expected = _outcome(session_io._read_events, path, pattern)
        monkeypatch.setattr(session_io, "_CHECK_BYTES", window)
        assert _outcome(session_io._read_events, path, pattern) == expected
        assert expected == _outcome(_read_event_lines, path, pattern)

    def test_reads_keep_no_state_per_pattern(self, tmp_path):
        """Reading 20 bundles of distinct patterns leaves under 100 kB traced:
        a line regex built from each pattern's key texts would stay in
        ``re``'s cache, about 160 kB each."""
        rng = np.random.default_rng(2)
        paths = []
        for i in range(21):
            pattern = make_constrained_pattern(6 + i % 7, rng.permutation(6 + i % 7) + 1,
                                               rng.permutation(6 + i % 7) + 1)
            sched = make_xp300_schedule(pattern, reps=1, isi_s=0.133, targets=[(1, 2), (3, 3)],
                                        seed=i)
            rec = Recording(fs_hz=25.0, samples=np.zeros((200, 8), np.float32), events=sched.events)
            write_session(rec, tmp_path / str(i))
            paths.append(tmp_path / str(i))
        assert len({json.dumps(read_manifest(path)["meta"]["pattern"]) for path in paths}) == 21
        read_session(paths[0])  # compiles the line regex once
        gc.collect()
        tracemalloc.start()
        try:
            for path in paths[1:]:
                read_session(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 100_000

    def test_peak_memory_of_a_read_is_a_few_file_sizes(self, tmp_path):
        """Reading 28,000 events (a 4.7 MB file) peaks under four times the
        file (2.9 measured: the file, a byte mask, and each field's start
        and end); one ``(?:line)*`` match over the whole file adds about ten
        times it in backtracking state."""
        matrix = default_matrix(6)
        targets = [matrix.locate(ch) for ch in "THEQUICKBROWNFOX1234" * 10]
        sched = make_xp300_schedule(make_constrained_pattern(6), reps=10, isi_s=0.133,
                                    targets=targets, seed=0)
        path = tmp_path / "events.jsonl"
        path.write_text(events_jsonl(sched.events))
        tracemalloc.start()
        try:
            events = session_io._read_events(path, sched.events.pattern)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(events) == 28000 and events == sched.events
        assert peak < 4 * path.stat().st_size


SCHEDULES = st.fixed_dictionaries({
    "paradigm": st.sampled_from(["cp300", "xp300"]),
    "n": st.integers(3, 7),
    "reps": st.integers(1, 3),
    "isi_s": st.sampled_from([0.1, 0.133, 0.2, 0.0625]) | st.floats(0.01, 0.5),
    "gap_s": st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
    "n_targets": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
    "fs_hz": st.sampled_from([250.0, 2000.0]),
})


@given(SCHEDULES)
@SETTINGS
def test_schedule_round_trip(tmp_path_factory, spec):
    n = spec["n"]
    targets = [(1 + i % n, 1 + (3 * i) % n) for i in range(spec["n_targets"])]
    if spec["paradigm"] == "cp300":
        make, pattern = make_cp300_schedule, make_rc_pattern(n)
    else:
        make, pattern = make_xp300_schedule, make_constrained_pattern(n)
    events = make(pattern, spec["reps"], spec["isi_s"], targets, seed=spec["seed"],
                  inter_char_gap_s=spec["gap_s"]).events
    n_samples = math.ceil(float(events.onset_s.max()) * spec["fs_hz"]) + 1
    rec = Recording(fs_hz=spec["fs_hz"], samples=np.zeros((n_samples, 1), np.float32),
                    channel_names=("Cz",), events=events)
    path = tmp_path_factory.mktemp("bundle")
    write_session(rec, path)
    canonical = session_io._read_events(path / "events.jsonl", pattern)
    assert canonical == events
    assert canonical == _read_event_lines(path / "events.jsonl", pattern)
    assert canonical == _read_respaced(path / "events.jsonl", pattern)
    assert read_session(path).events == events
    assert events_jsonl(canonical) == (path / "events.jsonl").read_text()


def _read_respaced(path: Path, pattern) -> Events:
    """``_read_events`` of a copy of ``path`` that ``json.dumps`` rewrote with
    its default spacing and each line's keys reversed, so no line of it is
    canonical."""
    copy = path.with_name("respaced.jsonl")
    copy.write_text("".join(json.dumps(dict(reversed(json.loads(line).items()))) + "\n"
                            for line in path.read_text().splitlines()))
    return session_io._read_events(copy, pattern)


@st.composite
def event_tables(draw):
    pattern = make_constrained_pattern(draw(st.integers(3, 5)))
    size = draw(st.integers(0, 30))
    integers = st.lists(st.integers(-2**63, 2**63 - 1), min_size=size, max_size=size)
    blocks = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=size, max_size=size))
    flash_ids = [0 if block < 0 else draw(st.integers(1, pattern.n)) for block in blocks]
    return Events(
        pattern,
        onset_s=draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                              min_size=size, max_size=size)),
        slot=draw(integers),
        char_index=draw(integers),
        repetition=draw(integers),
        block=blocks,
        flash_id=flash_ids,
        is_target=draw(st.lists(st.booleans(), min_size=size, max_size=size)),
    )


@given(event_tables())
@SETTINGS
def test_any_event_table_round_trip(tmp_path_factory, events):
    """Any finite onsets and any int64 counters survive the canonical pass as
    they survive ``json.loads``."""
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    path.write_text(events_jsonl(events))
    canonical = session_io._read_events(path, events.pattern)
    assert canonical == events
    assert canonical == _read_event_lines(path, events.pattern)
    assert canonical == _read_respaced(path, events.pattern)
