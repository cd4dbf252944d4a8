"""Per-layer spans and counts for the traced pass.

The tracer wraps the package's public functions from outside: each entry
of ``PATCHES`` names the module attribute through which a caller looks the
function up (``dsp.filter_recording`` as called from ``pipeline``,
``atomic_write`` as imported into ``cli``), so the program's own code is
unchanged.  Every call records a span (name, start, end, parent span,
command id); counters are bumped at the same boundaries.  Spans stay in
memory until the pass ends.

A layer's self time is its span's duration minus the durations of its
child spans; calls nest strictly because everything runs on one thread.
"""

import functools
import os
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _bulk_bytes(path) -> int:
    # the manifest is left out: its size varies with the digits of the targets
    return sum(os.path.getsize(Path(path) / name) for name in ("signal.f32", "events.jsonl"))


def _count_read_session(counts, args, result):
    counts["session_io.read_session_calls"] += 1
    counts["session_io.events_parsed"] += len(result.events)
    counts["session_io.bytes_read"] += _bulk_bytes(args[0])


def _count_write_session(counts, args, result):
    counts["session_io.bytes_written"] += _bulk_bytes(args[1])


def _count_preprocess(counts, args, result):
    counts["pipeline.preprocess_calls"] += 1


def _count_filter(counts, args, result):
    rec = args[1]
    counts["dsp.filter_recording_calls"] += 1
    counts["dsp.samples_filtered"] += rec.n_samples * rec.n_channels


def _count_blda(counts, args, result):
    counts["blda.iterations"] += result.iterations


# (module, attribute the caller looks up, span name, counter)
PATCHES = [
    ("session_io", "read_session", "session_io.read_session", _count_read_session),
    ("session_io", "read_manifest", "session_io.read_manifest", None),
    ("session_io", "write_session", "session_io.write_session", _count_write_session),
    ("session_io", "atomic_write", "session_io.atomic_write", None),
    ("cli", "atomic_write", "cli.atomic_write", None),
    ("cli", "decisions_csv", "cli.decisions_csv", None),
    ("synth", "synthesize_session", "synth.synthesize_session", None),
    ("scheduler", "make_cp300_schedule", "scheduler.make_schedule", None),
    ("scheduler", "make_xp300_schedule", "scheduler.make_schedule", None),
    ("scheduler", "validate_pattern", "patterns.validate_pattern", None),
    ("pipeline", "evaluate", "pipeline.evaluate", None),
    ("pipeline", "train_models", "pipeline.train_models", None),
    ("pipeline", "score_session", "pipeline.score_session", None),
    ("pipeline", "preprocess", "pipeline.preprocess", _count_preprocess),
    ("pipeline", "schedule_from_bundle", "pipeline.schedule_from_bundle", None),
    ("dsp", "design_bandpass", "dsp.design_bandpass", None),
    ("dsp", "filter_recording", "dsp.filter_recording", _count_filter),
    ("dsp", "decimate", "dsp.decimate", None),
    ("dsp", "extract_epochs", "dsp.extract_epochs", None),
    ("xdawn", "fit_xdawn", "xdawn.fit_xdawn", None),
    ("xdawn", "apply_spatial_filter", "xdawn.apply_spatial_filter", None),
    ("blda", "fit_blda", "blda.fit_blda", _count_blda),
    ("blda", "score", "blda.score", None),
    ("decoder", "decode_characters", "decoder.decode_characters", None),
    ("decoder", "accuracy_by_repetition", "decoder.accuracy_by_repetition", None),
    ("metrics", "roc", "metrics.roc", None),
    ("metrics", "itr_bpm", "metrics.itr_bpm", None),
]

# per-layer metric -> (command kind it is taken per, spans whose self times
# are summed, or the counter it reads, and the counter's scale)
LAYER_METRICS = {
    "session_io.read_session_ms": ("eval", ["session_io.read_session", "session_io.read_manifest"]),
    "session_io.read_session_calls": ("eval", "session_io.read_session_calls", 1),
    "session_io.events_parsed": ("eval", "session_io.events_parsed", 1),
    "session_io.bytes_read_mb": ("eval", "session_io.bytes_read", 1e-6),
    "session_io.write_session_ms": ("simulate", ["session_io.write_session", "session_io.atomic_write"]),
    "session_io.bytes_written_mb": ("simulate", "session_io.bytes_written", 1e-6),
    "synth.synthesize_session_ms": ("simulate", ["synth.synthesize_session"]),
    "scheduler.make_schedule_ms": ("simulate", ["scheduler.make_schedule"]),
    "patterns.validate_pattern_ms": ("simulate", ["patterns.validate_pattern"]),
    "pipeline.preprocess_calls": ("eval", "pipeline.preprocess_calls", 1),
    "pipeline.schedule_from_bundle_ms": ("eval", ["pipeline.schedule_from_bundle"]),
    "dsp.design_bandpass_ms": ("eval", ["dsp.design_bandpass"]),
    "dsp.filter_recording_ms": ("eval", ["dsp.filter_recording"]),
    "dsp.filter_recording_calls": ("eval", "dsp.filter_recording_calls", 1),
    "dsp.samples_filtered": ("eval", "dsp.samples_filtered", 1),
    "dsp.decimate_ms": ("eval", ["dsp.decimate"]),
    "dsp.extract_epochs_ms": ("eval", ["dsp.extract_epochs"]),
    "xdawn.fit_xdawn_ms": ("train", ["xdawn.fit_xdawn"]),
    "xdawn.apply_spatial_filter_ms": ("eval", ["xdawn.apply_spatial_filter"]),
    "blda.fit_blda_ms": ("train", ["blda.fit_blda"]),
    "blda.iterations": ("train", "blda.iterations", 1),
    "blda.score_ms": ("eval", ["blda.score"]),
    "decoder.decode_characters_ms": ("eval", ["decoder.decode_characters"]),
    "decoder.accuracy_by_repetition_ms": ("eval", ["decoder.accuracy_by_repetition"]),
    "metrics.roc_ms": ("eval", ["metrics.roc"]),
    "cli.write_outputs_ms": ("eval", ["cli.atomic_write", "cli.decisions_csv", "metrics.itr_bpm"]),
}


class Tracer:
    """Records spans and counts for the calls made during one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index, command id]
        self.counts = defaultdict(lambda: defaultdict(int))  # command id -> counter -> value
        self.kinds = {}  # command id -> command kind
        self._stack = []
        self._command = None
        self._undo = []

    def install(self, modules: dict) -> None:
        for module_name, attr, span_name, counter in PATCHES:
            module = modules[module_name]
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, counter))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def command(self, command_id: int, kind: str):
        """Context manager: one root span for everything a command causes."""
        self.kinds[command_id] = kind
        self._command = command_id
        return _Span(self, kind)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(self, name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts[self._command], args, result)
            return result

        return traced

    def self_times_ms(self) -> dict:
        """command id -> span name -> summed self time in ms."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, command) in enumerate(self.spans):
            out[command][name] += (end - start - child_ns[i]) / 1e6
        return out

    def layer_metrics(self) -> dict:
        """Median over the run's commands of each per-layer figure.

        A time is taken over the commands of its kind in which the layer
        ran (``patterns.validate_pattern`` runs for xp300 sessions only); a
        count over every command of its kind.
        """
        self_ms = self.self_times_ms()
        out = {}
        for metric, (kind, *source) in LAYER_METRICS.items():
            commands = [c for c, k in self.kinds.items() if k == kind]
            if isinstance(source[0], list):
                values = [
                    sum(self_ms[c].get(name, 0.0) for name in source[0])
                    for c in commands
                    if any(name in self_ms[c] for name in source[0])
                ]
            else:
                counter, scale = source
                values = [self.counts[c][counter] * scale for c in commands]
            out[metric] = statistics.median(values) if values else 0.0
        return out

    def dump(self) -> dict:
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "command": c}
                for n, s, e, p, c in self.spans
            ],
            "commands": {str(c): k for c, k in self.kinds.items()},
            "counts": {str(c): dict(v) for c, v in self.counts.items()},
        }


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), None, parent, t._command])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()
        return False
