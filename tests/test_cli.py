import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from p300speller import patterns, pipeline, scheduler, session_io, synth
from p300speller.cli import main
from p300speller.metrics import itr_bpm
from p300speller.patterns import FlashPattern, make_constrained_pattern
from p300speller.scheduler import COLUMNS, Events
from p300speller.session_io import events_jsonl, read_manifest, read_session

FAST_SIM = ["--reps", "3", "--targets", "ABCDEF"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bundle_bytes(path):
    return {
        name: (path / name).read_bytes()
        for name in ("manifest.json", "signal.f32", "events.jsonl")
    }


class TestPattern:
    def test_rc_prints_reference_matrices(self, capsys):
        code, out, _ = run(["pattern", "--kind", "rc", "--n", "6"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["r_hat"] == [[i] * 6 for i in range(1, 7)]
        assert obj["c_hat"] == [list(range(1, 7))] * 6

    def test_deterministic_with_seed(self, capsys):
        a = run(["pattern", "--kind", "constrained", "--n", "6", "--seed", "1"], capsys)
        b = run(["pattern", "--kind", "constrained", "--n", "6", "--seed", "1"], capsys)
        assert a == b and a[0] == 0

    def test_constrained_n2_exits_2(self, capsys):
        code, _, err = run(["pattern", "--kind", "constrained", "--n", "2"], capsys)
        assert code == 2
        assert "n >= 3" in err

    @pytest.mark.parametrize("n", [-1, 0, 2])
    def test_small_constrained_n_with_seed_exits_2(self, capsys, n):
        code, _, err = run(["pattern", "--kind", "constrained", "--n", str(n), "--seed", "1"],
                           capsys)
        assert code == 2
        assert err.startswith(f"error: constrained construction needs n >= 3 (got {n})")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["rc", "permuted", "constrained"])
    def test_n_above_the_ceiling_exits_2_before_allocating(self, capsys, kind):
        # --n 100,000 once asked numpy for 74.5 GiB and exited 1 with a traceback
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(["pattern", "--kind", kind, "--n", "100000", "--seed", "1"],
                                 capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f"error: --n must be at most {patterns.MAX_N}, got 100000\n"
        assert peak < 1e6
        code, out, _ = run(["pattern", "--kind", kind, "--n", str(patterns.MAX_N), "--seed", "1"],
                           capsys)
        assert code == 0 and json.loads(out)["n"] == patterns.MAX_N

    def test_permuted_without_seed_exits_2(self, capsys):
        code, out, err = run(["pattern", "--kind", "permuted", "--n", "4"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --seed is required for kind 'permuted'\n"

    def test_constrained_draws_pi_r_then_pi_c(self, capsys):
        code, out, _ = run(["pattern", "--kind", "constrained", "--n", "6", "--seed", "3"], capsys)
        rng = np.random.default_rng(3)
        expected = make_constrained_pattern(6, rng.permutation(6) + 1, rng.permutation(6) + 1)
        assert code == 0
        assert json.loads(out) == expected.to_json()

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "p.json"
        code, _, _ = run(
            ["pattern", "--kind", "permuted", "--n", "4", "--seed", "9", "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        assert json.loads(out_file.read_text())["kind"] == "permuted"


class TestSimulate:
    def test_default_protocol(self, tmp_path, capsys):
        code, out, _ = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1"], capsys
        )
        assert code == 0
        meta = read_manifest(tmp_path / "s")["meta"]
        assert meta["paradigm"] == "xp300"
        assert meta["reps"] == 10
        assert meta["isi_s"] == 0.133
        assert len(meta["target_text"]) == 20
        assert meta["slots_per_repetition"] == 14

    def test_cp300_slots(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", "--paradigm", "cp300", "--out", str(tmp_path / "s"), "--seed", "1"]
            + FAST_SIM,
            capsys,
        )
        assert code == 0
        meta = read_manifest(tmp_path / "s")["meta"]
        assert meta["slots_per_repetition"] == 12
        assert meta["pattern"]["kind"] == "classical"

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        args = ["simulate", "--out", None, "--seed", "7"] + FAST_SIM
        for name in ("a", "b"):
            args[2] = str(tmp_path / name)
            assert run(args, capsys)[0] == 0
        assert bundle_bytes(tmp_path / "a") == bundle_bytes(tmp_path / "b")

    def test_reps_above_the_event_ceiling_exits_2_before_allocating(self, tmp_path, capsys):
        # once 4 x 10^10 permutation calls, every result held until memory ran out
        import tracemalloc

        tracemalloc.start()
        try:
            code, out, err = run(["simulate", "--out", str(tmp_path / "s"), "--seed", "1",
                                  "--reps", "1000000000"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: 20 characters x reps 1000000000 make 280000000000 events, "
                       f"more than the {scheduler.MAX_EVENTS} allowed\n")
        assert peak < 1e6
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["simulate", "train"])
    def test_filter_order_above_the_ceiling_exits_2_before_allocating(self, tmp_path, capsys,
                                                                      command):
        """Order 100,000 once asked filter_recording's operators for 298 GiB
        in train, and simulate wrote a bundle that train could not use."""
        import tracemalloc

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 1, "target_text": "AB", "synth": {"fs_hz": 250}}))
        argv = ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)]
        if command == "train":
            assert main(argv) == 0
            argv = ["train", "--session", str(tmp_path / "s"), "--out", str(tmp_path / "m"),
                    "--config", str(cfg)]
        capsys.readouterr()
        cfg.write_text(json.dumps({"reps": 1, "target_text": "AB", "synth": {"fs_hz": 250},
                                   "pipeline": {"filter_order": 100000}}))
        tracemalloc.start()
        try:
            code, out, err = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == "error: filter_order must be at most 100, got 100000\n"
        assert peak < 1e6
        assert not (tmp_path / ("s" if command == "simulate" else "m")).exists()

    def test_signal_above_the_ceiling_exits_2_before_allocating(self, tmp_path, capsys):
        """At 20 MHz the default protocol once built response kernels until it
        ended in a MemoryError (exit 1), on its way to a 240 GB signal.f32."""
        import tracemalloc

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"fs_hz": 2e7}}))
        tracemalloc.start()
        try:
            code, out, err = run(["simulate", "--out", str(tmp_path / "s"), "--seed", "1",
                                  "--config", str(cfg)], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == ("error: fs_hz 20000000.0 Hz and a 373.3 s session make 7.465e+09 "
                       f"samples x 8 channels, more than the {synth.MAX_SIGNAL_VALUES} values "
                       "allowed\n")
        assert peak < 1e6
        assert not (tmp_path / "s").exists()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--out", str(tmp_path / "s")])

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"unknown_knob": 1}')
        code, _, err = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "unknown_knob" in err

    @pytest.mark.parametrize("raw, message", [
        ('{"n": 6,\n', "{cfg}: invalid JSON at line 2"),
        ('[{"n": 6}]', "{cfg}: config must be a JSON object"),
        ('{"synth": {"fs_hz": 20}}', "high band edge 12.5 Hz is at or above Nyquist (10.0 Hz)"),
        ('{"synth": {"fs_hz": 250.5}}',
         "sampling rate 250.5 Hz is not an integer multiple of 25.0 Hz"),
        ('{"pipeline": {"low_hz": 20.0}}', "need 0 < low_hz < high_hz"),
        ('{"pipeline": {"filter_order": 0}}', "filter order must be >= 1, got 0"),
        ('{"synth": {"fs_hz": 250}, "pipeline": {"filter_order": 60}}',
         "filter_order 60 has no finite design for 1.0-12.5 Hz at 250 Hz (its gain is nan)"),
    ], ids=["not-json", "array", "rate-below-band", "rate-not-decimable", "low-above-high",
            "order-0", "filter_order-without-a-finite-design"])
    def test_unusable_config_exits_2(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        code, _, err = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert err == f"error: {message.format(cfg=cfg)}\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("raw, line, byte", [(b"\xff\xfe{", 1, 0),
                                                 (b'{\n"target_text": "\xe9"}', 2, 18)],
                             ids=["first-byte", "second-line"])
    def test_non_utf8_config_exits_2(self, tmp_path, capsys, raw, line, byte):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        code, _, err = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert err == f"error: {cfg}: not UTF-8 text at line {line} (invalid " \
                      f"{'start' if byte == 0 else 'continuation'} byte at byte {byte})\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "config",
        [{"n": 1}, {"reps": 0}, {"isi_s": 0}, {"target_text": ""}, {"pattern_kind": "foo"},
         {"synth": {"onset_jitter_s": -1}}, {"inter_char_gap_s": -1},
         {"flash_duration_s": -0.05}, {"isi_s": float("nan")}, {"synth": {"fs_hz": float("inf")}},
         {"synth": {"background_sigma_uv": -1}}, {"synth": {"alpha_amp_uv": -1}},
         {"synth": {"visual_response_scale": -1}}, {"n": 7},
         {"pipeline": {"fs_out_hz": 1e-320}}],
    )
    def test_out_of_range_config_exits_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ")
        assert not (tmp_path / "s").exists()

    def test_grid_above_6x6_names_the_limit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 12}))
        code, _, err = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert "6x6 alphanumeric grid" in err and "n <= 6, got n=12" in err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--out", "s", "--seed", "-1"],
         ["pattern", "--kind", "permuted", "--n", "4", "--seed", "-1"]],
    )
    def test_negative_seed_rejected_by_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [({"reps": "10"}, "reps"), ({"reps": 2.0}, "reps"), ({"target_text": 5}, "target_text"),
         ({"isi_s": "x"}, "isi_s"), ({"n": 2.5}, "n"), ({"paradigm": None}, "paradigm"),
         ({"synth": {"fs_hz": "2000"}}, "fs_hz"),
         ({"synth": {"blink_enabled": "no"}}, "blink_enabled"),
         ({"pipeline": {"n_f": 2.0}}, "n_f"), ({"pipeline": {"n_f": True}}, "n_f"),
         ({"pipeline": {"low_hz": "1"}}, "low_hz"), ({"synth": [1]}, "synth")],
    )
    def test_mistyped_config_exits_2(self, session_pair, tmp_path, capsys, config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        commands = [["simulate", "--out", str(tmp_path / "s"), "--seed", "1"],
                    ["train", "--session", str(session_pair / "a"), "--out", str(tmp_path / "m")]]
        for argv in commands:
            code, _, err = run(argv + ["--config", str(cfg)], capsys)
            assert code == 2
            assert err.startswith("error: ") and repr(key) in err
        assert not (tmp_path / "s").exists() and not (tmp_path / "m").exists()

    def test_integer_for_float_echoed_unchanged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"fs_hz": 250}, "isi_s": 0.15, "reps": 5}))
        code, _, _ = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg),
             "--reps", "2", "--targets", "AB"],
            capsys,
        )
        assert code == 0
        manifest = read_manifest(tmp_path / "s")
        assert manifest["meta"]["config"]["synth"]["fs_hz"] == 250
        assert json.dumps(manifest["fs_hz"]) == "250"
        assert manifest["meta"]["reps"] == 2  # the flag overrides the file
        assert manifest["meta"]["isi_s"] == 0.15

    def test_config_file_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"reps": 2, "target_text": "XY",
                                   "synth": {"background_sigma_uv": 0.5}}))
        code, _, _ = run(
            ["simulate", "--out", str(tmp_path / "s"), "--seed", "1", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        meta = read_manifest(tmp_path / "s")["meta"]
        assert meta["reps"] == 2
        assert meta["config"]["synth"]["background_sigma_uv"] == 0.5


@pytest.fixture()
def no_filtering(monkeypatch):
    """Fail the test if pipeline.preprocess is reached: every check of the
    bundles must come before any filtering."""
    def preprocess(rec, cfg):
        raise AssertionError("a bundle was filtered before every check was made")
    monkeypatch.setattr(pipeline, "preprocess", preprocess)


@pytest.fixture(scope="module")
def session_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("sessions")
    for name, seed in (("a", 1), ("b", 2)):
        code = main(
            ["simulate", "--out", str(root / name), "--seed", str(seed)] + FAST_SIM
        )
        assert code == 0
    return root


class TestTrain:
    def test_writes_models(self, session_pair, tmp_path, capsys):
        code, out, _ = run(
            ["train", "--session", str(session_pair / "a"), "--out", str(tmp_path / "m")],
            capsys,
        )
        assert code == 0
        xd = json.loads((tmp_path / "m" / "xdawn.json").read_text())
        bl = json.loads((tmp_path / "m" / "blda.json").read_text())
        assert xd["n_f"] == 4 and xd["erp_len"] == 15
        assert len(xd["u"]) == 8
        assert bl["converged"] is True
        assert "converged=True" in out
        # written models load back through the model classes
        from p300speller.blda import BldaModel
        from p300speller.xdawn import SpatialFilterModel

        sf = SpatialFilterModel.from_json(xd)
        clf = BldaModel.from_json(bl)
        assert sf.u.shape == (8, 4)
        assert clf.w.shape == (61,)  # 15 samples x 4 components + bias

    @pytest.mark.parametrize(
        "pipeline, message",
        [({"fs_out_hz": 0}, "fs_out"), ({"filter_order": 0}, "order"), ({"n_f": -1}, "n_f"),
         ({"n_f": 0}, "n_f"), ({"window_s": 0}, "ERP window"), ({"window_s": -1}, "ERP window"),
         ({"window_s": 5}, "ERP window"), ({"blda_max_iter": 0}, "max_iter"),
         ({"blda_tol": -1}, "tol"), ({"fs_out_hz": 1e-320}, "not an integer multiple"),
         ({"low_hz": 20.0}, "need 0 < low_hz < high_hz")],
    )
    def test_out_of_range_pipeline_exits_2(self, session_pair, tmp_path, capsys, pipeline, message):
        """A fault of the config alone names no bundle, unlike a bundle rate
        the config does not fit."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": pipeline}))
        code, _, err = run(
            ["train", "--session", str(session_pair / "a"), "--out", str(tmp_path / "m"),
             "--config", str(cfg)],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ") and message in err and "manifest.json" not in err
        assert not (tmp_path / "m").exists()

    def test_missing_session_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            ["train", "--session", str(tmp_path / "nope"), "--out", str(tmp_path / "m")],
            capsys,
        )
        assert code == 3

    def test_zero_target_session_exits_3(self, tmp_path, capsys):
        # a bundle whose events all carry is_target = false breaks the schedule
        # in its meta, so train rejects it before it fits
        assert main(["simulate", "--out", str(tmp_path / "s"), "--seed", "3"] + FAST_SIM) == 0
        events = read_session(tmp_path / "s").events
        slot = events.slot[events.is_target][0]
        events_path = tmp_path / "s" / "events.jsonl"
        lines = [json.loads(line) for line in events_path.read_text().splitlines()]
        for obj in lines:
            obj["is_target"] = False
        events_path.write_text(
            "".join(json.dumps(o, sort_keys=True, separators=(",", ":")) + "\n" for o in lines)
        )
        code, _, err = run(
            ["train", "--session", str(tmp_path / "s"), "--out", str(tmp_path / "m")], capsys
        )
        assert (code, err) == (3, f"i/o error: session manifest lacks usable schedule metadata "
                                  f"(flash event in slot {slot} has is_target False, but "
                                  f"character 0's target cell is (1, 1))\n")
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_flipped_is_target_exits_3(self, tmp_path, capsys, command):
        """One non-target flash of the bundle fitted on flagged true: train,
        and eval without --swap on it as train session, fitted on the flag and
        exited 0; meta's schedule now rejects it first."""
        bundle = tmp_path / "s"
        argv = ["simulate", "--out", str(bundle), "--seed", "1", "--reps", "2", "--targets", "AB"]
        assert main(argv) == 0
        shutil.copytree(bundle, tmp_path / "test")  # eval scores an intact copy
        events = read_session(bundle).events
        slot = events.slot[events.is_flash & ~events.is_target][0]
        _set_events("flash", "is_target", True, is_target=(False,), count=1)(bundle)
        if command == "train":
            argv = ["train", "--session", str(bundle), "--out", str(tmp_path / "m")]
        else:
            argv = eval_argv(bundle, tmp_path / "test", tmp_path / "m", swap=False)
        code, _, err = run(argv, capsys)
        assert (code, err) == (3, f"i/o error: session manifest lacks usable schedule metadata "
                                  f"(flash event in slot {slot} has is_target True, but "
                                  f"character 0's target cell is (1, 1))\n")
        assert not (tmp_path / "m").exists()

    def test_nf_clamp_noted_on_every_run(self, session_pair, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pipeline": {"n_f": 40}}))
        argv = ["train", "--session", str(session_pair / "a"), "--out", str(tmp_path / "m"),
                "--config", str(cfg)]
        first, second = run(argv, capsys), run(argv, capsys)
        assert first == second and first[0] == 0
        assert first[2] == "note: only 8 spatial components available; clamped n_f from 40\n"
        assert json.loads((tmp_path / "m" / "xdawn.json").read_text())["n_f"] == 8
        argv = eval_argv(session_pair / "a", session_pair / "b", tmp_path / "e")
        argv += ["--config", str(cfg)]
        first, second = run(argv, capsys), run(argv, capsys)
        assert first == second and first[0] == 0
        assert first[2].count("clamped n_f from 40") == 2  # one fit per direction


class TestNoScipy:
    def test_train_and_eval_import_no_scipy(self, session_pair, tmp_path):
        # a fresh interpreter: scipy, and the thread pool simulate draws its
        # noise on, must not load at import nor inside the commands
        code = """if True:
            import sys
            from p300speller.cli import main
            a, b, out = sys.argv[1:]
            assert main(["train", "--session", a, "--out", out + "/m"]) == 0
            assert main(["eval", "--train-session", a, "--test-session", b,
                         "--out", out + "/e", "--swap"]) == 0
            loaded = sorted(name for name in sys.modules
                            if name.split(".")[0] == "scipy" or name.startswith("concurrent"))
            assert not loaded, loaded
            """
        src = str(Path(pipeline.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", code, str(session_pair / "a"),
                               str(session_pair / "b"), str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "e" / "decisions_swap.csv").exists()


class TestBlasThreads:
    def test_same_bytes_on_one_and_two_blas_threads(self, session_pair, tmp_path):
        """train and eval --swap write the same bytes whether OpenBLAS runs one
        thread or two: no output may depend on how a BLAS call splits its sums."""
        code = """if True:
            import sys
            from p300speller.cli import main
            a, b, out = sys.argv[1:]
            assert main(["train", "--session", a, "--out", out + "/m"]) == 0
            assert main(["eval", "--train-session", a, "--test-session", b,
                         "--out", out + "/e", "--swap"]) == 0
            """
        src = str(Path(pipeline.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        children = [
            subprocess.Popen([sys.executable, "-c", code, str(session_pair / "a"),
                              str(session_pair / "b"), str(tmp_path / threads)],
                             env={**env, "OPENBLAS_NUM_THREADS": threads},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for threads in ("1", "2")
        ]
        printed = [child.communicate(timeout=300) for child in children]
        assert [child.returncode for child in children] == [0, 0], printed
        texts = [(out + err).replace(str(tmp_path / threads), "OUT")
                 for (out, err), threads in zip(printed, ("1", "2"))]
        assert texts[0] == texts[1]
        outputs = [{f.relative_to(tmp_path / threads): f.read_bytes()
                    for f in sorted((tmp_path / threads).rglob("*")) if f.is_file()}
                   for threads in ("1", "2")]
        assert len(outputs[0]) == 8 and outputs[0] == outputs[1]


class TestEval:
    def test_outputs(self, session_pair, tmp_path, capsys):
        out_dir = tmp_path / "eval"
        code, _, _ = run(
            [
                "eval",
                "--train-session", str(session_pair / "a"),
                "--test-session", str(session_pair / "b"),
                "--out", str(out_dir),
                "--swap",
            ],
            capsys,
        )
        assert code == 0
        lines = (out_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "k,accuracy,itr_bpm"
        assert len(lines) == 4  # header + k = 1..3
        roc_lines = (out_dir / "roc.csv").read_text().splitlines()
        assert roc_lines[0] == "fpr,tpr"
        summary = (out_dir / "summary.txt").read_text()
        assert summary.startswith("auc=")
        auc = float(summary.split("=")[1])
        assert 0.99 <= auc <= 1.0  # default sessions are high-SNR
        assert (out_dir / "roc_swap.csv").exists()
        k, acc, itr = lines[-1].split(",")
        assert float(acc) == 1.0
        # accuracy 1.0 at k=3, xp300: B(1) * 60 / (3 * 14 * 0.133)
        assert float(itr) == pytest.approx(5.169925 * 60 / (3 * 14 * 0.133), abs=1e-3)

    def test_swap_with_unequal_reps_exits_2(self, session_pair, tmp_path, capsys, no_filtering):
        argv = ["simulate", "--out", str(tmp_path / "five"), "--seed", "3", "--reps", "5"]
        assert main(argv + ["--targets", "ABCDEF"]) == 0
        code, _, err = run(eval_argv(session_pair / "a", tmp_path / "five", tmp_path / "e"), capsys)
        assert code == 2
        assert "5 repetitions" in err and "session 3" in err
        assert not (tmp_path / "e").exists()

    def test_deterministic_outputs(self, session_pair, tmp_path, capsys):
        outs = []
        for name in ("e1", "e2"):
            out_dir = tmp_path / name
            code, _, _ = run(
                [
                    "eval",
                    "--train-session", str(session_pair / "a"),
                    "--test-session", str(session_pair / "b"),
                    "--out", str(out_dir),
                ],
                capsys,
            )
            assert code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outs[0] == outs[1]


class TestCoincidentTargets:
    """At a 20 ms ISI two target flashes can round to one 25 Hz sample; the
    xDAWN design counts both responses there, so the bundle trains."""

    @pytest.mark.parametrize("paradigm", ["cp300", "xp300"])
    def test_short_isi_trains_and_evaluates(self, tmp_path, capsys, paradigm):
        for name, seed in (("a", 4), ("b", 3)):
            argv = ["simulate", "--paradigm", paradigm, "--isi", "0.02", "--seed", str(seed),
                    "--out", str(tmp_path / name)]
            assert main(argv + FAST_SIM) == 0
        events = read_session(tmp_path / "a").events
        onsets = np.sort(np.rint(events.onset_s[events.is_flash & events.is_target] * 25.0))
        assert np.any(np.diff(onsets) == 0)
        capsys.readouterr()
        for argv in (["train", "--session", str(tmp_path / "a"), "--out", str(tmp_path / "m")],
                     eval_argv(tmp_path / "a", tmp_path / "b", tmp_path / "e")):
            code, _, err = run(argv, capsys)
            assert (code, err) == (0, "")


class TestIdenticalEpochs:
    """At a 1 ns ISI every flash onset rounds to the first 25 Hz sample, so
    all epochs are alike: BLDA stops unconverged instead of dividing by a
    zero weight norm."""

    def test_train_and_eval_exit_0(self, tmp_path, capsys):
        argv = ["simulate", "--out", str(tmp_path / "f"), "--seed", "5", "--reps", "1",
                "--targets", "AB", "--isi", "1e-9"]
        assert run(argv, capsys)[0] == 0
        code, out, err = run(["train", "--session", str(tmp_path / "f"), "--out",
                              str(tmp_path / "m")], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("blda.json (converged=False, 6 iterations)\n")
        code, _, err = run(eval_argv(tmp_path / "f", tmp_path / "f", tmp_path / "e"), capsys)
        assert (code, err) == (0, "")


def eval_argv(train, test, out, swap=True):
    argv = ["eval", "--train-session", str(train), "--test-session", str(test), "--out", str(out)]
    return argv + (["--swap"] if swap else [])


def edit_manifest(bundle, change):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    replaced = change(manifest)
    path.write_text(json.dumps(manifest if replaced is None else replaced))


@pytest.fixture(scope="module")
def weak_pair(tmp_path_factory):
    """A weak response, so accuracy varies with k and between directions."""
    root = tmp_path_factory.mktemp("weak")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"synth": {"template_scale": 0.12}}))
    for name, seed in (("a", 1), ("b", 2)):
        argv = ["simulate", "--out", str(root / name), "--seed", str(seed)]
        assert main(argv + FAST_SIM + ["--config", str(cfg)]) == 0
    return root


class TestEvalSwapDecisions:
    def test_decision_files_average_to_metrics(self, weak_pair, tmp_path, capsys):
        out = tmp_path / "eval"
        code, _, _ = run(eval_argv(weak_pair / "a", weak_pair / "b", out), capsys)
        assert code == 0
        correct = {}
        for name in ("decisions.csv", "decisions_swap.csv"):
            for line in (out / name).read_text().splitlines()[1:]:
                _, k, _, hit = line.split(",")
                correct.setdefault(int(k), []).append(int(hit))
        accuracy = [float(line.split(",")[1])
                    for line in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert len(set(accuracy)) > 1
        assert accuracy == pytest.approx([np.mean(correct[k]) for k in sorted(correct)], abs=1e-12)

    def test_forward_decisions_unchanged_by_swap(self, session_pair, tmp_path, capsys):
        a, b = session_pair / "a", session_pair / "b"
        assert run(eval_argv(a, b, tmp_path / "one", swap=False), capsys)[0] == 0
        assert run(eval_argv(a, b, tmp_path / "both"), capsys)[0] == 0
        for name in ("decisions.csv", "roc.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "both" / name).read_bytes()
        assert not (tmp_path / "one" / "decisions_swap.csv").exists()


class TestPreprocessOnce:
    def test_one_preprocess_per_bundle(self, weak_pair, tmp_path, capsys, monkeypatch):
        calls = []
        preprocess = pipeline.preprocess

        def counting_preprocess(rec, cfg):
            calls.append(rec.n_samples)
            return preprocess(rec, cfg)

        monkeypatch.setattr(pipeline, "preprocess", counting_preprocess)
        a, b = weak_pair / "a", weak_pair / "b"
        commands = [
            (["train", "--session", str(a), "--out", str(tmp_path / "m")], 1),
            (eval_argv(a, b, tmp_path / "ab", swap=False), 2),
            (eval_argv(b, a, tmp_path / "ba", swap=False), 2),
            (eval_argv(a, b, tmp_path / "swap"), 2),
        ]
        for argv, expected in commands:
            calls.clear()
            assert run(argv, capsys)[0] == 0
            assert len(calls) == expected, argv

        # the swap run matches the two directions evaluated one at a time
        swap, ab, ba = tmp_path / "swap", tmp_path / "ab", tmp_path / "ba"
        for name in ("decisions.csv", "roc.csv"):
            assert (swap / name).read_bytes() == (ab / name).read_bytes()
            assert (swap / name.replace(".", "_swap.")).read_bytes() == (ba / name).read_bytes()
        rows = [
            [line.split(",") for line in (d / "metrics.csv").read_text().splitlines()[1:]]
            for d in (ab, ba)
        ]
        lines = ["k,accuracy,itr_bpm"]
        for (k, acc_ab, _), (_, acc_ba, _) in zip(*rows):
            acc = (float(acc_ab) + float(acc_ba)) / 2
            itr = itr_bpm(acc, 36, "xp300", reps=int(k), isi_s=0.133, n=6)
            lines.append(f"{k},{acc!r},{itr!r}")
        assert len({line.split(",")[1] for line in lines[1:]}) > 1
        assert (swap / "metrics.csv").read_text() == "\n".join(lines) + "\n"
        auc_ab, auc_ba = (float((d / "summary.txt").read_text()[4:]) for d in (ab, ba))
        assert (swap / "summary.txt").read_text() == f"auc={(auc_ab + auc_ba) / 2!r}\n"

    def test_each_raw_recording_is_gone_before_the_next_is_filtered(
        self, weak_pair, tmp_path, capsys, monkeypatch
    ):
        """eval maps one raw bundle at a time: the first recording, and its
        mapped signal, are freed before the second is filtered."""
        seen, alive = [], []
        preprocess = pipeline.preprocess

        def spying_preprocess(rec, cfg):
            alive.append([ref() is not None for ref in seen])
            seen.extend([weakref.ref(rec), weakref.ref(rec.samples)])
            return preprocess(rec, cfg)

        monkeypatch.setattr(pipeline, "preprocess", spying_preprocess)
        for swap in (True, False):
            seen.clear()
            alive.clear()
            argv = eval_argv(weak_pair / "a", weak_pair / "b", tmp_path / str(swap), swap=swap)
            assert run(argv, capsys)[0] == 0
            assert alive == [[], [False, False]]


def _drop(*keys):
    def change(manifest):
        target = manifest
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
    return lambda bundle: edit_manifest(bundle, change)


def _set(section, key, value):
    def change(manifest):
        (manifest[section] if section else manifest)[key] = value
    return lambda bundle: edit_manifest(bundle, change)


def _set_events(kind, key, value, is_target=(True, False), count=None):
    """Set ``key`` on the first ``count`` (default: all) events.jsonl lines of
    one kind (and target flag)."""
    def change(bundle):
        path = bundle / "events.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        chosen = [e for e in events if e["kind"] == kind and e["is_target"] in is_target]
        for event in chosen[:count]:
            event[key] = value
        _write_events(path, events)
    return change


def _repeat_first_flash(bundle):
    """The second event flashes what the first did (both are row flashes)."""
    path = bundle / "events.jsonl"
    events = [json.loads(line) for line in path.read_text().splitlines()]
    for key in ("flash_id", "cells", "is_target"):
        events[1][key] = events[0][key]
    _write_events(path, events)


def _retype_flash(key, convert, value=None):
    """Rewrite ``key`` of the first flash line (whose ``key`` is ``value``, if
    given) as ``convert`` of itself: equal under a dict lookup or int(), but
    not a JSON integer."""
    def change(bundle):
        path = bundle / "events.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        event = next(e for e in events if e["kind"] == "flash" and value in (None, e[key]))
        event[key] = convert(event[key])
        _write_events(path, events)
    return change


def _set_onset(index, value):
    """Set ``onset_s`` of events.jsonl line ``index`` (0-based)."""
    def change(bundle):
        path = bundle / "events.jsonl"
        events = [json.loads(line) for line in path.read_text().splitlines()]
        events[index]["onset_s"] = value
        _write_events(path, events)
    return change


def _repattern(edit):
    """Edit meta.pattern and write events.jsonl from the edited pattern, so the
    events agree with it and only the pattern itself is unusable."""
    def change(bundle):
        events = read_session(bundle).events
        pattern = events.pattern.to_json()
        edit(pattern)
        columns = [getattr(events, name) for name in COLUMNS]
        (bundle / "events.jsonl").write_text(
            events_jsonl(Events(FlashPattern.from_json(pattern), *columns)))
        _set("meta", "pattern", pattern)(bundle)
    return change


def _write_events(path, events):
    """Write event objects in the writer's compact, key-sorted line form, so
    that a corrupt line reaches the one-pass reader of canonical lines."""
    path.write_text("".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
                            for e in events))


class TestCorruptBundles:
    @pytest.mark.parametrize(
        "change, command",
        [
            (_drop("n_samples"), "eval"),
            (_drop("channel_names"), "eval"),
            (_set(None, "fs_hz", "fast"), "eval"),
            (_set(None, "n_channels", None), "eval"),
            (_set("meta", "targets", [[1]] * 6), "eval"),
            (_set("meta", "paradigm", "qp300"), "eval"),
            (_drop("meta", "pattern"), "eval"),
            (_drop("meta", "isi_s"), "eval"),
            (lambda bundle: edit_manifest(bundle, lambda manifest: []), "eval"),
            (_set("meta", "isi_s", 0), "eval"),
            (_set("meta", "reps", 2), "eval"),
            (_set_events("flash", "is_target", "false", is_target=(False,)), "eval"),
            (_set_events("pause", "block", "diagonal"), "eval"),
            (_set_events("pause", "block", "row", count=1), "eval"),
            (_set_events("flash", "cells", [[1, 1]], is_target=(False,), count=1), "eval"),
            (_drop("meta", "pattern"), "train"),
            (_repeat_first_flash, "eval"),
            (_retype_flash("flash_id", bool, 1), "train"),
            (_retype_flash("flash_id", float, 2), "train"),
            (_retype_flash("slot", str, 17), "train"),
            (_retype_flash("char_index", bool, 0), "train"),
            (_retype_flash("repetition", float), "train"),
            (_retype_flash("onset_s", str), "train"),
        ],
        ids=["no-n_samples", "no-channel_names", "text-fs_hz", "null-n_channels",
             "one-number-targets", "unknown-paradigm", "no-pattern", "no-isi_s", "array",
             "zero-isi_s", "fewer-reps-than-events", "text-is_target", "unknown-block",
             "pause-in-row-block", "cells-not-the-pattern", "train-no-pattern",
             "repeated-flash", "true-flash_id", "float-flash_id", "text-slot",
             "false-char_index", "float-repetition", "text-onset_s"],
    )
    def test_exits_3(self, session_pair, tmp_path, capsys, no_filtering, change, command):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        change(tmp_path / "b")
        if command == "train":
            argv = ["train", "--session", str(tmp_path / "b"), "--out", str(tmp_path / "m")]
        else:
            argv = eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e")
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("i/o error: ") and "Traceback" not in err

    @pytest.mark.parametrize("key, value, reason", [
        ("targets", [[10**30, 1]], f"target cell ({10**30}, 1) outside the 6x6 grid"),
        ("targets", [[99, 99]], "target cell (99, 99) outside the 6x6 grid"),
        ("targets", [[-1, 0]], "target cell (-1, 0) outside the 6x6 grid"),
        ("targets", [[1.0, 1]], "'float' object cannot be interpreted as an integer"),
        ("isi_s", float("inf"), "ISI must be positive and finite, got inf"),
        ("flash_duration_s", "nan", "flash duration must lie in (0, ISI], got nan"),
        ("inter_char_gap_s", float("nan"), "inter-character gap must be finite and >= 0, got nan"),
    ], ids=["target-1e30", "target-99", "target-negative", "target-float", "isi-infinity",
            "duration-text-nan", "gap-nan"])
    def test_unusable_schedule_exits_3(self, session_pair, tmp_path, capsys, key, value, reason):
        # a targets value replaces the first of the six (A..F: cells (1, 1)..(1, 6))
        shutil.copytree(session_pair / "b", tmp_path / "b")
        targets = [[1, col] for col in range(2, 7)]
        _set("meta", key, value + targets if key == "targets" else value)(tmp_path / "b")
        code, _, err = run(eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e"), capsys)
        assert (code, err) == (3, f"i/o error: session manifest lacks usable schedule metadata "
                                  f"({reason})\n")
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("flag", [True, False])
    def test_is_target_against_meta_targets_exits_3(self, session_pair, tmp_path, capsys, flag):
        # the first flash flagged ``not flag`` is flagged ``flag``; A lies at (1, 1)
        shutil.copytree(session_pair / "b", tmp_path / "b")
        events = read_session(tmp_path / "b").events
        slot = events.slot[events.is_flash & (events.is_target != flag)][0]
        _set_events("flash", "is_target", flag, is_target=(not flag,), count=1)(tmp_path / "b")
        code, _, err = run(eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e"), capsys)
        assert (code, err) == (3, f"i/o error: session manifest lacks usable schedule metadata "
                                  f"(flash event in slot {slot} has is_target {flag}, but "
                                  f"character 0's target cell is (1, 1))\n")

    @pytest.mark.parametrize("role", ["test", "train"])
    def test_pause_flagged_target_exits_3(self, session_pair, tmp_path, capsys, role):
        # no writer flags a pause, and a pause is never a target: as either
        # session of an eval --swap the bundle exited 0 with intact outputs
        shutil.copytree(session_pair / "b", tmp_path / "b")
        events = read_session(tmp_path / "b").events
        slot = events.slot[~events.is_flash][0]
        _set_events("pause", "is_target", True, count=1)(tmp_path / "b")
        bad, good = tmp_path / "b", session_pair / "a"
        train, test = (good, bad) if role == "test" else (bad, good)
        code, _, err = run(eval_argv(train, test, tmp_path / "e"), capsys)
        assert (code, err) == (3, f"i/o error: session manifest lacks usable schedule metadata "
                                  f"(pause event in slot {slot} has is_target True, but "
                                  f"character 0's target cell is (1, 1))\n")

    def test_events_short_of_the_schedule_exit_3(self, session_pair, tmp_path, capsys):
        # the first 60 of 252 lines: character 1's second repetition stops
        # after four of its six row flashes (ids 6, 4, 1, 2 at seed 2)
        shutil.copytree(session_pair / "b", tmp_path / "b")
        path = tmp_path / "b" / "events.jsonl"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:60]))
        code, _, err = run(eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e"), capsys)
        assert (code, err) == (3, "i/o error: no flash event for character 1, repetition 1, "
                                  "row block, flash id 3 of the schedule in meta: 6 characters, "
                                  "3 repetitions\n")

    @pytest.mark.parametrize("reps", [4, 10**30], ids=["one-more", "1e30"])
    def test_reps_beyond_the_events_exit_3(self, session_pair, tmp_path, capsys, reps):
        # 10**30 repetitions overflowed the flash index grid into a traceback
        shutil.copytree(session_pair / "b", tmp_path / "b")
        _set("meta", "reps", reps)(tmp_path / "b")
        code, _, err = run(eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e"), capsys)
        assert (code, err) == (3, "i/o error: no flash event for character 0, repetition 3, "
                                  "row block, flash id 1 of the schedule in meta: 6 characters, "
                                  f"{reps} repetitions\n")

    def test_manifest_not_json_exits_3(self, session_pair, tmp_path, capsys):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        (tmp_path / "b" / "manifest.json").write_text('{"format_version": 1,\n')
        code, _, err = run(["train", "--session", str(tmp_path / "b"), "--out",
                            str(tmp_path / "m")], capsys)
        assert code == 3
        assert err == f"i/o error: {tmp_path / 'b' / 'manifest.json'}: invalid JSON at line 2\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "onset, message",
        [
            (float("nan"), "line 6: onset_s must be finite, got nan"),
            (float("inf"), "line 6: onset_s must be finite, got inf"),
            (-float("inf"), "line 6: onset_s must be finite, got -inf"),
            (1e6, "events.jsonl: event at 1000000.0s lies outside the recording"),
            (-0.25, "events.jsonl: event at -0.25s lies outside the recording"),
        ],
        ids=["nan", "infinity", "minus-infinity", "past-the-signal", "negative"],
    )
    def test_bad_onset_exits_3(self, session_pair, tmp_path, capsys, onset, message, command):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        _set_onset(5, onset)(tmp_path / "b")
        if command == "train":
            argv = ["train", "--session", str(tmp_path / "b"), "--out", str(tmp_path / "m")]
        else:
            argv = eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e")
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("i/o error: ") and message in err

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda pattern: pattern.update(c_hat=pattern["r_hat"]),
             "pattern pair map is not bijective: couple (1, 1) occurs 6 times"),
            (lambda pattern: pattern["r_hat"][2].__setitem__(3, 99),
             "pattern entries must lie in 1..n"),
        ],
        ids=["c_hat-is-r_hat", "r_hat-entry-99"],
    )
    def test_bad_pattern_exits_3(self, session_pair, tmp_path, capsys, edit, reason, command):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        _repattern(edit)(tmp_path / "b")
        if command == "train":
            argv = ["train", "--session", str(tmp_path / "b"), "--out", str(tmp_path / "m")]
        else:
            argv = eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e")
        code, _, err = run(argv, capsys)
        assert code == 3
        assert err.startswith("i/o error: ") and "Traceback" not in err
        assert f"manifest.json: no usable meta.pattern ({reason})" in err

    def test_meta_n_is_provenance_only(self, session_pair, tmp_path, capsys):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        _drop("meta", "n")(tmp_path / "b")
        a = session_pair / "a"
        assert run(eval_argv(a, session_pair / "b", tmp_path / "intact"), capsys)[0] == 0
        assert run(eval_argv(a, tmp_path / "b", tmp_path / "no_n"), capsys)[0] == 0
        for name in ("metrics.csv", "summary.txt", "decisions.csv", "decisions_swap.csv"):
            assert (tmp_path / "intact" / name).read_bytes() == (tmp_path / "no_n" / name).read_bytes()

    @pytest.mark.parametrize("fs_hz, reason", [
        (20, "high band edge 12.5 Hz is at or above Nyquist (10.0 Hz)"),
        (30, "sampling rate 30.0 Hz is not an integer multiple of 25.0 Hz"),
    ], ids=["below-the-band", "not-decimable"])
    @pytest.mark.parametrize("command", ["train", "eval-test", "eval-train"])
    def test_rate_the_band_does_not_fit_exits_2(self, session_pair, tmp_path, capsys, no_filtering,
                                                 fs_hz, reason, command):
        """A bundle rate the default band or output rate cannot take names
        the bundle's manifest and fs_hz, in train and for either session of
        eval, before any filtering."""
        shutil.copytree(session_pair / "b", tmp_path / "b")
        _set(None, "fs_hz", fs_hz)(tmp_path / "b")
        argv = {"train": ["train", "--session", str(tmp_path / "b"), "--out", str(tmp_path / "o")],
                "eval-test": eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "o"),
                "eval-train": eval_argv(tmp_path / "b", session_pair / "a", tmp_path / "o")}
        code, _, err = run(argv[command], capsys)
        assert (code, err) == (2, f"error: {tmp_path / 'b' / 'manifest.json'}: fs_hz "
                                  f"{float(fs_hz)} does not fit the pipeline config: {reason}\n")
        assert not (tmp_path / "o").exists()


class TestOpenBundle:
    def test_one_manifest_parse_per_bundle(self, session_pair, tmp_path, capsys, monkeypatch):
        """train and eval parse each bundle's manifest.json once, the test
        session's first; read_session and the schedule check once parsed it
        twice."""
        calls = []
        read_manifest = session_io.read_manifest

        def counting_read_manifest(path):
            calls.append(Path(path).name)
            return read_manifest(path)

        monkeypatch.setattr(session_io, "read_manifest", counting_read_manifest)
        a, b = session_pair / "a", session_pair / "b"
        for argv, expected in [
            (["train", "--session", str(a), "--out", str(tmp_path / "m")], ["a"]),
            (eval_argv(a, b, tmp_path / "one", swap=False), ["b", "a"]),
            (eval_argv(a, b, tmp_path / "both"), ["b", "a"]),
        ]:
            calls.clear()
            assert run(argv, capsys)[0] == 0
            assert calls == expected, argv

    def test_eval_reports_the_test_session_when_both_are_bad(self, session_pair, tmp_path,
                                                             capsys):
        """The test session is opened first, so its fault is the one named,
        also when the train session's lies in its manifest fields (both
        bundles were once read before either schedule was checked, and then
        the train session's read fault won)."""
        for name, field in (("a", "n_samples"), ("b", "channel_names")):
            shutil.copytree(session_pair / name, tmp_path / name)
            _drop(field)(tmp_path / name)
        code, _, err = run(eval_argv(tmp_path / "a", tmp_path / "b", tmp_path / "e"), capsys)
        assert (code, err) == (3, f"i/o error: {tmp_path / 'b' / 'manifest.json'}: missing or "
                                  f"unusable field ('channel_names')\n")


class TestNonFiniteSignal:
    @pytest.mark.parametrize("role", ["train", "test"])
    def test_nan_sample_exits_4(self, session_pair, tmp_path, capsys, role):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        channels = json.loads((tmp_path / "b" / "manifest.json").read_text())["channel_names"]
        signal_path = tmp_path / "b" / "signal.f32"
        samples = np.fromfile(signal_path, dtype="<f4").reshape(-1, len(channels))
        samples[1000, 2] = np.nan
        samples.tofile(signal_path)
        pair = (tmp_path / "b", session_pair / "a")
        train, test = pair if role == "train" else pair[::-1]
        code, _, err = run(eval_argv(train, test, tmp_path / "e", swap=False), capsys)
        assert code == 4
        assert repr(channels[2]) in err and "non-finite" in err


class TestReport:
    def _eval_dir(self, root, name, accs, auc):
        d = root / name
        d.mkdir(parents=True)
        lines = ["k,accuracy,itr_bpm"] + [f"{k},{a},0.0" for k, a in enumerate(accs, 1)]
        (d / "metrics.csv").write_text("\n".join(lines) + "\n")
        (d / "summary.txt").write_text(f"auc={auc}\n")
        return str(d)

    def test_comparison_and_ttest(self, tmp_path, capsys):
        cp = [self._eval_dir(tmp_path, f"cp{i}", [0.5 + 0.02 * i, 0.7], 0.80 + 0.001 * i)
              for i in range(5)]
        xp = [self._eval_dir(tmp_path, f"xp{i}", [0.8 + 0.03 * i, 0.9], 0.86 + 0.002 * i)
              for i in range(5)]
        code, out, _ = run(
            ["report", "--cp300", *cp, "--xp300", *xp, "--out", str(tmp_path / "rep")],
            capsys,
        )
        assert code == 0
        csv_lines = (tmp_path / "rep" / "comparison.csv").read_text().splitlines()
        assert csv_lines[0].startswith("subject,")
        assert csv_lines[-2].startswith("Mean,")
        assert csv_lines[-1].startswith("SD,")
        ttests = (tmp_path / "rep" / "ttests.txt").read_text()
        assert "t(4)=" in ttests
        # xp300 dominates, so cp300 - xp300 gives a negative t
        t_value = float(ttests.splitlines()[0].split("t(4)=")[1].split(",")[0])
        assert t_value < 0

    def test_cohort_size_mismatch_exits_2(self, tmp_path, capsys):
        a = self._eval_dir(tmp_path, "a", [0.5], 0.8)
        b = self._eval_dir(tmp_path, "b", [0.6], 0.8)
        c = self._eval_dir(tmp_path, "c", [0.7], 0.9)
        code, _, _ = run(
            ["report", "--cp300", a, b, "--xp300", c, "--out", str(tmp_path / "rep")], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("name, raw, message", [
        ("metrics.csv", b"k,accuracy,itr_bpm\n1,abc,0.0\n", ":2: 'abc' is not a number"),
        ("metrics.csv", b"k,accuracy,itr_bpm\n1,0.5,0.0\n2\n", ":3: no accuracy field in '2'"),
        ("summary.txt", b"auc=zz\n", ":1: 'zz' is not a number"),
        ("summary.txt", b"auc=nan\n", ":1: 'nan' is not a finite number"),
        ("summary.txt", b"auc=inf\n", ":1: 'inf' is not a finite number"),
        ("metrics.csv", b"k,accuracy,itr_bpm\n1,0.5,0.0\n2,nan,0.0\n",
         ":3: 'nan' is not a finite number"),
        ("metrics.csv", b"k,accuracy,itr_bpm\n1,0.5\xff,0.0\n",
         ": not UTF-8 text at line 2 (invalid start byte at byte 24)"),
        ("summary.txt", b"auc=0.8\n\x80\n", ": not UTF-8 text at line 2 (invalid start byte at byte 8)"),
    ], ids=["accuracy-abc", "no-accuracy-field", "auc-zz", "auc-nan", "auc-inf", "accuracy-nan",
        "metrics-not-utf8", "summary-not-utf8"])
    def test_unreadable_eval_file_exits_3(self, tmp_path, capsys, name, raw, message):
        d = self._eval_dir(tmp_path, "e", [0.5], 0.8)
        (tmp_path / "e" / name).write_bytes(raw)
        code, _, err = run(
            ["report", "--cp300", d, d, "--xp300", d, d, "--out", str(tmp_path / "rep")], capsys
        )
        assert code == 3
        assert err == f"i/o error: {tmp_path / 'e' / name}{message}\n"
        assert not (tmp_path / "rep").exists()

    def test_not_an_eval_directory_exits_3(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        d = str(tmp_path / "empty")
        code, _, err = run(
            ["report", "--cp300", d, d, "--xp300", d, d, "--out", str(tmp_path / "rep")], capsys
        )
        assert code == 3
        assert err.startswith(f"i/o error: {d}: not an eval output directory (")
        assert not (tmp_path / "rep").exists()

    def test_summary_without_auc_exits_3(self, tmp_path, capsys):
        d = self._eval_dir(tmp_path, "e", [0.5], 0.8)
        (tmp_path / "e" / "summary.txt").write_text("k=1\n")
        code, _, err = run(
            ["report", "--cp300", d, d, "--xp300", d, d, "--out", str(tmp_path / "rep")], capsys
        )
        assert code == 3
        assert err == f"i/o error: {d}: missing auc or accuracy values\n"
        assert not (tmp_path / "rep").exists()

    def test_identical_cohorts_exit_4(self, tmp_path, capsys):
        a = self._eval_dir(tmp_path, "a", [0.5, 0.6], 0.8)
        b = self._eval_dir(tmp_path, "b", [0.7, 0.8], 0.9)
        code, _, err = run(
            ["report", "--cp300", a, b, "--xp300", a, b, "--out", str(tmp_path / "rep")],
            capsys,
        )
        assert code == 4
        assert "zero variance" in err


def run_child(argv):
    """The CLI in a child process: opening a FIFO for reading waits for a
    writer, so a wait fails the test at the timeout instead of hanging it."""
    src = str(Path(pipeline.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "p300speller.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
class TestFifoInputs:
    def test_config_fifo_exits_3_without_waiting(self, tmp_path):
        os.mkfifo(tmp_path / "cfg.json")
        proc = run_child(["simulate", "--out", str(tmp_path / "s"), "--seed", "1",
                          "--config", str(tmp_path / "cfg.json")])
        assert proc.returncode == 3, proc.stderr
        assert f"{tmp_path / 'cfg.json'}: not a regular file" in proc.stderr
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("name", ["metrics.csv", "summary.txt"])
    def test_report_input_fifo_exits_3_without_waiting(self, tmp_path, name):
        d = tmp_path / "e"
        d.mkdir()
        (d / "metrics.csv").write_text("k,accuracy,itr_bpm\n1,0.5,0.0\n")
        (d / "summary.txt").write_text("auc=0.8\n")
        (d / name).unlink()
        os.mkfifo(d / name)
        proc = run_child(["report", "--cp300", str(d), "--xp300", str(d),
                          "--out", str(tmp_path / "rep")])
        assert proc.returncode == 3, proc.stderr
        assert f"{d / name}: not a regular file" in proc.stderr
