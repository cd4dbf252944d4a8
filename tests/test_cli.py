import json
import shutil

import numpy as np
import pytest

from p300speller.cli import main
from p300speller.session_io import read_manifest

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

    @pytest.mark.parametrize(
        "config",
        [{"n": 1}, {"reps": 0}, {"isi_s": 0}, {"target_text": ""}, {"pattern_kind": "foo"}],
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

    def test_missing_session_exits_3(self, tmp_path, capsys):
        code, _, _ = run(
            ["train", "--session", str(tmp_path / "nope"), "--out", str(tmp_path / "m")],
            capsys,
        )
        assert code == 3

    def test_zero_target_session_exits_4(self, tmp_path, capsys):
        # craft a bundle whose events all carry is_target = false
        assert main(["simulate", "--out", str(tmp_path / "s"), "--seed", "3"] + FAST_SIM) == 0
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
        assert code == 4
        assert "target" in err


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


def eval_argv(train, test, out, swap=True):
    argv = ["eval", "--train-session", str(train), "--test-session", str(test), "--out", str(out)]
    return argv + (["--swap"] if swap else [])


def edit_manifest(bundle, change):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    change(manifest)
    path.write_text(json.dumps(manifest))


class TestEvalSwapDecisions:
    def test_decision_files_average_to_metrics(self, tmp_path, capsys):
        # a weak response, so accuracy varies with k and between directions
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"template_scale": 0.12}}))
        for name, seed in (("a", 1), ("b", 2)):
            argv = ["simulate", "--out", str(tmp_path / name), "--seed", str(seed)]
            assert main(argv + FAST_SIM + ["--config", str(cfg)]) == 0
        out = tmp_path / "eval"
        code, _, _ = run(eval_argv(tmp_path / "a", tmp_path / "b", out), capsys)
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


def _drop(*keys):
    def change(manifest):
        target = manifest
        for key in keys[:-1]:
            target = target[key]
        del target[keys[-1]]
    return change


def _set(section, key, value):
    def change(manifest):
        (manifest[section] if section else manifest)[key] = value
    return change


class TestCorruptBundles:
    @pytest.mark.parametrize(
        "change",
        [
            _drop("n_samples"),
            _drop("channel_names"),
            _set(None, "fs_hz", "fast"),
            _set(None, "n_channels", None),
            _set("meta", "targets", [[1]] * 6),
            _set("meta", "paradigm", "qp300"),
            _drop("meta", "pattern"),
            _drop("meta", "isi_s"),
        ],
        ids=["no-n_samples", "no-channel_names", "text-fs_hz", "null-n_channels",
             "one-number-targets", "unknown-paradigm", "no-pattern", "no-isi_s"],
    )
    def test_exits_3(self, session_pair, tmp_path, capsys, change):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        edit_manifest(tmp_path / "b", change)
        code, _, err = run(eval_argv(session_pair / "a", tmp_path / "b", tmp_path / "e"), capsys)
        assert code == 3
        assert err.startswith("i/o error: ") and "Traceback" not in err

    def test_meta_n_is_provenance_only(self, session_pair, tmp_path, capsys):
        shutil.copytree(session_pair / "b", tmp_path / "b")
        edit_manifest(tmp_path / "b", _drop("meta", "n"))
        a = session_pair / "a"
        assert run(eval_argv(a, session_pair / "b", tmp_path / "intact"), capsys)[0] == 0
        assert run(eval_argv(a, tmp_path / "b", tmp_path / "no_n"), capsys)[0] == 0
        for name in ("metrics.csv", "summary.txt", "decisions.csv", "decisions_swap.csv"):
            assert (tmp_path / "intact" / name).read_bytes() == (tmp_path / "no_n" / name).read_bytes()


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

    def test_identical_cohorts_exit_4(self, tmp_path, capsys):
        a = self._eval_dir(tmp_path, "a", [0.5, 0.6], 0.8)
        b = self._eval_dir(tmp_path, "b", [0.7, 0.8], 0.9)
        code, _, err = run(
            ["report", "--cp300", a, b, "--xp300", a, b, "--out", str(tmp_path / "rep")],
            capsys,
        )
        assert code == 4
        assert "zero variance" in err
