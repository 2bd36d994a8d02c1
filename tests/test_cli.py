import csv
import dataclasses
import errno
import hashlib
import importlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from nbproc import RandomSource, SyntheticSpec, _kernels, cli, load_bag_of_words, split_train_test, synthesize_corpus
from nbproc.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, RunConfig, _make_geweke_check, main
from nbproc.models import HyperParams, IterationError, ModelKind, gibbs_sweep

SRC = Path(__file__).resolve().parents[1] / "src"


def write_synth_spec(tmp_path, **overrides):
    spec = {"k_true": 3, "vocab_size": 12, "num_docs": 10, "topic_sharpness": 0.1, "r": 5.0, "p": 0.6, "seed": 5}
    spec.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(spec))
    return path


def run_args(tmp_path, out_name, model="gamma-nb", extra=()):
    spec = write_synth_spec(tmp_path)
    return [
        "run",
        "--model",
        model,
        "--synth",
        str(spec),
        "--train-frac",
        "0.6",
        "--seed",
        "7",
        "--K",
        "4",
        "--iters",
        "30",
        "--burnin",
        "10",
        "--init-iters",
        "3",
        "--out",
        str(tmp_path / out_name),
        *extra,
    ]


def read_csv_rows(path):
    with open(path) as fh:
        comment = fh.readline()
        assert comment.startswith("# config_hash=")
        return list(csv.DictReader(fh))


def test_run_writes_artifacts(tmp_path):
    assert main(run_args(tmp_path, "out")) == EXIT_OK
    out = tmp_path / "out"
    for name in ("trace.csv", "params.csv", "report.json", "config.json"):
        assert (out / name).exists()
    assert not (out / ".incomplete").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["model"] == "gamma-nb"
    assert report["seed"] == 7
    assert report["perplexity"] >= 1.0
    assert report["config_hash"]
    assert "commit" in report
    rows = read_csv_rows(out / "trace.csv")
    assert len(rows) == 30  # one record per iteration
    assert all(float(r["perplexity"]) >= 1.0 for r in rows)
    config = json.loads((out / "config.json").read_text())
    assert config["hyper"]["K"] == 4
    assert config["config_hash"] == report["config_hash"]


def test_run_is_byte_reproducible(tmp_path):
    assert main(run_args(tmp_path, "a")) == EXIT_OK
    assert main(run_args(tmp_path, "b")) == EXIT_OK
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "params.csv").read_bytes() == (tmp_path / "b" / "params.csv").read_bytes()


def test_run_different_seed_changes_trace(tmp_path):
    assert main(run_args(tmp_path, "a")) == EXIT_OK
    args = run_args(tmp_path, "c")
    args[args.index("--seed") + 1] = "8"
    assert main(args) == EXIT_OK
    assert (tmp_path / "a" / "trace.csv").read_bytes() != (tmp_path / "c" / "trace.csv").read_bytes()


def test_nb_hdp_probability_column_constant(tmp_path):
    assert main(run_args(tmp_path, "hdp", model="nb-hdp")) == EXIT_OK
    rows = read_csv_rows(tmp_path / "hdp" / "params.csv")
    doc_rows = [r for r in rows if r["entity"] == "document"]
    assert doc_rows
    assert all(float(r["p"]) == 0.5 for r in doc_rows)
    trace = read_csv_rows(tmp_path / "hdp" / "trace.csv")
    assert all(float(r["mean_p"]) == 0.5 for r in trace)


def test_run_missing_corpus_file_is_io_error(tmp_path, capsys):
    args = [
        "run",
        "--model",
        "gamma-nb",
        "--docword",
        str(tmp_path / "nope.txt"),
        "--vocab",
        str(tmp_path / "nope2.txt"),
        "--out",
        str(tmp_path / "x"),
    ]
    assert main(args) == EXIT_IO
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "docword_text, message",
    [(None, "No such file"), ("2\n3\n2\n1 2 x\n2 3 1\n", "line 4")],
    ids=["missing-docword", "bad-field-on-line-4"],
)
def test_run_with_unreadable_corpus_writes_nothing(tmp_path, capsys, docword_text, message):
    docword, vocab = tmp_path / "d.txt", tmp_path / "v.txt"
    if docword_text is not None:
        docword.write_text(docword_text)
    vocab.write_text("a\nb\nc\n")
    out = tmp_path / "out"
    args = ["run", "--model", "gamma-nb", "--docword", str(docword), "--vocab", str(vocab), "--out", str(out)]
    assert main(args) == EXIT_IO
    assert message in capsys.readouterr().err
    assert not out.exists()  # the corpus is read before .incomplete or config.json is written


def test_run_non_utf8_docword_is_io_error(tmp_path, capsys):
    docword, vocab = tmp_path / "d.txt", tmp_path / "v.txt"
    docword.write_bytes(b"1\n2\n1\n1 2 \xff\n")
    vocab.write_text("a\nb\n")
    args = ["run", "--model", "gamma-nb", "--docword", str(docword), "--vocab", str(vocab), "--out", str(tmp_path / "x")]
    assert main(args) == EXIT_IO
    assert f"error: {docword}: line 4: not UTF-8 text" in capsys.readouterr().err


def test_corpus_fingerprint_hashes_both_files_whole(tmp_path):
    # larger than one read block, so the digest spans several reads
    docword, vocab = tmp_path / "d.txt", tmp_path / "v.txt"
    docword.write_bytes(b"1\n3\n1\n1 3 2\n" + b"\n" * (3 << 20))
    vocab.write_bytes(b"a\nb\nc\n")
    config = RunConfig(model="gamma-nb", output_dir="x", docword=str(docword), vocab=str(vocab))
    expected = hashlib.sha256(docword.read_bytes() + vocab.read_bytes()).hexdigest()
    assert config.corpus_fingerprint() == expected


def test_cli_import_leaves_scipy_unloaded():
    # and builds no compiled library: that happens on the first draw
    code = (
        "import sys, nbproc, nbproc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'));"
        "print(nbproc._kernels.library.cache_info().misses)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["[]", "0"]


def test_run_compiles_one_library(tmp_path):
    # one load of the library per process: a second would mean a second compiler call on a cache miss
    code = (
        "import sys, nbproc._kernels; from nbproc.cli import main; code = main(sys.argv[1:]);"
        "print(code, nbproc._kernels.library.cache_info().misses)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *run_args(tmp_path, "out")], capture_output=True, text=True, env=env)
    assert out.stdout.split()[-2:] == [str(EXIT_OK), "1"], out.stderr


def _no_compiler():
    raise FileNotFoundError(errno.ENOENT, "No such file or directory", "cc")


def _failed_compile():
    stderr = b"<stdin>:1:1: error: unknown type name 'x'\n    1 | x\n"
    raise subprocess.CalledProcessError(1, ["cc", "-x", "c", "-"], stderr=stderr)


@pytest.mark.parametrize(
    "build, reason", [(_no_compiler, "No such file or directory: 'cc'"), (_failed_compile, "unknown type name")]
)
@pytest.mark.parametrize("command", ["run-docword", "run-synth", "validate"])
def test_without_the_library_each_command_fails_before_writing(tmp_path, monkeypatch, capsys, build, reason, command):
    monkeypatch.setattr(_kernels, "_build_library", build)
    _kernels.library.cache_clear()  # a failed build is not cached, so the next test loads the library afresh
    out = tmp_path / "out"
    if command == "run-docword":
        (tmp_path / "d.txt").write_text("2\n3\n3\n1 1 2\n1 3 2\n2 2 3\n")
        (tmp_path / "v.txt").write_text("a\nb\nc\n")
        args = ["run", "--model", "gamma-nb", "--docword", str(tmp_path / "d.txt"), "--vocab", str(tmp_path / "v.txt")]
        args += ["--out", str(out)]
    elif command == "run-synth":
        args = run_args(tmp_path, "out")
    else:
        args = ["validate", "--quick"]
    assert main(args) == EXIT_IO
    captured = capsys.readouterr()
    (error,) = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert error.startswith(f"error: cannot build nbproc's compiled loops with {shlex.join(_kernels._compiler())}: ")
    assert reason in captured.err
    assert captured.out == ""  # validate prints no check line
    assert not out.exists()  # no output directory, no .incomplete, no config.json


def test_commit_is_unknown_when_git_does_not_answer(monkeypatch):
    def hung(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs.get("timeout"))

    monkeypatch.delenv("NBPROC_COMMIT", raising=False)
    monkeypatch.setattr(subprocess, "run", hung)
    assert cli._commit_identifier() == "unknown"


@pytest.mark.parametrize("flag", ["--synth", "--config"])
def test_run_non_json_file_is_io_error(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("notjson\n")
    assert main(["run", "--model", "gamma-nb", flag, str(bad), "--out", str(tmp_path / "x")]) == EXIT_IO
    assert f"{bad} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, out", [("run", "afile"), ("run", "afile/sub"), ("synth", "afile")])
def test_out_through_a_regular_file_is_io_error(tmp_path, capsys, command, out):
    (tmp_path / "afile").write_text("kept\n")
    if command == "run":
        args = run_args(tmp_path, out)
    else:
        args = ["synth", "--k-true", "2", "--docs", "5", "--vocab-size", "6", "--out", str(tmp_path / out)]
    assert main(args) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert (tmp_path / "afile").read_text() == "kept\n"


# small integer settings so a run takes well under a second; each test value differs from them
TINY_RUN = {"K": 3, "iters": 3, "burnin": 1, "collect_every": 1, "init_iters": 1, "seed": 0}


@pytest.mark.parametrize("hyper_field", dataclasses.fields(HyperParams), ids=lambda f: f.name)
def test_every_hyperparameter_is_a_run_flag(tmp_path, hyper_field):
    name = hyper_field.name
    value = TINY_RUN[name] + 1 if name in TINY_RUN else getattr(HyperParams(), name) * 2
    flags = [arg for key, v in TINY_RUN.items() for arg in ("--" + key.replace("_", "-"), str(v))]
    args = ["run", "--model", "gamma-nb", "--synth", str(write_synth_spec(tmp_path)), "--out", str(tmp_path / "o"), *flags]
    assert main([*args, "--" + name.replace("_", "-"), str(value)]) == EXIT_OK
    hyper = json.loads((tmp_path / "o" / "config.json").read_text())["hyper"]
    assert hyper[name] == value and type(hyper[name]) is type(value)
    assert hyper == {**dataclasses.asdict(HyperParams()), **TINY_RUN, name: value}


def test_config_echo_holds_every_run_setting_once(tmp_path):
    args = run_args(tmp_path, "out")
    args[args.index("--out") + 1] = str(tmp_path / "out") + "/"
    assert main(args) == EXIT_OK
    config = json.loads((tmp_path / "out" / "config.json").read_text())
    run_keys = {f.name for f in dataclasses.fields(RunConfig)}
    assert run_keys == {"model", "output_dir", "docword", "vocab", "synth", "train_frac", "min_doc_freq", "hyper"}
    assert set(config) == run_keys | {"config_hash", "commit"}
    assert config["output_dir"] == str(tmp_path / "out")


def one_topic_args(tmp_path, model):
    args = run_args(tmp_path, model, model=model)
    args[args.index("--K") + 1] = "1"
    return args


@pytest.mark.parametrize("model", ["beta-nb", "marked-beta-nb", "nb-ftm"])
def test_beta_process_kinds_reject_one_topic(tmp_path, capsys, model):
    assert main(one_topic_args(tmp_path, model)) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert f"{model} needs K >= 2, got K = 1" in err
    assert "Beta(c/K, c(1-1/K))" in err


def test_gamma_nb_runs_with_one_topic(tmp_path):
    assert main(one_topic_args(tmp_path, "gamma-nb")) == EXIT_OK


def test_run_conflicting_corpus_settings_fail(tmp_path):
    spec = write_synth_spec(tmp_path)
    args = ["run", "--model", "gamma-nb", "--out", str(tmp_path / "x")]
    assert main(args) == EXIT_CHECK_FAILED  # neither files nor synth
    args = [
        "run",
        "--model",
        "gamma-nb",
        "--synth",
        str(spec),
        "--docword",
        "d",
        "--vocab",
        "v",
        "--out",
        str(tmp_path / "x"),
    ]
    assert main(args) == EXIT_CHECK_FAILED  # both at once


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--model", "gamma-nb"])  # missing --out
    assert exc.value.code == 2


def test_config_file_sets_model_and_output_dir(tmp_path):
    out = tmp_path / "from-config"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"model": "gamma-nb", "output_dir": str(out)}))
    args = run_args(tmp_path, "unused")
    args = args[:1] + args[3:-2] + ["--config", str(config)]  # without --model and --out
    assert main(args) == EXIT_OK
    assert json.loads((out / "config.json").read_text())["model"] == "gamma-nb"
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize(
    "data, missing",
    [({}, "['model', 'output_dir']"), ({"model": "gamma-nb"}, "['output_dir']")],
    ids=["no-keys", "no-output-dir"],
)
def test_config_file_missing_required_keys_fails_named(tmp_path, capsys, data, missing):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(data))
    args = run_args(tmp_path, "unused")
    assert main(args[:1] + args[3:-2] + ["--config", str(config)]) == EXIT_CHECK_FAILED
    assert f"missing config keys: {missing}" in capsys.readouterr().err
    with pytest.raises(ValueError, match="missing config keys"):
        RunConfig.from_dict({"output_dir": "x", "synth": {"k_true": 2, "vocab_size": 5, "num_docs": 3}})


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    for data in ({"modle": "gamma-nb"}, {"workers": 2}):  # a typo; a key that no longer exists
        config.write_text(json.dumps(data))
        args = run_args(tmp_path, "cfgout", extra=("--config", str(config)))
        assert main(args) == EXIT_CHECK_FAILED
        assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, content, message, code",
    [
        ("--config", [1, 2], "must hold a JSON object, got list", EXIT_IO),
        ("--config", {"hyper": 5}, "hyper must be a JSON object, got int", EXIT_CHECK_FAILED),
        ("--config", {"hyper": {"K": "abc"}}, "K must be an integer, got 'abc'", EXIT_CHECK_FAILED),
        ("--config", {"hyper": {"K": 2.5}}, "K must be an integer, got 2.5", EXIT_CHECK_FAILED),
        ("--config", {"hyper": {"iters": True}}, "iters must be an integer, got True", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "bogus": 1}, "unknown synth keys", EXIT_CHECK_FAILED),
        ("--config", {"train_frac": "abc"}, "train_frac must be a number, got 'abc'", EXIT_CHECK_FAILED),
        ("--config", {"min_doc_freq": 2.5}, "min_doc_freq must be an integer, got 2.5", EXIT_CHECK_FAILED),
        ("--config", {"vocab": 5}, "vocab must be a string, got 5", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": "abc", "num_docs": 10}, "vocab_size must be an integer, got 'abc'", EXIT_CHECK_FAILED),
        ("--synth", {"vocab_size": 12, "num_docs": 10}, "missing synth keys: ['k_true']", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "r": [5, "x", 5]}, "r must be a number, got 'x'", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "topic_sharpness": "x"}, "topic_sharpness must be a number", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "seed": 1.5}, "seed must be an integer, got 1.5", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 0, "vocab_size": 12, "num_docs": 10}, "k_true must be positive, got 0", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 0, "num_docs": 10}, "vocab_size must be positive, got 0", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": -1}, "num_docs must be positive, got -1", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "topic_sharpness": 0}, "topic_sharpness must be positive", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "r": 0}, "r must be positive, got 0", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "r": [5, 5]}, "r must be a number or a list of k_true = 3 values", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "p": 1}, "p must lie in (0, 1), got 1", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 2, "p": [0.5, 0.5, 0.5]}, "p must be a number or a list of num_docs = 2 values", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "max_retries": -1}, "max_retries must be >= 0, got -1", EXIT_CHECK_FAILED),
        ("--synth", {"k_true": 3, "vocab_size": 12, "num_docs": 10, "seed": -1}, "seed must be a 64-bit unsigned integer, got -1", EXIT_CHECK_FAILED),
    ],
    ids=[
        "config-list", "hyper-int", "K-string", "K-float", "iters-bool", "synth-unknown-key",
        "train-frac-string", "min-doc-freq-float", "vocab-int",
        "synth-vocab-size-string", "synth-missing-k-true", "synth-r-entry-string", "synth-sharpness-string", "synth-seed-float",
        "synth-k-true-zero", "synth-vocab-size-zero", "synth-num-docs-negative", "synth-sharpness-zero", "synth-r-zero",
        "synth-r-list-length", "synth-p-one", "synth-p-list-length", "synth-max-retries-negative", "synth-seed-negative",
    ],
)
def test_run_rejects_wrongly_shaped_json(tmp_path, capsys, flag, content, message, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    synth = bad if flag == "--synth" else write_synth_spec(tmp_path)
    args = ["run", "--model", "gamma-nb", "--synth", str(synth), "--out", str(tmp_path / "out")]
    if flag == "--config":
        args += ["--config", str(bad)]
    assert main(args) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert code != EXIT_IO or str(bad) in err[0]
    assert not (tmp_path / "out").exists()  # rejected before run() writes config.json or .incomplete


def test_runconfig_rejects_unknown_hyper_keys():
    with pytest.raises(ValueError, match="unknown hyper"):
        RunConfig.from_dict(
            {
                "model": "gamma-nb",
                "output_dir": "x",
                "synth": {"k_true": 1, "vocab_size": 2, "num_docs": 2},
                "hyper": {"Q": 12},
            }
        )


def test_synth_round_trip(tmp_path):
    out = tmp_path / "corpus"
    args = [
        "synth",
        "--k-true",
        "5",
        "--docs",
        "50",
        "--vocab-size",
        "30",
        "--seed",
        "1",
        "--out",
        str(out),
    ]
    assert main(args) == EXIT_OK
    corpus = load_bag_of_words(out / "docword.txt", out / "vocab.txt")
    assert corpus.num_docs == 50
    assert corpus.vocab_size == 30
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["r_k"]) == 5
    assert len(truth["p_j"]) == 50


def test_synth_deterministic(tmp_path):
    for name in ("s1", "s2"):
        args = ["synth", "--k-true", "2", "--docs", "10", "--vocab-size", "8", "--seed", "3", "--out", str(tmp_path / name)]
        assert main(args) == EXIT_OK
    assert (tmp_path / "s1" / "docword.txt").read_bytes() == (tmp_path / "s2" / "docword.txt").read_bytes()


def test_synth_single_topic(tmp_path):
    out = tmp_path / "k1"
    assert main(["synth", "--k-true", "1", "--docs", "5", "--vocab-size", "6", "--seed", "2", "--out", str(out)]) == EXIT_OK
    truth = json.loads((out / "truth.json").read_text())
    assert len(truth["r_k"]) == 1


def test_synth_p_beta_draws_document_probabilities(tmp_path):
    out = tmp_path / "pb"
    args = [
        "synth",
        "--k-true",
        "2",
        "--docs",
        "40",
        "--vocab-size",
        "10",
        "--p-beta",
        "2",
        "2",
        "--seed",
        "4",
        "--out",
        str(out),
    ]
    assert main(args) == EXIT_OK
    truth = json.loads((out / "truth.json").read_text())
    p = np.array(truth["p_j"])
    assert len(np.unique(p)) > 10  # per-document values, not a constant


def test_validate_quick_passes(capsys):
    assert main(["validate", "--quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[PASS] crt-sampler-vs-pmf" in out
    assert "[PASS] geweke-gamma-nb" in out
    assert "all" in out and "passed" in out


def test_validate_fault_injection_fails(capsys):
    assert main(["validate", "--quick", "--fault-inject", "crt-shape"]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "[FAIL] crt-sampler-vs-pmf" in out


def test_validate_r_shape_fault_fails_nb_ftm_check():
    # the check nbproc validate --quick --fault-inject r-shape runs as geweke-nb-ftm
    ok, detail = _make_geweke_check(ModelKind.NB_FTM)(RandomSource(0).child(1), True, "r-shape")
    assert not ok, detail


def test_failed_run_leaves_sentinel(tmp_path, monkeypatch, capsys):
    # a sweep that fails mid-run must leave the partial output flagged
    calls = []

    def failing_sweep(state, hyper, rng):
        calls.append(None)
        if len(calls) == 3:
            raise IterationError("z-weights", "injected failure at iteration 2")
        return gibbs_sweep(state, hyper, rng)

    monkeypatch.setattr(cli, "gibbs_sweep", failing_sweep)
    out = tmp_path / "broken"
    assert main(run_args(tmp_path, "broken")) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err == "error: non-finite value in update of 'z-weights': injected failure at iteration 2\n"
    assert len(calls) == 3
    assert (out / ".incomplete").exists() and (out / "config.json").exists()
    assert not (out / "trace.csv").exists()


def test_run_frees_the_corpus_and_keeps_one_accumulator(tmp_path, monkeypatch):
    # the sweeps see no Corpus left alive, and no accumulator is made per iteration
    load_run_corpus, corpora = cli._load_run_corpus, []

    def loaded(config):
        corpus = load_run_corpus(config)
        corpora.append(weakref.ref(corpus))
        return corpus

    def sweep(state, hyper, rng):
        assert corpora and all(ref() is None for ref in corpora)
        return gibbs_sweep(state, hyper, rng)

    empty, made = cli.SampleAccumulator.empty, []
    monkeypatch.setattr(cli, "_load_run_corpus", loaded)
    monkeypatch.setattr(cli, "gibbs_sweep", sweep)
    monkeypatch.setattr(cli.SampleAccumulator, "empty", lambda *args: made.append(None) or empty(*args))
    assert main(run_args(tmp_path, "out")) == EXIT_OK  # 30 iterations, 10 of them burn-in
    assert len(made) == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert sorted(report["corpus"]) == ["num_docs", "total_tokens", "vocab_size"]  # what the run kept of the corpus


def test_run_drops_empty_documents_and_keeps_the_vocabulary(tmp_path, caplog):
    # document 2 holds no tokens, and term c appears in no document
    docword, vocab = tmp_path / "d.txt", tmp_path / "v.txt"
    docword.write_text("3\n3\n2\n1 1 2\n3 2 2\n")
    vocab.write_text("a\nb\nc\n")
    out = tmp_path / "out"
    args = ["run", "--model", "gamma-nb", "--docword", str(docword), "--vocab", str(vocab), "--K", "2"]
    args += ["--iters", "3", "--burnin", "1", "--init-iters", "1", "--out", str(out)]
    with caplog.at_level("WARNING", logger="nbproc.corpus"):
        assert main(args) == EXIT_OK
    assert "drop_empty_documents dropped 1 empty document(s)" in caplog.messages
    report = json.loads((out / "report.json").read_text())
    assert report["corpus"] == {"num_docs": 2, "total_tokens": 4, "vocab_size": 3}


def test_split_without_held_out_tokens_writes_nothing(tmp_path, capsys):
    # a corpus of single-token documents yields no held-out tokens: the run
    # fails before it writes anything or runs a sweep
    docword = tmp_path / "d.txt"
    vocab = tmp_path / "v.txt"
    docword.write_text("2\n2\n2\n1 1 1\n2 2 1\n")
    vocab.write_text("a\nb\n")
    out = tmp_path / "broken"
    args = ["run", "--model", "gamma-nb", "--docword", str(docword), "--vocab", str(vocab), "--train-frac", "0.6"]
    args += ["--iters", "5", "--burnin", "1", "--init-iters", "1", "--K", "2", "--out", str(out)]
    assert main(args) == EXIT_CHECK_FAILED
    assert "error: the split holds out no tokens" in capsys.readouterr().err
    assert not out.exists()


def test_min_doc_freq_filters_vocabulary(tmp_path):
    docword = tmp_path / "d.txt"
    vocab = tmp_path / "v.txt"
    # term 1 appears in both docs, terms 2 and 3 in one each
    docword.write_text("2\n3\n4\n1 1 3\n1 2 2\n2 1 3\n2 3 2\n")
    vocab.write_text("a\nb\nc\n")
    out = tmp_path / "filtered"
    args = [
        "run",
        "--model",
        "lda",
        "--docword",
        str(docword),
        "--vocab",
        str(vocab),
        "--min-doc-freq",
        "2",
        "--train-frac",
        "0.6",
        "--iters",
        "10",
        "--burnin",
        "2",
        "--init-iters",
        "1",
        "--K",
        "2",
        "--out",
        str(out),
    ]
    assert main(args) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["corpus"]["vocab_size"] == 1  # only the shared term survives


def test_traced_benchmark_layers_resolve():
    # perfbench/traced.py wraps these module attributes by name; each must
    # still be a function of nbproc, or the traced benchmark run stops
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.LAYERS
    for module_name, attr, *_ in traced.LAYERS:
        assert module_name.split(".")[0] == "nbproc", module_name
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_benchmark_inputs_build_from_the_corpus_api(tmp_path, monkeypatch):
    # perfbench/run.py make_inputs writes each benchmark corpus with
    # synthesize_corpus and write_bag_of_words and describes it with
    # split_train_test and Corpus.total_tokens; a tiny workload runs it whole
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # the module's dataclasses look themselves up there
    spec.loader.exec_module(bench)
    synth = dict(k_true=2, vocab_size=20, num_docs=6, topic_sharpness=0.1, r=5.0, p=0.6)
    tiny = bench.Workload("tiny", model="gamma-nb", K=3, iters=2, burnin=1, init_iters=1, spec=synth)
    inputs = tmp_path / "inputs"
    props = bench.make_inputs(tiny, 4, inputs)
    corpus = load_bag_of_words(inputs / "docword.txt", inputs / "vocab.txt")
    expected, _ = synthesize_corpus(HyperParams(), SyntheticSpec(**synth), RandomSource(4))
    assert corpus.vocab == expected.vocab
    assert np.array_equal(corpus.terms, expected.terms) and np.array_equal(corpus.offsets, expected.offsets)
    split = split_train_test(corpus, bench.TRAIN_FRAC, RandomSource(4).child(2))
    cells = sum(len(np.unique(t)) for t in corpus.doc_tokens)
    assert (props["J"], props["V"], props["tokens"]) == (6, 20, corpus.total_tokens)
    assert props["docword_lines"] == 3 + cells
    assert props["train_tokens"] == split.total_train > 0
    assert props["train_cells"] == sum(len(np.unique(t)) for t in split.train_tokens)
