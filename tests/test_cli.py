import contextlib
import csv
import inspect
import io
import json
import os
import random
import string
import subprocess
import sys
import tracemalloc

import pytest

from letterlab.alphabet import load_alphabet
from letterlab.cipher import hill_climb_solve, length_check
from letterlab.cli import COMMANDS, FORMATS, Report, main
from letterlab.errors import InputError, read_text
from letterlab.stylometry import blocks_of, lipogram_scan
from letterlab.zipf import fit_power_law

from conftest import data_path

ANALYSIS = data_path("english_analysis.txt")
TRAINING = data_path("english_training.txt")
PLAINTEXT = data_path("solver_plaintext.txt")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*args):
    """Run a fresh interpreter that imports letterlab from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_csv(capsys):
    code, out, err = run_cli(capsys, "count", "--alphabet", "en", PLAINTEXT, "--format", "csv")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "letter,count,proportion,rank"
    assert len(lines) == 27


def test_count_json_has_rank_order(capsys):
    code, out, _ = run_cli(capsys, "count", PLAINTEXT, "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["rank_order"][0] == "e"
    assert d["total"] == sum(d["counts"].values())


def test_output_is_byte_identical_across_runs(capsys):
    _, out1, _ = run_cli(capsys, "count", ANALYSIS, "--format", "csv")
    _, out2, _ = run_cli(capsys, "count", ANALYSIS, "--format", "csv")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "markov", "test", ANALYSIS, "--format", "json")
    _, out4, _ = run_cli(capsys, "markov", "test", ANALYSIS, "--format", "json")
    assert out3 == out4


@pytest.mark.parametrize(
    "argv",
    [
        ("count",),
        ("digrams",),
        ("positions",),
        ("entropy",),
        ("zipf",),
    ],
)
def test_single_input_commands_support_all_formats(capsys, argv):
    for fmt in ("csv", "json", "text"):
        code, out, _ = run_cli(capsys, *argv, PLAINTEXT, "--format", fmt)
        assert code == 0 and out
        if fmt == "json":
            json.loads(out)


def test_compare_formats(capsys):
    for fmt in ("csv", "json", "text"):
        code, out, _ = run_cli(capsys, "compare", ANALYSIS, PLAINTEXT, "--format", fmt)
        assert code == 0 and out


def test_stability_csv(capsys):
    code, out, _ = run_cli(
        capsys, "stability", ANALYSIS, "--sizes", "90,1000,10000", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,total_variation,chi_square,rank_correlation"
    assert len(lines) == 4


def test_stability_random_subsamples_seeded(capsys):
    args = ("stability", ANALYSIS, "--sizes", "90,1000", "--random", "--format", "csv")
    _, out_a, _ = run_cli(capsys, *args, "--seed", "4")
    _, out_b, _ = run_cli(capsys, *args, "--seed", "4")
    _, out_c, _ = run_cli(capsys, *args, "--seed", "5")
    assert out_a == out_b  # same seed, same samples
    assert out_a != out_c
    _, prefix_out, _ = run_cli(capsys, "stability", ANALYSIS, "--sizes", "90,1000", "--format", "csv")
    assert out_a != prefix_out


def test_zipf_on_flat_counts_prints_an_exact_fit(capsys, tmp_path):
    flat = tmp_path / "flat.txt"
    flat.write_text("aa bb cc dd ee " * 7, encoding="utf-8")
    code, out, _ = run_cli(capsys, "zipf", str(flat), "--format", "text")
    assert code == 0 and out.endswith("fit: exponent 0, r^2 1.000000, 5 points (count >= 5)\n")


def test_render_builds_only_the_asked_format():
    class Watched(Report):
        def __getattribute__(self, name):
            if name in ("header", "rows", "data", "lines"):
                read.add(name)
            return super().__getattribute__(name)

    def data():
        called.append(1)
        return {"n": 2}

    def rows():
        for i in range(2):
            pulled.append(i)
            yield [i, "a,b"]

    expected = {
        "csv": ({"header", "rows"}, 'n,word\n0,"a,b"\n1,"a,b"\n'),
        "json": ({"data"}, '{\n  "n": 2\n}\n'),
        "text": ({"lines"}, "one\ntwo\n"),
    }
    for fmt in FORMATS:
        read, called, pulled, out = set(), [], [], io.StringIO()
        Watched(["n", "word"], rows(), data, ["one", "two"]).render(fmt, out)
        assert (read, out.getvalue()) == expected[fmt]
        assert called == ([1] if fmt == "json" else [])
        assert pulled == ([0, 1] if fmt == "csv" else [])


def test_zipf_builds_only_the_asked_format(tmp_path):
    # nearly every word distinct: the JSON value is the largest rendering, and a
    # run that printed CSV or text while building it as well would peak near it
    rng = random.Random(1)
    text = tmp_path / "groups.txt"
    text.write_text(" ".join("".join(rng.choices(string.ascii_lowercase, k=5)) for _ in range(20_000)), "utf-8")
    peaks = {}
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert main(["zipf", str(text), "--format", "text"]) == 0  # loads the modules first
        for fmt in FORMATS:
            tracemalloc.start()
            assert main(["zipf", str(text), "--format", fmt]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    assert peaks["csv"] < 0.35 * peaks["json"] and peaks["text"] < 0.35 * peaks["json"], peaks


def test_style_subcommands(capsys):
    for argv in [
        ("style", "vc", PLAINTEXT),
        ("style", "alberti", PLAINTEXT),
        ("style", "compare", ANALYSIS, PLAINTEXT),
        ("style", "compass", ANALYSIS, "--block-size", "1000"),
    ]:
        for fmt in ("csv", "json", "text"):
            code, out, _ = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0 and out


def test_style_alberti_prints_fractions(capsys):
    _, out, _ = run_cli(capsys, "style", "alberti", PLAINTEXT, "--format", "csv")
    assert "7/16" in out and "3/7" in out


def test_lipogram_cli(capsys):
    code, out, _ = run_cli(
        capsys,
        "lipogram",
        PLAINTEXT,
        "--reference",
        TRAINING,
        "--alpha",
        "0.01",
        "--format",
        "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "letter,observed,expected,p_value"


def test_markov_test_json_fields(capsys):
    code, out, _ = run_cli(capsys, "markov", "test", ANALYSIS, "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert set(d) == {"chi_square", "df", "p_value", "p_vv", "p_vc", "p_cv", "p_cc"}
    assert d["p_value"] < 1e-6


def test_train_model_and_solve_and_generate(tmp_path, capsys, en, solver_plaintext):
    import letterlab as L

    prefix = str(tmp_path / "en.model")
    code, out, _ = run_cli(capsys, "train-model", TRAINING, "--out", prefix, "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["unigram"].endswith(".unigram.csv")

    key = L.SubstitutionKey.from_target_string(en, "zyxwvutsrqponmlkjihgfedcba")
    cipher_file = tmp_path / "cipher.txt"
    cipher_file.write_text(L.encrypt(solver_plaintext, key).symbols, encoding="utf-8")

    code, out, _ = run_cli(
        capsys,
        "solve",
        "--model",
        prefix,
        "--restarts",
        "4",
        "--seed",
        "7",
        str(cipher_file),
        "--format",
        "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["length_warning"] is None
    assert report["restarts_run"] == 4
    assert 0.5 < sum(
        1 for ch in en.letters if report["key"][ch] == key.mapping[ch]
    ) / 26

    code, out, _ = run_cli(
        capsys, "generate", "--model", prefix, "--order", "1", "--length", "40", "--seed", "1"
    )
    assert code == 0 and len(out.strip()) == 40

    code, out, _ = run_cli(
        capsys, "generate", "--vc-corpus", ANALYSIS, "--length", "10", "--seed", "1"
    )
    assert code == 0 and set(out.strip()) <= {"V", "C"}


def test_solve_short_input_carries_length_warning(tmp_path, capsys):
    prefix = str(tmp_path / "m")
    run_cli(capsys, "train-model", TRAINING, "--out", prefix)
    cipher_file = tmp_path / "short.txt"
    cipher_file.write_text("wkh" * 10, encoding="utf-8")  # 30 symbols
    code, out, _ = run_cli(
        capsys, "solve", "--model", prefix, "--restarts", "2", str(cipher_file), "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["length_warning"] == {"length": 30, "threshold": 90}


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"hello world"), encoding="utf-8"))
    code, out, _ = run_cli(capsys, "count", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"]["l"] == 3


@pytest.mark.parametrize(
    "argv, line",
    [
        (["compare", "-", "-"], "total variation:  0.000000"),
        (["style", "compare", "-", "-"], "z statistic: 0"),
        (["lipogram", "-", "--reference", "-"], "letter,observed,expected,p_value"),
    ],
    ids=["compare", "style-compare", "lipogram"],
)
def test_a_second_stdin_input_reads_the_same_text(capsys, monkeypatch, argv, line):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"hello world"), encoding="utf-8"))
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and line in out.splitlines()
    # each run of main reads the standard input it finds
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"zzz"), encoding="utf-8"))
    code, out, _ = run_cli(capsys, "count", "-", "--format", "json")
    assert code == 0 and json.loads(out)["counts"]["z"] == 3


def test_exit_code_2_on_usage_error(capsys):
    assert main(["count"]) == 2  # missing input
    capsys.readouterr()
    assert main(["nonsense"]) == 2
    capsys.readouterr()
    assert main(["markov"]) == 2
    capsys.readouterr()


def test_exit_code_1_on_data_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, "count", str(tmp_path / "missing.txt"))
    assert code == 1 and "error" in err and out == ""

    bad_spec = tmp_path / "bad.alphabet"
    bad_spec.write_text("name: bad\nletters: ab\nvowels: ab\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "--alphabet", str(bad_spec), PLAINTEXT)
    assert code == 1 and "error" in err

    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, "zipf", str(empty))
    assert code == 1 and "error" in err

    code, out, err = run_cli(capsys, "count", "--alphabet", "xx", PLAINTEXT)
    assert code == 1


def test_alphabet_spec_file(capsys, tmp_path):
    spec = tmp_path / "tiny.alphabet"
    spec.write_text("name: tiny\nletters: abct\nvowels: a\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("a cab, a cat!", encoding="utf-8")
    code, out, _ = run_cli(capsys, "count", "--alphabet", str(spec), str(corpus), "--format", "json")
    assert code == 0
    d = json.loads(out)
    assert d["counts"] == {"a": 4, "b": 1, "c": 2, "t": 1}


def test_spec_letters_that_lowercasing_changes_are_an_error(capsys, tmp_path):
    spec = tmp_path / "upper.alphabet"
    spec.write_text("name: upper\nletters: ABC\nvowels: A\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "--alphabet", str(spec), PLAINTEXT)
    assert code == 1 and out == ""
    assert err == "letterlab: error: line 2: letters lost to lowercasing, no fold to them: ['A', 'B', 'C']\n"


def test_digram_text_ranks_count_ties_in_alphabet_order(capsys, tmp_path):
    spec = tmp_path / "reversed.alphabet"
    spec.write_text("name: reversed\nletters: zyxwvutsrqponmlkjihgfedcba\nvowels: aeiou\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("ab zy", encoding="utf-8")
    code, out, _ = run_cli(capsys, "digrams", "--alphabet", str(spec), str(corpus), "--format", "csv")
    assert code == 0 and [row[0] + row[1] for row in csv_rows(out)[1:]] == ["zy", "bz", "ab"]
    code, out, _ = run_cli(capsys, "digrams", "--alphabet", str(spec), str(corpus), "--format", "text")
    assert code == 0 and [line.split()[0] for line in out.splitlines()[1:]] == ["zy", "bz", "ab"]


def test_spec_file_holding_a_builtin_name_is_an_error(capsys, tmp_path):
    spec = tmp_path / "f.alphabet"
    spec.write_text("la\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "count", "--alphabet", str(spec), PLAINTEXT)
    assert code == 1 and out == "" and err.startswith("letterlab: error: line 1")


def test_alphabet_spec_is_read_once(capsys, tmp_path, monkeypatch):
    import letterlab.cli

    spec = tmp_path / "tiny.alphabet"
    spec.write_text("name: tiny\nletters: abct\nvowels: a\n", encoding="utf-8")
    calls = []

    def counting_load(text):
        calls.append(text)
        return load_alphabet(text)

    monkeypatch.setattr(letterlab.cli, "load_alphabet", counting_load)
    code, out, _ = run_cli(capsys, "compare", "--alphabet", str(spec), ANALYSIS, TRAINING)
    assert code == 0 and out
    assert len(calls) == 1


def csv_rows(out: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(out)))
    assert all(len(row) == len(rows[0]) for row in rows)
    return rows


def test_csv_cells_holding_commas_are_quoted(capsys, tmp_path, monkeypatch):
    spec = tmp_path / "comma.alphabet"
    spec.write_text("name: comma\nletters: ab,\nvowels: a\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("a,b,b,", encoding="utf-8")
    code, out, _ = run_cli(capsys, "count", "--alphabet", str(spec), str(corpus))
    assert code == 0
    assert csv_rows(out)[1:] == [["a", "1", "0.166667", "3"], ["b", "2", "0.333333", "2"], [",", "3", "0.500000", "1"]]
    for command in ("digrams", "positions", "zipf"):
        code, out, _ = run_cli(capsys, command, "--alphabet", str(spec), str(corpus), "--format", "csv")
        assert code == 0 and len(csv_rows(out)) > 1

    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "train-model", str(corpus), "--out", "my,model", "--format", "csv")
    assert code == 0
    assert csv_rows(out) == [["file", "letters"], ["my,model.unigram.csv", "3"], ["my,model.digram.csv", "2"]]


def test_version_and_help(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "letterlab" in out
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, flag, function, parameter",
    [
        ("lipogram", "--alpha", lipogram_scan, "alpha"),
        ("zipf", "--min-count", fit_power_law, "min_count"),
        ("style compass", "--block-size", blocks_of, "block_size"),
        ("solve", "--restarts", hill_climb_solve, "restarts"),
        ("solve", "--length-threshold", hill_climb_solve, "warning_threshold"),
        ("solve", "--length-threshold", length_check, "threshold"),
    ],
)
def test_cli_defaults_match_the_library(command, flag, function, parameter):
    (options,) = [c.options for c in COMMANDS if c.name == command]
    assert options[flag]["default"] == inspect.signature(function).parameters[parameter].default


def test_seed_outside_u64_is_a_data_error(capsys):
    for seed in (-1, 2**64, 2**64 + 7):
        code, out, err = run_cli(capsys, "count", PLAINTEXT, "--seed", str(seed))
        assert code == 1 and out == "" and err.startswith("letterlab: error: seed")
    code, out, _ = run_cli(capsys, "count", PLAINTEXT, "--seed", str(2**64 - 1))
    assert code == 0 and out


def refuse(*args, **kwargs):
    raise AssertionError("work started before the size check")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--vc-corpus", ANALYSIS, "--length", "99999999999999999999"], "length must be at most 10000000"),
        (["generate", "--model", "{model}", "--length", "10000001"], "length must be at most 10000000"),
        (["solve", "--model", "{model}", "--restarts", "10001", "{cipher}"], "at most 10000 restarts"),
        (
            ["solve", "--model", "{model}", "--length-threshold", "-3", "{cipher}"],
            "length warning threshold must be at least 0, got -3\n",
        ),
    ],
    ids=["generate-vc", "generate-model", "solve", "solve-negative-threshold"],
)
def test_sizes_above_their_bound_are_data_errors(capsys, monkeypatch, tmp_path, argv, message):
    import letterlab.cipher
    import letterlab.markov

    model, cipher = str(tmp_path / "m"), tmp_path / "cipher.txt"
    assert run_cli(capsys, "train-model", PLAINTEXT, "--out", model)[0] == 0
    cipher.write_text("wkh txlfn eurzq ira", encoding="utf-8")
    # the bound is checked before a walk or a solve does any work
    monkeypatch.setattr(letterlab.markov, "_walk", refuse)
    monkeypatch.setattr(letterlab.cipher.LanguageModel, "_log_probs", property(refuse))
    code, out, err = run_cli(capsys, *(a.format(model=model, cipher=cipher) for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("letterlab: error: ") and message in err


def test_generate_order_applies_to_model_only(capsys, tmp_path):
    code, out, err = run_cli(capsys, "generate", "--vc-corpus", ANALYSIS, "--order", "0", "--length", "5")
    assert code == 1 and out == "" and err == "letterlab: error: generate --order applies to --model only\n"
    model = str(tmp_path / "m")
    assert run_cli(capsys, "train-model", PLAINTEXT, "--out", model)[0] == 0
    # without --order, --model walks order 1 and the csv says so
    for argv, order in [((), "1"), (("--order", "0"), "0")]:
        code, out, _ = run_cli(capsys, "generate", "--model", model, "--length", "5", "--format", "csv", *argv)
        assert code == 0 and csv_rows(out)[1][:2] == [f"order-{order}", order]


def test_model_counts_too_large_for_a_float_are_data_errors(capsys, tmp_path):
    # such a count once escaped as an OverflowError from the solver's log probabilities
    huge = 10**400
    (tmp_path / "m.unigram.csv").write_text(f"letter,count\na,{huge}\n", encoding="utf-8")
    (tmp_path / "m.digram.csv").write_text(f"first,second,count\na,b,{huge}\n", encoding="utf-8")
    cipher = tmp_path / "cipher.txt"
    cipher.write_text("wkh txlfn eurzq ira", encoding="utf-8")
    model = str(tmp_path / "m")
    for argv in (["solve", str(cipher), "--model", model], ["generate", "--model", model, "--length", "5"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err == f"letterlab: error: unigram file line 2: bad count '{huge}'\n"


@pytest.mark.parametrize(
    "unigram", [b"letter,count\n" + b"a" * 200_000 + b",1\n", b"letter,count\na\x00,1\n"], ids=["field-limit", "nul"]
)
def test_model_rows_the_csv_reader_rejects_are_data_errors(capsys, tmp_path, unigram):
    # csv.Error once escaped as a traceback; its wording differs between Python versions
    (tmp_path / "m.unigram.csv").write_bytes(unigram)
    (tmp_path / "m.digram.csv").write_bytes(b"first,second,count\n")
    code, out, err = run_cli(capsys, "generate", "--model", str(tmp_path / "m"), "--length", "5")
    assert code == 1 and out == "" and err.startswith("letterlab: error: unigram file line 2: ")


def test_missing_model_file_is_a_data_error(capsys, tmp_path):
    cipher = tmp_path / "cipher.txt"
    cipher.write_text("wkh txlfn eurzq ira", encoding="utf-8")
    missing = str(tmp_path / "nosuch")
    for argv in (["generate", "--model", missing, "--length", "5"], ["solve", str(cipher), "--model", str(tmp_path)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("letterlab: error: cannot read ")
        assert err.endswith(".unigram.csv': No such file or directory\n")


def test_unwritable_model_prefix_is_a_data_error(capsys, tmp_path):
    import letterlab as L

    prefix = str(tmp_path / "nodir" / "m")
    code, out, err = run_cli(capsys, "train-model", PLAINTEXT, "--out", prefix)
    assert code == 1 and out == ""
    assert err == f"letterlab: error: cannot write {prefix + '.unigram.csv'!r}: No such file or directory\n"
    # library callers still see the OSError itself
    with pytest.raises(FileNotFoundError):
        L.LanguageModel.train(L.normalize("abc", L.builtin_alphabet("en"))).save(prefix)


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--model", "", "--length", "5"],
        ["solve", "--model", "", "cipher.txt"],
        ["train-model", PLAINTEXT, "--out", ""],
    ],
    ids=["generate", "solve", "train-model"],
)
def test_empty_model_prefix_is_a_data_error(capsys, monkeypatch, tmp_path, argv):
    # the prefix "" names .unigram.csv and .digram.csv in the working directory, so place a model there
    assert run_cli(capsys, "train-model", ANALYSIS, "--out", str(tmp_path / "m"))[0] == 0
    for kind in ("unigram", "digram"):
        os.replace(tmp_path / f"m.{kind}.csv", tmp_path / f".{kind}.csv")
    (tmp_path / "cipher.txt").write_text("wkh txlfn eurzq ira", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == "" and err == "letterlab: error: empty model file prefix\n"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_undecodable_input_is_a_data_error(capsys, monkeypatch, tmp_path):
    import io

    raw = b"\xff\xfeh\x00i\x00"  # UTF-16 with a byte order mark
    bad = tmp_path / "utf16.txt"
    bad.write_bytes(raw)
    code, out, err = run_cli(capsys, "count", str(bad))
    assert code == 1 and out == "" and err.startswith("letterlab: error: cannot decode")

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8"))
    code, out, err = run_cli(capsys, "count", "-")
    assert code == 1 and out == "" and err.startswith("letterlab: error: cannot decode '-'")


BOM = b"\xef\xbb\xbf"
CAESAR = b"wkh txlfn eurzq ira mxpsv ryhu wkh odcb grj\n"


def run_on_file_and_stdin(capsys, monkeypatch, tmp_path, data: bytes, *argv):
    """`letterlab argv` run on `data` as the file in.txt and as standard input."""
    (tmp_path / "in.txt").write_bytes(data)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    return run_cli(capsys, *argv, "in.txt"), run_cli(capsys, *argv, "-")


def test_a_leading_byte_order_mark_is_not_text(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, "train-model", data_path("english_training.txt"), "--out", "model")[0] == 0
    for argv in (["count"], ["solve", "--model", "model", "--restarts", "2"]):
        plain = run_on_file_and_stdin(capsys, monkeypatch, tmp_path, CAESAR, *argv)
        assert [code for code, _, _ in plain] == [0, 0]
        assert run_on_file_and_stdin(capsys, monkeypatch, tmp_path, BOM + CAESAR, *argv) == plain
    # model files that open with the mark read as the plain ones
    for kind in ("unigram", "digram"):
        (tmp_path / f"marked.{kind}.csv").write_bytes(BOM + (tmp_path / f"model.{kind}.csv").read_bytes())
    argv = ["solve", "--model", "marked", "--restarts", "2"]
    assert run_on_file_and_stdin(capsys, monkeypatch, tmp_path, BOM + CAESAR, *argv) == plain


def test_a_spec_file_may_open_with_a_byte_order_mark(capsys, tmp_path):
    spec = "name: tiny\nletters: abct\nvowels: a\nfold: é > a\n".encode()
    (tmp_path / "plain.alphabet").write_bytes(spec)
    (tmp_path / "marked.alphabet").write_bytes(BOM + spec)
    text = data_path("solver_plaintext.txt")
    for argv in (["count"], ["style", "vc"]):
        plain = run_cli(capsys, *argv, "--alphabet", str(tmp_path / "plain.alphabet"), text)
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--alphabet", str(tmp_path / "marked.alphabet"), text) == plain


def run_on_stdin(data: bytes, *argv, **env):
    """`letterlab argv` in a fresh interpreter under the POSIX locale, with
    `data` on standard input and `env` added to the environment."""
    env = dict(
        {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"},
        PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
        LC_ALL="C",
        **env,
    )
    argv = [sys.executable, "-m", "letterlab", *argv]
    return subprocess.run(argv, input=data, capture_output=True, env=env, timeout=60)


def test_stdin_is_strict_utf8_under_the_posix_locale():
    # the locale's own stdin codec would let UTF-16 through with surrogate escapes
    done = run_on_stdin(b"\xff\xfeh\x00i\x00", "count", "-")
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.startswith(b"letterlab: error: cannot decode '-' as UTF-8: invalid start byte at byte 0")


def test_stdin_is_utf8_whatever_the_io_encoding():
    # read as latin-1, "\xc3\xa9" would be two foreign characters and "\xff" a y
    argv = ("count", "--alphabet", "fr", "-", "--format", "json")
    done = run_on_stdin("café".encode(), *argv, PYTHONIOENCODING="latin-1")
    assert done.returncode == 0
    assert json.loads(done.stdout)["counts"]["e"] == 1
    done = run_on_stdin("café \xff".encode("latin-1"), *argv, PYTHONIOENCODING="latin-1")
    assert done.returncode == 1 and done.stdout == b""
    assert done.stderr.startswith(b"letterlab: error: cannot decode '-' as UTF-8")


@pytest.mark.parametrize(
    "data", [b"caf\xc3\xa9\r\nna\xc3\xafve\rend\n", b"\xef\xbb\xbfbom", b"", b"a\xc3", b"ok\xffno"], ids=repr
)
def test_stdin_is_read_as_a_file_is(monkeypatch, tmp_path, data):
    # the same text, or the same decode error, whatever codec stdin's wrapper has
    path = tmp_path / "input.txt"
    path.write_bytes(data)

    def read(name):
        try:
            return read_text(name)
        except InputError as exc:
            return str(exc).replace(repr(str(path)), "'-'")

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
    assert read("-") == read(str(path))


@pytest.mark.parametrize("module", ["letterlab", "letterlab.cli"])
def test_module_runs_as_script(module):
    done = run_python("-m", module, "count", PLAINTEXT)
    assert done.returncode == 0
    assert done.stdout.startswith("letter,count,proportion,rank\n")


# imports letterlab, runs main(argv) when argv is given, and reports on
# stderr, as one JSON line, whether numpy and statistics were imported along
# the way and which letterlab submodules were
IMPORT_PROBE = """
import json
import sys
import letterlab
code = 0
if sys.argv[1:]:
    from letterlab.cli import main
    code = main(sys.argv[1:])
loaded = {"numpy": "numpy" in sys.modules, "statistics": "statistics" in sys.modules}
loaded["letterlab"] = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("letterlab."))
print(json.dumps(loaded), file=sys.stderr)
sys.exit(code)
"""


def probe_imports(*argv) -> dict:
    done = run_python("-c", IMPORT_PROBE, *argv)
    assert done.returncode == 0, done.stderr
    assert bool(done.stdout) == bool(argv)
    return json.loads(done.stderr.splitlines()[-1])


def probe_ids(v):
    return " ".join(map(os.path.basename, v)) or "import" if isinstance(v, tuple) else None


@pytest.mark.parametrize(
    "argv, loads_numpy",
    [
        ((), False),
        (("--version",), False),
        (("--help",), False),
        (("style", "vc", PLAINTEXT), False),
        (("style", "alberti", PLAINTEXT), False),
        (("style", "compare", ANALYSIS, PLAINTEXT), False),
        (("style", "compass", ANALYSIS, "--block-size", "1000"), False),
        (("markov", "test", ANALYSIS), False),
        (("zipf", PLAINTEXT), False),
        # a text of at most alphabet.BLOCK letters is counted without an array
        (("count", PLAINTEXT), False),
        (("digrams", PLAINTEXT), False),
        (("compare", PLAINTEXT, ANALYSIS), False),
        (("entropy", PLAINTEXT), False),
        (("lipogram", PLAINTEXT, "--reference", ANALYSIS), False),
        (("positions", PLAINTEXT), False),
        (("stability", PLAINTEXT, "--sizes", "100,1000", "--random"), False),
        (("train-model", PLAINTEXT, "--out", "{out}"), False),
        # 193,299 characters, more than a block: counted through letter codes
        (("count", TRAINING), True),
        (("digrams", TRAINING), True),
    ],
    ids=probe_ids,
)
def test_commands_that_build_no_array_never_import_numpy(tmp_path, argv, loads_numpy):
    assert probe_imports(*(a.format(out=tmp_path / "model") for a in argv))["numpy"] is loads_numpy


CLI_BASE = {"alphabet", "cli", "errors"}


@pytest.mark.parametrize(
    "argv, modules, loads_statistics",
    [
        ((), set(), False),
        (("--version",), CLI_BASE, False),
        (("style", "vc", PLAINTEXT), CLI_BASE | {"freq", "rng", "stylometry"}, False),
        (("style", "compare", ANALYSIS, PLAINTEXT), CLI_BASE | {"freq", "rng", "stylometry"}, False),
        (("markov", "test", ANALYSIS), CLI_BASE | {"freq", "markov", "rng"}, False),
        (("zipf", PLAINTEXT), CLI_BASE | {"freq", "rng", "zipf"}, False),
        (("count", PLAINTEXT), CLI_BASE | {"freq", "rng"}, False),
        (("solve", "{cipher}", "--model", "{model}", "--restarts", "1"), CLI_BASE | {"cipher", "freq", "rng"}, False),
        (("generate", "--model", "{model}", "--length", "50"), CLI_BASE | {"cipher", "freq", "markov", "rng"}, False),
    ],
    ids=probe_ids,
)
def test_commands_import_only_the_modules_they_run(capsys, tmp_path, argv, modules, loads_statistics):
    model, cipher = str(tmp_path / "m"), tmp_path / "cipher.txt"
    assert run_cli(capsys, "train-model", PLAINTEXT, "--out", model)[0] == 0
    cipher.write_text("wkh txlfn eurzq ira", encoding="utf-8")
    loaded = probe_imports(*(a.format(model=model, cipher=cipher) for a in argv))
    assert set(loaded["letterlab"]) == modules
    assert loaded["statistics"] is loads_statistics
