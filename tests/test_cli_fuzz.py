"""Fuzz the command line: argv drawn from COMMANDS over good and broken files.

Every run must end with exit code 0, 1 or 2, raise nothing, and print
nothing on stdout unless it succeeds.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from letterlab.alphabet import builtin_names
from letterlab.cli import COMMANDS, FORMATS, main

from conftest import read_data

TEXT = read_data("solver_plaintext.txt")[:1500]
FILES = {
    "text.txt": TEXT.encode(),
    "cipher.txt": "wkh txlfn eurzq ira mxpsv ryhu wkh odcb grj".encode(),
    "empty.txt": b"",
    "nul.txt": b"the\x00cat\x00sat\x00",
    "utf16.txt": "hello".encode("utf-16"),
    "broken.txt": b"abc\xc3(def\xff",
    "tiny.alphabet": b"name: tiny\nletters: abct\nvowels: a\nfold: d > -\n",
    "nul.alphabet": b"name: nul\nletters: ab\x00c\nvowels: a\n",
    "builtin-name.alphabet": b"la\n",
    "no-vowels.alphabet": b"name: x\nletters: abc\n",
    "dup-letters.alphabet": b"name: x\nletters: aab\nvowels: a\n",
    "bad-fold.alphabet": b"name: x\nletters: abc\nvowels: a\nfold: b > z\n",
    "broken.alphabet": b"name: x\nletters: ab\xff\nvowels: a\n",
}
# malformed model files, as (unigram, digram) contents under one prefix each
MODELS = {
    "header": (b"letter;count\n", b"first,second,count\n"),
    "fields": (b"letter,count\na,1,2\n", b"first,second,count\n"),
    "count": (b"letter,count\na,x\n", b"first,second,count\n"),
    "negative": (b"letter,count\na,-4\n", b"first,second,count\na,b,-1\n"),
    "foreign": (b"letter,count\n\xc3\xa9,3\n", b"first,second,count\na,\xc3\xa9,1\n"),
    "repeated": (b"letter,count\na,1\na,2\n", b"first,second,count\na,b,1\na,b,1\n"),
    "huge": (b"letter,count\na,%d\nb,1\n" % 10**400, b"first,second,count\na,b,%d\n" % 10**400),
    "zero": (b"letter,count\na,0\n", b"first,second,count\n"),
    "empty": (b"", b""),
    "nul": (b"letter,count\na\x00,1\n", b"first,second,count\na,b\x00,1\n"),
    "broken": (b"letter,count\na,1\n\xff\n", b"first,second,count\n"),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    files = {}
    for name, data in FILES.items():
        (root / name).write_bytes(data)
        files[name] = str(root / name)
    (root / "dir").mkdir()
    models = [str(root / "trained")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train-model", files["text.txt"], "--out", models[0]]) == 0
    for name, (unigram, digram) in MODELS.items():
        (root / f"{name}.unigram.csv").write_bytes(unigram)
        (root / f"{name}.digram.csv").write_bytes(digram)
        models.append(str(root / name))
    missing, directory = str(root / "missing"), str(root / "dir")
    return {
        "inputs": [*files.values(), "-", missing, directory],
        "alphabets": [*builtin_names(), *(p for p in files.values() if p.endswith(".alphabet")), missing, "xx"],
        "models": [*models, missing, files["text.txt"]],
        "outs": [str(root / "out" / "m"), str(root / "written"), directory],
    }


def option_value(paths, flag: str, kwargs: dict):
    if kwargs.get("action") == "store_true":
        return st.just([])
    if "choices" in kwargs:
        values = st.sampled_from([*kwargs["choices"], -1]).map(str)
    elif kwargs.get("type") is int:
        # lengths and restarts stay small so that every run is quick
        values = (st.integers(-1, 3) if flag == "--restarts" else st.integers(-2, 60)).map(str)
    elif kwargs.get("type") is float:
        values = st.sampled_from(["0.01", "0", "1", "-1", "0.5", "nan", "inf", "1e-300"])
    elif "type" in kwargs:  # --sizes
        values = st.one_of(
            st.lists(st.integers(-2, 2000), min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs))),
            st.sampled_from(["", "a,b", "1,,2"]),
        )
    elif flag == "--model":
        values = st.sampled_from(paths["models"])
    elif flag == "--out":
        values = st.sampled_from(paths["outs"])
    else:
        values = st.sampled_from(paths["inputs"])
    return values.map(lambda v: [v])


# Hypothesis draws the first of a few choices most often
often = st.sampled_from([True, True, True, True, True, False])


@st.composite
def argvs(draw, paths):
    command = draw(st.sampled_from(COMMANDS))
    argv = command.name.split()
    argv += draw(st.lists(st.sampled_from(paths["inputs"]), min_size=command.inputs, max_size=command.inputs))
    for flag, kwargs in command.options.items():
        # leaving out a required option is a usage error, which is allowed too
        if draw(often):
            argv += [flag, *draw(option_value(paths, flag, kwargs))]
    if draw(st.booleans()):
        argv += ["--alphabet", draw(st.sampled_from(paths["alphabets"]))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from([*FORMATS, "xml"]))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.sampled_from([0, 7, -1, 2**64 - 1, 2**64])))]
    if not draw(often):
        argv.insert(draw(st.integers(0, len(argv))), "--nonsense")
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz(paths, data):
    argv = data.draw(argvs(paths), label="argv")
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(TEXT[:200].encode()), encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        saved, sys.stdin = sys.stdin, stdin
        try:
            code = main(argv)
        finally:
            sys.stdin = saved
    assert code in (0, 1, 2)
    if code != 0:
        assert out.getvalue() == ""
