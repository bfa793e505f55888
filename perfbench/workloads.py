"""The letterlab benchmark workloads.

Every workload turns a seed into a fixed list of operations, and a pass
runs that list once, in order, as one caller on one thread (a closed
loop).  Inputs are cut from the committed fixtures in tests/data with the
standard library only (`random.Random(seed)`, `re`); letterlab never
builds its own inputs, so a change to it cannot change what it is fed.

Importing this module imports letterlab, and building a workload object
is the whole set-up (inputs, trained model, CLI input files and a first
warm call), so the caller times both together as `setup_s`.

Each operation is a function of one argument, `call`, through which it
makes every call into letterlab: `call("freq.count_letters",
count_letters, seq)`.  The tracer behind `call` records a span per call
in a traced pass and does nothing otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import numbers
import os
import random
import re
import resource
import select
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

import letterlab as L
from letterlab.stylometry import blocks_of
from speed import REFERENCE_PROCESS_S, REFERENCE_SLICE_S, process_slice_time, slice_time

LETTERS = "abcdefghijklmnopqrstuvwxyz"
DATA_DIR = os.path.join("tests", "data")


# ---------------------------------------------------------------- inputs


def read_fixture(root: str, name: str) -> str:
    with open(os.path.join(root, DATA_DIR, name), encoding="utf-8") as fh:
        text = fh.read()
    if not text.isascii():
        # letters_of() is the independent oracle for `normalize` under `en`,
        # and it is only exact on ASCII input
        raise ValueError(f"fixture {name} is not ASCII")
    return text


def sentence_chunks(text: str) -> list[str]:
    return re.findall(r"[^.!?]+[.!?]*\s*", text)


def shuffled_text(chunks: list[str], rng: random.Random, size: int) -> str:
    """Whole chunks in seeded order, reshuffled each round, until `size` characters."""
    parts: list[str] = []
    n = 0
    while n < size:
        order = chunks[:]
        rng.shuffle(order)
        for chunk in order:
            parts.append(chunk)
            n += len(chunk)
            if n >= size:
                break
    return "".join(parts)


def letters_of(text: str) -> str:
    """The a-z letters of an ASCII text, lowercased."""
    return re.sub(r"[^a-z]+", "", text.lower())


# ---------------------------------------------------------------- output check


def canon(value) -> str:
    """Deterministic rendering of a returned value, for digests.

    Dicts and sets are sorted, floats keep 12 significant digits (the
    CLI's own precision), dataclasses render the fields their equality
    compares and an Alphabet renders as its name.
    """
    out: list[str] = []
    _canon(value, out.append)
    return "".join(out)


_EXACT = (str, int, bool, type(None))


def _exact(values) -> bool:
    """True when repr() of these values is already canonical (no floats inside)."""
    return all(type(v) in _EXACT or (type(v) is tuple and all(type(e) is str for e in v)) for v in values)


def _key(k) -> str:
    # letterlab keys are letters, states, or pairs of them
    if type(k) is str:
        return k
    try:
        return "|".join(k)
    except TypeError:
        return canon(k)


def _canon(x, emit) -> None:
    t = type(x)
    if t in _EXACT:
        emit(repr(x))
    elif t is float:
        emit(format(x, ".12g"))
    elif t is list or t is tuple:
        if _exact(x):
            emit(repr(list(x)))
            return
        emit("[")
        for v in x:
            _canon(v, emit)
            emit(",")
        emit("]")
    elif t is dict:
        entries = [f"{_key(k)}:{repr(v) if type(v) in _EXACT else canon(v)}" for k, v in x.items()]
        emit("{" + ",".join(sorted(entries)) + "}")
    elif isinstance(x, (set, frozenset)):
        emit("{" + ",".join(sorted(canon(v) for v in x)) + "}")
    elif isinstance(x, Fraction):
        emit(str(x))
    elif isinstance(x, numbers.Integral):
        emit(str(int(x)))
    elif isinstance(x, numbers.Real):
        emit(format(float(x), ".12g"))
    elif isinstance(x, L.Alphabet):
        emit(f"Alphabet({x.name!r})")
    elif dataclasses.is_dataclass(x):
        emit(type(x).__name__ + "(")
        for f in dataclasses.fields(x):
            if f.compare:  # what the value's own equality looks at; no provenance or caches
                emit(f.name + "=")
                _canon(getattr(x, f.name), emit)
                emit(",")
        emit(")")
    else:
        raise TypeError(f"no canonical rendering for {type(x).__name__}")


def digest(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


# ---------------------------------------------------------------- workloads


class Workload:
    """Base: subclasses build their inputs and warm up in __init__."""

    name = ""
    # speed calibration: the slice, its time at the reference speed, and
    # the operation time between two slices
    calibrate = staticmethod(slice_time)
    reference_slice_s = REFERENCE_SLICE_S
    segment_s = 0.1

    def __init__(self, root: str, seed: int, workdir: str):
        self.root = root
        self.seed = seed
        self.workdir = workdir

    def fixture(self, name: str) -> str:
        return read_fixture(self.root, name)

    def ops(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def reference_ops(self) -> list[tuple[str, object]]:
        """The operations replayed at the default seed against the committed reference digests."""
        return self.ops()

    def output_digest(self, result) -> str:
        return digest(canon(result))

    def check(self, op_id: str, result) -> str | None:
        """Independent check of one result; a message when it is wrong."""
        return None

    def result_metrics(self, results: dict) -> dict:
        """Per-layer counts taken from one pass's results, by metric name."""
        return {}

    def probes(self, tracer, digests: dict) -> tuple[dict, list[str], int]:
        """Extra traced measurements: (metrics by name, failure messages, operations attempted)."""
        return {}, [], 0

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class BulkCorpus(Workload):
    """Every analysis once over one ~1.5M-character English corpus."""

    name = "bulk_corpus"
    CHARS = 1_500_000
    GENERATED_LETTERS = 100_000

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        rng = random.Random(seed)
        self.raw = shuffled_text(sentence_chunks(self.fixture("english_training.txt")), rng, self.CHARS)
        self.letters = letters_of(self.raw)
        n = len(self.letters)
        self.sizes = [n // 16, n // 8, n // 4, n // 2, n]
        self.alphabet = L.builtin_alphabet("en")
        # the lipogram reference doubles as the first warm call
        reference_text = self.fixture("english_analysis.txt")
        self.reference = L.count_letters(L.normalize(reference_text, self.alphabet, "reference"))

    def ops(self):
        ab, raw, st = self.alphabet, self.raw, {}

        def normalize(call):
            st["seq"] = call("alphabet.normalize", L.normalize, raw, ab, "corpus")
            return st["seq"]

        def tokenize_words(call):
            st["words"] = call("alphabet.tokenize_words", L.tokenize_words, raw, ab, "corpus")
            return st["words"]

        def count_letters(call):
            st["letters"] = call("freq.count_letters", L.count_letters, st["seq"])
            return st["letters"]

        def count_digrams(call):
            st["digrams"] = call("freq.count_digrams", L.count_digrams, st["seq"])
            return st["digrams"]

        def positional_stats(call):
            return call("freq.positional_stats", L.positional_stats, st["words"])

        def stability_curve(call):
            return call("freq.stability_curve", L.stability_curve, st["seq"], self.sizes)

        def vc_verdict(call):
            profile = call("stylometry.vc_profile", L.vc_profile, st["seq"])
            return profile, call("stylometry.alberti_test", L.alberti_test, profile)

        def compass(call):
            blocks = call("stylometry.blocks_of", blocks_of, st["seq"])
            return blocks, call("stylometry.compass_of_variation", L.compass_of_variation, blocks)

        def markov_test(call):
            states = call("markov.to_vc_sequence", L.to_vc_sequence, st["seq"])
            counts = call("markov.fit_transitions", L.fit_transitions, states)
            return counts, call("markov.independence_test", L.independence_test, counts)

        def entropy(call):
            return call("markov.entropy_estimates", L.entropy_estimates, st["letters"], st["digrams"])

        def lipogram(call):
            return call("stylometry.lipogram_scan", L.lipogram_scan, st["letters"], self.reference)

        def zipf(call):
            ranks = call("zipf.word_rank_frequency", L.word_rank_frequency, st["words"])
            return ranks, call("zipf.fit_power_law", L.fit_power_law, ranks)

        def train(call):
            st["model"] = call("cipher.LanguageModel.train", L.LanguageModel.train, st["seq"])
            return st["model"]

        def generate(call):
            return call("markov.generate", L.generate, st["model"], self.GENERATED_LETTERS, seed=self.seed, order=1)

        steps = (normalize, tokenize_words, count_letters, count_digrams, positional_stats,
                 stability_curve, vc_verdict, compass, markov_test, entropy, lipogram, zipf,
                 train, generate)
        return [(f.__name__, f) for f in steps]

    def check(self, op_id, result):
        if op_id == "normalize" and result.symbols != self.letters:
            return "normalized letters differ from the a-z letters of the corpus"
        if op_id == "tokenize_words" and list(result.words) != re.findall(r"[a-z]+", self.raw.lower()):
            return "words differ from the a-z runs of the corpus"
        if op_id == "count_letters" and result.counts != {**dict.fromkeys(LETTERS, 0), **Counter(self.letters)}:
            return "letter counts differ from a direct count"
        if op_id == "count_digrams" and result.total != len(self.letters) - 1:
            return "digram total is not one less than the letter count"
        return None


ALPHABET_ROTATION = ("en", "en-y-vowel", "la")


class ShortTexts(Workload):
    """Thousands of sentence-sized texts, each analysed on its own."""

    name = "short_texts"
    TEXTS = 3000
    MIN_CHARS, MAX_CHARS = 60, 600

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        rng = random.Random(seed)
        sources = [self.fixture("english_training.txt"), self.fixture("english_analysis.txt")]
        self.texts: list[tuple[str, str]] = []
        while len(self.texts) < self.TEXTS:
            src = sources[rng.randrange(len(sources))]
            size = rng.randint(self.MIN_CHARS, self.MAX_CHARS)
            start = rng.randrange(len(src) - size)
            raw = src[start : start + size]
            # every chain test needs both a vowel and a consonant to lead a
            # transition, under all three alphabets; spans of rule lines fail
            letters = letters_of(raw)
            if len(letters) >= 30 and re.search(r"[aeiou].", letters) and re.search(r"[bcdfghklmnprst].", letters):
                self.texts.append((ALPHABET_ROTATION[len(self.texts) % 3], raw))
        reference_text = self.fixture("english_analysis.txt")
        self.references = {
            name: L.count_letters(L.normalize(reference_text, L.builtin_alphabet(name), "reference"))
            for name in ALPHABET_ROTATION
        }
        _, warm = self.ops()[0]
        warm(lambda name, fn, *a, **k: fn(*a, **k))

    def ops(self):
        refs = self.references

        def analyse(call, name, raw):
            ab = call("alphabet.builtin_alphabet", L.builtin_alphabet, name)
            seq = call("alphabet.normalize", L.normalize, raw, ab)
            words = call("alphabet.tokenize_words", L.tokenize_words, raw, ab)
            letters = call("freq.count_letters", L.count_letters, seq)
            digrams = call("freq.count_digrams", L.count_digrams, seq)
            profile = call("stylometry.vc_profile", L.vc_profile, seq)
            verdict = call("stylometry.alberti_test", L.alberti_test, profile)
            states = call("markov.to_vc_sequence", L.to_vc_sequence, seq)
            counts = call("markov.fit_transitions", L.fit_transitions, states)
            chain = call("markov.independence_test", L.independence_test, counts)
            entropy = call("markov.entropy_estimates", L.entropy_estimates, letters, digrams)
            flags = call("stylometry.lipogram_scan", L.lipogram_scan, letters, refs[name])
            return seq, words, letters, digrams, profile, verdict, counts, chain, entropy, flags

        return [
            (f"t{i:04d}-{name}", lambda call, name=name, raw=raw: analyse(call, name, raw))
            for i, (name, raw) in enumerate(self.texts)
        ]

    def check(self, op_id, result):
        index = int(op_id[1:5])
        name, raw = self.texts[index]
        expected = letters_of(raw)
        if name == "la":
            expected = expected.translate(str.maketrans("jv", "iu", "w"))
        seq, profile = result[0], result[4]
        if seq.symbols != expected:
            return "normalized letters differ from a direct reduction of the text"
        vowels = "aeiouy" if name != "en" else "aeiou"
        if profile.vowel_count != sum(expected.count(v) for v in vowels):
            return "vowel count differs from a direct count"
        return None


class Solve(Workload):
    """Substitution cryptograms from held-out text, solved one by one."""

    name = "solve"
    CRYPTOGRAMS = 40
    MIN_LEN, MAX_LEN = 60, 2000
    RESTARTS = 2
    SOLVER_SEED = 0

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        rng = random.Random(seed)
        # held out: the model trains on english_training.txt only
        pools = [letters_of(self.fixture("english_analysis.txt")), letters_of(self.fixture("solver_plaintext.txt"))]
        self.cases: list[tuple[str, str, str]] = []  # (plaintext, key targets, ciphertext)
        steps = self.CRYPTOGRAMS - 1
        for i in range(self.CRYPTOGRAMS):
            n = round(self.MIN_LEN * (self.MAX_LEN / self.MIN_LEN) ** (i / steps))
            pool = pools[rng.randrange(len(pools))]
            start = rng.randrange(len(pool) - n + 1)
            plain = pool[start : start + n]
            key = "".join(rng.sample(LETTERS, len(LETTERS)))
            cipher = plain.translate(str.maketrans(LETTERS, key)).upper()
            groups = [cipher[j : j + 5] for j in range(0, len(cipher), 5)]
            text = "\n".join(" ".join(groups[j : j + 10]) for j in range(0, len(groups), 10)) + "\n"
            self.cases.append((plain, key, text))
        self.alphabet = L.builtin_alphabet("en")
        training = L.normalize(self.fixture("english_training.txt"), self.alphabet, "training")
        self.model = L.LanguageModel.train(training)
        warm = L.parse_cryptogram(self.cases[0][2], self.alphabet)
        L.hill_climb_solve(warm, self.model, restarts=1, seed=self.SOLVER_SEED)

    def ops(self):
        ab, model = self.alphabet, self.model

        def solve(call, text):
            cryptogram = call("cipher.parse_cryptogram", L.parse_cryptogram, text, ab)
            return call("cipher.hill_climb_solve", L.hill_climb_solve, cryptogram, model,
                        restarts=self.RESTARTS, seed=self.SOLVER_SEED)

        return [
            (f"c{i:02d}-len{len(plain):04d}", lambda call, text=text: solve(call, text))
            for i, (plain, _, text) in enumerate(self.cases)
        ]

    def reference_ops(self):
        # every fourth cryptogram, 60 to ~1,500 symbols: a quarter of a pass
        return self.ops()[::4]

    def _case(self, op_id):
        return self.cases[int(op_id[1:3])]

    def check(self, op_id, result):
        _, _, text = self._case(op_id)
        found = result.best_key.target_string()
        cipher = "".join(text.split()).lower()
        if result.plaintext.symbols != cipher.translate(str.maketrans(found, LETTERS)):
            return "plaintext is not the ciphertext under the reported key"
        uni, dig, lam = self.model.unigram.counts, self.model.digram.counts, self.model.smoothing
        pt = result.plaintext.symbols
        expected = sum(
            math.log((dig.get((a, b), 0) + lam) / (uni[a] + lam * len(LETTERS))) for a, b in zip(pt, pt[1:])
        )
        if not math.isclose(result.best_score, expected, rel_tol=1e-9):
            return f"best_score {result.best_score!r} differs from the recomputed {expected!r}"
        return None

    def result_metrics(self, results):
        recovered = attempted = 0
        for op_id, report in results.items():
            plain, key, _ = self._case(op_id)
            used = set(plain)
            attempted += len(used)
            recovered += sum(report.best_key.mapping[ch] == key[LETTERS.index(ch)] for ch in used)
        return {
            "cipher.hill_climb_solve.key_recovered": recovered,
            "cipher.hill_climb_solve.key_attempted": attempted,
        }


CLI_ENTRY = "from letterlab.cli import entrypoint; entrypoint()"
CLI_TIMEOUT_S = 120.0


@dataclasses.dataclass
class CliRun:
    argv: list[str]
    exit_code: int
    stdout: bytes
    stderr: bytes
    peak_rss_mb: float


class Cli(Workload):
    """Every subcommand in every format, each in a fresh child process."""

    name = "cli"
    calibrate = staticmethod(process_slice_time)
    reference_slice_s = REFERENCE_PROCESS_S
    segment_s = 0.6
    FORMATS = ("csv", "json", "text")
    CORPUS_CHARS = 33_000
    CIPHER_LETTERS = 600
    SOLVE_RESTARTS = 3
    PROBES = 5

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        from letterlab import cli as cli_module

        self.cli_main = cli_module.main
        rng = random.Random(seed)
        os.makedirs(os.path.join(root, workdir), exist_ok=True)
        training, analysis = self.fixture("english_training.txt"), self.fixture("english_analysis.txt")
        held_out = letters_of(analysis) + letters_of(self.fixture("solver_plaintext.txt"))
        start = rng.randrange(len(held_out) - self.CIPHER_LETTERS + 1)
        key = "".join(rng.sample(LETTERS, len(LETTERS)))
        cipher = held_out[start : start + self.CIPHER_LETTERS].translate(str.maketrans(LETTERS, key))
        files = {
            "a": shuffled_text(sentence_chunks(training), rng, self.CORPUS_CHARS),
            "b": shuffled_text(sentence_chunks(analysis), rng, self.CORPUS_CHARS),
            "cipher": " ".join(cipher[j : j + 5] for j in range(0, len(cipher), 5)) + "\n",
        }
        for name, text in files.items():
            with open(self.path(name + ".txt"), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.child_rss: list[float] = []
        warm = self.invoke(["count", self.rel("a.txt")])
        if warm.exit_code != 0 or not warm.stdout:
            raise RuntimeError(f"warm-up CLI call failed: {warm.stderr.decode(errors='replace')}")

    def path(self, name):
        return os.path.join(self.root, self.workdir, name)

    def rel(self, name):
        # relative to the checkout root, so outputs that echo a path do not
        # depend on where the checkout lives
        return os.path.join(self.workdir, name)

    def commands(self) -> list[tuple[str, list[str]]]:
        """(operation id, argv) for every subcommand in every format."""
        a, b, c, m = self.rel("a.txt"), self.rel("b.txt"), self.rel("cipher.txt"), self.rel("model")
        per_format = [
            ["train-model", a, "--out", m],  # first: solve and generate read its files
            ["count", a],
            ["digrams", a],
            ["compare", a, b],
            ["stability", a, "--sizes", "1000,4000,16000", "--random"],
            ["positions", a],
            ["style", "vc", a],
            ["style", "alberti", a],
            ["style", "compare", a, b],
            ["style", "compass", a],
            ["lipogram", a, "--reference", b],
            ["markov", "test", a],
            ["entropy", a],
            ["generate", "--model", m, "--length", "5000"],
            ["zipf", a],
            ["solve", c, "--model", m, "--restarts", str(self.SOLVE_RESTARTS)],
        ]
        out = []
        for argv in per_format:
            command = "-".join(a for a in argv if a.isalpha() or a == "train-model")
            for fmt in self.FORMATS:
                out.append((f"{len(out):02d}-{command}-{fmt}", argv + ["--format", fmt, "--seed", str(self.seed)]))
        return out

    def ops(self):
        def run(call, argv):
            return call("cli.process", self.invoke, argv)

        return [(op_id, lambda call, argv=argv: run(call, argv)) for op_id, argv in self.commands()]

    def reference_ops(self):
        # in-process main(argv), which prints what the child prints (the traced
        # run checks this), at a tenth of the cost of a child per command
        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli_main(argv)
            return CliRun(argv, code, buf.getvalue().encode("utf-8"), b"", 0.0)

        return [(op_id, lambda call, argv=argv: run(argv)) for op_id, argv in self.commands()]

    def invoke(self, argv: list[str]) -> CliRun:
        """Run the CLI in a child; returns once stdout closes and the child is reaped."""
        err_path = self.path("stderr.txt")
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-c", CLI_ENTRY, *argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            try:
                out = _read_until_eof(proc.stdout.fileno(), perf_counter() + CLI_TIMEOUT_S)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        rss = usage.ru_maxrss / 1024.0
        self.child_rss.append(rss)
        return CliRun(argv, proc.returncode, out, stderr, rss)

    def output_digest(self, result):
        return digest(result.stdout)

    def check(self, op_id, result):
        if result.exit_code != 0:
            return f"exit {result.exit_code}: {result.stderr.decode(errors='replace').strip()[:200]}"
        if not result.stdout.strip():
            return "empty stdout"
        try:
            text = result.stdout.decode("utf-8")
        except UnicodeDecodeError:
            return "stdout is not UTF-8"
        fmt = result.argv[result.argv.index("--format") + 1]
        if fmt == "json":
            try:
                json.loads(text)
            except ValueError:
                return "json output does not parse"
        if fmt == "csv" and (len(text.splitlines()) < 2 or "," not in text.splitlines()[0]):
            return "csv output has no header and rows"
        return None

    def probes(self, tracer, digests):
        failures = []
        starts, imports, mains = [], [], []
        for _ in range(self.PROBES):
            t = perf_counter()
            tracer.call("cli.python_start", subprocess.run, [sys.executable, "-c", "pass"], check=True)
            starts.append(perf_counter() - t)
        code = "import time; t = time.perf_counter(); import letterlab.cli; print(time.perf_counter() - t)"
        for _ in range(self.PROBES):
            done = tracer.call("cli.import", subprocess.run, [sys.executable, "-c", code], cwd=self.root,
                               env=self.env, capture_output=True, text=True, check=True)
            imports.append(float(done.stdout))
        commands = self.commands()
        for op_id, argv in commands:
            buf = io.StringIO()
            t = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = tracer.call("cli.main", self.cli_main, argv)
            except Exception as exc:  # counted as a failed operation, like a raising pass operation
                code = f"{type(exc).__name__}: {exc}"
            mains.append(perf_counter() - t)
            if code != 0 or digest(buf.getvalue()) != digests.get(op_id):
                failures.append(f"{op_id}: in-process main() returned {code!r} or printed other output than the child")
        return {
            "cli.python_start_s": statistics.median(starts),
            "cli.import_s": statistics.median(imports),
            "cli.main_s": statistics.median(mains),
        }, failures, len(commands)

    def peak_rss_mb(self):
        return max(self.child_rss)


def _read_until_eof(fd: int, deadline: float) -> bytes:
    chunks = []
    while True:
        remaining = deadline - perf_counter()
        if remaining <= 0:
            raise TimeoutError("CLI child did not close stdout in time")
        ready, _, _ = select.select([fd], [], [], remaining)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


WORKLOADS = {w.name: w for w in (BulkCorpus, ShortTexts, Solve, Cli)}
