"""Command line interface.

One subcommand per analysis, all sharing `--alphabet`, `--format`, and
`--seed`. Reports go to standard output, diagnostics to standard error,
and identical invocations on identical files produce byte-identical
output. Exit codes: 0 success, 1 data error (unreadable file, malformed
alphabet spec, empty corpus), 2 usage error.

Every subcommand is one :class:`Command` entry of :data:`COMMANDS`: its
arguments, its default format, and a function from the parsed arguments
to a :class:`Report`, which builds only the one of :data:`FORMATS` asked for.
Those functions reach the analyses through the package's lazy exports
(`L.count_letters`), so a process loads only the modules its command runs;
they import a module by hand only for a name the package does not export.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Sequence, TextIO

import letterlab as L

from .alphabet import CONSONANT, VOWEL, Alphabet, builtin_alphabet, builtin_names, load_alphabet, normalize
from .errors import InputError, read_text

FORMATS = ("csv", "json", "text")
SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class Report:
    """One command's result, built only in the format it prints.

    `header` is the CSV header and `rows` an iterable of CSV records
    that only the CSV branch reads, a generator where they grow with the
    input; `data` is a zero-argument function that only the JSON branch
    calls for the JSON value; `lines` are the text lines. The analyses
    run, and raise, before a Report is made: its rows and `data` only
    format values. :meth:`render` ends every format with a newline.
    """

    header: list[str]
    rows: Iterable[Sequence]
    data: Callable[[], object]
    lines: list[str]

    def render(self, fmt: str, out: TextIO) -> None:
        if fmt == "json":
            print(json.dumps(self.data(), indent=2, ensure_ascii=False), file=out)
        elif fmt == "text":
            print(*self.lines, sep="\n", file=out)
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(self.header)
            writer.writerows(self.rows)


def _num(v: float) -> str:
    return f"{v:.12g}"


def _cell(v: object) -> str:
    return _num(v) if isinstance(v, float) else str(v)


def _record(data: dict, lines: list[str], cell: Callable[[object], str] = _cell) -> Report:
    """Report whose JSON is `data` and whose CSV is one row under its keys."""
    return Report(list(data), [list(map(cell, data.values()))], lambda: data, lines)


def _table(header: list[str], records: list[dict], lines: list[str]) -> Report:
    """Report whose JSON is `records` and whose CSV has one row per record."""
    return Report(header, (list(map(_cell, r.values())) for r in records), lambda: records, lines)


def _resolve_alphabet(name_or_path: str) -> Alphabet:
    if name_or_path in builtin_names():
        return builtin_alphabet(name_or_path)
    if os.path.exists(name_or_path):
        return load_alphabet(read_text(name_or_path))
    raise InputError(
        f"{name_or_path!r} is neither a builtin alphabet ({', '.join(builtin_names())}) "
        "nor a readable spec file"
    )


def _corpus(args: argparse.Namespace, path: str, parse=normalize):
    """`parse` (normalize, tokenize_words or parse_cryptogram) of `path` over --alphabet; stdin is read once a run."""
    if path == "-" and args.stdin is None:
        args.stdin = read_text(path)
    return parse(args.stdin if path == "-" else read_text(path), args.alphabet, source=path)


# ---------------------------------------------------------------- tables


def _count(args) -> Report:
    table = L.count_letters(_corpus(args, args.input))
    ab = table.alphabet
    ranks = L.rank_order(table)
    rank_of = {ch: i + 1 for i, ch in enumerate(ranks)}
    return Report(
        ["letter", "count", "proportion", "rank"],
        ([ch, table.counts[ch], f"{table.proportion(ch):.6f}", rank_of[ch]] for ch in ab.letters),
        lambda: {
            "alphabet": ab.name,
            "counts": {ch: table.counts[ch] for ch in ab.letters},
            "total": table.total,
            "rank_order": ranks,
        },
        [f"letters: {table.total}"]
        + [f"  {ch}  {table.counts[ch]:>8}  {table.proportion(ch):.6f}" for ch in ranks]
        + ["rank order: " + "".join(ranks)],
    )


def _digrams(args) -> Report:
    table = L.count_digrams(_corpus(args, args.input))
    counts, total, pairs = table.counts, table.total, table._ordered_pairs()
    ranked = sorted(((pair, counts[pair]) for pair in pairs), key=lambda kv: -kv[1])
    return Report(
        ["first", "second", "count", "proportion"],
        ([a, b, counts[a, b], f"{counts[a, b] / total:.6f}"] for a, b in pairs),
        lambda: {"alphabet": table.alphabet.name, "counts": {a + b: counts[a, b] for a, b in pairs}, "total": total},
        [f"digrams: {total}"] + [f"  {a}{b}  {n:>8}  {n / total:.6f}" for (a, b), n in ranked],
    )


def _compare(args) -> Report:
    a, b = L.count_letters(_corpus(args, args.input0)), L.count_letters(_corpus(args, args.input1))
    d = L.compare_tables(a, b)
    return _record(
        asdict(d),
        [
            f"total variation:  {d.total_variation:.6f}",
            f"chi-square:       {_num(d.chi_square)}",
            f"rank correlation: {d.rank_correlation:.6f}",
        ],
    )


def _stability(args) -> Report:
    seq = _corpus(args, args.input)
    curve = L.stability_curve(seq, list(args.sizes), seed=args.seed if args.random else None)
    return _table(
        ["size", "total_variation", "chi_square", "rank_correlation"],
        [{"size": size, **asdict(d)} for size, d in curve],
        [f"corpus length: {len(seq)}"]
        + [f"  prefix {size:>8}: total variation {d.total_variation:.6f}" for size, d in curve],
    )


def _positions(args) -> Report:
    words = _corpus(args, args.input, L.tokenize_words)
    ab = words.alphabet
    ps = L.positional_stats(words)
    sections = {name: getattr(ps, name).counts for name in ("initial", "final", "second", "penultimate")}
    sections["double"] = ps.doubles
    lines = [f"words: {ps.word_count}"]
    for name, counts in sections.items():
        top = sorted(ab.letters, key=lambda ch: -counts[ch])[:5]
        lines.append(f"  {name:<12} " + ", ".join(f"{ch}:{counts[ch]}" for ch in top))
    return Report(
        ["section", "letter", "count"],
        ([name, ch, counts[ch]] for name, counts in sections.items() for ch in ab.letters),
        lambda: {
            "words": ps.word_count,
            **{name: {ch: counts[ch] for ch in ab.letters} for name, counts in sections.items()},
        },
        lines,
    )


# ---------------------------------------------------------------- style


def _opt6(v: float | int | None) -> str:
    """Six decimals for a float, an int as is, and "" for an undefined value."""
    if v is None:
        return ""
    return str(v) if isinstance(v, int) else f"{v:.6f}"


def _style_vc(args) -> Report:
    p = L.vc_profile(_corpus(args, args.input))
    return _record(
        {
            "vowel_count": p.vowel_count,
            "consonant_count": p.consonant_count,
            "vowel_share": p.vowel_share,
            "vowels_per_100": p.vowels_per_100,
        },
        [
            f"vowels:     {p.vowel_count}",
            f"consonants: {p.consonant_count}",
            f"vowel share:    {_opt6(p.vowel_share) or 'undefined'}",
            f"vowels per 100: {_opt6(p.vowels_per_100) or 'undefined'}",
        ],
        cell=_opt6,
    )


def _style_alberti(args) -> Report:
    from .stylometry import ORATOR_THRESHOLD, POETRY_THRESHOLD

    v = L.alberti_test(L.vc_profile(_corpus(args, args.input)))
    share6 = f"{float(v.vowel_share):.6f}"
    poetry, orator = str(v.above_poetry_threshold).lower(), str(v.above_orator_threshold).lower()
    return Report(
        ["vowel_share", "poetry_threshold", "above_poetry", "orator_threshold", "above_orator", "label"],
        [[share6, POETRY_THRESHOLD, poetry, ORATOR_THRESHOLD, orator, v.label]],
        lambda: {
            "vowel_share": float(v.vowel_share),
            "vowel_share_exact": str(v.vowel_share),
            "poetry_threshold": str(POETRY_THRESHOLD),
            "above_poetry_threshold": v.above_poetry_threshold,
            "orator_threshold": str(ORATOR_THRESHOLD),
            "above_orator_threshold": v.above_orator_threshold,
            "label": v.label,
        },
        [
            f"vowel share {share6} ({v.vowel_share})",
            f"  above poetry threshold {POETRY_THRESHOLD}: {'yes' if v.above_poetry_threshold else 'no'}",
            f"  above orator threshold {ORATOR_THRESHOLD}: {'yes' if v.above_orator_threshold else 'no'}",
            f"verdict: {v.label}",
        ],
    )


def _style_compare(args) -> Report:
    a, b = L.vc_profile(_corpus(args, args.input0)), L.vc_profile(_corpus(args, args.input1))
    z, p = L.two_sample_proportion_test(a, b)
    return _record({"z": z, "p_value": p}, [f"z statistic: {_num(z)}", f"two-sided p: {_num(p)}"])


def _style_compass(args) -> Report:
    from .stylometry import blocks_of

    s = L.compass_of_variation(blocks_of(_corpus(args, args.input), block_size=args.block_size))
    return _record(
        asdict(s),
        [
            f"vowels per 100 consonants over {s.sample_count} blocks of {args.block_size}:",
            f"  minimum {s.minimum:.6f}",
            f"  median  {s.median:.6f}",
            f"  maximum {s.maximum:.6f}",
        ],
        cell=_opt6,
    )


def _lipogram(args) -> Report:
    observed = L.count_letters(_corpus(args, args.input))
    reference = L.count_letters(_corpus(args, args.reference))
    flags = L.lipogram_scan(observed, reference, alpha=args.alpha)
    lines = [f"{len(flags)} letter(s) flagged at alpha {_num(args.alpha)} (Bonferroni-corrected):"]
    lines += [
        f"  {f.letter}: observed {f.observed}, expected {f.expected:.1f}, p {_num(f.p_value)}" for f in flags
    ]
    return _table(
        ["letter", "observed", "expected", "p_value"],
        [asdict(f) for f in flags],
        lines if flags else ["no letters flagged"],
    )


# ---------------------------------------------------------------- markov


def _markov_test(args) -> Report:
    states = (VOWEL, CONSONANT)
    rep = L.independence_test(L.fit_transitions(L.to_vc_sequence(_corpus(args, args.input))))
    p = rep.transition_probabilities
    d = {
        "chi_square": rep.chi_square,
        "df": rep.degrees_of_freedom,
        "p_value": rep.p_value,
        **{f"p_{a}{b}".lower(): p[a, b] for a in states for b in states},
    }
    return _record(
        d,
        [
            f"chi-square: {_num(d['chi_square'])} (df {d['df']})",
            f"p-value:    {_num(d['p_value'])}",
            f"P(V->V) {d['p_vv']:.6f}  P(V->C) {d['p_vc']:.6f}",
            f"P(C->V) {d['p_cv']:.6f}  P(C->C) {d['p_cc']:.6f}",
        ],
    )


def _entropy(args) -> Report:
    seq = _corpus(args, args.input)
    rep = L.entropy_estimates(L.count_letters(seq), L.count_digrams(seq))
    return _record(
        asdict(rep),
        [
            f"h0 (alphabet size):      {rep.h0:.6f} bits/letter",
            f"h1 (letter frequencies): {rep.h1:.6f} bits/letter",
            f"h2 (digram conditional): {rep.h2:.6f} bits/letter",
        ],
    )


def _generate(args) -> Report:
    if (args.model is None) == (args.vc_corpus is None):
        raise InputError("generate requires exactly one of --model or --vc-corpus")
    if args.model is not None:
        order = 1 if args.order is None else args.order
        model = L.LanguageModel.load(args.model, args.alphabet)
        sequence = L.generate(model, args.length, seed=args.seed, order=order).symbols
        mode = f"order-{order}"
    else:
        if args.order is not None:
            raise InputError("generate --order applies to --model only")
        chain = L.fit_transitions(L.to_vc_sequence(_corpus(args, args.vc_corpus)))
        sequence = L.generate(chain, args.length, seed=args.seed).symbols
        mode, order = "vc-chain", ""
    return Report(
        ["mode", "order", "length", "seed", "sequence"],
        [[mode, order, args.length, args.seed, sequence]],
        lambda: {"mode": mode, "length": args.length, "seed": args.seed, "sequence": sequence},
        [sequence],
    )


def _zipf(args) -> Report:
    rf = L.word_rank_frequency(_corpus(args, args.input, L.tokenize_words))
    try:
        fit = L.fit_power_law(rf, min_count=args.min_count)
    except InputError:
        fit = None
    lines = [f"{len(rf.entries)} distinct words, {rf.total} tokens; top 10:"]
    lines += [f"  {e.rank:>4}  {e.word:<20} {e.count}" for e in rf.entries[:10]]
    if fit:
        lines.append(
            f"fit: exponent {_num(fit.exponent)}, r^2 {fit.r_squared:.6f}, "
            f"{fit.points_used} points (count >= {args.min_count})"
        )
    else:
        lines.append(f"fit: not enough entries with count >= {args.min_count}")
    return Report(
        ["rank", "word", "count"],
        ((e.rank, e.word, e.count) for e in rf.entries),
        lambda: {
            "entries": [{"rank": e.rank, "word": e.word, "count": e.count} for e in rf.entries],
            "fit": asdict(fit) if fit else None,
        },
        lines,
    )


# ---------------------------------------------------------------- cipher


def _solve(args) -> Report:
    ab = args.alphabet
    model = L.LanguageModel.load(args.model, ab)
    cryptogram = _corpus(args, args.input, L.parse_cryptogram)
    report = L.hill_climb_solve(
        cryptogram, model, restarts=args.restarts, seed=args.seed, warning_threshold=args.length_threshold
    )
    warning = report.length_warning
    notes = [] if warning is None else [
        f"cryptogram has {warning.length} symbols; frequency analysis is unreliable below {warning.threshold}"
    ]
    key_string = report.best_key.target_string()
    return Report(
        ["field", "value"],
        [
            ["best_score", _num(report.best_score)],
            ["restarts_run", report.restarts_run],
            ["length_warning", "" if warning is None else warning.length],
            ["key", key_string],
            ["plaintext", report.plaintext.symbols],
        ],
        lambda: {
            "best_score": report.best_score,
            "restarts_run": report.restarts_run,
            "length_warning": None if warning is None else asdict(warning),
            "key": {ch: report.best_key.mapping[ch] for ch in ab.letters},
            "plaintext": report.plaintext.symbols,
        },
        [
            f"best score: {_num(report.best_score)} over {report.restarts_run} restarts",
            f"key (plain {''.join(ab.letters)}):",
            f"     cipher {key_string}",
            "plaintext:",
            report.plaintext.symbols,
        ]
        + notes,
    )


def _train_model(args) -> Report:
    seq = _corpus(args, args.input)
    if len(seq) == 0:
        raise InputError("empty corpus")
    model = L.LanguageModel.train(seq)
    try:
        upath, dpath = model.save(args.out)
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename!r}: {exc.strerror or exc}") from None
    letters, digrams = model.unigram.total, model.digram.total
    return Report(
        ["file", "letters"],
        [[upath, letters], [dpath, digrams]],
        lambda: {"unigram": upath, "digram": dpath, "letters": letters, "digrams": digrams},
        [f"wrote {upath} ({letters} letters) and {dpath} ({digrams} digrams)"],
    )


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--sizes must be a comma list of integers, got {text!r}")


@dataclass(frozen=True)
class Command:
    """One subcommand. `name` is "group leaf" for commands under a group;
    `options` maps each extra flag to its `add_argument` keywords."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], Report]
    inputs: int = 1
    # table-like commands default to csv, report-like commands to json,
    # narrative ones to text; --format always overrides
    default_format: str = "text"
    options: dict = field(default_factory=dict)


GROUPS = {"style": "vowel/consonant stylometry", "markov": "vowel/consonant chain analyses"}

COMMANDS = (
    Command("count", "letter frequency table with ranks", _count, default_format="csv"),
    Command("digrams", "digram frequency table", _digrams, default_format="csv"),
    Command("compare", "distance between two corpora's letter tables", _compare, inputs=2),
    Command(
        "stability",
        "sample-size distance to the full-corpus table",
        _stability,
        default_format="csv",
        options={
            "--sizes": dict(type=_parse_sizes, required=True, help="comma list of sample sizes"),
            "--random": dict(action="store_true", help="draw seeded random subsamples instead of prefixes"),
        },
    ),
    Command("positions", "word-position letter statistics", _positions, default_format="csv"),
    Command("style vc", "vowel/consonant profile", _style_vc),
    Command("style alberti", "poetry/orator threshold verdict", _style_alberti),
    Command("style compare", "two-sample vowel share z-test", _style_compare, inputs=2),
    Command(
        "style compass",
        "spread of vowels-per-100 over fixed blocks",
        _style_compass,
        options={"--block-size": dict(type=int, default=1000)},
    ),
    Command(
        "lipogram",
        "flag suspiciously underused letters",
        _lipogram,
        default_format="csv",
        options={
            "--reference": dict(required=True, help="reference corpus file"),
            "--alpha": dict(type=float, default=0.01),
        },
    ),
    Command("markov test", "chi-square test of serial independence", _markov_test, default_format="json"),
    Command("entropy", "order-0/1/2 entropy estimates", _entropy, default_format="json"),
    Command(
        "generate",
        "sample text from a fitted model",
        _generate,
        inputs=0,
        options={
            "--model": dict(help="model file prefix (from train-model)"),
            "--vc-corpus": dict(help="fit a V/C chain from this corpus instead"),
            "--order": dict(type=int, choices=(0, 1), help="with --model: 0 or 1 (default 1)"),
            "--length": dict(type=int, required=True),
        },
    ),
    Command(
        "zipf",
        "word rank-frequency table and power-law fit",
        _zipf,
        default_format="csv",
        options={"--min-count": dict(type=int, default=5)},
    ),
    Command(
        "solve",
        "break a monoalphabetic substitution cipher",
        _solve,
        default_format="json",
        options={
            "--model": dict(required=True, help="model file prefix (from train-model)"),
            "--restarts": dict(type=int, default=20),
            "--length-threshold": dict(type=int, default=90),
        },
    ),
    Command(
        "train-model",
        "count unigram/digram tables into model CSV files",
        _train_model,
        options={"--out": dict(required=True, help="output file prefix")},
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="letterlab",
        description="Letter counting, frequency cryptanalysis, stylometry, and text statistics.",
    )
    parser.add_argument("--version", action="version", version=f"letterlab {L.__version__}")
    subparsers = {"": parser.add_subparsers(dest="subcommand", required=True)}
    for command in COMMANDS:
        group, _, leaf = command.name.rpartition(" ")
        if group not in subparsers:
            p = subparsers[""].add_parser(group, help=GROUPS[group])
            subparsers[group] = p.add_subparsers(dest=f"{group}_command", required=True)
        p = subparsers[group].add_parser(leaf, help=command.help)
        p.set_defaults(command=command)
        p.add_argument("--alphabet", default="en", help="builtin name or spec file path")
        p.add_argument("--format", default=command.default_format, choices=FORMATS)
        p.add_argument("--seed", type=int, default=0, help="64-bit seed for randomized steps")
        for i in range(command.inputs):
            p.add_argument(f"input{i}" if command.inputs > 1 else "input", help="corpus file or - for stdin")
        for flag, kwargs in command.options.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not 0 <= args.seed < SEED_LIMIT:
            raise InputError(f"seed must be in 0..{SEED_LIMIT - 1}, got {args.seed}")
        # the builtin name or spec file path becomes the Alphabet every command uses
        args.alphabet, args.stdin = _resolve_alphabet(args.alphabet), None
        args.command.run(args).render(args.format, sys.stdout)
        return 0
    except (InputError, OSError) as exc:
        print(f"letterlab: error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
