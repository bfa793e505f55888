"""Exception types shared across the package, and the one text reader
that turns I/O failures into them."""

import io
import sys


class InputError(ValueError):
    """Bad user-supplied data: malformed documents, mismatched alphabets,
    empty input where an operation needs content.

    The CLI maps this (and I/O failures) to exit code 1.
    """


def read_text(path: str) -> str:
    """The whole UTF-8 file at `path`, or standard input for "-". Both are
    decoded alike, whatever the locale: strictly, in one piece, so a decode
    error's byte offset counts from the start, and with universal newlines.
    One leading byte-order mark is dropped after decoding. An unreadable or
    undecodable file is an InputError naming the path."""
    try:
        if path == "-":
            text = io.TextIOWrapper(io.BytesIO(sys.stdin.buffer.read()), encoding="utf-8").read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot decode {path!r} as UTF-8: {exc.reason} at byte {exc.start}") from None
    return text.removeprefix("\ufeff")
