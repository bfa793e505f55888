"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the same pass can take 1.7 times
as long from one minute to the next, which no amount of repetition inside
a run averages away.  So the benchmark runs a fixed slice of pure-Python
string and dict work (no letterlab code) between operations and reports
each time at a reference speed:

    reported = measured * REFERENCE_SLICE_S / slice time measured alongside

The slice does the same kind of work as letterlab's per-character loops,
so both slow down together; a change to letterlab cannot change the
slice.  Process start-up and imports can slow down by a third while
Python loops do not, so the CLI workload and every set-up, which are
dominated by them, are scaled by a fresh interpreter that imports numpy
instead.  Result files keep the unscaled times next to the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

# about the median slice times on the shared 2-CPU Xeon machine that recorded baseline.json
REFERENCE_SLICE_S = 0.005
REFERENCE_PROCESS_S = 0.2

_TEXT = "It was the best of times, it was the worst of times; it was the age of wisdom, it was the age of foolishness. " * 300


def slice_time() -> float:
    """Seconds taken by one fixed slice of character and word counting."""
    start = perf_counter()
    letters: dict[str, int] = {}
    for ch in _TEXT.lower():
        if ch.isalpha():
            letters[ch] = letters.get(ch, 0) + 1
    words: dict[str, int] = {}
    for word in _TEXT.split():
        words[word] = words.get(word, 0) + 1
    sorted(words.items(), key=lambda kv: (-kv[1], kv[0]))
    return perf_counter() - start


def process_slice_time() -> float:
    """Seconds taken by `python -c "import numpy"` from start to exit."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True)
    return perf_counter() - start


def scale(before: float, after: float, reference: float = REFERENCE_SLICE_S) -> float:
    """Factor taking times measured between two slices to the reference speed."""
    return 2.0 * reference / (before + after)
