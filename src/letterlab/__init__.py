"""letterlab: letter-counting statistics and classical cryptanalysis.

Counting letters is the common root of three crafts: breaking simple
substitution ciphers by symbol frequencies, measuring style through
vowel/consonant proportions, and treating text as a stochastic source.
This package implements the desk-scale versions of all of them over
configurable alphabets, plus a CLI (`letterlab`) that wires corpora and
analyses into reproducible reports.
"""

from .alphabet import (
    Alphabet,
    AlphabetSpecError,
    LetterSequence,
    WordSequence,
    builtin_alphabet,
    builtin_names,
    load_alphabet,
    normalize,
    tokenize_words,
)
from .cipher import (
    Cryptogram,
    LanguageModel,
    LengthWarning,
    RestartRecord,
    SolverReport,
    SubstitutionKey,
    decrypt,
    encrypt,
    frequency_match_key,
    hill_climb_solve,
    length_check,
    parse_cryptogram,
    score,
)
from .errors import InputError
from .freq import (
    ConfidenceInterval,
    DigramTable,
    FrequencyTable,
    PositionalStats,
    TableDistance,
    compare_tables,
    count_digrams,
    count_letters,
    merge,
    positional_stats,
    proportion_ci,
    rank_order,
    stability_curve,
)
from .markov import (
    BinarySequence,
    EntropyReport,
    MarkovTestReport,
    TransitionCounts,
    entropy_estimates,
    fit_transitions,
    generate,
    independence_test,
    to_vc_sequence,
)
from .stylometry import (
    AlbertiVerdict,
    LipogramFlag,
    VariationSummary,
    VCProfile,
    alberti_test,
    compass_of_variation,
    lipogram_scan,
    two_sample_proportion_test,
    vc_profile,
)
from .zipf import PowerLawFit, RankEntry, RankFrequency, fit_power_law, word_rank_frequency

__version__ = "0.1.0"
