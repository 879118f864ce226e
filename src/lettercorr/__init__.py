"""Long-range letter correlation analysis for symbolic sequences.

Reduce a text to the 27-symbol alphabet {a..z, space}, measure how the
variance of letter-count window sums grows with window length, compare
against shuffle and synthetic null models, profile the Jensen-Shannon
divergence between adjacent segments against its analytic fluctuation
level, and trace the effect back to the lexicon via letter-share bands.
"""

from .divergence import (
    JsdProfile,
    entropy,
    fluctuation_level,
    jsd,
    jsd_profile,
)
from .lexicon import (
    Band,
    BandJsdReport,
    BandPartition,
    FrequencyLexicon,
    HalfComparison,
    VarianceModel,
    band_jsd,
    build_lexicon,
    compare_halves,
    content_word_variance_model,
    partition_bands,
    zipf_fit,
)
from .nullmodels import (
    letter_shuffle,
    two_regime_sequence,
    window_permute,
    window_shuffle,
    word_shuffle,
)
from .textnorm import (
    ALPHABET,
    ALPHABET_SIZE,
    SPACE,
    NormalizedText,
    Tokens,
    decode_symbols,
    normalize,
    normalize_stream,
    symbol_code,
    symbol_name,
    tokenize,
)
from .walk import (
    DisplacementCurve,
    IndicatorSeries,
    ScalingFit,
    average_displacement,
    default_k_grid,
    displacement,
    fit_exponent,
    indicator,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHABET",
    "ALPHABET_SIZE",
    "SPACE",
    "Band",
    "BandJsdReport",
    "BandPartition",
    "DisplacementCurve",
    "FrequencyLexicon",
    "HalfComparison",
    "IndicatorSeries",
    "JsdProfile",
    "NormalizedText",
    "ScalingFit",
    "Tokens",
    "VarianceModel",
    "average_displacement",
    "band_jsd",
    "build_lexicon",
    "compare_halves",
    "content_word_variance_model",
    "decode_symbols",
    "default_k_grid",
    "displacement",
    "entropy",
    "fit_exponent",
    "fluctuation_level",
    "indicator",
    "jsd",
    "jsd_profile",
    "letter_shuffle",
    "normalize",
    "normalize_stream",
    "partition_bands",
    "symbol_code",
    "symbol_name",
    "tokenize",
    "two_regime_sequence",
    "window_permute",
    "window_shuffle",
    "word_shuffle",
    "zipf_fit",
]
