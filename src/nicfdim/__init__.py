"""Rigorous dimension bounds for nearest-integer continued-fraction
digit systems: exact expansions and convergents, graph-directed word
combinatorics, certified pressure and Hausdorff-dimension intervals,
greedy digit-set construction, and an exact-arithmetic inequality
ledger."""

from .exactnum import (
    DivergentTailError,
    Interval,
    NumericRangeError,
    interval_pow,
    log_interval,
    pow_enclosure,
    surd_enclosure,
    tail_sum_enclosure,
)
from .cf_core import (
    Word,
    admissible_pair,
    convergents,
    evaluate,
    evaluate_digits,
    is_admissible_digits,
    nicf_digits,
    rcf_digits,
    singularize,
)
from .symbolic import (
    AlphabetSelection,
    GraphSystem,
    count_admissible_words,
    enumerate_words,
    first_return_loops,
    is_admissible,
)
from .nicf_system import (
    BarredLetter,
    LoopLetter,
    alpha_interval,
    deriv_at,
    distortion_constant,
    g_ratio,
    nicf_barred_graph,
    norm_bounds,
    vertex_alphabet,
)
from .pressure_dim import (
    AppendixSystem,
    DigitIfs,
    LoopIfs,
    SimilarityIfs,
    appendix_example,
    classify_nature,
    dim_interval,
    partition_sum,
    pressure_bounds,
    vertex_system,
    vertex_tail_bound,
)
from .spectrum import (
    ComparisonRow,
    MmeVerdict,
    SpectrumTrace,
    construct,
    direct_lambda_comparison,
    mme_check,
    phi_f_ordering,
)
from .ledger import (
    LedgerResult,
    case_ids,
    letter_constants,
    render_table,
    results_to_json,
    run_all,
    run_case,
)

__version__ = "0.1.0"
