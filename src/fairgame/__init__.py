"""Solver toolkit for parity games with fairness assumptions on live edges.

Games are dense-id parity games where some edges out of Odd vertices are
marked live: Odd's plays must take every live edge infinitely often when its
source recurs. The package bundles two fixed-point solvers, a recursive
attractor solver, strategy template extraction, polynomial-time
certification, the file format, mutators and a benchmark harness.
`solve_instance` maps a solver tag (`of-zl`, `of-fp`, `n-zl`, `n-fp`) to
solver calls for the command line and the harness alike; the command line
itself lives in `fairgame.cli` and is not imported here.
"""

from .game import (
    EVEN,
    ODD,
    Deadline,
    OddFairGame,
    Region,
    SolverTimeout,
    SubgameView,
    least_even_upperbound,
    priority_class,
    validate,
)
from .pgfile import (
    ParseError,
    mutate_liveness,
    mutate_priorities,
    parse_game,
    random_game,
    write_game,
)
from .transformers import (
    apre,
    cpre,
    lpre_exists,
    lpre_forall,
    npre,
    pre_exists,
    pre_forall,
)
from .fixpoint import (
    FpTrace,
    Rank,
    extract_ranks,
    m_set,
    solve_even_fp,
    solve_odd_fp,
)
from .templates import (
    EvenStrategy,
    OddTemplate,
    build_rank_template,
    close_live_cycles,
    extract_even_strategy,
    format_strategy,
    format_template,
    validate_even_strategy,
    validate_odd_template,
)
from .zielonka import (
    RecursionArtifacts,
    SafeReachResult,
    safe_reach_even_fair,
    safe_reach_even_full,
    solve_zielonka_fair,
    solve_zielonka_normal,
)
from .certify import (
    CertifyResult,
    certify_even_strategy,
    certify_odd_template,
    certify_partition,
)
from .bench import BenchRecord, run_bench, run_instance, solve_instance, write_csv
from .report import make_report, write_report

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "Deadline",
    "OddFairGame",
    "Region",
    "SolverTimeout",
    "SubgameView",
    "least_even_upperbound",
    "priority_class",
    "validate",
    "ParseError",
    "parse_game",
    "write_game",
    "random_game",
    "mutate_liveness",
    "mutate_priorities",
    "pre_exists",
    "pre_forall",
    "lpre_exists",
    "lpre_forall",
    "cpre",
    "apre",
    "npre",
    "FpTrace",
    "Rank",
    "solve_odd_fp",
    "solve_even_fp",
    "extract_ranks",
    "m_set",
    "OddTemplate",
    "EvenStrategy",
    "build_rank_template",
    "extract_even_strategy",
    "close_live_cycles",
    "validate_odd_template",
    "validate_even_strategy",
    "format_template",
    "format_strategy",
    "SafeReachResult",
    "RecursionArtifacts",
    "safe_reach_even_fair",
    "safe_reach_even_full",
    "solve_zielonka_fair",
    "solve_zielonka_normal",
    "CertifyResult",
    "certify_odd_template",
    "certify_even_strategy",
    "certify_partition",
    "BenchRecord",
    "solve_instance",
    "run_instance",
    "run_bench",
    "write_csv",
    "make_report",
    "write_report",
]
