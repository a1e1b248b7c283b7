"""cakit: covering-array toolkit.

Fast t-combination generation, interaction-coverage stores with three
interchangeable mechanisms, a greedy covering-array builder, and a
benchmark harness comparing them.
"""

from .bench import (
    BenchRecord,
    BenchReport,
    SearchBenchConfig,
    environment_stamp,
    run_generation_bench,
    run_search_bench,
)
from .combgen import (
    CombinationList,
    NBIT_MAX_K,
    UnsupportedSizeError,
    count_combinations,
    generate_nbit,
    generate_stack,
    iter_combinations_nbit,
    iter_combinations_stack,
)
from .greedy import GreedyConfig, IncompleteCoverageError, generate_ca, run_greedy
from .model import (
    CoveringArraySpec,
    InteractionElement,
    TestCase,
    TestSuite,
    VerificationReport,
    read_suite_csv,
    verify_coverage,
    write_suite_csv,
)
from .store import (
    CapacityError,
    DEFAULT_MAX_ELEMENTS,
    InteractionStore,
    StoreCounters,
    StoreMechanism,
    build_store,
    projected_element_count,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "BenchReport",
    "CapacityError",
    "CombinationList",
    "CoveringArraySpec",
    "DEFAULT_MAX_ELEMENTS",
    "GreedyConfig",
    "IncompleteCoverageError",
    "InteractionElement",
    "InteractionStore",
    "NBIT_MAX_K",
    "SearchBenchConfig",
    "StoreCounters",
    "StoreMechanism",
    "TestCase",
    "TestSuite",
    "UnsupportedSizeError",
    "VerificationReport",
    "build_store",
    "count_combinations",
    "environment_stamp",
    "generate_ca",
    "generate_nbit",
    "generate_stack",
    "iter_combinations_nbit",
    "iter_combinations_stack",
    "projected_element_count",
    "read_suite_csv",
    "run_generation_bench",
    "run_greedy",
    "run_search_bench",
    "verify_coverage",
    "write_suite_csv",
]
