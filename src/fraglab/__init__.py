"""fraglab: a deterministic storage-aging laboratory.

Simulates extent allocation on a virtual volume under a get/put/safe-write
workload and measures how fragmentation grows with storage age, so
allocation policies can be compared without waiting for a real disk to age.
"""

from .alloc import (
    AllocPolicy,
    BestFitPolicy,
    BuddyPolicy,
    FirstFitPolicy,
    LogAppendPolicy,
    NtfsLikePolicy,
    WorstFitPolicy,
    make_policy,
)
from .errors import (
    ConfigurationError,
    CorruptionError,
    FraglabError,
    InfeasibleSpecError,
    InvariantViolationError,
    NoSpaceError,
    NotFoundError,
    SimulatedAbortError,
    UndefinedAgeError,
    UsageError,
)
from .harness import ExperimentConfig, ExperimentGrid, run, run_experiment, run_grid
from .metrics import FragReport, build_report, fragments_of
from .rng import Xorshift64Star, derive_seed
from .store import AgeClock, ObjectRecord, ObjectStore, StoreConfig
from .volume import Band, Extent, Volume, create_volume, default_bands
from .workload import SizeDist, WorkloadSpec, bulk_load, run_to_age, sample_size

__version__ = "0.1.0"
