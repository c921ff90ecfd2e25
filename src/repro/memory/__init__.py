"""Memory hierarchy substrate (paper Sections VII-X)."""

from .cache import CacheLine, SetAssocCache  # noqa: F401
from .coordinated import CastoutDecision, CoordinatedPolicy  # noqa: F401
from .dram import DramAccessResult, DramModel  # noqa: F401
from .hierarchy import MemoryHierarchy, MemoryStats  # noqa: F401
from .interconnect import DramPathResult, MemoryPath  # noqa: F401
from .mab import MissBufferPool  # noqa: F401
from .tlb import Tlb, TranslationHierarchy, TranslationResult  # noqa: F401
