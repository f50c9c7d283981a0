"""Tunables of the Global Arrays protocols.

Section 5.3: "The thresholds used for switching between different
protocols are selected empirically to maximize the performance."  They
live here so the ablation benchmarks can sweep them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["GaConfig", "GA_DEFAULTS"]


@dataclass(frozen=True)
class GaConfig:
    """Protocol thresholds for one GA runtime."""

    #: Strided *put* requests at least this large switch from pipelined
    #: active messages to per-column remote memory copies (the 0.5 MB
    #: protocol switch visible in Figure 3).
    strided_rmc_threshold: int = 512 * 1024
    #: The same switch for strided *gets*.  Default None: the AM
    #: request + bulk-put reply protocol stays in force at every size,
    #: because on the simulator's calibrated cost surface the
    #: per-column LAPI_Get switch the paper describes is not
    #: profitable (per-request origin overhead dominates) -- the very
    #: cost that motivates the paper's non-contiguous-interface future
    #: work.  Set a byte threshold to restore the paper's exact
    #: protocol; the noncontig ablation sweeps this.
    get_strided_rmc_threshold: int | None = None
    #: Use the vector (non-contiguous) LAPI_Putv/Getv extension of
    #: section 6's future work for strided transfers instead of the
    #: 1998 hybrid protocols.
    use_vector_rmc: bool = False
    #: Cap on the AM chunk payload (None = whatever fits one packet,
    #: the ~900-byte choice of section 5.3.1); the chunk-size ablation
    #: sweeps this.
    am_chunk_cap: int | None = None

    def replace(self, **changes) -> "GaConfig":
        """Copy with ``changes`` applied (ablation helper)."""
        return dataclasses.replace(self, **changes)


#: Default thresholds used throughout the reproduction.
GA_DEFAULTS = GaConfig()
