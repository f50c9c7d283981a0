"""Global Arrays -- the paper's example user-level library (section 5).

A portable shared-memory programming model over distributed 2-D arrays:
one-sided put/get/accumulate on array sections, scatter/gather,
read-and-increment, global mutexes, and sync/fence -- implemented on
**two** backends for the paper's comparison:

* :class:`~repro.ga.lapi_backend.LapiBackend` -- the hybrid AM/RMC
  protocols of section 5.3;
* :class:`~repro.ga.mpl_backend.MplBackend` -- the older
  ``rcvncall``-based implementation of section 5.2.

Only the transport differs between them: :mod:`.api` runs each put,
get and accumulate (call charge, ``ga.*`` span, owner loop, this
rank's own piece), and a backend supplies the remote pieces, their
completion and the accumulate critical section.

GA is the layer that needs numpy, so only :mod:`.config` loads with the
package; every other name loads its module on first access (PEP 562),
and a LAPI or MPL run that reads ``GA_DEFAULTS`` never imports numpy.
"""

import importlib

from .config import GA_DEFAULTS, GaConfig

#: Exported name -> the submodule that defines it, loaded on first use.
_LAZY = {
    "BlockDistribution": "distribution",
    "DESCRIPTOR_SIZE": "wire",
    "Descriptor": "wire",
    "GaOp": "wire",
    "GlobalArray": "array",
    "GlobalArrays": "api",
    "Section": "sections",
    "process_grid": "distribution",
}

__all__ = sorted(["GA_DEFAULTS", "GaConfig", *_LAZY])


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
