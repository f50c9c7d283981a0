"""Table 1: the LAPI function set, verified against the implementation.

Not a performance experiment -- Table 1 is the API inventory.  The
harness maps every paper function to its implementation entry point and
verifies it exists and is callable, producing the same table the paper
prints.
"""

from __future__ import annotations

from ..core.api import Lapi
from .paper import TABLE1_FUNCTIONS
from .parallel import Deferred
from .report import ExperimentResult

__all__ = ["submit_table1", "FUNCTION_MAP"]

#: Paper function -> implementation attribute on :class:`Lapi`.
FUNCTION_MAP = {
    "LAPI_Init": "init",
    "LAPI_Term": "term",
    "LAPI_Amsend": "amsend",
    "LAPI_Put": "put",
    "LAPI_Get": "get",
    "LAPI_Rmw": "rmw",
    "LAPI_Setcntr": "setcntr",
    "LAPI_Waitcntr": "waitcntr",
    "LAPI_Getcntr": "getcntr",
    "LAPI_Fence": "fence",
    "LAPI_Gfence": "gfence",
    "LAPI_Address_init": "address_init",
    "LAPI_Qenv": "qenv",
    "LAPI_Senv": "senv",
}


def _table1(_values: list) -> ExperimentResult:
    """Regenerate Table 1 and verify API completeness."""
    rows = []
    missing = []
    for group, functions in TABLE1_FUNCTIONS.items():
        impls = []
        for fn in functions:
            attr = FUNCTION_MAP.get(fn)
            ok = attr is not None and callable(getattr(Lapi, attr, None))
            impls.append(f"{fn} -> Lapi.{attr}" if ok else f"{fn} MISSING")
            if not ok:
                missing.append(fn)
        rows.append([group, ", ".join(functions),
                     "yes" if not any("MISSING" in i for i in impls)
                     else "NO"])
    result = ExperimentResult(
        experiment="table1",
        title="LAPI functionality (paper Table 1) vs implementation",
        headers=["Operations", "Functions", "implemented"],
        rows=rows)
    result.check("every Table 1 function is implemented",
                 not missing,
                 f"missing: {missing}" if missing else "all present")
    return result


def submit_table1() -> Deferred:
    """Table 1 runs no cluster jobs: the whole table builds at finish."""
    return Deferred(None, _table1)
