"""Application kernels exercising Global Arrays.

Synthetic stand-ins for the paper's section 5.4 workloads (SCF, DFT,
MP-2 electronic-structure codes and molecular dynamics): each kernel
uses the GA call mix of its real counterpart -- dynamic load balancing
through ``read_inc``, strided gets, atomic accumulates -- and runs
unchanged on either GA backend, which is what makes the LAPI-vs-MPL
application comparison possible.

The kernels use numpy, so each loads on first access (PEP 562):
importing the package costs nothing until a kernel runs.
"""

import importlib

#: Exported kernel -> the submodule that defines it, loaded on first use.
_LAZY = {
    "ga_matmul": "matmul",
    "ga_transpose": "transpose",
    "jacobi_sweeps": "jacobi",
    "md_step_loop": "md",
    "scf_iteration": "scf",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
