"""The compiled leapfrog step: builds and loads _step.c.

Its two functions, radial_step and cartesian_step, are the solver's only
stencil: a step is one call, and so is the first level of a run (a free pass
with a zero middle level and no flush; see solver.init_state).

The library is compiled on its first use in each process, never at import,
with the C compiler CC into a private temporary directory, which is removed
once the library is loaded.  The flags keep every multiply and add a rounding
of its own (-ffp-contract=off, no -ffast-math), so the kernel's results are
bit-identical to the numpy expressions its comments give.  A compiler that is
missing or fails raises CompilerError, an OSError, naming the command and the
first line of its error output.
"""

from __future__ import annotations

import ctypes
import shutil
import tempfile
from pathlib import Path

__all__ = ["CompilerError", "library"]

CC = "cc"
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_step.c")

# the status bits of a step, numbered as in _step.c
GROW, NONFINITE = 1, 2

_P, _I, _F = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# each function's argument types, pointers passed as addresses; each returns
# the status bits as an int, ctypes' default
_SIGNATURES = {
    "radial_step": (_P, _P, _P, _I, _F, _F, _F, _F, _P, ctypes.c_int, _P, _P, _P,
                    _I, _I, _I),
    "cartesian_step": (_P, _I, _F, _F, _F, _F, _F, _P, ctypes.c_int, _P, _P, _P),
}

_LIB = None


class CompilerError(OSError):
    """The step kernel could not be compiled or loaded."""


def library() -> ctypes.CDLL:
    """The loaded kernel, compiled first if this process has not yet."""
    global _LIB
    if _LIB is None:
        _LIB = _build()
    return _LIB


def _build() -> ctypes.CDLL:
    import subprocess          # only the first use in a process compiles

    tmp = tempfile.mkdtemp(prefix="wavelab-step-")
    try:
        lib_path = str(Path(tmp) / "_step.so")
        command = [CC, *CFLAGS, "-o", lib_path, str(SOURCE)]
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise CompilerError(f"cannot compile the step kernel with {CC!r}: "
                                f"{exc.strerror or exc}") from None
        if done.returncode:
            first = next(iter(done.stderr.splitlines()), f"exit status {done.returncode}")
            raise CompilerError(f"cannot compile the step kernel with {CC!r}: {first}")
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError as exc:
            raise CompilerError(f"cannot load the step kernel built by {CC!r}: {exc}") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for name, argtypes in _SIGNATURES.items():
        getattr(lib, name).argtypes = argtypes
    return lib
