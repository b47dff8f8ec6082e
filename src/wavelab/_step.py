"""The compiled leapfrog step and per-step diagnostics: builds and loads _step.c.

Its functions radial_step and cartesian_step are the solver's only stencil:
a step is one call, and so is the first level of a run (a free pass with a
zero middle level; see solver.init_state).  A radial step writes 0.0 for
every new value below the smallest normal float; a Cartesian step flushes
nothing.  dissipation is WaveState.dissipation's sum, in numpy's pairwise
order, and radial_sample the radial WaveState.sample's interpolation.  Each
takes a pointer to the state's constants, a State, then the per-call
choices.

The library is compiled once per machine, on the first use in a process
that does not find it (never at import), with the C compiler CC and the
flags CFLAGS.  It is kept as _step-<build>-<source>.so in CACHE, the
__pycache__ directory next to _step.c, where Python caches the package's
bytecode.  build is a 128-bit BLAKE2b digest of CC, CFLAGS and what
`CC -march=native -E -v` reports (the compiler's version and the machine's
resolved -march and -m flags), source one of _step.c, so an edited source,
another compiler or another machine gets a library of its own.  A miss
compiles into a temporary directory in CACHE and renames the library into
place, so that processes building it at once each load a whole file; it then
removes the build's libraries of other sources, which an edit left behind.
Those of another build, another compiler's or machine's in a shared CACHE,
stay.  Where CACHE cannot be written, the library is built in a private
temporary directory, removed once it is loaded.

The flags keep every multiply and add a rounding of its own (-ffp-contract=off,
no -ffast-math), so the kernel's results are bit-identical to the numpy
expressions its comments give, with or without the SIMD instructions
-march=native allows.  A compiler that is missing or fails raises
CompilerError, an OSError, naming the command and the first line of its
error output.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import tempfile
from pathlib import Path

__all__ = ["CompilerError", "State", "library"]

CC = "cc"
CFLAGS = ("-O3", "-march=native", "-fPIC", "-shared", "-ffp-contract=off")
SOURCE = Path(__file__).with_name("_step.c")
CACHE = SOURCE.with_name("__pycache__")

# the status bits of a step, numbered as in _step.c
GROW, NONFINITE = 1, 2

_P, _I, _F = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# each function's return type (None for void) and argument types, pointers
# passed as addresses; a step returns its status bits
_SIGNATURES = {
    "radial_step": (ctypes.c_int, (_P, ctypes.c_int, _P, _P, _P, _I, _I)),
    "cartesian_step": (ctypes.c_int, (_P, ctypes.c_int, _P, _P, _P)),
    "dissipation": (_F, (_P, _P, _I, _I, _I)),
    "radial_sample": (None, (_P, _P, _P, _I, _F, _P)),
}

_LIB = None


class State(ctypes.Structure):
    """A state's constants, laid out as struct state of _step.c: the
    addresses of d_t u and of the radial neighbour rows cp and cm, the cells
    of a component (radial) or nodes per axis (Cartesian), and A, k, 1/dt,
    1/(8 dt) and 1/(2 dt)."""

    _fields_ = [("dtu", _P), ("cp", _P), ("cm", _P), ("cells", _I),
                ("A", _F), ("k", _F), ("inv_dt", _F), ("inv_8dt", _F), ("inv_2dt", _F)]


class CompilerError(OSError):
    """The step kernel could not be compiled or loaded."""


def library() -> ctypes.CDLL:
    """The loaded kernel, built first if this machine has not yet."""
    global _LIB
    if _LIB is None:
        _LIB = _build()
    return _LIB


def _run(command):
    """Run a compiler command; CompilerError when it cannot or fails."""
    import subprocess          # only a process's first library() runs CC

    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise CompilerError(f"cannot compile the step kernel with {CC!r}: "
                            f"{exc.strerror or exc}") from None
    if done.returncode:
        first = next(iter(done.stderr.splitlines()), f"exit status {done.returncode}")
        raise CompilerError(f"cannot compile the step kernel with {CC!r}: {first}")
    return done


def _build() -> ctypes.CDLL:
    # CPython's builtin BLAKE2, which hashlib serves blake2b from: importing
    # hashlib would map OpenSSL's libcrypto, 3.6 MB of resident memory
    from _blake2 import blake2b

    def digest(*parts):
        return blake2b(repr(parts).encode(), digest_size=16).hexdigest()

    machine = _run([CC, "-march=native", "-E", "-v", "-x", "c", os.devnull]).stderr
    build = digest(CC, CFLAGS, machine)
    lib_path = CACHE / f"_step-{build}-{digest(SOURCE.read_bytes())}.so"
    if lib_path.is_file():
        return _load(lib_path)
    try:
        CACHE.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="wavelab-step-", dir=CACHE)
    except OSError:             # CACHE cannot be written: a private build
        tmp, lib_path = tempfile.mkdtemp(prefix="wavelab-step-"), None
    try:
        built = Path(tmp) / "_step.so"
        _run([CC, *CFLAGS, "-o", str(built), str(SOURCE)])
        if lib_path is None:
            return _load(built)
        os.replace(built, lib_path)
        for stale in CACHE.glob(f"_step-{build}-*.so"):
            if stale != lib_path:
                stale.unlink(missing_ok=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return _load(lib_path)


def _load(path) -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise CompilerError(f"cannot load the step kernel built by {CC!r}: {exc}") from None
    for name, (restype, argtypes) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib
