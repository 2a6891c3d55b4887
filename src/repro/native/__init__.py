"""Compiled PIC kernels: build once, load lazily, fall back cleanly.

``pic_kernels.c`` holds four entry points: the two particle passes of
both steppers (the scatter: CIC, ghost slots and deposit a rank segment
at a time, in the modern stepper's mode with its zigzag currents; the
gather + push, which first interleaves E and B per node for the shards
to read, in the modern stepper's mode on the Yee stencils, numbering the
ghost slots of its request list too, and whose calls without particles
park or dismiss the helper threads of a team; both run their shards on a
team of threads when given one, see
:class:`~repro.parallel_exec.FlatBackend`) and two mesh stencils (the
field step with its one Marder pass, and the source smoothing of a block
of planes).  :func:`kernels` hands them out as a
:class:`~repro.native.calls.Kernels`, or ``None`` when the NumPy bodies
have to do the work; the functions that carry the kernels' names
(``scatter_segment``, ``gather_push_slice``, ``MaxwellSolver.step``,
``binomial_smooth``) ask it on every call, so there is no switch anywhere
else.

The library is built on first use with the local ``cc`` into a
content-addressed file (its name carries a digest of source, compiler
and flags, and one of the library's own bytes) under a per-user cache
directory, written through a temporary name and ``os.replace`` so
concurrent builders cannot tear it.  Nothing is loaded from a directory
or file the current user does not own or that others may write, nor a
file whose bytes are not the ones its name promises (such a file is
removed and the library built again).  The particle passes' hot loops
are compiled once per vector unit (AVX-512, AVX2 and the baseline SSE2 on
x86-64, with GCC 11 or later and glibc) and bound to the widest the CPU
has when the library is loaded.  A freshly loaded library must
reproduce the NumPy bodies byte for byte on a known-answer set
(:func:`repro.native.calls.self_check`), and before that carry the
argument lists this process calls (:data:`~repro.native.calls.INTERFACE`:
the source may have changed since ``calls`` was imported).  Any failure
— no compiler, compile error, load error, other interface, mismatch,
foreign cache — selects the NumPy bodies for the life of the process and
is recorded in :func:`status`; results are the same either way
(DESIGN.md §5.5).
"""

from __future__ import annotations

import ctypes
import os
import shutil
import stat
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

__all__ = ["kernels", "status", "NativeStatus", "SOURCE", "FLAGS"]

SOURCE = Path(__file__).with_name("pic_kernels.c")
#: -O3 vectorizes the marked loops of pic_kernels.c: an SSE2, AVX2 or
#: AVX-512 lane rounds as the scalar instruction does and nothing is
#: re-associated without -ffast-math / -fassociative-math, so no float
#: moves; -fno-math-errno only drops sqrt's errno write.  -ffp-contract=off
#: because a fused multiply-add rounds once where the NumPy bodies round
#: twice, and it holds in the AVX2 and AVX-512 clones too (both have FMA).
#: No -march: the cache directory may be shared by hosts with different
#: vector units, so the hot passes carry target_clones in the source
#: instead and the loader picks the widest clone this CPU runs.
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


class NativeStatus(NamedTuple):
    """What :func:`kernels` decided, for ``BENCH_*.json`` and CI."""

    active: bool
    reason: str | None = None  #: why the NumPy bodies run, when they do
    compiler: str | None = None
    flags: tuple[str, ...] = FLAGS
    library: str | None = None


class _Unavailable(Exception):
    """The library cannot be used; the message is ``NativeStatus.reason``."""


def _require_private(path: Path, kind: int) -> None:
    """``path`` is ours alone: right kind, our uid, not group/world-writable."""
    st = os.lstat(path)
    if stat.S_IFMT(st.st_mode) != kind or st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise _Unavailable(f"{path} is not a private file or directory of uid {os.getuid()}")


def _digest(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()[:16]


def _intact(path: Path) -> bool:
    """``path`` is a private file holding the bytes its name promises; one
    that does not (a truncated file kills the process inside ``dlopen``) is
    removed, so that it is built again instead of found again."""
    _require_private(path, stat.S_IFREG)
    if _digest(path.read_bytes()) == path.stem.rpartition("-")[2]:
        return True
    path.unlink(missing_ok=True)
    return False


def _build(cc: str, source: bytes, stem: Path) -> Path:
    """Compile ``source`` (fed on stdin, so what was hashed is what is built)
    into ``<stem>-<digest of the library>.so``."""
    import subprocess  # not needed to import repro, nor once the library is cached

    fd, tmp = tempfile.mkstemp(dir=stem.parent, prefix=stem.name, suffix=".tmp")
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [cc, *FLAGS, "-x", "c", "-", "-o", tmp, "-lm"],
                input=source, capture_output=True, timeout=120,
            )  # fmt: skip
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise _Unavailable(f"{cc} did not run: {exc}") from exc
        if done.returncode != 0:
            tail = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise _Unavailable(f"{cc} exited {done.returncode}: {' '.join(tail)}")
        os.chmod(tmp, 0o700)
        target = Path(f"{stem}-{_digest(Path(tmp).read_bytes())}.so")
        os.replace(tmp, target)
        return target
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(cache_dir: Path | None = None, cc: str | None = None):
    """Build if needed, load and self-check: ``(Kernels | None, NativeStatus)``.

    ``cache_dir`` and ``cc`` default to the per-user cache and the ``cc``
    on ``PATH`` (the parameters are the tests' seam).  Never raises: every
    failure is a status.
    """
    from repro.native.calls import INTERFACE, Kernels, self_check

    cc = shutil.which("cc") if cc is None else cc
    try:
        if not hasattr(os, "getuid"):
            raise _Unavailable("no POSIX ownership model on this platform")
        cache_dir = Path(cache_dir or Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}")
        source = SOURCE.read_bytes()
        recipe = "\0".join((str(cc), os.uname().machine, *FLAGS)).encode()
        stem = cache_dir / f"pic_kernels-{_digest(recipe + source)}"
        try:
            os.mkdir(cache_dir, 0o700)
        except FileExistsError:
            pass
        _require_private(cache_dir, stat.S_IFDIR)
        target = next(filter(_intact, sorted(cache_dir.glob(stem.name + "-*.so"))), None)
        if target is None:
            if cc is None:
                raise _Unavailable("no C compiler (cc) on PATH")
            target = _build(cc, source, stem)  # ours, in a directory only we can write
        try:
            lib = ctypes.CDLL(str(target))
            found, interface = Kernels(lib), ctypes.c_int64.in_dll(lib, "pic_kernels_interface")
        except (OSError, AttributeError, ValueError) as exc:
            raise _Unavailable(f"cannot load {target}: {exc}") from exc
        if interface.value != INTERFACE:  # it takes other arguments than this process passes
            raise _Unavailable(f"{target} has interface {interface.value}, not {INTERFACE}")
        mismatch = self_check(found)
        if mismatch:
            raise _Unavailable(f"self-check: {mismatch} differs from the NumPy body")
    except _Unavailable as exc:
        return None, NativeStatus(False, str(exc), cc)
    except OSError as exc:
        return None, NativeStatus(False, f"{type(exc).__name__}: {exc}", cc)
    return found, NativeStatus(True, None, cc, FLAGS, str(target))


_lock = threading.Lock()
_loaded: tuple | None = None  # load()'s answer, once per process


def _once() -> tuple:
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                _loaded = load()
    return _loaded


def kernels():
    """The compiled kernels, or ``None``: run the NumPy bodies."""
    return _once()[0]


def status() -> NativeStatus:
    """Whether the compiled kernels are active and, if not, why (loads them)."""
    return _once()[1]
