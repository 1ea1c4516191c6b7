import resource
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from wilsonindex.spectral import _proc_bytes


@pytest.fixture
def lapack_calls(monkeypatch):
    """What the package asks of scipy's LAPACK: `factors`, a (name, dtype)
    pair for each call of a factor routine (ssytrf, chetrf), the dtype
    being that of the matrix handed to it, and `eigvalsh` and
    `eig_banded`, the dtypes of the matrices and bands it passes to
    scipy's eigvalsh and eig_banded."""
    calls = SimpleNamespace(factors=[], eigvalsh=[], eig_banded=[])
    get_lapack_funcs = sla.get_lapack_funcs
    eigvalsh, eig_banded = sla.eigvalsh, sla.eig_banded

    def recorded(f):
        name = f.__name__.split()[-1]

        def call(a, *args, **kwargs):
            calls.factors.append((name, a.dtype))
            return f(a, *args, **kwargs)

        return call

    def spy_get(*args, **kwargs):
        funcs = get_lapack_funcs(*args, **kwargs)
        spied = [recorded(f) if f.__name__.endswith("trf") else f
                 for f in np.atleast_1d(funcs)]
        return spied if isinstance(funcs, (list, tuple)) else spied[0]

    def spy_eigvalsh(a, *args, **kwargs):
        calls.eigvalsh.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    def spy_eig_banded(a_band, *args, **kwargs):
        calls.eig_banded.append(a_band.dtype)
        return eig_banded(a_band, *args, **kwargs)

    monkeypatch.setattr(sla, "get_lapack_funcs", spy_get)
    monkeypatch.setattr(sla, "eigvalsh", spy_eigvalsh)
    monkeypatch.setattr(sla, "eig_banded", spy_eig_banded)
    return calls


@contextmanager
def _traced():
    peak = SimpleNamespace(bytes=0)
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.bytes = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """`with traced_peak() as peak:` traces the body's allocations with
    tracemalloc and sets `peak.bytes` to their peak, also when the body
    raises; what was allocated before the body is not counted."""
    return _traced


@contextmanager
def _headroom(mib):
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    used = _proc_bytes("/proc/self/status", "VmSize")
    resource.setrlimit(resource.RLIMIT_AS, (used + mib * 2 ** 20, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture
def headroom():
    """`with headroom(mib):` runs the body under a soft address-space limit
    (RLIMIT_AS) of this process's VmSize plus mib MiB, restored after, as
    `wilsonindex` commands run under their own limit.  The body should
    fail on one array larger than mib, as freed heap that is still mapped
    is reused without growing VmSize, and never inside BLAS."""
    return _headroom
