from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla


@pytest.fixture
def lapack_calls(monkeypatch):
    """What the package asks of scipy's LAPACK: `factors`, the names of the
    factor routines it fetches (dsytrf, zhetrf), and `eigvalsh`, the dtypes
    of the matrices it passes to scipy's eigvalsh."""
    calls = SimpleNamespace(factors=[], eigvalsh=[])
    get_lapack_funcs, eigvalsh = sla.get_lapack_funcs, sla.eigvalsh

    def spy_get(*args, **kwargs):
        funcs = get_lapack_funcs(*args, **kwargs)
        calls.factors.extend(f.__name__.split()[-1] for f in np.atleast_1d(funcs)
                             if f.__name__.endswith("trf"))
        return funcs

    def spy_eigvalsh(a, *args, **kwargs):
        calls.eigvalsh.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(sla, "get_lapack_funcs", spy_get)
    monkeypatch.setattr(sla, "eigvalsh", spy_eigvalsh)
    return calls
