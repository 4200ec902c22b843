import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "fast", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("fast")


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record ``(routine, shape)`` for every numpy svd, eigvalsh and eigh call."""
    calls = []
    for name in ("svd", "eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
