import ctypes
import glob
import os

import numpy as np
import pytest

import lqshield as lq

# the platform that the exact output pins of test_output_bits.py were
# recorded on; another OpenBLAS kernel may move their last digits
PINNED_PLATFORM = "NumPy 2.4.6, OpenBLAS 0.3.31, kernel SkylakeX"


def _openblas_info() -> tuple[str, str]:
    """The version and the runtime kernel of the OpenBLAS bundled with
    NumPy, each "unknown" where it cannot be read."""
    package = os.path.dirname(np.__file__)
    # wheels bundle it in numpy.libs (Linux, Windows) or numpy/.dylibs (macOS)
    for libs in (package + ".libs", os.path.join(package, ".dylibs")):
        for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
            try:
                lib = ctypes.CDLL(path)
                corename = lib.scipy_openblas_get_corename64_
                config = lib.scipy_openblas_get_config64_
            except (OSError, AttributeError):
                continue
            corename.argtypes = config.argtypes = []
            corename.restype = config.restype = ctypes.c_char_p
            words = config().decode().split()
            version = words[1] if len(words) > 1 else "unknown"
            return version, corename().decode()
    return "unknown", "unknown"


def pytest_report_header(config):
    version, kernel = _openblas_info()
    return [
        f"NumPy {np.__version__}, OpenBLAS {version}, kernel {kernel}",
        f"output pins recorded on: {PINNED_PLATFORM}",
    ]


@pytest.fixture(scope="session")
def scalar_model():
    return lq.LinearModel(A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])


@pytest.fixture(scope="session")
def scalar_syn(scalar_model):
    return lq.synthesize(scalar_model)


@pytest.fixture(scope="session")
def bench2_model():
    """Well-conditioned 2x2 plant used by the guarantee benchmarks."""
    A = np.array([[0.55, 0.25], [0.0, 0.45]])
    return lq.LinearModel(A=A, B=np.eye(2), Q=np.eye(2), R=np.eye(2))


@pytest.fixture(scope="session")
def bench2_syn(bench2_model):
    return lq.synthesize(bench2_model)


def random_stabilizable(rng: np.random.Generator, n: int, m: int = None):
    """Random plant on which the Riccati iteration is expected to converge.

    A is scaled to spectral radius <= 1.2 (possibly unstable) and B has
    full column rank almost surely, so (A, B) is stabilizable.
    """
    if m is None:
        m = n
    A = rng.standard_normal((n, n))
    radius = max(np.max(np.abs(np.linalg.eigvals(A))), 1e-6)
    A *= rng.uniform(0.3, 1.2) / radius
    B = rng.standard_normal((n, m))
    Q = np.eye(n)
    R = np.eye(m)
    return lq.LinearModel(A=A, B=B, Q=Q, R=R)
