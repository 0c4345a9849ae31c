"""The platform that a file of byte pins under tests/data was written on.

The pins are bytes of one platform: numpy's bundled OpenBLAS picks its
kernels for the CPU, and another core may round differently.  So each file
of pins records the numpy version and OpenBLAS core it was written on
(search_pins.json and reorder_pins.json under their "platform" key, the
golden CSVs and manifests in golden_platform.json), and a failing byte
check names that platform and the one it ran on.
"""

import ctypes
import pathlib

import numpy as np


def running_platform() -> dict:
    """The numpy version and the OpenBLAS core of numpy's bundled library
    ("unknown" where no bundled library reports one)."""
    core = "unknown"
    numpy_dir = pathlib.Path(np.__file__).resolve().parent
    for lib in sorted([*numpy_dir.parent.glob("numpy.libs/*openblas*"),
                       *numpy_dir.glob(".dylibs/*openblas*")]):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"numpy": np.__version__, "openblas_core": core}


def written_on(recorded: dict) -> str:
    """The message of a failed byte check of pins written on recorded."""
    return f"pins written on {recorded}, checked on {running_platform()}"
