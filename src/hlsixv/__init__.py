"""Hall-Littlewood processes, the stochastic six vertex model, and exact
numerical verification of the distributional identities relating them."""

from . import (  # noqa: F401
    distributions,
    hl_process,
    moments,
    partitions,
    rsk,
    six_vertex,
    tboson,
    verify,
)

__version__ = "0.1.0"
