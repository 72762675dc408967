"""Platform substrate: processors and interconnect topologies."""

from repro._lazy import lazy_exports

__all__ = lazy_exports(__name__, {
    ".processor": ("Processor",),
    ".system": ("System",),
    ".topology": (
        "TOPOLOGIES",
        "FullyConnected",
        "IdealNetwork",
        "Interconnect",
        "LinkId",
        "Mesh2D",
        "Ring",
        "SharedBus",
        "make_interconnect",
    ),
})
