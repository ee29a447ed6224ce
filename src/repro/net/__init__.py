"""Network substrate: local IPC sockets, the cluster fabric, and RPC.

Three layers, mirroring the paper's Figure 3:

* :mod:`repro.net.sockets` — AF_UNIX-style sockets with file-system
  permission bits; the control/user socket split of Section IV-B is
  enforced here.
* :mod:`repro.net.fabric` — the interconnect model (NIC egress/ingress
  plus a fabric core capacity) driving all node-to-node byte movement
  through the max-min flow engine.
* :mod:`repro.net.na` / :mod:`repro.net.mercury` — a Mercury-like RPC
  engine with pluggable network-abstraction transports (``ofi+tcp``,
  ``ofi+verbs``, ...), exposing RPCs and bulk RDMA-style transfers.
"""

from repro.net.sockets import Credentials, LocalSocketHub, Channel, Listener
from repro.net.fabric import Fabric
from repro.net.na import NAPlugin, get_plugin, available_plugins
from repro.net.mercury import MercuryNetwork, MercuryEndpoint

__all__ = [
    "Credentials", "LocalSocketHub", "Channel", "Listener",
    "Fabric",
    "NAPlugin", "get_plugin", "available_plugins",
    "MercuryNetwork", "MercuryEndpoint",
]
