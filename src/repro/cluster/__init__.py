"""The simulated Scalla cluster: nodes, daemons, protocol, and facade.

Layers (bottom-up): per-server filesystem and mass storage, the xrootd
data daemon, the cmsd cluster-management daemon wrapping
:mod:`repro.core`'s cache, the redirection-following client, the cnsd
global-namespace daemon, and the :class:`~repro.cluster.scalla.ScallaCluster`
facade that builds the 64-ary tree.
"""

from repro.cluster.client import (
    ClientConfig,
    ClientStats,
    ClusterUnreachable,
    FileExists,
    NoSuchFile,
    OpenResult,
    ScallaClient,
    ScallaError,
    ServerTimeout,
)
from repro.cluster.cmsd import Cmsd, CmsdStats
from repro.cluster.cnsd import CNSD_HOST, CnsDaemon
from repro.cluster.config import ScallaConfig
from repro.cluster.fs import FileData, FSError, ServerFS
from repro.cluster.ids import NodeId, Role, cmsd_host, xrootd_host
from repro.cluster.mss import MassStorage
from repro.cluster.node import ScallaNode
from repro.cluster.posix import DirEntry, PosixView
from repro.cluster.scalla import ScallaCluster
from repro.cluster.topology import FANOUT, NodeSpec, Topology, build_topology
from repro.cluster.xrootd import XrootdServer

__all__ = [
    "ScallaCluster",
    "ScallaConfig",
    "ScallaClient",
    "ClientConfig",
    "ClientStats",
    "OpenResult",
    "ScallaError",
    "NoSuchFile",
    "FileExists",
    "ClusterUnreachable",
    "ServerTimeout",
    "Cmsd",
    "CmsdStats",
    "CnsDaemon",
    "CNSD_HOST",
    "ServerFS",
    "FileData",
    "FSError",
    "NodeId",
    "Role",
    "cmsd_host",
    "xrootd_host",
    "MassStorage",
    "ScallaNode",
    "PosixView",
    "DirEntry",
    "Topology",
    "NodeSpec",
    "build_topology",
    "FANOUT",
    "XrootdServer",
]
