"""Phase 2 of the methodology: I/O configuration analysis (paper §III-B).

"We identify configurable factors and select I/O configurations" —
the factors the paper lists are the number and type of filesystems,
number and type of networks (dedicated vs shared), state and
placement of buffer/cache, number of I/O devices and their
organisation (RAID level, JBOD), and the number and placement of I/O
nodes.  This module extracts those factors from a
:class:`~repro.clusters.builder.SystemConfig`, diffs configurations,
and ranks candidate configurations for an application based on its
operation weights ("it will be necessary to analyze the operation
with more weight for the application", §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..clusters.builder import SystemConfig
from .characterize import AppProfile
from .perftable import PerformanceTable

__all__ = ["ConfigurableFactors", "extract_factors", "rank_configurations"]


@dataclass(frozen=True)
class ConfigurableFactors:
    """The paper's configurable-factor checklist for one configuration."""

    name: str
    local_filesystem: str
    global_filesystem: str
    n_networks: int
    dedicated_data_network: bool
    client_cache: bool
    server_cache: bool
    n_local_devices: int
    local_organization: str
    n_server_devices: int
    server_organization: str
    stripe_bytes: int
    n_io_nodes: int
    service_redundancy: bool
    data_redundancy: bool

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


#: RAID levels that survive a disk failure
_REDUNDANT = {"raid1", "raid5", "raid6", "raid10"}


def extract_factors(config: SystemConfig) -> ConfigurableFactors:
    """Read the factor checklist off a system configuration."""
    return ConfigurableFactors(
        name=config.name,
        local_filesystem="ext4-like",
        global_filesystem="nfs",
        n_networks=2 if config.separate_data_network else 1,
        dedicated_data_network=config.separate_data_network,
        client_cache=config.client_cache_enabled,
        server_cache=config.server_cache_enabled,
        n_local_devices=config.local_device.ndisks,
        local_organization=config.local_device.level.value,
        n_server_devices=config.server_device.ndisks,
        server_organization=config.server_device.level.value,
        stripe_bytes=config.server_device.stripe_bytes,
        n_io_nodes=1,
        service_redundancy=False,  # the paper notes neither cluster has it
        data_redundancy=config.server_device.level.value in _REDUNDANT,
    )


@dataclass
class ConfigurationScore:
    """Suitability of one configuration for one application profile."""

    name: str
    expected_rate_Bps: float
    redundancy: bool = False

    def __lt__(self, other: "ConfigurationScore") -> bool:  # pragma: no cover
        return self.expected_rate_Bps < other.expected_rate_Bps


def rank_configurations(
    profile: AppProfile,
    tables_by_config: dict[str, dict[str, PerformanceTable]],
    level: str = "nfs",
    require_redundancy: bool = False,
    factors_by_config: Optional[dict[str, ConfigurableFactors]] = None,
) -> list[ConfigurationScore]:
    """Rank configurations by the byte-weighted characterized rate they
    offer the application's access pattern.

    The weights come from the application's operation mix (the paper:
    "analyze the operation with more weight"); redundancy can be made
    a hard requirement ("the selection depends on the level of
    availability that the user is willing to pay for").
    """
    total_bytes = sum(m.total_bytes for m in profile.measures) or 1
    scores: list[ConfigurationScore] = []
    for name, tables in tables_by_config.items():
        table = tables.get(level)
        if table is None:
            continue
        redundant = False
        if factors_by_config and name in factors_by_config:
            redundant = factors_by_config[name].data_redundancy
        if require_redundancy and not redundant:
            continue
        weighted = 0.0
        for m in profile.measures:
            rate = table.lookup(m.op, m.block_bytes, m.access, m.mode)
            if rate is None:
                continue
            weighted += rate * (m.total_bytes / total_bytes)
        scores.append(ConfigurationScore(name, weighted, redundant))
    scores.sort(key=lambda s: s.expected_rate_Bps, reverse=True)
    return scores
