"""YARN substrate: Resource Manager, Fair Scheduler, containers.

Models the pieces of YARN the paper's evaluation depends on: weighted
fair sharing of CPU slots (Hadoop Fair Scheduler, Table 1: the Resource
Manager grants the app with the lowest cores-in-use per unit weight
first), container vcores/memory accounting per node (§7.1's 1-core/2GB
map and 1-core/8GB reduce containers), and locality-preferring
placement.
"""

from repro.yarnsim.resourcemanager import AppHandle, ContainerGrant, ResourceManager

__all__ = ["AppHandle", "ContainerGrant", "ResourceManager"]
