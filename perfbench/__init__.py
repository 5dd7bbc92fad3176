"""Repository benchmark: four workloads from align to serve (see README.md)."""
