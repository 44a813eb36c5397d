"""Closed-loop serving benchmark for the arrangement service (see README.md)."""
