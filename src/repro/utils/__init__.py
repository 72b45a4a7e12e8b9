"""Shared utilities: seeding, atomic writes, concurrency probes and
report rendering (``format_duration`` is re-exported from
:mod:`repro.obs`)."""

from .atomic import atomic_write_bytes, atomic_write_text
from .concurrency import access, checkpoint, guarded_by
from .rng import child_rng, get_rng_state, set_rng_state, spawn_seeds
# render must be imported before obs: repro.obs's report module imports
# repro.utils.render while this package is still initializing.
from .render import format_table, format_series
from ..obs.tracing import format_duration

__all__ = ["child_rng", "spawn_seeds", "get_rng_state", "set_rng_state",
           "atomic_write_text", "atomic_write_bytes",
           "guarded_by", "access", "checkpoint",
           "format_duration", "format_table", "format_series"]
