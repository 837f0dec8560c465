"""Compiler exception hierarchy."""


class CompilationError(RuntimeError):
    """The program cannot be compiled onto the given topology."""


class DisconnectedTopologyError(CompilationError):
    """Routing failed because the active-site graph is disconnected."""


class SchedulingStalledError(CompilationError):
    """The scheduler stopped making progress: the routing cycled through a
    repeated layout, or the timestep budget ran out."""
