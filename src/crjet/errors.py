"""Error classes of the library layers, kept apart from the layers so that
the command line can catch them without importing the modules that raise
them."""


class GeometryError(ValueError):
    """Raised when input data does not describe a valid hypersurface germ."""


class MappingError(ValueError):
    """Raised when a map fails a precondition of the mappings layer."""


class JetError(ValueError):
    """Raised on malformed jet data or a failed system precondition."""


class AutError(ValueError):
    """Raised on a malformed or vacuously truncated tangency problem."""
