"""Reference implementations the production fast paths are tested against."""
