"""Command-line layer: config parsing, SVG rendering, and the commands.

The entry point is `skyglow.cli.main.main`; it is not imported here, so
`python -m skyglow.cli.main` runs that module once, as `__main__`.
"""
