"""skyglow: night-sky brightness class prediction from citizen-science
observations — ingestion, feature engineering, native tree-ensemble
learners, cross-validation, and ensemble blending, behind one CLI.

Importing the package loads none of its modules; import each by name
(`skyglow.dataset`, `skyglow.validation`, ...). So a CLI stage loads only
the modules it runs: `ingest` and `report` run without numpy.
"""

__version__ = "0.1.0"
