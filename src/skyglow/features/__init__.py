"""Feature engineering: fitted pipelines, neighbor features, assembly."""
