"""Native tree-ensemble learners: histogram GBDT and random forest."""
