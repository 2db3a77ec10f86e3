"""Effectiveness functions: TREC run/qrels parsing and mAP/nDCG@k/P@k
(``effectiveness``), used by the CLI ``eval`` command."""
