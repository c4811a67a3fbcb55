"""Ensemble text-to-SQL over SQLite.

Generates SQL candidates from several schema representations (optionally
narrowed by an LLM schema-linking pass), groups them by execution result,
picks the majority answer when the vote is confident, and escalates to
pairwise LLM comparison when it is not.
"""
