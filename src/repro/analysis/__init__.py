"""Paper claims, comparison tables, experiment reporting."""

from .claims import PAPER_TABLE, PaperClaim, claim_for
from .report import collect_results, generate_experiments_md
from .tables import render_table

__all__ = [
    "PAPER_TABLE",
    "PaperClaim",
    "claim_for",
    "collect_results",
    "generate_experiments_md",
    "render_table",
]
