"""Rule ``per-token-rehash``: incremental hashing on the lookup path.

PR 6 made the prefix path incremental, and this rule keeps it from
regressing: ``chain_hashes(stream, boundaries)`` folds the whole stream
every call.  On the lookup hot path (``kv_prefix.py`` and friends) a
decode-time extension must reuse the memoized chain owned by the sequence
(``SequenceSpec.hash_chain``), so extending by one block costs one fold,
not O(stream).  Calls to any name in ``PER_TOKEN_HASH_FUNCS`` from a hot
module are flagged; the from-scratch helper remains the property-test
oracle elsewhere.
"""

from __future__ import annotations

import ast

from ..engine import Context, Rule
from ..manifest import PER_TOKEN_HASH_FUNCS

__all__ = ["PerTokenRehashRule"]


def _call_name(func: ast.expr) -> str:
    """Bare or attribute name of a call target (``f`` / ``mod.f``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


class PerTokenRehashRule(Rule):
    name = "per-token-rehash"

    def visit_Call(self, node: ast.Call, ctx: Context) -> None:
        name = _call_name(node.func)
        if name in PER_TOKEN_HASH_FUNCS and ctx.is_hot:
            ctx.report(
                self.name,
                node,
                f"{name}(...) re-hashes the full stream from scratch on "
                "a hot module; use the memoized SequenceSpec.hash_chain "
                "so decode-time extension folds only the new blocks",
            )
