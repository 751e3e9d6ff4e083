# jengalint: module=repro/core/kv_prefix.py
"""Fixture: from-scratch rehash on the lookup path (rule per-token-rehash)."""


def chain_hashes(token_ids, boundaries):
    return list(boundaries)


class PrefixLookup:
    def lookup(self, stream, boundaries):
        # Folds the whole stream every probe instead of reusing the
        # memoized chain on the sequence.
        return chain_hashes(stream, boundaries)
