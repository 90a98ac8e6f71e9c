"""recheck-lint: the static checker for the ReCache tree.

``python -m tools.recheck_lint.lint src`` parses the tree with :mod:`ast`
and enforces six declared invariants: guarded-by lock discipline, no heavy
work under a lock, future resolution on every serving path, the
interprocedural raise-flow containment contracts, the vectorized hot path,
and shared-memory segment/unlink pairing.  It lives outside the ``repro``
package and imports nothing from it.
"""
