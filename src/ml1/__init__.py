"""ml1: a small object language with re-exportable imports and
import-activated AST rewriting, plus an interpreter that makes the
rewritten defer semantics observable.

The submodules are the API: `tokens`, `parser`, `scopes`, `resolve`,
`rewrite`, `printer` and `interp`, with `cli` as the command line.
Importing the package alone loads none of them."""
