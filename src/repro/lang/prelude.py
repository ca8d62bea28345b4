"""The prelude: library procedures written in the language itself.

Higher-order procedures (``map``, ``filter``, ``foldl`` ...) cannot be
Python primitives — a primitive cannot re-enter the evaluator to call
its procedure argument — so they are defined in the object language
and evaluated into the global environment when an interpreter is
created.  This mirrors how any serious Scheme bootstraps its library.
"""

from __future__ import annotations

from functools import cache

PRELUDE_SOURCE = """
(begin
  (define-into-global map
    (lambda (f l)
      (if (null? l) l (cons (f (car l)) (map f (cdr l))))))
  (define-into-global filter
    (lambda (keep? l)
      (if (null? l)
          l
          (if (keep? (car l))
              (cons (car l) (filter keep? (cdr l)))
              (filter keep? (cdr l))))))
  (define-into-global foldl
    (lambda (f init l)
      (if (null? l) init (foldl f (f init (car l)) (cdr l)))))
  (define-into-global foldr
    (lambda (f init l)
      (if (null? l) init (f (car l) (foldr f init (cdr l))))))
  (define-into-global for-each
    (lambda (f l)
      (if (null? l) (void) (begin (f (car l)) (for-each f (cdr l))))))
  (define-into-global andmap
    (lambda (p l)
      (if (null? l) #t (if (p (car l)) (andmap p (cdr l)) #f))))
  (define-into-global ormap
    (lambda (p l)
      (if (null? l) #f (if (p (car l)) #t (ormap p (cdr l))))))
  (define-into-global iota
    (lambda (n)
      (letrec ((go (lambda (k acc)
                     (if (zero? k) acc (go (- k 1) (cons (- k 1) acc))))))
        (go n (list)))))
  (define-into-global assoc-ref
    (lambda (l key default)
      (if (null? l)
          default
          (if (equal? (car (car l)) key)
              (cdr (car l))
              (assoc-ref (cdr l) key default)))))
  (define-into-global last
    (lambda (l)
      (if (null? (cdr l)) (car l) (last (cdr l))))))
"""

#: Names the prelude installs (kept in sync by a test).
PRELUDE_NAMES = (
    "map", "filter", "foldl", "foldr", "for-each", "andmap", "ormap",
    "iota", "assoc-ref", "last",
)


@cache
def prelude_bindings() -> tuple:
    """The prelude as ``(name, expr)`` letrec bindings.

    Shared by :func:`install_prelude` and the codegen backend
    (:mod:`repro.backend.runtime`), which compiles the same letrec so
    both evaluators bootstrap identical library procedures.  Read and
    parsed once per process: the bindings are immutable syntax.
    """
    from repro.lang.parser import parse_expr
    from repro.lang.sexpr import read_sexpr, Symbol, SList

    datum = read_sexpr(PRELUDE_SOURCE, origin="<prelude>")
    assert isinstance(datum, SList)
    bindings = []
    for form in datum.items[1:]:
        assert isinstance(form, SList) and len(form) == 3
        head, name, body = form.items
        assert isinstance(head, Symbol) \
            and head.name == "define-into-global"
        assert isinstance(name, Symbol)
        bindings.append((name.name, parse_expr(body)))
    return tuple(bindings)


def install_prelude(interp) -> None:
    """Evaluate the prelude into an interpreter's global environment.

    The pseudo-form ``define-into-global`` is handled here (it is not
    part of the user-visible language): each definition is evaluated as
    a ``letrec`` over all prelude names so they can be mutually
    recursive, then the resulting closures are installed globally.
    """
    from repro.lang.ast import App, Letrec, Var

    bindings = prelude_bindings()
    block = Letrec(
        bindings,
        App(Var("list"), tuple(Var(name) for name, _ in bindings)))
    from repro.lang.values import pairs_to_list

    values = pairs_to_list(interp.eval(block, interp.global_env))
    for (name, _), value in zip(bindings, values):
        interp.global_env.define(name, value)
