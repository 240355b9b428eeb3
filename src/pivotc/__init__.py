"""pivotc: a constraint-model compiler built around a rewritable pivot IR.

Frontend (object-oriented modeling language) -> pivot model -> rewriting
passes -> structured CLP text or a flat constraint list, with a brute-force
enumerator as the semantic ground truth for the rewrites.

The public names are exported lazily (PEP 562): ``import pivotc`` loads no
submodule, and the first access to a name imports the one module that
defines it.  So a command pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "alldiff_to_disequalities": "alldiff",
    "ClpEmitOptions": "clp", "emit_clp": "clp",
    "CompileError": "errors", "Diagnostic": "errors", "Loc": "errors",
    "ParseError": "errors",
    "FlatProgram": "flat", "FlatVar": "flat", "emit_flat": "flat",
    "lower_to_flat": "flat",
    "Model": "ir", "model_equals": "ir",
    "Assignment": "oracle", "SolutionSet": "oracle",
    "compare_solutions": "oracle", "compare_streaming": "oracle",
    "enumerate_solutions": "oracle",
    "parse_flat": "flat",
    "SourceUnit": "parser", "parse": "parser", "parse_expression": "parser",
    "PassConfig": "passes", "PassReport": "passes", "alldiff_rewrite": "passes",
    "enum_remove": "passes", "fold_constants": "passes",
    "loop_unroll": "passes", "object_flatten": "passes",
    "run_pipeline": "passes",
    "print_expression": "printer", "print_pivot": "printer",
    "Scope": "sema", "infer_type": "sema", "resolve": "sema",
    "validate": "sema",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
