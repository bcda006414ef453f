from . import ast
from .parser import parse, parse_program
from .printer import pretty_print, print_expr, print_program
from .transform import agents_of, desugar, project_view
from .validate import Diagnostic, validate

__all__ = [
    "ast",
    "parse",
    "parse_program",
    "pretty_print",
    "print_expr",
    "print_program",
    "project_view",
    "agents_of",
    "desugar",
    "validate",
    "Diagnostic",
]
