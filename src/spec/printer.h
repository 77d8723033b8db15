/// \file
/// Canonical `.mtm` source emission from a parsed ModelSpec — the inverse
/// of spec/parser.h. Printing is canonical (one space between tokens,
/// parentheses only where precedence demands them, one declaration per
/// line), so parse-print-parse reaches a fixed point after one round trip:
/// print(parse(print(parse(s)))) == print(parse(s)) for every valid s.
/// The golden round-trip tests hold every zoo model to that contract.
///
/// The same printer renders expressions in Alloy's relational syntax for
/// the `--spec` module (mtm/spec_printer.h): `+`, `&`, `-`, `.`, prefix
/// `~`, `^` and `*`, `[S]` as `S <: iden`, and `0` as `none`.
#pragma once

#include <string>

#include "spec/ast.h"

namespace transform::spec {

/// Renders one expression in canonical concrete syntax.
std::string expr_to_source(const Expr& expr);

/// Renders the whole model file in canonical form.
std::string model_to_source(const ModelSpec& spec);

/// Renders one expression in Alloy syntax; `let` references print by
/// name (the module declares each let as a `fun`).
std::string expr_to_alloy(const Expr& expr);

/// Renders an axiom's condition in Alloy: `acyclic[e]`, `irreflexive[e]`
/// or `no e`.
std::string axiom_to_alloy(const AxiomDef& axiom);

}  // namespace transform::spec
