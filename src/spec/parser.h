/// \file
/// Lexer + recursive-descent parser for `.mtm` model files (spec/ast.h).
///
/// Grammar (EBNF; `//` and `#` start line comments):
///
///   model    := "model" ident { "vm" ("on"|"off") | let | axiom }
///   let      := "let" ident "=" expr
///   axiom    := "axiom" ident [ string ] ":" form "(" expr ")"
///   form     := "acyclic" | "irreflexive" | "empty"
///   expr     := term { "|" term }
///   term     := factor { ("&" | "\") factor }
///   factor   := postfix { ";" postfix }
///   postfix  := atom { "^+" | "^*" | "^-1" }
///   atom     := "(" expr ")" | "[" set "]" | base-rel | let-name | "0"
///
/// Errors carry a 1-based line/column so the tools can report
/// `path:line:col: error: message` and exit 2, matching the tool_args.h
/// strictness convention.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "spec/ast.h"

namespace transform::spec {

/// A parse (or validation) failure, positioned in the source text.
struct Diagnostic {
    int line = 0;  ///< 1-based
    int col = 0;   ///< 1-based
    std::string message;

    /// Formats as "origin:line:col: error: message".
    std::string to_string(const std::string& origin) const;
};

/// Parses one model file. On failure returns nullopt and fills \p diag.
/// Validation beyond the grammar happens here too: unknown relation/set
/// names, duplicate let/axiom names, models with no axioms, axiom counts
/// beyond mtm::kMaxAxioms, parentheses nested over 1,000 deep and models
/// over 2,000 expression nodes are all positioned diagnostics.
std::optional<ModelSpec> parse_model(std::string_view source,
                                     Diagnostic* diag);

}  // namespace transform::spec
