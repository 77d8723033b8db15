/// \file
/// Emits a Model as an Alloy-style module — the format of the paper's
/// published artifact. The output documents the full vocabulary (signatures
/// for the event kinds and the Table-I relations, with their placement
/// facts) and one `pred`/`assert` pair per axiom of the model, so a reader
/// can diff this library's semantics against the original Alloy source.
#pragma once

#include <string>

#include "mtm/model.h"

namespace transform::mtm {

/// Renders the shared TransForm vocabulary (signatures + placement facts)
/// in Alloy-like syntax.
std::string vocabulary_to_alloy();

/// Renders \p model as an Alloy-like module: the vocabulary, one `fun`
/// per `let` of its specification, one predicate per axiom printing the
/// axiom's relational expression, and the model's transistency predicate.
std::string model_to_alloy(const Model& model);

}  // namespace transform::mtm
