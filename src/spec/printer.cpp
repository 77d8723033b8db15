#include "spec/printer.h"

#include <sstream>

namespace transform::spec {

namespace {

/// The two concrete syntaxes an expression prints in.
enum class Syntax {
    kMtm,    ///< the `.mtm` language (spec/parser.h)
    kAlloy,  ///< Alloy relational operators
};

/// Binding strength of atoms, the tightest.
constexpr int kAtomLevel = 6;

/// Binding strength, loosest first; atoms (base relations, `0`, let
/// references, `.mtm`'s `[S]`) never need parentheses. Alloy puts `-` at
/// the level of `+`, binds `&` tighter than both, and prints `[S]` as the
/// restriction `S <: iden`, which binds looser than its join operands.
int
level_of(const Expr& e, Syntax syntax)
{
    const bool alloy = syntax == Syntax::kAlloy;
    switch (e.op) {
    case ExprOp::kUnion:
        return 1;
    case ExprOp::kMinus:
        return alloy ? 1 : 2;
    case ExprOp::kIntersect:
        return 2;
    case ExprOp::kIdSet:
        return alloy ? 3 : kAtomLevel;
    case ExprOp::kJoin:
        return 4;
    case ExprOp::kTranspose:
    case ExprOp::kClosure:
    case ExprOp::kReflexiveClosure:
        return 5;
    case ExprOp::kBase:
    case ExprOp::kEmpty:
    case ExprOp::kLetRef:
        return kAtomLevel;
    }
    return kAtomLevel;
}

const char*
operator_text(ExprOp op, Syntax syntax)
{
    const bool alloy = syntax == Syntax::kAlloy;
    switch (op) {
    case ExprOp::kUnion: return alloy ? " + " : " | ";
    case ExprOp::kIntersect: return " & ";
    case ExprOp::kMinus: return alloy ? " - " : " \\ ";
    case ExprOp::kJoin: return alloy ? "." : " ; ";
    case ExprOp::kTranspose: return alloy ? "~" : "^-1";
    case ExprOp::kClosure: return alloy ? "^" : "^+";
    case ExprOp::kReflexiveClosure: return alloy ? "*" : "^*";
    default: return "";
    }
}

void
print(const Expr& e, int min_level, Syntax syntax, std::ostream& out)
{
    const int level = level_of(e, syntax);
    const bool parens = level < min_level;
    if (parens) {
        out << "(";
    }
    switch (e.op) {
    case ExprOp::kUnion:
    case ExprOp::kIntersect:
    case ExprOp::kMinus:
    case ExprOp::kJoin:
        // Left-associative: the left child may sit at the same level, the
        // right child must bind strictly tighter to re-parse identically.
        print(*e.lhs, level, syntax, out);
        out << operator_text(e.op, syntax);
        print(*e.rhs, level + 1, syntax, out);
        break;
    case ExprOp::kTranspose:
    case ExprOp::kClosure:
    case ExprOp::kReflexiveClosure:
        // Postfix in `.mtm`, prefix in Alloy.
        if (syntax == Syntax::kAlloy) {
            out << operator_text(e.op, syntax);
        }
        print(*e.lhs, level, syntax, out);
        if (syntax == Syntax::kMtm) {
            out << operator_text(e.op, syntax);
        }
        break;
    case ExprOp::kBase:
        out << base_rel_name(e.base);
        break;
    case ExprOp::kEmpty:
        out << (syntax == Syntax::kAlloy ? "none" : "0");
        break;
    case ExprOp::kIdSet:
        if (syntax == Syntax::kAlloy) {
            out << event_set_name(e.set) << " <: iden";
        } else {
            out << "[" << event_set_name(e.set) << "]";
        }
        break;
    case ExprOp::kLetRef:
        out << e.let_name;
        break;
    }
    if (parens) {
        out << ")";
    }
}

}  // namespace

std::string
expr_to_source(const Expr& expr)
{
    std::ostringstream out;
    print(expr, 0, Syntax::kMtm, out);
    return out.str();
}

std::string
expr_to_alloy(const Expr& expr)
{
    std::ostringstream out;
    print(expr, 0, Syntax::kAlloy, out);
    return out.str();
}

std::string
axiom_to_alloy(const AxiomDef& axiom)
{
    std::ostringstream out;
    if (axiom.form == AxiomForm::kEmpty) {
        out << "no ";
        print(*axiom.expr, kAtomLevel, Syntax::kAlloy, out);
    } else {
        out << axiom_form_name(axiom.form) << "[" << expr_to_alloy(*axiom.expr)
            << "]";
    }
    return out.str();
}

std::string
model_to_source(const ModelSpec& spec)
{
    std::ostringstream out;
    out << "model " << spec.name << "\n";
    out << "vm " << (spec.vm ? "on" : "off") << "\n";
    if (!spec.lets.empty()) {
        out << "\n";
        for (const LetDef& let : spec.lets) {
            out << "let " << let.name << " = " << expr_to_source(*let.expr)
                << "\n";
        }
    }
    out << "\n";
    for (const AxiomDef& axiom : spec.axioms) {
        out << "axiom " << axiom.name;
        if (!axiom.description.empty()) {
            out << " \"" << axiom.description << "\"";
        }
        out << ": " << axiom_form_name(axiom.form) << "("
            << expr_to_source(*axiom.expr) << ")\n";
    }
    return out.str();
}

}  // namespace transform::spec
