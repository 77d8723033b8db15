#include "spec/parser.h"

#include <cctype>
#include <map>
#include <sstream>
#include <utility>

namespace transform::spec {

namespace {

/// Keep in sync with mtm::kMaxAxioms (not included here: spec/ stays below
/// mtm/ in the layering; the compiler re-checks with the real constant).
constexpr int kMaxAxiomsInSpec = 32;

/// Size caps on expressions. Every compiler and printer walks the AST
/// recursively (the parser itself recurses once per parenthesis), so
/// unbounded input would overflow the stack: parentheses may nest at most
/// kMaxNesting deep and one model holds at most kMaxNodes expression nodes
/// (which bounds the depth of any AST path). Real models use a few dozen;
/// twice kMaxNodes still fits a worker thread's stack in an ASan build.
constexpr int kMaxNesting = 1000;
constexpr int kMaxNodes = 2000;

struct BaseRelEntry {
    const char* name;
    BaseRel rel;
};

constexpr BaseRelEntry kBaseRels[] = {
    {"po", BaseRel::kPo},
    {"po_loc", BaseRel::kPoLoc},
    {"po_mem", BaseRel::kPoMem},
    {"rf", BaseRel::kRf},
    {"rfe", BaseRel::kRfe},
    {"co", BaseRel::kCo},
    {"fr", BaseRel::kFr},
    {"ppo", BaseRel::kPpo},
    {"fence", BaseRel::kFence},
    {"rmw", BaseRel::kRmw},
    {"ghost", BaseRel::kGhost},
    {"rf_ptw", BaseRel::kRfPtw},
    {"rf_pa", BaseRel::kRfPa},
    {"co_pa", BaseRel::kCoPa},
    {"fr_pa", BaseRel::kFrPa},
    {"fr_va", BaseRel::kFrVa},
    {"remap", BaseRel::kRemap},
    {"ptw_source", BaseRel::kPtwSource},
};

struct EventSetEntry {
    const char* name;
    EventSet set;
};

constexpr EventSetEntry kEventSets[] = {
    {"R", EventSet::kRead},       {"W", EventSet::kWrite},
    {"M", EventSet::kMemory},     {"D", EventSet::kData},
    {"PTE", EventSet::kPte},      {"F", EventSet::kFence},
    {"Wpte", EventSet::kWpte},    {"Invlpg", EventSet::kInvlpg},
    {"Rptw", EventSet::kRptw},    {"Wdb", EventSet::kWdb},
    {"Rdb", EventSet::kRdb},      {"Ghost", EventSet::kGhost},
    {"User", EventSet::kUser},
};

enum class Tok {
    kEof,
    kIdent,    ///< keywords resolved by spelling at the parser level
    kString,   ///< "..." (no escapes)
    kColon,
    kEquals,
    kPipe,
    kAmp,
    kBackslash,
    kSemi,
    kLParen,
    kRParen,
    kLBracket,
    kRBracket,
    kCaretPlus,   ///< ^+
    kCaretStar,   ///< ^*
    kCaretInv,    ///< ^-1
    kZero,        ///< the empty-relation literal
};

struct Token {
    Tok kind = Tok::kEof;
    std::string text;  ///< kIdent: spelling; kString: contents
    int line = 1;
    int col = 1;
};

class Lexer {
  public:
    explicit Lexer(std::string_view source) : src_(source) {}

    /// Scans the next token; lexical errors surface as a failed result.
    bool next(Token* out, Diagnostic* diag)
    {
        skip_trivia();
        out->line = line_;
        out->col = col_;
        if (pos_ >= src_.size()) {
            out->kind = Tok::kEof;
            return true;
        }
        const char c = src_[pos_];
        switch (c) {
        case ':': return single(out, Tok::kColon);
        case '=': return single(out, Tok::kEquals);
        case '|': return single(out, Tok::kPipe);
        case '&': return single(out, Tok::kAmp);
        case '\\': return single(out, Tok::kBackslash);
        case ';': return single(out, Tok::kSemi);
        case '(': return single(out, Tok::kLParen);
        case ')': return single(out, Tok::kRParen);
        case '[': return single(out, Tok::kLBracket);
        case ']': return single(out, Tok::kRBracket);
        case '0': return single(out, Tok::kZero);
        case '^':
            if (src_.substr(pos_, 2) == "^+") {
                advance(2);
                out->kind = Tok::kCaretPlus;
                return true;
            }
            if (src_.substr(pos_, 2) == "^*") {
                advance(2);
                out->kind = Tok::kCaretStar;
                return true;
            }
            if (src_.substr(pos_, 3) == "^-1") {
                advance(3);
                out->kind = Tok::kCaretInv;
                return true;
            }
            return fail(diag, "expected '^+', '^*' or '^-1' after '^'");
        case '"': {
            advance(1);
            std::string text;
            while (pos_ < src_.size() && src_[pos_] != '"' &&
                   src_[pos_] != '\n') {
                text.push_back(src_[pos_]);
                advance(1);
            }
            if (pos_ >= src_.size() || src_[pos_] != '"') {
                // Report at the opening quote — the useful position.
                diag->line = out->line;
                diag->col = out->col;
                diag->message = "unterminated string";
                return false;
            }
            advance(1);
            out->kind = Tok::kString;
            out->text = std::move(text);
            return true;
        }
        default:
            break;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::string text;
            while (pos_ < src_.size() &&
                   (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
                    src_[pos_] == '_')) {
                text.push_back(src_[pos_]);
                advance(1);
            }
            out->kind = Tok::kIdent;
            out->text = std::move(text);
            return true;
        }
        return fail(diag, std::string("unexpected character '") + c + "'");
    }

  private:
    bool
    single(Token* out, Tok kind)
    {
        advance(1);
        out->kind = kind;
        return true;
    }

    bool
    fail(Diagnostic* diag, std::string message)
    {
        diag->line = line_;
        diag->col = col_;
        diag->message = std::move(message);
        return false;
    }

    void
    advance(std::size_t count)
    {
        for (std::size_t i = 0; i < count && pos_ < src_.size(); ++i) {
            if (src_[pos_] == '\n') {
                ++line_;
                col_ = 1;
            } else {
                ++col_;
            }
            ++pos_;
        }
    }

    void
    skip_trivia()
    {
        while (pos_ < src_.size()) {
            const char c = src_[pos_];
            if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
                advance(1);
            } else if (c == '#' || src_.substr(pos_, 2) == "//") {
                while (pos_ < src_.size() && src_[pos_] != '\n') {
                    advance(1);
                }
            } else {
                break;
            }
        }
    }

    std::string_view src_;
    std::size_t pos_ = 0;
    int line_ = 1;
    int col_ = 1;
};

class Parser {
  public:
    Parser(std::string_view source, Diagnostic* diag)
        : lexer_(source), diag_(diag)
    {
    }

    std::optional<ModelSpec>
    parse()
    {
        if (!advance()) {
            return std::nullopt;
        }
        if (!expect_keyword("model", "every .mtm file starts with "
                            "'model <name>'")) {
            return std::nullopt;
        }
        if (cur_.kind != Tok::kIdent) {
            return error_at(cur_, "expected a model name after 'model'");
        }
        spec_.name = cur_.text;
        if (!advance()) {
            return std::nullopt;
        }
        while (cur_.kind != Tok::kEof) {
            if (cur_.kind != Tok::kIdent) {
                return error_at(cur_, "expected 'vm', 'let' or 'axiom'");
            }
            if (cur_.text == "vm") {
                if (!parse_vm()) {
                    return std::nullopt;
                }
            } else if (cur_.text == "let") {
                if (!parse_let()) {
                    return std::nullopt;
                }
            } else if (cur_.text == "axiom") {
                if (!parse_axiom()) {
                    return std::nullopt;
                }
            } else {
                return error_at(cur_, "expected 'vm', 'let' or 'axiom', got '" +
                                          cur_.text + "'");
            }
        }
        if (spec_.axioms.empty()) {
            return error_at(cur_, "model '" + spec_.name +
                                      "' declares no axioms");
        }
        return std::move(spec_);
    }

  private:
    std::nullopt_t
    error_at(const Token& token, std::string message)
    {
        diag_->line = token.line;
        diag_->col = token.col;
        diag_->message = std::move(message);
        return std::nullopt;
    }

    bool
    fail_at(const Token& token, std::string message)
    {
        error_at(token, std::move(message));
        return false;
    }

    bool
    advance()
    {
        return lexer_.next(&cur_, diag_);
    }

    bool
    expect_keyword(const char* keyword, const char* message)
    {
        if (cur_.kind != Tok::kIdent || cur_.text != keyword) {
            return fail_at(cur_, message);
        }
        return advance();
    }

    bool
    expect(Tok kind, const char* what)
    {
        if (cur_.kind != kind) {
            return fail_at(cur_, std::string("expected ") + what);
        }
        return advance();
    }

    bool
    parse_vm()
    {
        if (!advance()) {  // consume 'vm'
            return false;
        }
        if (cur_.kind != Tok::kIdent ||
            (cur_.text != "on" && cur_.text != "off")) {
            return fail_at(cur_, "expected 'on' or 'off' after 'vm'");
        }
        spec_.vm = cur_.text == "on";
        return advance();
    }

    bool
    parse_let()
    {
        if (!advance()) {  // consume 'let'
            return false;
        }
        if (cur_.kind != Tok::kIdent) {
            return fail_at(cur_, "expected a name after 'let'");
        }
        const Token name = cur_;
        if (lets_.count(name.text) > 0) {
            return fail_at(name, "duplicate let '" + name.text + "'");
        }
        if (lookup_base(name.text) != nullptr) {
            return fail_at(name, "'" + name.text +
                                     "' is a base relation and cannot be "
                                     "redefined");
        }
        if (!advance() || !expect(Tok::kEquals, "'=' after the let name")) {
            return false;
        }
        ExprPtr body = parse_expr();
        if (body == nullptr) {
            return false;
        }
        spec_.lets.push_back({name.text, body});
        lets_.emplace(name.text, std::move(body));
        return true;
    }

    bool
    parse_axiom()
    {
        if (!advance()) {  // consume 'axiom'
            return false;
        }
        if (cur_.kind != Tok::kIdent) {
            return fail_at(cur_, "expected an axiom name after 'axiom'");
        }
        AxiomDef axiom;
        const Token name = cur_;
        axiom.name = name.text;
        for (const AxiomDef& existing : spec_.axioms) {
            if (existing.name == axiom.name) {
                return fail_at(name, "duplicate axiom '" + axiom.name + "'");
            }
        }
        if (!advance()) {
            return false;
        }
        if (cur_.kind == Tok::kString) {
            axiom.description = cur_.text;
            if (!advance()) {
                return false;
            }
        }
        if (!expect(Tok::kColon, "':' after the axiom name")) {
            return false;
        }
        if (cur_.kind != Tok::kIdent) {
            return fail_at(cur_,
                           "expected 'acyclic', 'irreflexive' or 'empty'");
        }
        if (cur_.text == "acyclic") {
            axiom.form = AxiomForm::kAcyclic;
        } else if (cur_.text == "irreflexive") {
            axiom.form = AxiomForm::kIrreflexive;
        } else if (cur_.text == "empty") {
            axiom.form = AxiomForm::kEmpty;
        } else {
            return fail_at(cur_, "unknown axiom form '" + cur_.text +
                                     "' (expected acyclic, irreflexive or "
                                     "empty)");
        }
        if (!advance() || !expect(Tok::kLParen, "'(' after the axiom form")) {
            return false;
        }
        axiom.expr = parse_expr();
        if (axiom.expr == nullptr) {
            return false;
        }
        if (!expect(Tok::kRParen, "')' closing the axiom condition")) {
            return false;
        }
        if (static_cast<int>(spec_.axioms.size()) >= kMaxAxiomsInSpec) {
            return fail_at(name, "too many axioms (the mask width caps a "
                                 "model at 32)");
        }
        spec_.axioms.push_back(std::move(axiom));
        return true;
    }

    // ------------------------------------------------------------------
    // Expressions (precedence: postfix > ';' > '&'/'\' > '|').
    // ------------------------------------------------------------------

    ExprPtr
    parse_expr()
    {
        ExprPtr lhs = parse_term();
        while (lhs != nullptr && cur_.kind == Tok::kPipe) {
            if (!advance()) {
                return nullptr;
            }
            ExprPtr rhs = parse_term();
            if (rhs == nullptr) {
                return nullptr;
            }
            lhs = binary(ExprOp::kUnion, std::move(lhs), std::move(rhs));
        }
        return lhs;
    }

    ExprPtr
    parse_term()
    {
        ExprPtr lhs = parse_factor();
        while (lhs != nullptr &&
               (cur_.kind == Tok::kAmp || cur_.kind == Tok::kBackslash)) {
            const ExprOp op = cur_.kind == Tok::kAmp ? ExprOp::kIntersect
                                                     : ExprOp::kMinus;
            if (!advance()) {
                return nullptr;
            }
            ExprPtr rhs = parse_factor();
            if (rhs == nullptr) {
                return nullptr;
            }
            lhs = binary(op, std::move(lhs), std::move(rhs));
        }
        return lhs;
    }

    ExprPtr
    parse_factor()
    {
        ExprPtr lhs = parse_postfix();
        while (lhs != nullptr && cur_.kind == Tok::kSemi) {
            if (!advance()) {
                return nullptr;
            }
            ExprPtr rhs = parse_postfix();
            if (rhs == nullptr) {
                return nullptr;
            }
            lhs = binary(ExprOp::kJoin, std::move(lhs), std::move(rhs));
        }
        return lhs;
    }

    ExprPtr
    parse_postfix()
    {
        ExprPtr inner = parse_atom();
        while (inner != nullptr && (cur_.kind == Tok::kCaretPlus ||
                                    cur_.kind == Tok::kCaretStar ||
                                    cur_.kind == Tok::kCaretInv)) {
            auto node = new_node(cur_.kind == Tok::kCaretPlus
                                     ? ExprOp::kClosure
                                 : cur_.kind == Tok::kCaretStar
                                     ? ExprOp::kReflexiveClosure
                                     : ExprOp::kTranspose);
            if (node == nullptr) {
                return nullptr;
            }
            node->lhs = std::move(inner);
            inner = std::move(node);
            if (!advance()) {
                return nullptr;
            }
        }
        return inner;
    }

    ExprPtr
    parse_atom()
    {
        switch (cur_.kind) {
        case Tok::kLParen: {
            if (nesting_ == kMaxNesting) {
                fail_at(cur_, "parentheses nest more than " +
                                  std::to_string(kMaxNesting) + " deep");
                return nullptr;
            }
            if (!advance()) {
                return nullptr;
            }
            ++nesting_;
            ExprPtr inner = parse_expr();
            --nesting_;
            if (inner == nullptr ||
                !expect(Tok::kRParen, "')' closing the group")) {
                return nullptr;
            }
            return inner;
        }
        case Tok::kLBracket: {
            const Token bracket = cur_;
            if (!advance()) {
                return nullptr;
            }
            if (cur_.kind != Tok::kIdent) {
                fail_at(bracket, "expected an event class inside '[ ]'");
                return nullptr;
            }
            const EventSet* set = lookup_set(cur_.text);
            if (set == nullptr) {
                fail_at(cur_, "unknown event class '" + cur_.text +
                                  "' (see docs/models.md for the "
                                  "catalogue)");
                return nullptr;
            }
            auto node = new_node(ExprOp::kIdSet);
            if (node == nullptr) {
                return nullptr;
            }
            node->set = *set;
            if (!advance() ||
                !expect(Tok::kRBracket, "']' closing the event class")) {
                return nullptr;
            }
            return node;
        }
        case Tok::kZero: {
            auto node = new_node(ExprOp::kEmpty);
            if (node == nullptr || !advance()) {
                return nullptr;
            }
            return node;
        }
        case Tok::kIdent: {
            if (const BaseRel* base = lookup_base(cur_.text)) {
                auto node = new_node(ExprOp::kBase);
                if (node == nullptr) {
                    return nullptr;
                }
                node->base = *base;
                if (!advance()) {
                    return nullptr;
                }
                return node;
            }
            const auto let = lets_.find(cur_.text);
            if (let != lets_.end()) {
                auto node = new_node(ExprOp::kLetRef);
                if (node == nullptr) {
                    return nullptr;
                }
                node->lhs = let->second;
                node->let_name = cur_.text;
                if (!advance()) {
                    return nullptr;
                }
                return node;
            }
            fail_at(cur_, "unknown relation '" + cur_.text +
                              "' (not a base relation or a let; event "
                              "classes need '[ ]')");
            return nullptr;
        }
        default:
            fail_at(cur_, "expected a relation expression");
            return nullptr;
        }
    }

    /// A fresh node, or null (with a positioned diagnostic) once the model
    /// exceeds kMaxNodes.
    std::shared_ptr<Expr>
    new_node(ExprOp op)
    {
        if (nodes_ == kMaxNodes) {
            fail_at(cur_, "expression too large: a model holds at most " +
                              std::to_string(kMaxNodes) +
                              " relation terms and operators");
            return nullptr;
        }
        ++nodes_;
        auto node = std::make_shared<Expr>();
        node->op = op;
        return node;
    }

    ExprPtr
    binary(ExprOp op, ExprPtr lhs, ExprPtr rhs)
    {
        auto node = new_node(op);
        if (node == nullptr) {
            return nullptr;
        }
        node->lhs = std::move(lhs);
        node->rhs = std::move(rhs);
        return node;
    }

    static const BaseRel*
    lookup_base(const std::string& name)
    {
        for (const BaseRelEntry& entry : kBaseRels) {
            if (name == entry.name) {
                return &entry.rel;
            }
        }
        return nullptr;
    }

    static const EventSet*
    lookup_set(const std::string& name)
    {
        for (const EventSetEntry& entry : kEventSets) {
            if (name == entry.name) {
                return &entry.set;
            }
        }
        return nullptr;
    }

    Lexer lexer_;
    Diagnostic* diag_;
    Token cur_;
    ModelSpec spec_;
    std::map<std::string, ExprPtr> lets_;
    int nesting_ = 0;  ///< open parentheses around the current token
    int nodes_ = 0;    ///< expression nodes created so far
};

}  // namespace

std::string
Diagnostic::to_string(const std::string& origin) const
{
    std::ostringstream out;
    out << origin << ":" << line << ":" << col << ": error: " << message;
    return out.str();
}

std::optional<ModelSpec>
parse_model(std::string_view source, Diagnostic* diag)
{
    Diagnostic local;
    Parser parser(source, diag != nullptr ? diag : &local);
    return parser.parse();
}

const char*
base_rel_name(BaseRel rel)
{
    for (const BaseRelEntry& entry : kBaseRels) {
        if (entry.rel == rel) {
            return entry.name;
        }
    }
    return "?";
}

const char*
event_set_name(EventSet set)
{
    for (const EventSetEntry& entry : kEventSets) {
        if (entry.set == set) {
            return entry.name;
        }
    }
    return "?";
}

const char*
axiom_form_name(AxiomForm form)
{
    switch (form) {
    case AxiomForm::kAcyclic: return "acyclic";
    case AxiomForm::kIrreflexive: return "irreflexive";
    case AxiomForm::kEmpty: return "empty";
    }
    return "?";
}

}  // namespace transform::spec
