#include "elt/litmus.h"

#include <map>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace transform::elt {

namespace {

/// Inverse of va_name / pa_name: resolves "x"/"y1"/... to an index, or -1.
int
parse_indexed_name(const std::string& token, const char* alphabet, int count)
{
    if (token.empty()) {
        return -1;
    }
    int base = -1;
    for (int i = 0; i < count; ++i) {
        if (token[0] == alphabet[i]) {
            base = i;
            break;
        }
    }
    if (base < 0) {
        return -1;
    }
    if (token.size() == 1) {
        return base;
    }
    try {
        // A program holds at most 64 events, so no name indexes past 63;
        // bounding the round first also keeps the product from overflowing.
        const int round = std::stoi(token.substr(1));
        if (round <= 0 || round > 64) {
            return -1;
        }
        const int index = round * count + base;
        return index < 64 ? index : -1;
    } catch (...) {
        return -1;
    }
}

int
parse_va(const std::string& token)
{
    return parse_indexed_name(token, "xyuw", 4);
}

int
parse_pa(const std::string& token)
{
    return parse_indexed_name(token, "abcdefgh", 8);
}

std::vector<std::string>
tokenize(const std::string& line)
{
    std::istringstream in(line);
    std::vector<std::string> out;
    std::string token;
    while (in >> token) {
        if (token[0] == '#') {
            break;
        }
        out.push_back(token);
    }
    return out;
}

}  // namespace

std::string
program_to_litmus(const Program& p, const std::string& name)
{
    std::ostringstream out;
    out << "elt " << name << "\n";
    // Names for WPTEs that are remap-referenced.
    std::map<EventId, std::string> wpte_names;
    for (EventId id = 0; id < p.num_events(); ++id) {
        const Event& e = p.event(id);
        if (e.kind == EventKind::kInvlpg && e.remap_src != kNone &&
            wpte_names.find(e.remap_src) == wpte_names.end()) {
            wpte_names.emplace(e.remap_src,
                               "p" + std::to_string(wpte_names.size()));
        }
    }
    // rmw-marked reads.
    std::map<EventId, bool> rmw_read;
    for (const auto& [r, w] : p.rmw_pairs()) {
        rmw_read[r] = true;
        (void)w;
    }
    for (int t = 0; t < p.num_threads(); ++t) {
        out << "thread P" << t << "\n";
        for (const EventId id : p.thread(t)) {
            const Event& e = p.event(id);
            out << "  ";
            switch (e.kind) {
            case EventKind::kRead:
                out << "R " << va_name(e.va)
                    << (p.rptw_of(id) != kNone ? " miss" : " hit");
                if (rmw_read.count(id) > 0) {
                    out << " rmw";
                }
                break;
            case EventKind::kWrite:
                out << "W " << va_name(e.va)
                    << (p.rptw_of(id) != kNone ? " miss" : " hit");
                if (p.rdb_of(id) != kNone) {
                    out << " rdb";
                }
                break;
            case EventKind::kMfence:
                out << "MFENCE";
                break;
            case EventKind::kWpte:
                out << "WPTE " << va_name(e.va) << " -> " << pa_name(e.map_pa);
                if (wpte_names.count(id) > 0) {
                    out << " as " << wpte_names[id];
                }
                break;
            case EventKind::kInvlpg:
                out << "INVLPG " << va_name(e.va);
                if (e.remap_src != kNone) {
                    out << " for " << wpte_names[e.remap_src];
                }
                break;
            case EventKind::kInvlpgAll:
                out << "INVLPGALL";
                break;
            default:
                break;  // ghosts are implied
            }
            out << "\n";
        }
    }
    return out.str();
}

std::optional<ParsedLitmus>
parse_litmus(const std::string& text, std::string* error)
{
    auto fail = [error](int line, const std::string& message)
        -> std::optional<ParsedLitmus> {
        if (error != nullptr) {
            *error = "line " + std::to_string(line) + ": " + message;
        }
        return std::nullopt;
    };

    ParsedLitmus out;
    Program& p = out.program;
    int current_thread = -1;
    bool saw_header = false;

    // Deferred work: ghosts per instruction, remap references, rmw marks.
    struct PendingInvlpg {
        EventId id;
        std::string wpte_name;
        int line;
    };
    std::vector<PendingInvlpg> pending_invlpgs;
    std::map<std::string, EventId> wpte_by_name;
    EventId pending_rmw_read = kNone;
    int pending_rmw_line = 0;

    struct Ghosts {
        EventId parent;
        bool walk;
        bool wdb;
        bool rdb;
    };
    std::vector<Ghosts> ghosts;

    const std::vector<std::string> lines = util::split(text, '\n');
    for (int number = 1; number <= static_cast<int>(lines.size()); ++number) {
        const auto tokens = tokenize(lines[number - 1]);
        if (tokens.empty()) {
            continue;
        }
        const std::string& keyword = tokens[0];
        if (!saw_header) {
            if (keyword != "elt" || tokens.size() != 2) {
                return fail(number, "expected 'elt <name>'");
            }
            out.name = tokens[1];
            saw_header = true;
            continue;
        }
        if (keyword == "thread") {
            current_thread = p.add_thread();
            continue;
        }
        if (current_thread < 0) {
            return fail(number, "instruction before any 'thread'");
        }

        Event e;
        e.thread = current_thread;
        bool walk = false;
        bool wdb = false;
        bool rdb = false;
        bool rmw_mark = false;

        if (keyword == "R" || keyword == "W") {
            if (tokens.size() < 2) {
                return fail(number, "missing address");
            }
            const int va = parse_va(tokens[1]);
            if (va < 0) {
                return fail(number, "bad VA '" + tokens[1] + "'");
            }
            e.kind = keyword == "R" ? EventKind::kRead : EventKind::kWrite;
            e.va = va;
            walk = true;  // default: miss
            wdb = keyword == "W";
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                if (tokens[i] == "miss") {
                    walk = true;
                } else if (tokens[i] == "hit") {
                    walk = false;
                } else if (tokens[i] == "rmw" && keyword == "R") {
                    rmw_mark = true;
                } else if (tokens[i] == "rdb" && keyword == "W") {
                    rdb = true;
                } else {
                    return fail(number, "bad modifier '" + tokens[i] + "'");
                }
            }
        } else if (keyword == "MFENCE") {
            e.kind = EventKind::kMfence;
        } else if (keyword == "INVLPGALL") {
            e.kind = EventKind::kInvlpgAll;
        } else if (keyword == "WPTE") {
            if (tokens.size() < 4 || tokens[2] != "->") {
                return fail(number, "expected 'WPTE <va> -> <pa> [as <id>]'");
            }
            const int va = parse_va(tokens[1]);
            const int pa = parse_pa(tokens[3]);
            if (va < 0 || pa < 0) {
                return fail(number, "bad address in WPTE");
            }
            e.kind = EventKind::kWpte;
            e.va = va;
            e.map_pa = pa;
        } else if (keyword == "INVLPG") {
            if (tokens.size() < 2) {
                return fail(number, "missing address");
            }
            const int va = parse_va(tokens[1]);
            if (va < 0) {
                return fail(number, "bad VA '" + tokens[1] + "'");
            }
            e.kind = EventKind::kInvlpg;
            e.va = va;
        } else {
            return fail(number, "unknown instruction '" + keyword + "'");
        }

        const EventId id = p.add_event(e);

        // Post-instruction bookkeeping.
        if (e.kind == EventKind::kWpte && tokens.size() >= 6 &&
            tokens[4] == "as") {
            if (!wpte_by_name.emplace(tokens[5], id).second) {
                return fail(number, "duplicate WPTE name '" + tokens[5] + "'");
            }
        }
        if (e.kind == EventKind::kInvlpg) {
            if (tokens.size() >= 4 && tokens[2] == "for") {
                pending_invlpgs.push_back({id, tokens[3], number});
            } else if (tokens.size() > 2) {
                return fail(number, "expected 'INVLPG <va> [for <id>]'");
            }
        }
        if (pending_rmw_read != kNone) {
            if (e.kind != EventKind::kWrite ||
                e.va != p.event(pending_rmw_read).va ||
                e.thread != p.event(pending_rmw_read).thread) {
                return fail(pending_rmw_line,
                            "rmw read must be followed by a same-VA W");
            }
            p.add_rmw(pending_rmw_read, id);
            pending_rmw_read = kNone;
        }
        if (rmw_mark) {
            pending_rmw_read = id;
            pending_rmw_line = number;
        }
        if (walk || wdb || rdb) {
            ghosts.push_back({id, walk, wdb, rdb});
        }
    }
    if (!saw_header) {
        return fail(1, "empty input (expected 'elt <name>')");
    }
    if (pending_rmw_read != kNone) {
        return fail(pending_rmw_line, "dangling rmw mark");
    }

    // Resolve remap references.
    for (const PendingInvlpg& pending : pending_invlpgs) {
        const auto it = wpte_by_name.find(pending.wpte_name);
        if (it == wpte_by_name.end()) {
            return fail(pending.line,
                        "unknown WPTE name '" + pending.wpte_name + "'");
        }
        Event patched = p.event(pending.id);
        patched.remap_src = it->second;
        if (p.event(it->second).va != patched.va) {
            return fail(pending.line, "INVLPG va differs from its WPTE");
        }
        p.replace_event(pending.id, patched);
    }

    // Materialize ghosts (parents all exist now).
    for (const Ghosts& g : ghosts) {
        if (g.rdb) {
            p.add_ghost({EventKind::kRdb, 0, kNone, kNone, g.parent, kNone});
        }
        if (g.wdb) {
            p.add_ghost({EventKind::kWdb, 0, kNone, kNone, g.parent, kNone});
        }
        if (g.walk) {
            p.add_ghost({EventKind::kRptw, 0, kNone, kNone, g.parent, kNone});
        }
    }
    return out;
}

}  // namespace transform::elt
