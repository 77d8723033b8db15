#include "elt/serialize.h"

#include <map>
#include <sstream>

#include "util/strings.h"

namespace transform::elt {

namespace {

const char*
kind_tag(EventKind k)
{
    switch (k) {
    case EventKind::kRead: return "read";
    case EventKind::kWrite: return "write";
    case EventKind::kMfence: return "mfence";
    case EventKind::kWpte: return "wpte";
    case EventKind::kInvlpg: return "invlpg";
    case EventKind::kInvlpgAll: return "invlpgall";
    case EventKind::kRptw: return "rptw";
    case EventKind::kWdb: return "wdb";
    case EventKind::kRdb: return "rdb";
    }
    return "?";
}

std::optional<EventKind>
kind_from_tag(const std::string& tag)
{
    static const std::map<std::string, EventKind> kMap = {
        {"read", EventKind::kRead},     {"write", EventKind::kWrite},
        {"mfence", EventKind::kMfence}, {"wpte", EventKind::kWpte},
        {"invlpg", EventKind::kInvlpg}, {"rptw", EventKind::kRptw},
        {"invlpgall", EventKind::kInvlpgAll},
        {"wdb", EventKind::kWdb},       {"rdb", EventKind::kRdb},
    };
    const auto it = kMap.find(tag);
    if (it == kMap.end()) {
        return std::nullopt;
    }
    return it->second;
}

/// One parsed XML element: tag name plus attribute map. The subset we emit
/// is flat (self-closing elements inside a root), so a token scanner is all
/// the parser needs.
struct XmlElement {
    std::string tag;
    bool closing = false;
    std::map<std::string, std::string> attributes;
};

/// Scans the next element starting at text[pos] (expects '<'); advances pos
/// past the element. Returns std::nullopt at end of input or on error.
std::optional<XmlElement>
next_element(const std::string& text, std::size_t* pos)
{
    std::size_t i = text.find('<', *pos);
    if (i == std::string::npos) {
        return std::nullopt;
    }
    const std::size_t end = text.find('>', i);
    if (end == std::string::npos) {
        return std::nullopt;
    }
    std::string body = text.substr(i + 1, end - i - 1);
    *pos = end + 1;
    XmlElement element;
    if (!body.empty() && body.front() == '/') {
        element.closing = true;
        body = body.substr(1);
    }
    if (!body.empty() && body.back() == '/') {
        body.pop_back();
    }
    std::istringstream in(body);
    in >> element.tag;
    std::string token;
    // Attributes have the shape key="value" with no spaces inside values
    // (all our values are integers or identifiers).
    while (in >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos) {
            continue;
        }
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
            value = value.substr(1, value.size() - 2);
        }
        element.attributes[key] = value;
    }
    return element;
}

int
attr_int(const XmlElement& element, const std::string& key, int fallback)
{
    const auto it = element.attributes.find(key);
    if (it == element.attributes.end()) {
        return fallback;
    }
    try {
        return std::stoi(it->second);
    } catch (...) {
        return fallback;
    }
}

}  // namespace

std::string
program_to_xml(const Program& p, const std::string& name)
{
    std::ostringstream out;
    out << "<elt name=\"" << util::xml_escape(name) << "\" threads=\""
        << p.num_threads() << "\">\n";
    for (EventId id = 0; id < p.num_events(); ++id) {
        const Event& e = p.event(id);
        out << "  <" << kind_tag(e.kind) << " id=\"" << id << "\" thread=\""
            << e.thread << "\"";
        if (e.va != kNone) {
            out << " va=\"" << e.va << "\"";
        }
        if (e.map_pa != kNone) {
            out << " pa=\"" << e.map_pa << "\"";
        }
        if (e.parent != kNone) {
            out << " parent=\"" << e.parent << "\"";
        }
        if (e.remap_src != kNone) {
            out << " remap=\"" << e.remap_src << "\"";
        }
        out << "/>\n";
    }
    for (const auto& [r, w] : p.rmw_pairs()) {
        out << "  <rmw read=\"" << r << "\" write=\"" << w << "\"/>\n";
    }
    return out.str() + "</elt>\n";
}

std::string
execution_to_xml(const Execution& exec, const std::string& name)
{
    std::string xml = program_to_xml(exec.program, name);
    // Splice the witness section before the closing tag.
    const std::size_t closing = xml.rfind("</elt>");
    std::ostringstream witness;
    witness << "  <witness>\n";
    for (EventId id = 0; id < exec.program.num_events(); ++id) {
        if (exec.rf_src[id] != kNone) {
            witness << "    <rf read=\"" << id << "\" write=\""
                    << exec.rf_src[id] << "\"/>\n";
        }
        if (exec.co_pos[id] != kNone) {
            witness << "    <co event=\"" << id << "\" pos=\""
                    << exec.co_pos[id] << "\"/>\n";
        }
        if (exec.ptw_src[id] != kNone) {
            witness << "    <ptw event=\"" << id << "\" walk=\""
                    << exec.ptw_src[id] << "\"/>\n";
        }
        if (exec.co_pa_pos[id] != kNone) {
            witness << "    <copa event=\"" << id << "\" pos=\""
                    << exec.co_pa_pos[id] << "\"/>\n";
        }
    }
    witness << "  </witness>\n";
    return xml.substr(0, closing) + witness.str() + xml.substr(closing);
}

std::optional<Execution>
execution_from_xml(const std::string& xml)
{
    std::size_t pos = 0;
    auto root = next_element(xml, &pos);
    if (!root || root->tag != "elt") {
        return std::nullopt;
    }
    // The tools bound a program at 64 events, so more threads than that
    // cannot all hold one; a larger (or negative) count is bad input, not
    // an allocation request.
    const int threads = attr_int(*root, "threads", 0);
    if (threads < 0 || threads > 64) {
        return std::nullopt;
    }

    Program program;
    for (int t = 0; t < threads; ++t) {
        program.add_thread();
    }
    struct Witness {
        int read = kNone, write = kNone, event = kNone, pos = kNone,
            walk = kNone;
        std::string tag;
    };
    std::vector<Witness> witnesses;
    std::vector<std::pair<int, int>> rmws;

    while (true) {
        auto element = next_element(xml, &pos);
        if (!element) {
            return std::nullopt;  // missing </elt>
        }
        if (element->closing && element->tag == "elt") {
            break;
        }
        if (element->closing) {
            continue;  // </witness>
        }
        if (element->tag == "witness") {
            continue;
        }
        if (element->tag == "rmw") {
            rmws.emplace_back(attr_int(*element, "read", kNone),
                              attr_int(*element, "write", kNone));
            continue;
        }
        if (element->tag == "rf" || element->tag == "co" ||
            element->tag == "ptw" || element->tag == "copa") {
            Witness w;
            w.tag = element->tag;
            w.read = attr_int(*element, "read", kNone);
            w.write = attr_int(*element, "write", kNone);
            w.event = attr_int(*element, "event", kNone);
            w.pos = attr_int(*element, "pos", kNone);
            w.walk = attr_int(*element, "walk", kNone);
            witnesses.push_back(w);
            continue;
        }
        const auto kind = kind_from_tag(element->tag);
        if (!kind) {
            return std::nullopt;
        }
        Event e;
        e.kind = *kind;
        e.thread = attr_int(*element, "thread", 0);
        e.va = attr_int(*element, "va", kNone);
        e.map_pa = attr_int(*element, "pa", kNone);
        e.parent = attr_int(*element, "parent", kNone);
        e.remap_src = attr_int(*element, "remap", kNone);
        if (e.thread < 0 || e.thread >= threads || e.va < kNone ||
            e.va >= 64 || e.map_pa < kNone || e.map_pa >= 64 ||
            e.remap_src < kNone) {
            return std::nullopt;  // ids and addresses are kNone or small
        }
        if (is_ghost(e.kind) &&
            (e.parent < 0 || e.parent >= program.num_events())) {
            return std::nullopt;  // a ghost's parent must precede it
        }
        // Events must appear in id order for indices to line up.
        const EventId id = is_ghost(e.kind) ? program.add_ghost(e)
                                            : program.add_event(e);
        if (id != attr_int(*element, "id", id)) {
            return std::nullopt;
        }
    }
    for (const auto& [r, w] : rmws) {
        if (r < 0 || r >= program.num_events() || w < 0 ||
            w >= program.num_events()) {
            return std::nullopt;
        }
        program.add_rmw(r, w);
    }

    for (EventId id = 0; id < program.num_events(); ++id) {
        if (program.event(id).remap_src >= program.num_events()) {
            return std::nullopt;
        }
    }

    Execution exec = Execution::empty_for(std::move(program));
    const int n = exec.program.num_events();
    // Witness values index events (rf writers, walks) or order them (co
    // positions): anything outside [kNone, n) is bad input, which derive
    // would otherwise use as an index.
    const auto in_range = [n](int value) { return value >= kNone && value < n; };
    for (const Witness& w : witnesses) {
        if (!in_range(w.write) || !in_range(w.walk) || !in_range(w.pos)) {
            return std::nullopt;
        }
    }
    for (const Witness& w : witnesses) {
        if (w.tag == "rf" && w.read >= 0 && w.read < n) {
            exec.rf_src[w.read] = w.write;
        } else if (w.tag == "co" && w.event >= 0 && w.event < n) {
            exec.co_pos[w.event] = w.pos;
        } else if (w.tag == "ptw" && w.event >= 0 && w.event < n) {
            exec.ptw_src[w.event] = w.walk;
        } else if (w.tag == "copa" && w.event >= 0 && w.event < n) {
            exec.co_pa_pos[w.event] = w.pos;
        }
    }
    return exec;
}

}  // namespace transform::elt
