#include "circuit/netlist_io.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

namespace varmor::circuit {

namespace {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

[[noreturn]] void fail(int line, const std::string& what) {
    throw Error("netlist parse error at line " + std::to_string(line) + ": " + what);
}

double parse_number(const std::string& tok, int line) {
    double v = 0.0;
    try {
        std::size_t consumed = 0;
        v = std::stod(tok, &consumed);
        if (consumed != tok.size()) fail(line, "trailing characters in number '" + tok + "'");
    } catch (const std::exception&) {
        fail(line, "expected a number, got '" + tok + "'");
    }
    if (!std::isfinite(v)) fail(line, "expected a finite number, got '" + tok + "'");
    return v;
}

/// A count: digits only (no sign, fraction or exponent), within int range.
int parse_count(const std::string& tok, int line) {
    if (tok.empty() || tok.find_first_not_of("0123456789") != std::string::npos)
        fail(line, "expected a non-negative integer count, got '" + tok + "'");
    try {
        return std::stoi(tok);
    } catch (const std::exception&) {
        fail(line, "count '" + tok + "' is out of range");
    }
}

std::vector<double> parse_sens(const std::string& spec, int num_params, int line) {
    std::vector<double> out;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) out.push_back(parse_number(item, line));
    if (static_cast<int>(out.size()) != num_params)
        fail(line, "sens= lists " + std::to_string(out.size()) + " values but .params declared " +
                       std::to_string(num_params));
    return out;
}

}  // namespace

void write_netlist(const Netlist& netlist, std::ostream& os) {
    // Full round-trip precision: element values span ~1e-15 F to ~1e3 Ohm.
    os.precision(17);
    os << "* varmor netlist: " << netlist.num_nodes() << " nodes, "
       << netlist.elements().size() << " elements\n";
    os << ".params " << netlist.num_params() << "\n";
    auto node_name = [](int n) { return n == 0 ? std::string("0") : "v" + std::to_string(n); };
    int counter = 0;
    for (const Element& e : netlist.elements()) {
        ++counter;
        char prefix = 'R';
        double value = e.value;
        switch (e.kind) {
            case ElementKind::resistor:
                prefix = 'R';
                value = 1.0 / e.value;  // stored as conductance, printed as resistance
                break;
            case ElementKind::capacitor: prefix = 'C'; break;
            case ElementKind::inductor: prefix = 'L'; break;
        }
        os << prefix << counter << ' ' << node_name(e.node_a) << ' ' << node_name(e.node_b)
           << ' ' << value;
        const bool any_sens =
            std::any_of(e.dvalue.begin(), e.dvalue.end(), [](double d) { return d != 0.0; });
        if (any_sens) {
            os << " sens=";
            for (std::size_t i = 0; i < e.dvalue.size(); ++i)
                os << (i ? "," : "") << e.dvalue[i];
        }
        os << "\n";
    }
    for (int port : netlist.ports()) os << ".port " << node_name(port) << "\n";
    os << ".end\n";
}

void write_netlist_file(const Netlist& netlist, const std::string& path) {
    std::ofstream f(path);
    check(f.good(), "write_netlist_file: cannot open " + path);
    write_netlist(netlist, f);
}

Netlist parse_netlist(std::istream& is) {
    int num_params = 0;
    bool params_seen = false;
    bool ended = false;
    std::map<std::string, int> node_ids{{"0", 0}, {"gnd", 0}};
    std::vector<std::pair<char, std::vector<std::string>>> element_lines;

    Netlist net(0);
    std::vector<std::string> port_names;

    std::string raw;
    int line_no = 0;
    // First pass collects everything so .params can be honoured regardless
    // of where elements appear; node ids are assigned in appearance order.
    struct PendingElement {
        char kind;
        std::string a, b;
        double value;
        std::string sens;  // may be empty
        int line;
    };
    std::vector<PendingElement> pending;

    while (std::getline(is, raw)) {
        ++line_no;
        // Strip comments (leading '*' or trailing '; ...').
        std::string text = raw;
        const std::size_t semi = text.find(';');
        if (semi != std::string::npos) text = text.substr(0, semi);
        std::stringstream ss(text);
        std::string tok;
        if (!(ss >> tok)) continue;  // blank
        if (tok[0] == '*') continue; // comment
        if (ended) fail(line_no, "content after .end");

        const std::string t = lower(tok);
        if (t == ".params") {
            std::string count;
            if (!(ss >> count)) fail(line_no, ".params needs a count");
            num_params = parse_count(count, line_no);
            params_seen = true;
            continue;
        }
        if (t == ".port") {
            std::string name;
            if (!(ss >> name)) fail(line_no, ".port needs a node name");
            port_names.push_back(lower(name));
            continue;
        }
        if (t == ".end") {
            ended = true;
            continue;
        }
        if (t[0] != 'r' && t[0] != 'c' && t[0] != 'l')
            fail(line_no, "unknown element or directive '" + tok + "'");

        PendingElement e;
        e.kind = t[0];
        e.line = line_no;
        std::string value_tok;
        if (!(ss >> e.a >> e.b >> value_tok))
            fail(line_no, "element needs two nodes and a value");
        e.value = parse_number(value_tok, line_no);
        std::string extra;
        if (ss >> extra) {
            const std::string le = lower(extra);
            if (le.rfind("sens=", 0) != 0)
                fail(line_no, "unexpected token '" + extra + "' (only sens=... allowed)");
            e.sens = le.substr(5);
            if (e.sens.empty()) fail(line_no, "empty sens= list");
        }
        e.a = lower(e.a);
        e.b = lower(e.b);
        pending.push_back(std::move(e));
    }
    if (!ended) fail(line_no, "missing .end");

    Netlist out(num_params);
    auto node_id = [&](const std::string& name) {
        auto it = node_ids.find(name);
        if (it != node_ids.end()) return it->second;
        const int id = out.add_node();
        node_ids.emplace(name, id);
        return id;
    };
    for (const PendingElement& e : pending) {
        const int a = node_id(e.a);
        const int b = node_id(e.b);
        std::vector<double> sens;
        if (!e.sens.empty()) {
            if (!params_seen) fail(e.line, "sens= used without a preceding .params");
            sens = parse_sens(e.sens, num_params, e.line);
        }
        try {
            switch (e.kind) {
                case 'r': out.add_resistor(a, b, e.value, std::move(sens)); break;
                case 'c': out.add_capacitor(a, b, e.value, std::move(sens)); break;
                case 'l': out.add_inductor(a, b, e.value, std::move(sens)); break;
                default: fail(e.line, "internal: bad kind");
            }
        } catch (const Error& err) {
            fail(e.line, err.what());
        }
    }
    for (const std::string& name : port_names) {
        auto it = node_ids.find(name);
        if (it == node_ids.end())
            throw Error("netlist parse error: .port names unknown node '" + name + "'");
        out.add_port(it->second);
    }
    return out;
}

Netlist parse_netlist_file(const std::string& path) {
    std::ifstream f(path);
    check(f.good(), "parse_netlist_file: cannot open " + path);
    return parse_netlist(f);
}

}  // namespace varmor::circuit
