#include "mor/model_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <istream>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/check.h"
#include "util/hash.h"

namespace varmor::mor {

namespace {

void write_matrix(std::ostream& os, const std::string& tag, const la::Matrix& m) {
    os << tag << "\n";
    for (double v : m.raw()) os << v << ' ';
    os << "\n";
}

/// Cursor over a whole serialized model held in one buffer. Tokens are
/// whitespace-delimited; numbers are parsed in place with std::from_chars
/// and must span their whole token.
class Reader {
public:
    explicit Reader(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

    /// Next token, empty at the end of the input.
    std::string_view token() {
        skip_space();
        const char* start = p_;
        while (p_ != end_ && !is_space(*p_)) ++p_;
        return {start, static_cast<std::size_t>(p_ - start)};
    }

    /// Parses the next token as one number (`base` applies to integers).
    /// False at the end of the input, for a token that is not exactly one
    /// number, for an out-of-range value, and for a non-finite double
    /// (from_chars accepts "nan"/"inf"; the format never holds them).
    template <class T>
    bool number(T& out, int base = 10) {
        skip_space();
        std::from_chars_result r{};
        if constexpr (std::is_floating_point_v<T>)
            r = std::from_chars(p_, end_, out);
        else
            r = std::from_chars(p_, end_, out, base);
        if (r.ec != std::errc{} || (r.ptr != end_ && !is_space(*r.ptr))) return false;
        p_ = r.ptr;
        if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
        return true;
    }

    /// Bytes not consumed yet.
    std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

private:
    static bool is_space(char c) {
        return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
    }
    void skip_space() {
        while (p_ != end_ && is_space(*p_)) ++p_;
    }

    const char* p_;
    const char* end_;
};

la::Matrix read_matrix(Reader& in, const std::string& expected_tag, int rows, int cols) {
    const std::string_view tag = in.token();
    check(!tag.empty(), "read_model: truncated before " + expected_tag);
    check(tag == expected_tag, "read_model: expected section '" + expected_tag + "', got '" +
                                   std::string(tag) + "'");
    la::Matrix m(rows, cols);
    for (double& v : m.raw())
        if (!in.number(v))
            throw Error("read_model: truncated or malformed number inside " + expected_tag);
    return m;
}

/// The whole stream, read in large chunks.
std::string read_all(std::istream& is) {
    std::string text;
    char chunk[1 << 16];
    while (is.read(chunk, sizeof chunk) || is.gcount() > 0)
        text.append(chunk, static_cast<std::size_t>(is.gcount()));
    return text;
}

}  // namespace

std::uint64_t model_content_hash(const ReducedModel& model) {
    util::Fnv1a64 h;
    h.str("varmor-rom-content");
    h.i32(model.size()).i32(model.num_ports()).i32(model.num_params());
    h.f64_span(model.g0.raw()).f64_span(model.c0.raw());
    h.f64_span(model.b.raw()).f64_span(model.l.raw());
    for (int i = 0; i < model.num_params(); ++i) {
        h.f64_span(model.dg[static_cast<std::size_t>(i)].raw());
        h.f64_span(model.dc[static_cast<std::size_t>(i)].raw());
    }
    return h.digest();
}

void write_model(const ReducedModel& model, std::ostream& os, const ModelMeta* meta) {
    check(model.size() >= 1, "write_model: empty model");
    os.precision(17);
    os << "varmor-rom 2\n";
    {
        // The meta line always carries the RECOMPUTED content hash — a
        // caller-supplied stale hash must never be persisted as truth.
        const std::uint64_t hash = model_content_hash(model);
        const std::string key =
            (meta && !meta->cache_key.empty()) ? meta->cache_key : "-";
        // The format is whitespace-delimited; a key containing whitespace
        // would write a file that every later read_model rejects.
        check(key.find_first_of(" \t\n\r") == std::string::npos,
              "write_model: cache key must not contain whitespace");
        os << "meta key " << key << " content " << std::hex << hash << std::dec
           << "\n";
    }
    os << "size " << model.size() << " ports " << model.num_ports() << " params "
       << model.num_params() << "\n";
    write_matrix(os, "G0", model.g0);
    write_matrix(os, "C0", model.c0);
    write_matrix(os, "B", model.b);
    write_matrix(os, "L", model.l);
    for (int i = 0; i < model.num_params(); ++i) {
        write_matrix(os, "dG" + std::to_string(i), model.dg[static_cast<std::size_t>(i)]);
        write_matrix(os, "dC" + std::to_string(i), model.dc[static_cast<std::size_t>(i)]);
    }
}

void write_model_file(const ReducedModel& model, const std::string& path,
                      const ModelMeta* meta) {
    std::ofstream f(path);
    check(f.good(), "write_model_file: cannot open " + path);
    write_model(model, f, meta);
    f.flush();
    // A torn write (disk full, quota) must be an error, not a file that
    // silently fails its content-hash check on every later load.
    check(f.good(), "write_model_file: write failed for " + path);
}

ReducedModel read_model(std::istream& is, ModelMeta* meta) {
    const std::string text = read_all(is);
    Reader in(text);
    const std::string_view magic = in.token();
    int version = 0;
    check(!magic.empty() && in.number(version), "read_model: missing header");
    check(magic == "varmor-rom", "read_model: bad magic '" + std::string(magic) + "'");
    check(version == 1 || version == 2,
          "read_model: unsupported version " + std::to_string(version));

    ModelMeta parsed;
    if (version == 2) {
        const std::string_view k0 = in.token(), k1 = in.token(), key = in.token(),
                               k2 = in.token();
        check(k0 == "meta" && k1 == "key" && !key.empty() && k2 == "content",
              "read_model: malformed meta line");
        check(in.number(parsed.content_hash, 16), "read_model: malformed meta content hash");
        if (key != "-") parsed.cache_key = std::string(key);
    }
    if (meta) *meta = parsed;

    int q = 0, m = 0, np = 0;
    const auto field = [&in](std::string_view name, int& value) {
        return in.token() == name && in.number(value);
    };
    check(field("size", q) && field("ports", m) && field("params", np),
          "read_model: malformed dimension line");
    check(q >= 1 && m >= 1 && np >= 0, "read_model: invalid dimensions");
    // Nothing is allocated for a header the bytes cannot back: every number
    // takes at least two bytes (a separator and a digit).
    const double numbers = 2.0 * q * q * (1.0 + np) + 2.0 * q * m;
    check(2.0 * numbers <= static_cast<double>(in.remaining()),
          "read_model: dimensions exceed the data present (truncated file?)");

    ReducedModel model;
    model.g0 = read_matrix(in, "G0", q, q);
    model.c0 = read_matrix(in, "C0", q, q);
    model.b = read_matrix(in, "B", q, m);
    model.l = read_matrix(in, "L", q, m);
    for (int i = 0; i < np; ++i) {
        model.dg.push_back(read_matrix(in, "dG" + std::to_string(i), q, q));
        model.dc.push_back(read_matrix(in, "dC" + std::to_string(i), q, q));
    }
    return model;
}

ReducedModel read_model_file(const std::string& path, ModelMeta* meta) {
    std::ifstream f(path);
    check(f.good(), "read_model_file: cannot open " + path);
    return read_model(f, meta);
}

}  // namespace varmor::mor
