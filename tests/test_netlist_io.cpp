#include <gtest/gtest.h>

#include <sstream>

#include "circuit/generators.h"
#include "circuit/mna.h"
#include "circuit/netlist_io.h"
#include "la/ops.h"
#include "test_helpers.h"

namespace varmor::circuit {
namespace {

Netlist parse_text(const std::string& text) {
    std::istringstream is(text);
    return parse_netlist(is);
}

TEST(NetlistIo, ParsesMinimalNet) {
    Netlist net = parse_text(R"(* tiny
.params 1
R1 in out 50.0 sens=0.004
C1 out 0 1e-15
.port in
.end
)");
    EXPECT_EQ(net.num_nodes(), 2);
    EXPECT_EQ(net.num_params(), 1);
    EXPECT_EQ(net.num_ports(), 1);
    ASSERT_EQ(net.elements().size(), 2u);
    EXPECT_DOUBLE_EQ(net.elements()[0].value, 1.0 / 50.0);
    EXPECT_DOUBLE_EQ(net.elements()[0].dvalue[0], 0.004);
}

TEST(NetlistIo, GndAliasAndCaseInsensitive) {
    Netlist net = parse_text(R"(.PARAMS 0
r1 A GND 10
c1 a 0 1e-15
.PORT a
.END
)");
    EXPECT_EQ(net.num_nodes(), 1);  // 'A' and 'a' are the same node
    EXPECT_EQ(net.elements()[0].node_b, 0);
}

TEST(NetlistIo, CommentsAndBlankLinesIgnored) {
    Netlist net = parse_text(R"(
* a comment

R1 x y 5 ; trailing comment
C1 y 0 1e-15
.port x
.end
)");
    EXPECT_EQ(net.elements().size(), 2u);
}

TEST(NetlistIo, ErrorsCarryLineNumbers) {
    try {
        parse_text("R1 a b 5\nF9 a b 1\n.end\n");
        FAIL() << "expected parse error";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
}

TEST(NetlistIo, MalformedInputsThrow) {
    EXPECT_THROW(parse_text("R1 a b\n.end\n"), Error);            // missing value
    EXPECT_THROW(parse_text("R1 a b five\n.end\n"), Error);       // bad number
    EXPECT_THROW(parse_text("R1 a b 5 junk\n.end\n"), Error);     // unknown token
    EXPECT_THROW(parse_text("R1 a b 5\n"), Error);                // no .end
    EXPECT_THROW(parse_text(".end\nR1 a b 5\n"), Error);          // content after .end
    EXPECT_THROW(parse_text("R1 a b 5 sens=1\n.end\n"), Error);   // sens without .params
    EXPECT_THROW(parse_text(".params 2\nR1 a b 5 sens=1\n.end\n"), Error);  // count mismatch
    EXPECT_THROW(parse_text("R1 a b -5\n.end\n"), Error);         // negative value
    EXPECT_THROW(parse_text(".port nowhere\nR1 a b 5\n.end\n"), Error);  // unknown port node
    EXPECT_THROW(parse_text(".params 1\nR1 a b 5 sens=nan\n.end\n"), Error);  // non-finite
    EXPECT_THROW(parse_text(".params 1\nR1 a b 5 sens=inf\n.end\n"), Error);  // sensitivity
    EXPECT_THROW(parse_text(".params 2.5\nR1 a b 5\n.end\n"), Error);       // non-integer count
    EXPECT_THROW(parse_text(".params nan\nR1 a b 5\n.end\n"), Error);
    EXPECT_THROW(parse_text(".params 1e300\nR1 a b 5\n.end\n"), Error);
}

TEST(NetlistIo, RoundTripPreservesMna) {
    RandomRcOptions opts;
    opts.unknowns = 60;
    Netlist original = random_rc_net(opts);
    std::ostringstream os;
    write_netlist(original, os);
    std::istringstream is(os.str());
    Netlist parsed = parse_netlist(is);

    ParametricSystem a = assemble_mna(original);
    ParametricSystem b = assemble_mna(parsed);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.num_params(), b.num_params());
    EXPECT_LE(la::norm_max(a.g0.to_dense() - b.g0.to_dense()),
              1e-12 * (1 + la::norm_max(a.g0.to_dense())));
    EXPECT_LE(la::norm_max(a.c0.to_dense() - b.c0.to_dense()),
              1e-24);
    for (int i = 0; i < a.num_params(); ++i)
        EXPECT_LE(la::norm_max(a.dg[static_cast<std::size_t>(i)].to_dense() -
                               b.dg[static_cast<std::size_t>(i)].to_dense()),
                  1e-12 * (1 + la::norm_max(a.dg[static_cast<std::size_t>(i)].to_dense())));
    varmor::testing::expect_near(a.b, b.b, 0.0);
}

TEST(NetlistIo, RoundTripRlcBus) {
    RlcBusOptions opts;
    opts.segments_per_line = 6;
    Netlist original = coupled_rlc_bus(opts);
    std::ostringstream os;
    write_netlist(original, os);
    std::istringstream is(os.str());
    Netlist parsed = parse_netlist(is);
    EXPECT_EQ(parsed.num_inductors(), original.num_inductors());
    EXPECT_EQ(parsed.mna_size(), original.mna_size());
    EXPECT_EQ(parsed.num_ports(), original.num_ports());
}

TEST(NetlistIo, FileRoundTrip) {
    RandomRcOptions opts;
    opts.unknowns = 20;
    Netlist original = random_rc_net(opts);
    const std::string path = ::testing::TempDir() + "/varmor_net.sp";
    write_netlist_file(original, path);
    Netlist parsed = parse_netlist_file(path);
    EXPECT_EQ(parsed.mna_size(), original.mna_size());
    EXPECT_THROW(parse_netlist_file("/nonexistent/net.sp"), Error);
}

}  // namespace
}  // namespace varmor::circuit
