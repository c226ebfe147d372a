// Unit tests for the Verilog / EQN netlist writers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchlib/generators.hpp"
#include "core/csc.hpp"
#include "core/mapper.hpp"
#include "core/mc_cover.hpp"
#include "netlist/writers.hpp"
#include "stg/stg.hpp"

namespace sitm {
namespace {

/// INIT bits of every emitted sitm_gc instance, keyed by signal name.
std::vector<std::pair<std::string, bool>> gc_inits(const std::string& v) {
  std::vector<std::pair<std::string, bool>> out;
  const std::string marker = "sitm_gc #(.INIT(1'b";
  for (std::size_t at = v.find(marker); at != std::string::npos;
       at = v.find(marker, at + 1)) {
    const char bit = v[at + marker.size()];
    const std::string gc = ")) gc_";
    const std::size_t name_at = v.find(gc, at) + gc.size();
    out.emplace_back(v.substr(name_at, v.find(' ', name_at) - name_at),
                     bit == '1');
  }
  return out;
}

TEST(Writers, VerilogStructure) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const Netlist netlist = synthesize_all(sg);
  const std::string v = write_verilog_string(netlist, "hazard");

  EXPECT_NE(v.find("module hazard"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // Inputs and outputs declared.
  EXPECT_NE(v.find("input  wire a"), std::string::npos);
  EXPECT_NE(v.find("input  wire d"), std::string::npos);
  EXPECT_NE(v.find("output wire c"), std::string::npos);
  EXPECT_NE(v.find("output wire x"), std::string::npos);
  // Sequential signals instantiate the generalized C element with an
  // explicit per-instance power-on value.
  EXPECT_NE(v.find("sitm_gc #(.INIT(1'b0)) gc_c"), std::string::npos);
  EXPECT_NE(v.find("sitm_gc #(.INIT(1'b0)) gc_x"), std::string::npos);
  EXPECT_NE(v.find("module sitm_gc #(parameter INIT = 1'b0)"),
            std::string::npos);
}

TEST(Writers, VerilogInternalSignalsAreWiresNotPorts) {
  // Resolving CSC inserts an internal csc* latch; the emitted module must
  // keep the specification interface as its ports and declare the inserted
  // signal as a plain wire.
  const StateGraph sg = bench::make_csc_ring(2).to_state_graph();
  const CscResult csc = resolve_csc(sg);
  ASSERT_TRUE(csc.resolved) << csc.failure;
  ASSERT_GE(csc.signals_inserted, 1);
  const Netlist netlist = synthesize_all(*csc.sg);
  const std::string v = write_verilog_string(netlist, "ring");

  const std::size_t body = v.find(");");
  ASSERT_NE(body, std::string::npos);
  for (const auto& step : csc.steps) {
    // Not a port: the name must not occur in the port list at all, and the
    // body must declare it as an internal wire.
    EXPECT_EQ(v.substr(0, body).find(step.new_signal), std::string::npos)
        << step.new_signal << " leaked into the port list";
    EXPECT_EQ(v.find("output wire " + step.new_signal), std::string::npos);
    EXPECT_NE(v.find("  wire " + step.new_signal + ";"), std::string::npos);
  }
}

TEST(Writers, VerilogGcInitMatchesInitialCode) {
  // Round-trip: every emitted C element's INIT parameter must equal the
  // signal's value in the SG's initial state, where the specification's
  // signals keep the initial values of the unresolved graph.
  const Stg ring = bench::make_csc_ring(2);
  StateGraph sg = ring.to_state_graph();
  const CscResult csc = resolve_csc(sg);
  ASSERT_TRUE(csc.resolved) << csc.failure;
  const StateGraph& resolved = *csc.sg;
  EXPECT_EQ(resolved.code(resolved.initial()) &
                ((StateCode{1} << ring.num_signals()) - 1),
            sg.code(sg.initial()));

  const Netlist netlist = synthesize_all(resolved);
  const std::string v = write_verilog_string(netlist, "ring");
  const auto inits = gc_inits(v);
  EXPECT_FALSE(inits.empty());
  for (const auto& [name, init] : inits) {
    const int sig = resolved.find_signal(name);
    ASSERT_GE(sig, 0) << name;
    EXPECT_EQ(init, resolved.value(resolved.initial(), sig)) << name;
  }
}

TEST(Writers, VerilogGcInitOneIsEmitted) {
  // A Muller C element observed between c+ and c-: c = 1 in the initial
  // state, so its gc instance must power on at 1 instead of the historical
  // hard-coded 1'b0.
  StateGraphBuilder builder;
  const int a = builder.add_signal("a", SignalKind::kInput);
  const int b = builder.add_signal("b", SignalKind::kInput);
  const int c = builder.add_signal("c", SignalKind::kOutput);
  const StateId s000 = builder.add_state(0b000);
  const StateId s100 = builder.add_state(0b001);
  const StateId s010 = builder.add_state(0b010);
  const StateId s110 = builder.add_state(0b011);
  const StateId s111 = builder.add_state(0b111);
  const StateId s011 = builder.add_state(0b110);
  const StateId s101 = builder.add_state(0b101);
  const StateId s001 = builder.add_state(0b100);
  builder.add_arc(s000, Event{a, true}, s100);
  builder.add_arc(s000, Event{b, true}, s010);
  builder.add_arc(s100, Event{b, true}, s110);
  builder.add_arc(s010, Event{a, true}, s110);
  builder.add_arc(s110, Event{c, true}, s111);
  builder.add_arc(s111, Event{a, false}, s011);
  builder.add_arc(s111, Event{b, false}, s101);
  builder.add_arc(s011, Event{b, false}, s001);
  builder.add_arc(s101, Event{a, false}, s001);
  builder.add_arc(s001, Event{c, false}, s000);
  builder.set_initial(s111);
  const StateGraph sg = std::move(builder).freeze();

  const Netlist netlist = synthesize_all(sg);
  const std::string v = write_verilog_string(netlist, "celem");
  const auto inits = gc_inits(v);
  ASSERT_EQ(inits.size(), 1u);
  EXPECT_EQ(inits[0].first, "c");
  EXPECT_TRUE(inits[0].second);
  EXPECT_NE(v.find("sitm_gc #(.INIT(1'b1)) gc_c"), std::string::npos);
}

TEST(Writers, VerilogCombinationalUsesAssign) {
  // Pipeline stages are pure combinational covers -> assign statements.
  const StateGraph sg = bench::make_parallelizer(2).to_state_graph();
  const Netlist netlist = synthesize_all(sg);
  const std::string v = write_verilog_string(netlist);
  EXPECT_NE(v.find("assign g0 = r;"), std::string::npos);
  EXPECT_NE(v.find("assign g1 = r;"), std::string::npos);
}

TEST(Writers, EqnStructure) {
  const StateGraph sg = bench::make_hazard().to_state_graph();
  const Netlist netlist = synthesize_all(sg);
  const std::string eqn = write_eqn_string(netlist, "hazard");
  EXPECT_NE(eqn.find("INORDER = a d;"), std::string::npos);
  EXPECT_NE(eqn.find("OUTORDER = c x;"), std::string::npos);
  EXPECT_NE(eqn.find("c = C(c_set, c_reset);"), std::string::npos);
  EXPECT_NE(eqn.find("x_set = "), std::string::npos);
}

TEST(Writers, MappedNetlistIncludesInsertedSignals) {
  const StateGraph sg = bench::make_parallelizer(3).to_state_graph();
  MapperOptions opts;
  opts.library.max_literals = 2;
  const MapResult result = technology_map(sg, opts);
  ASSERT_TRUE(result.implementable);
  const Netlist netlist = result.build_netlist();
  const std::string v = write_verilog_string(netlist);
  for (const auto& step : result.steps)
    EXPECT_NE(v.find(step.new_signal), std::string::npos);
}

TEST(Writers, FactoredExpressionsStayEquivalent) {
  // The writer factors covers; spot-check an expression by re-evaluating the
  // cover vs its factored string structure indirectly through num literals.
  const StateGraph sg = bench::make_combo(2, 2).to_state_graph();
  const Netlist netlist = synthesize_all(sg);
  const std::string v = write_verilog_string(netlist);
  // No empty expressions emitted.
  EXPECT_EQ(v.find("= ;"), std::string::npos);
  EXPECT_EQ(v.find("= \n"), std::string::npos);
}

}  // namespace
}  // namespace sitm
