#include "netlist/writers.hpp"

#include <ostream>
#include <sstream>

#include "mlogic/factor.hpp"

namespace sitm {

namespace {

std::vector<std::string> signal_names(const Netlist& netlist) {
  std::vector<std::string> names;
  for (const auto& sig : netlist.sg().signals()) names.push_back(sig.name);
  return names;
}

/// Verilog expression of a cover (factored; '~' for negation, '&', '|').
std::string verilog_expr(const Cover& cover,
                         const std::vector<std::string>& names) {
  return quick_factor(cover)->to_string(names, kVerilogSyntax);
}

}  // namespace

void write_verilog(std::ostream& out, const Netlist& netlist,
                   const std::string& module_name) {
  const auto& sg = netlist.sg();
  const auto names = signal_names(netlist);

  out << "// Generated by sitm: standard-C architecture netlist.\n";
  out << "// Set/reset networks drive generalized C elements (sitm_gc).\n";
  out << "module " << module_name << " (\n";
  // Only the specification interface is a port; internal signals (inserted
  // csc*/decomposition latches) are wires of the module body.
  bool first = true;
  for (const auto& sig : sg.signals()) {
    if (sig.kind == SignalKind::kInternal) continue;
    out << (first ? "  " : ",\n  ")
        << (sig.kind == SignalKind::kInput ? "input  wire " : "output wire ")
        << sig.name;
    first = false;
  }
  out << "\n);\n\n";
  for (const auto& sig : sg.signals())
    if (sig.kind == SignalKind::kInternal)
      out << "  wire " << sig.name << ";\n";

  const StateId init = sg.initial();
  for (const auto& impl : netlist.impls()) {
    const auto& name = names[static_cast<std::size_t>(impl.signal)];
    if (impl.combinational) {
      out << "  assign " << name << " = " << verilog_expr(impl.set, names)
          << ";\n";
    } else {
      // Power-on value of this C element, from the SG's initial code (which
      // matches the specification's inferred initial code): inserted state
      // latches legitimately start at 1.
      const bool initial =
          init != kNoState && sg.value(init, impl.signal);
      out << "  wire " << name << "_set = " << verilog_expr(impl.set, names)
          << ";\n";
      out << "  wire " << name << "_reset = "
          << verilog_expr(impl.reset, names) << ";\n";
      out << "  sitm_gc #(.INIT(1'b" << (initial ? '1' : '0') << ")) gc_"
          << name << " (.set(" << name << "_set), .reset(" << name
          << "_reset), .out(" << name << "));\n";
    }
  }
  out << "endmodule\n\n";

  out << "// Generalized C element: out = C(set, ~reset).\n";
  out << "module sitm_gc #(parameter INIT = 1'b0) (input wire set, "
         "input wire reset, output reg out = INIT);\n";
  out << "  always @(*) begin\n";
  out << "    if (set & ~reset) out = 1'b1;\n";
  out << "    else if (reset & ~set) out = 1'b0;\n";
  out << "  end\n";
  out << "endmodule\n";
}

std::string write_verilog_string(const Netlist& netlist,
                                 const std::string& module_name) {
  std::ostringstream out;
  write_verilog(out, netlist, module_name);
  return out.str();
}

void write_eqn(std::ostream& out, const Netlist& netlist,
               const std::string& model_name) {
  const auto& sg = netlist.sg();
  const auto names = signal_names(netlist);
  out << "# " << model_name << " (standard-C architecture)\n";
  out << "INORDER =";
  for (int sig : sg.input_signals()) out << ' ' << names[static_cast<std::size_t>(sig)];
  out << ";\nOUTORDER =";
  for (int sig : sg.noninput_signals())
    out << ' ' << names[static_cast<std::size_t>(sig)];
  out << ";\n";
  for (const auto& impl : netlist.impls()) {
    const auto& name = names[static_cast<std::size_t>(impl.signal)];
    if (impl.combinational) {
      out << name << " = " << quick_factor(impl.set)->to_string(names)
          << ";\n";
    } else {
      out << name << "_set = " << quick_factor(impl.set)->to_string(names)
          << ";\n";
      out << name << "_reset = " << quick_factor(impl.reset)->to_string(names)
          << ";\n";
      out << name << " = C(" << name << "_set, " << name << "_reset);\n";
    }
  }
}

std::string write_eqn_string(const Netlist& netlist,
                             const std::string& model_name) {
  std::ostringstream out;
  write_eqn(out, netlist, model_name);
  return out.str();
}

}  // namespace sitm
