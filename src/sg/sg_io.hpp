#pragma once
// Text format for State Graphs.
//
//   .model <name>
//   .inputs  a b ...
//   .outputs c d ...
//   .internal x ...          (optional)
//   .graph
//   <state> <event> <state>  e.g.  s0 a+ s1
//   ...
//   .initial <state> <code>  code is a 0/1 string in declaration order
//   .end
//
// Lines starting with '#' are comments.  State names are arbitrary tokens;
// codes of non-initial states are derived by propagating the initial code
// along arcs (one bit flip per arc), which `read_sg` verifies.

#include <iosfwd>
#include <string>

#include "sg/state_graph.hpp"

namespace sitm {

/// Parse the .sg format; throws sitm::Error on malformed input or
/// inconsistent codes.  `name` (if non-null) receives the .model name.
StateGraph read_sg(std::istream& in, std::string* name = nullptr);
StateGraph read_sg_string(const std::string& text, std::string* name = nullptr);

/// Serialize in the same format (states named s<id>).
void write_sg(std::ostream& out, const StateGraph& sg,
              const std::string& name = "sg");
std::string write_sg_string(const StateGraph& sg,
                            const std::string& name = "sg");

/// Parse an event token like "a+" or "req-"; throws on unknown signal.
Event parse_event(const std::vector<Signal>& signals, std::string_view token);

}  // namespace sitm
