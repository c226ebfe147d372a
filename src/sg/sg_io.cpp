#include "sg/sg_io.hpp"

#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.hpp"
#include "util/text.hpp"

namespace sitm {

Event parse_event(const std::vector<Signal>& signals, std::string_view token) {
  if (token.size() < 2) throw Error("bad event token '" + std::string(token) + "'");
  const char polarity = token.back();
  if (polarity != '+' && polarity != '-')
    throw Error("event token must end in +/-: '" + std::string(token) + "'");
  const auto name = token.substr(0, token.size() - 1);
  const int sig = find_signal(signals, name);
  if (sig < 0) throw Error("unknown signal '" + std::string(name) + "'");
  return Event{sig, polarity == '+'};
}

StateGraph read_sg(std::istream& in, std::string* name) {
  StateGraphBuilder builder;
  std::map<std::string, StateId, std::less<>> ids;
  struct RawArc {
    std::string from, event, to;
    int line = 0;
    int event_col = 0;  ///< 1-based column of the event token
  };
  std::vector<RawArc> arcs;
  std::string initial_name, initial_code;
  bool in_graph = false;
  int line_no = 0, initial_line = 0;
  int initial_state_col = 0, initial_code_col = 0;

  auto state_id = [&](std::string_view token) -> StateId {
    auto it = ids.find(token);
    if (it != ids.end()) return it->second;
    const StateId id = builder.add_state(0);
    ids.emplace(std::string(token), id);
    return id;
  };

  std::string line;
  // 1-based column of a token that is a view into `line` — the same
  // location context the .g reader attaches to its errors.
  auto col_of = [&](std::string_view token) {
    return static_cast<int>(token.data() - line.data()) + 1;
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto text = trim(line);
    if (text.empty() || text[0] == '#') continue;
    const auto tokens = split_ws(text);
    const auto& head = tokens[0];
    if (head == ".model") {
      if (name && tokens.size() > 1) *name = std::string(tokens[1]);
    } else if (head == ".inputs" || head == ".outputs" || head == ".internal") {
      const SignalKind kind = head == ".inputs"    ? SignalKind::kInput
                              : head == ".outputs" ? SignalKind::kOutput
                                                   : SignalKind::kInternal;
      for (std::size_t i = 1; i < tokens.size(); ++i)
        builder.add_signal(std::string(tokens[i]), kind);
    } else if (head == ".graph") {
      in_graph = true;
    } else if (head == ".initial") {
      if (tokens.size() != 3)
        throw ParseError(".initial needs <state> <code>", line_no,
                         col_of(head));
      initial_name = std::string(tokens[1]);
      initial_code = std::string(tokens[2]);
      initial_line = line_no;
      initial_state_col = col_of(tokens[1]);
      initial_code_col = col_of(tokens[2]);
    } else if (head == ".end") {
      break;
    } else if (in_graph) {
      if (tokens.size() != 3)
        throw ParseError("graph line needs 3 tokens: " + line, line_no,
                         col_of(head));
      arcs.push_back(RawArc{std::string(tokens[0]), std::string(tokens[1]),
                            std::string(tokens[2]), line_no,
                            col_of(tokens[1])});
      state_id(tokens[0]);
      state_id(tokens[2]);
    } else {
      throw ParseError("unexpected line: " + line, line_no, col_of(head));
    }
  }

  if (initial_name.empty()) throw Error(".initial missing");
  if (static_cast<int>(initial_code.size()) != builder.num_signals())
    throw ParseError(".initial code length != number of signals",
                     initial_line, initial_code_col);

  for (const auto& arc : arcs) {
    try {
      builder.add_arc(ids.at(arc.from),
                      parse_event(builder.signals(), arc.event),
                      ids.at(arc.to));
    } catch (const ParseError&) {
      throw;
    } catch (const Error& e) {
      throw ParseError(e.what(), arc.line, arc.event_col);
    }
  }

  const auto init_it = ids.find(initial_name);
  if (init_it == ids.end())
    throw ParseError("unknown initial state " + initial_name, initial_line,
                     initial_state_col);
  builder.set_initial(init_it->second);
  const StateGraph sg = std::move(builder).freeze();

  // Propagate codes from the initial state; verify agreement on re-visit.
  StateCode init = 0;
  for (std::size_t i = 0; i < initial_code.size(); ++i) {
    if (initial_code[i] == '1')
      init |= StateCode{1} << i;
    else if (initial_code[i] != '0')
      throw ParseError("initial code must be 0/1 string", initial_line,
                       initial_code_col);
  }
  std::vector<int> known(sg.num_states(), 0);
  std::vector<StateCode> code(sg.num_states(), 0);
  code[sg.initial()] = init;
  known[sg.initial()] = 1;
  std::vector<StateId> stack{sg.initial()};
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const auto& e : sg.succs(s)) {
      const StateCode next = code[s] ^ (StateCode{1} << e.event.signal);
      if (((code[s] >> e.event.signal) & 1) == (e.event.rising ? 1u : 0u))
        throw Error("inconsistent event " + sg.event_string(e.event) +
                    " leaving state with the signal already at target value");
      if (!known[e.target]) {
        known[e.target] = 1;
        code[e.target] = next;
        stack.push_back(e.target);
      } else if (code[e.target] != next) {
        throw Error("inconsistent codes for a state reached by two paths");
      }
    }
  }
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    if (!known[s]) throw Error("state unreachable from initial state");

  // Rebuild with codes (a builder takes each state's code at add_state).
  StateGraphBuilder out;
  for (const auto& sig : sg.signals()) out.add_signal(sig.name, sig.kind);
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    out.add_state(code[s]);
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    for (const auto& e : sg.succs(s)) out.add_arc(s, e.event, e.target);
  out.set_initial(sg.initial());
  return std::move(out).freeze();
}

StateGraph read_sg_string(const std::string& text, std::string* name) {
  std::istringstream in(text);
  return read_sg(in, name);
}

void write_sg(std::ostream& out, const StateGraph& sg, const std::string& name) {
  out << ".model " << name << "\n";
  auto emit_kind = [&](const char* head, SignalKind kind) {
    bool any = false;
    for (const auto& sig : sg.signals())
      if (sig.kind == kind) {
        if (!any) out << head;
        any = true;
        out << ' ' << sig.name;
      }
    if (any) out << "\n";
  };
  emit_kind(".inputs", SignalKind::kInput);
  emit_kind(".outputs", SignalKind::kOutput);
  emit_kind(".internal", SignalKind::kInternal);
  out << ".graph\n";
  for (StateId s = 0; s < static_cast<StateId>(sg.num_states()); ++s)
    for (const auto& e : sg.succs(s))
      out << 's' << s << ' ' << sg.event_string(e.event) << " s" << e.target
          << "\n";
  out << ".initial s" << sg.initial() << ' ' << sg.code_string(sg.initial())
      << "\n.end\n";
}

std::string write_sg_string(const StateGraph& sg, const std::string& name) {
  std::ostringstream out;
  write_sg(out, sg, name);
  return out.str();
}

}  // namespace sitm
