#include "stg/canon.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "sg/state_graph.hpp"
#include "stg/load.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace sitm {

std::string SpecHash::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return std::string(buf, 32);
}

void StableHasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  constexpr std::uint64_t kPrime = 1099511628211ull;
  for (std::size_t i = 0; i < n; ++i) {
    hi_ = (hi_ ^ p[i]) * kPrime;
    lo_ = (lo_ ^ p[i] ^ 0xa5u) * kPrime;
  }
}

void StableHasher::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(b, 8);
}

namespace {

const char* kind_token(SignalKind kind) {
  switch (kind) {
    case SignalKind::kInput: return "in";
    case SignalKind::kOutput: return "out";
    case SignalKind::kInternal: return "int";
  }
  return "?";
}

/// Canonical transition label: "name+/-/instance" with the instance always
/// explicit, so "a+" and "a+/1" (the same transition) serialize alike.
std::string transition_label(const Stg& stg, TransId t) {
  const StgTransition& tr = stg.transition(t);
  return stg.signal(tr.signal).name + (tr.rising ? '+' : '-') + '/' +
         std::to_string(tr.instance);
}

}  // namespace

SpecHash canonical_spec_hash(const Stg& stg) {
  StableHasher h;
  h.tag('g');

  // Signals, sorted by name (names are unique within an Stg).
  std::vector<int> sig_order(static_cast<std::size_t>(stg.num_signals()));
  for (std::size_t i = 0; i < sig_order.size(); ++i)
    sig_order[i] = static_cast<int>(i);
  std::sort(sig_order.begin(), sig_order.end(), [&](int a, int b) {
    return stg.signal(a).name < stg.signal(b).name;
  });
  h.tag('S');
  for (int s : sig_order) {
    h.str(stg.signal(s).name);
    h.str(kind_token(stg.signal(s).kind));
  }

  // Transitions as a sorted multiset of canonical labels (covers
  // transitions declared without arcs too).
  std::vector<std::string> labels;
  labels.reserve(stg.num_transitions());
  for (std::size_t t = 0; t < stg.num_transitions(); ++t)
    labels.push_back(transition_label(stg, static_cast<TransId>(t)));
  std::vector<std::string> sorted_labels = labels;
  std::sort(sorted_labels.begin(), sorted_labels.end());
  h.tag('T');
  for (const auto& l : sorted_labels) h.str(l);

  // Initial-marking multiplicity per place (1-safe nets mark a place once,
  // but hash what the parse produced).
  std::vector<std::uint64_t> marked(stg.num_places(), 0);
  for (PlaceId p : stg.initial_marking()) ++marked[static_cast<std::size_t>(p)];

  // Places as a sorted multiset of structural descriptors: (sorted pre
  // labels | sorted post labels | marking).  Place names and declaration
  // order don't reach the hash — a place *is* its connectivity; the .g
  // shorthand "t1 t2" and a named place with the same arcs collide by
  // design.
  std::vector<std::string> place_desc;
  place_desc.reserve(stg.num_places());
  for (std::size_t p = 0; p < stg.num_places(); ++p) {
    const StgPlace& place = stg.place(static_cast<PlaceId>(p));
    std::vector<std::string> pre, post;
    for (TransId t : place.pre) pre.push_back(labels[static_cast<std::size_t>(t)]);
    for (TransId t : place.post)
      post.push_back(labels[static_cast<std::size_t>(t)]);
    std::sort(pre.begin(), pre.end());
    std::sort(post.begin(), post.end());
    std::string desc = "[";
    for (const auto& l : pre) desc += l + ' ';
    desc += '|';
    for (const auto& l : post) desc += l + ' ';
    desc += '|';
    desc += std::to_string(marked[p]);
    desc += ']';
    place_desc.push_back(std::move(desc));
  }
  std::sort(place_desc.begin(), place_desc.end());
  h.tag('P');
  for (const auto& d : place_desc) h.str(d);

  return h.digest();
}

SpecHash canonical_spec_hash(const StateGraph& sg) {
  StableHasher h;
  h.tag('s');

  // Signals sorted by name; canon[i] = canonical position of signal i.
  const int n = sg.num_signals();
  std::vector<int> sig_order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) sig_order[static_cast<std::size_t>(i)] = i;
  std::sort(sig_order.begin(), sig_order.end(), [&](int a, int b) {
    return sg.signal(a).name < sg.signal(b).name;
  });
  std::vector<int> canon(static_cast<std::size_t>(n));
  for (int pos = 0; pos < n; ++pos)
    canon[static_cast<std::size_t>(sig_order[static_cast<std::size_t>(pos)])] =
        pos;
  h.tag('S');
  for (int s : sig_order) {
    h.str(sg.signal(s).name);
    h.str(kind_token(sg.signal(s).kind));
  }

  if (sg.initial() == kNoState) {
    // Degenerate (no initial state): nothing reachable to hash.
    h.tag('0');
    return h.digest();
  }

  // BFS renumbering from the initial state.  Each state's edges are
  // ordered by the canonical event id (signal's sorted position, then
  // polarity); for a deterministic SG that order is unique.  The BFS id a
  // state gets is therefore independent of declaration order and names.
  const auto canon_event = [&](Event e) {
    return 2 * canon[static_cast<std::size_t>(e.signal)] + (e.rising ? 1 : 0);
  };
  // A state's arcs in canonical event order; equal events keep arc order.
  const auto canonical_edges = [&](StateId s) {
    const auto arcs = sg.succs(s);
    std::vector<StateGraph::Edge> edges(arcs.begin(), arcs.end());
    std::stable_sort(edges.begin(), edges.end(),
                     [&](const StateGraph::Edge& a, const StateGraph::Edge& b) {
                       return canon_event(a.event) < canon_event(b.event);
                     });
    return edges;
  };
  std::vector<StateId> bfs_id(sg.num_states(), kNoState);
  std::vector<StateId> order;
  order.reserve(sg.num_states());
  bfs_id[static_cast<std::size_t>(sg.initial())] = 0;
  order.push_back(sg.initial());
  for (std::size_t head = 0; head < order.size(); ++head) {
    const StateId s = order[head];
    const std::vector<StateGraph::Edge> edges = canonical_edges(s);
    for (const auto& e : edges) {
      if (bfs_id[static_cast<std::size_t>(e.target)] != kNoState) continue;
      bfs_id[static_cast<std::size_t>(e.target)] =
          static_cast<StateId>(order.size());
      order.push_back(e.target);
    }
  }

  // Per-state record in BFS order: permuted code, then the ordered edges as
  // (canonical event id, target BFS id).
  h.tag('Q');
  h.u64(order.size());
  for (const StateId s : order) {
    std::uint64_t code = 0;
    for (int sig = 0; sig < n; ++sig)
      if (sg.value(s, sig))
        code |= std::uint64_t{1} << canon[static_cast<std::size_t>(sig)];
    h.u64(code);
    const std::vector<StateGraph::Edge> edges = canonical_edges(s);
    h.u64(edges.size());
    for (const auto& e : edges) {
      h.u64(static_cast<std::uint64_t>(canon_event(e.event)));
      h.u64(static_cast<std::uint64_t>(
          bfs_id[static_cast<std::size_t>(e.target)]));
    }
  }
  return h.digest();
}

SpecHash canonical_spec_hash(const Spec& spec) {
  // The spec name (.model directive) is part of the key: it becomes the
  // module name of the emitted .sg / Verilog, so two specs differing only
  // in name produce different output bytes.  The path does NOT contribute
  // (same text under two filenames is the same spec).
  SpecHash structural;
  if (spec.stg)
    structural = canonical_spec_hash(*spec.stg);
  else if (spec.sg)
    structural = canonical_spec_hash(*spec.sg);
  else
    throw Error("canonical_spec_hash: spec holds neither an Stg nor an SG");
  StableHasher h;
  h.tag('N');
  h.str(spec.name);
  h.u64(structural.hi);
  h.u64(structural.lo);
  return h.digest();
}

}  // namespace sitm
