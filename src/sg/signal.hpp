#pragma once
// Signals and events of asynchronous circuit specifications.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sitm {

/// State code: bit i holds the current value of signal i.  Limits a
/// specification to 64 signals, far above the benchmark sizes (< 32).
using StateCode = std::uint64_t;

/// Role of a signal in the specification.
enum class SignalKind : std::uint8_t {
  kInput,     ///< driven by the environment
  kOutput,    ///< driven by the circuit, observable
  kInternal,  ///< driven by the circuit, invisible to the environment
              ///< (e.g. decomposition signals inserted by the mapper)
};

/// True for signals the circuit must implement (outputs and internals).
inline bool is_noninput(SignalKind k) { return k != SignalKind::kInput; }

/// A signal transition: rising (a+) or falling (a-) edge of a signal.
struct Event {
  int signal = -1;
  bool rising = true;

  bool operator==(const Event&) const = default;
  /// Total order so events can key ordered maps.
  bool operator<(const Event& o) const {
    return signal != o.signal ? signal < o.signal
                              : (rising ? 1 : 0) < (o.rising ? 1 : 0);
  }
};

/// Event with the opposite polarity of `e`.
inline Event opposite(Event e) { return Event{e.signal, !e.rising}; }

/// Signal descriptor.
struct Signal {
  std::string name;
  SignalKind kind = SignalKind::kOutput;
};

/// Index of the signal named `name` in `signals`, or -1.
inline int find_signal(const std::vector<Signal>& signals,
                       std::string_view name) {
  for (std::size_t i = 0; i < signals.size(); ++i)
    if (signals[i].name == name) return static_cast<int>(i);
  return -1;
}

/// "a+" / "a-" rendering given a signal name.
inline std::string event_name(const std::string& sig, bool rising) {
  return sig + (rising ? "+" : "-");
}

}  // namespace sitm
