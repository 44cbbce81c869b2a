#include "vm/trace_io.hpp"

#include <cstdio>

namespace mpass::vm {

namespace {
std::string format_event(const Event& e) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%-14s digest=%016llx%s",
                std::string(api_name(e.api)).c_str(),
                static_cast<unsigned long long>(e.digest),
                is_hard_malicious(e.api) ? " [malicious]"
                : is_sensitive(e.api)   ? " [sensitive]"
                                        : "");
  return buf;
}
}  // namespace

std::string format_trace(const Trace& trace) {
  std::string out;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    char head[24];  // a 20-digit %zu plus two spaces and the NUL
    std::snprintf(head, sizeof(head), "%3zu  ", i);
    out += head;
    out += format_event(trace[i]);
    out += '\n';
  }
  return out;
}

std::string diff_traces(const Trace& before, const Trace& after) {
  std::string out;
  const std::size_t n = std::min(before.size(), after.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (before[i] == after[i]) continue;
    char head[64];
    std::snprintf(head, sizeof(head), "first divergence at event %zu:\n", i);
    out += head;
    out += "  - " + format_event(before[i]) + '\n';
    out += "  + " + format_event(after[i]) + '\n';
    return out;
  }
  if (before.size() != after.size()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "length mismatch: %zu events before, %zu after\n",
                  before.size(), after.size());
    out += buf;
    const Trace& longer = before.size() > after.size() ? before : after;
    out += (before.size() > after.size() ? "  - " : "  + ") +
           format_event(longer[n]) + '\n';
  }
  return out;
}

std::string summarize_trace(const Trace& trace) {
  std::size_t sensitive = 0, malicious = 0;
  for (const Event& e : trace) {
    if (is_sensitive(e.api)) ++sensitive;
    if (is_hard_malicious(e.api)) ++malicious;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%zu events, %zu sensitive, %zu malicious",
                trace.size(), sensitive, malicious);
  return buf;
}

}  // namespace mpass::vm
