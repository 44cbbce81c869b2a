#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <stdexcept>

#include "obs/json.hpp"

namespace mpass::obs {

namespace {

// Hard cap on registered metrics. descs is reserve()d to this at startup so
// push_back never reallocates: readers holding a MetricId can index the
// vector without locking while registration appends concurrently.
constexpr std::size_t kMaxMetrics = 1024;

struct Shard {
  // Guards the slot-array pointer swap on growth; the owning thread writes
  // slots without it, snapshot/growth serialize through it.
  mutable std::mutex mu;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
  std::size_t capacity = 0;

  // Owner-thread only. Existing slot values survive growth.
  void ensure(std::size_t need) {
    if (need <= capacity) return;
    std::size_t cap = std::max<std::size_t>(64, capacity * 2);
    while (cap < need) cap *= 2;
    auto grown = std::make_unique<std::atomic<std::uint64_t>[]>(cap);
    for (std::size_t i = 0; i < capacity; ++i)
      grown[i].store(slots[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    for (std::size_t i = capacity; i < cap; ++i)
      grown[i].store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu);
    slots = std::move(grown);
    capacity = cap;
  }
};

struct MetricDesc {
  enum Kind { kCounter, kGauge };
  std::string name;
  Kind kind = kCounter;
  std::size_t slot = 0;  // counter: its shard slot
  // Gauges are last-write-wins, not additive, so they live here (double
  // bits) rather than in the per-thread shards.
  std::unique_ptr<std::atomic<std::uint64_t>> gauge_bits;
};

double bits_to_double(std::uint64_t b) { return std::bit_cast<double>(b); }
std::uint64_t double_to_bits(double v) {
  return std::bit_cast<std::uint64_t>(v);
}

}  // namespace

struct Registry::Core {
  mutable std::mutex mu;  // registration, shard list, retired totals
  std::vector<MetricDesc> descs;
  std::map<std::string, MetricId, std::less<>> by_name;
  std::size_t slots_used = 0;
  std::vector<std::pair<std::string, std::function<double()>>> callbacks;
  std::vector<Shard*> shards;
  std::vector<std::uint64_t> retired;  // merged slots of exited threads

  Core() { descs.reserve(kMaxMetrics); }

  MetricId register_metric(std::string_view name, MetricDesc::Kind kind) {
    std::lock_guard<std::mutex> lk(mu);
    if (const auto it = by_name.find(name); it != by_name.end()) {
      if (descs[it->second].kind != kind)
        throw std::invalid_argument("obs: metric '" + std::string(name) +
                                    "' re-registered with a different type");
      return it->second;
    }
    if (descs.size() >= kMaxMetrics)
      throw std::length_error("obs: metric registry full");
    MetricDesc d;
    d.name = std::string(name);
    d.kind = kind;
    if (kind == MetricDesc::kGauge) {
      d.gauge_bits =
          std::make_unique<std::atomic<std::uint64_t>>(double_to_bits(0.0));
    } else {
      d.slot = slots_used++;
    }
    const auto id = static_cast<MetricId>(descs.size());
    descs.push_back(std::move(d));
    by_name.emplace(std::string(name), id);
    return id;
  }

  // Folds an exiting thread's shard into the retired totals.
  void retire(Shard* s) {
    std::lock_guard<std::mutex> lk(mu);
    const std::size_t n = std::min(s->capacity, slots_used);
    if (retired.size() < n) retired.resize(n, 0);
    for (std::size_t i = 0; i < n; ++i)
      retired[i] += s->slots[i].load(std::memory_order_relaxed);
    shards.erase(std::remove(shards.begin(), shards.end(), s), shards.end());
  }
};

namespace {

// Per-thread shard handle. Holds the core alive so threads that outlive the
// Registry singleton (static destruction order) still retire safely.
struct TlsRef {
  std::shared_ptr<Registry::Core> core;
  std::unique_ptr<Shard> shard;
  ~TlsRef() {
    if (core && shard) core->retire(shard.get());
  }
};
thread_local TlsRef tls_ref;

Shard& tls_shard(const std::shared_ptr<Registry::Core>& core) {
  TlsRef& t = tls_ref;
  if (!t.shard) {
    t.core = core;
    t.shard = std::make_unique<Shard>();
    std::lock_guard<std::mutex> lk(core->mu);
    core->shards.push_back(t.shard.get());
  }
  return *t.shard;
}

}  // namespace

Registry::Registry() : core_(std::make_shared<Core>()) {}

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

MetricId Registry::counter(std::string_view name) {
  return core_->register_metric(name, MetricDesc::kCounter);
}

MetricId Registry::gauge(std::string_view name) {
  return core_->register_metric(name, MetricDesc::kGauge);
}

void Registry::gauge_callback(std::string_view name,
                              std::function<double()> fn) {
  std::lock_guard<std::mutex> lk(core_->mu);
  for (auto& [n, f] : core_->callbacks)
    if (n == name) {
      f = std::move(fn);
      return;
    }
  core_->callbacks.emplace_back(std::string(name), std::move(fn));
}

void Registry::inc(MetricId id, std::uint64_t delta) noexcept {
  const MetricDesc& d = core_->descs[id];
  Shard& s = tls_shard(core_);
  s.ensure(d.slot + 1);
  s.slots[d.slot].fetch_add(delta, std::memory_order_relaxed);
}

void Registry::set(MetricId id, double value) noexcept {
  core_->descs[id].gauge_bits->store(double_to_bits(value),
                                     std::memory_order_relaxed);
}

Snapshot Registry::snapshot() const {
  Core& c = *core_;
  Snapshot out;
  // Holding the core mutex for the whole merge keeps the shard list stable:
  // exiting threads block in retire() rather than freeing a shard mid-read.
  std::lock_guard<std::mutex> lk(c.mu);

  std::vector<std::uint64_t> acc(c.slots_used, 0);
  for (std::size_t i = 0; i < std::min(c.retired.size(), c.slots_used); ++i)
    acc[i] += c.retired[i];
  for (const Shard* s : c.shards) {
    std::lock_guard<std::mutex> slk(s->mu);
    const std::size_t n = std::min(s->capacity, c.slots_used);
    for (std::size_t i = 0; i < n; ++i)
      acc[i] += s->slots[i].load(std::memory_order_relaxed);
  }

  for (const MetricDesc& d : c.descs) {
    if (d.kind == MetricDesc::kCounter)
      out.counters[d.name] = acc[d.slot];
    else
      out.gauges[d.name] =
          bits_to_double(d.gauge_bits->load(std::memory_order_relaxed));
  }
  for (const auto& [name, fn] : c.callbacks) out.gauges[name] = fn();
  return out;
}

// ---- Snapshot ---------------------------------------------------------------

std::string Snapshot::to_json() const {
  std::string s = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) s += ',';
    first = false;
    s += '"';
    json_escape(s, name);
    s += "\":";
    json_number(s, static_cast<double>(v));
  }
  s += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) s += ',';
    first = false;
    s += '"';
    json_escape(s, name);
    s += "\":";
    json_number(s, v);
  }
  s += "}}";
  return s;
}

}  // namespace mpass::obs
