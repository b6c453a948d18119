#include "pathview/obs/obs.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

namespace pathview::obs {

namespace detail {

// Span recording starts enabled when PATHVIEW_TRACE is set so that library
// code in any process (tools, benches, tests) records without explicit
// opt-in calls. The live bit is owned by acquire/release_live_sampling.
std::atomic<std::uint32_t> g_mode{[]() -> std::uint32_t {
  const char* env = std::getenv("PATHVIEW_TRACE");
  return (env != nullptr && *env != '\0') ? kModeRecord : 0u;
}()};

constinit thread_local bool t_flight_armed = false;

}  // namespace detail

void set_enabled(bool on) {
  if (on)
    detail::g_mode.fetch_or(detail::kModeRecord, std::memory_order_relaxed);
  else
    detail::g_mode.fetch_and(~detail::kModeRecord, std::memory_order_relaxed);
}

namespace {

std::atomic<std::uint32_t> g_live_refs{0};

}  // namespace

void acquire_live_sampling() {
  if (g_live_refs.fetch_add(1, std::memory_order_acq_rel) == 0)
    detail::g_mode.fetch_or(detail::kModeLive, std::memory_order_relaxed);
}

void release_live_sampling() {
  if (g_live_refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
    detail::g_mode.fetch_and(~detail::kModeLive, std::memory_order_relaxed);
}

namespace {

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

/// The thread's published live call path, read by the continuous-profiling
/// sampler. A seqlock over atomics: the OWNING thread is the only writer
/// (bumps `version` to odd, mutates, bumps back to even); readers retry on
/// an odd or changed version. Every field is an atomic, so concurrent
/// access is race-free by construction (TSan-clean) and a torn read is
/// detected by the version check rather than being undefined. The full
/// fences pin the store/load order around the version bumps on weakly
/// ordered hardware; the writer never blocks and never reads a clock.
struct LiveStack {
  std::atomic<std::uint64_t> version{0};  // odd while a push/pop is in flight
  std::atomic<std::uint32_t> depth{0};    // logical depth (may exceed kMax)
  std::atomic<std::uint64_t> trace_id{0};
  std::array<std::atomic<const char*>, kMaxLiveDepth> frames{};
};

void live_push(LiveStack& ls, const char* name) {
  const std::uint64_t v = ls.version.load(std::memory_order_relaxed);
  ls.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::uint32_t d = ls.depth.load(std::memory_order_relaxed);
  if (d < kMaxLiveDepth) ls.frames[d].store(name, std::memory_order_relaxed);
  ls.depth.store(d + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  ls.version.store(v + 2, std::memory_order_release);
}

void live_pop(LiveStack& ls) {
  const std::uint64_t v = ls.version.load(std::memory_order_relaxed);
  ls.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::uint32_t d = ls.depth.load(std::memory_order_relaxed);
  if (d > 0) ls.depth.store(d - 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  ls.version.store(v + 2, std::memory_order_release);
}

/// One thread's span storage. The owning thread appends through its
/// thread_local pointer; snapshot() readers take `mu` — uncontended in the
/// common case, which is what keeps spans cheap.
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::mutex mu;
  std::vector<SpanRecord> spans;       // guarded by mu
  std::vector<std::int32_t> open;      // owner-thread only: open span stack
  LiveStack live;                      // lock-free, sampler-readable
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;      // never shrinks
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

thread_local ThreadBuffer* tls_buffer = nullptr;
thread_local std::uint64_t tls_trace_id = 0;

/// Flight-recorder capture state for the arming thread. Owner-thread only:
/// armed, appended to, read and torn down on the same thread.
struct FlightState {
  std::size_t max_spans = 0;
  bool overflowed = false;
  std::vector<FlightSpan> spans;
  std::vector<std::int32_t> open;  // indices into spans; -2 = overflow slot
  std::vector<std::string> notes;
};

constexpr std::size_t kMaxFlightNotes = 16;

thread_local FlightState* tls_flight = nullptr;

void flight_enter(const char* name) {
  FlightState* f = tls_flight;
  if (f == nullptr) return;
  if (f->spans.size() >= f->max_spans) {
    f->overflowed = true;
    f->open.push_back(-2);
    return;
  }
  FlightSpan s;
  s.name = name;
  s.start_ns = now_ns();
  const std::int32_t top = f->open.empty() ? -1 : f->open.back();
  s.parent = top < 0 ? -1 : top;
  f->open.push_back(static_cast<std::int32_t>(f->spans.size()));
  f->spans.push_back(s);
}

void flight_exit() {
  FlightState* f = tls_flight;
  if (f == nullptr || f->open.empty()) return;
  const std::int32_t top = f->open.back();
  f->open.pop_back();
  if (top >= 0) f->spans[static_cast<std::size_t>(top)].end_ns = now_ns();
}

ThreadBuffer& local_buffer() {
  if (tls_buffer == nullptr) {
    Registry& r = registry();
    auto buf = std::make_unique<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(r.mu);
    buf->tid = static_cast<std::uint32_t>(r.buffers.size());
    tls_buffer = buf.get();
    r.buffers.push_back(std::move(buf));
  }
  return *tls_buffer;
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string labeled(
    std::string_view name,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        labels) {
  std::string out(name);
  if (labels.size() == 0) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    for (const char c : v) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);  // exact small values
  const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
  if (e >= kMaxExp) return kNumBuckets - 1;  // overflow bucket
  // Top kSubBits bits below the leading one select the linear sub-bucket.
  const std::uint64_t sub = (v >> (e - kSubBits)) - kSub;
  return (static_cast<std::size_t>(e) - kSubBits + 1) * kSub +
         static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_upper_bound(std::size_t i) {
  if (i < kSub) return i;  // exact block: bucket i holds only value i
  if (i >= kNumBuckets - 1) return UINT64_MAX;
  const std::size_t block = i / kSub;  // >= 1
  const std::uint64_t sub = i % kSub;
  const unsigned e = kSubBits + static_cast<unsigned>(block) - 1;
  const std::uint64_t lower = (kSub + sub) << (e - kSubBits);
  return lower + ((1ull << (e - kSubBits)) - 1);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.sum = sum_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    out.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    out.count += out.buckets[i];
  }
  return out;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  count += other.count;
  sum += other.sum;
  for (std::size_t i = 0; i < kNumBuckets; ++i) buckets[i] += other.buckets[i];
}

std::uint64_t HistogramSnapshot::value_at(double q) const {
  if (count == 0) return 0;
  const double clamped = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  // Rank of the requested quantile, 1-based; q=0 maps to the first sample.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) return Histogram::bucket_upper_bound(i);
  }
  return Histogram::bucket_upper_bound(kNumBuckets - 1);
}

// ---------------------------------------------------------------------------
// Trace ids.
// ---------------------------------------------------------------------------

void set_trace_id(std::uint64_t id) {
  tls_trace_id = id;
  // Published unconditionally so a sampler acquiring live mode mid-request
  // still attributes in-flight threads to their requests.
  local_buffer().live.trace_id.store(id, std::memory_order_relaxed);
}

std::uint64_t current_trace_id() { return tls_trace_id; }

std::size_t begin_span(const char* name) {
  ThreadBuffer& b = local_buffer();
  const std::uint64_t now = now_ns();
  std::lock_guard<std::mutex> lock(b.mu);
  const std::size_t index = b.spans.size();
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = now;
  rec.parent = b.open.empty() ? -1 : b.open.back();
  rec.trace_id = tls_trace_id;
  b.spans.push_back(rec);
  b.open.push_back(static_cast<std::int32_t>(index));
  return index;
}

void end_span(std::size_t index) {
  ThreadBuffer& b = local_buffer();
  const std::uint64_t now = now_ns();
  std::lock_guard<std::mutex> lock(b.mu);
  // reset() may have cleared the buffer between begin and end; bounds-check
  // rather than resurrect a stale record.
  if (index < b.spans.size() && b.spans[index].end_ns == 0)
    b.spans[index].end_ns = now;
  while (!b.open.empty()) {
    const std::int32_t top = b.open.back();
    b.open.pop_back();
    if (static_cast<std::size_t>(top) == index) break;
  }
}

namespace detail {

std::size_t span_enter(const char* name, std::uint32_t mode) {
  std::size_t index = 0;
  if ((mode & kModeRecord) != 0) index = begin_span(name);
  if ((mode & kModeLive) != 0) live_push(local_buffer().live, name);
  if ((mode & kModeFlight) != 0) flight_enter(name);
  return index;
}

void span_exit(std::size_t index, std::uint32_t mode) {
  if ((mode & kModeFlight) != 0) flight_exit();
  if ((mode & kModeLive) != 0) live_pop(local_buffer().live);
  if ((mode & kModeRecord) != 0) end_span(index);
}

}  // namespace detail

LiveStackWalk sample_live_stacks() {
  Registry& r = registry();
  LiveStackWalk out;
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.buffers) {
    const LiveStack& ls = buf->live;
    bool consistent = false;
    // Bounded retries: a thread pushing/popping continuously under the
    // reader must not wedge the sampler tick; give up and count the tear.
    for (int attempt = 0; attempt < 16 && !consistent; ++attempt) {
      const std::uint64_t v1 = ls.version.load(std::memory_order_acquire);
      if ((v1 & 1) != 0) continue;  // push/pop in flight
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint32_t d = ls.depth.load(std::memory_order_relaxed);
      const std::uint32_t n = d < kMaxLiveDepth ? d : kMaxLiveDepth;
      LiveThreadSample s;
      s.tid = buf->tid;
      s.depth = d;
      s.frames.resize(n);
      for (std::uint32_t i = 0; i < n; ++i)
        s.frames[i] = ls.frames[i].load(std::memory_order_relaxed);
      s.trace_id = ls.trace_id.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      const std::uint64_t v2 = ls.version.load(std::memory_order_relaxed);
      if (v1 != v2) continue;  // the stack changed underneath us
      consistent = true;
      if (d == 0) break;  // idle thread: nothing to report
      if (d > kMaxLiveDepth) ++out.truncated;
      out.samples.push_back(std::move(s));
    }
    if (!consistent) ++out.torn;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t max_spans) {
  if (tls_flight != nullptr) return;  // nested arming: inert shell
  auto* f = new FlightState();
  f->max_spans = max_spans == 0 ? 1 : max_spans;
  tls_flight = f;
  detail::t_flight_armed = true;
  armed_ = true;
}

FlightRecorder::~FlightRecorder() {
  if (!armed_) return;
  detail::t_flight_armed = false;
  delete tls_flight;
  tls_flight = nullptr;
}

std::vector<FlightSpan> FlightRecorder::spans() const {
  if (!armed_ || tls_flight == nullptr) return {};
  std::vector<FlightSpan> out = tls_flight->spans;
  const std::uint64_t now = now_ns();
  for (FlightSpan& s : out)
    if (s.end_ns == 0) s.end_ns = now;
  return out;
}

const std::vector<std::string>& FlightRecorder::notes() const {
  static const std::vector<std::string> kEmpty;
  if (!armed_ || tls_flight == nullptr) return kEmpty;
  return tls_flight->notes;
}

bool FlightRecorder::overflowed() const {
  return armed_ && tls_flight != nullptr && tls_flight->overflowed;
}

void flight_note(std::string text) {
  FlightState* f = tls_flight;
  if (f == nullptr || f->notes.size() >= kMaxFlightNotes) return;
  f->notes.push_back(std::move(text));
}

TraceSnapshot snapshot() {
  Registry& r = registry();
  const std::uint64_t now = now_ns();
  TraceSnapshot out;
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    if (buf->spans.empty()) continue;
    ThreadTrace t;
    t.tid = buf->tid;
    t.spans = buf->spans;
    for (SpanRecord& s : t.spans)
      if (s.end_ns == 0) s.end_ns = now;
    out.threads.push_back(std::move(t));
  }
  for (const auto& [name, c] : r.counters)
    out.counters.emplace_back(name, c->value());
  for (const auto& [name, h] : r.histograms)
    out.histograms.emplace_back(name, h->snapshot());
  return out;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& buf : r.buffers) {
    std::lock_guard<std::mutex> buf_lock(buf->mu);
    buf->spans.clear();
  }
  for (const auto& [name, c] : r.counters)
    c->v_.store(0, std::memory_order_relaxed);
  for (const auto& [name, h] : r.histograms) {
    h->sum_.store(0, std::memory_order_relaxed);
    for (auto& b : h->buckets_) b.store(0, std::memory_order_relaxed);
  }
}

}  // namespace pathview::obs
