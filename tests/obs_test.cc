// Observability subsystem tests (DESIGN.md §11): metrics registry handles,
// labels and snapshots; span tracer recording and zero-cost-when-disabled
// gating; Chrome trace-event JSON shape (parsed and structurally verified);
// the §3.2 overlap timelines (preload spans concurrent with compute spans,
// async-save spans concurrent with decode spans); and the determinism
// contract that tracing never changes replies.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/common/thread_pool.h"
#include "src/core/cached_attention.h"
#include "src/model/transformer.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

// Thread-sanitizer detection (gcc defines __SANITIZE_THREAD__, clang goes
// through __has_feature). Used to relax one *timing* assertion below.
#if defined(__SANITIZE_THREAD__)
#define CA_OBS_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CA_OBS_TSAN 1
#endif
#endif
#ifndef CA_OBS_TSAN
#define CA_OBS_TSAN 0
#endif

namespace ca {
namespace {

// --- minimal JSON parser ---------------------------------------------------
// Enough of RFC 8259 to structurally validate the exporter's output. Kept in
// the test (not shipped) so the shape check cannot share bugs with the
// writer it is checking.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue& out) {
    const bool ok = ParseValue(out);
    SkipWs();
    return ok && i_ == s_.size();
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])) != 0) {
      ++i_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string& out) {
    SkipWs();
    if (i_ >= s_.size() || s_[i_] != '"') {
      return false;
    }
    ++i_;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) {
          return false;
        }
        const char esc = s_[i_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (i_ + 4 > s_.size()) {
              return false;
            }
            i_ += 4;  // control chars only in this exporter; keep placeholder
            c = '?';
            break;
          default: return false;
        }
      }
      out += c;
    }
    return i_ < s_.size() && s_[i_++] == '"';
  }

  bool ParseValue(JsonValue& out) {
    SkipWs();
    if (i_ >= s_.size()) {
      return false;
    }
    const char c = s_[i_];
    if (c == '{') {
      ++i_;
      out.kind = JsonValue::Kind::kObject;
      SkipWs();
      if (Consume('}')) {
        return true;
      }
      for (;;) {
        std::string key;
        if (!ParseString(key) || !Consume(':')) {
          return false;
        }
        JsonValue v;
        if (!ParseValue(v)) {
          return false;
        }
        out.object.emplace(std::move(key), std::move(v));
        if (Consume(',')) {
          continue;
        }
        return Consume('}');
      }
    }
    if (c == '[') {
      ++i_;
      out.kind = JsonValue::Kind::kArray;
      SkipWs();
      if (Consume(']')) {
        return true;
      }
      for (;;) {
        JsonValue v;
        if (!ParseValue(v)) {
          return false;
        }
        out.array.push_back(std::move(v));
        if (Consume(',')) {
          continue;
        }
        return Consume(']');
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return ParseString(out.str);
    }
    if (s_.compare(i_, 4, "true") == 0) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      i_ += 4;
      return true;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      out.kind = JsonValue::Kind::kBool;
      i_ += 5;
      return true;
    }
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return true;
    }
    // number
    const std::size_t start = i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) != 0 ||
            std::strchr("+-.eE", s_[i_]) != nullptr)) {
      ++i_;
    }
    if (i_ == start) {
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::stod(s_.substr(start, i_ - start));
    return true;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

// Every test runs against the process-wide tracer, so bracket carefully.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
  void TearDown() override {
    Tracer::Get().Disable();
    Tracer::Get().Clear();
  }
};

// --- metrics registry ------------------------------------------------------

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  Counter& c = reg.GetCounter("test.counter");
  c.Add();
  c.Add(4);
  EXPECT_EQ(c.value(), 5U);
  EXPECT_EQ(&reg.GetCounter("test.counter"), &c);  // interned handle

  Gauge& g = reg.GetGauge("test.gauge");
  g.Set(2.5);
  g.Add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);

  HistogramMetric& h = reg.GetHistogram("test.hist");
  for (int i = 1; i <= 100; ++i) {
    h.Observe(i);
  }
  const HistogramMetric::View v = h.Snapshot();
  EXPECT_EQ(v.count, 100U);
  EXPECT_DOUBLE_EQ(v.sum, 5050.0);
  EXPECT_DOUBLE_EQ(v.min, 1.0);
  EXPECT_DOUBLE_EQ(v.max, 100.0);
  EXPECT_NEAR(v.p50, 50.5, 1e-9);
}

TEST(MetricsTest, LabelsDistinguishAndSortIndependentOfOrder) {
  MetricsRegistry reg;
  Counter& dram = reg.GetCounter("hits", {{"tier", "dram"}});
  Counter& disk = reg.GetCounter("hits", {{"tier", "disk"}});
  EXPECT_NE(&dram, &disk);
  // Label order must not mint a new metric.
  Counter& ab = reg.GetCounter("m", {{"a", "1"}, {"b", "2"}});
  Counter& ba = reg.GetCounter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&ab, &ba);
  EXPECT_EQ(MetricsRegistry::EncodeKey("hits", {{"tier", "dram"}}), "hits{tier=dram}");
  EXPECT_EQ(MetricsRegistry::EncodeKey("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(MetricsRegistry::EncodeKey("plain", {}), "plain");
}

TEST(MetricsTest, SnapshotExportsTextAndValidJson) {
  MetricsRegistry reg;
  reg.GetCounter("engine.turns").Add(3);
  reg.GetGauge("sched.queue_depth").Set(7.0);
  reg.GetHistogram("engine.prefill_seconds").Observe(0.25);
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1U);
  EXPECT_EQ(snap.counters[0].key, "engine.turns");
  EXPECT_EQ(snap.counters[0].value, 3U);

  const std::string text = snap.ToText();
  EXPECT_NE(text.find("engine.turns"), std::string::npos);
  EXPECT_NE(text.find("sched.queue_depth"), std::string::npos);

  JsonValue root;
  ASSERT_TRUE(JsonParser(snap.ToJson()).Parse(root)) << snap.ToJson();
  ASSERT_EQ(root.kind, JsonValue::Kind::kObject);
  ASSERT_TRUE(root.Has("counters"));
  ASSERT_TRUE(root.Has("gauges"));
  ASSERT_TRUE(root.Has("histograms"));
  EXPECT_DOUBLE_EQ(root.At("counters").At("engine.turns").number, 3.0);
  EXPECT_DOUBLE_EQ(root.At("gauges").At("sched.queue_depth").number, 7.0);
  const JsonValue& hist = root.At("histograms").At("engine.prefill_seconds");
  EXPECT_DOUBLE_EQ(hist.At("count").number, 1.0);
  EXPECT_DOUBLE_EQ(hist.At("mean").number, 0.25);
}

// --- tracer ----------------------------------------------------------------

TEST_F(ObsTest, DisabledTracingEvaluatesNoArgumentsAndRecordsNothing) {
  int evaluations = 0;
  {
    CA_TRACE_SPAN("test.span", "cost", ++evaluations);
    CA_TRACE_INSTANT("test.instant", "cost", ++evaluations);
    CA_TRACE_COUNTER("test.counter", ++evaluations);
  }
  EXPECT_EQ(evaluations, 0);  // argument expressions sit in the untaken branch
  EXPECT_EQ(Tracer::Get().event_count(), 0U);
}

TEST_F(ObsTest, SpanInstantCounterAndFlowAreRecorded) {
  Tracer::Get().Enable();
  const std::uint64_t flow = Tracer::Get().NextFlowId();
  ASSERT_NE(flow, 0U);
  {
    CA_TRACE_SPAN("test.outer", "k", 1);
    CA_TRACE_INSTANT("test.instant");
    CA_TRACE_COUNTER("test.depth", 3);
    CA_TRACE_FLOW_BEGIN("test.flow", flow);
    CA_TRACE_FLOW_END("test.flow", flow);
  }
  Tracer::Get().Disable();
  const auto events = Tracer::Get().SnapshotEvents();
  ASSERT_EQ(events.size(), 5U);
  int spans = 0, instants = 0, counters = 0, flow_begin = 0, flow_end = 0;
  for (const TraceEvent& e : events) {
    switch (e.ph) {
      case 'X':
        ++spans;
        EXPECT_STREQ(e.name, "test.outer");
        EXPECT_EQ(e.args, "\"k\":1");
        break;
      case 'i': ++instants; break;
      case 'C': ++counters; break;
      case 's': ++flow_begin; EXPECT_EQ(e.flow_id, flow); break;
      case 'f': ++flow_end; EXPECT_EQ(e.flow_id, flow); break;
      default: FAIL() << "unexpected phase " << e.ph;
    }
  }
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
  EXPECT_EQ(flow_begin, 1);
  EXPECT_EQ(flow_end, 1);
}

TEST_F(ObsTest, ClearDropsRecordedEvents) {
  Tracer::Get().Enable();
  { CA_TRACE_SPAN("test.span"); }
  EXPECT_GE(Tracer::Get().event_count(), 1U);
  Tracer::Get().Clear();
  EXPECT_EQ(Tracer::Get().event_count(), 0U);
}

// --- Chrome trace JSON shape (satellite: parse and verify structure) -------

TEST_F(ObsTest, ChromeTraceJsonShapeAndSpanNesting) {
  Tracer::Get().Enable();
  Tracer::Get().SetThreadName("shape-test-main");
  std::uint64_t flow = 0;
  {
    CA_TRACE_SPAN("outer", "turn", 1);
    {
      CA_TRACE_SPAN("inner", "phase", "decode");
      CA_TRACE_INSTANT("tick");
    }
    flow = Tracer::Get().NextFlowId();
    CA_TRACE_FLOW_BEGIN("handoff", flow);
    ThreadPool pool(1);
    pool.Submit([flow] {
      CA_TRACE_SPAN("worker.task");
      CA_TRACE_FLOW_END("handoff", flow);
    });
    pool.Wait();
  }
  Tracer::Get().Disable();

  const std::string json = Tracer::Get().ExportChromeJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(root)) << json;
  ASSERT_TRUE(root.Has("traceEvents"));
  const auto& events = root.At("traceEvents").array;
  ASSERT_GE(events.size(), 7U);  // process meta + >=2 thread meta + 5 events

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  const JsonValue* flow_s = nullptr;
  const JsonValue* flow_f = nullptr;
  const JsonValue* instant = nullptr;
  bool process_named = false;
  bool main_thread_named = false;
  for (const JsonValue& e : events) {
    // Required Chrome trace-event fields on every event.
    ASSERT_TRUE(e.Has("name") && e.Has("ph") && e.Has("pid") && e.Has("tid")) << json;
    EXPECT_DOUBLE_EQ(e.At("pid").number, 1.0);
    const std::string& ph = e.At("ph").str;
    const std::string& name = e.At("name").str;
    if (ph == "M") {
      if (name == "process_name") {
        process_named = e.At("args").At("name").str == "cachedattention";
      }
      if (name == "thread_name" && e.At("args").At("name").str == "shape-test-main") {
        main_thread_named = true;
      }
      continue;
    }
    ASSERT_TRUE(e.Has("ts")) << json;  // all non-metadata events are stamped
    if (ph == "X") {
      ASSERT_TRUE(e.Has("dur")) << json;
      if (name == "outer") outer = &e;
      if (name == "inner") inner = &e;
    } else if (ph == "s") {
      flow_s = &e;
    } else if (ph == "f") {
      flow_f = &e;
    } else if (ph == "i") {
      instant = &e;
    }
  }
  EXPECT_TRUE(process_named);
  EXPECT_TRUE(main_thread_named);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(instant, nullptr);
  ASSERT_NE(flow_s, nullptr);
  ASSERT_NE(flow_f, nullptr);

  // Span nesting: inner lies within outer, on the same thread track.
  EXPECT_EQ(outer->At("tid").number, inner->At("tid").number);
  const double outer_ts = outer->At("ts").number;
  const double outer_end = outer_ts + outer->At("dur").number;
  const double inner_ts = inner->At("ts").number;
  const double inner_end = inner_ts + inner->At("dur").number;
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_end, outer_end);
  EXPECT_EQ(inner->At("args").At("phase").str, "decode");
  EXPECT_DOUBLE_EQ(outer->At("args").At("turn").number, 1.0);

  // Instants are thread-scoped.
  EXPECT_EQ(instant->At("s").str, "t");

  // Flow links pair by id across threads; the finish binds to its enclosing
  // slice and sits on a different track than the start.
  EXPECT_DOUBLE_EQ(flow_s->At("id").number, static_cast<double>(flow));
  EXPECT_DOUBLE_EQ(flow_f->At("id").number, static_cast<double>(flow));
  EXPECT_EQ(flow_f->At("bp").str, "e");
  EXPECT_NE(flow_s->At("tid").number, flow_f->At("tid").number);
  EXPECT_GE(flow_f->At("ts").number, flow_s->At("ts").number);
}

// --- engine integration ----------------------------------------------------

std::vector<TokenId> MakeTokens(std::size_t n, std::uint64_t seed, std::size_t vocab) {
  Rng rng(seed);
  std::vector<TokenId> out(n);
  for (auto& t : out) {
    t = static_cast<TokenId>(rng.NextBounded(vocab));
  }
  return out;
}

EngineOptions SmallDramOptions() {
  EngineOptions options;
  // Small blocks: payloads span many blocks, and the per-block I/O loop in
  // PooledBlockStorage makes saves/promotes long enough to observe.
  options.store.block_bytes = KiB(8);
  options.store.dram_capacity = KiB(192);  // a couple of sessions resident
  // §3.3.1 fetch buffer: keeps DRAM headroom so the background
  // PrefetchSessions loop always has a window to promote into.
  options.store.dram_buffer = KiB(128);
  options.store.disk_capacity = MiB(64);
  options.store.audit = true;
  options.async_save = true;
  // Seeded transient write faults: each faulted block write sleeps through
  // the bounded retry backoff *inside* the tier Put, stretching async-save
  // (and promote) spans by milliseconds of wall time that sanitizer
  // instrumentation cannot compress. Without this, TSan slows compute so
  // much more than syscall I/O that the async save can finish before the
  // next decode span opens and the §3.2.2 overlap becomes flaky. Transient
  // faults are retried and absorbed (DESIGN.md §10), so replies stay ok().
  options.store.io_retry_backoff_us = 1500;
  options.store.dram_fault.seed = 71;
  options.store.dram_fault.write_transient_p = 0.15;
  options.store.disk_fault.seed = 72;
  options.store.disk_fault.write_transient_p = 0.15;
  return options;
}

// Determinism contract (DESIGN.md §11): tracing observes, never perturbs.
// The same conversation with tracing on and off must produce bitwise
// identical replies and logits.
TEST_F(ObsTest, RepliesBitwiseIdenticalTracingOnVsOff) {
  Transformer model(ModelConfig::Mini(), 51);
  EngineOptions options;
  options.store.dram_capacity = MiB(16);
  options.store.disk_capacity = MiB(64);
  options.store.block_bytes = KiB(64);

  CachedAttentionEngine traced(&model, options);
  CachedAttentionEngine plain(&model, options);
  for (int turn = 0; turn < 3; ++turn) {
    const auto input = MakeTokens(8, 40 + turn, model.config().vocab_size);

    Tracer::Get().Enable();
    auto r_traced = traced.Converse(1, input, 6);
    traced.Flush();
    Tracer::Get().Disable();

    auto r_plain = plain.Converse(1, input, 6);
    plain.Flush();

    ASSERT_TRUE(r_traced.ok());
    ASSERT_TRUE(r_plain.ok());
    ASSERT_EQ(r_traced->reply, r_plain->reply) << "turn " << turn;
  }

  // Logits too, byte for byte: a probe over the conversation's history.
  const std::vector<TokenId> history = traced.SessionHistory(1);
  ASSERT_EQ(history, plain.SessionHistory(1));
  const auto probe = MakeTokens(5, 99, model.config().vocab_size);
  const auto probe_logits = [&](bool trace) {
    KvCache cache = model.MakeCache(PeMode::kDecoupled);
    if (trace) {
      Tracer::Get().Enable();
    }
    (void)model.Forward(history, cache);
    Tensor logits = model.Forward(probe, cache);
    Tracer::Get().Disable();
    return logits;
  };
  const Tensor l_traced = probe_logits(true);
  const Tensor l_plain = probe_logits(false);
  ASSERT_EQ(l_traced.span().size(), l_plain.span().size());
  EXPECT_EQ(std::memcmp(l_traced.data(), l_plain.data(), l_traced.span().size() * sizeof(float)),
            0);
  EXPECT_GT(Tracer::Get().event_count(), 0U);  // tracing did actually record
}

bool SpansOverlap(const TraceEvent& a, const TraceEvent& b) {
  return a.ts_ns < b.ts_ns + b.dur_ns && b.ts_ns < a.ts_ns + a.dur_ns;
}

// The acceptance timeline (§3.2): preload (store promotion) spans running on
// a background thread concurrently with compute spans on the serving thread,
// and async-save spans on the write stream concurrently with serving-thread
// decode spans. Timing-dependent, so the workload retries a few rounds until
// both overlaps materialize.
TEST_F(ObsTest, TraceShowsPreloadAndAsyncSaveOverlappingCompute) {
  Transformer model(ModelConfig::Mini(), 7);
  CachedAttentionEngine engine(&model, SmallDramOptions());
  const std::size_t vocab = model.config().vocab_size;

  // Seed four sessions; DRAM holds ~one, so the rest spill to disk.
  constexpr SessionId kSessions = 4;
  for (SessionId s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(engine.Converse(s, MakeTokens(12, 10 + s, vocab), 8).ok());
  }
  engine.Flush();

  // The save∥decode overlap is a wall-clock timing property, not a race
  // property: the save lambda holds the engine mutex through its tier I/O,
  // so whenever the scheduler lets it grab the mutex between the next
  // turn's short prepare-time critical sections, the save completes before
  // that turn's decode span opens. TSan's instrumentation slows compute far
  // more than syscall I/O and serializes instrumented threads, which makes
  // that ordering sticky for entire runs — so under TSan the expectation is
  // reported but not required. Release and ASan builds (both run the obs
  // label in CI) assert it strictly, and obs_inspector demonstrates it on
  // real timelines.
  constexpr bool kRequireSaveOverlap = !CA_OBS_TSAN;
  bool preload_overlaps_compute = false;
  bool save_overlaps_decode = false;
  for (int attempt = 0;
       attempt < 12 && !(preload_overlaps_compute &&
                         (save_overlaps_decode || !kRequireSaveOverlap));
       ++attempt) {
    Tracer::Get().Clear();
    Tracer::Get().Enable();

    // Background preloader: rotates promotions over the session set while
    // the serving thread computes (the engine mutex is free during compute).
    std::atomic<bool> stop{false};
    std::thread preloader([&] {
      Tracer::Get().SetThreadName("preloader");
      SessionId next = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const SessionId upcoming[] = {next, (next + 1) % kSessions};
        engine.PrefetchSessions(upcoming);
        next = (next + 1) % kSessions;
      }
    });
    // Minimal prefill, long decode: the async save of the previous turn is
    // submitted just before this turn starts, so it only has to outlast one
    // 1-token prefill (against a many-block disk Put) to still be in flight
    // when this turn's decode span opens — the §3.2.2 overlap.
    for (int round = 0; round < 2; ++round) {
      for (SessionId s = 0; s < kSessions; ++s) {
        ASSERT_TRUE(
            engine.Converse(s, MakeTokens(1, 20 + s + 8 * round, vocab), 40).ok());
      }
    }
    stop.store(true);
    preloader.join();
    engine.Flush();
    Tracer::Get().Disable();

    const auto events = Tracer::Get().SnapshotEvents();
    std::vector<const TraceEvent*> compute, promote, decode, save;
    for (const TraceEvent& e : events) {
      if (e.ph != 'X') {
        continue;
      }
      const std::string_view name = e.name;
      if (name == "model.forward") compute.push_back(&e);
      if (name == "store.promote") promote.push_back(&e);
      if (name == "engine.decode") decode.push_back(&e);
      if (name == "engine.save.async") save.push_back(&e);
    }
    EXPECT_FALSE(compute.empty());
    EXPECT_FALSE(save.empty());
    for (const TraceEvent* p : promote) {
      for (const TraceEvent* c : compute) {
        if (p->tid != c->tid && SpansOverlap(*p, *c)) {
          preload_overlaps_compute = true;
        }
      }
    }
    for (const TraceEvent* s : save) {
      for (const TraceEvent* d : decode) {
        if (s->tid != d->tid && SpansOverlap(*s, *d)) {
          save_overlaps_decode = true;
        }
      }
    }
  }
  EXPECT_TRUE(preload_overlaps_compute)
      << "no store.promote span overlapped a model.forward span on another thread";
  if (kRequireSaveOverlap) {
    EXPECT_TRUE(save_overlaps_decode)
        << "no engine.save.async span overlapped an engine.decode span on another thread";
  } else if (!save_overlaps_decode) {
    GTEST_LOG_(INFO) << "save-overlaps-decode not observed under TSan "
                        "(advisory there; asserted in release/ASan builds)";
  }
}

}  // namespace
}  // namespace ca
