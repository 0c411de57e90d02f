// One repetition of one perfbench workload, in this process (the workloads
// are described in perfbench/README.md; perfbench/run.py drives this binary).
//
//   jqos_perfbench --workload wan_code|wan_forward|churn_web --seed N
//                  [--trace SPANS_FILE] [--setup-only 1]
//
// The process builds the deployment, runs its event loop once on this
// thread, and prints one JSON object on stdout: timed-phase wall and process
// CPU time, peak RSS, the exact counts run.py compares across repetitions,
// and an order-sensitive digest of the outcomes. It exits 1 when one of its
// own output checks fails. With --setup-only 1 it instead builds the
// deployment kSetupReps times and reports the fastest build: one build is
// well under a millisecond (see perfbench/README.md).
//
// --trace re-attaches a proxy netsim::Node in front of every DataCenter,
// Sender and Receiver of a wan_* deployment (public Network::attach) and
// times each handle_packet call as a span. Spans stay in memory during the
// loop and are written to SPANS_FILE at exit; the JSON carries their totals
// per (role, packet type, service). Tracing changes no simulated value: the
// exact counts and digest of a traced run equal the untraced run's.
//
// Allocation counts need jqos_alloc_probe, which replaces global operator
// new and delete. Only the jqos_perfbench_probe build links it
// (JQOS_PERFBENCH_ALLOC_PROBE); the timed end-to-end build does not.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#ifdef JQOS_PERFBENCH_ALLOC_PROBE
#include "common/alloc_probe.h"
#endif
#include "common/rng.h"
#include "exp/scenario.h"
#include "geo/path_dataset.h"
#include "netsim/event_queue.h"
#include "workload/churn.h"

namespace {

using namespace jqos;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kPaths = 45;
constexpr int kSetupReps = 20;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

double fastest(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

#ifdef JQOS_PERFBENCH_ALLOC_PROBE
constexpr bool kAllocProbe = true;
std::uint64_t allocations() { return alloc_probe::allocations(); }
#else
constexpr bool kAllocProbe = false;
std::uint64_t allocations() { return 0; }
#endif

// FNV-1a over 64-bit words: order-sensitive, so any reordering or change of
// a per-path outcome changes the digest.
struct Digest {
  std::uint64_t h = 14695981039346656037ULL;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
};

// Minimal one-line JSON writer; doubles keep all their digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& str(const char* key, const std::string& v) { return raw(key, "\"" + v + "\""); }
  Json& obj(const char* key, const Json& v) { return raw(key, v.text()); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const char* key, const std::string& v) {
    if (!body_.empty()) body_.push_back(',');
    body_.push_back('"');
    body_.append(key);
    body_.append("\":");
    body_.append(v);
    return *this;
  }
  std::string body_;
};

// ---------------------------------------------------------------- tracing

enum class Role : std::uint8_t { kDc = 0, kSender = 1, kReceiver = 2 };
constexpr const char* kRoleName[] = {"dc", "sender", "receiver"};

// One handle_packet call. Spans of one packet share (flow, seq).
struct Span {
  std::uint64_t start_ns;  // Since the event loop started.
  std::uint32_t dur_ns;
  std::uint32_t flow;
  std::uint32_t seq;
  std::uint8_t role;
  std::uint8_t type;     // PacketType.
  std::uint8_t service;  // ServiceType.
  std::uint8_t pad = 0;
};
static_assert(sizeof(Span) == 24);

// The packet fields a span records, read before the handler runs (the
// handler may recycle the packet).
struct SpanKey {
  FlowId flow;
  SeqNo seq;
  PacketType type;
  ServiceType service;
};

class Tracer {
 public:
  explicit Tracer(std::size_t reserve) { spans_.reserve(reserve); }

  void start_loop() { origin_ = Clock::now(); }

  void record(Role role, const SpanKey& key, Clock::time_point t0, Clock::time_point t1) {
    const auto ns = [this](Clock::time_point t) {
      return static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count());
    };
    const std::uint64_t start = ns(t0);
    spans_.push_back(Span{start, static_cast<std::uint32_t>(ns(t1) - start), key.flow, key.seq,
                          static_cast<std::uint8_t>(role), static_cast<std::uint8_t>(key.type),
                          static_cast<std::uint8_t>(key.service)});
  }

  // Handlers must not nest for a span's duration to be its self time.
  bool enter() { return depth_++ == 0; }
  void leave() { --depth_; }
  std::uint64_t nested = 0;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int depth_ = 0;
};

// Stands in front of a real node in the Network's node table; forwards every
// delivery unchanged and times it.
class ProxyNode final : public netsim::Node {
 public:
  ProxyNode(netsim::Node& inner, Role role, Tracer& tracer)
      : inner_(inner), role_(role), tracer_(tracer) {}

  NodeId id() const override { return inner_.id(); }

  void handle_packet(const PacketPtr& pkt) override {
    if (!tracer_.enter()) ++tracer_.nested;
    const SpanKey key{pkt->flow, pkt->seq, pkt->type, pkt->service};
    const Clock::time_point t0 = Clock::now();
    inner_.handle_packet(pkt);
    const Clock::time_point t1 = Clock::now();
    tracer_.leave();
    tracer_.record(role_, key, t0, t1);
  }

 private:
  netsim::Node& inner_;
  Role role_;
  Tracer& tracer_;
};

// Per (role, type, service) totals, keyed by a readable class name.
Json span_totals(const Tracer& tracer) {
  struct Agg {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };
  std::map<std::string, Agg> by_class;
  std::uint64_t total_ns = 0;
  for (const Span& s : tracer.spans()) {
    std::string name = std::string(kRoleName[s.role]) + "." +
                       to_string(static_cast<PacketType>(s.type)) + "." +
                       to_string(static_cast<ServiceType>(s.service));
    Agg& a = by_class[name];
    ++a.calls;
    a.ns += s.dur_ns;
    total_ns += s.dur_ns;
  }
  Json classes;
  for (const auto& [name, a] : by_class) {
    classes.obj(name.c_str(), Json().num("calls", a.calls).num("ns", a.ns));
  }
  return Json()
      .num("spans", static_cast<std::uint64_t>(tracer.spans().size()))
      .num("nested", tracer.nested)
      .num("handler_ns", total_ns)
      .obj("classes", classes);
}

bool write_spans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  // Header line, then packed little-endian Span records.
  std::fprintf(f,
               "jqos-perfbench-spans v1 count=%zu record=24 "
               "fields=start_ns:u64,dur_ns:u32,flow:u32,seq:u32,role:u8,type:u8,"
               "service:u8,pad:u8\n",
               tracer.spans().size());
  const std::size_t n = tracer.spans().size();
  const bool ok = n == 0 || std::fwrite(tracer.spans().data(), sizeof(Span), n, f) == n;
  return std::fclose(f) == 0 && ok;
}

// --------------------------------------------------------------- workloads

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string spans_file;  // Non-empty: traced run.
  bool setup_only = false;
};

struct Measured {
  std::vector<double> setup_s, geo_s, build_s;
  double loop_s = 0.0;
  double loop_cpu_s = 0.0;
  std::uint64_t sent = 0;
  double p99_recovery_ms = 0.0;
  Json exact;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;
  Json trace;
};

void check(Measured& m, bool ok, const std::string& what) {
  if (!ok) m.failures.push_back(what);
}

// The coding parameters of the paper's CR-WAN deployment (Section 6.2).
services::CodingParams coding_params() {
  return services::CodingParams{.k = 6, .cross_coded = 2, .in_block = 5, .in_coded = 1,
                                .queue_timeout = msec(300)};
}

Json recovery_counts(const services::EncoderStats& enc, const services::RecoveryStatsDc& rec) {
  return Json()
      .num("enc_data_packets", enc.data_packets)
      .num("enc_in_batches", enc.in_batches)
      .num("enc_cross_batches", enc.cross_batches)
      .num("enc_coded_sent", enc.coded_sent)
      .num("enc_timer_flushes", enc.timer_flushes)
      .num("rec_nacks", rec.nacks)
      .num("rec_in_stream_served", rec.in_stream_served)
      .num("rec_coop_ops", rec.coop_ops)
      .num("rec_coop_success", rec.coop_success)
      .num("rec_coop_requests_sent", rec.coop_requests_sent)
      .num("rec_recovered_sent", rec.recovered_sent)
      .num("rec_nack_checks_sent", rec.nack_checks_sent);
}

// DC egress a churn run can account for from the service counters alone.
std::uint64_t service_egress(const services::EncoderStats& enc,
                             const services::RecoveryStatsDc& rec) {
  return enc.coded_sent + rec.recovered_sent + rec.coop_requests_sent +
         rec.nack_checks_sent + rec.in_stream_served;
}

void run_wan(const Options& opt, bool forward, Measured& m) {
  exp::WanScenarioParams params;
  params.service = forward ? ServiceType::kForward : ServiceType::kCode;
  params.send_direct = !forward;
  params.coding = coding_params();
  params.cbr = transport::CbrParams{.on_duration = minutes(2), .mean_off = minutes(1),
                                    .packets_per_second = 100.0, .payload_bytes = 512};
  params.seed = opt.seed;
  const SimDuration duration = forward ? sec(15) : sec(60);
  const netsim::EvqBackend backend = netsim::evq_default_backend();

  // Declared before the shard: the shard's Network points at the proxies.
  std::unique_ptr<Tracer> tracer;
  std::vector<std::unique_ptr<ProxyNode>> proxies;
  std::unique_ptr<exp::ScenarioShard> shard;
  const int builds = opt.setup_only ? kSetupReps : 1;
  for (int rep = 0; rep < builds; ++rep) {
    shard.reset();
    const Clock::time_point t0 = Clock::now();
    Rng geo_rng(opt.seed);
    std::vector<geo::PathSample> samples = geo::planetlab_paths(kPaths, geo_rng);
    const Clock::time_point t1 = Clock::now();
    std::vector<exp::IndexedPath> paths;
    paths.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      paths.push_back(exp::IndexedPath{i, std::move(samples[i])});
    }
    shard = std::make_unique<exp::ScenarioShard>(std::move(paths), params, backend);
    const Clock::time_point t2 = Clock::now();
    m.geo_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    m.build_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    m.setup_s.push_back(std::chrono::duration<double>(t2 - t0).count());
  }
  if (opt.setup_only) return;

  // Traced run: a proxy in front of every node the deployment attached.
  if (!opt.spans_file.empty()) {
    // Under three handler calls per application packet; reserve for four
    // so the loop never grows the span buffer.
    const double pkts = 100.0 * static_cast<double>(kPaths) * to_ms(duration) / 1000.0;
    tracer = std::make_unique<Tracer>(static_cast<std::size_t>(4.0 * pkts));
    const auto proxy = [&](netsim::Node& node, Role role) {
      proxies.push_back(std::make_unique<ProxyNode>(node, role, *tracer));
      shard->net().attach(*proxies.back());
    };
    for (std::size_t i = 0; i < shard->overlay().dc_count(); ++i) {
      proxy(shard->overlay().dc(i), Role::kDc);
    }
    for (std::size_t i = 0; i < shard->path_count(); ++i) {
      proxy(*shard->path(i).sender, Role::kSender);
      proxy(*shard->path(i).receiver, Role::kReceiver);
    }
  }

  const std::uint64_t allocs0 = allocations();
  const double cpu0 = cpu_seconds();
  if (tracer) tracer->start_loop();
  const Clock::time_point t0 = Clock::now();
  shard->run(duration);
  m.loop_s = seconds_since(t0);
  m.loop_cpu_s = cpu_seconds() - cpu0;
  const std::uint64_t allocs = allocations() - allocs0;

  std::uint64_t direct = 0, recovered = 0, lost = 0, nacks_sent = 0, self_decoded = 0;
  Samples recovery_ms;
  Digest d;
  for (std::size_t i = 0; i < shard->path_count(); ++i) {
    const exp::PathRuntime& rt = shard->path(i);
    const std::uint64_t sent = rt.sender->stats().app_packets;
    check(m, rt.delivered_direct + rt.recovered + rt.lost == sent,
          "path " + std::to_string(rt.global_index) + ": outcomes do not cover sent packets");
    m.sent += sent;
    direct += rt.delivered_direct;
    recovered += rt.recovered;
    lost += rt.lost;
    nacks_sent += rt.receiver->stats().nacks_sent;
    self_decoded += rt.receiver->stats().self_decoded;
    for (double x : rt.recovery_ms.values()) recovery_ms.add(x);
    d.mix(rt.global_index);
    d.mix(sent);
    d.mix(rt.delivered_direct);
    d.mix(rt.recovered);
    d.mix(rt.lost);
    for (exp::Outcome o : rt.outcome) d.mix(static_cast<std::uint64_t>(o));
  }
  std::uint64_t egress = 0;
  for (std::size_t i = 0; i < shard->overlay().dc_count(); ++i) {
    egress += shard->overlay().dc(i).egress_packets();
  }
  const services::EncoderStats enc = shard->encoder_totals();
  const services::RecoveryStatsDc rec = shard->recovery_totals();
  const std::uint64_t events = shard->sim().events_processed();
  for (std::uint64_t v : {enc.data_packets, enc.in_batches, enc.cross_batches, enc.coded_sent,
                          enc.timer_flushes, rec.nacks, rec.in_stream_served, rec.coop_ops,
                          rec.coop_success, rec.recovered_sent, events, egress}) {
    d.mix(v);
  }
  m.digest = d.h;

  check(m, m.sent > 0, "no application packets sent");
  if (!forward) {
    check(m, service_egress(enc, rec) == egress,
          "service counters do not account for DC egress");
  } else {
    check(m, enc.data_packets == 0 && rec.recovered_sent == 0,
          "path switching reached the coding services");
  }
  m.p99_recovery_ms = recovery_ms.empty() ? 0.0 : recovery_ms.percentile(99.0);

  const PacketPool& pool = shard->pool(0);
  m.exact = recovery_counts(enc, rec)
                .num("sent", m.sent)
                .num("delivered_direct", direct)
                .num("recovered", recovered)
                .num("lost", lost)
                .num("events", events)
                .num("egress", egress)
                .num("recv_nacks_sent", nacks_sent)
                .num("recv_self_decoded", self_decoded)
                .num("recoveries_timed", static_cast<std::uint64_t>(recovery_ms.count()))
                .num("pool_reused", pool.reused())
                .num("pool_fresh", pool.fresh());
  if (kAllocProbe) m.exact.num("allocs", allocs);

  if (tracer) {
    check(m, tracer->nested == 0, "handler spans nest");
    check(m, write_spans(*tracer, opt.spans_file), "cannot write " + opt.spans_file);
    m.trace = span_totals(*tracer);
  }
}

workload::ChurnConfig churn_config(std::uint64_t seed, SimDuration window) {
  workload::ChurnConfig c;
  c.num_pairs = kPaths;
  c.duration = window;
  c.arrivals.kind = workload::ArrivalKind::kPoisson;
  c.arrivals.sessions_per_sec = 1000.0;
  c.mix = workload::AppMix::kWebTransfer;
  c.payload_bytes = 1472;
  c.packets_per_second = 100.0;
  c.max_session_packets = 300;
  c.scenario.coding = coding_params();
  c.scenario.seed = seed;
  c.num_threads = 1;
  return c;
}

void run_churn(const Options& opt, Measured& m) {
  if (opt.setup_only) {
    // run_churn synthesises its paths and builds its shards internally, so
    // a zero-length arrival window times exactly that. Path synthesis has no
    // separate boundary here: build_s includes it and geo_s stays empty.
    const workload::ChurnConfig empty = churn_config(opt.seed, 0);
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const workload::ChurnResult r = workload::run_churn(empty);
      const double s = seconds_since(t0);
      m.build_s.push_back(s);
      m.setup_s.push_back(s);
      check(m, r.totals.sessions_opened == 0, "zero-length churn window opened sessions");
    }
    return;
  }

  const workload::ChurnConfig cfg = churn_config(opt.seed, sec(10));
  const std::uint64_t allocs0 = allocations();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const workload::ChurnResult r = workload::run_churn(cfg);
  m.loop_s = seconds_since(t0);
  m.loop_cpu_s = cpu_seconds() - cpu0;
  const std::uint64_t allocs = allocations() - allocs0;

  const workload::ChurnTotals& t = r.totals;
  m.sent = t.packets_sent;
  m.digest = r.fingerprint();
  check(m, m.sent > 0, "no application packets sent");
  check(m, t.leaked_flows == 0, "leaked flows: " + std::to_string(t.leaked_flows));
  check(m, t.sessions_completed == t.sessions_opened, "sessions left open");
  check(m, t.delivered_direct + t.recovered + t.lost == t.packets_sent,
        "outcomes do not cover sent packets");
  check(m, r.threads_used == 1, "churn ran on more than one thread");
  const std::uint64_t egress = service_egress(r.encoder, r.recovery);
  m.p99_recovery_ms = r.recovery_ms.empty() ? 0.0 : r.recovery_ms.quantile(0.99);
  m.exact = recovery_counts(r.encoder, r.recovery)
                .num("sent", m.sent)
                .num("delivered_direct", t.delivered_direct)
                .num("recovered", t.recovered)
                .num("lost", t.lost)
                .num("events", r.events)
                .num("egress", egress)
                .num("sessions", t.sessions_completed)
                .num("sessions_succeeded", t.sessions_succeeded)
                .num("leaked_flows", t.leaked_flows)
                .num("shards", static_cast<std::uint64_t>(r.shards_used))
                .num("recoveries_timed", r.recovery_ms.count());
  if (kAllocProbe) m.exact.num("allocs", allocs);
}

int usage() {
  std::fprintf(stderr,
               "usage: jqos_perfbench --workload wan_code|wan_forward|churn_web --seed N "
               "[--trace SPANS_FILE] [--setup-only 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (argc % 2 == 0) return usage();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      opt.spans_file = value;
    } else if (flag == "--setup-only") {
      opt.setup_only = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }

  Measured m;
  if (opt.workload == "wan_code" || opt.workload == "wan_forward") {
    run_wan(opt, opt.workload == "wan_forward", m);
  } else if (opt.workload == "churn_web") {
    if (!opt.spans_file.empty()) {
      std::fprintf(stderr, "churn_web has no node-boundary trace (shards are internal)\n");
      return 2;
    }
    run_churn(opt, m);
  } else {
    return usage();
  }

  std::string failures;
  for (const std::string& f : m.failures) failures += (failures.empty() ? "" : "; ") + f;
  Json out;
  out.str("workload", opt.workload)
      .num("seed", opt.seed)
      .num("setup_s", fastest(m.setup_s))
      .num("geo_s", fastest(m.geo_s))
      .num("build_s", fastest(m.build_s));
  if (!opt.setup_only) {
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016" PRIx64, m.digest);
    out.num("loop_s", m.loop_s)
        .num("loop_cpu_s", m.loop_cpu_s)
        .num("peak_rss_mb", peak_rss_mb())
        .num("sent", m.sent)
        .num("p99_recovery_ms", m.p99_recovery_ms)
        .str("digest", digest)
        .obj("exact", m.exact);
  }
  out.str("failures", failures);
  if (!opt.spans_file.empty()) out.obj("trace", m.trace);
  std::printf("%s\n", out.text().c_str());
  return m.failures.empty() ? 0 : 1;
}
