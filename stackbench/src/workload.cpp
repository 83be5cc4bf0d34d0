// Workload definitions, the rep runner and the correctness gate.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "storage/invariant_checker.hpp"

namespace stackbench {

using namespace asa_repro;
using storage::AsaCluster;
using storage::Guid;
using storage::Pid;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

// ---------------------------------------------------------------- spans

std::size_t SpanLog::open(const char* name) {
  spans_.push_back(
      {name, stack_.empty() ? 0 : stack_.back(), wall_seconds(), 0});
  stack_.push_back(spans_.size());
  return spans_.size();
}

void SpanLog::close(std::size_t id) {
  spans_[id - 1].end = wall_seconds();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

double SpanLog::total(const std::string& name) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.end - s.start;
  }
  return sum;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return name == s.name; }));
}

std::string SpanLog::summary() const {
  struct Row {
    std::size_t count = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Row> rows;
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child[s.parent - 1] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = rows[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++row.count;
    row.total += d;
    row.self += d - child[i];
  }
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(3);
  for (const auto& [name, row] : rows) {
    out << "  span " << name << ": count " << row.count << ", total "
        << row.total * 1e3 << " ms, self " << row.self * 1e3 << " ms\n";
  }
  return out.str();
}

// ------------------------------------------------------------ workloads

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w;
    WorkloadSpec steady;
    steady.name = "steady-r4";
    steady.why =
        "mainline commit path at the paper's r=4: Chord, journal and "
        "per-GUID bookkeeping all take real shares, long enough to show "
        "growth";
    steady.operations = 10'000;
    w.push_back(steady);

    WorkloadSpec wide = steady;
    wide.name = "wide-r13";
    wide.why =
        "r=13 (f=4): ~10x messages per commit, ~10 commits per GUID; "
        "network, scheduler, codec and FSM dominate, history costs absent";
    wide.r = 13;
    wide.operations = 2'560;
    w.push_back(wide);

    WorkloadSpec hot;
    hot.name = "hot-contended";
    hot.why =
        "16 zipf-hot GUIDs, open loop, 20% agreed reads, 1% ack loss and "
        "a replica crash/restart: long histories, reads, journal recovery";
    hot.writers = 4;
    hot.guids = 16;
    hot.operations = 6'000;
    hot.zipf = 0.9;
    hot.read_fraction = 0.2;
    hot.open_loop = true;
    hot.ack_loss = 0.01;
    hot.crash_hot_replica = true;
    w.push_back(hot);

    WorkloadSpec observed = steady;
    observed.name = "observed";
    observed.why =
        "steady-r4 with metrics, spans and flight recorder on, exports "
        "rendered in memory: the observability overhead";
    observed.observed = true;
    w.push_back(observed);
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* find_workload(const std::string& name) {
  static std::map<std::string, WorkloadSpec> variants;
  if (const auto it = variants.find(name); it != variants.end()) {
    return &it->second;
  }
  const std::string suffix = "@smoke";
  const bool smoke = name.size() > suffix.size() &&
                     name.ends_with(suffix);
  const std::string base =
      smoke ? name.substr(0, name.size() - suffix.size()) : name;
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name != base) continue;
    if (!smoke) return &spec;
    WorkloadSpec tiny = spec;
    tiny.name = name;
    tiny.operations = std::max(64, spec.operations / 25);
    return &variants.emplace(name, tiny).first->second;
  }
  if (name == "negative-control" || name == "negative-control@honest") {
    // More than f equivocators in one peer set, racing same-GUID appends
    // (the schedule asachaos --equivocators 2 uses): must trip the gate.
    // The @honest twin runs the same schedule with every member honest.
    WorkloadSpec neg;
    neg.name = name;
    neg.why = "more than f equivocators in one peer set";
    neg.nodes = 16;
    neg.writers = 8;
    neg.guids = 2;
    neg.operations = 64;
    neg.equivocators = name == "negative-control" ? 2 : 0;
    neg.serialize_appends = false;
    return &variants.emplace(name, neg).first->second;
  }
  return nullptr;
}

storage::ClusterConfig cluster_config(const WorkloadSpec& spec,
                                      std::uint64_t seed, bool observe) {
  storage::ClusterConfig config;
  config.nodes = spec.nodes;
  config.replication_factor = spec.r;
  config.seed = seed;
  // The deployed retry/abort settings asachaos uses: retries outlast fault
  // windows, and peers abort stalled instances so vote splits resolve.
  config.retry.base_timeout = 80'000;
  config.retry.max_attempts = 30;
  config.abort_scan_interval = 60'000;
  config.abort_max_age = 80'000;
  config.metrics = observe;
  config.spans = observe;
  config.flight_capacity = observe ? 256 : 0;
  return config;
}

void apply_ack_loss(sim::Network& network, const WorkloadSpec& spec) {
  if (spec.ack_loss <= 0.0) return;
  sim::LinkProfile lossy;
  lossy.name = "lossy-ack";
  lossy.loss_good = spec.ack_loss;
  for (std::size_t host = 0; host < spec.nodes; ++host) {
    for (sim::NodeAddr client = AsaCluster::kClientAddrBase + 1;
         client <= AsaCluster::kClientAddrBase + spec.guids; ++client) {
      network.set_link_profile(static_cast<sim::NodeAddr>(host), client,
                               lossy);
    }
  }
}

std::vector<Guid> workload_guids(const WorkloadSpec& spec) {
  std::vector<Guid> guids;
  guids.reserve(spec.guids);
  for (std::uint32_t k = 0; k < spec.guids; ++k) {
    guids.push_back(Guid::named("guid:" + std::to_string(k)));
  }
  return guids;
}

std::vector<std::vector<sim::WorkloadOp>> workload_ops(
    const WorkloadSpec& spec, std::uint64_t seed) {
  sim::WorkloadConfig config;
  config.writers = spec.writers;
  config.keys = spec.guids;
  config.operations = spec.operations;
  config.zipf = spec.zipf;
  config.read_fraction = spec.read_fraction;
  config.open_loop = spec.open_loop;
  return sim::generate_workload(config, seed);
}

OpIssuer::OpIssuer(std::vector<std::vector<sim::WorkloadOp>> ops,
                   bool open_loop, Issue issue)
    : ops_(std::move(ops)), open_loop_(open_loop), issue_(std::move(issue)) {
  for (const auto& writer : ops_) total_ += writer.size();
}

void OpIssuer::start(sim::Scheduler& scheduler) {
  for (std::size_t w = 0; w < ops_.size(); ++w) {
    const std::size_t first = open_loop_ ? ops_[w].size() : 1;
    for (std::size_t i = 0; i < std::min(first, ops_[w].size()); ++i) {
      scheduler.schedule_at(ops_[w][i].at, [this, w, i] { issue(w, i); });
    }
  }
}

void OpIssuer::issue(std::size_t writer, std::size_t index) {
  issue_(ops_[writer][index], writer, index);
}

void OpIssuer::completed(std::size_t writer, std::size_t index) {
  ++done_;
  if (!open_loop_ && index + 1 < ops_[writer].size()) {
    issue(writer, index + 1);
  }
}

// ------------------------------------------------------------------ rep

namespace {

constexpr Time kWindow = 10'000;         // Simulated µs per run window.
constexpr Time kRestartAfter = 500'000;  // Crash to restart, simulated µs.

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

// Taken after every run window; all but `commits` are running totals.
struct Checkpoint {
  double commits;
  double cpu;  // Run phase, gauge slices excluded.
  double gauge_slices;
  double gauge_cpu;
};

// CPU µs per commit in each tenth of the run's commits, interpolating the
// checkpoints. A tenth's CPU is rescaled to the nominal host by the gauge
// slices run within it, if any.
std::array<double, 10> tenths(const std::vector<Checkpoint>& checkpoints,
                              std::uint64_t commits) {
  std::array<double, 10> out{};
  if (commits < 10 || checkpoints.empty()) return out;
  const auto at = [&](double target, double Checkpoint::*field) {
    double prev_c = 0, prev_v = 0;
    for (const Checkpoint& p : checkpoints) {
      if (p.commits >= target) {
        const double span = p.commits - prev_c;
        return span <= 0 ? p.*field
                         : prev_v + (p.*field - prev_v) * (target - prev_c) /
                                        span;
      }
      prev_c = p.commits;
      prev_v = p.*field;
    }
    return prev_v;
  };
  const auto delta = [&](double lo, double hi, double Checkpoint::*field) {
    return at(hi, field) - at(lo, field);
  };
  const double n = static_cast<double>(commits);
  for (int k = 0; k < 10; ++k) {
    const double lo = n * k / 10, hi = n * (k + 1) / 10;
    const double scale =
        HostGauge::scale(delta(lo, hi, &Checkpoint::gauge_slices),
                         delta(lo, hi, &Checkpoint::gauge_cpu),
                         HostGauge::kRunSensitivity);
    out[static_cast<std::size_t>(k)] =
        delta(lo, hi, &Checkpoint::cpu) * scale * 1e6 / (hi - lo);
  }
  return out;
}

}  // namespace

double time_setup(const WorkloadSpec& spec, std::uint64_t seed) {
  const storage::ClusterConfig config =
      cluster_config(spec, seed, spec.observed);
  const double c0 = cpu_seconds();
  auto cluster = std::make_unique<AsaCluster>(config);
  const double elapsed = cpu_seconds() - c0;
  cluster.reset();
  return elapsed;
}

RepResult run_rep(const WorkloadSpec& spec, std::uint64_t seed,
                  const RepOptions& options) {
  RepResult out;
  SpanLog* spans = options.spans;
  const storage::ClusterConfig config =
      cluster_config(spec, seed, options.observe);

  // Client-side inputs (GUIDs, PIDs, schedule) are made before set-up:
  // hashing them is the client's cost, not the stack's.
  const std::vector<Guid> guids = workload_guids(spec);
  auto ops = workload_ops(spec, seed);
  std::vector<std::vector<Pid>> pids(ops.size());
  std::vector<Time> arrivals;
  for (std::size_t w = 0; w < ops.size(); ++w) {
    for (const sim::WorkloadOp& op : ops[w]) {
      arrivals.push_back(op.at);
      pids[w].push_back(op.read ? Pid{}
                                : Pid::of(storage::block_from(
                                      "w" + std::to_string(w) + " op" +
                                      std::to_string(op.sequence) + " seed " +
                                      std::to_string(seed))));
    }
  }

  std::unique_ptr<AsaCluster> cluster;
  {
    ScopedSpan span(spans, "AsaCluster()");
    cluster = std::make_unique<AsaCluster>(config);
  }
  apply_ack_loss(cluster->network(), spec);
  sim::Scheduler& scheduler = cluster->scheduler();
  storage::VersionHistoryService& history = cluster->version_history();
  // One update in flight per GUID, the protocol's supported usage; the
  // negative control races same-GUID appends on purpose.
  history.set_serialize_appends(spec.serialize_appends);
  storage::InvariantChecker checker(*cluster);
  obs::MetricsRegistry ring_counter;
  if (options.count_lookups && !options.observe) {
    cluster->ring().set_metrics(&ring_counter);
  }
  if (spec.equivocators > 0) {
    const std::vector<sim::NodeAddr> members = cluster->peer_set(guids[0]);
    for (std::uint32_t i = 0; i < spec.equivocators && i < members.size();
         ++i) {
      cluster->make_byzantine(members[i], commit::Behaviour::kEquivocator);
    }
  }

  std::map<std::uint32_t, std::uint64_t> committed_per_guid;
  Fingerprint& fp = out.fp;
  std::uint64_t latency_hash = 0xCBF29CE484222325ull;
  std::unique_ptr<OpIssuer> issuer;
  issuer = std::make_unique<OpIssuer>(
      ops, spec.open_loop,
      [&](const sim::WorkloadOp& op, std::size_t w, std::size_t i) {
        // Open loop times from the scheduled arrival; closed loop from the
        // submit (the same instant: the generator never runs late in
        // simulated time).
        const Time due = scheduler.now();
        if (op.read) {
          ScopedSpan span(spans, "read");
          history.read(guids[op.key], [&, w, i, due](
                                          const storage::HistoryReadResult& r) {
            ++fp.reads;
            if (!r.ok) ++fp.reads_failed;
            const Time latency = scheduler.now() - due;
            latency_hash = fnv(latency_hash, latency);
            out.read_latency_ms.push_back(static_cast<double>(latency) / 1e3);
            issuer->completed(w, i);
          });
          return;
        }
        ++fp.appends;
        checker.note_submitted(guids[op.key], pids[w][i].to_uint64());
        ScopedSpan span(spans, "append");
        history.append(
            guids[op.key], pids[w][i],
            [&, w, i, due, key = op.key](const commit::CommitResult& r) {
              if (r.committed) {
                ++fp.commits;
                fp.attempts += r.attempts;
                ++committed_per_guid[key];
                const Time latency = scheduler.now() - due;
                latency_hash = fnv(latency_hash, latency);
                out.commit_latency_ms.push_back(
                    static_cast<double>(latency) / 1e3);
              } else {
                ++fp.failed_appends;
              }
              issuer->completed(w, i);
            });
      });

  // hot-contended: one replica of the hottest GUID crashes halfway through
  // the arrivals, loses its unsynced journal tail, and restarts later.
  std::size_t victim = std::numeric_limits<std::size_t>::max();
  if (spec.crash_hot_replica && !arrivals.empty()) {
    std::nth_element(arrivals.begin(),
                     arrivals.begin() + static_cast<std::ptrdiff_t>(
                                            arrivals.size() / 2),
                     arrivals.end());
    const Time crash_at = arrivals[arrivals.size() / 2];
    victim = cluster->peer_set(guids[0]).back();
    scheduler.schedule_at(crash_at, [&, victim] {
      ScopedSpan span(spans, "crash_node");
      cluster->crash_node(victim);
      if (durable::DurableLog* log = cluster->durable_log(victim)) {
        log->drop_unsynced_tail(std::numeric_limits<std::size_t>::max());
      }
    });
    scheduler.schedule_at(crash_at + kRestartAfter, [&, victim] {
      ScopedSpan span(spans, "restart_node");
      cluster->restart_node(victim);
    });
  }

  // ---- Run phase: windows of simulated time until every op completed.
  std::vector<Checkpoint> checkpoints;
  const double run_c0 = cpu_seconds();
  issuer->start(scheduler);
  // Windows end on absolute deadlines: run_until leaves the clock at the
  // last event it ran while later events are pending.
  double last_slice = 0;
  for (Time deadline = kWindow;
       issuer->done() < issuer->total() && scheduler.pending() > 0;
       deadline += kWindow) {
    {
      ScopedSpan span(spans, "run_until");
      scheduler.run_until(deadline);
    }
    const double run_cpu = cpu_seconds() - run_c0 - out.gauge_cpu_s;
    if (options.gauge != nullptr && run_cpu - last_slice >= kSliceEvery_s) {
      out.gauge_cpu_s += options.gauge->slice();
      ++out.gauge_slices;
      last_slice = run_cpu;
    }
    checkpoints.push_back({static_cast<double>(fp.commits), run_cpu,
                           static_cast<double>(out.gauge_slices),
                           out.gauge_cpu_s});
  }
  {
    ScopedSpan span(spans, "run");
    cluster->run();  // Drain retries, abort scans and acks to quiescence.
  }

  // ---- Counts, before any verification traffic.
  LayerCounts& layers = out.layers;
  const sim::SchedulerStats& sched = scheduler.stats();
  const sim::NetworkStats& net = cluster->network().stats();
  fp.msgs_sent = net.sent;
  fp.events = sched.executed;
  fp.sim_end = scheduler.now();
  layers.events_executed = sched.executed;
  layers.max_queue_depth = sched.max_queue_depth;
  layers.net_sent = net.sent;
  layers.net_delivered = net.delivered;
  layers.net_dropped = net.dropped;
  layers.net_to_dead = net.to_dead_node;
  const std::vector<Guid> known = cluster->known_guids();
  for (std::size_t i = 0; i < cluster->node_count(); ++i) {
    const commit::CommitPeer& peer = cluster->host(i).peer();
    for (const Guid& g : known) {
      fp.resident_instances_end += peer.resident_instances(g.to_uint64());
    }
    const commit::PeerStats& s = peer.stats();
    layers.deliveries += s.updates_received + s.votes_received +
                         s.commits_received - s.duplicates_dropped;
    layers.aborts += s.aborted;
    layers.duplicates_dropped += s.duplicates_dropped;
    const durable::MediumStats& m = cluster->medium(i).stats();
    layers.journal_records += m.appends;
    layers.journal_bytes += m.bytes_written;
    if (const durable::DurableLog* log = cluster->durable_log(i)) {
      const durable::WriterStats& ws = log->writer_stats();
      layers.commit_records += ws.commits_recorded;
      layers.snapshots += ws.snapshots_written;
      if (ws.commits_recorded > 0) {
        layers.node_journals.emplace_back(ws.commits_recorded,
                                          log->histories().size());
      }
    }
  }
  layers.retries = history.total_stats().retries;
  if (victim < cluster->node_count()) {
    layers.replayed_records = cluster->last_recovery(victim).replayed_records;
    layers.entries_recovered =
        cluster->last_recovery(victim).entries_recovered;
  }
  if (options.count_lookups) {
    const obs::Histogram& hops =
        (options.observe ? cluster->metrics() : ring_counter)
            .histogram("chord.route_hops", {}, obs::small_count_buckets());
    layers.lookups = hops.count();
    layers.lookup_hops = hops.sum();
  }

  // ---- observed: snapshot and render every export in memory.
  if (options.observe) {
    const obs::Meta meta{{"tool", "stackbench"},
                         {"workload", spec.name},
                         {"seed", std::to_string(seed)}};
    {
      ScopedSpan span(spans, "snapshot_metrics");
      cluster->snapshot_metrics();
    }
    {
      ScopedSpan span(spans, "write_metrics_json");
      layers.metrics_bytes =
          obs::write_metrics_json(cluster->metrics(), meta).size();
    }
    {
      ScopedSpan span(spans, "write_spans_json");
      layers.spans_bytes =
          obs::write_spans_json(cluster->spans(), meta).size();
    }
    {
      ScopedSpan span(spans, "write_flight_json");
      layers.flight_bytes = cluster->flight().to_json().dump().size();
    }
    layers.flight_events = cluster->flight().total_recorded();
  }
  out.run_cpu_s = cpu_seconds() - run_c0 - out.gauge_cpu_s;
  out.tenth_cpu_us_per_commit = tenths(checkpoints, fp.commits);

  // ---- Correctness gate.
  std::vector<std::string>& violations = out.violations;
  if (issuer->done() < issuer->total()) {
    violations.push_back("liveness: " + std::to_string(issuer->done()) +
                         " of " + std::to_string(issuer->total()) +
                         " operations completed at quiescence");
  }
  std::vector<storage::HistoryReadResult> agreed(guids.size());
  for (std::size_t g = 0; g < guids.size(); ++g) {
    const Time due = scheduler.now();
    ScopedSpan span(spans, "read");
    history.read(guids[g], [&, g, due](const storage::HistoryReadResult& r) {
      agreed[g] = r;
      ++fp.reads;
      if (!r.ok) ++fp.reads_failed;
      const Time latency = scheduler.now() - due;
      latency_hash = fnv(latency_hash, latency);
      out.read_latency_ms.push_back(static_cast<double>(latency) / 1e3);
    });
  }
  {
    ScopedSpan span(spans, "run");
    cluster->run();
  }
  for (std::size_t g = 0; g < guids.size(); ++g) {
    const auto key = static_cast<std::uint32_t>(g);
    const std::uint64_t want =
        committed_per_guid.contains(key) ? committed_per_guid.at(key) : 0;
    if (!agreed[g].ok || agreed[g].versions.size() != want) {
      violations.push_back(
          "read-count: guid:" + std::to_string(g) + " agreed read returned " +
          std::to_string(agreed[g].versions.size()) + " entries (" +
          (agreed[g].ok ? "ok" : "no quorum") + "), " + std::to_string(want) +
          " requests committed");
    }
  }
  // Lost messages can legitimately reorder a laggard's history (see
  // InvariantChecker), so the pairwise order check runs only without loss.
  for (const storage::Violation& v : checker.check(spec.ack_loss == 0.0)) {
    violations.push_back(v.invariant + ": " + v.detail);
  }
  fp.latency_hash = latency_hash;
  return out;
}

}  // namespace stackbench
