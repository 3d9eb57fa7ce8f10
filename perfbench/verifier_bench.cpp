// The verifier benchmark: the SP's real accept path, end to end and per
// layer.
//
// Every run drives cluster::VerifierCluster (two shards) through the frame
// path only. Set-up builds a client fleet, records one pass of traffic
// against a recording cluster and mints every confirmation through real
// PAL sessions (corpus.h). The timed part then replays that corpus into
// fresh clusters, pass after pass, until --seconds have elapsed. A pass:
//
//   1. EnrollBegin for every client, sent in recording order (untimed);
//      then every EnrollComplete in a closed loop, one outstanding per
//      shard (enrolls_per_s, enroll latency).
//   2. Open loop at the workload's --rate transactions/s: each tick sends
//      the TxConfirm of the transaction four ticks earlier (whose
//      challenge has arrived) and one new TxSubmit. Latency runs from the
//      scheduled send time (submit_*_us, confirm_*_us).
//   3. Every blast TxSubmit in recording order (untimed), then their
//      TxConfirms in a closed loop, 32 outstanding per shard
//      (accepts_per_s).
//   4. Durable workloads: a timed restart_shard (recover_ms), after which
//      the cluster must still count every acknowledged accept.
//
// Every reply is compared byte for byte with the recording. Nonce-drawing
// frames (EnrollBegin, TxSubmit) are only ever sent from one thread, in
// recording order; at most two generator threads run beside the two shard
// workers (one per shard in the closed loops, one in the open loop).
//
//   verifier_bench --workload confirm_mem|confirm_durable|enroll_storm
//                  --seed N --seconds S --trace 0|1
//                  --rate WORKLOAD=TX_PER_S[,WORKLOAD=TX_PER_S...]
//                  [--commit ID] [--run-dir DIR]
//
// --rate gives each workload's fixed open-loop rate; a run uses the entry
// for its own workload. Each run also prints the blast's transaction
// capacity (TxSubmits plus TxConfirms, closed loop) and the offered rate as
// a share of it, so the load the open loop applies can be checked.
//
// The last line of standard output is the JSON result. --trace 1 reports
// per-layer metrics instead of end-to-end ones and writes the spans it
// recorded to DIR/trace-<workload>-seed<N>.jsonl.
#include <malloc.h>
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "corpus.h"
#include "layers.h"
#include "stats.h"

namespace perfbench {
namespace {

using namespace tp;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 2;
/// Outstanding requests per shard in the closed loops.
constexpr std::size_t kEnrollWindow = 1;
constexpr std::size_t kConfirmWindow = 32;
/// Replies per rate sample in the confirm blast: a few milliseconds of a
/// shard's work, short enough that one sample rarely straddles a change in
/// the host's speed.
constexpr std::size_t kRateChunk = 32;
/// Open loop: a transaction's TxConfirm is due this many ticks after its
/// TxSubmit.
constexpr std::size_t kConfirmLagTicks = 4;
constexpr std::size_t kMinMeasuredPasses = 3;
constexpr std::size_t kTraceCapacity = 1 << 20;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double rate = 0;  // this workload's open-loop transactions per second
  std::string commit = "unknown";
  fs::path run_dir = ".bench_run";
};

WorkloadSpec spec_for(const std::string& name) {
  using tpm::QuoteFormat;
  WorkloadSpec spec;
  spec.name = name;
  if (name == "confirm_mem" || name == "confirm_durable") {
    spec.clients = 32;
    spec.formats = {QuoteFormat::kTpm12, QuoteFormat::kTpm2};
    spec.open_per_client = 4;
    spec.blast_per_client = 32;
    spec.durable = name == "confirm_durable";
  } else if (name == "enroll_storm") {
    spec.clients = 256;
    spec.formats = {QuoteFormat::kTpm2};
    spec.open_per_client = 1;
    spec.blast_per_client = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------ requests

/// One frame of a pass: the recorded exchange it replays and the instants
/// the generator observed around it.
struct Request {
  const Exchange* ex = nullptr;
  Clock::time_point due{};       // latency origin
  Clock::time_point sent{};      // submit() entered
  Clock::time_point returned{};  // submit() returned (traced passes)
  Clock::time_point done{};      // reply observed
  std::future<svc::SvcResponse> future;
  bool resolved = false;
  bool matched = false;  // kOk and byte-identical to the recording
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // non-kOk status or a reply that differs
  std::uint64_t mismatched = 0;  // kOk, but not the recorded reply

  void merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
  }
};

/// Per shard, the instants a closed loop's replies arrived, in seconds
/// since the loop started.
using ReplyTimes = std::array<std::vector<double>, kShards>;

/// A closed loop's rate: each shard's replies over the time from the
/// common start to its last reply, summed over shards, so the cluster is
/// not capped by the shard that happens to own the most clients.
double loop_rate(const ReplyTimes& times) {
  double rate = 0;
  for (const std::vector<double>& t : times) {
    if (!t.empty() && t.back() > 0) rate += static_cast<double>(t.size()) / t.back();
  }
  return rate;
}

/// Appends, per shard, the reply rate over each run of kRateChunk
/// consecutive replies (the first run starts at the shard's first reply,
/// so the loop's ramp-up is excluded).
void append_chunk_rates(const ReplyTimes& times,
                        std::array<std::vector<double>, kShards>& out) {
  for (std::size_t s = 0; s < kShards; ++s) {
    const std::vector<double>& t = times[s];
    for (std::size_t i = kRateChunk; i < t.size(); i += kRateChunk) {
      const double span = t[i] - t[i - kRateChunk];
      if (span > 0) out[s].push_back(static_cast<double>(kRateChunk) / span);
    }
  }
}

class Pass {
 public:
  Pass(cluster::VerifierCluster& cluster, const Corpus& corpus, bool traced)
      : cluster_(cluster), corpus_(corpus), traced_(traced) {
    const std::vector<std::uint32_t> ids = cluster_.shard_ids();
    for (const ClientInfo& client : corpus_.clients) {
      const auto it = std::find(ids.begin(), ids.end(),
                                cluster_.shard_for(client.id));
      shard_of_.push_back(static_cast<std::size_t>(it - ids.begin()) %
                          kShards);
    }
  }

  void issue(Request& r) {
    Bytes frame = r.ex->request;
    const std::string& id = corpus_.clients[r.ex->client].id;
    r.sent = Clock::now();
    r.future = cluster_.submit(id, std::move(frame));
    if (traced_) r.returned = Clock::now();
  }

  /// Collects a ready reply (r.done already stamped) and checks it
  /// against the recording.
  static void settle(Request& r, Tally& tally) {
    const svc::SvcResponse response = r.future.get();
    ++tally.attempted;
    if (response.status != svc::SvcStatus::kOk) {
      ++tally.failed;
    } else if (response.frame != r.ex->reply) {
      ++tally.failed;
      ++tally.mismatched;
    } else {
      r.matched = true;
    }
    r.resolved = true;
  }

  /// Sends every request from this thread in order, then collects them.
  void send_in_order(std::vector<Request>& reqs, Tally& tally) {
    for (Request& r : reqs) {
      issue(r);
      r.due = r.sent;
    }
    for (Request& r : reqs) {
      r.future.wait();
      r.done = Clock::now();
      settle(r, tally);
    }
  }

  /// Closed loop: one generator thread per shard keeps `window` of that
  /// shard's requests outstanding. A shard answers in FIFO order, so each
  /// thread blocks on its oldest request. Returns, per shard, when each
  /// reply arrived (seconds since the loop's common start, ascending).
  ReplyTimes closed_loop(std::vector<Request>& reqs, std::size_t window,
                         Tally& tally) {
    std::array<std::vector<Request*>, kShards> mine;
    for (Request& r : reqs) mine[shard_of_[r.ex->client]].push_back(&r);
    std::atomic<bool> go{false};
    std::array<Tally, kShards> tallies{};
    const auto body = [&](std::size_t shard) {
      const std::vector<Request*>& queue = mine[shard];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::size_t next = 0;
      const auto send_next = [&] {
        Request& r = *queue[next++];
        issue(r);
        r.due = r.sent;
      };
      while (next < queue.size() && next < window) send_next();
      for (Request* r : queue) {
        r->future.wait();
        r->done = Clock::now();
        settle(*r, tallies[shard]);
        if (next < queue.size()) send_next();
      }
    };
    std::array<std::thread, kShards> threads;
    for (std::size_t s = 0; s < kShards; ++s) threads[s] = std::thread(body, s);
    const Clock::time_point start = Clock::now();
    go.store(true, std::memory_order_release);
    ReplyTimes times;
    for (std::size_t s = 0; s < kShards; ++s) {
      threads[s].join();
      tally.merge(tallies[s]);
      for (const Request* r : mine[s]) {
        times[s].push_back(std::chrono::duration<double>(r->done - start).count());
      }
    }
    return times;
  }

  /// Open loop at `rate` transactions/s from one generator thread: at tick
  /// k it sends confirms[k - kConfirmLagTicks] (once that transaction's
  /// challenge has arrived), then submits[k]; between ticks it polls for
  /// replies. The confirm goes first so its latency does not include the
  /// new submit's work (a journal write, on durable shards). Appends the
  /// generator's lateness per frame to `lag_us`.
  void open_loop(std::vector<Request>& submits, std::vector<Request>& confirms,
                 double rate, Tally& tally, std::vector<double>& lag_us) {
    const std::size_t n = submits.size();
    std::vector<Request*> outstanding;
    const auto poll = [&] {
      for (std::size_t i = 0; i < outstanding.size();) {
        Request& r = *outstanding[i];
        if (r.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++i;
          continue;
        }
        r.done = Clock::now();
        settle(r, tally);
        outstanding[i] = outstanding.back();
        outstanding.pop_back();
      }
    };
    const auto send = [&](Request& r, Clock::time_point due) {
      r.due = due;
      issue(r);
      lag_us.push_back(us_between(due, r.sent));
      outstanding.push_back(&r);
    };
    const auto period = std::chrono::duration<double>(1.0 / rate);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t k = 0; k < n + kConfirmLagTicks; ++k) {
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   period * static_cast<double>(k));
      while (Clock::now() < due) poll();
      if (k >= kConfirmLagTicks) {
        const std::size_t j = k - kConfirmLagTicks;
        while (!submits[j].resolved) poll();
        send(confirms[j], due);
      }
      if (k < n) send(submits[k], due);
    }
    while (!outstanding.empty()) poll();
  }

  /// Clients per shard (for the run metadata).
  std::array<std::size_t, kShards> clients_per_shard() const {
    std::array<std::size_t, kShards> n{};
    for (const std::size_t s : shard_of_) ++n[s];
    return n;
  }

 private:
  cluster::VerifierCluster& cluster_;
  const Corpus& corpus_;
  bool traced_;
  std::vector<std::size_t> shard_of_;  // per client
};

std::vector<Request> requests_for(const std::vector<Exchange>& frames) {
  std::vector<Request> reqs(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) reqs[i].ex = &frames[i];
  return reqs;
}

// ------------------------------------------------------------- process

struct ProcIo {
  std::uint64_t syscw = 0;
  std::uint64_t wchar = 0;
};

ProcIo read_proc_io() {
  ProcIo io;
  std::ifstream in("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "syscw:") io.syscw = value;
    if (key == "wchar:") io.wchar = value;
  }
  return io;
}

/// Drops freed heap pages and restarts the VmHWM window at the current
/// resident size, so a later peak_rss_mb() covers only what follows.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

std::string filesystem_type(const fs::path& dir) {
  struct statfs info {};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

// ----------------------------------------------------------------- run

/// Latency samples split by the client's quote format.
using PerFormat = std::array<std::vector<double>, tpm::kNumQuoteFormats>;

std::vector<double> pooled(const PerFormat& samples) {
  std::vector<double> all;
  for (const std::vector<double>& v : samples) {
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

struct RunState {
  Tally tally;
  std::uint64_t invariant_failures = 0;
  std::size_t measured_passes = 0;
  std::array<std::size_t, kShards> clients_per_shard{};

  std::vector<double> submit_us, enroll_us, lag_us;
  PerFormat confirm_us;
  /// Per shard, the blast's reply rate over runs of kRateChunk replies.
  std::array<std::vector<double>, kShards> accept_chunk_rates;
  /// Per measured pass: the enrollment loop's rate; per durable pass: the
  /// restart time.
  std::vector<double> enrolls_per_s, recover_ms;
  /// Per measured pass: blast transactions (TxSubmit + TxConfirm) over the
  /// blast's wall time, the cluster's closed-loop transaction capacity.
  std::vector<double> tx_capacity_per_s;

  // Traced passes only (every other pass of a --trace 1 run).
  std::vector<double> submit_call_us;
  PerFormat confirm_reply_wait_us, traced_confirm_sent_us;
  PerFormat traced_confirm_us, untraced_confirm_us;
  double batch_sum = 0, batch_count = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t io_write_calls = 0, io_write_bytes = 0, io_accepts = 0;
  // Every measured pass.
  std::uint64_t sessions_evicted = 0, rejects = 0;
};

void trace_requests(Trace& trace, const std::vector<Request>& reqs,
                    std::uint64_t& serial) {
  for (const Request& r : reqs) {
    const std::uint64_t id = ++serial;
    const std::uint32_t root = trace.add("request", r.due, r.done, 0, id);
    trace.add("cluster.submit", r.sent, r.returned, root, id);
    trace.add("cluster.reply_wait", r.returned, r.done, root, id);
  }
}

/// One pass into a fresh cluster. `measured` passes feed the metrics;
/// `traced` ones also feed the per-layer numbers and the span log.
void run_pass(const Corpus& corpus, const Options& options,
              const fs::path& journal, bool measured, bool traced,
              RunState& state, Trace* trace, std::uint64_t& serial) {
  auto cluster = std::make_unique<cluster::VerifierCluster>(
      cluster_config(corpus, journal));
  cluster->start();
  Pass pass(*cluster, corpus, traced);
  state.clients_per_shard = pass.clients_per_shard();
  Tally tally;

  std::vector<Request> enroll_begin = requests_for(corpus.enroll_begin);
  pass.send_in_order(enroll_begin, tally);
  std::vector<Request> enroll_complete = requests_for(corpus.enroll_complete);
  const double enrolls_per_s =
      loop_rate(pass.closed_loop(enroll_complete, kEnrollWindow, tally));

  std::vector<Request> open_submit = requests_for(corpus.open_submit);
  std::vector<Request> open_confirm = requests_for(corpus.open_confirm);
  std::vector<double> lag_us;
  pass.open_loop(open_submit, open_confirm, options.rate, tally, lag_us);

  std::vector<Request> blast_submit = requests_for(corpus.blast_submit);
  const Clock::time_point blast_start = Clock::now();
  pass.send_in_order(blast_submit, tally);
  std::vector<Request> blast_confirm = requests_for(corpus.blast_confirm);
  const ProcIo io_before = read_proc_io();
  const ReplyTimes blast_times =
      pass.closed_loop(blast_confirm, kConfirmWindow, tally);
  const ProcIo io_after = read_proc_io();
  const double blast_s =
      std::chrono::duration<double>(Clock::now() - blast_start).count();

  // The cluster's own books must agree with what the generator saw: every
  // acknowledged accept counted, every client enrolled.
  std::uint64_t acked = 0;
  for (const auto* reqs : {&open_confirm, &blast_confirm}) {
    for (const Request& r : *reqs) acked += r.matched ? 1 : 0;
  }
  const auto books_balance = [&](const sp::SpStats& stats) {
    return stats.tx_accepted == acked &&
           stats.enrolled == corpus.clients.size();
  };
  const sp::SpStats stats = cluster->stats();
  if (!books_balance(stats)) ++state.invariant_failures;

  if (traced) {
    for (const std::uint32_t id : cluster->shard_ids()) {
      obs::Registry& registry = cluster->shard_service(id).metrics();
      for (const auto& h : registry.histograms()) {
        if (h.name == "svc.batch_size") {
          state.batch_sum += static_cast<double>(h.snapshot.sum);
          state.batch_count += static_cast<double>(h.snapshot.count);
        }
      }
      state.backpressure_waits +=
          registry.counter_total("svc.backpressure_waits");
    }
  }

  double restart_ms = 0;
  if (corpus.spec.durable) {
    const Clock::time_point start = Clock::now();
    cluster->restart_shard(cluster->shard_ids().front());
    restart_ms = us_between(start, Clock::now()) / 1000.0;
    if (!books_balance(cluster->stats())) ++state.invariant_failures;
  }
  cluster.reset();

  state.tally.merge(tally);
  if (!measured) return;
  ++state.measured_passes;
  state.sessions_evicted += stats.sessions_evicted;
  state.rejects += stats.total_rejects();
  state.enrolls_per_s.push_back(enrolls_per_s);
  append_chunk_rates(blast_times, state.accept_chunk_rates);
  state.tx_capacity_per_s.push_back(
      static_cast<double>(blast_submit.size()) / blast_s);
  if (corpus.spec.durable) state.recover_ms.push_back(restart_ms);
  // Enrollment latency is a TPM 2.0 figure: a 1.2 enrollment costs the SP
  // two orders of magnitude less, so a mixed population's latencies are
  // bimodal and their median would flip between the modes.
  std::vector<double> enroll_us;
  for (const Request& r : enroll_complete) {
    if (corpus.clients[r.ex->client].format == tpm::QuoteFormat::kTpm2) {
      enroll_us.push_back(us_between(r.sent, r.done));
    }
  }
  state.enroll_us.insert(state.enroll_us.end(), enroll_us.begin(),
                         enroll_us.end());
  for (const Request& r : open_submit) {
    state.submit_us.push_back(us_between(r.due, r.done));
  }
  for (const Request& r : open_confirm) {
    const double us = us_between(r.due, r.done);
    const std::size_t f =
        tpm::quote_format_index(corpus.clients[r.ex->client].format);
    state.confirm_us[f].push_back(us);
    (traced ? state.traced_confirm_us : state.untraced_confirm_us)[f]
        .push_back(us);
  }
  state.lag_us.insert(state.lag_us.end(), lag_us.begin(), lag_us.end());
  if (!traced) return;

  for (const auto* reqs : {&open_submit, &open_confirm}) {
    for (const Request& r : *reqs) {
      state.submit_call_us.push_back(us_between(r.sent, r.returned));
    }
  }
  for (const Request& r : open_confirm) {
    const std::size_t f =
        tpm::quote_format_index(corpus.clients[r.ex->client].format);
    state.confirm_reply_wait_us[f].push_back(us_between(r.returned, r.done));
    state.traced_confirm_sent_us[f].push_back(us_between(r.sent, r.done));
  }
  state.io_write_calls += io_after.syscw - io_before.syscw;
  state.io_write_bytes += io_after.wchar - io_before.wchar;
  state.io_accepts += blast_confirm.size();
  if (trace != nullptr) {
    for (const auto* reqs : {&enroll_begin, &enroll_complete, &open_submit,
                             &open_confirm, &blast_submit, &blast_confirm}) {
      trace_requests(*trace, *reqs, serial);
    }
  }
}

// -------------------------------------------------------------- output

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int run(const Options& options) {
  const WorkloadSpec spec = spec_for(options.workload);
  const fs::path root =
      options.run_dir / (options.workload + "-" + std::to_string(getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  const Clock::time_point setup_start = Clock::now();
  const Corpus corpus = record_corpus(spec, options.seed, root / "record");
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - setup_start).count();
  // The high-water mark so far is set-up's (fleet, recording cluster,
  // corpus). Only the corpus is still alive; restart the mark so that
  // peak_rss_mb covers the timed passes alone.
  const double setup_peak_rss_mb = peak_rss_mb();
  reset_peak_rss();

  std::unique_ptr<Trace> trace;
  if (options.trace) trace = std::make_unique<Trace>(kTraceCapacity);
  RunState state;
  std::uint64_t serial = 0;
  fs::path journal;
  const Clock::time_point timed_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - timed_start).count();
    if (pass > kMinMeasuredPasses && elapsed >= options.seconds) break;
    // Journals are deleted only after the timed part: on a filesystem
    // mounted with online discard, deleting files queues TRIMs that hold
    // up the next journal commits, so a deletion would slow the following
    // pass's fdatasyncs.
    journal = root / ("pass" + std::to_string(pass));
    // Pass 0 warms caches and lazy set-up; a traced run traces every
    // other pass so the untraced ones give its overhead.
    const bool measured = pass > 0;
    const bool traced = options.trace && pass % 2 == 1;
    run_pass(corpus, options, journal, measured, traced, state, trace.get(),
             serial);
  }

  LayerCosts layers;
  if (options.trace) {
    layers = measure_layers(corpus, root / "layers", journal, trace.get());
  }
  fs::remove_all(root);

  const Summary submit = summarize(state.submit_us);
  const Summary confirm = summarize(pooled(state.confirm_us));
  const double confirm_p50_us = group_median(state.confirm_us);
  const Summary enroll = summarize(state.enroll_us);
  const Summary lag = summarize(state.lag_us);
  // The blast's rate is each shard's median over short runs of replies,
  // summed over shards: a whole-pass window would mix the ramp-up, the
  // tail after the lighter shard runs dry, and any change in the host's
  // speed during the pass.
  double accepts_per_s = 0;
  for (const std::vector<double>& rates : state.accept_chunk_rates) {
    accepts_per_s += median(rates);
  }
  const double enrolls_per_s = median(state.enrolls_per_s);
  const double tx_capacity_per_s = median(state.tx_capacity_per_s);
  const bool correct = state.tally.mismatched == 0 &&
                       state.invariant_failures == 0 &&
                       layers.mismatches == 0;
  const double failed_frac =
      state.tally.attempted == 0
          ? 0
          : static_cast<double>(state.tally.failed) /
                static_cast<double>(state.tally.attempted);

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, const char* unit) {
    metrics.push_back(Metric{std::move(name), value, unit});
  };
  if (!options.trace) {
    add("setup_s", setup_s, "s");
    add("accepts_per_s", accepts_per_s, "1/s");
    add("confirm_p50_us", confirm_p50_us, "us");
    add("enroll_p50_us", enroll.p50, "us");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const double submit_call = median(state.submit_call_us);
    const double reply_wait = group_median(state.confirm_reply_wait_us);
    const double svc_overhead = reply_wait - layers.sp_confirm_p50_us;
    const double untraced = group_median(state.untraced_confirm_us);
    const double overhead_pct =
        untraced > 0 ? 100.0 *
                           (group_median(state.traced_confirm_us) - untraced) /
                           untraced
                     : 0;
    add("cluster.submit_call_us", submit_call, "us");
    add("cluster.reply_wait_us", reply_wait, "us");
    add("svc.overhead_us", svc_overhead, "us");
    add("svc.batch_mean",
        state.batch_count > 0 ? state.batch_sum / state.batch_count : 0,
        "count");
    add("svc.backpressure_waits",
        static_cast<double>(state.backpressure_waits), "count");
    for (const Metric& m : layers.metrics) {
      if (m.name.rfind("sp.", 0) == 0) metrics.push_back(m);
    }
    add("sp.sessions_evicted", static_cast<double>(state.sessions_evicted),
        "count");
    add("sp.rejects", static_cast<double>(state.rejects), "count");
    for (const Metric& m : layers.metrics) {
      if (m.name.rfind("sp.", 0) != 0) metrics.push_back(m);
    }
    const double io_accepts = static_cast<double>(state.io_accepts);
    add("store.write_calls_per_tx",
        io_accepts > 0 ? static_cast<double>(state.io_write_calls) / io_accepts
                       : 0,
        "count");
    add("store.bytes_written_per_tx",
        io_accepts > 0 ? static_cast<double>(state.io_write_bytes) / io_accepts
                       : 0,
        "B");
    add("bench.generator_lag_us", lag.p99, "us");
    add("bench.trace_overhead_pct", overhead_pct, "%");
    add("failed_frac", failed_frac, "ratio");
    add("bench.setup_peak_rss_mb", setup_peak_rss_mb, "MB");
    add("recover_ms", median(state.recover_ms), "ms");
    // Figures kept as per-layer numbers because they did not repeat from
    // run to run: the tails (fdatasync and scheduler outliers), the submit
    // median, and the enrollment rate, which enroll_p50_us already covers
    // (see README.md).
    add("enrolls_per_s", enrolls_per_s, "1/s");
    add("submit_p50_us", submit.p50, "us");
    add("confirm_p99_us", confirm.p99, "us");
    add("submit_p99_us", submit.p99, "us");
    add("enroll_p99_us", enroll.p99, "us");

    // Stage medians of an open-loop TxConfirm beside its end-to-end
    // median (traced passes).
    const double stages[] = {submit_call, svc_overhead, layers.decode_p50_us,
                             layers.verify_p50_us, layers.self_p50_us};
    const char* stage_names[] = {"cluster.submit_call", "svc.overhead",
                                 "core.decode", "tpm.verify", "sp.self"};
    double sum = 0;
    std::printf("stage medians, open-loop TxConfirm (%s):\n",
                options.workload.c_str());
    for (std::size_t i = 0; i < 5; ++i) {
      std::printf("  %-22s %10.2f us\n", stage_names[i], stages[i]);
      sum += stages[i];
    }
    std::printf("  %-22s %10.2f us\n", "sum of stages", sum);
    std::printf("  %-22s %10.2f us (n=%zu)\n", "end-to-end from send",
                group_median(state.traced_confirm_sent_us),
                pooled(state.traced_confirm_sent_us).size());
    std::printf("  %-22s %10.2f us (from scheduled time)\n",
                "end-to-end from due", group_median(state.traced_confirm_us));
    std::printf("  %-22s %10.2f %%\n", "bench.trace_overhead_pct",
                overhead_pct);
    const fs::path trace_path =
        options.run_dir / ("trace-" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl");
    if (!trace->write(trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    }
    std::printf("trace: %zu spans (%zu dropped) -> %s\n", trace->size(),
                trace->dropped(), trace_path.c_str());
  }

  // Human-readable lines, then run metadata, then the result.
  std::printf("%s: %zu measured passes, setup %.2f s\n",
              options.workload.c_str(), state.measured_passes, setup_s);
  const auto timing_line = [](const char* what, const Summary& s) {
    if (s.p99_valid) {
      std::printf("  %-8s p50 %9.1f us  p99 %9.1f us  n=%zu\n", what, s.p50,
                  s.p99, s.n);
    } else {
      std::printf("  %-8s p50 %9.1f us  p%.1f %9.1f us (p99 needs n>=1000)  "
                  "n=%zu\n",
                  what, s.p50, 100 * s.high_q, s.high, s.n);
    }
  };
  timing_line("submit", submit);
  timing_line("confirm", confirm);
  std::printf("  confirm  p50 by format, averaged: %.1f us\n", confirm_p50_us);
  timing_line("enroll", enroll);
  std::printf("  accepts/s %.0f (n=%zu+%zu rate samples), enrolls/s %.1f "
              "(n=%zu passes)\n",
              accepts_per_s, state.accept_chunk_rates[0].size(),
              state.accept_chunk_rates[1].size(), enrolls_per_s,
              state.enrolls_per_s.size());
  std::printf("  blast capacity %.0f tx/s (median of %zu passes); offered %.0f "
              "tx/s = %.1f%% of it\n",
              tx_capacity_per_s, state.tx_capacity_per_s.size(), options.rate,
              100.0 * options.rate / tx_capacity_per_s);

  std::ostringstream meta;
  meta << "{\"meta\":{\"workload\":" << json_string(options.workload)
       << ",\"seed\":" << options.seed
       << ",\"offered_rate_tx_per_s\":" << number(options.rate)
       << ",\"blast_capacity_tx_per_s\":" << number(tx_capacity_per_s)
       << ",\"nproc\":" << cpu_count()
       << ",\"commit\":" << json_string(options.commit)
       << ",\"build_type\":" << json_string(PERFBENCH_BUILD_TYPE)
       << ",\"compiler\":" << json_string(PERFBENCH_COMPILER)
       << ",\"journal_fs\":" << json_string(filesystem_type(options.run_dir))
       << ",\"shards\":" << kShards << ",\"clients\":" << spec.clients
       << ",\"clients_per_shard\":[" << state.clients_per_shard[0] << ","
       << state.clients_per_shard[1] << "]"
       << ",\"durable\":" << (spec.durable ? "true" : "false")
       << ",\"tpm12_confirm_key\":\"RSA-" << kConfirmKeyBits << "\""
       << ",\"tpm12_aik_and_ca_key\":\"RSA-" << kTpmKeyBits << "\""
       << ",\"tpm2_keys\":\"P-256\""
       << ",\"frames_per_pass\":" << corpus.frames_per_pass()
       << ",\"measured_passes\":" << state.measured_passes
       << ",\"invariant_failures\":" << state.invariant_failures
       << ",\"mismatched_replies\":"
       << state.tally.mismatched + layers.mismatches << "},\"samples\":{"
       << "\"submit_us\":" << submit.n << ",\"confirm_us\":" << confirm.n
       << ",\"enroll_us\":" << enroll.n
       << ",\"confirm_p99_supported\":" << (confirm.p99_valid ? "true" : "false")
       << ",\"enroll_p99_supported\":" << (enroll.p99_valid ? "true" : "false")
       << ",\"accept_rate_samples\":"
       << state.accept_chunk_rates[0].size() + state.accept_chunk_rates[1].size()
       << ",\"enroll_rate_samples\":" << state.enrolls_per_s.size()
       << ",\"restarts\":" << state.recover_ms.size()
       << ",\"generator_lag_us\":" << lag.n << "}}";
  std::printf("%s\n", meta.str().c_str());

  std::ostringstream result;
  result << "{\"correct\":" << (correct ? "true" : "false")
         << ",\"attempted\":" << state.tally.attempted
         << ",\"failed\":" << state.tally.failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    result << (i == 0 ? "" : ",") << json_string(metrics[i].name)
           << ":{\"value\":" << number(metrics[i].value)
           << ",\"unit\":" << json_string(metrics[i].unit) << "}";
  }
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct && state.tally.failed == 0 ? 0 : 1;
}

/// The rate `rates` ("name=tx_per_s,name=tx_per_s,...") gives `workload`,
/// or 0 when it names none.
double rate_for(const std::string& rates, const std::string& workload) {
  std::istringstream in(rates);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    const std::size_t eq = entry.find('=');
    if (eq != std::string::npos && entry.substr(0, eq) == workload) {
      return std::stod(entry.substr(eq + 1));
    }
  }
  return 0;
}

Options parse_args(int argc, char** argv) {
  Options options;
  std::string rates;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--rate") {
      rates = value;
    } else if (arg == "--commit") {
      options.commit = value;
    } else if (arg == "--run-dir") {
      options.run_dir = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  options.rate = rate_for(rates, options.workload);
  if (options.workload.empty() || !(options.rate > 0) ||
      !(options.seconds > 0)) {
    throw std::invalid_argument(
        "usage: verifier_bench --workload NAME --seed N --seconds S "
        "--trace 0|1 --rate NAME=TX_PER_S[,NAME=TX_PER_S...] [--commit ID] "
        "[--run-dir DIR]");
  }
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verifier_bench: %s\n", e.what());
    return 2;
  }
}
