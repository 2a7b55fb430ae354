// The MISTIQUE benchmark program. One run: set up the workload's store
// and loopback server (several times, to time set-up), run the closed-loop
// window, check every answer, print the metrics, and end with one JSON
// line. Usage (normally through run.py, which builds this first):
//
//   perfbench --workload <warm_query|cold_query|ingest_mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the window
// half untraced and half traced and reports the per-layer metrics and
// ledger. README.md has the full description.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "ledger.h"
#include "obs/metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace obs = mistique::obs;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

// Every statistic of an empty sample, and every ratio over a zero base,
// is NaN: Put() refuses it, so no gated figure can read 0 for lack of data.
constexpr double kNoData = std::numeric_limits<double>::quiet_NaN();

double Median(std::vector<double> v) {
  if (v.empty()) return kNoData;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return kNoData;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? kNoData : s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : kNoData; }

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PrintStamp(const Args& args) {
  std::string model = "unknown";
  std::string flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto value = [&] { return line.substr(line.find(':') + 2); };
    if (model == "unknown" && line.rfind("model name", 0) == 0) model = value();
    if (flags.empty() && line.rfind("flags", 0) == 0) flags = value();
  }
  flags.push_back(' ');
  std::string have;
  for (const char* f : {"sse4_2", "avx2", "pclmulqdq"}) {
    const bool on = flags.find(std::string(f) + " ") != std::string::npos;
    have += std::string(" ") + f + (on ? "=yes" : "=no");
  }
  const char* git = std::getenv("PERFBENCH_GIT");
  std::printf("machine: nproc=%u cpu=\"%s\"%s\n",
              std::thread::hardware_concurrency(), model.c_str(),
              have.c_str());
  std::printf("build: compiler=\"%s\" cmake_build_type=%s git=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              git != nullptr ? git : "unknown");
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d clients=%d "
              "workers=%zu loop=closed sync_writes=on\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, kClients, kWorkers);
}

// CPU time the hypervisor gave to other guests (the steal column of
// /proc/stat, summed over CPUs), in seconds; NaN where it cannot be read.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  stat >> cpu;
  for (uint64_t& x : v) stat >> x;
  if (!stat || cpu != "cpu") return kNoData;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// Median round trip of a wake-up between two threads that sleep on a
// condition variable, in microseconds: how fast this machine hands work
// from one thread to another, which is most of a warm request's path.
double WakeRoundTripUs() {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // 1: the echo thread's move, 0: the timing thread's
  constexpr int kTrips = 1000;
  std::thread echo([&] {
    for (int i = 0; i < kTrips; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == 1; });
      turn = 0;
      cv.notify_all();
    }
  });
  std::vector<double> us;
  for (int i = 0; i < kTrips; ++i) {
    const Clock::time_point start = Clock::now();
    std::unique_lock<std::mutex> lock(mu);
    turn = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return turn == 0; });
    us.push_back(SecondsSince(start) * 1e6);
  }
  echo.join();
  return Median(us);
}

// Counters read around a measured phase.
struct Counters {
  mistique::ServiceStats service;
  uint64_t disk_bytes = 0;
  uint64_t single_flight_waits = 0;
  std::map<std::string, uint64_t> obs;
};

const char* const kObsCounters[] = {
    "mistique_buffer_pool_hits_total",
    "mistique_buffer_pool_loads_total",
    "mistique_fetch_total",
    "mistique_fetch_rerun_total",
    "mistique_engine_cache_hits_total",
    "mistique_engine_cache_lookups_total",
    "mistique_cost_model_mispredictions_total",
    "mistique_scan_packed_blocks_total",
    "mistique_scan_decode_blocks_total",
};

Counters ReadCounters(Serving* serving, Mistique* engine) {
  Counters c;
  c.service = serving->service().Stats();
  c.disk_bytes = engine->store().disk_read_bytes();
  c.single_flight_waits = engine->store().single_flight_waits();
  for (const char* name : kObsCounters) {
    c.obs[name] = obs::GlobalMetrics().GetCounter(name, "")->Value();
  }
  return c;
}

struct Delta {
  const Counters& a;
  const Counters& b;
  double obs(const char* name) const {
    return static_cast<double>(b.obs.at(name) - a.obs.at(name));
  }
  double disk_bytes() const {
    return static_cast<double>(b.disk_bytes - a.disk_bytes);
  }
};

// Runs `fn(c)` on one thread per client and joins them all.
template <typename Fn>
void OnClients(const Fn& fn) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

// Loads every partition into the pool by touching one row of every
// column of every intermediate, in process.
Status TouchAll(Mistique* engine) {
  for (const auto& model : engine->ExportCatalog().models) {
    for (const auto& interm : model.intermediates) {
      FetchRequest req;
      req.project = model.project;
      req.model = model.name;
      req.intermediate = interm.name;
      req.row_ids = {0};
      req.force_read = true;
      MISTIQUE_RETURN_NOT_OK(engine->Fetch(req).status());
    }
  }
  return Status::OK();
}

struct ClientLog {
  std::vector<OpRecord> ops;
  std::vector<Breakdown> traced;  ///< traced ops that succeeded
  std::vector<FetchResult> kept;  ///< traced fetch responses, for replay
};

struct Metric {
  double value;
  const char* unit;
};

// Prints one metric line and records it for the JSON result. A metric
// without data (NaN) is printed as such and fails the run in Run().
void Put(std::map<std::string, Metric>* out, const std::string& name,
         double value, const char* unit, const std::string& note = "") {
  (*out)[name] = {value, unit};
  std::printf("  %-32s %14.6g %-6s %s\n", name.c_str(), value, unit,
              std::isfinite(value) ? note.c_str() : "NO DATA");
}

void PrintJson(bool correct, size_t attempted, size_t failed,
               const std::map<std::string, Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

std::string Base(double num, double den) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(%.0f / %.0f)", num, den);
  return buf;
}

int Fail(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  return 1;
}

int Run(const Args& args) {
  RunSeconds();  // start the run clock
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const bool ingest = spec.kind == WorkloadKind::kIngestMixed;
  const bool traced = args.trace == 1;
  const char* workdir_env = std::getenv("PERFBENCH_WORKDIR");
  const std::string workdir =
      workdir_env != nullptr ? workdir_env : ".bench_build/perfbench-work";
  const std::string rundir =
      workdir + "/" + spec.name + "-" + std::to_string(getpid());
  const std::string repro = "repro: python3 perfbench/run.py --workload " +
                            args.workload + " --seed " +
                            std::to_string(args.seed) + " --seconds " +
                            std::to_string(static_cast<int>(args.seconds)) +
                            " --trace " + std::to_string(args.trace);
  PrintStamp(args);
  // Removes the run's directory however the run ends.
  struct RunDir {
    std::string path;
    ~RunDir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } rundir_guard{rundir};

  // ---- Set-up, repeated: the median is setup_s, and every generation
  // must produce the same store.
  std::vector<double> setup_sec;
  std::vector<double> setup_ckpt_sec;
  std::vector<std::pair<uint64_t, size_t>> generations;
  std::unique_ptr<BenchStore> store;
  std::unique_ptr<Serving> serving;
  KeyPool pool;
  size_t pool_bytes = mistique::DataStoreOptions{}.memory_budget_bytes;
  double decompressed = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    serving.reset();
    store.reset();
    const Clock::time_point start = Clock::now();
    const bool last = i == kSetupRepeats - 1;
    auto built = BenchStore::Build(spec, args.seed,
                                   rundir + "/setup" + std::to_string(i),
                                   traced && last);
    if (!built.ok()) return Fail("set-up", built.status());
    store = std::move(built).ValueOrDie();
    generations.emplace_back(store->StoredBytes(), store->Partitions());
    // Read before any reopen: a reopened engine counts from zero.
    decompressed = static_cast<double>(store->DecompressedBytes());
    const std::vector<double>& ck = store->checkpoint_seconds();
    setup_ckpt_sec.insert(setup_ckpt_sec.end(), ck.begin(), ck.end());
    if (spec.kind == WorkloadKind::kColdQuery) {
      pool_bytes = static_cast<size_t>(decompressed / 8);
      const Status st = store->Reopen(pool_bytes);
      if (!st.ok()) return Fail("reopen", st);
    }
    auto started = Serving::Start(store->engine());
    if (!started.ok()) return Fail("server start", started.status());
    serving = std::move(started).ValueOrDie();
    if (spec.kind == WorkloadKind::kWarmQuery) {
      pool = BuildKeyPool(store->shape(), store->checkpoints(), args.seed);
      const Status st = TouchAll(store->engine());
      if (!st.ok()) return Fail("warm-up", st);
    }
    std::atomic<size_t> warmup_failed{0};
    OnClients([&](int c) {
      RequestStream stream(spec, store->shape(), &pool,
                           StreamSeed(args.seed, 100 + c));
      for (int k = 0; k < kWarmupOpsPerClient; ++k) {
        const OpKey key = stream.Next(store->checkpoints());
        if (!RunOp(serving->client(c), key, store->shape(), nullptr, nullptr)
                 .ok) {
          warmup_failed++;
        }
      }
    });
    if (warmup_failed > 0) {
      return Fail("warm-up", Status::Internal(std::to_string(warmup_failed) +
                                              " ops failed"));
    }
    setup_sec.push_back(SecondsSince(start));
  }

  // ---- Seed determinism self-check.
  const StoreShape& shape = store->shape();
  const int initial = store->checkpoints();
  const auto digest = [&](uint64_t seed) {
    const KeyPool p = BuildKeyPool(shape, initial, seed);
    return RequestDigest(spec, shape, &p, StreamSeed(seed, 0), initial, 512);
  };
  const uint64_t d1 = digest(args.seed);
  const uint64_t d2 = digest(args.seed);
  const uint64_t d3 = digest(args.seed + 1);
  bool same_store = true;
  for (const auto& g : generations) same_store &= g == generations.front();
  const bool deterministic = same_store && d1 == d2 && d1 != d3;
  std::printf("determinism: %d generations stored %llu bytes in %zu "
              "partitions each: %s; request digest %016llx twice: %s; "
              "seed+1 digest %016llx differs: %s\n",
              kSetupRepeats,
              static_cast<unsigned long long>(generations.front().first),
              generations.front().second, same_store ? "yes" : "NO",
              static_cast<unsigned long long>(d1), d1 == d2 ? "yes" : "NO",
              static_cast<unsigned long long>(d3), d1 != d3 ? "yes" : "NO");

  std::printf("store: stored %.2f MB on disk, decompressed %.2f MB, raw "
              "%.2f MB, %zu partitions; pool %.2f MB; decompressed/pool = "
              "%.2f -> %s\n",
              store->StoredBytes() / 1e6, decompressed / 1e6,
              store->RawBytes() / 1e6, store->Partitions(), pool_bytes / 1e6,
              decompressed / pool_bytes,
              decompressed <= pool_bytes ? "fits" : "does not fit");

  // ---- The timed window. A traced run spends its first half untraced
  // (the overhead baseline) and its second half traced.
  Mistique* engine = store->engine();
  const double wake_us = WakeRoundTripUs();
  const double steal_start = StealSeconds();
  const double window_start = RunSeconds();
  const double window_end = window_start + args.seconds;
  const double traced_start =
      traced ? window_start + args.seconds / 2 : window_end;
  std::atomic<int> visible{store->checkpoints()};
  std::vector<double> window_ckpt_sec;
  size_t publish_waits_before = store->publish_wait_seconds().size();
  Status trainer_status;
  std::thread trainer;
  if (ingest) {
    trainer = std::thread([&] {
      while (RunSeconds() < window_end) {
        Result<double> logged = store->LogCheckpoint(store->checkpoints());
        if (!logged.ok()) {
          trainer_status = logged.status();
          return;
        }
        visible.store(store->checkpoints(), std::memory_order_release);
        if (RunSeconds() <= window_end) window_ckpt_sec.push_back(*logged);
      }
    });
  }
  SpanLog spans;
  std::vector<ClientLog> logs(kClients);
  Counters at_start = ReadCounters(serving.get(), engine);
  Counters at_traced = at_start;
  std::thread clients([&] {
    OnClients([&](int c) {
      RequestStream stream(spec, shape, &pool, StreamSeed(args.seed, c));
      ClientLog& log = logs[c];
      while (true) {
        const double now = RunSeconds();
        if (now >= window_end) break;
        const bool tr = now >= traced_start;
        const OpKey key = stream.Next(visible.load(std::memory_order_acquire));
        std::optional<obs::QueryTrace> trace;
        FetchResult kept;
        const bool keep = tr && !key.scan && log.kept.size() < 128;
        OpRecord rec = RunOp(serving->client(c), key, shape,
                             tr ? &trace : nullptr, keep ? &kept : nullptr);
        if (tr && rec.ok) {
          const obs::QueryTrace t = trace.value_or(obs::QueryTrace{});
          const Breakdown b = Attribute(rec, t);
          RecordOpSpans(&spans, rec, t, b);
          log.traced.push_back(b);
          if (keep) log.kept.push_back(std::move(kept));
        }
        log.ops.push_back(std::move(rec));
      }
    });
  });
  if (traced) {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(0.0, traced_start - RunSeconds())));
    at_traced = ReadCounters(serving.get(), engine);
  }
  clients.join();
  const Counters at_end = ReadCounters(serving.get(), engine);
  if (trainer.joinable()) trainer.join();
  if (!trainer_status.ok()) return Fail("trainer", trainer_status);

  std::vector<double> ping_us;
  for (int i = 0; traced && i < 500; ++i) {
    const double t0 = RunSeconds();
    const Status st = serving->client(0).Ping();
    const double t1 = RunSeconds();
    if (!st.ok()) return Fail("ping", st);
    spans.Add(0, 0, "client.ping", t0 * 1e6, t1 * 1e6);
    ping_us.push_back((t1 - t0) * 1e6);
  }
  const double stored_per_raw =
      static_cast<double>(store->StoredBytes()) / store->RawBytes();
  const double dup_chunks = store->DuplicateChunks();
  const double all_chunks = dup_chunks + engine->store().num_chunks();
  serving.reset();
  const double window_sec = RunSeconds() - window_start;
  std::printf("window: %.1f s, then %.1f s until the trainer and clients "
              "stopped\n", args.seconds, window_sec - args.seconds);
  // Not gated: the machine's state during the window, so that runs made
  // in a busy period of a shared host can be told from slower code.
  std::printf("vm: cpu steal %.1f%% of the window's CPU time; thread wake "
              "round trip p50 %.1f us before the window\n",
              100 * (StealSeconds() - steal_start) /
                  (window_sec * std::thread::hardware_concurrency()),
              wake_us);

  // ---- Results.
  std::vector<OpRecord> ops;
  for (ClientLog& log : logs) {
    ops.insert(ops.end(), std::make_move_iterator(log.ops.begin()),
               std::make_move_iterator(log.ops.end()));
  }
  size_t failed = 0;
  double last_end = window_start;
  const OpRecord* first_failure = nullptr;
  for (const OpRecord& op : ops) {
    if (!op.ok && first_failure == nullptr) first_failure = &op;
    failed += !op.ok;
    last_end = std::max(last_end, op.start_sec + op.latency_sec);
  }
  std::printf("ops: %zu attempted, %zu failed, ops_failed_frac = %.6g %s\n",
              ops.size(), failed, Ratio(failed, ops.size()),
              Base(failed, ops.size()).c_str());
  // A healthy run fails no op, so any failure is a defect to report, not
  // a figure: failed ops would otherwise leave the latency samples and
  // could make a broken build look fast.
  if (first_failure != nullptr) {
    std::printf("FAILED OP: %s: %s\n%s\n",
                DescribeOp(first_failure->key, shape).c_str(),
                first_failure->error.c_str(), repro.c_str());
    return 1;
  }

  // ---- Answer oracle, off the clock, on the store reopened with the
  // default pool.
  const double oracle_start = RunSeconds();
  Status st = store->Reopen(mistique::DataStoreOptions{}.memory_budget_bytes);
  if (!st.ok()) return Fail("reopen for the oracle", st);
  auto verified = VerifyOps(store->engine(), shape, ops);
  if (!verified.ok()) return Fail("oracle", verified.status());
  const OracleReport& oracle = *verified;
  std::printf("oracle: %zu answers checked against %zu in-process answers, "
              "%zu mismatches (%.1f s, reopen included)\n",
              oracle.checked, oracle.distinct, oracle.mismatches,
              RunSeconds() - oracle_start);

  std::map<std::string, Metric> metrics;
  if (!traced) {
    std::vector<double> fetch_ms, scan_ms;
    for (const OpRecord& op : ops) {
      if (op.ok) (op.key.scan ? scan_ms : fetch_ms).push_back(op.latency_sec * 1e3);
    }
    const std::string nf = "n=" + std::to_string(fetch_ms.size());
    const std::string ns = "n=" + std::to_string(scan_ms.size());
    std::printf("end-to-end (%s, %.1f s window):\n", spec.name,
                last_end - window_start);
    Put(&metrics, "setup_s", Median(setup_sec), "s",
        "median of " + std::to_string(setup_sec.size()) + " set-ups");
    Put(&metrics, "query_qps",
        (ops.size() - failed) / (last_end - window_start), "ops/s",
        std::to_string(kClients) + " clients, closed loop");
    Put(&metrics, "fetch_p50_ms", Percentile(fetch_ms, 0.50), "ms", nf);
    Put(&metrics, "fetch_p99_ms", Percentile(fetch_ms, 0.99), "ms", nf);
    Put(&metrics, "scan_p50_ms", Percentile(scan_ms, 0.50), "ms", ns);
    Put(&metrics, "scan_p99_ms", Percentile(scan_ms, 0.99), "ms", ns);
    const std::vector<double>& ck = ingest ? window_ckpt_sec : setup_ckpt_sec;
    Put(&metrics, "ingest_ckpt_s", Median(ck), "s",
        "median of " + std::to_string(ck.size()) +
            (ingest ? " checkpoints beside reads"
                    : " set-up checkpoints, no readers"));
    Put(&metrics, "stored_bytes_per_raw_byte", stored_per_raw, "ratio",
        "raw = float32 activations + float64 cells");
    Put(&metrics, "peak_rss_mb", PeakRssMb(), "MB");
    std::printf("  %-32s %14.6g %-6s %s\n", "ops_failed_frac",
                Ratio(failed, ops.size()), "ratio",
                Base(failed, ops.size()).c_str());
    // Not gated: how much of the fetch figures the session cache answered.
    const double lookups =
        at_end.service.cache_lookups - at_start.service.cache_lookups;
    const double hits = at_end.service.cache_hits - at_start.service.cache_hits;
    std::printf("  %-32s %14.6g %-6s %s\n", "session_cache_hit_ratio",
                Ratio(hits, lookups), "ratio", Base(hits, lookups).c_str());
    if (fetch_ms.size() < 1000) {
      std::printf("  note: fetch_p99_ms rests on fewer than 1000 samples\n");
    }
  } else {
    // Per-layer metrics from the traced half.
    std::vector<Breakdown> fetches, cached, scans;
    std::vector<FetchResult> kept;
    for (ClientLog& log : logs) {
      for (const Breakdown& b : log.traced) {
        (b.kind == OpKind::kFetch ? fetches
         : b.kind == OpKind::kScan ? scans
                                   : cached)
            .push_back(b);
      }
      for (FetchResult& r : log.kept) kept.push_back(std::move(r));
    }
    auto replayed = RunReplays(&spans, store.get(), kept, rundir);
    if (!replayed.ok()) return Fail("replays", replayed.status());
    const ReplayResults& rp = *replayed;
    const Delta dt{at_traced, at_end};
    const Delta dw{at_start, at_end};

    const auto mean_row = [](const std::vector<Breakdown>& v, Row r) {
      double s = 0;
      for (const Breakdown& b : v) s += b.row[r];
      return v.empty() ? kNoData : s / v.size();
    };
    const auto share_of = [](const std::vector<Breakdown>& v, Row r) {
      double s = 0, c = 0;
      for (const Breakdown& b : v) {
        s += b.row[r];
        c += b.client_sec;
      }
      return Ratio(s, c);
    };
    std::vector<double> queue_us, read_self, rerun_ms, lock_us, est_error;
    for (const auto* v : {&fetches, &scans}) {
      for (const Breakdown& b : *v) queue_us.push_back(b.row[kQueueWait] * 1e6);
    }
    for (const Breakdown& b : fetches) {
      if (b.used_read) {
        read_self.push_back(b.row[kReadSelf] * 1e6);
        if (b.est_read_sec > 0) est_error.push_back(b.read_sec / b.est_read_sec);
      } else {
        rerun_ms.push_back(b.row[kRerun] * 1e3);
      }
      if (b.row[kLockWait] > 0) lock_us.push_back(b.row[kLockWait] * 1e6);
    }
    std::vector<double> untraced_fetch, traced_fetch;
    uint64_t returned = 0, scanned = 0, pruned = 0;
    for (const OpRecord& op : ops) {
      if (!op.ok) continue;
      if (op.traced) {
        returned += op.bytes_returned;
        scanned += op.blocks_scanned;
        pruned += op.blocks_pruned;
      }
      if (!op.key.scan) {
        (op.traced ? traced_fetch : untraced_fetch).push_back(op.latency_sec);
      }
    }
    const std::vector<double>& pw = store->publish_wait_seconds();
    const std::vector<double> publish_ms = [&] {
      std::vector<double> v;
      const size_t from = ingest ? publish_waits_before : 0;
      for (size_t i = from; i < pw.size(); ++i) v.push_back(pw[i] * 1e3);
      return v;
    }();

    std::printf("per-layer (%s, traced half: %zu engine fetches, %zu "
                "session-cache fetches, %zu scans):\n",
                spec.name, fetches.size(), cached.size(), scans.size());
    const double lookups = dt.b.service.cache_lookups - dt.a.service.cache_lookups;
    const double hits = dt.b.service.cache_hits - dt.a.service.cache_hits;
    const double fetch_total = dt.obs("mistique_fetch_total");
    const double pool_hits = dt.obs("mistique_buffer_pool_hits_total");
    const double pool_loads = dt.obs("mistique_buffer_pool_loads_total");
    const double packed = dt.obs("mistique_scan_packed_blocks_total");
    const double sdecode = dt.obs("mistique_scan_decode_blocks_total");
    Put(&metrics, "net.ping_rtt_us", Median(ping_us), "us",
        "p50 of " + std::to_string(ping_us.size()) + " pings");
    Put(&metrics, "net.unattributed_us", mean_row(fetches, kUnattributed) * 1e6,
        "us", "engine fetches: client time - queue wait - trace total");
    Put(&metrics, "net.codec_us", rp.codec_us, "us",
        "replay over " + std::to_string(rp.responses) + " responses");
    Put(&metrics, "net.response_kb", rp.response_kb, "KB");
    Put(&metrics, "service.queue_wait_us", Mean(queue_us), "us");
    Put(&metrics, "service.queue_wait_p99_us", Percentile(queue_us, 0.99), "us",
        "n=" + std::to_string(queue_us.size()));
    Put(&metrics, "service.session_cache_hit_ratio", Ratio(hits, lookups),
        "ratio", Base(hits, lookups));
    Put(&metrics, "core.snapshot_pin_us", mean_row(fetches, kSnapshotPin) * 1e6,
        "us");
    Put(&metrics, "core.read_self_us", Mean(read_self), "us",
        "n=" + std::to_string(read_self.size()) + " read-served");
    Put(&metrics, "core.rerun_share",
        Ratio(dt.obs("mistique_fetch_rerun_total"), fetch_total), "ratio",
        Base(dt.obs("mistique_fetch_rerun_total"), fetch_total));
    Put(&metrics, "core.mispredict_ratio",
        Ratio(dt.obs("mistique_cost_model_mispredictions_total"), fetch_total),
        "ratio",
        Base(dt.obs("mistique_cost_model_mispredictions_total"), fetch_total));
    Put(&metrics, "core.read_est_error", Median(est_error), "ratio",
        "median actual/est_read_sec, n=" + std::to_string(est_error.size()));
    Put(&metrics, "storage.pool_hit_ratio",
        Ratio(pool_hits, pool_hits + pool_loads), "ratio",
        Base(pool_hits, pool_hits + pool_loads));
    Put(&metrics, "storage.disk_read_share", share_of(fetches, kDiskRead),
        "ratio", "of engine-fetch client time");
    Put(&metrics, "storage.disk_mb_per_fetch",
        Ratio(dt.disk_bytes() / 1e6, fetch_total), "MB",
        Base(dt.disk_bytes(), fetch_total) +
            " bytes/engine fetches, scans' column fetches included");
    Put(&metrics, "storage.read_amplification",
        Ratio(dt.disk_bytes(), returned), "ratio",
        Base(dt.disk_bytes(), returned) + " disk/returned bytes");
    Put(&metrics, "storage.single_flight_waits",
        static_cast<double>(dt.b.single_flight_waits - dt.a.single_flight_waits),
        "count");
    Put(&metrics, "durability.crc32c_gbps", rp.crc32c_gbps, "GB/s",
        "replay over " + std::to_string(rp.partition_bytes) + " bytes");
    Put(&metrics, "durability.envelope_write_ms", rp.envelope_write_ms, "ms",
        "fsync on");
    Put(&metrics, "compress.decompress_share", share_of(fetches, kDecompress),
        "ratio", "of engine-fetch client time");
    Put(&metrics, "compress.lzss_decompress_mbps", rp.lzss_decompress_mbps,
        "MB/s", std::to_string(rp.partitions) + " partitions");
    Put(&metrics, "compress.lzss_compress_mbps", rp.lzss_compress_mbps, "MB/s");
    Put(&metrics, "quantize.decode_us", mean_row(fetches, kDecode) * 1e6, "us");
    Put(&metrics, "quantize.encode_mbps", rp.quantize_encode_mbps, "MB/s",
        "float32 in");
    Put(&metrics, "dedup.resolve_us", mean_row(fetches, kResolveSelf) * 1e6,
        "us");
    Put(&metrics, "dedup.minhash_mbps", rp.minhash_mbps, "MB/s");
    Put(&metrics, "dedup.duplicate_chunk_ratio", Ratio(dup_chunks, all_chunks),
        "ratio", Base(dup_chunks, all_chunks));
    Put(&metrics, "scan.packed_us", mean_row(scans, kScanPacked) * 1e6, "us");
    Put(&metrics, "scan.packed_block_share", Ratio(packed, packed + sdecode),
        "ratio", Base(packed, packed + sdecode));
    Put(&metrics, "scan.pruned_block_ratio", Ratio(pruned, scanned + pruned),
        "ratio", Base(pruned, scanned + pruned));
    Put(&metrics, "mvcc.publish_wait_ms", Mean(publish_ms), "ms",
        "n=" + std::to_string(publish_ms.size()) + " LogNetwork calls");
    Put(&metrics, "nn.forward_s", rp.forward_s, "s");
    Put(&metrics, "obs.trace_overhead_ratio",
        Ratio(Percentile(traced_fetch, 0.5), Percentile(untraced_fetch, 0.5)),
        "ratio", "traced/untraced fetch p50, n=" +
                     std::to_string(traced_fetch.size()) + "/" +
                     std::to_string(untraced_fetch.size()));

    // Stage times that are structurally zero on some workloads: printed,
    // kept out of the JSON result.
    const auto stage = [&](const char* name, const std::vector<double>& v,
                           const char* unit, const char* why) {
      if (v.empty()) {
        std::printf("  %-32s %14s %-6s absent on %s: %s\n", name, "-", unit,
                    spec.name, why);
      } else {
        std::printf("  %-32s %14.6g %-6s n=%zu\n", name, Mean(v), unit,
                    v.size());
      }
    };
    std::vector<double> disk_us, decomp_us, sdecode_us;
    for (const Breakdown& b : fetches) {
      if (b.row[kDiskRead] > 0) disk_us.push_back(b.row[kDiskRead] * 1e6);
      if (b.row[kDecompress] > 0) decomp_us.push_back(b.row[kDecompress] * 1e6);
    }
    for (const Breakdown& b : scans) {
      if (b.row[kScanDecode] > 0) sdecode_us.push_back(b.row[kScanDecode] * 1e6);
    }
    // The engine's own result cache is off at default options
    // (query_cache_entries = 0), so its ratio is 0 / 0 here.
    const double ec_hits = dt.obs("mistique_engine_cache_hits_total");
    const double ec_lookups = dt.obs("mistique_engine_cache_lookups_total");
    if (ec_lookups == 0) {
      std::printf("  %-32s %14s %-6s absent on %s: the engine result cache is "
                  "off at default options (0 lookups)\n",
                  "core.engine_cache_hit_ratio", "-", "ratio", spec.name);
    } else {
      std::printf("  %-32s %14.6g %-6s %s\n", "core.engine_cache_hit_ratio",
                  Ratio(ec_hits, ec_lookups), "ratio",
                  Base(ec_hits, ec_lookups).c_str());
    }
    stage("core.rerun_ms", rerun_ms, "ms", "the cost model chose read on every fetch");
    stage("core.lock_wait_us", lock_us, "us", "no fetch escalated to the writer lock");
    stage("storage.disk_read_us", disk_us, "us", "no traced fetch read from disk");
    stage("compress.decompress_us", decomp_us, "us", "no traced fetch decompressed");
    stage("scan.decode_us", sdecode_us, "us", "every scanned block took the packed path");

    // Ledger tables: rows plus unattributed equal the traced client mean.
    double worst = 0;
    const std::string wl = spec.name;
    worst = std::max(worst, PrintLedger(wl + " fetch (engine)", fetches));
    worst = std::max(worst, PrintLedger(wl + " fetch (session cache)", cached));
    worst = std::max(worst, PrintLedger(wl + " scan", scans));
    if (ingest || !store->checkpoint_seconds().empty()) {
      const std::vector<double>& ck =
          ingest ? window_ckpt_sec : setup_ckpt_sec;
      const double parts_per_ckpt = Mean(store->partitions_per_checkpoint());
      const double compress_s =
          rp.ckpt_encoded_bytes / (rp.lzss_compress_mbps * 1e6);
      const double envelope_s = parts_per_ckpt * rp.envelope_write_ms / 1e3;
      std::printf("\n  ledger %s checkpoint: %zu LogNetwork calls, wall mean "
                  "%.4f s%s; busy time per checkpoint from replays of each "
                  "layer alone:\n",
                  wl.c_str(), ck.size(), Mean(ck),
                  ingest ? " beside reads" : " during set-up");
      std::printf("    %-34s %10.4f s\n", "nn.forward", rp.forward_s);
      std::printf("    %-34s %10.4f s\n", "quantize.encode (serial)",
                  rp.ckpt_quantize_s);
      std::printf("    %-34s %10.4f s\n", "compress.lzss_compress", compress_s);
      std::printf("    %-34s %10.4f s  (%.1f partitions x %.3f ms)\n",
                  "durability.envelope_write", envelope_s, parts_per_ckpt,
                  rp.envelope_write_ms);
      std::printf("    %-34s %10.4f s\n", "mvcc.publish_wait [trace]",
                  Mean(publish_ms) / 1e3);
      std::printf("    %-34s %10.4f s\n", "not replayed (wall - busy)",
                  Mean(ck) - rp.forward_s - rp.ckpt_quantize_s - compress_s -
                      envelope_s - Mean(publish_ms) / 1e3);
    }
    std::printf("\n  ledger check: largest |rows - client mean| = %.6f us\n",
                worst);

    // Workload sanity readout.
    const double window_fetches =
        static_cast<double>(untraced_fetch.size() + traced_fetch.size());
    std::printf("\nsanity (%s):\n", spec.name);
    switch (spec.kind) {
      case WorkloadKind::kWarmQuery:
        std::printf("  disk bytes read in the window: %.0f over %.0f fetches "
                    "(expect 0) -> %s\n",
                    dw.disk_bytes(), window_fetches,
                    dw.disk_bytes() == 0 ? "ok" : "WARN");
        break;
      case WorkloadKind::kColdQuery: {
        const double h = dw.obs("mistique_buffer_pool_hits_total");
        const double l = dw.obs("mistique_buffer_pool_loads_total");
        const double cl = dw.b.service.cache_lookups - dw.a.service.cache_lookups;
        const double ch = dw.b.service.cache_hits - dw.a.service.cache_hits;
        std::printf("  buffer-pool miss ratio %.3f %s (expect most) -> %s\n",
                    Ratio(l, h + l), Base(l, h + l).c_str(),
                    Ratio(l, h + l) > 0.5 ? "ok" : "WARN");
        std::printf("  traced fetches that read from disk %.3f %s\n",
                    Ratio(disk_us.size(), fetches.size()),
                    Base(disk_us.size(), fetches.size()).c_str());
        std::printf("  session-cache hit ratio %.4f %s (expect ~0) -> %s\n",
                    Ratio(ch, cl), Base(ch, cl).c_str(),
                    Ratio(ch, cl) < 0.01 ? "ok" : "WARN");
        break;
      }
      case WorkloadKind::kIngestMixed:
        std::printf("  checkpoints published while reads ran: %zu (expect >= "
                    "1), reads %.0f -> %s\n",
                    window_ckpt_sec.size(), window_fetches,
                    window_ckpt_sec.empty() ? "WARN" : "ok");
        break;
    }
    const std::string spans_path =
        workdir + "/spans-" + spec.name + ".jsonl";
    st = spans.WriteJsonl(spans_path);
    if (!st.ok()) return Fail("spans", st);
    std::printf("spans: %zu written to %s\n", spans.size(), spans_path.c_str());
  }

  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("NO DATA for %s on %s\n%s\n", name.c_str(), spec.name,
                  repro.c_str());
      return 1;
    }
  }
  const bool correct = oracle.mismatches == 0 && deterministic;
  if (!correct) {
    if (oracle.mismatches > 0) {
      std::printf("WRONG ANSWER: %s\n", oracle.first_mismatch.c_str());
    }
    if (!deterministic) std::printf("NOT DETERMINISTIC for this seed\n");
    std::printf("%s\n", repro.c_str());
  }
  PrintJson(correct, ops.size(), failed, metrics);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& n : perfbench::WorkloadNames()) names += " " + n;
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\nworkloads:%s\n",
                 names.c_str());
    return 2;
  }
  return perfbench::Run(args);
}
