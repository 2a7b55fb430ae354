// Workloads of the MISTIQUE benchmark: the logged store, the seeded
// request streams, the closed-loop clients and the answer oracle.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/mistique.h"
#include "net/client.h"
#include "net/server.h"
#include "nn/network.h"
#include "obs/trace.h"
#include "pipeline/stage.h"
#include "service/query_service.h"

namespace perfbench {

using mistique::FetchRequest;
using mistique::FetchResult;
using mistique::Mistique;
using mistique::Result;
using mistique::ScanRequest;
using mistique::ScanResult;
using mistique::Status;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

/// Seconds since the run's origin (the first call), the clock every span
/// and op record uses.
double RunSeconds();

/// Fixed sizes, shared by every workload. README.md explains each.
constexpr int kClients = 2;            // client connections
constexpr size_t kWorkers = 2;         // QueryService workers
constexpr int kImages = 128;           // CIFAR images per checkpoint
constexpr double kCnnScale = 0.25;     // CIFAR10_CNN channel scale
constexpr double kPerturbation = 0.01;  // weight noise per checkpoint
constexpr size_t kZillowProperties = 2000;
constexpr double kFetchShare = 0.7;    // the rest of the op mix are scans
constexpr int kMaxFetchColumns = 64;
constexpr int kMinFetchRows = 4;
constexpr int kMaxFetchRows = 32;
constexpr size_t kSkewedFetchKeys = 1024;  // warm_query key pool sizes
constexpr size_t kSkewedScanKeys = 256;
constexpr double kZipfExponent = 0.99;     // YCSB's zipfian constant
constexpr uint64_t kPoolShapeSeed = 0x5eed;  // key shapes, every seed
constexpr int kStoreCheckpoints = 3;   // warm_query and cold_query set-up
constexpr int kIngestStartCheckpoints = 1;  // ingest_mixed set-up
constexpr int kWarmupOpsPerClient = 150;
constexpr int kSetupRepeats = 3;
constexpr size_t kOracleThreads = 4;   // off the clock, after the window

enum class WorkloadKind { kWarmQuery, kColdQuery, kIngestMixed };

/// warm_query: the store fits the default pool and keys are drawn with
/// Zipf popularity from a fixed pool. cold_query: the same store behind a
/// pool of 1/8 its decompressed bytes, with fresh keys that never repeat.
/// ingest_mixed: a trainer logs checkpoints (no Zillow pipeline) while
/// readers query what is already published.
struct WorkloadSpec {
  WorkloadKind kind;
  const char* name;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// The store's shape as the request generator sees it. Every CNN
/// checkpoint has the same layer shapes.
struct IntermShape {
  std::string name;
  uint32_t rows = 0;
  std::vector<std::string> columns;
};
struct StoreShape {
  std::vector<IntermShape> cnn;
  std::vector<IntermShape> zillow;  ///< empty without a pipeline
  std::string zillow_model;
  /// Per CNN layer: 101 quantiles (0%..100%) of checkpoint 0's stored
  /// activations, for mid-selectivity scan ranges.
  std::vector<std::vector<double>> layer_quantiles;
};

/// One request, compactly. `model` is a checkpoint index, or -1 for the
/// Zillow pipeline. A fetch returns columns [col0, col0 + ncols) at
/// `rows`; a scan returns the same column range at the rows whose
/// predicate column lies in [lo, hi].
struct OpKey {
  bool scan = false;
  int32_t model = 0;
  uint16_t interm = 0;
  uint32_t col0 = 0;   ///< first column returned
  uint32_t ncols = 0;  ///< columns returned
  std::vector<uint64_t> rows;  ///< fetch only, ascending
  uint32_t pred = 0;           ///< scan only: predicate column
  double lo = 0, hi = 0;       ///< scan only
};

std::string CheckpointName(int k);
/// One line naming the request, for error and mismatch reports.
std::string DescribeOp(const OpKey& key, const StoreShape& shape);
FetchRequest ToFetch(const OpKey& key, const StoreShape& shape);
ScanRequest ToScan(const OpKey& key, const StoreShape& shape);
uint64_t KeyHash(const OpKey& key);

/// warm_query's fixed key pools, ranked by Zipf popularity.
struct KeyPool {
  std::vector<OpKey> fetches;
  std::vector<OpKey> scans;
  std::vector<double> fetch_cdf;
  std::vector<double> scan_cdf;
};
KeyPool BuildKeyPool(const StoreShape& shape, int checkpoints, uint64_t seed);

/// One client's deterministic request sequence. The draws depend only on
/// the seed; on ingest_mixed the checkpoint a draw maps to also depends
/// on how many checkpoints are visible when it is drawn.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, const StoreShape& shape,
                const KeyPool* pool, uint64_t seed);
  OpKey Next(int visible_checkpoints);

 private:
  const WorkloadSpec& spec_;
  const StoreShape& shape_;
  const KeyPool* pool_;
  mistique::Rng rng_;
  std::unordered_set<uint64_t> seen_;  ///< key hashes (cold_query)
};

/// Seed of request stream `stream` (client window streams are 0..,
/// warm-up streams 100..).
uint64_t StreamSeed(uint64_t seed, int stream);

/// Digest of the first `n` requests of a stream seeded with `seed`.
uint64_t RequestDigest(const WorkloadSpec& spec, const StoreShape& shape,
                       const KeyPool* pool, uint64_t seed, int visible,
                       int n);

/// The logged store plus everything a re-run needs. Networks and the
/// pipeline are declared before the engine so they outlive it.
class BenchStore {
 public:
  /// Generates the inputs from `seed` and logs the workload's initial
  /// checkpoints (and pipeline) under `dir`. With `trace_logging` every
  /// LogNetwork runs under a QueryTrace so its publish_wait is recorded.
  static Result<std::unique_ptr<BenchStore>> Build(const WorkloadSpec& spec,
                                                   uint64_t seed,
                                                   const std::string& dir,
                                                   bool trace_logging);
  ~BenchStore();

  /// Logs checkpoint `k` (a fresh Network whose weights are the base
  /// weights plus k+1 cumulative perturbations) and returns its wall time.
  Result<double> LogCheckpoint(int k);
  /// Closes the engine and reopens the same directory with `pool_bytes`
  /// of buffer pool, re-attaching every executor.
  Status Reopen(size_t pool_bytes);
  Mistique* engine() { return mq_.get(); }
  const StoreShape& shape() const { return shape_; }
  const std::string& dir() const { return dir_; }
  int checkpoints() const { return static_cast<int>(nets_.size()); }
  mistique::Network* network(int k) { return nets_[k].get(); }
  const mistique::Tensor& input() const { return *input_; }
  /// Wall time of every LogNetwork call so far.
  const std::vector<double>& checkpoint_seconds() const {
    return checkpoint_seconds_;
  }
  /// Partition files each LogNetwork call added.
  const std::vector<double>& partitions_per_checkpoint() const {
    return partitions_per_checkpoint_;
  }
  /// publish_wait seconds of every traced LogNetwork call so far.
  const std::vector<double>& publish_wait_seconds() const {
    return publish_wait_seconds_;
  }

  /// Raw bytes of everything the catalog holds: float32 per activation,
  /// float64 per dataframe cell.
  uint64_t RawBytes() const;
  uint64_t StoredBytes() const { return mq_->StorageFootprintBytes(); }
  /// Counts from zero again after Reopen.
  uint64_t DecompressedBytes() const { return mq_->store().logical_bytes(); }
  size_t Partitions() const;
  /// Chunks the deduplicator found already stored, since Build (a
  /// reopened engine starts its own count from zero).
  uint64_t DuplicateChunks() const {
    return duplicate_chunks_ + mq_->dedup().duplicate_chunks();
  }

 private:
  BenchStore() = default;
  Status ComputeShape();

  uint64_t seed_ = 0;
  std::string dir_;
  bool trace_logging_ = false;
  std::shared_ptr<const mistique::Tensor> input_;
  std::vector<std::unique_ptr<mistique::Network>> nets_;
  std::unique_ptr<mistique::Pipeline> zillow_;
  mistique::MistiqueOptions options_;
  std::unique_ptr<Mistique> mq_;
  StoreShape shape_;
  std::vector<double> checkpoint_seconds_;
  std::vector<double> publish_wait_seconds_;
  uint64_t duplicate_chunks_ = 0;
  std::vector<double> partitions_per_checkpoint_;
};

/// QueryService (default options, 2 workers) behind a loopback
/// net::Server, with one connected net::Client per client thread.
class Serving {
 public:
  static Result<std::unique_ptr<Serving>> Start(Mistique* engine);
  ~Serving() { Stop(); }
  mistique::net::Client& client(int i) { return *clients_[i]; }
  mistique::QueryService& service() { return *service_; }
  void Stop();

 private:
  Serving() = default;
  std::unique_ptr<mistique::QueryService> service_;
  std::unique_ptr<mistique::net::Server> server_;
  std::vector<std::unique_ptr<mistique::net::Client>> clients_;
};

/// What one op in a timed window returned.
struct OpRecord {
  OpKey key;
  double start_sec = 0;  ///< RunSeconds() when the op was sent
  double latency_sec = 0;
  bool ok = false;
  std::string error;  ///< the status of a failed op
  bool used_read = false;
  bool from_cache = false;
  bool traced = false;
  uint64_t digest = 0;
  uint64_t bytes_returned = 0;  ///< 8 per value and per row id
  uint64_t blocks_scanned = 0;
  uint64_t blocks_pruned = 0;
};

/// Runs one op through `client`. With `trace` set the request carries a
/// sampled TraceContext and the server's trace lands in *trace; with
/// `keep` set a fetch's result is copied there.
OpRecord RunOp(mistique::net::Client& client, const OpKey& key,
               const StoreShape& shape,
               std::optional<mistique::obs::QueryTrace>* trace,
               FetchResult* keep);

/// Digest of an answer: row ids, column names and values.
uint64_t DigestAnswer(const std::vector<uint64_t>& rows,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns);

struct OracleReport {
  size_t checked = 0;
  size_t distinct = 0;  ///< distinct (request, strategy) answers computed
  size_t mismatches = 0;
  std::string first_mismatch;
};
/// Checks every ok op against the in-process engine: read-served fetches
/// against force_read = true, rerun-served ones against a forced re-run,
/// scans against a filter of the fetched predicate column plus a forced
/// read (or, failing that, a forced re-run) of the returned columns at
/// the matching rows. Distinct requests are answered once each, on
/// kOracleThreads threads.
Result<OracleReport> VerifyOps(Mistique* engine, const StoreShape& shape,
                               const std::vector<OpRecord>& ops);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
