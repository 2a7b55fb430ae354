// The traced run's per-layer ledger: spans kept in memory, per-op self
// times split from the server's QueryTrace, and replays that time single
// layer functions on the workload's own data.
#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workload.h"

namespace perfbench {

/// One span: name, start, end, parent and request id. Times are
/// microseconds from the run's origin.
struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root
  std::string name;
  double start_us = 0;
  double end_us = 0;
};

/// Thread-safe in-memory span store, written out once at the end.
class SpanLog {
 public:
  uint32_t Add(uint64_t request, uint32_t parent, std::string name,
               double start_us, double end_us);
  /// One JSON object per line.
  Status WriteJsonl(const std::string& path) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Ledger rows. Each is a self time: a span minus its children. A row
/// that does not apply to an op type is 0 for it.
enum Row : int {
  kUnattributed,  ///< client time outside the server's trace
  kQueueWait,     ///< service admission queue
  kSnapshotPin,
  kLockWait,      ///< writer mutex (re-run escalation)
  kRerun,
  kReadSelf,      ///< read span minus dedup resolve and decode
  kResolveSelf,   ///< dedup_resolve minus disk read and decompress
  kDiskRead,      ///< includes the envelope CRC32C check
  kDecompress,
  kDecode,
  kScanPacked,
  kScanDecode,
  kEngineOther,   ///< engine time inside the trace but outside its spans
  kNumRows
};
const char* RowName(Row row);

enum class OpKind { kFetch, kCachedFetch, kScan };

/// One traced op split into ledger rows; the rows sum to client_sec.
struct Breakdown {
  OpKind kind = OpKind::kFetch;
  double client_sec = 0;
  double row[kNumRows] = {};
  bool used_read = false;
  double est_read_sec = -1;  ///< cost model's t_read (read-served fetches)
  double read_sec = 0;       ///< actual read span
};

Breakdown Attribute(const OpRecord& op, const mistique::obs::QueryTrace& tr);

/// Records the client span of `op` and the server spans under it. The
/// server trace's clock is not the client's: it is placed by splitting
/// the unattributed gap evenly before and after it.
void RecordOpSpans(SpanLog* log, const OpRecord& op,
                   const mistique::obs::QueryTrace& tr, const Breakdown& b);

/// Prints one ledger table (mean and p50 self time per row, in us) and
/// returns the largest |sum of row means - client mean| in us.
double PrintLedger(const std::string& title,
                   const std::vector<Breakdown>& ops);

/// Rates and times of single layer functions, replayed on the store's
/// own partitions, activations and responses.
struct ReplayResults {
  double codec_us = 0;          ///< EncodeFetchResult + DecodeFetchResult
  double response_kb = 0;       ///< mean encoded fetch response
  size_t responses = 0;
  double crc32c_gbps = 0;
  double envelope_write_ms = 0;  ///< one partition-sized file, fsync on
  double lzss_decompress_mbps = 0;
  double lzss_compress_mbps = 0;
  double quantize_encode_mbps = 0;  ///< float32 activation bytes in
  double minhash_mbps = 0;
  double forward_s = 0;
  /// Checkpoint 0 re-encoded: its quantized bytes and the serial busy
  /// time of Fit + Quantize over all its layers.
  uint64_t ckpt_encoded_bytes = 0;
  double ckpt_quantize_s = 0;
  uint64_t partition_bytes = 0;  ///< compressed bytes replayed
  size_t partitions = 0;
};

/// Runs every replay, recording one span per replayed call. `scratch`
/// is a directory the envelope-write replay may write into.
Result<ReplayResults> RunReplays(SpanLog* log, BenchStore* store,
                                 const std::vector<FetchResult>& responses,
                                 const std::string& scratch);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
