#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "compress/lzss.h"
#include "dedup/minhash.h"
#include "durability/crc32c.h"
#include "durability/durable_file.h"
#include "net/wire.h"
#include "quantize/quantizer.h"
#include "storage/partition.h"

namespace perfbench {

namespace obs = mistique::obs;

namespace {

// Results of replayed calls land here so the calls cannot be elided.
volatile uint64_t g_sink = 0;

double EventSeconds(const obs::QueryTrace& tr, const std::string& name) {
  double total = 0;
  for (const obs::TraceEvent& e : tr.events()) {
    if (e.name == name) total += e.duration_sec;
  }
  return total;
}

double TotalSeconds(const obs::QueryTrace& tr, const std::string& name) {
  double total = 0;
  for (const obs::TraceStageTotal& t : tr.stage_totals()) {
    if (t.name == name) total += t.total_sec;
  }
  return total;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Seconds of the events named `name` that lie inside some "read" span.
double InsideReadSeconds(const obs::QueryTrace& tr, const std::string& name) {
  double total = 0;
  for (const obs::TraceEvent& e : tr.events()) {
    if (e.name != name) continue;
    for (const obs::TraceEvent& r : tr.events()) {
      if (r.name == "read" && e.start_sec >= r.start_sec &&
          e.start_sec + e.duration_sec <= r.start_sec + r.duration_sec) {
        total += e.duration_sec;
        break;
      }
    }
  }
  return total;
}

// Rows that can be non-zero for an op kind, in print order; the
// unattributed remainder always comes last.
std::vector<Row> RowsFor(OpKind kind) {
  switch (kind) {
    case OpKind::kFetch:
      return {kQueueWait,  kSnapshotPin, kLockWait,   kRerun,
              kReadSelf,   kResolveSelf, kDiskRead,   kDecompress,
              kDecode,     kEngineOther, kUnattributed};
    case OpKind::kScan:
      return {kQueueWait,  kSnapshotPin, kScanPacked, kScanDecode,
              kLockWait,   kRerun,       kReadSelf,   kResolveSelf,
              kDiskRead,   kDecompress,  kDecode,     kEngineOther,
              kUnattributed};
    case OpKind::kCachedFetch:
      break;
  }
  return {kUnattributed};
}

}  // namespace

uint32_t SpanLog::Add(uint64_t request, uint32_t parent, std::string name,
                      double start_us, double end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t id = static_cast<uint32_t>(spans_.size()) + 1;
  spans_.push_back({request, id, parent, std::move(name), start_us, end_us});
  return id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

Status SpanLog::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  char line[512];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line),
                  "{\"id\":%u,\"parent\":%u,\"request\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.id, s.parent, static_cast<unsigned long long>(s.request),
                  s.name.c_str(), s.start_us, s.end_us);
    out << line;
  }
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

const char* RowName(Row row) {
  switch (row) {
    case kUnattributed: return "unattributed";
    case kQueueWait: return "service.queue_wait";
    case kSnapshotPin: return "core.snapshot_pin";
    case kLockWait: return "core.lock_wait";
    case kRerun: return "core.rerun";
    case kReadSelf: return "core.read_self";
    case kResolveSelf: return "dedup.resolve";
    case kDiskRead: return "storage.disk_read";
    case kDecompress: return "compress.decompress";
    case kDecode: return "quantize.decode";
    case kScanPacked: return "scan.packed";
    case kScanDecode: return "scan.decode";
    case kEngineOther: return "core.untraced";
    case kNumRows: break;
  }
  return "?";
}

Breakdown Attribute(const OpRecord& op, const obs::QueryTrace& tr) {
  Breakdown b;
  b.client_sec = op.latency_sec;
  b.used_read = op.used_read;
  if (!op.key.scan && (tr.strategy == "session-cache" || op.from_cache)) {
    // Answered on the server's I/O thread: no worker, no engine spans.
    b.kind = OpKind::kCachedFetch;
    b.row[kUnattributed] = op.latency_sec;
    return b;
  }
  // A scan runs its predicate over the packed blocks, then fetches its
  // returned columns at the matching rows, so it carries a fetch's spans
  // too; a fetch has no scan stages. Either way the rows below add up to
  // the client time.
  b.kind = op.key.scan ? OpKind::kScan : OpKind::kFetch;
  const double q = tr.queue_wait_sec;
  const double t = tr.total_sec;
  b.row[kUnattributed] = op.latency_sec - q - t;
  b.row[kQueueWait] = q;
  const double pin = EventSeconds(tr, "snapshot_pin");
  const double lock = EventSeconds(tr, "lock_wait_exclusive");
  const double rerun = EventSeconds(tr, "rerun");
  const double read = EventSeconds(tr, "read");
  const double disk = EventSeconds(tr, "disk_read");
  const double decompress = EventSeconds(tr, "decompress");
  // dedup_resolve is inclusive of the disk read and decompress a pool
  // miss performs inside the read span; both sit inside it with decode.
  // The scan phase loads blocks outside any accumulated span, so there
  // they are direct children of the engine.
  const double disk_in_read = InsideReadSeconds(tr, "disk_read");
  const double decompress_in_read = InsideReadSeconds(tr, "decompress");
  const double resolve = TotalSeconds(tr, "dedup_resolve");
  const double decode = TotalSeconds(tr, "decode");
  const double packed = TotalSeconds(tr, "scan_packed");
  const double scan_decode = TotalSeconds(tr, "scan_decode");
  b.row[kSnapshotPin] = pin;
  b.row[kLockWait] = lock;
  b.row[kRerun] = rerun;
  b.row[kReadSelf] = read - resolve - decode;
  b.row[kResolveSelf] = resolve - disk_in_read - decompress_in_read;
  b.row[kDiskRead] = disk;
  b.row[kDecompress] = decompress;
  b.row[kDecode] = decode;
  b.row[kScanPacked] = packed;
  b.row[kScanDecode] = scan_decode;
  b.row[kEngineOther] = t - pin - lock - rerun - read - packed - scan_decode -
                        (disk - disk_in_read) -
                        (decompress - decompress_in_read);
  if (!op.key.scan) {
    b.est_read_sec = tr.est_read_sec;
    b.read_sec = read;
  }
  return b;
}

void RecordOpSpans(SpanLog* log, const OpRecord& op,
                   const obs::QueryTrace& tr, const Breakdown& b) {
  const uint64_t req = tr.trace_id;
  const double c0 = op.start_sec * 1e6;
  const uint32_t root =
      log->Add(req, 0, op.key.scan ? "client.scan" : "client.fetch", c0,
               c0 + op.latency_sec * 1e6);
  if (b.kind == OpKind::kCachedFetch) return;
  const double s0 = c0 + b.row[kUnattributed] * 1e6 / 2;
  log->Add(req, root, "service.queue_wait", s0, s0 + tr.queue_wait_sec * 1e6);
  const double e0 = s0 + tr.queue_wait_sec * 1e6;
  const uint32_t engine =
      log->Add(req, root, "server.engine", e0, e0 + tr.total_sec * 1e6);
  std::vector<uint32_t> parent_at_depth = {engine};
  for (const obs::TraceEvent& e : tr.events()) {
    const size_t d = std::min<size_t>(e.depth, parent_at_depth.size() - 1);
    const double start = e0 + e.start_sec * 1e6;
    const uint32_t id = log->Add(req, parent_at_depth[d], e.name, start,
                                 start + e.duration_sec * 1e6);
    parent_at_depth.resize(d + 1);
    parent_at_depth.push_back(id);
  }
  // Accumulated stages have no single interval: one span each, laid
  // from the engine's start, carrying the stage's total.
  for (const obs::TraceStageTotal& t : tr.stage_totals()) {
    log->Add(req, engine, t.name + " (total)", e0, e0 + t.total_sec * 1e6);
  }
}

double PrintLedger(const std::string& title,
                   const std::vector<Breakdown>& ops) {
  if (ops.empty()) {
    std::printf("\n  ledger %s: no traced ops\n", title.c_str());
    return 0;
  }
  double client_mean = 0;
  for (const Breakdown& b : ops) client_mean += b.client_sec;
  client_mean /= static_cast<double>(ops.size());
  std::printf("\n  ledger %s: %zu traced ops, client mean %.2f us\n",
              title.c_str(), ops.size(), client_mean * 1e6);
  std::printf("    %-24s %12s %12s %8s\n", "row (self time)", "mean_us",
              "p50_us", "share");
  double sum = 0;
  for (Row row : RowsFor(ops.front().kind)) {
    std::vector<double> v;
    v.reserve(ops.size());
    double mean = 0;
    for (const Breakdown& b : ops) {
      v.push_back(b.row[row]);
      mean += b.row[row];
    }
    mean /= static_cast<double>(ops.size());
    sum += mean;
    std::printf("    %-24s %12.2f %12.2f %7.1f%%\n", RowName(row), mean * 1e6,
                Median(v) * 1e6, 100 * mean / client_mean);
  }
  const double diff = std::abs(sum - client_mean) * 1e6;
  std::printf("    %-24s %12.2f   (client mean %.2f us, |diff| %.6f us)\n",
              "= sum of rows", sum * 1e6, client_mean * 1e6, diff);
  return diff;
}

Result<ReplayResults> RunReplays(SpanLog* log, BenchStore* store,
                                 const std::vector<FetchResult>& responses,
                                 const std::string& scratch) {
  ReplayResults out;
  // Each replayed call becomes one root span.
  const auto timed = [&](const std::string& name, const auto& fn) {
    const double t0 = RunSeconds();
    fn();
    const double t1 = RunSeconds();
    log->Add(0, 0, name, t0 * 1e6, t1 * 1e6);
    return t1 - t0;
  };

  // net: the wire codec on the window's own fetch responses.
  double codec_sec = 0;
  uint64_t encoded_bytes = 0;
  for (const FetchResult& r : responses) {
    std::string encoded;
    FetchResult decoded;
    Status st;
    codec_sec += timed("replay.wire.EncodeDecodeFetchResult", [&] {
      encoded = mistique::wire::EncodeFetchResult(r);
      st = mistique::wire::DecodeFetchResult(encoded, &decoded);
    });
    MISTIQUE_RETURN_NOT_OK(st);
    encoded_bytes += encoded.size();
  }
  out.responses = responses.size();
  if (!responses.empty()) {
    out.codec_us = codec_sec * 1e6 / static_cast<double>(responses.size());
    out.response_kb =
        encoded_bytes / 1024.0 / static_cast<double>(responses.size());
  }

  // durability + compress: the store's partition files. Every k-th file,
  // so sizes stay representative, up to 16 MB.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(store->dir() + "/store")) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0 && entry.path().extension() == ".mq") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  const size_t stride = std::max<size_t>(1, files.size() / 48);
  std::vector<std::vector<uint8_t>> payloads;
  for (size_t i = 0; i < files.size() && out.partition_bytes < (16u << 20);
       i += stride) {
    MISTIQUE_ASSIGN_OR_RETURN(std::vector<uint8_t> payload,
                              mistique::ReadEnvelopeFile(files[i]));
    out.partition_bytes += payload.size();
    payloads.push_back(std::move(payload));
  }
  out.partitions = payloads.size();
  if (payloads.empty()) return Status::Internal("no partition files");

  std::vector<double> crc_rates;
  for (int pass = 0; pass < 3; ++pass) {
    uint32_t crc = 0;
    const double sec = timed("replay.durability.Crc32c", [&] {
      for (const auto& p : payloads) crc ^= mistique::Crc32c(p.data(), p.size());
    });
    g_sink = g_sink + crc;
    crc_rates.push_back(out.partition_bytes / sec / 1e9);
  }
  out.crc32c_gbps = Median(crc_rates);

  std::vector<mistique::Partition> partitions;
  double decompress_sec = 0;
  uint64_t decompressed_bytes = 0;
  for (const auto& p : payloads) {
    Result<mistique::Partition> part = mistique::Status::Internal("unset");
    decompress_sec += timed("replay.storage.Partition::Deserialize",
                            [&] { part = mistique::Partition::Deserialize(p); });
    MISTIQUE_RETURN_NOT_OK(part.status());
    decompressed_bytes += part->data_bytes();
    partitions.push_back(std::move(part).ValueOrDie());
  }
  out.lzss_decompress_mbps = decompressed_bytes / decompress_sec / 1e6;

  const mistique::LzssCodec lzss;
  double compress_sec = 0;
  for (const mistique::Partition& part : partitions) {
    Status st;
    compress_sec += timed("replay.storage.Partition::Serialize(lzss)", [&] {
      st = part.Serialize(lzss).status();
    });
    MISTIQUE_RETURN_NOT_OK(st);
  }
  out.lzss_compress_mbps = decompressed_bytes / compress_sec / 1e6;

  std::vector<double> envelope_sec;
  const std::string envelope_path = scratch + "/replay-envelope.mq";
  for (size_t i = 0; i < payloads.size() && i < 24; ++i) {
    Status st;
    envelope_sec.push_back(
        timed("replay.durability.WriteEnvelopeFileAtomic", [&] {
          st = mistique::WriteEnvelopeFileAtomic(envelope_path, payloads[i],
                                                 /*sync=*/true, "perfbench");
        }));
    MISTIQUE_RETURN_NOT_OK(st);
  }
  std::filesystem::remove(envelope_path);
  out.envelope_write_ms = Median(envelope_sec) * 1e3;

  // nn: the forward pass of checkpoint 0 over the logged input.
  mistique::Network* net = store->network(0);
  std::vector<double> forward;
  for (int i = 0; i < 3; ++i) {
    Status st;
    forward.push_back(timed("replay.nn.Network::Forward", [&] {
      st = net->Forward(store->input()).status();
    }));
    MISTIQUE_RETURN_NOT_OK(st);
  }
  out.forward_s = Median(forward);

  // quantize + dedup: re-encode checkpoint 0's activations the way
  // LogNetwork does (fit on the first 4096 values, one chunk per column),
  // then MinHash a stride of the chunks.
  std::vector<std::vector<std::vector<double>>> layers;
  MISTIQUE_RETURN_NOT_OK(
      net->Forward(store->input(), 0,
                   [&](int, const std::string&, const mistique::Tensor& t) {
                     const size_t cols = t.PerExample();
                     std::vector<std::vector<double>> staged(cols);
                     for (int ex = 0; ex < t.n; ++ex) {
                       const float* src = t.Example(ex);
                       for (size_t j = 0; j < cols; ++j) {
                         staged[j].push_back(src[j]);
                       }
                     }
                     layers.push_back(std::move(staged));
                     return Status::OK();
                   })
          .status());
  double quantize_sec = 0;
  uint64_t activation_bytes = 0;
  std::vector<mistique::ColumnChunk> chunks;
  for (size_t l = 0; l < layers.size(); ++l) {
    const auto& staged = layers[l];
    Status st;
    std::vector<mistique::ColumnChunk> encoded(staged.size());
    quantize_sec += timed(
        "replay.quantize.KBitQuantizer layer" + std::to_string(l + 1), [&] {
          std::vector<double> sample;
          for (size_t j = 0; j < staged.size() && sample.size() < 4096; ++j) {
            for (double v : staged[j]) {
              sample.push_back(v);
              if (sample.size() >= 4096) break;
            }
          }
          mistique::KBitQuantizer quantizer(8);
          st = quantizer.Fit(std::move(sample));
          for (size_t j = 0; j < staged.size() && st.ok(); ++j) {
            Result<mistique::ColumnChunk> c = quantizer.Quantize(staged[j]);
            if (!c.ok()) {
              st = c.status();
            } else {
              encoded[j] = std::move(c).ValueOrDie();
            }
          }
        });
    MISTIQUE_RETURN_NOT_OK(st);
    for (size_t j = 0; j < staged.size(); ++j) {
      activation_bytes += 4 * staged[j].size();
      out.ckpt_encoded_bytes += encoded[j].byte_size();
    }
    const size_t step = std::max<size_t>(1, staged.size() / 256);
    for (size_t j = 0; j < encoded.size(); j += step) {
      chunks.push_back(std::move(encoded[j]));
    }
  }
  out.quantize_encode_mbps = activation_bytes / quantize_sec / 1e6;
  out.ckpt_quantize_s = quantize_sec;

  const mistique::MinHashOptions minhash;
  uint64_t hashed_bytes = 0;
  uint64_t sink = 0;
  const double minhash_sec = timed("replay.dedup.ComputeMinHash", [&] {
    for (const mistique::ColumnChunk& c : chunks) {
      sink += mistique::ComputeMinHash(c, minhash).values[0];
      hashed_bytes += c.byte_size();
    }
  });
  g_sink = g_sink + sink;
  out.minhash_mbps = hashed_bytes / minhash_sec / 1e6;
  return out;
}

}  // namespace perfbench
