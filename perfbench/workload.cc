#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "common/hash.h"
#include "nn/cifar.h"
#include "nn/model_zoo.h"
#include "pipeline/templates.h"
#include "pipeline/zillow.h"

namespace perfbench {

using mistique::HashCombine;
using mistique::Mix64;
using mistique::Rng;

namespace {

// README.md gives the reasons for each workload.
constexpr WorkloadSpec kWorkloads[] = {
    {WorkloadKind::kWarmQuery, "warm_query"},
    {WorkloadKind::kColdQuery, "cold_query"},
    {WorkloadKind::kIngestMixed, "ingest_mixed"},
};

uint64_t Derive(uint64_t seed, uint64_t tag) {
  return Mix64(HashCombine(seed, tag));
}

uint64_t FnvU64(uint64_t h, uint64_t v) {
  return mistique::Fnv1a64(&v, sizeof(v), h);
}
uint64_t FnvDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return FnvU64(h, bits);
}

// `m` distinct row ids from [0, n), ascending (Floyd's sampling).
std::vector<uint64_t> SampleRows(Rng* rng, uint64_t n, uint64_t m) {
  std::vector<uint64_t> out;
  for (uint64_t j = n - m; j < n; ++j) {
    const uint64_t t = rng->NextBelow(j + 1);
    if (std::find(out.begin(), out.end(), t) == out.end()) {
      out.push_back(t);
    } else {
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

uint64_t TotalColumns(const std::vector<IntermShape>& layers) {
  uint64_t n = 0;
  for (const IntermShape& l : layers) n += l.columns.size();
  return n;
}

// One random request, uniform over the store's columns. `shape` draws
// what sets the request's cost: the layer (in proportion to its column
// count), the columns (the engine finds each requested column by a scan
// of the layer's names, so their position matters), the number of rows
// and a scan's selectivity. `content` draws the checkpoint and the rows.
// Every call consumes the same number of draws whatever `visible` is, so
// a stream's draws depend on its seeds alone.
OpKey DrawKey(Rng* shape, Rng* content, const StoreShape& store, bool scan,
              int visible, bool newest_bias) {
  OpKey key;
  key.scan = scan;
  const uint64_t layer_pick = shape->NextU64();
  const uint64_t column_pick = shape->NextU64();
  const uint64_t width_pick = shape->NextU64();
  const int64_t nrows = shape->UniformInt(kMinFetchRows, kMaxFetchRows);
  const double u1 = shape->Uniform(0.2, 0.5);
  const double u2 = u1 + shape->Uniform(0.2, 0.4);
  const bool newest = content->Bernoulli(0.5);
  const uint64_t model_pick = content->NextU64();

  // Scans need a quantized predicate column, and ingest_mixed logs no
  // pipeline, so only other fetches may land on the pipeline's columns.
  const uint64_t cnn_cols = TotalColumns(store.cnn);
  const bool pipeline_too = !scan && !newest_bias;
  const uint64_t cnn_total =
      cnn_cols * static_cast<uint64_t>(newest_bias ? 1 : visible);
  uint64_t idx = layer_pick % (cnn_total + (pipeline_too
                                                ? TotalColumns(store.zillow)
                                                : 0));
  if (idx < cnn_total) {
    idx %= cnn_cols;
    key.model = newest_bias && newest
                    ? visible - 1
                    : static_cast<int32_t>(model_pick % visible);
  } else {
    idx -= cnn_total;
    key.model = -1;
  }
  const std::vector<IntermShape>& layers =
      key.model < 0 ? store.zillow : store.cnn;
  while (idx >= layers[key.interm].columns.size()) {
    idx -= layers[key.interm].columns.size();
    key.interm++;
  }
  const IntermShape& layer = layers[key.interm];
  const uint64_t ncols = layer.columns.size();
  const uint64_t column = column_pick % ncols;
  // Both op kinds return a column range starting at the drawn column
  // where it fits; a scan filters its rows on that column.
  const uint64_t width =
      1 + width_pick % std::min<uint64_t>(kMaxFetchColumns, ncols);
  key.ncols = static_cast<uint32_t>(width);
  key.col0 = static_cast<uint32_t>(std::min(column, ncols - width));
  if (scan) {
    key.pred = static_cast<uint32_t>(column);
    const std::vector<double>& q = store.layer_quantiles[key.interm];
    key.lo = q[static_cast<size_t>(std::lround(u1 * 100))];
    key.hi = q[static_cast<size_t>(std::lround(u2 * 100))];
    return key;
  }
  const uint64_t m =
      std::min<uint64_t>(layer.rows, static_cast<uint64_t>(nrows));
  key.rows = SampleRows(content, layer.rows, m);
  return key;
}

std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

size_t DrawRank(Rng* rng, const std::vector<double>& cdf) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng->NextDouble());
  return std::min<size_t>(it - cdf.begin(), cdf.size() - 1);
}

const std::vector<IntermShape>& LayersOf(const OpKey& key,
                                         const StoreShape& shape) {
  return key.model < 0 ? shape.zillow : shape.cnn;
}

}  // namespace

double RunSeconds() {
  static const Clock::time_point origin = Clock::now();
  return SecondsSince(origin);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> out;
  for (const WorkloadSpec& w : kWorkloads) out.push_back(w.name);
  return out;
}

std::string CheckpointName(int k) { return "ckpt" + std::to_string(k); }

std::string DescribeOp(const OpKey& key, const StoreShape& shape) {
  const IntermShape& layer = LayersOf(key, shape)[key.interm];
  const std::string model =
      key.model < 0 ? "zillow." + shape.zillow_model
                    : "cifar." + CheckpointName(key.model);
  const std::string columns = " columns [" + std::to_string(key.col0) +
                              ", " + std::to_string(key.col0 + key.ncols) +
                              ")";
  if (key.scan) {
    return "scan " + model + "." + layer.name + columns + " where " +
           layer.columns[key.pred] + " in [" + std::to_string(key.lo) + ", " +
           std::to_string(key.hi) + "]";
  }
  return "fetch " + model + "." + layer.name + columns + " x " +
         std::to_string(key.rows.size()) + " rows";
}

FetchRequest ToFetch(const OpKey& key, const StoreShape& shape) {
  const IntermShape& layer = LayersOf(key, shape)[key.interm];
  FetchRequest req;
  req.project = key.model < 0 ? "zillow" : "cifar";
  req.model = key.model < 0 ? shape.zillow_model : CheckpointName(key.model);
  req.intermediate = layer.name;
  req.columns.assign(layer.columns.begin() + key.col0,
                     layer.columns.begin() + key.col0 + key.ncols);
  req.row_ids = key.rows;
  return req;
}

ScanRequest ToScan(const OpKey& key, const StoreShape& shape) {
  const IntermShape& layer = shape.cnn[key.interm];
  ScanRequest req;
  req.project = "cifar";
  req.model = CheckpointName(key.model);
  req.intermediate = layer.name;
  req.predicate_column = layer.columns[key.pred];
  req.columns.assign(layer.columns.begin() + key.col0,
                     layer.columns.begin() + key.col0 + key.ncols);
  req.lo = key.lo;
  req.hi = key.hi;
  return req;
}

uint64_t KeyHash(const OpKey& key) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = FnvU64(h, key.scan);
  h = FnvU64(h, static_cast<uint64_t>(static_cast<int64_t>(key.model)));
  h = FnvU64(h, key.interm);
  h = FnvU64(h, key.col0);
  h = FnvU64(h, key.ncols);
  for (uint64_t r : key.rows) h = FnvU64(h, r);
  h = FnvU64(h, key.pred);
  h = FnvDouble(h, key.lo);
  return FnvDouble(h, key.hi);
}

KeyPool BuildKeyPool(const StoreShape& shape, int checkpoints,
                     uint64_t seed) {
  // The key at each popularity rank has the same shape (layer, columns,
  // row count, selectivity) for every seed; the seed draws its checkpoint
  // and rows. Otherwise the few hottest keys, which carry much of the
  // traffic, would be light for one seed and heavy for the next.
  Rng shapes(Derive(kPoolShapeSeed, 7));
  Rng rng(Derive(seed, 7));
  KeyPool pool;
  for (size_t i = 0; i < kSkewedFetchKeys; ++i) {
    pool.fetches.push_back(
        DrawKey(&shapes, &rng, shape, false, checkpoints, false));
  }
  for (size_t i = 0; i < kSkewedScanKeys; ++i) {
    pool.scans.push_back(
        DrawKey(&shapes, &rng, shape, true, checkpoints, false));
  }
  pool.fetch_cdf = ZipfCdf(pool.fetches.size());
  pool.scan_cdf = ZipfCdf(pool.scans.size());
  return pool;
}

RequestStream::RequestStream(const WorkloadSpec& spec,
                             const StoreShape& shape, const KeyPool* pool,
                             uint64_t seed)
    : spec_(spec), shape_(shape), pool_(pool), rng_(Derive(seed, 11)) {}

OpKey RequestStream::Next(int visible_checkpoints) {
  const bool scan = !rng_.Bernoulli(kFetchShare);
  switch (spec_.kind) {
    case WorkloadKind::kWarmQuery:
      if (scan) return pool_->scans[DrawRank(&rng_, pool_->scan_cdf)];
      return pool_->fetches[DrawRank(&rng_, pool_->fetch_cdf)];
    case WorkloadKind::kColdQuery:
      while (true) {
        OpKey key =
            DrawKey(&rng_, &rng_, shape_, scan, visible_checkpoints, false);
        if (seen_.insert(KeyHash(key)).second) return key;
      }
    case WorkloadKind::kIngestMixed:
      break;
  }
  return DrawKey(&rng_, &rng_, shape_, scan, visible_checkpoints, true);
}

uint64_t StreamSeed(uint64_t seed, int stream) {
  return Derive(seed, 0x5eed0000 + static_cast<uint64_t>(stream));
}

uint64_t RequestDigest(const WorkloadSpec& spec, const StoreShape& shape,
                       const KeyPool* pool, uint64_t seed, int visible,
                       int n) {
  RequestStream stream(spec, shape, pool, seed);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < n; ++i) h = FnvU64(h, KeyHash(stream.Next(visible)));
  return h;
}

// ---------------------------------------------------------------------------
// BenchStore

Result<std::unique_ptr<BenchStore>> BenchStore::Build(
    const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
    bool trace_logging) {
  std::unique_ptr<BenchStore> s(new BenchStore());
  s->seed_ = seed;
  s->dir_ = dir;
  s->trace_logging_ = trace_logging;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create " + dir + ": " + ec.message());

  mistique::CifarConfig cifar;
  cifar.num_examples = kImages;
  cifar.seed = Derive(seed, 1);
  s->input_ = std::make_shared<const mistique::Tensor>(
      mistique::GenerateCifar(cifar).images);

  s->options_.store.directory = dir + "/store";
  s->options_.strategy = mistique::StorageStrategy::kDedup;
  s->options_.dnn_scheme = mistique::QuantScheme::kKBit;
  s->options_.kbits = 8;
  // One encode thread: the trainer is a single thread, so the readers,
  // the server and the trainer fit the 4 cores the workloads budget.
  s->options_.encode_threads = 1;
  s->mq_ = std::make_unique<Mistique>();
  MISTIQUE_RETURN_NOT_OK(s->mq_->Open(s->options_));

  const bool ingest = spec.kind == WorkloadKind::kIngestMixed;
  const int checkpoints = ingest ? kIngestStartCheckpoints : kStoreCheckpoints;
  for (int k = 0; k < checkpoints; ++k) {
    MISTIQUE_RETURN_NOT_OK(s->LogCheckpoint(k).status());
  }
  if (!ingest) {
    mistique::ZillowConfig zc;
    zc.num_properties = kZillowProperties;
    zc.num_train = kZillowProperties * 3 / 4;
    zc.num_test = kZillowProperties / 4;
    zc.seed = Derive(seed, 2);
    MISTIQUE_RETURN_NOT_OK(
        mistique::WriteZillowCsvs(mistique::GenerateZillow(zc), dir + "/csv"));
    MISTIQUE_ASSIGN_OR_RETURN(s->zillow_,
                              mistique::BuildZillowPipeline(1, 0, dir + "/csv"));
    MISTIQUE_RETURN_NOT_OK(
        s->mq_->LogPipeline(s->zillow_.get(), "zillow").status());
  }
  MISTIQUE_RETURN_NOT_OK(s->mq_->Flush());
  MISTIQUE_RETURN_NOT_OK(s->ComputeShape());
  return s;
}

BenchStore::~BenchStore() {
  mq_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Result<double> BenchStore::LogCheckpoint(int k) {
  // The base weights are the model zoo's fixed initialisation, so every
  // seed logs the same architecture from the same start; the seed drives
  // the training trajectory (the perturbations), the data and the
  // requests. Seeded base weights, or steps of 0.05, made the share of
  // dead ReLU columns, and with it the bytes stored, swing from seed to
  // seed.
  mistique::DnnScaleConfig scale;
  scale.cnn_scale = kCnnScale;
  // Each checkpoint is its own Network object: a re-run of checkpoint k
  // reloads k's weights into k's network, never into the trainer's next.
  std::unique_ptr<mistique::Network> net = mistique::BuildCifarCnn(scale);
  for (int j = 0; j <= k; ++j) {
    net->PerturbTrainable(Derive(seed_, 100 + static_cast<uint64_t>(j)),
                          kPerturbation);
  }
  nets_.push_back(std::move(net));
  const size_t partitions_before = Partitions();
  mistique::obs::QueryTrace trace;
  const Clock::time_point start = Clock::now();
  Result<mistique::ModelId> logged = [&] {
    std::optional<mistique::obs::TraceScope> scope;
    if (trace_logging_) scope.emplace(&trace);
    return mq_->LogNetwork(nets_.back().get(), input_, "cifar",
                           CheckpointName(k));
  }();
  const double seconds = SecondsSince(start);
  MISTIQUE_RETURN_NOT_OK(logged.status());
  checkpoint_seconds_.push_back(seconds);
  partitions_per_checkpoint_.push_back(
      static_cast<double>(Partitions() - partitions_before));
  if (trace_logging_) {
    publish_wait_seconds_.push_back(trace.StageSeconds("publish_wait"));
  }
  return seconds;
}

Status BenchStore::Reopen(size_t pool_bytes) {
  duplicate_chunks_ += mq_->dedup().duplicate_chunks();
  mq_.reset();
  options_.store.memory_budget_bytes = pool_bytes;
  mq_ = std::make_unique<Mistique>();
  MISTIQUE_RETURN_NOT_OK(mq_->Open(options_));
  for (size_t k = 0; k < nets_.size(); ++k) {
    MISTIQUE_RETURN_NOT_OK(mq_->AttachNetwork(
        "cifar", CheckpointName(static_cast<int>(k)), nets_[k].get(),
        input_));
  }
  if (zillow_ != nullptr) {
    MISTIQUE_RETURN_NOT_OK(
        mq_->AttachPipeline("zillow", zillow_->name(), zillow_.get()));
  }
  return Status::OK();
}

Status BenchStore::ComputeShape() {
  const mistique::CatalogSummary catalog = mq_->ExportCatalog();
  for (const auto& model : catalog.models) {
    std::vector<IntermShape>* target = nullptr;
    if (model.project == "cifar" && model.name == CheckpointName(0)) {
      target = &shape_.cnn;
    } else if (model.project == "zillow") {
      target = &shape_.zillow;
      shape_.zillow_model = model.name;
    }
    if (target == nullptr) continue;
    for (const auto& interm : model.intermediates) {
      target->push_back({interm.name, static_cast<uint32_t>(interm.num_rows),
                         interm.columns});
    }
  }
  if (shape_.cnn.empty()) return Status::Internal("checkpoint 0 not logged");

  // Scan ranges come from the value distribution of up to 16 evenly
  // spaced columns per layer.
  for (const IntermShape& layer : shape_.cnn) {
    FetchRequest req;
    req.project = "cifar";
    req.model = CheckpointName(0);
    req.intermediate = layer.name;
    const size_t step = std::max<size_t>(1, layer.columns.size() / 16);
    for (size_t c = 0; c < layer.columns.size(); c += step) {
      req.columns.push_back(layer.columns[c]);
    }
    req.force_read = true;
    MISTIQUE_ASSIGN_OR_RETURN(FetchResult r, mq_->Fetch(req));
    std::vector<double> values;
    for (const auto& col : r.columns) {
      values.insert(values.end(), col.begin(), col.end());
    }
    std::sort(values.begin(), values.end());
    std::vector<double> q(101);
    for (size_t i = 0; i <= 100; ++i) {
      q[i] = values[std::min(values.size() - 1, i * values.size() / 100)];
    }
    shape_.layer_quantiles.push_back(std::move(q));
  }
  return Status::OK();
}

uint64_t BenchStore::RawBytes() const {
  uint64_t raw = 0;
  for (const auto& model : mq_->ExportCatalog().models) {
    const uint64_t width = model.kind == mistique::ModelKind::kDnn ? 4 : 8;
    for (const auto& interm : model.intermediates) {
      raw += width * interm.num_rows * interm.columns.size();
    }
  }
  return raw;
}

size_t BenchStore::Partitions() const {
  return mq_->store().disk().ListPartitions().size();
}

// ---------------------------------------------------------------------------
// Serving

Result<std::unique_ptr<Serving>> Serving::Start(Mistique* engine) {
  std::unique_ptr<Serving> s(new Serving());
  mistique::QueryServiceOptions options;
  options.num_workers = kWorkers;
  s->service_ = std::make_unique<mistique::QueryService>(engine, options);
  s->server_ = std::make_unique<mistique::net::Server>(s->service_.get());
  MISTIQUE_RETURN_NOT_OK(s->server_->Start());
  for (int i = 0; i < kClients; ++i) {
    mistique::net::ClientOptions co;
    co.port = s->server_->port();
    s->clients_.push_back(std::make_unique<mistique::net::Client>(co));
    MISTIQUE_RETURN_NOT_OK(s->clients_.back()->Connect());
    MISTIQUE_RETURN_NOT_OK(s->clients_.back()->OpenSession().status());
  }
  return s;
}

void Serving::Stop() {
  clients_.clear();
  if (server_ != nullptr) server_->Stop();
  server_.reset();
  service_.reset();
}

// ---------------------------------------------------------------------------
// Ops and the oracle

uint64_t DigestAnswer(const std::vector<uint64_t>& rows,
                      const std::vector<std::string>& names,
                      const std::vector<std::vector<double>>& columns) {
  uint64_t h = mistique::Fnv1a64(rows.data(), rows.size() * sizeof(uint64_t));
  for (const std::string& name : names) {
    h = mistique::Fnv1a64(name.data(), name.size(), h);
  }
  for (const auto& col : columns) {
    h = mistique::Fnv1a64(col.data(), col.size() * sizeof(double), h);
  }
  return h;
}

OpRecord RunOp(mistique::net::Client& client, const OpKey& key,
               const StoreShape& shape,
               std::optional<mistique::obs::QueryTrace>* trace,
               FetchResult* keep) {
  OpRecord rec;
  rec.key = key;
  rec.traced = trace != nullptr;
  if (rec.traced) {
    client.SetTraceContext({mistique::obs::NewTraceId(), 0, true});
  } else if (client.has_trace_context()) {
    client.ClearTraceContext();
  }
  if (!key.scan) {
    const FetchRequest req = ToFetch(key, shape);
    rec.start_sec = RunSeconds();
    const Clock::time_point start = Clock::now();
    Result<FetchResult> r = client.Fetch(req);
    rec.latency_sec = SecondsSince(start);
    rec.ok = r.ok();
    if (!rec.ok) rec.error = r.status().ToString();
    if (rec.ok) {
      rec.used_read = r->used_read;
      rec.from_cache = r->from_cache;
      rec.digest = DigestAnswer(r->row_ids, r->column_names, r->columns);
      rec.bytes_returned = 8 * r->row_ids.size();
      for (const auto& col : r->columns) rec.bytes_returned += 8 * col.size();
      if (keep != nullptr) *keep = std::move(*r);
    }
  } else {
    const ScanRequest req = ToScan(key, shape);
    rec.start_sec = RunSeconds();
    const Clock::time_point start = Clock::now();
    Result<ScanResult> r = client.Scan(req);
    rec.latency_sec = SecondsSince(start);
    rec.ok = r.ok();
    if (!rec.ok) rec.error = r.status().ToString();
    if (rec.ok) {
      rec.digest = DigestAnswer(r->row_ids, r->column_names, r->columns);
      rec.bytes_returned = 8 * r->row_ids.size();
      for (const auto& col : r->columns) rec.bytes_returned += 8 * col.size();
      rec.blocks_scanned = r->blocks_scanned;
      rec.blocks_pruned = r->blocks_pruned;
    }
  }
  if (rec.traced) *trace = client.TakeLastTrace();
  return rec;
}

namespace {

// The in-process answer to `key`, with the returned columns read
// (`read`) or re-run. Re-runs return full precision, so a rerun-served
// answer is compared against a forced re-run, never against the read.
Result<uint64_t> ExpectedDigest(Mistique* engine, const StoreShape& shape,
                                const OpKey& key, bool read) {
  if (!key.scan) {
    FetchRequest req = ToFetch(key, shape);
    req.force_read = read;
    MISTIQUE_ASSIGN_OR_RETURN(FetchResult r, engine->Fetch(req));
    return DigestAnswer(r.row_ids, r.column_names, r.columns);
  }
  const ScanRequest scan = ToScan(key, shape);
  FetchRequest req;
  req.project = scan.project;
  req.model = scan.model;
  req.intermediate = scan.intermediate;
  req.columns = {scan.predicate_column};
  req.force_read = true;
  MISTIQUE_ASSIGN_OR_RETURN(FetchResult pred, engine->Fetch(req));
  std::vector<uint64_t> rows;
  for (size_t i = 0; i < pred.row_ids.size(); ++i) {
    const double v = pred.columns[0][i];
    if (v >= scan.lo && v <= scan.hi) rows.push_back(pred.row_ids[i]);
  }
  std::vector<std::vector<double>> columns(scan.columns.size());
  if (!rows.empty()) {
    req.columns = scan.columns;
    req.row_ids = rows;
    req.force_read = read;
    MISTIQUE_ASSIGN_OR_RETURN(FetchResult r, engine->Fetch(req));
    columns = std::move(r.columns);
  }
  return DigestAnswer(rows, scan.columns, columns);
}

}  // namespace

Result<OracleReport> VerifyOps(Mistique* engine, const StoreShape& shape,
                               const std::vector<OpRecord>& ops) {
  // One expected answer per distinct (request, strategy), computed on
  // kOracleThreads threads, with the distinct digests the ops returned.
  std::unordered_map<uint64_t, size_t> slot_of;
  std::vector<const OpRecord*> firsts;
  std::vector<std::vector<uint64_t>> returned;
  std::vector<size_t> slots(ops.size(), 0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (!op.ok) continue;
    const uint64_t id = HashCombine(
        KeyHash(op.key), op.key.scan ? 2 : (op.used_read ? 1 : 0));
    const auto [it, inserted] = slot_of.emplace(id, firsts.size());
    if (inserted) {
      firsts.push_back(&op);
      returned.emplace_back();
    }
    slots[i] = it->second;
    std::vector<uint64_t>& seen = returned[it->second];
    if (std::find(seen.begin(), seen.end(), op.digest) == seen.end()) {
      seen.push_back(op.digest);
    }
  }
  // A scan does not say how its columns were served, and the cost model
  // may have re-run them, so a scan that differs from the read is also
  // compared against a forced re-run. Once kMaxRerunChecks scans differ
  // from both the run fails anyway, and no more re-runs are spent.
  constexpr size_t kMaxRerunChecks = 8;
  std::vector<uint64_t> expected(firsts.size());
  std::vector<std::optional<uint64_t>> rerun(firsts.size());
  std::atomic<size_t> confirmed{0};
  std::vector<Status> errors(kOracleThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kOracleThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < firsts.size(); i += kOracleThreads) {
        const OpRecord& op = *firsts[i];
        Result<uint64_t> digest =
            ExpectedDigest(engine, shape, op.key, op.key.scan || op.used_read);
        if (!digest.ok()) {
          errors[t] = digest.status();
          return;
        }
        expected[i] = *digest;
        const std::vector<uint64_t>& seen = returned[i];
        const bool differs = std::any_of(
            seen.begin(), seen.end(), [&](uint64_t d) { return d != *digest; });
        if (!op.key.scan || !differs || confirmed >= kMaxRerunChecks) continue;
        Result<uint64_t> rr = ExpectedDigest(engine, shape, op.key, false);
        if (rr.ok()) rerun[i] = *rr;
        for (uint64_t d : seen) {
          if (d != *digest && (!rerun[i] || d != *rerun[i])) {
            confirmed++;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& st : errors) MISTIQUE_RETURN_NOT_OK(st);

  OracleReport report;
  report.distinct = firsts.size();
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (!op.ok) continue;
    report.checked++;
    const size_t slot = slots[i];
    if (op.digest == expected[slot] || op.digest == rerun[slot]) continue;
    if (report.mismatches == 0) {
      report.first_mismatch =
          DescribeOp(op.key, shape) +
          (op.key.scan ? "" : op.used_read ? " (read)" : " (rerun)");
    }
    report.mismatches++;
  }
  return report;
}

}  // namespace perfbench
