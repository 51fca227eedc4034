#include "qo/adaptive.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include <unistd.h>

#include "obs/metrics.h"
#include "obs/runlog.h"
#include "qo/family.h"
#include "qo/persist.h"
#include "qo/registry.h"
#include "util/check.h"

namespace aqo {

namespace {

// Log-domain features are clamped to this magnitude so zero sizes /
// selectivities (log2 = -inf) stay inside finite arithmetic.
constexpr double kLogClamp = 1024.0;

// Infeasible neighbors predict this regret: far beyond any clamped cost
// difference, so a candidate with infeasible history never looks cheap.
constexpr double kInfeasibleRegret = 1.0e6;

// Stream tags for the two inner-run Rngs (ASCII "fallback" / "chosen..").
constexpr uint64_t kFallbackStream = 0x66616c6c6261636bULL;
constexpr uint64_t kChosenStream = 0x63686f73656e2e2eULL;

double ClampLog(double log2) {
  if (std::isnan(log2)) return 0.0;
  return std::min(kLogClamp, std::max(-kLogClamp, log2));
}

obs::Counter& AdaptiveCounter(const char* name) {
  return obs::Registry::Get().GetCounter(std::string("qo.adaptive.") + name);
}

std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

bool ParseHexU64(std::string_view s, uint64_t* out) {
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
  }
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

// --- LE byte codec helpers (mirrors qo/persist.cc's internal codec; the
// framing above the payload is shared via EncodeFramedRecord) ---

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view s) : s_(s) {}

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(s_[pos_++]);
  }

  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(s_[pos_++])) << (8 * i);
    }
    return v;
  }

  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(s_[pos_++])) << (8 * i);
    }
    return v;
  }

  double F64() {
    uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string Bytes(size_t len) {
    if (!Need(len)) return {};
    std::string out(s_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && pos_ == s_.size(); }
  size_t remaining() const { return s_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || s_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view s_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Digest of a record's encoded bytes, for committed-set dedup.
Hash128 DigestBytes(std::string_view bytes) {
  HashAccumulator acc(0x61646170746976ULL);  // "adaptiv"
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    acc.Add(word);
  }
  uint64_t tail = 0;
  if (i < bytes.size()) std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  acc.Add(tail);
  acc.Add(bytes.size());
  return acc.Digest();
}

// Weighted L1 feature distance. Weights put the structural coordinates
// (size, density, 1-WL class) in charge and let the cost-model summaries
// refine; any fixed positive weighting keeps the ordering deterministic,
// which is the property the replay contract needs.
double FeatureDistance(const InstanceFeatures& a, const InstanceFeatures& b,
                       uint64_t knob_hash_a, uint64_t knob_hash_b) {
  double d = 0.0;
  d += 1.0 * std::abs(static_cast<double>(a.n) - static_cast<double>(b.n));
  d += 8.0 * std::abs(a.edge_density - b.edge_density);
  d += 0.25 * std::abs(a.log_size_mean - b.log_size_mean);
  d += 0.125 * std::abs(a.log_size_max - b.log_size_max);
  d += 0.25 * std::abs(a.sel_log_mean - b.sel_log_mean);
  d += 0.125 * std::abs(a.sel_log_min - b.sel_log_min);
  d += 0.125 * std::abs(a.access_log_mean - b.access_log_mean);
  d += 0.0625 * std::abs(a.memory_log2 - b.memory_log2);
  d += 1.0 * std::abs(a.eta - b.eta);
  if (a.wl_class != b.wl_class) d += 4.0;
  if (knob_hash_a != knob_hash_b) d += 2.0;
  return d;
}

obs::JsonValue FeaturesJson(const InstanceFeatures& f) {
  obs::JsonValue v = obs::JsonValue::Object();
  v["n"] = f.n;
  v["edges"] = f.edges;
  v["edge_density"] = f.edge_density;
  v["log_size_mean"] = f.log_size_mean;
  v["log_size_min"] = f.log_size_min;
  v["log_size_max"] = f.log_size_max;
  v["sel_log_mean"] = f.sel_log_mean;
  v["sel_log_min"] = f.sel_log_min;
  v["access_log_mean"] = f.access_log_mean;
  v["access_log_max"] = f.access_log_max;
  v["memory_log2"] = f.memory_log2;
  v["eta"] = f.eta;
  // u64: hex string, not a JSON number (doubles cannot carry 64 bits).
  v["wl_class"] = HexU64(f.wl_class);
  return v;
}

bool FeaturesFromJson(const obs::JsonValue& v, InstanceFeatures* f,
                      std::string* error) {
  auto need = [&](const char* key) -> const obs::JsonValue* {
    const obs::JsonValue* m = v.Find(key);
    if (m == nullptr) *error = std::string("features missing key: ") + key;
    return m;
  };
  const obs::JsonValue* m;
  if ((m = need("n")) == nullptr) return false;
  f->n = static_cast<int>(m->AsInt());
  if ((m = need("edges")) == nullptr) return false;
  f->edges = static_cast<int>(m->AsInt());
  if ((m = need("edge_density")) == nullptr) return false;
  f->edge_density = m->AsDouble();
  if ((m = need("log_size_mean")) == nullptr) return false;
  f->log_size_mean = m->AsDouble();
  if ((m = need("log_size_min")) == nullptr) return false;
  f->log_size_min = m->AsDouble();
  if ((m = need("log_size_max")) == nullptr) return false;
  f->log_size_max = m->AsDouble();
  if ((m = need("sel_log_mean")) == nullptr) return false;
  f->sel_log_mean = m->AsDouble();
  if ((m = need("sel_log_min")) == nullptr) return false;
  f->sel_log_min = m->AsDouble();
  if ((m = need("access_log_mean")) == nullptr) return false;
  f->access_log_mean = m->AsDouble();
  if ((m = need("access_log_max")) == nullptr) return false;
  f->access_log_max = m->AsDouble();
  if ((m = need("memory_log2")) == nullptr) return false;
  f->memory_log2 = m->AsDouble();
  if ((m = need("eta")) == nullptr) return false;
  f->eta = m->AsDouble();
  if ((m = need("wl_class")) == nullptr) return false;
  if (!ParseHexU64(m->AsString(), &f->wl_class)) {
    *error = "features: malformed wl_class hex";
    return false;
  }
  return true;
}

}  // namespace

const char* AdaptiveFamilyName(AdaptiveFamily family) {
  return family == AdaptiveFamily::kQon ? "qon" : "qoh";
}

// --- Feature extraction ---

namespace {

// Shared size/selectivity statistics, accumulated in canonical index
// order (the caller passes the canonical instance, so the summation
// order — and therefore every bit of the result — is label-invariant).
template <typename Instance>
void FillCommonFeatures(const Instance& inst, InstanceFeatures* f) {
  int n = inst.NumRelations();
  f->n = n;
  f->edges = inst.graph().NumEdges();
  f->edge_density =
      n >= 2 ? 2.0 * static_cast<double>(f->edges) /
                   (static_cast<double>(n) * static_cast<double>(n - 1))
             : 0.0;
  if (n > 0) {
    double sum = 0.0;
    double min_l = kLogClamp;
    double max_l = -kLogClamp;
    for (int i = 0; i < n; ++i) {
      double l = ClampLog(inst.size(i).Log2());
      sum += l;
      min_l = std::min(min_l, l);
      max_l = std::max(max_l, l);
    }
    f->log_size_mean = sum / static_cast<double>(n);
    f->log_size_min = min_l;
    f->log_size_max = max_l;
  }
  auto edges = inst.graph().Edges();  // (u, v), u < v, lexicographic
  if (!edges.empty()) {
    double sum = 0.0;
    double min_l = kLogClamp;
    for (const auto& [u, v] : edges) {
      double l = ClampLog(inst.selectivity(u, v).Log2());
      sum += l;
      min_l = std::min(min_l, l);
    }
    f->sel_log_mean = sum / static_cast<double>(edges.size());
    f->sel_log_min = min_l;
  }
}

}  // namespace

InstanceFeatures ExtractFeatures(const CanonicalQon& canon) {
  const QonInstance& inst = canon.instance;
  InstanceFeatures f;
  FillCommonFeatures(inst, &f);
  int n = inst.NumRelations();
  if (n >= 2) {
    double sum = 0.0;
    double max_l = -kLogClamp;
    for (int k = 0; k < n; ++k) {
      for (int j = 0; j < n; ++j) {
        if (j == k) continue;
        double l = ClampLog(inst.AccessCost(k, j).Log2());
        sum += l;
        max_l = std::max(max_l, l);
      }
    }
    f.access_log_mean = sum / static_cast<double>(n) /
                        static_cast<double>(n - 1);
    f.access_log_max = max_l;
  }
  f.wl_class = canon.fingerprint.lo;
  return f;
}

InstanceFeatures ExtractFeatures(const CanonicalQoh& canon) {
  const QohInstance& inst = canon.instance;
  InstanceFeatures f;
  FillCommonFeatures(inst, &f);
  f.memory_log2 = inst.memory() > 0.0 ? ClampLog(std::log2(inst.memory()))
                                      : -kLogClamp;
  f.eta = inst.eta();
  f.wl_class = canon.fingerprint.lo;
  return f;
}

// --- Record codec ---

std::string EncodeFeedbackPayload(const FeedbackRecord& rec) {
  std::string out;
  out.reserve(64 + rec.optimizer.size() + 10 * 8);
  PutU8(&out, static_cast<uint8_t>(rec.family));
  PutU8(&out, rec.feasible ? 1 : 0);
  PutU8(&out, static_cast<uint8_t>(rec.status));
  PutU8(&out, 0);  // reserved
  PutU32(&out, static_cast<uint32_t>(rec.optimizer.size()));
  out.append(rec.optimizer);
  PutU64(&out, rec.knob_hash);
  PutU32(&out, static_cast<uint32_t>(rec.features.n));
  PutU32(&out, static_cast<uint32_t>(rec.features.edges));
  PutF64(&out, rec.features.edge_density);
  PutF64(&out, rec.features.log_size_mean);
  PutF64(&out, rec.features.log_size_min);
  PutF64(&out, rec.features.log_size_max);
  PutF64(&out, rec.features.sel_log_mean);
  PutF64(&out, rec.features.sel_log_min);
  PutF64(&out, rec.features.access_log_mean);
  PutF64(&out, rec.features.access_log_max);
  PutF64(&out, rec.features.memory_log2);
  PutF64(&out, rec.features.eta);
  PutU64(&out, rec.features.wl_class);
  PutF64(&out, rec.cost_log2);
  PutF64(&out, rec.regret_log2);
  PutU64(&out, rec.evaluations);
  return out;
}

bool DecodeFeedbackPayload(std::string_view payload, FeedbackRecord* out,
                           std::string* error) {
  auto fail = [&](const char* reason) {
    if (error != nullptr) *error = reason;
    return false;
  };
  PayloadReader r(payload);
  FeedbackRecord rec;
  uint8_t family = r.U8();
  uint8_t feasible = r.U8();
  uint8_t status = r.U8();
  uint8_t reserved = r.U8();
  if (!r.ok()) return fail("truncated feedback record");
  if (family > 1) return fail("feedback record: family out of range");
  if (feasible > 1) return fail("feedback record: feasible out of range");
  if (status > 3) return fail("feedback record: status out of range");
  if (reserved != 0) return fail("feedback record: nonzero reserved byte");
  uint32_t name_len = r.U32();
  if (!r.ok() || name_len > r.remaining()) {
    return fail("feedback record: implausible optimizer length");
  }
  rec.optimizer = r.Bytes(name_len);
  if (rec.optimizer.empty()) return fail("feedback record: empty optimizer");
  rec.family = static_cast<AdaptiveFamily>(family);
  rec.feasible = feasible != 0;
  rec.status = static_cast<PlanStatus>(status);
  rec.knob_hash = r.U64();
  rec.features.n = static_cast<int>(r.U32());
  rec.features.edges = static_cast<int>(r.U32());
  rec.features.edge_density = r.F64();
  rec.features.log_size_mean = r.F64();
  rec.features.log_size_min = r.F64();
  rec.features.log_size_max = r.F64();
  rec.features.sel_log_mean = r.F64();
  rec.features.sel_log_min = r.F64();
  rec.features.access_log_mean = r.F64();
  rec.features.access_log_max = r.F64();
  rec.features.memory_log2 = r.F64();
  rec.features.eta = r.F64();
  rec.features.wl_class = r.U64();
  rec.cost_log2 = r.F64();
  rec.regret_log2 = r.F64();
  rec.evaluations = r.U64();
  if (!r.ok()) return fail("truncated feedback record");
  if (!r.AtEnd()) return fail("feedback record: trailing bytes");
  const double doubles[] = {
      rec.features.edge_density, rec.features.log_size_mean,
      rec.features.log_size_min, rec.features.log_size_max,
      rec.features.sel_log_mean, rec.features.sel_log_min,
      rec.features.access_log_mean, rec.features.access_log_max,
      rec.features.memory_log2, rec.features.eta, rec.cost_log2,
      rec.regret_log2};
  for (double d : doubles) {
    if (!std::isfinite(d)) return fail("feedback record: non-finite double");
  }
  if (rec.features.n < 0 || rec.features.edges < 0) {
    return fail("feedback record: negative instance shape");
  }
  *out = std::move(rec);
  return true;
}

// --- Knob hashing ---

namespace {

template <typename Family>
uint64_t KnobHash(const typename Family::Options& options) {
  HashAccumulator acc(Family::kKnobTag);
  Family::AddResultKnobs(&acc, options);
  return acc.Digest().lo;
}

}  // namespace

uint64_t AdaptiveKnobHash(const OptimizerOptions& options) {
  return KnobHash<QonFamily>(options);
}

uint64_t AdaptiveKnobHash(const QohOptimizerOptions& options) {
  return KnobHash<QohFamily>(options);
}

// --- FeedbackStore ---

FeedbackStore& FeedbackStore::Default() {
  static FeedbackStore* store = new FeedbackStore();
  return *store;
}

void FeedbackStore::Record(const FeedbackRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(rec);
}

uint64_t FeedbackStore::Commit() {
  std::lock_guard<std::mutex> lock(mu_);
  return CommitLocked();
}

uint64_t FeedbackStore::CommitLocked() {
  if (pending_.empty()) return 0;
  // Sort by encoded bytes: a total order independent of Record() arrival
  // order (pool scheduling must not leak into committed state).
  std::vector<std::pair<std::string, size_t>> order;
  order.reserve(pending_.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    order.emplace_back(EncodeFeedbackPayload(pending_[i]), i);
  }
  std::sort(order.begin(), order.end());
  uint64_t committed = 0;
  uint64_t duplicates = 0;
  std::string appended;
  for (const auto& [bytes, index] : order) {
    Hash128 digest = DigestBytes(bytes);
    if (!digests_.insert(digest).second) {
      ++duplicates;
      continue;
    }
    committed_.push_back(std::move(pending_[index]));
    appended += EncodeFramedRecord(bytes);
    ++committed;
  }
  pending_.clear();
  if (!appended.empty() && !attached_path_.empty() && !attach_failed_) {
    std::ofstream out(attached_path_,
                      std::ios::binary | std::ios::app);
    if (!out || !(out.write(appended.data(),
                            static_cast<std::streamsize>(appended.size())))) {
      attach_failed_ = true;
    } else {
      out.flush();
      if (!out) attach_failed_ = true;
    }
  }
  AdaptiveCounter("records_committed").Add(committed);
  AdaptiveCounter("records_duplicate").Add(duplicates);
  return committed;
}

size_t FeedbackStore::CommittedSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_.size();
}

size_t FeedbackStore::PendingSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void FeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  committed_.clear();
  pending_.clear();
  digests_.clear();
}

Recommendation FeedbackStore::Recommend(
    const InstanceFeatures& features, AdaptiveFamily family,
    const std::vector<std::string>& candidates, uint64_t knob_hash,
    double quality_target, int k_neighbors, int min_trials,
    uint64_t decision_seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  AQO_CHECK(!candidates.empty()) << "adaptive: empty candidate list";
  if (quality_target < 1.0) quality_target = 1.0;
  if (k_neighbors < 1) k_neighbors = 1;
  if (min_trials < 0) min_trials = 0;

  Recommendation rec;
  rec.candidates.reserve(candidates.size());
  for (const std::string& name : candidates) {
    CandidatePrediction pred;
    pred.optimizer = name;
    // (distance, committed index): ties resolve toward earlier commits.
    std::vector<std::pair<double, size_t>> near;
    for (size_t i = 0; i < committed_.size(); ++i) {
      const FeedbackRecord& r = committed_[i];
      if (r.family != family || r.optimizer != name) continue;
      near.emplace_back(
          FeatureDistance(features, r.features, knob_hash, r.knob_hash), i);
    }
    pred.trials = near.size();
    if (!near.empty()) {
      size_t k = std::min(near.size(), static_cast<size_t>(k_neighbors));
      std::sort(near.begin(), near.end());
      double regret_sum = 0.0;
      double evals_sum = 0.0;
      for (size_t i = 0; i < k; ++i) {
        const FeedbackRecord& r = committed_[near[i].second];
        regret_sum += r.feasible ? r.regret_log2 : kInfeasibleRegret;
        evals_sum += static_cast<double>(r.evaluations);
      }
      pred.predicted_regret_log2 = regret_sum / static_cast<double>(k);
      pred.predicted_evaluations = evals_sum / static_cast<double>(k);
    }
    rec.candidates.push_back(std::move(pred));
  }

  // Explore: any candidate below the trial floor gets priority, chosen by
  // a seeded draw so repeat instances spread over the under-tried set.
  std::vector<size_t> under;
  for (size_t i = 0; i < rec.candidates.size(); ++i) {
    if (rec.candidates[i].trials < static_cast<uint64_t>(min_trials)) {
      under.push_back(i);
    }
  }
  if (!under.empty()) {
    Rng rng(decision_seed);
    size_t pick = under[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(under.size()) - 1))];
    rec.optimizer = rec.candidates[pick].optimizer;
    rec.explored = true;
    return rec;
  }

  // Exploit: cheapest candidate predicted within quality_target of the
  // best (regret is log2-cost over the best sibling, so the slack is the
  // target ratio's log).
  double best_regret = rec.candidates[0].predicted_regret_log2;
  for (const CandidatePrediction& p : rec.candidates) {
    best_regret = std::min(best_regret, p.predicted_regret_log2);
  }
  double slack = std::log2(quality_target);
  size_t choice = 0;
  bool have_choice = false;
  for (size_t i = 0; i < rec.candidates.size(); ++i) {
    CandidatePrediction& p = rec.candidates[i];
    p.eligible = p.predicted_regret_log2 <= best_regret + slack;
    if (!p.eligible) continue;
    if (!have_choice || p.predicted_evaluations <
                            rec.candidates[choice].predicted_evaluations) {
      choice = i;
      have_choice = true;
    }
  }
  AQO_CHECK(have_choice);  // the best-regret candidate is always eligible
  rec.optimizer = rec.candidates[choice].optimizer;
  rec.explored = false;
  return rec;
}

bool FeedbackStore::SaveTo(const std::string& path,
                           std::string* error) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  std::string bytes = EncodePersistHeader(PersistFileKind::kFeedback);
  for (const FeedbackRecord& rec : committed_) {
    bytes += EncodeFramedRecord(EncodeFeedbackPayload(rec));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

FeedbackLoadStats FeedbackStore::LoadFrom(const std::string& path) {
  FeedbackLoadStats stats;
  std::ifstream in(path, std::ios::binary);
  if (!in) return stats;  // missing file: cold start, not an error
  stats.existed = true;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string bytes = buffer.str();
  FramedFileInfo info = ScanFramedFile(bytes, PersistFileKind::kFeedback);
  stats.torn_tail = info.torn_tail;
  stats.damage = info.damage;
  if (!info.header_ok) return stats;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < info.payloads.size(); ++i) {
    FeedbackRecord rec;
    std::string decode_error;
    if (!DecodeFeedbackPayload(info.payloads[i], &rec, &decode_error)) {
      // Decode damage trumps any later framing damage: salvage stops here.
      std::ostringstream msg;
      msg << "record #" << i << ": " << decode_error;
      stats.damage = msg.str();
      stats.torn_tail = false;
      break;
    }
    Hash128 digest = DigestBytes(info.payloads[i]);
    if (!digests_.insert(digest).second) {
      ++stats.duplicates;
      continue;
    }
    committed_.push_back(std::move(rec));
    ++stats.records;
  }
  AdaptiveCounter("load_records").Add(stats.records);
  return stats;
}

bool FeedbackStore::AttachFile(const std::string& path, std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Absent: create with a header so appends land in a well-formed file.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::string header = EncodePersistHeader(PersistFileKind::kFeedback);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "cannot create " + path;
      return false;
    }
  } else {
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    in.close();
    FramedFileInfo info = ScanFramedFile(bytes, PersistFileKind::kFeedback);
    if (!info.header_ok) {
      if (error != nullptr) {
        *error = "refusing to attach " + path + ": " + info.damage;
      }
      return false;
    }
    if (info.valid_bytes < bytes.size()) {
      // Torn tail (or post-damage garbage): truncate to the last intact
      // record so appends extend a clean frame boundary.
      if (::truncate(path.c_str(),
                     static_cast<off_t>(info.valid_bytes)) != 0) {
        if (error != nullptr) *error = "cannot repair " + path;
        return false;
      }
    }
  }
  attached_path_ = path;
  attach_failed_ = false;
  return true;
}

// --- The meta-optimizers ---

std::vector<std::string> DefaultAdaptiveCandidates(AdaptiveFamily family) {
  (void)family;  // the same heuristic spread exists in both registries
  return {"greedy", "ii", "sa", "random"};
}

namespace {

template <typename Family>
constexpr AdaptiveFamily kAdaptiveFamily = Family::kName == QonFamily::kName
                                               ? AdaptiveFamily::kQon
                                               : AdaptiveFamily::kQoh;

std::string FallbackName(const AdaptiveKnobs& knobs) {
  return knobs.fallback.empty() ? "greedy" : knobs.fallback;
}

// The magnitude domain (kMaxInstanceLog2Magnitude). Let M be the sum of
// |log2 t_i| over the sizes and |log2 s_e| over the selectivities.
//   * N(X) = prod_{i in X} t_i prod_{e in X} s_e: |log2 N(X)| <= M.
//   * A QO_N access cost w_kj lies in [t_j s_kj, t_j] (the parser and
//     QonInstance::Validate enforce it) and j is outside X, so a join cost
//     N(X) w_kj uses each factor at most once: |log2| <= M.
//   * A QO_H join costs (N + t) g + t with g in [0, 1]; hjmin(t) = t^eta
//     with eta < 1; a pipeline sums at most n + 2 such terms.
//   * A sum of k <= n^2 terms adds at most log2 k <= 24 (n <= 4096, the
//     parsers' ceiling) to its largest exponent, and a difference of two
//     exponents, as the kernels' skip tests form, at most doubles it.
// So every exponent stays below 2M + 64 in magnitude, and M <= 1e300 is a
// factor of 10^8 below DBL_MAX: no fold reaches +inf, which
// LogDouble::FromLog2 refuses and the QO_N subset-DP kernel reads as "no
// plan". The largest library-built gap instance, E5's alpha = 2^60000 over
// 512 relations, has M < 4e6 (tests/domain_test.cc).
template <typename Instance>
std::string InstanceMagnitudeError(const Instance& inst) {
  double m = 0.0;
  for (int i = 0; i < inst.NumRelations(); ++i) {
    m += std::fabs(inst.size(i).Log2());
  }
  for (const auto& [u, v] : inst.graph().Edges()) {
    m += std::fabs(inst.selectivity(u, v).Log2());
  }
  if (m <= kMaxInstanceLog2Magnitude) return "";
  char text[96];
  std::snprintf(text, sizeof(text),
                "sum of |log2 size| and |log2 selectivity| is %g, above %g",
                m, kMaxInstanceLog2Magnitude);
  return text;
}

template <typename Family>
std::string EntryDomainErrorT(const typename Family::Entry& entry,
                              const AdaptiveKnobs& knobs,
                              const typename Family::Instance& inst) {
  const int n = inst.NumRelations();
  if (!entry.InDomain(n)) return entry.DomainError(n);
  if (entry.name == "adaptive") {
    const typename Family::Entry* fallback =
        Family::Registry().Find(FallbackName(knobs));
    if (fallback == nullptr) {
      return "adaptive fallback: unknown optimizer '" + FallbackName(knobs) +
             "'";
    }
    if (!fallback->InDomain(n)) {
      return "adaptive fallback: " + fallback->DomainError(n);
    }
    // The knobs are shared by both families, so a name can be known in
    // one registry and unknown in the other.
    for (const std::string& name : ParseOptimizerList(knobs.candidates)) {
      if (Family::Registry().Find(name) == nullptr) {
        return "adaptive candidate: unknown optimizer '" + name + "'";
      }
    }
  }
  return InstanceMagnitudeError(inst);
}

template <typename Family>
typename Family::Result AdaptiveRun(const typename Family::Instance& inst,
                                    const typename Family::Options& options) {
  using Result = typename Family::Result;
  using Entry = typename Family::Entry;
  constexpr AdaptiveFamily kFamily = kAdaptiveFamily<Family>;
  const AdaptiveKnobs& knobs = options.adaptive;
  FeedbackStore& store =
      knobs.store != nullptr ? *knobs.store : FeedbackStore::Default();

  // Canonicalize (idempotent when the batch service already did): the
  // features, the decision, and both inner runs live in canonical labels,
  // so 1-WL-equivalent relabelings decide and plan identically.
  typename Family::Canonical canon = Family::Canonicalize(inst);
  InstanceFeatures features = ExtractFeatures(canon);
  uint64_t decision_seed = MixSeed(knobs.seed, canon.fingerprint.lo);
  const int n = canon.instance.NumRelations();

  // Resolve the fallback and candidate set against the family registry.
  const Entry* fallback_entry = Family::Registry().Find(FallbackName(knobs));
  AQO_CHECK(fallback_entry != nullptr)
      << "adaptive: unknown fallback optimizer: " << knobs.fallback;
  const std::string& fallback = fallback_entry->name;
  AQO_CHECK(fallback != "adaptive")
      << "adaptive cannot be its own fallback";
  // Front-ends reject this instance first (EntryDomainError); reaching
  // here is a caller bug, reported before the fallback's own CHECK.
  AQO_CHECK(fallback_entry->InDomain(n))
      << "adaptive fallback: " << fallback_entry->DomainError(n);

  std::vector<std::string> candidates;
  {
    std::vector<std::string> requested =
        knobs.candidates.empty() ? DefaultAdaptiveCandidates(kFamily)
                                 : ParseOptimizerList(knobs.candidates);
    AQO_CHECK(!requested.empty()) << "adaptive: empty candidate list";
    auto add = [&candidates](const std::string& name) {
      for (const std::string& existing : candidates) {
        if (existing == name) return;
      }
      candidates.push_back(name);
    };
    // The fallback is always a candidate: its outcome is recorded every
    // decision, so the store can learn it is (or is not) good enough.
    add(fallback);
    for (const std::string& name : requested) {
      const Entry* entry = Family::Registry().Find(name);
      AQO_CHECK(entry != nullptr)
          << "adaptive: unknown candidate optimizer: " << name;
      AQO_CHECK(entry->name != "adaptive")
          << "adaptive cannot be its own candidate";
      // A candidate that cannot run at this n is no choice: drop it
      // before the decision (and so from the logged candidate list).
      if (entry->InDomain(n)) add(entry->name);
    }
  }

  // Inner options: canonical-label knobs, no outcome reporting (the
  // registry reports one RunOutcome for the adaptive invocation itself;
  // the inner runs feed the store directly).
  typename Family::Options inner = options;
  inner.feedback = nullptr;
  Family::ToCanonicalKnobs(&inner, canon);
  uint64_t knob_hash = AdaptiveKnobHash(inner);

  double quality_target =
      knobs.quality_target < 1.0 ? 1.0 : knobs.quality_target;
  Recommendation rec = store.Recommend(
      features, kFamily, candidates, knob_hash, quality_target,
      knobs.k_neighbors, knobs.min_trials, decision_seed);

  // The fallback always runs, on an Rng derived only from the decision
  // seed — its plan is independent of the store state, which is what
  // makes "never worse than the fallback" testable cold vs. warm.
  Rng fallback_rng(MixSeed(decision_seed, kFallbackStream));
  Result fallback_result =
      fallback_entry->run(canon.instance, inner, &fallback_rng);

  Result chosen_result;
  bool ran_chosen = false;
  if (rec.optimizer != fallback) {
    const Entry* chosen_entry = Family::Registry().Find(rec.optimizer);
    AQO_CHECK(chosen_entry != nullptr);
    Rng chosen_rng(MixSeed(decision_seed, kChosenStream));
    chosen_result = chosen_entry->run(canon.instance, inner, &chosen_rng);
    ran_chosen = true;
  }

  // Record both outcomes (pending; committed by CommitAdaptiveFeedback).
  double best_log2 = 0.0;
  bool have_best = false;
  auto consider = [&](const Result& r) {
    double l = r.cost.Log2();
    if (!r.feasible || !std::isfinite(l)) return;
    if (!have_best || l < best_log2) best_log2 = l;
    have_best = true;
  };
  consider(fallback_result);
  if (ran_chosen) consider(chosen_result);
  auto record_of = [&](const std::string& name, const Result& r) {
    FeedbackRecord fr;
    fr.family = kFamily;
    fr.optimizer = name;
    fr.knob_hash = knob_hash;
    fr.features = features;
    double l = r.cost.Log2();
    fr.feasible = r.feasible && std::isfinite(l);
    fr.cost_log2 = fr.feasible ? l : 0.0;
    fr.regret_log2 =
        fr.feasible && have_best ? std::max(0.0, l - best_log2) : 0.0;
    fr.evaluations = r.evaluations;
    fr.status = r.status;
    return fr;
  };
  store.Record(record_of(fallback, fallback_result));
  if (ran_chosen) store.Record(record_of(rec.optimizer, chosen_result));

  // Differential guarantee: return the chosen plan only when it strictly
  // beats the fallback; ties and infeasibility keep the fallback.
  bool return_chosen =
      ran_chosen && chosen_result.feasible &&
      (!fallback_result.feasible || chosen_result.cost < fallback_result.cost);
  Result out = return_chosen ? chosen_result : fallback_result;
  out.evaluations = fallback_result.evaluations +
                    (ran_chosen ? chosen_result.evaluations : 0);
  out.sequence = MapSequenceFromCanonical(out.sequence, canon.from_canonical);

  AdaptiveCounter("decisions").Increment();
  AdaptiveCounter(rec.explored ? "explore" : "exploit").Increment();
  AdaptiveCounter(return_chosen ? "returned_chosen" : "returned_fallback")
      .Increment();

  if (obs::RunLog::Global() != nullptr) {
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "adaptive_decision";
    record["family"] = AdaptiveFamilyName(kFamily);
    record["fingerprint"] =
        HexU64(canon.fingerprint.lo) + HexU64(canon.fingerprint.hi).substr(2);
    record["features"] = FeaturesJson(features);
    record["knob_hash"] = HexU64(knob_hash);
    record["quality_target"] = quality_target;
    record["k_neighbors"] = knobs.k_neighbors;
    record["min_trials"] = knobs.min_trials;
    record["decision_seed"] = HexU64(decision_seed);
    record["fallback"] = fallback;
    obs::JsonValue cands = obs::JsonValue::Array();
    for (const CandidatePrediction& p : rec.candidates) {
      obs::JsonValue c = obs::JsonValue::Object();
      c["name"] = p.optimizer;
      c["trials"] = p.trials;
      c["predicted_regret_log2"] = p.predicted_regret_log2;
      c["predicted_evaluations"] = p.predicted_evaluations;
      c["eligible"] = p.eligible;
      cands.Push(std::move(c));
    }
    record["candidates"] = std::move(cands);
    record["chosen"] = rec.optimizer;
    record["explored"] = rec.explored;
    obs::JsonValue outcomes = obs::JsonValue::Array();
    auto outcome_json = [](const FeedbackRecord& fr) {
      obs::JsonValue o = obs::JsonValue::Object();
      o["optimizer"] = fr.optimizer;
      o["feasible"] = fr.feasible;
      o["cost_log2"] = fr.cost_log2;
      o["regret_log2"] = fr.regret_log2;
      o["evaluations"] = fr.evaluations;
      o["status"] = static_cast<int>(fr.status);
      return o;
    };
    outcomes.Push(outcome_json(record_of(fallback, fallback_result)));
    if (ran_chosen) {
      outcomes.Push(outcome_json(record_of(rec.optimizer, chosen_result)));
    }
    record["outcomes"] = std::move(outcomes);
    record["returned"] = return_chosen ? rec.optimizer : fallback;
    obs::RunLog::Global()->Write(record);
  }
  return out;
}

}  // namespace

std::string EntryDomainError(const QonOptimizerEntry& entry,
                             const OptimizerOptions& options,
                             const QonInstance& inst) {
  return EntryDomainErrorT<QonFamily>(entry, options.adaptive, inst);
}

std::string EntryDomainError(const QohOptimizerEntry& entry,
                             const QohOptimizerOptions& options,
                             const QohInstance& inst) {
  return EntryDomainErrorT<QohFamily>(entry, options.adaptive, inst);
}

OptimizerResult AdaptiveQonOptimizer(const QonInstance& inst,
                                     const OptimizerOptions& options,
                                     Rng* /*rng*/) {
  return AdaptiveRun<QonFamily>(inst, options);
}

QohOptimizerResult AdaptiveQohOptimizer(const QohInstance& inst,
                                        const QohOptimizerOptions& options,
                                        Rng* /*rng*/) {
  return AdaptiveRun<QohFamily>(inst, options);
}

uint64_t CommitAdaptiveFeedback(const AdaptiveKnobs& knobs) {
  FeedbackStore& store =
      knobs.store != nullptr ? *knobs.store : FeedbackStore::Default();
  uint64_t committed = store.Commit();
  AdaptiveCounter("commits").Increment();
  if (obs::RunLog::Global() != nullptr) {
    obs::JsonValue record = obs::JsonValue::Object();
    record["type"] = "adaptive_commit";
    record["records"] = committed;
    obs::RunLog::Global()->Write(record);
  }
  return committed;
}

// --- Decision-log replay ---

namespace {

bool ReplayDecision(const obs::JsonValue& record, FeedbackStore* store,
                    std::string* error) {
  auto need = [&](const char* key) -> const obs::JsonValue* {
    const obs::JsonValue* m = record.Find(key);
    if (m == nullptr) *error = std::string("decision missing key: ") + key;
    return m;
  };
  const obs::JsonValue* m;
  if ((m = need("family")) == nullptr) return false;
  AdaptiveFamily family =
      m->AsString() == "qoh" ? AdaptiveFamily::kQoh : AdaptiveFamily::kQon;
  if ((m = need("features")) == nullptr) return false;
  InstanceFeatures features;
  if (!FeaturesFromJson(*m, &features, error)) return false;
  uint64_t knob_hash = 0;
  uint64_t decision_seed = 0;
  if ((m = need("knob_hash")) == nullptr) return false;
  if (!ParseHexU64(m->AsString(), &knob_hash)) {
    *error = "malformed knob_hash hex";
    return false;
  }
  if ((m = need("decision_seed")) == nullptr) return false;
  if (!ParseHexU64(m->AsString(), &decision_seed)) {
    *error = "malformed decision_seed hex";
    return false;
  }
  if ((m = need("quality_target")) == nullptr) return false;
  double quality_target = m->AsDouble();
  if ((m = need("k_neighbors")) == nullptr) return false;
  int k_neighbors = static_cast<int>(m->AsInt());
  if ((m = need("min_trials")) == nullptr) return false;
  int min_trials = static_cast<int>(m->AsInt());
  if ((m = need("candidates")) == nullptr) return false;
  std::vector<std::string> candidates;
  for (const obs::JsonValue& c : m->items()) {
    const obs::JsonValue* name = c.Find("name");
    if (name == nullptr) {
      *error = "candidate entry missing name";
      return false;
    }
    candidates.push_back(name->AsString());
  }
  if (candidates.empty()) {
    *error = "decision has no candidates";
    return false;
  }
  const obs::JsonValue* chosen = record.Find("chosen");
  const obs::JsonValue* explored = record.Find("explored");
  if (chosen == nullptr || explored == nullptr) {
    *error = "decision missing chosen/explored";
    return false;
  }

  Recommendation rec =
      store->Recommend(features, family, candidates, knob_hash,
                       quality_target, k_neighbors, min_trials, decision_seed);
  if (rec.optimizer != chosen->AsString() ||
      rec.explored != explored->AsBool()) {
    std::ostringstream msg;
    msg << "decision mismatch: log chose " << chosen->AsString()
        << (explored->AsBool() ? " (explore)" : " (exploit)")
        << ", replay chose " << rec.optimizer
        << (rec.explored ? " (explore)" : " (exploit)");
    *error = msg.str();
    return false;
  }

  // Apply the logged outcomes so later decisions see the same state the
  // original process accumulated.
  if ((m = need("outcomes")) == nullptr) return false;
  for (const obs::JsonValue& o : m->items()) {
    FeedbackRecord fr;
    fr.family = family;
    fr.features = features;
    fr.knob_hash = knob_hash;
    const obs::JsonValue* field;
    if ((field = o.Find("optimizer")) == nullptr) {
      *error = "outcome missing optimizer";
      return false;
    }
    fr.optimizer = field->AsString();
    if ((field = o.Find("feasible")) == nullptr) {
      *error = "outcome missing feasible";
      return false;
    }
    fr.feasible = field->AsBool();
    if ((field = o.Find("cost_log2")) == nullptr) {
      *error = "outcome missing cost_log2";
      return false;
    }
    fr.cost_log2 = field->AsDouble();
    if ((field = o.Find("regret_log2")) == nullptr) {
      *error = "outcome missing regret_log2";
      return false;
    }
    fr.regret_log2 = field->AsDouble();
    if ((field = o.Find("evaluations")) == nullptr) {
      *error = "outcome missing evaluations";
      return false;
    }
    fr.evaluations = field->AsUint();
    if ((field = o.Find("status")) == nullptr) {
      *error = "outcome missing status";
      return false;
    }
    int status = static_cast<int>(field->AsInt());
    if (status < 0 || status > 3) {
      *error = "outcome status out of range";
      return false;
    }
    fr.status = static_cast<PlanStatus>(status);
    store->Record(fr);
  }
  return true;
}

}  // namespace

DecisionReplayStats ReplayDecisionLog(std::istream& jsonl,
                                      FeedbackStore* store) {
  DecisionReplayStats stats;
  std::string line;
  size_t line_number = 0;
  while (std::getline(jsonl, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::optional<obs::JsonValue> record = obs::JsonValue::Parse(line);
    if (!record.has_value() || !record->is_object()) continue;
    const obs::JsonValue* type = record->Find("type");
    if (type == nullptr || !type->is_string()) continue;
    if (type->AsString() == "adaptive_commit") {
      store->Commit();
      ++stats.commits;
      continue;
    }
    if (type->AsString() != "adaptive_decision") continue;
    ++stats.decisions;
    std::string error;
    if (!ReplayDecision(*record, store, &error)) {
      ++stats.mismatches;
      if (stats.error.empty()) {
        std::ostringstream msg;
        msg << "line " << line_number << ": " << error;
        stats.error = msg.str();
      }
    }
  }
  return stats;
}

}  // namespace aqo
