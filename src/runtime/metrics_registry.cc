#include "runtime/metrics_registry.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

std::string EscapeLabelValue(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Canonical `{k="v",k2="v2"}` form; empty string for no labels. Used
/// both as the series map key (deterministic ordering) and verbatim in
/// the Prometheus output.
std::string LabelString(const MetricLabels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i].first + "=\"" + EscapeLabelValue(labels[i].second) + "\"";
  }
  out += "}";
  return out;
}

/// Numbers render as integers whenever exactly representable — metric
/// values are overwhelmingly counts and byte sizes, and "123" beats
/// "123.000000" in goldens and dashboards alike.
std::string FmtValue(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.007199e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string FmtBucketBound(double bound) { return FmtValue(bound); }

void WriteLabelsJson(const MetricLabels& labels, std::ostream& os) {
  os << "{";
  for (size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) os << ",";
    os << "\"" << JsonEscape(labels[i].first) << "\":\""
       << JsonEscape(labels[i].second) << "\"";
  }
  os << "}";
}

}  // namespace

const std::vector<double>& MetricsRegistry::HistogramBuckets() {
  static const std::vector<double> kBuckets = {1,   1e1, 1e2, 1e3,  1e4,  1e5,
                                               1e6, 1e7, 1e8, 1e9,  1e10, 1e11,
                                               1e12};
  return kBuckets;
}

int64_t MetricsRegistry::ProcessPeakRssBytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // kilobytes on Linux
#endif
}

MetricsRegistry::Series* MetricsRegistry::Upsert(const std::string& name,
                                                 Kind kind,
                                                 const MetricLabels& labels) {
  auto [it, inserted] = families_.try_emplace(name);
  if (inserted) it->second.kind = kind;
  if (it->second.kind != kind) return nullptr;
  Series& series = it->second.series[LabelString(labels)];
  if (series.labels.empty() && !labels.empty()) series.labels = labels;
  if (kind == Kind::kHistogram && series.bucket_counts.empty()) {
    series.bucket_counts.assign(HistogramBuckets().size() + 1, 0);
  }
  return &series;
}

const MetricsRegistry::Series* MetricsRegistry::Find(
    const std::string& name, Kind kind, const MetricLabels& labels) const {
  auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != kind) return nullptr;
  auto sit = it->second.series.find(LabelString(labels));
  return sit == it->second.series.end() ? nullptr : &sit->second;
}

void MetricsRegistry::CounterAdd(const std::string& name, int64_t delta,
                                 const MetricLabels& labels) {
  if (delta < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = Upsert(name, Kind::kCounter, labels);
  if (series != nullptr) series->counter += delta;
}

void MetricsRegistry::GaugeSet(const std::string& name, double value,
                               const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = Upsert(name, Kind::kGauge, labels);
  if (series != nullptr) series->gauge = value;
}

void MetricsRegistry::GaugeMax(const std::string& name, double value,
                               const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = Upsert(name, Kind::kGauge, labels);
  if (series != nullptr && value > series->gauge) series->gauge = value;
}

void MetricsRegistry::HistogramObserve(const std::string& name, double value,
                                       const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Series* series = Upsert(name, Kind::kHistogram, labels);
  if (series == nullptr) return;
  const auto& buckets = HistogramBuckets();
  size_t i = 0;
  while (i < buckets.size() && value > buckets[i]) ++i;
  ++series->bucket_counts[i];
  series->hist_sum += value;
  ++series->hist_count;
}

int64_t MetricsRegistry::CounterValue(const std::string& name,
                                      const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = Find(name, Kind::kCounter, labels);
  return series != nullptr ? series->counter : 0;
}

double MetricsRegistry::GaugeValue(const std::string& name,
                                   const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = Find(name, Kind::kGauge, labels);
  return series != nullptr ? series->gauge : 0;
}

int64_t MetricsRegistry::HistogramCount(const std::string& name,
                                        const MetricLabels& labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Series* series = Find(name, Kind::kHistogram, labels);
  return series != nullptr ? series->hist_count : 0;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  families_.clear();
}

void MetricsRegistry::WritePrometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, family] : families_) {
    const char* type = family.kind == Kind::kCounter   ? "counter"
                       : family.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    os << "# TYPE " << name << " " << type << "\n";
    for (const auto& [label_str, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          os << name << label_str << " " << series.counter << "\n";
          break;
        case Kind::kGauge:
          os << name << label_str << " " << FmtValue(series.gauge) << "\n";
          break;
        case Kind::kHistogram: {
          // Cumulative bucket counts, then sum and count, with the
          // series labels merged into each le="" bucket label.
          const auto& buckets = HistogramBuckets();
          std::string prefix = "{";
          for (const auto& [k, v] : series.labels) {
            prefix += k + "=\"" + EscapeLabelValue(v) + "\",";
          }
          int64_t cumulative = 0;
          for (size_t i = 0; i <= buckets.size(); ++i) {
            cumulative += series.bucket_counts[i];
            const std::string le =
                i < buckets.size() ? FmtBucketBound(buckets[i]) : "+Inf";
            os << name << "_bucket" << prefix << "le=\"" << le << "\"} "
               << cumulative << "\n";
          }
          os << name << "_sum" << label_str << " " << FmtValue(series.hist_sum)
             << "\n";
          os << name << "_count" << label_str << " " << series.hist_count
             << "\n";
          break;
        }
      }
    }
  }
}

void MetricsRegistry::WriteJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto write_kind = [&os, this](Kind kind, const char* key, bool* first_kind) {
    if (!*first_kind) os << ",";
    *first_kind = false;
    os << "\"" << key << "\":[";
    bool first = true;
    for (const auto& [name, family] : families_) {
      if (family.kind != kind) continue;
      for (const auto& [label_str, series] : family.series) {
        if (!first) os << ",";
        first = false;
        os << "\n{\"name\":\"" << JsonEscape(name) << "\",\"labels\":";
        WriteLabelsJson(series.labels, os);
        switch (kind) {
          case Kind::kCounter:
            os << ",\"value\":" << series.counter;
            break;
          case Kind::kGauge:
            os << ",\"value\":" << FmtValue(series.gauge);
            break;
          case Kind::kHistogram: {
            const auto& buckets = HistogramBuckets();
            os << ",\"buckets\":[";
            int64_t cumulative = 0;
            for (size_t i = 0; i <= buckets.size(); ++i) {
              cumulative += series.bucket_counts[i];
              if (i > 0) os << ",";
              os << "{\"le\":"
                 << (i < buckets.size()
                         ? FmtBucketBound(buckets[i])
                         : std::string("\"+Inf\""))
                 << ",\"count\":" << cumulative << "}";
            }
            os << "],\"sum\":" << FmtValue(series.hist_sum)
               << ",\"count\":" << series.hist_count;
            break;
          }
        }
        os << "}";
      }
    }
    os << "\n]";
  };
  os << "{";
  bool first_kind = true;
  write_kind(Kind::kCounter, "counters", &first_kind);
  write_kind(Kind::kGauge, "gauges", &first_kind);
  write_kind(Kind::kHistogram, "histograms", &first_kind);
  os << "}\n";
}

}  // namespace diablo::runtime
