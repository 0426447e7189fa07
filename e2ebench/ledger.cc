#include "ledger.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace e2e {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail TailOf(const std::vector<double>& v) {
  static constexpr double kLadder[] = {99.9, 99, 95, 90, 75, 50};
  Tail t;
  t.samples = v.size();
  t.percentile = 50;
  for (double p : kLadder) {
    const double beyond = static_cast<double>(v.size()) * (100 - p) / 100;
    if (beyond >= 10) {
      t.percentile = p;
      break;
    }
  }
  t.value = Quantile(v, t.percentile / 100);
  return t;
}

Tail WindowedTail(const std::vector<double>& in_time_order,
                  std::size_t windows) {
  const std::size_t size = in_time_order.size() / std::max<std::size_t>(1, windows);
  if (windows <= 1 || size == 0) return TailOf(in_time_order);
  std::vector<Tail> tails;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_time_order.begin() + static_cast<long>(w * size);
    tails.push_back(TailOf(std::vector<double>(begin, begin + static_cast<long>(size))));
  }
  std::sort(tails.begin(), tails.end(),
            [](const Tail& a, const Tail& b) { return a.value < b.value; });
  return tails[tails.size() / 2];
}

double WindowedRate(std::vector<Clock::time_point> completions,
                    Clock::time_point begin, Clock::time_point end,
                    std::size_t windows) {
  windows = std::max<std::size_t>(1, windows);
  const double span_s = MsBetween(begin, end) / 1000 / static_cast<double>(windows);
  if (span_s <= 0) return 0;
  std::vector<double> counts(windows, 0);
  for (const Clock::time_point t : completions) {
    const double at = MsBetween(begin, t) / 1000 / span_s;
    if (at < 0) continue;
    counts[std::min(windows - 1, static_cast<std::size_t>(at))] += 1;
  }
  for (double& c : counts) c /= span_s;
  return Median(counts);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

void Outcome::Attempt(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void Outcome::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(why);
}

void Outcome::CheckFailed(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  checks_ok_ = false;
  if (errors_.size() < 8) errors_.push_back("check: " + why);
}

std::size_t Outcome::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::size_t Outcome::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

bool Outcome::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_ok_ && failed_ == 0 && attempted_ > 0;
}

std::vector<std::string> Outcome::errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return errors_;
}

TraceLog::TraceLog() : t0_(Clock::now()) {}

std::uint64_t TraceLog::Begin(const std::string& name, std::uint64_t op,
                              std::uint64_t parent) {
  const double start = MsSince(t0_) * 1000;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, op, parent, start, start});
  return spans_.size();  // ids are 1-based indices
}

void TraceLog::End(std::uint64_t id) {
  const double end = MsSince(t0_) * 1000;
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_us = end;
}

void TraceLog::AttachProfile(std::uint64_t op, const std::string& name,
                             std::string profile_json) {
  std::lock_guard<std::mutex> lock(mu_);
  profiles_.push_back({op, name, std::move(profile_json)});
}

bool TraceLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\": %zu, \"name\": \"%s\", \"op\": %llu, \"parent\": "
                 "%llu, \"start_us\": %.1f, \"end_us\": %.1f}",
                 i == 0 ? "" : ",\n", i + 1, JsonEscape(s.name).c_str(),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.parent), s.start_us,
                 s.end_us);
  }
  std::fputs("\n], \"engine_profiles\": [\n", f);
  for (std::size_t i = 0; i < profiles_.size(); ++i) {
    const ProfileRecord& p = profiles_[i];
    std::fprintf(f, "%s{\"op\": %llu, \"name\": \"%s\", \"profile\": %s}",
                 i == 0 ? "" : ",\n", static_cast<unsigned long long>(p.op),
                 JsonEscape(p.name).c_str(), p.json.c_str());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void SleepUntil(Clock::time_point due) {
  if (Clock::now() < due) std::this_thread::sleep_until(due);
}

void ReleaseFreeMemory() { malloc_trim(0); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double TraceOverhead(const std::map<std::string, std::vector<double>>& untraced,
                     const std::map<std::string, std::vector<double>>& traced) {
  double sum = 0;
  std::size_t kinds = 0;
  for (const auto& [kind, plain] : untraced) {
    auto it = traced.find(kind);
    if (it == traced.end() || it->second.empty() || plain.empty()) continue;
    const double base = Median(plain);
    if (base <= 0) continue;
    sum += Median(it->second) / base - 1;
    ++kinds;
  }
  return kinds == 0 ? 0 : sum / static_cast<double>(kinds);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace e2e
