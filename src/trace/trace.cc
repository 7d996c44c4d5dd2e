#include "trace/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace cloudmedia::trace {

void Trace::validate() const {
  CM_EXPECTS(num_channels >= 1);
  CM_EXPECTS(chunks_per_video >= 1);
  double prev = -1.0;
  for (const TraceSession& s : sessions) {
    CM_EXPECTS(s.arrival_time >= 0.0);
    CM_EXPECTS(s.arrival_time >= prev);
    prev = s.arrival_time;
    CM_EXPECTS(s.channel >= 0 && s.channel < num_channels);
    CM_EXPECTS(s.uplink >= 0.0);
    CM_EXPECTS(!s.chunks.empty());
    for (int chunk : s.chunks) {
      CM_EXPECTS(chunk >= 0 && chunk < chunks_per_video);
    }
  }
}

double Trace::horizon() const noexcept {
  return sessions.empty() ? 0.0 : sessions.back().arrival_time;
}

std::vector<std::size_t> Trace::sessions_per_channel() const {
  std::vector<std::size_t> counts(static_cast<std::size_t>(num_channels), 0);
  for (const TraceSession& s : sessions) {
    counts[static_cast<std::size_t>(s.channel)]++;
  }
  return counts;
}

double Trace::mean_session_chunks() const {
  if (sessions.empty()) return 0.0;
  std::size_t total = 0;
  for (const TraceSession& s : sessions) total += s.chunks.size();
  return static_cast<double>(total) / static_cast<double>(sessions.size());
}

Trace record_trace(const workload::Workload& workload, double horizon) {
  CM_EXPECTS(horizon > 0.0);
  Trace out;
  out.num_channels = workload.num_channels();
  out.chunks_per_video = workload.config().chunks_per_video;

  for (int c = 0; c < workload.num_channels(); ++c) {
    workload::PoissonArrivals arrivals = workload.make_arrivals(c);
    std::uint64_t user_index = 0;
    for (double t = arrivals.next_after(0.0); t < horizon;
         t = arrivals.next_after(t)) {
      workload::SessionScript script = workload.make_session(c, user_index++);
      out.sessions.push_back(TraceSession{t, script.channel, script.uplink,
                                          std::move(script.chunks)});
    }
  }
  std::stable_sort(out.sessions.begin(), out.sessions.end(),
                   [](const TraceSession& a, const TraceSession& b) {
                     return a.arrival_time < b.arrival_time;
                   });
  out.validate();
  return out;
}

void save_trace_csv(const Trace& trace, const std::string& path) {
  trace.validate();
  std::ofstream file(path);
  if (!file) throw util::PreconditionError("cannot open for write: " + path);
  file << "# cloudmedia-trace v1 " << trace.num_channels << ' '
       << trace.chunks_per_video << '\n';
  file.precision(9);
  for (const TraceSession& s : trace.sessions) {
    file << s.arrival_time << ',' << s.channel << ',' << s.uplink << ',';
    for (std::size_t k = 0; k < s.chunks.size(); ++k) {
      if (k) file << ';';
      file << s.chunks[k];
    }
    file << '\n';
  }
  if (!file) throw util::PreconditionError("write failed: " + path);
}

Trace load_trace_csv(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw util::PreconditionError("cannot open for read: " + path);

  // Header: "# cloudmedia-trace v1 <channels> <chunks>"
  std::string header;
  std::getline(file, header);
  Trace out;
  {
    std::istringstream hs(header);
    std::string hash, magic, version;
    hs >> hash >> magic >> version >> out.num_channels >> out.chunks_per_video;
    if (!hs || hash != "#" || magic != "cloudmedia-trace" || version != "v1") {
      throw util::PreconditionError("not a cloudmedia trace: " + path);
    }
  }

  std::string line;
  while (std::getline(file, line)) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream row(line);
    TraceSession s;
    char comma = 0;
    row >> s.arrival_time >> comma >> s.channel >> comma >> s.uplink >> comma;
    if (!row) throw util::PreconditionError("malformed trace row: " + line);
    std::string walk;
    row >> walk;
    std::istringstream chunks(walk);
    std::string token;
    while (std::getline(chunks, token, ';')) {
      s.chunks.push_back(std::stoi(token));
    }
    out.sessions.push_back(std::move(s));
  }
  out.validate();
  return out;
}

TraceAnalyzer::TraceAnalyzer(Trace trace, core::VodParameters params)
    : trace_(std::move(trace)), params_(params) {
  trace_.validate();
  params_.validate();
  CM_EXPECTS(trace_.chunks_per_video == params_.chunks_per_video);
}

util::Matrix TraceAnalyzer::empirical_transfer(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < trace_.num_channels);
  const auto j = static_cast<std::size_t>(trace_.chunks_per_video);
  util::Matrix counts(j, j);
  std::vector<double> visits(j, 0.0);
  for (const TraceSession& s : trace_.sessions) {
    if (s.channel != channel) continue;
    for (std::size_t k = 0; k < s.chunks.size(); ++k) {
      const auto from = static_cast<std::size_t>(s.chunks[k]);
      visits[from] += 1.0;
      if (k + 1 < s.chunks.size()) {
        counts(from, static_cast<std::size_t>(s.chunks[k + 1])) += 1.0;
      }
    }
  }
  util::Matrix p(j, j);
  for (std::size_t i = 0; i < j; ++i) {
    if (visits[i] <= 0.0) continue;
    for (std::size_t q = 0; q < j; ++q) p(i, q) = counts(i, q) / visits[i];
  }
  return p;
}

std::vector<double> TraceAnalyzer::empirical_entry(int channel) const {
  CM_EXPECTS(channel >= 0 && channel < trace_.num_channels);
  const auto j = static_cast<std::size_t>(trace_.chunks_per_video);
  std::vector<double> entry(j, 0.0);
  double total = 0.0;
  for (const TraceSession& s : trace_.sessions) {
    if (s.channel != channel) continue;
    entry[static_cast<std::size_t>(s.chunks.front())] += 1.0;
    total += 1.0;
  }
  if (total > 0.0) {
    for (double& e : entry) e /= total;
  }
  return entry;
}

double TraceAnalyzer::arrival_rate(int channel, double t0, double t1) const {
  CM_EXPECTS(channel >= 0 && channel < trace_.num_channels);
  CM_EXPECTS(t1 > t0);
  std::size_t count = 0;
  for (const TraceSession& s : trace_.sessions) {
    if (s.channel == channel && s.arrival_time >= t0 && s.arrival_time < t1) {
      ++count;
    }
  }
  return static_cast<double>(count) / (t1 - t0);
}

std::vector<double> TraceAnalyzer::occupancy(int channel, double t) const {
  CM_EXPECTS(channel >= 0 && channel < trace_.num_channels);
  const auto j = static_cast<std::size_t>(trace_.chunks_per_video);
  std::vector<double> occ(j, 0.0);
  const double t0 = params_.chunk_duration;
  for (const TraceSession& s : trace_.sessions) {
    if (s.channel != channel || s.arrival_time > t) continue;
    // Chunk k of the walk is watched on [arrival + k·T0, arrival + (k+1)·T0).
    const double offset = t - s.arrival_time;
    const auto k = static_cast<std::size_t>(offset / t0);
    if (k < s.chunks.size()) {
      occ[static_cast<std::size_t>(s.chunks[k])] += 1.0;
    }
  }
  return occ;
}

std::vector<core::TrackerReport> TraceAnalyzer::reports(
    double interval, double mean_peer_uplink) const {
  CM_EXPECTS(interval > 0.0);
  CM_EXPECTS(mean_peer_uplink >= 0.0);

  const double horizon = trace_.horizon();
  const auto intervals =
      static_cast<std::size_t>(std::ceil(horizon / interval));

  std::vector<core::TrackerReport> out;
  out.reserve(intervals);
  for (std::size_t k = 0; k < intervals; ++k) {
    const double t0 = static_cast<double>(k) * interval;
    const double t1 = t0 + interval;
    core::TrackerReport report;
    report.interval_start = t0;
    report.interval_length = interval;
    report.channels.reserve(static_cast<std::size_t>(trace_.num_channels));
    for (int c = 0; c < trace_.num_channels; ++c) {
      core::ChannelObservation obs;
      obs.arrival_rate = arrival_rate(c, t0, t1);
      obs.transfer = empirical_transfer(c);
      obs.entry = empirical_entry(c);
      obs.occupancy = occupancy(c, t1);
      obs.mean_peer_uplink = mean_peer_uplink;
      report.channels.push_back(std::move(obs));
    }
    out.push_back(std::move(report));
  }
  return out;
}

}  // namespace cloudmedia::trace
