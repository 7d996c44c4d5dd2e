#include "store/results_store.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/check.h"
#include "util/csv.h"
#include "util/json.h"

namespace cloudmedia::store {

namespace {

/// The self-describing first line of the JSONL stream: enough to validate
/// on read-back and to identify an interrupted sweep's partial output.
util::JsonValue header_line(const sweep::SweepResult& header) {
  util::JsonValue root = util::JsonValue::object();
  root["type"] = "header";
  root["scenario"] = header.scenario;
  root["base_seed"] = std::to_string(header.base_seed);
  root["spec_hash"] = header.spec_hash;
  util::JsonValue shard = util::JsonValue::object();
  shard["index"] = static_cast<double>(header.shard_index);
  shard["count"] = static_cast<double>(header.shard_count);
  shard["total_cells"] = static_cast<double>(header.total_cells);
  root["shard"] = std::move(shard);
  util::JsonValue grid = util::JsonValue::array();
  for (const sweep::ParamAxis& axis : header.axes) {
    util::JsonValue entry = util::JsonValue::object();
    entry["name"] = axis.name;
    util::JsonValue values = util::JsonValue::array();
    for (const std::string& value : axis.values) values.push_back(value);
    entry["values"] = std::move(values);
    grid.push_back(std::move(entry));
  }
  root["grid"] = std::move(grid);
  return root;
}

std::string join_csv(const std::vector<std::string>& fields) {
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) line += ',';
    line += util::csv_escape(fields[i]);
  }
  line += '\n';
  return line;
}

}  // namespace

ResultsStore::ResultsStore(StoreOptions options, const sweep::SweepSpec& spec)
    : options_(std::move(options)) {
  CM_EXPECTS(!options_.base.empty());
  CM_EXPECTS(options_.buffer_capacity >= 1);
  CM_EXPECTS(options_.batch_rows >= 1);

  header_.scenario = spec.scenario;
  header_.base_seed = spec.base_seed;
  header_.axes = spec.grid.axes();
  header_.shard_index = spec.shard.index;
  header_.shard_count = spec.shard.count;
  header_.total_cells = spec.grid.num_points();
  header_.spec_hash = spec.spec_hash();
  expected_cells_ =
      sweep::SweepRunner::shard_cells(header_.total_cells, spec.shard);

  jsonl_path_ = options_.base + ".jsonl";
  csv_path_ = options_.base + ".stream.csv";
  util::ensure_parent_directory(jsonl_path_);
  jsonl_.open(jsonl_path_, std::ios::trunc);
  if (!jsonl_) {
    throw std::runtime_error("ResultsStore: cannot open '" + jsonl_path_ +
                             "' for writing: " + std::strerror(errno));
  }
  csv_.open(csv_path_, std::ios::trunc);
  if (!csv_) {
    throw std::runtime_error("ResultsStore: cannot open '" + csv_path_ +
                             "' for writing: " + std::strerror(errno));
  }

  jsonl_ << header_line(header_).dump(-1) << '\n';
  std::vector<std::string> csv_header = {"cell"};
  for (std::string& column : header_.csv_header()) {
    csv_header.push_back(std::move(column));
  }
  csv_ << join_csv(csv_header);

  writer_ = std::thread(&ResultsStore::writer_loop, this);
}

ResultsStore::~ResultsStore() {
  // Best-effort shutdown for the unwind path; errors were either already
  // rethrown from push()/finish() or are not worth terminating over now.
  try {
    finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void ResultsStore::push(std::size_t cell, sweep::RunSummary row) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_available_.wait(lock, [this] {
    return queue_.size() < options_.buffer_capacity || failed_;
  });
  if (failed_) std::rethrow_exception(error_);
  CM_EXPECTS(!done_);  // push after finish() is a caller bug
  queue_.push_back(Row{cell, std::move(row)});
  peak_buffered_ = std::max(peak_buffered_, queue_.size());
  rows_available_.notify_one();
}

std::function<void(std::size_t, sweep::RunSummary)> ResultsStore::sink() {
  return [this](std::size_t cell, sweep::RunSummary row) {
    push(cell, std::move(row));
  };
}

void ResultsStore::writer_loop() {
  for (;;) {
    std::vector<Row> batch;
    bool failed = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      rows_available_.wait(lock, [this] { return !queue_.empty() || done_; });
      if (queue_.empty() && done_) return;
      const std::size_t take = std::min(options_.batch_rows, queue_.size());
      batch.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      failed = failed_;
    }
    space_available_.notify_all();

    if (failed) continue;  // drain-and-discard so producers unblock

    std::string jsonl_chunk;
    std::string csv_chunk;
    for (const Row& row : batch) {
      util::JsonValue entry = util::JsonValue::object();
      entry["cell"] = static_cast<double>(row.cell);
      const util::JsonValue fields = row.summary.to_json();
      for (const auto& [key, value] : fields.members()) entry[key] = value;
      jsonl_chunk += entry.dump(-1);
      jsonl_chunk += '\n';

      std::vector<std::string> csv_fields = {std::to_string(row.cell)};
      for (std::string& field : header_.csv_row(row.summary)) {
        csv_fields.push_back(std::move(field));
      }
      csv_chunk += join_csv(csv_fields);
    }
    jsonl_ << jsonl_chunk;
    csv_ << csv_chunk;
    if (!jsonl_ || !csv_) {
      std::lock_guard<std::mutex> lock(mutex_);
      fail_locked(std::make_exception_ptr(std::runtime_error(
          "ResultsStore: write to '" + (!jsonl_ ? jsonl_path_ : csv_path_) +
          "' failed: " + std::strerror(errno))));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      rows_written_ += batch.size();
    }
  }
}

void ResultsStore::fail_locked(std::exception_ptr error) {
  if (!failed_) {
    failed_ = true;
    error_ = std::move(error);
  }
  queue_.clear();
  space_available_.notify_all();
}

void ResultsStore::finish() {
  if (!finished_) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    rows_available_.notify_all();
    space_available_.notify_all();
    if (writer_.joinable()) writer_.join();
    jsonl_.flush();
    csv_.flush();
    if ((!jsonl_ || !csv_) && !failed_) {
      failed_ = true;
      error_ = std::make_exception_ptr(std::runtime_error(
          "ResultsStore: flush of '" + (!jsonl_ ? jsonl_path_ : csv_path_) +
          "' failed: " + std::strerror(errno)));
    }
    jsonl_.close();
    csv_.close();
    finished_ = true;
  }
  if (failed_) std::rethrow_exception(error_);
}

sweep::SweepResult ResultsStore::finalize() {
  finish();

  std::ifstream in(jsonl_path_);
  if (!in) {
    throw std::runtime_error("ResultsStore: cannot read back '" + jsonl_path_ +
                             "': " + std::strerror(errno));
  }
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("ResultsStore: '" + jsonl_path_ +
                             "' is empty — no header line");
  }
  const util::JsonValue header = util::JsonValue::parse(line);
  CM_ENSURES(header.at("type").as_string() == "header");
  CM_ENSURES(header.at("spec_hash").as_string() == header_.spec_hash);

  std::vector<std::pair<std::size_t, sweep::RunSummary>> rows;
  rows.reserve(expected_cells_.size());
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::JsonValue entry = util::JsonValue::parse(line);
    const auto cell = static_cast<std::size_t>(entry.at("cell").as_number());
    rows.emplace_back(cell,
                      sweep::RunSummary::from_json(entry, header_.scenario));
  }

  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (rows.size() != expected_cells_.size()) {
    throw std::runtime_error(
        "ResultsStore: '" + jsonl_path_ + "' holds " +
        std::to_string(rows.size()) + " rows but the sweep expected " +
        std::to_string(expected_cells_.size()) +
        " — was the sweep interrupted?");
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].first != expected_cells_[i]) {
      throw std::runtime_error(
          "ResultsStore: '" + jsonl_path_ + "' cell sequence broken at row " +
          std::to_string(i) + ": got cell " + std::to_string(rows[i].first) +
          ", expected " + std::to_string(expected_cells_[i]) +
          " (duplicate or missing cell)");
    }
  }

  sweep::SweepResult result = header_;
  result.runs.reserve(rows.size());
  for (auto& [cell, summary] : rows) result.runs.push_back(std::move(summary));
  if (result.shard_count > 1) result.cell_indices = expected_cells_;
  return result;
}

std::size_t ResultsStore::rows_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_written_;
}

std::size_t ResultsStore::peak_buffered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_buffered_;
}

}  // namespace cloudmedia::store
