// The benchmark's kanond load generator: a closed loop of clients, each on
// its own serve::Client connection, each waiting for every reply before it
// sends the next request.
//
//   serve_driver --port=N --tables=tables.tsv --clients=3 --seconds=20
//                --k=5 [--jobs=N] [--trace] [--rss-pid=PID]
//                --out=result.json --fetched-dir=DIR
//
// tables.tsv lists "csv<TAB>spec" pairs. The first is the hot table: it is
// submitted once before timing and then on every other iteration, so the
// server's scheme and loss caches can hit. Every other iteration takes the
// next table of the rest of the list, the cold pool, cycling through it.
// One iteration is submit (publishing the result as the client's table),
// Client::WaitJob with its library defaults, fetch, then one verify or
// attack on the published table. Every job uses method
// agglomerative, so every published table is k-anonymous: it must verify
// as (k,k)-anonymous and the attack must breach nobody.
//
// Each table's first fetched CSV is written to DIR/<index>.csv for the
// caller to compare with kanon_cli; later fetches of the same table must
// repeat those bytes. --trace adds the submit/wait/fetch split, the
// engine time of each job and the server's counters before and after.
// --rss-pid reads that process's VmHWM when the kRssAtJob'th job of the
// timed phase has been fetched.
// Exit codes: 0 ran (failures are listed in the result), 2 usage or setup
// error.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kanon/common/flags.h"
#include "kanon/serve/client.h"
#include "kanon/serve/json.h"

namespace kanon {
namespace {

using serve::Client;
using serve::Json;
using Clock = std::chrono::steady_clock;

constexpr char kMethod[] = "agglomerative";
constexpr char kVerifyNotion[] = "kk";
// kanond keeps every finished job, so a VmHWM read at the end of a run
// would grow with the number of jobs the run fitted in.
constexpr int64_t kRssAtJob = 50;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// The VmHWM line of /proc/<pid>/status in MB, or -1 when it cannot be read.
double PeakRssMb(int64_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return -1;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

struct Table {
  std::string csv;
  std::string spec;
};

struct JobRecord {
  size_t table = 0;
  double job_ms = 0;
  double submit_ms = 0;
  double wait_ms = 0;
  double fetch_ms = 0;
  double engine_ms = 0;
  double loss = 0;
  int64_t rows = 0;
};

struct QueryRecord {
  bool verify = true;
  double ms = 0;
};

struct ClientLog {
  std::vector<JobRecord> jobs;
  std::vector<QueryRecord> queries;
  std::vector<std::string> failures;
  int64_t overloaded = 0;
  int64_t submits = 0;
  int64_t fetches = 0;
};

struct Config {
  int port = 0;
  size_t clients = 1;
  double seconds = 0;
  int64_t max_jobs = 0;
  int64_t k = 5;
  bool trace = false;
  int64_t rss_pid = 0;
  std::string fetched_dir;
};

// Shared by the client threads: the inputs, the cold-pool cursor and the
// first fetched bytes of each table.
class Run {
 public:
  Run(const Config& config, std::vector<Table> tables)
      : config_(config), tables_(std::move(tables)) {}

  // One hot submit before timing, so the hot table has been seen.
  Status Warm(Client* client) {
    ClientLog log;
    Iterate(client, 0, /*hot=*/true, /*verify=*/true, &log);
    if (!log.failures.empty()) return Status::Internal(log.failures.front());
    return Status::OK();
  }

  void ClientLoop(Client* client, size_t id, Clock::time_point deadline,
                  ClientLog* log) {
    for (size_t j = 0;; ++j) {
      if (config_.seconds > 0 && Clock::now() >= deadline) break;
      if (config_.max_jobs > 0 &&
          claimed_.fetch_add(1) >= config_.max_jobs) {
        break;
      }
      const size_t phase = id + j;
      const bool hot = tables_.size() == 1 || phase % 2 == 0;
      if (Iterate(client, id, hot, (phase / 2) % 2 == 0, log) &&
          config_.rss_pid > 0 &&
          fetched_jobs_.fetch_add(1) + 1 == kRssAtJob) {
        peak_rss_mb_ = PeakRssMb(config_.rss_pid);
      }
    }
  }

  // kanond's VmHWM at the kRssAtJob'th fetched job, or -1.
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  // One iteration; true when its job was fetched with the expected bytes.
  bool Iterate(Client* client, size_t id, bool hot, bool verify,
               ClientLog* log) {
    const size_t index =
        hot ? 0 : 1 + cold_next_.fetch_add(1) % (tables_.size() - 1);
    const std::string name = "c" + std::to_string(id);
    JobRecord job;
    job.table = index;

    const Clock::time_point t0 = Clock::now();
    Json params = Json::Object();
    params.Set("csv", Json::Str(tables_[index].csv));
    params.Set("spec", Json::Str(tables_[index].spec));
    params.Set("k", Json::Number(config_.k));
    params.Set("method", Json::Str(kMethod));
    params.Set("publish_as", Json::Str(name));
    ++log->submits;
    Result<Json> submitted = client->Call("submit", std::move(params));
    if (!submitted.ok()) {
      const std::string message = submitted.status().message();
      if (message.rfind("overloaded", 0) == 0) ++log->overloaded;
      log->failures.push_back("submit: " + message);
      return false;
    }
    const uint64_t job_id =
        static_cast<uint64_t>(submitted->GetInt("job_id", 0));
    const Clock::time_point t1 = Clock::now();
    Result<Json> snapshot = client->WaitJob(job_id);
    if (!snapshot.ok()) {
      log->failures.push_back("wait: " + snapshot.status().ToString());
      return false;
    }
    const Clock::time_point t2 = Clock::now();
    if (snapshot->GetString("state", "") != "done" ||
        snapshot->GetBool("degraded", true)) {
      log->failures.push_back("job " + std::to_string(job_id) +
                              " did not complete: " + snapshot->Dump());
      return false;
    }
    Json fetch_params = Json::Object();
    fetch_params.Set("job_id", Json::Number(static_cast<int64_t>(job_id)));
    ++log->fetches;
    Result<Json> fetched = client->Call("fetch", std::move(fetch_params));
    if (!fetched.ok()) {
      log->failures.push_back("fetch: " + fetched.status().ToString());
      return false;
    }
    const Clock::time_point t3 = Clock::now();
    job.job_ms = MillisBetween(t0, t3);
    if (config_.trace) {
      job.submit_ms = MillisBetween(t0, t1);
      job.wait_ms = MillisBetween(t1, t2);
      job.fetch_ms = MillisBetween(t2, t3);
      job.engine_ms = snapshot->GetDouble("elapsed_seconds", 0) * 1e3;
    }
    job.loss = snapshot->GetDouble("loss", 0);
    job.rows = snapshot->GetInt("rows", 0);
    if (!RecordFetch(index, fetched->GetString("csv", ""))) {
      log->failures.push_back("table " + std::to_string(index) +
                              ": fetched bytes differ from an earlier fetch");
      return false;
    }
    log->jobs.push_back(job);

    Json query = Json::Object();
    query.Set("table", Json::Str(name));
    query.Set("k", Json::Number(config_.k));
    if (verify) query.Set("notion", Json::Str(kVerifyNotion));
    const Clock::time_point q0 = Clock::now();
    Result<Json> answer =
        client->Call(verify ? "verify" : "attack", std::move(query));
    const Clock::time_point q1 = Clock::now();
    if (!answer.ok()) {
      log->failures.push_back(std::string(verify ? "verify" : "attack") +
                              ": " + answer.status().ToString());
      return true;
    }
    if (verify && !answer->GetBool("satisfied", false)) {
      log->failures.push_back("verify: table not satisfied: " +
                              answer->Dump());
      return true;
    }
    if (!verify && (answer->GetInt("rows", -1) != job.rows ||
                    answer->GetInt("breached", -1) != 0)) {
      log->failures.push_back("attack: unexpected answer: " +
                              answer->Dump().substr(0, 200));
      return true;
    }
    log->queries.push_back({verify, MillisBetween(q0, q1)});
    return true;
  }

  // True when `csv` is the first fetch of `table` or repeats it.
  bool RecordFetch(size_t table, std::string csv) {
    const std::string key = std::to_string(table);
    std::lock_guard<std::mutex> lock(mu_);
    // try_emplace leaves `csv` untouched when the key is already there.
    auto [it, inserted] = fetched_.try_emplace(key, std::move(csv));
    if (!inserted) return it->second == csv;
    std::ofstream out(config_.fetched_dir + "/" + key + ".csv",
                      std::ios::binary);
    out << it->second;
    return static_cast<bool>(out);
  }

  const Config config_;
  const std::vector<Table> tables_;
  std::atomic<size_t> cold_next_{0};
  std::atomic<int64_t> claimed_{0};
  std::atomic<int64_t> fetched_jobs_{0};
  std::atomic<double> peak_rss_mb_{-1};
  std::mutex mu_;
  std::map<std::string, std::string> fetched_;
};

Json ServerCounters(Client* client) {
  Json out = Json::Object();
  Result<Json> metrics = client->Call("metrics", Json::Object());
  if (!metrics.ok()) return out;
  const Json* counters = metrics->Find("counters");
  if (counters == nullptr) return out;
  for (const char* name :
       {"serve.requests", "serve.scheme_cache_hits",
        "serve.scheme_cache_misses", "serve.loss_cache_hits",
        "serve.loss_cache_misses", "serve.jobs_rejected"}) {
    out.Set(name, Json::Number(counters->GetInt(name, 0)));
  }
  return out;
}

int RealMain(int argc, char** argv) {
  FlagParser flags;
  if (Status s = flags.Parse(argc, argv); !s.ok()) {
    std::fprintf(stderr, "serve_driver: %s\n", s.ToString().c_str());
    return 2;
  }
  Config config;
  config.port = static_cast<int>(flags.GetInt("port", 0));
  config.clients = static_cast<size_t>(flags.GetInt("clients", 1));
  config.seconds = flags.GetDouble("seconds", 0);
  config.max_jobs = flags.GetInt("jobs", 0);
  config.k = flags.GetInt("k", 5);
  config.trace = flags.GetBool("trace", false);
  config.rss_pid = flags.GetInt("rss-pid", 0);
  config.fetched_dir = flags.GetString("fetched-dir", "");
  const std::string out_path = flags.GetString("out", "");
  if (config.port <= 0 || config.clients == 0 ||
      (config.seconds <= 0 && config.max_jobs <= 0) ||
      config.fetched_dir.empty() || out_path.empty()) {
    std::fprintf(stderr, "serve_driver: bad flags; see the file comment\n");
    return 2;
  }

  std::vector<Table> tables;
  std::ifstream list(flags.GetString("tables", ""));
  std::string line;
  while (std::getline(list, line)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) continue;
    Table table;
    if (!ReadFile(line.substr(0, tab), &table.csv) ||
        !ReadFile(line.substr(tab + 1), &table.spec)) {
      std::fprintf(stderr, "serve_driver: cannot read %s\n", line.c_str());
      return 2;
    }
    tables.push_back(std::move(table));
  }
  if (tables.empty()) {
    std::fprintf(stderr, "serve_driver: no tables\n");
    return 2;
  }

  std::vector<Client> clients;
  for (size_t i = 0; i < config.clients; ++i) {
    Result<Client> client =
        Client::Connect("127.0.0.1", config.port, /*recv_timeout_ms=*/120000);
    if (!client.ok()) {
      std::fprintf(stderr, "serve_driver: %s\n",
                   client.status().ToString().c_str());
      return 2;
    }
    clients.push_back(std::move(client).value());
  }

  Run run(config, std::move(tables));
  std::vector<ClientLog> logs(config.clients);
  if (Status s = run.Warm(&clients[0]); !s.ok()) {
    std::fprintf(stderr, "serve_driver: warm-up failed: %s\n",
                 s.ToString().c_str());
    return 2;
  }
  Json before = config.trace ? ServerCounters(&clients[0]) : Json::Object();

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < config.clients; ++i) {
    threads.emplace_back([&, i] {
      run.ClientLoop(&clients[i], i, deadline, &logs[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double elapsed_s = MillisBetween(start, Clock::now()) / 1e3;
  Json after = config.trace ? ServerCounters(&clients[0]) : Json::Object();

  Json jobs = Json::Array();
  Json queries = Json::Array();
  Json failures = Json::Array();
  int64_t overloaded = 0, submits = 0, fetches = 0;
  for (size_t i = 0; i < logs.size(); ++i) {
    for (const JobRecord& job : logs[i].jobs) {
      Json entry = Json::Object();
      entry.Set("client", Json::Number(static_cast<int64_t>(i)));
      entry.Set("table", Json::Number(static_cast<int64_t>(job.table)));
      entry.Set("job_ms", Json::Number(job.job_ms));
      if (config.trace) {
        entry.Set("submit_ms", Json::Number(job.submit_ms));
        entry.Set("wait_ms", Json::Number(job.wait_ms));
        entry.Set("fetch_ms", Json::Number(job.fetch_ms));
        entry.Set("engine_ms", Json::Number(job.engine_ms));
      }
      entry.Set("loss", Json::Number(job.loss));
      entry.Set("rows", Json::Number(job.rows));
      jobs.Push(std::move(entry));
    }
    for (const QueryRecord& query : logs[i].queries) {
      Json entry = Json::Object();
      entry.Set("kind", Json::Str(query.verify ? "verify" : "attack"));
      entry.Set("ms", Json::Number(query.ms));
      queries.Push(std::move(entry));
    }
    for (const std::string& failure : logs[i].failures) {
      failures.Push(Json::Str(failure));
    }
    overloaded += logs[i].overloaded;
    submits += logs[i].submits;
    fetches += logs[i].fetches;
  }
  Json out = Json::Object();
  out.Set("elapsed_s", Json::Number(elapsed_s));
  out.Set("jobs", std::move(jobs));
  out.Set("queries", std::move(queries));
  out.Set("failures", std::move(failures));
  out.Set("overloaded", Json::Number(overloaded));
  out.Set("submits", Json::Number(submits));
  out.Set("fetches", Json::Number(fetches));
  if (config.rss_pid > 0) {
    out.Set("peak_rss_mb", Json::Number(run.peak_rss_mb()));
  }
  out.Set("server_before", std::move(before));
  out.Set("server_after", std::move(after));
  std::ofstream file(out_path);
  file << out.Dump() << "\n";
  if (!file) {
    std::fprintf(stderr, "serve_driver: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace kanon

int main(int argc, char** argv) { return kanon::RealMain(argc, argv); }
