// serve_socket: an in-process front::FrontServer on a Unix socket,
// driven open loop. One sender thread emits seeded Poisson arrivals at
// a fixed rate over two FrontClient connections; one reader thread per
// connection collects the responses. The mix is 8^3 and 16^3 requests
// x operators poisson and helmholtz (4 hierarchy keys), both
// registered with max_batch 4 so the coalescer engages. Front, serve,
// cache, admission and batch carry the time; the kernels are tiny.
// Large solves belong to uniform_4rank (a 32^3 class alone drove p99).
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>

#include "comm/simmpi.hpp"
#include "common/rng.hpp"
#include "front/client.hpp"
#include "front/front_server.hpp"
#include "probes.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using gmg::real_t;
namespace wire = gmg::front::wire;

/// Arrivals per second. The kernels run serially on the executors: a
/// 16^3 solve takes ~4.6 ms and an 8^3 one ~1.4 ms on a 4-core host, so
/// the cache-affine shard's two executors are busy about a tenth of
/// the time; a request seldom waits, and a slower host does not grow a
/// backlog. A 20 s run holds ~1000 requests, 10 beyond p99. On a host
/// running 2x slower, six runs spread p99 by 0.28 of its median at this
/// rate and by 0.43 at 100 req/s.
constexpr double kRate = 50;
constexpr real_t kTolerance = 1e-8;
/// Bound on |x - b/lambda|: the residual tolerance over the smallest
/// operator eigenvalue is ~1e-10, observed errors ~4e-11.
constexpr real_t kMaxError = 1e-9;
constexpr int kMaxVcycles = 40;
constexpr int kPoolPerKey = 8;
constexpr int kSetupReps = 15;
constexpr int kConnections = 2;
constexpr int kReadTimeoutMs = 30000;

struct Key {
  gmg::index_t n;
  const char* op;
};
constexpr Key kKeys[] = {
    {8, "poisson"}, {8, "helmholtz"}, {16, "poisson"}, {16, "helmholtz"}};
constexpr int kNumKeys = 4;

gmg::GmgOptions key_options(const std::string& op) {
  gmg::GmgOptions o;
  o.levels = 3;
  o.smooths = 6;
  o.bottom_smooths = 30;
  o.tolerance = kTolerance;
  o.max_vcycles = kMaxVcycles;
  o.brick = gmg::BrickShape::cube(4);
  o.max_batch = 4;
  if (op == "helmholtz") o.identity_coef = 1;
  return o;
}

gmg::front::FrontConfig front_config() {
  gmg::front::FrontConfig cfg;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cfg.shards = nproc >= 2 ? 2 : 1;
  cfg.shard.executors = std::max(1, nproc / cfg.shards);
  cfg.shard.cache_capacity = kNumKeys;
  // Deeper than every arrival of a minute-long run, so a backlog (a
  // burst, or the host stealing the CPUs) is queued, never shed: a
  // refusal would count as a failed request.
  cfg.admission.max_inflight = std::size_t{1} << 14;
  cfg.admission.parallelism = cfg.shard.executors;
  return cfg;
}

/// One pooled right-hand side of a key: the samples sent, the exact
/// discrete solution, and the direct GmgSolver solution the socket
/// answer must match bit for bit.
struct PoolEntry {
  std::vector<real_t> rhs, exact, reference;
};

std::vector<PoolEntry> make_pool(const Key& key, gmg::Rng& rng) {
  const gmg::Vec3 ext{key.n, key.n, key.n};
  const real_t h = 1.0 / static_cast<real_t>(key.n);
  const real_t lambda = 6 * (std::cos(2 * M_PI * h) - 1) / (h * h);
  const gmg::GmgOptions opts = key_options(key.op);
  const real_t eig = opts.identity_coef + opts.laplacian_coef * lambda;
  std::vector<PoolEntry> pool(kPoolPerKey);
  gmg::comm::World world(1);
  world.run([&](gmg::comm::Communicator& comm) {
    gmg::GmgSolver solver(opts, gmg::CartDecomp(ext, {1, 1, 1}), 0);
    solver.set_solve_params(kTolerance, kMaxVcycles);
    for (PoolEntry& e : pool) {
      const real_t sign = rng.uniform() < 0 ? -1 : 1;
      const real_t a = rng.uniform(0, 2 * M_PI), b = rng.uniform(0, 2 * M_PI),
                   c = rng.uniform(0, 2 * M_PI);
      e.rhs = wire::sample_rhs(ext, [&](real_t x, real_t y, real_t z) {
        return sign * std::sin(2 * M_PI * x + a) * std::sin(2 * M_PI * y + b) *
               std::sin(2 * M_PI * z + c);
      });
      e.exact.resize(e.rhs.size());
      for (std::size_t i = 0; i < e.rhs.size(); ++i)
        e.exact[i] = e.rhs[i] / eig;
      solver.set_rhs(wire::rhs_from_samples(
          ext, std::make_shared<const std::vector<real_t>>(e.rhs)));
      solver.solve(comm);
      gmg::for_each(gmg::Box::from_extent(ext),
                    [&](gmg::index_t i, gmg::index_t j, gmg::index_t k) {
                      e.reference.push_back(solver.solution()(i, j, k));
                    });
    }
  });
  return pool;
}

/// A running server with warm caches and connected clients.
struct Server {
  std::unique_ptr<gmg::front::FrontServer> front;
  gmg::front::FrontClient clients[kConnections];
};

/// Start a server, connect, and send the first (cold) request of each
/// key: what setup_s times.
void start_server(Server& s, const std::string& sock,
                  const std::vector<std::vector<PoolEntry>>& pools,
                  Result& out) {
  s.front = std::make_unique<gmg::front::FrontServer>(front_config());
  s.front->register_operator("poisson", key_options("poisson"));
  s.front->register_operator("helmholtz", key_options("helmholtz"));
  s.front->listen_unix(sock);
  for (auto& c : s.clients) c.connect_unix(sock);
  for (int k = 0; k < kNumKeys; ++k) {
    wire::SubmitFrame sf;
    sf.request_id = static_cast<std::uint64_t>(k) + 1;
    sf.global_extent = {kKeys[k].n, kKeys[k].n, kKeys[k].n};
    sf.operator_id = kKeys[k].op;
    sf.tolerance = kTolerance;
    sf.max_vcycles = kMaxVcycles;
    sf.rhs_samples = pools[k][0].rhs;
    const auto r = s.clients[0].submit_and_wait(sf, kReadTimeoutMs);
    constexpr auto kDone =
        static_cast<std::uint8_t>(gmg::serve::RequestStatus::kDone);
    if (r.rejected || r.result.status != kDone)
      out.wrong(std::string("cold request for ") + kKeys[k].op + " " +
                std::to_string(kKeys[k].n) + "^3 did not complete");
  }
}

struct Sample {
  int key = 0, entry = 0, conn = 0;
  double due = 0;   // scheduled send, now_s() clock
  double sent = 0;  // actual send
  double read = 0;  // response read; 0 = never arrived
  bool ok = false;
  real_t error = 0;
  gmg::front::FrontClient::Response resp;
};

/// Per-shard counters summed, for deltas across a phase.
struct Counters {
  std::uint64_t spills = 0, sheds = 0, batch_solves = 0, batch_requests = 0;
  std::vector<std::uint64_t> completed;
};

Counters counters(const gmg::front::FrontServer& f) {
  const gmg::front::FrontStats st = f.stats();
  Counters c;
  c.spills = st.spills;
  c.sheds = st.sheds;
  for (const auto& e : st.shards.shards) {
    c.batch_solves += e.batch_solves;
    c.batch_requests += e.batch_requests;
    c.completed.push_back(e.completed);
  }
  return c;
}

/// One open-loop phase of `seconds` at kRate; fills `samples`.
void open_loop(Server& s, double seconds, gmg::Rng& rng,
               const std::vector<std::vector<PoolEntry>>& pools,
               std::vector<Sample>& samples) {
  double t = 0;
  while (true) {
    t += -std::log(std::max(1e-12, rng.uniform(0, 1))) / kRate;
    if (t >= seconds) break;
    Sample smp;
    // 16^3 requests twice as often as 8^3 ones: the two sizes form two
    // latency modes, and a median that fell in the gap between them
    // would jump from mode to mode with the seed.
    const auto draw = rng.uniform_int(0, 5);
    smp.key = static_cast<int>(draw < 2 ? draw : 2 + (draw - 2) / 2);
    smp.entry = static_cast<int>(rng.uniform_int(0, kPoolPerKey - 1));
    smp.conn = static_cast<int>(samples.size() % kConnections);
    smp.due = t;
    samples.push_back(smp);
  }
  const double t0 = now_s() + 0.01;
  for (Sample& smp : samples) smp.due += t0;

  std::vector<std::thread> readers;
  // Joins the readers on every exit path: a sender that throws leaves
  // them to time out instead of ending the process unjoined.
  struct Join {
    std::vector<std::thread>& threads;
    ~Join() {
      for (auto& t : threads)
        if (t.joinable()) t.join();
    }
  } join{readers};
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      std::size_t expected = 0;
      for (const Sample& smp : samples) expected += smp.conn == c;
      for (std::size_t got = 0; got < expected; ++got) {
        gmg::front::FrontClient::Response r;
        if (!s.clients[c].read_response(&r, kReadTimeoutMs)) return;
        const double now = now_s();
        if (r.request_id == 0 || r.request_id > samples.size()) continue;
        Sample& smp = samples[static_cast<std::size_t>(r.request_id - 1)];
        smp.read = now;
        smp.resp = std::move(r);
        const auto& res = smp.resp.result;
        const PoolEntry& e =
            pools[static_cast<std::size_t>(smp.key)]
                 [static_cast<std::size_t>(smp.entry)];
        smp.ok = !smp.resp.rejected &&
                 res.status == static_cast<std::uint8_t>(
                                   gmg::serve::RequestStatus::kDone) &&
                 std::isfinite(res.final_residual) &&
                 res.final_residual <= kTolerance &&
                 res.solution.size() == e.reference.size() &&
                 std::memcmp(res.solution.data(), e.reference.data(),
                             e.reference.size() * sizeof(real_t)) == 0;
        for (std::size_t i = 0; smp.ok && i < e.exact.size(); ++i)
          smp.error =
              std::max(smp.error, std::abs(res.solution[i] - e.exact[i]));
        smp.ok = smp.ok && smp.error <= kMaxError;
        smp.resp.result.solution.clear();
        smp.resp.result.solution.shrink_to_fit();
      }
    });
  }

  wire::SubmitFrame sf;
  sf.tolerance = kTolerance;
  sf.max_vcycles = kMaxVcycles;
  sf.return_solution = true;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    Sample& smp = samples[i];
    const double wait = smp.due - now_s();
    if (wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    const Key& key = kKeys[smp.key];
    sf.request_id = i + 1;
    sf.global_extent = {key.n, key.n, key.n};
    sf.operator_id = key.op;
    sf.rhs_samples = pools[static_cast<std::size_t>(smp.key)]
                          [static_cast<std::size_t>(smp.entry)]
                              .rhs;
    smp.sent = now_s();
    s.clients[smp.conn].send_submit(sf);
  }
}

using Pools = std::vector<std::vector<PoolEntry>>;

Pools make_pools(gmg::Rng& rng) {
  Pools pools;
  for (const Key& k : kKeys) pools.push_back(make_pool(k, rng));
  return pools;
}

std::string socket_path() {
  std::filesystem::create_directories(".bench_build");
  return ".bench_build/perfbench-" + std::to_string(::getpid()) + ".sock";
}

/// What the right answers among `samples` measured. Every wrong or
/// missing answer counts against the run. With a log, each answer adds
/// a derived serve span (queue, setup and solve inside it), under a
/// request span when `request_spans`.
struct Tally {
  std::vector<double> latency, solve, queue, overhead, late;
  real_t max_err = 0;
  std::int64_t cold = 0, hits = 0;
};

Tally tally(const std::vector<Sample>& samples, Result& out, SpanLog* log,
            bool request_spans) {
  Tally t;
  for (const Sample& smp : samples) {
    ++out.attempted;
    t.late.push_back(smp.sent - smp.due);
    if (!smp.ok) {
      ++out.failed;
      out.wrong(smp.read == 0 ? "request without a response"
                : smp.resp.rejected
                    ? "request rejected: " + smp.resp.reject.detail
                    : "request failed, unconverged, not bitwise equal to "
                      "the direct solve, or off the exact solution");
      continue;
    }
    const auto& r = smp.resp.result;
    t.latency.push_back(smp.read - smp.due);
    t.solve.push_back(r.solve_seconds);
    t.queue.push_back(r.queue_seconds);
    t.overhead.push_back(smp.read - smp.sent - r.total_seconds);
    t.max_err = std::max(t.max_err, smp.error);
    (r.cache_hit ? t.hits : t.cold) += 1;
    if (log) {
      const int req = request_spans ? log->add("request", -1, smp.due,
                                               smp.read - smp.due)
                                    : -1;
      const int srv = log->derived("serve", req, r.total_seconds);
      log->derived("queue", srv, r.queue_seconds);
      log->derived("setup", srv, r.setup_seconds);
      log->derived("solve", srv, r.solve_seconds);
    }
  }
  return t;
}

/// The serve, batch and front layer metrics of one traced open-loop
/// phase; c1 and c2 are the server's counters before and after it.
void layer_metrics(const Tally& t, const Counters& c1, const Counters& c2,
                   Result& out, SpanLog* log) {
  out.metric("gen.late_p99_s", percentile(t.late, 0.99), "s");
  out.metric("serve.queue_p50_s", median(t.queue), "s");
  out.metric("serve.queue_p99_s", percentile(t.queue, 0.99), "s");
  out.metric("serve.solve_p50_s", median(t.solve), "s");
  out.metric("serve.cold_setups", static_cast<double>(t.cold), "count");
  out.metric("serve.cache_hit_ratio",
             t.hits + t.cold ? static_cast<double>(t.hits) /
                                   static_cast<double>(t.hits + t.cold)
                             : 0,
             "1");
  const double bsolves = static_cast<double>(c2.batch_solves - c1.batch_solves);
  const double breqs =
      static_cast<double>(c2.batch_requests - c1.batch_requests);
  double completed = 0, busiest = 0;
  for (std::size_t i = 0; i < c2.completed.size(); ++i) {
    const double d = static_cast<double>(c2.completed[i] - c1.completed[i]);
    completed += d;
    busiest = std::max(busiest, d);
  }
  out.metric("batch.occupancy", bsolves > 0 ? breqs / bsolves : 0, "1");
  out.metric("batch.share", completed > 0 ? breqs / completed : 0, "1");
  out.metric("front.overhead_p50_s", median(t.overhead), "s");
  out.metric("front.shard_share_max", completed > 0 ? busiest / completed : 0,
             "1");
  out.metric("front.spills", static_cast<double>(c2.spills - c1.spills),
             "count");
  out.metric("front.sheds", static_cast<double>(c2.sheds - c1.sheds), "count");
  out.metric("unattributed.serve_pct", log->unattributed_pct("serve"), "%");
}

}  // namespace

void probe_serve(std::uint64_t seed, double seconds, Result& out,
                 SpanLog* log) {
  gmg::Rng rng(seed);
  const Pools pools = make_pools(rng);
  std::vector<Sample> samples;
  Counters c1, c2;
  {
    Server server;
    start_server(server, socket_path(), pools, out);
    gmg::trace::set_enabled(true);
    c1 = counters(*server.front);
    open_loop(server, seconds, rng, pools, samples);
    gmg::trace::set_enabled(false);
    c2 = counters(*server.front);
  }
  out.samples["serve_probe_requests"] =
      static_cast<std::int64_t>(samples.size());
  layer_metrics(tally(samples, out, log, false), c1, c2, out, log);
}

void run_serve_socket(const Args& args, Result& out, SpanLog* log) {
  if (log) probe_host_bandwidth(out);
  gmg::Rng rng(args.seed);
  const Pools pools = make_pools(rng);

  const std::string sock = socket_path();
  std::vector<double> setup;
  std::unique_ptr<Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    server = std::make_unique<Server>();
    const double t0 = now_s();
    start_server(*server, sock, pools, out);
    setup.push_back(now_s() - t0);
  }

  // The traced run measures an untraced half first, as the baseline
  // trace.overhead_pct compares against.
  std::vector<Sample> base, traced;
  if (log) {
    open_loop(*server, args.seconds / 2, rng, pools, base);
    gmg::trace::set_enabled(true);
  }
  const Counters c1 = counters(*server->front);
  std::vector<Sample>& samples = log ? traced : base;
  open_loop(*server, log ? args.seconds / 2 : args.seconds, rng, pools,
            samples);
  gmg::trace::set_enabled(false);
  const Counters c2 = counters(*server->front);
  server.reset();

  const Tally t = tally(samples, out, log, true);
  out.samples["setups"] = static_cast<std::int64_t>(setup.size());
  out.samples["requests"] = static_cast<std::int64_t>(samples.size());
  if (!log) {
    out.metric("setup_s", median(setup), "s");
    out.metric("solve_s", median(t.solve), "s");
    out.latency(t.latency);
    out.metric("max_error", t.max_err, "1");
    return;
  }

  std::vector<double> base_latency;
  for (const Sample& smp : base)
    if (smp.ok) base_latency.push_back(smp.read - smp.due);
  out.samples["baseline_requests"] = static_cast<std::int64_t>(base.size());
  out.metric("trace.overhead_pct",
             100 * (median(t.latency) / median(base_latency) - 1), "%");
  layer_metrics(t, c1, c2, out, log);
  out.metric("unattributed.request_pct", log->unattributed_pct("request"),
             "%");

  // Kernel, level, exchange and schedule-proof probes on a direct
  // solver for the largest key (16^3 poisson).
  gmg::comm::World world(1);
  world.run([&](gmg::comm::Communicator& comm) {
    gmg::GmgSolver solver(key_options("poisson"),
                          gmg::CartDecomp({16, 16, 16}, {1, 1, 1}), 0);
    solver.set_rhs(wire::rhs_from_samples(
        {16, 16, 16},
        std::make_shared<const std::vector<real_t>>(pools[2][0].rhs)));
    solver.solve(comm);
    out.metric("check.verify_s", probe_verify(solver), "s");
    out.metric("check.verify_share",
               out.metrics["check.verify_s"].first / median(setup), "1");
    probe_kernels(solver, out);
    probe_exec_dispatch(out);
    probe_levels(solver, comm, out, log, -1);
  });
  out.metric("unattributed.level_pct", log->unattributed_pct("level"), "%");
}

}  // namespace perfbench
