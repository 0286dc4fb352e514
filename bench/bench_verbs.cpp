// Verbs fast-path microbenchmark, shaped like rdmaperf's m-to-1 sweeps:
//
//  leg 1 (cq_mod): M client nodes hammer one server MR with READs while
//    sweeping the selective-signaling factor k (signal every k-th WR) and
//    the per-context inflight window. Selective signaling retires N posts
//    with ~N/k CQEs, and because unsignaled successes surface in bursts
//    when their chain closer lands, the consumer wakes ~1/k as often —
//    per-slot CPU overhead (doorbells + wakeup context switches) drops
//    monotonically as k grows.
//
//  leg 2 (qpc): one front end posts scatter rounds over N remote MRs
//    through either N dedicated QpContexts or a small DCT-style shared
//    pool, against a NIC whose QP-context cache is bounded. Dedicated
//    contexts >> cache entries thrash: every post misses, and misses
//    serialise on the single context-fetch engine, so the round time
//    collapses. The shared pool fits the cache and stays indistinguishable
//    from an unbounded one — the RDMAvisor argument for multiplexed
//    connections at thousands of back ends.
//
// Results land in BENCH_verbs.json; ci.sh bench asserts the monotone
// per-slot overhead drop (leg 1) and the thrash-vs-flat split (leg 2).
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "args.hpp"
#include "common.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "report.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace rdmamon;

/// Wakeup cost charged by the scheduler when a parked consumer resumes.
const sim::Duration kSwitchCost = os::NodeConfig{}.context_switch_cost;

// --- leg 1: selective signaling / CQ moderation ------------------------------

struct CqModCell {
  int k = 0;
  std::size_t depth = 0;
  std::uint64_t ops = 0;        ///< READs per client
  std::uint64_t wakeups = 0;    ///< consumer parks resumed (all clients)
  std::uint64_t doorbells = 0;  ///< one per post in this leg
  std::uint64_t signaled = 0;   ///< CQEs carrying a signal
  std::uint64_t unsignaled_retired = 0;
  std::uint64_t deferred = 0;   ///< posts that waited for a window slot
  double elapsed_us = 0.0;      ///< first post -> last retirement
  /// The headline metric: issue+reap CPU overhead per slot.
  double per_slot_overhead_ns() const {
    const double total = static_cast<double>(doorbells) *
                             static_cast<double>(net::kDoorbellCost.ns) +
                         static_cast<double>(wakeups) *
                             static_cast<double>(kSwitchCost.ns);
    return total / static_cast<double>(ops * 4);  // 4 clients
  }
};

CqModCell run_cq_mod(int k, std::size_t depth, std::uint64_t ops) {
  constexpr int kClients = 4;
  constexpr std::size_t kLen = 256;

  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node server(simu, {.name = "server"});
  fabric.attach(server);
  int word = 42;
  const net::MrKey mr =
      fabric.nic(server.id).register_mr(net::bytes_of(word));

  CqModCell cell;
  cell.k = k;
  cell.depth = depth;
  cell.ops = ops;

  struct Client {
    std::unique_ptr<os::Node> node;
    std::unique_ptr<net::CompletionQueue> cq;
    std::shared_ptr<net::QpContext> ctx;
    std::unique_ptr<net::QueuePair> qp;
    std::uint64_t wakeups = 0;
    sim::TimePoint done_at{};
  };
  std::vector<Client> clients(kClients);
  for (int c = 0; c < kClients; ++c) {
    Client& cl = clients[c];
    cl.node = std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "client" + std::to_string(c)});
    fabric.attach(*cl.node);
    cl.cq = std::make_unique<net::CompletionQueue>();
    cl.ctx = std::make_shared<net::QpContext>(fabric.nic(cl.node->id), k,
                                              depth);
    cl.qp = std::make_unique<net::QueuePair>(fabric.nic(cl.node->id),
                                             server.id, *cl.cq, cl.ctx);
    cl.node->spawn("driver", [&cl, mr, ops](os::SimThread& self)
                                -> os::Program {
      // rdmaperf-style sender: post every READ (the context's window
      // defers past-depth posts internally), then reap until all retire.
      for (std::uint64_t op = 0; op < ops; ++op) {
        co_await os::Compute{net::kDoorbellCost};
        cl.qp->post({.rkey = mr, .len = kLen, .wr_id = cl.cq->alloc_wr_id()},
                    /*force_signal=*/false);
      }
      std::uint64_t retired = 0;
      while (retired < ops) {
        while (!cl.cq->empty()) {
          cl.cq->pop();
          ++retired;
        }
        if (retired < ops) {
          co_await os::WaitOn{&cl.cq->wait_queue()};
          ++cl.wakeups;
        }
      }
      cl.done_at = self.node().simu().now();
    });
  }
  simu.run_for(sim::seconds(30));

  sim::TimePoint last{};
  for (Client& cl : clients) {
    cell.wakeups += cl.wakeups;
    cell.doorbells += ops;
    cell.signaled += cl.cq->cqes_signaled();
    cell.unsignaled_retired += cl.cq->unsignaled_retired();
    cell.deferred += cl.ctx->deferred_total();
    if (cl.done_at.ns > last.ns) last = cl.done_at;
  }
  cell.elapsed_us = static_cast<double>(last.ns) / 1e3;
  return cell;
}

// --- leg 2: bounded NIC context cache ----------------------------------------

struct QpcCell {
  std::string contexts;  ///< "dedicated" | "shared"
  int pool = 0;          ///< shared contexts (0 = dedicated, one per QP)
  std::size_t cache = 0; ///< nic_ctx_cache_entries (0 = unbounded)
  double round_mean_us = 0.0;
  std::uint64_t qpc_hits = 0;
  std::uint64_t qpc_misses = 0;
  std::uint64_t qpc_evictions = 0;
};

QpcCell run_qpc(int n, int pool, std::size_t cache_entries, int rounds) {
  sim::Simulation simu;
  net::FabricConfig fc;
  fc.nic_ctx_cache_entries = cache_entries;
  net::Fabric fabric(simu, fc);
  os::Node frontend(simu, {.name = "fe"});
  fabric.attach(frontend);

  std::vector<std::unique_ptr<os::Node>> targets;
  std::vector<net::MrKey> mrs;
  int word = 1;  // every target exposes this one word
  for (int i = 0; i < n; ++i) {
    targets.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "be" + std::to_string(i)}));
    fabric.attach(*targets.back());
    mrs.push_back(
        fabric.nic(targets.back()->id).register_mr(net::bytes_of(word)));
  }

  net::VerbsTuning vt;
  vt.shared_contexts = pool;
  const std::vector<std::shared_ptr<net::QpContext>> ctx_pool =
      net::make_context_pool(fabric.nic(frontend.id), vt);
  net::CompletionQueue cq;
  std::vector<std::unique_ptr<net::QueuePair>> qps;
  for (int i = 0; i < n; ++i) {
    std::shared_ptr<net::QpContext> ctx =
        ctx_pool.empty()
            ? nullptr
            : ctx_pool[static_cast<std::size_t>(i) % ctx_pool.size()];
    qps.push_back(std::make_unique<net::QueuePair>(
        fabric.nic(frontend.id), targets[static_cast<std::size_t>(i)]->id, cq,
        std::move(ctx)));
  }

  sim::OnlineStats round_us;
  frontend.spawn("poller", [&](os::SimThread& self) -> os::Program {
    std::vector<net::ReadBatchEntry> batch;
    for (int r = 0; r < rounds; ++r) {
      batch.clear();
      for (int i = 0; i < n; ++i) {
        batch.push_back({qps[static_cast<std::size_t>(i)].get(),
                         {.rkey = mrs[static_cast<std::size_t>(i)],
                          .len = 64,
                          .wr_id = cq.alloc_wr_id()}});
      }
      const sim::TimePoint t0 = simu.now();
      co_await net::post_read_batch(self, batch);
      std::size_t retired = 0;
      while (retired < static_cast<std::size_t>(n)) {
        while (!cq.empty()) {
          cq.pop();
          ++retired;
        }
        if (retired < static_cast<std::size_t>(n)) {
          co_await os::WaitOn{&cq.wait_queue()};
        }
      }
      round_us.add(static_cast<double>((simu.now() - t0).ns) / 1e3);
      co_await os::SleepFor{sim::msec(1)};
    }
  });
  simu.run_for(sim::seconds(30));

  QpcCell cell;
  cell.contexts = pool > 0 ? "shared" : "dedicated";
  cell.pool = pool;
  cell.cache = cache_entries;
  cell.round_mean_us = round_us.mean();
  const net::Nic& nic = fabric.nic(frontend.id);
  cell.qpc_hits = nic.qpc_hits();
  cell.qpc_misses = nic.qpc_misses();
  cell.qpc_evictions = nic.qpc_evictions();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;

  rdmamon::bench::banner(
      "verbs", "Selective signaling, CQ moderation, bounded QP-context cache",
      "rdmaperf's cq_mod: k-fold fewer CQEs and wakeups per posted WR; "
      "RDMAvisor: shared contexts keep a bounded NIC cache from thrashing");

  rdmamon::bench::JsonReport report("verbs");
  report.stamp(opt.quick, opt.seed);

  // --- leg 1: k x depth sweep ----------------------------------------------
  const std::vector<int> ks = {1, 2, 4, 8, 16};
  const std::vector<std::size_t> depths =
      opt.quick ? std::vector<std::size_t>{16} : std::vector<std::size_t>{4, 16, 64};
  const std::uint64_t ops = opt.quick ? 480 : 960;  // divisible by every k
  report.set("ops_per_client", static_cast<double>(ops));

  std::cout << "\n--- m-to-1 (4 clients -> 1 server): per-slot overhead (ns) "
               "= (doorbells + wakeup switches) / READs ---\n";
  rdmamon::util::Table table;
  std::vector<std::string> header = {"depth"};
  for (int k : ks) header.push_back("k=" + std::to_string(k));
  table.set_header(header);
  table.set_align(0, rdmamon::util::Align::Left);
  // overhead[depth index][k index] for the headline.
  std::vector<std::vector<double>> overhead(
      depths.size(), std::vector<double>(ks.size(), 0.0));
  for (std::size_t di = 0; di < depths.size(); ++di) {
    std::vector<std::string> row = {"tx=" + std::to_string(depths[di])};
    for (std::size_t ki = 0; ki < ks.size(); ++ki) {
      const auto wall0 = std::chrono::steady_clock::now();
      const CqModCell c = run_cq_mod(ks[ki], depths[di], ops);
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - wall0)
                                 .count();
      overhead[di][ki] = c.per_slot_overhead_ns();
      row.push_back(num(c.per_slot_overhead_ns(), 0));
      auto& r = report.add_result();
      r["leg"] = "cq_mod";
      r["k"] = c.k;
      r["depth"] = static_cast<int>(c.depth);
      r["wakeups"] = static_cast<double>(c.wakeups);
      r["doorbells"] = static_cast<double>(c.doorbells);
      r["cqes_signaled"] = static_cast<double>(c.signaled);
      r["unsignaled_retired"] = static_cast<double>(c.unsignaled_retired);
      r["deferred_posts"] = static_cast<double>(c.deferred);
      r["per_slot_overhead_ns"] = c.per_slot_overhead_ns();
      r["elapsed_us"] = c.elapsed_us;
      r["wall_ms"] = wall_ms;
    }
    table.add_row(row);
  }
  rdmamon::bench::show(table);

  // Headline: at the middle queue depth, overhead must drop monotonically
  // (within a 2% slack for wakeup-alignment noise) as k grows, and k=16
  // must beat k=1 outright.
  const std::size_t mid = depths.size() / 2;
  bool monotone = true;
  for (std::size_t ki = 1; ki < ks.size(); ++ki) {
    if (overhead[mid][ki] > overhead[mid][ki - 1] * 1.02) monotone = false;
  }
  const double drop = overhead[mid][0] > 0.0
                          ? overhead[mid][ks.size() - 1] / overhead[mid][0]
                          : 1.0;
  std::cout << "\nper-slot overhead at tx=" << depths[mid] << ": k=1 "
            << num(overhead[mid][0], 0) << "ns -> k=16 "
            << num(overhead[mid][ks.size() - 1], 0) << "ns ("
            << num(drop, 3) << "x; acceptance: monotone drop, k16 < k1)\n";
  auto& h = report.root()["headline"];
  h = rdmamon::util::JsonValue::object();
  h["depth"] = static_cast<int>(depths[mid]);
  h["per_slot_overhead_k1_ns"] = overhead[mid][0];
  h["per_slot_overhead_k16_ns"] = overhead[mid][ks.size() - 1];
  h["overhead_monotone"] = monotone;
  h["overhead_drop_factor"] = drop;

  // --- leg 2: context-cache thrash vs shared pool ---------------------------
  const int n = opt.quick ? 128 : 256;
  const int pool = 16;
  const std::size_t cache = 32;
  const int rounds = opt.quick ? 10 : 20;
  report.set("qpc_backends", n);

  std::cout << "\n--- 1-to-" << n << " scatter rounds: NIC QP-context cache "
            << "(pool=" << pool << ", cache=" << cache << " entries) ---\n";
  rdmamon::util::Table qt;
  qt.set_header({"contexts", "cache", "round us", "hits", "misses", "evict"});
  qt.set_align(0, rdmamon::util::Align::Left);
  std::vector<QpcCell> qcells;
  // (pool, cache): dedicated/unbounded is the historical baseline;
  // dedicated/bounded thrashes; shared/bounded must match the baseline.
  for (const auto& [p, cch] : std::vector<std::pair<int, std::size_t>>{
           {0, 0}, {0, cache}, {pool, cache}}) {
    const QpcCell c = run_qpc(n, p, cch, rounds);
    qcells.push_back(c);
    qt.add_row({c.contexts + (c.pool > 0 ? "(" + std::to_string(c.pool) + ")"
                                         : ""),
                c.cache == 0 ? "unbounded" : std::to_string(c.cache),
                num(c.round_mean_us, 1), std::to_string(c.qpc_hits),
                std::to_string(c.qpc_misses),
                std::to_string(c.qpc_evictions)});
    auto& r = report.add_result();
    r["leg"] = "qpc";
    r["contexts"] = c.contexts;
    r["pool"] = c.pool;
    r["cache_entries"] = static_cast<int>(c.cache);
    r["round_mean_us"] = c.round_mean_us;
    r["qpc_hits"] = static_cast<double>(c.qpc_hits);
    r["qpc_misses"] = static_cast<double>(c.qpc_misses);
    r["qpc_evictions"] = static_cast<double>(c.qpc_evictions);
  }
  rdmamon::bench::show(qt);

  const double base = qcells[0].round_mean_us;
  const double thrash = qcells[1].round_mean_us;
  const double shared = qcells[2].round_mean_us;
  const double thrash_ratio = base > 0.0 ? thrash / base : 0.0;
  const double shared_ratio = base > 0.0 ? shared / base : 0.0;
  std::cout << "\nbounded cache, dedicated contexts: " << num(thrash_ratio, 2)
            << "x the unbounded round (thrash); shared pool: "
            << num(shared_ratio, 3)
            << "x (acceptance: thrash > 1.5x, shared <= 1.15x)\n";
  auto& qh = report.root()["qpc_headline"];
  qh = rdmamon::util::JsonValue::object();
  qh["n"] = n;
  qh["round_unbounded_us"] = base;
  qh["round_thrash_us"] = thrash;
  qh["round_shared_us"] = shared;
  qh["thrash_ratio"] = thrash_ratio;
  qh["shared_ratio"] = shared_ratio;

  report.write();
  return 0;
}
