//===- perfbench/tsbench.cpp - Closed-loop tuple-space load generator -----===//
//
// Part of libsting's benchmark package (see perfbench/NOTES.md).
//
// One process, one workload per invocation. A VM shaped like
// bench/app_router (4 VPs on 2 PPs, preemption on) hosts 4 client sting
// threads in a closed loop over loopback:
//
//   local_pingpong    4 client/responder pairs on one Hashed TupleSpace
//   routed_keyed      put + takeUntil on a key homed on one of 3 shards
//   routed_fanout     put on a per-op key, take with a formal key and a
//                     per-client tag: every take arms 3 legs, retracts 2
//   replicated_keyed  routed_keyed at ReplicationFactor 2
//
// tsbench times calls into public functions from outside and reads the
// library's public counters; it adds no hooks to the library. With
// --trace 1 a second, traced window records spans around the same calls
// (kept in memory, written at exit) and per-layer metrics are printed.
//
// Output: one JSON line on stdout holding every metric measured, each with
// its unit, plus the per-round values; problems go to stderr.
// perfbench/run.py selects the metrics BENCHMARK.json names.
//
//===----------------------------------------------------------------------===//

#include "dist/Replica.h"
#include "dist/Shard.h"
#include "dist/SpaceRouter.h"
#include "sting/Sting.h"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace sting;
using namespace sting::dist;
using TC = ThreadController;

namespace {

constexpr int Clients = 4;
constexpr std::size_t Shards = 3;
/// Every blocking take carries this deadline; an expiry is a failed op.
constexpr std::uint64_t OpDeadlineNanos = 5'000'000'000;
/// Ops per client whose spans are kept for the span file (all traced ops
/// feed the per-layer histograms; this only bounds memory).
constexpr std::size_t SpanKeepOps = 2048;
/// Fixtures set up (and timed) per measured window.
constexpr int SetupsPerRound = 2;
/// Values stay well inside the fixnum range.
constexpr std::uint64_t ValueMask = (std::uint64_t(1) << 40) - 1;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t splitmix(std::uint64_t &S) {
  std::uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

std::int64_t nextValue(std::uint64_t &Rng) {
  return static_cast<std::int64_t>(splitmix(Rng) & ValueMask);
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) * 1e-6;
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// The \p Q quantile of \p V, interpolating between order statistics.
double quantileOf(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * static_cast<double>(V.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(Pos);
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

/// The samples' quartile on the good side: the first quartile of a
/// lower-is-better metric, the third of a higher-is-better one. Rounds
/// slowed by other tenants of the host, or by a rare thread placement, do
/// not move it until they are a quarter of all rounds (NOTES.md).
double goodQuartile(const std::vector<double> &V, bool HigherIsBetter) {
  return quantileOf(V, HigherIsBetter ? 0.75 : 0.25);
}

/// Log-linear latency histogram in nanoseconds: exact below 2048 ns,
/// 1/1024 relative resolution above. Fixed size, so recording memory does
/// not grow with throughput (peak RSS stays a property of the library).
class LatencyHistogram {
public:
  LatencyHistogram() : Counts(indexOf(MaxValue) + 1, 0) {}

  void add(std::uint64_t V) {
    ++Counts[indexOf(std::min(V, MaxValue))];
    ++N;
  }
  void merge(const LatencyHistogram &O) {
    for (std::size_t I = 0; I != Counts.size(); ++I)
      Counts[I] += O.Counts[I];
    N += O.N;
  }
  std::uint64_t count() const { return N; }

  /// The value at quantile \p Q (bucket midpoint), in nanoseconds.
  double quantile(double Q) const {
    if (N == 0)
      return 0;
    std::uint64_t Rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(Q * static_cast<double>(N) + 0.999999));
    std::uint64_t Seen = 0;
    for (std::size_t I = 0; I != Counts.size(); ++I) {
      Seen += Counts[I];
      if (Seen >= Rank)
        return valueOf(I);
    }
    return valueOf(Counts.size() - 1);
  }

private:
  static constexpr unsigned SubBits = 11;
  static constexpr std::uint64_t Half = std::uint64_t(1) << (SubBits - 1);
  static constexpr std::uint64_t MaxValue = (std::uint64_t(1) << 40) - 1;

  static std::size_t indexOf(std::uint64_t V) {
    const unsigned Width = static_cast<unsigned>(std::bit_width(V));
    if (Width <= SubBits)
      return V;
    const unsigned Shift = Width - SubBits;
    return Shift * Half + (V >> Shift);
  }
  static double valueOf(std::size_t I) {
    if (I < 2 * Half)
      return static_cast<double>(I);
    const std::uint64_t Shift = I / Half - 1;
    const std::uint64_t Lower = (I - Shift * Half) << Shift;
    return static_cast<double>(Lower) + static_cast<double>(1ULL << Shift) / 2;
  }

  std::vector<std::uint64_t> Counts;
  std::uint64_t N = 0;
};

// --- Spans ------------------------------------------------------------------

enum SpanName : std::uint8_t {
  SpanOp,
  SpanTuplePut,
  SpanTupleTake,
  SpanRouterPut,
  SpanRouterTake,
  SpanSetupVm,
  SpanSetupShards,
  SpanSetupRouter,
  SpanSetupFirstOp,
};
const char *const SpanNames[] = {"op",           "tuple.put",    "tuple.take",
                                 "router.put",   "router.take",  "setup.vm",
                                 "setup.shards", "setup.router", "setup.first_op"};

struct Span {
  std::uint32_t Id; ///< shared by an op's root and child spans; 0 = setup
  std::uint8_t Name;
  std::uint64_t Start, End;
};

/// The two child calls of one round trip, filled only on traced ops.
struct OpTrace {
  std::uint64_t PutStart = 0, PutEnd = 0, TakeStart = 0, TakeEnd = 0;
};

// --- Watchdog ---------------------------------------------------------------

/// Wall-clock guard: a run that outlives its budget prints the current
/// machine's counters on stderr and exits non-zero instead of hanging.
class RunWatchdog {
public:
  explicit RunWatchdog(std::uint64_t BudgetSeconds)
      : Thread([this, BudgetSeconds] { watch(BudgetSeconds); }) {}
  ~RunWatchdog() {
    {
      std::lock_guard<std::mutex> L(M);
      Done = true;
    }
    Cv.notify_all();
    Thread.join();
  }
  RunWatchdog(const RunWatchdog &) = delete;
  RunWatchdog &operator=(const RunWatchdog &) = delete;

  void watchVm(VirtualMachine *Vm) {
    std::lock_guard<std::mutex> L(M);
    Current = Vm;
  }

private:
  void watch(std::uint64_t BudgetSeconds) {
    std::unique_lock<std::mutex> L(M);
    if (Cv.wait_for(L, std::chrono::seconds(BudgetSeconds),
                    [this] { return Done; }))
      return;
    std::fprintf(stderr, "tsbench: watchdog: run exceeded %llu s; aborting\n",
                 static_cast<unsigned long long>(BudgetSeconds));
    if (Current)
      std::fputs(Current->statsReport().c_str(), stderr);
    std::fflush(stderr);
    std::_Exit(3);
  }

  std::mutex M;
  std::condition_variable Cv;
  bool Done = false;
  VirtualMachine *Current = nullptr;
  std::thread Thread; // last: starts after the members it reads
};

// --- Workloads --------------------------------------------------------------

enum class Kind { LocalPingpong, RoutedKeyed, RoutedFanout, ReplicatedKeyed };

struct Options {
  Kind Work = Kind::LocalPingpong;
  std::string WorkloadName;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Rounds = 30; ///< measured windows of Seconds/Rounds, one per fixture
  std::string SpansOut;
};

bool routed(Kind K) { return K != Kind::LocalPingpong; }

/// Per-client inputs (drawn from the seed) and tallies. Cache-line aligned
/// so the four clients never share a line.
struct alignas(64) ClientState {
  int Index = 0;
  std::int64_t Key = 0; ///< ping-pong pair key / keyed-workload key
  std::string Tag;      ///< fan-out per-client tag
  std::uint64_t Rng = 0;

  std::uint64_t Ops = 0, Attempted = 0, Failed = 0;
  /// Wrapping sums (conservation holds modulo 2^64).
  std::uint64_t SumPut = 0, SumTaken = 0;
  std::string Error;
  LatencyHistogram Rtt;

  // Traced windows only.
  LatencyHistogram PutNs, TakeNs, SelfNs;
  std::vector<Span> Spans;
  std::uint64_t OpNsTotal = 0, ChildNsTotal = 0, SelfNsTotal = 0;
  bool Nested = true; ///< every child span lay inside its op, in order

  void resetWindow() {
    Ops = Attempted = Failed = 0;
    Error.clear();
    Rtt = LatencyHistogram();
    PutNs = LatencyHistogram();
    TakeNs = LatencyHistogram();
    SelfNs = LatencyHistogram();
    Spans.clear();
    OpNsTotal = ChildNsTotal = SelfNsTotal = 0;
    Nested = true;
  }
};

/// A fixnum key drawn from \p Rng whose home shard is \p Want.
std::int64_t keyHomedOn(std::size_t Want, std::uint64_t &Rng) {
  for (;;) {
    std::int64_t K = nextValue(Rng);
    auto H = routeKey(makeTuple(K, "tok", 0));
    if (H && *H % Shards == Want)
      return K;
  }
}

/// Everything one setup builds inside the VM. Blocking members park, so
/// it lives inside Vm.run.
struct Fixture {
  Kind Work;
  // local_pingpong
  TupleSpaceRef Local;
  std::vector<ThreadRef> Responders;
  std::vector<std::int64_t> ResponderKeys;
  std::atomic<std::uint64_t> ReceivedSum{0}, RespondedSum{0};
  std::atomic<bool> Stopping{false};
  // routed
  std::vector<TupleSpaceRef> Spaces;
  std::vector<ReplicaRef> Reps;
  std::vector<std::unique_ptr<net::Server>> Servers;
  std::unique_ptr<SpaceRouter> Router;

  explicit Fixture(Kind W) : Work(W) {}

  /// The shard spaces and servers (local_pingpong: the space and its
  /// responders). \returns false if a server failed to start.
  bool buildShards(VirtualMachine &Vm, IoService &Io,
                   std::vector<net::ClientConfig> &Ring,
                   const std::vector<ClientState> &Cs) {
    if (!routed(Work)) {
      Local = TupleSpace::create(TupleSpaceRep::Hashed);
      for (const ClientState &C : Cs) {
        ResponderKeys.push_back(C.Key);
        Responders.push_back(TC::forkThread(
            [this, Key = C.Key]() -> AnyValue { return respond(Key); }));
      }
      return true;
    }
    const bool Replicated = Work == Kind::ReplicatedKeyed;
    for (std::size_t S = 0; S != Shards; ++S) {
      Spaces.push_back(TupleSpace::create());
      ShardConfig SC;
      if (Replicated) {
        Reps.push_back(std::make_shared<Replica>(Vm, Io, Spaces[S], S));
        SC.Rep = Reps[S];
      }
      Servers.push_back(
          net::Server::start(Vm, Io, shardHandler(Spaces[S], SC)));
      if (!Servers.back())
        return false;
      net::ClientConfig CC;
      CC.Port = Servers[S]->port();
      CC.MaxAttempts = 2;
      CC.ConnectTimeoutNanos = 200'000'000;
      CC.RequestTimeoutNanos = 2'000'000'000;
      Ring.push_back(CC);
    }
    for (auto &R : Reps)
      R->bind(Ring);
    return true;
  }

  void buildRouter(VirtualMachine &Vm, IoService &Io,
                   std::vector<net::ClientConfig> Ring) {
    if (!routed(Work))
      return;
    RouterConfig RC;
    RC.Shards = std::move(Ring);
    RC.ReplicationFactor = Work == Kind::ReplicatedKeyed ? 2 : 1;
    Router = std::make_unique<SpaceRouter>(Vm, Io, std::move(RC));
  }

  /// The responder half of a ping-pong pair: answers (k,"ping",v) with
  /// (k,"pong",v+1) until the (k,"ping",-1) sentinel arrives. \returns
  /// false if it gave up waiting instead.
  AnyValue respond(std::int64_t Key) {
    for (;;) {
      auto M = Local->takeUntil(makeTuple(Key, "ping", formal(0)),
                                Deadline::in(200'000'000));
      if (!M) {
        if (Stopping.load(std::memory_order_acquire))
          return AnyValue(false);
        continue;
      }
      const std::int64_t V = M->binding(0).asFixnum();
      if (V < 0)
        return AnyValue(true);
      ReceivedSum.fetch_add(V, std::memory_order_relaxed);
      RespondedSum.fetch_add(V + 1, std::memory_order_relaxed);
      Local->put(makeTuple(Key, "pong", V + 1));
    }
  }

  /// One client round trip carrying \p V under \p Key (ignored by
  /// local_pingpong, which uses the pair key). \returns an error text, or
  /// null on success.
  const char *roundTrip(ClientState &C, std::int64_t Key, std::int64_t V,
                        bool Traced, OpTrace &T) {
    if (!routed(Work)) {
      Tuple Ping = makeTuple(C.Key, "ping", V);
      Tuple Tmpl = makeTuple(C.Key, "pong", formal(0));
      if (Traced)
        T.PutStart = nowNs();
      Local->put(std::move(Ping));
      if (Traced)
        T.PutEnd = T.TakeStart = nowNs();
      auto M = Local->takeUntil(std::move(Tmpl), Deadline::in(OpDeadlineNanos));
      if (Traced)
        T.TakeEnd = nowNs();
      if (!M)
        return "pong take timed out";
      const std::int64_t Pong = M->binding(0).asFixnum();
      if (Pong != V + 1)
        return "pong carried a wrong value";
      C.SumPut += V;
      C.SumTaken += Pong;
      return nullptr;
    }
    const bool Fanout = Work == Kind::RoutedFanout;
    Tuple Put = Fanout ? makeTuple(Key, std::string_view(C.Tag), V)
                       : makeTuple(Key, "tok", V);
    Tuple Tmpl;
    if (Fanout) {
      Tmpl.push_back(formal(0));
      Tmpl.emplace_back(std::string_view(C.Tag));
      Tmpl.push_back(formal(1));
    } else {
      Tmpl = makeTuple(Key, "tok", formal(0));
    }
    if (Traced)
      T.PutStart = nowNs();
    const Status PS = Router->put(std::move(Put));
    if (Traced)
      T.PutEnd = T.TakeStart = nowNs();
    if (PS != Status::Ok)
      return "router put failed";
    Match M;
    const Status TS =
        Router->takeUntil(std::move(Tmpl), Deadline::in(OpDeadlineNanos), M);
    if (Traced)
      T.TakeEnd = nowNs();
    if (TS != Status::Ok)
      return TS == Status::Timeout ? "router take timed out"
                                   : "router take failed";
    const std::int64_t Got = M.binding(Fanout ? 1 : 0).asFixnum();
    if (Got != V || (Fanout && M.binding(0).asFixnum() != Key))
      return "router take returned a wrong tuple";
    C.SumPut += V;
    C.SumTaken += Got;
    return nullptr;
  }

  /// The first round trip on every pair (local) or every shard (routed:
  /// clients 0..2 hold keys homed on shards 0..2). \returns an error
  /// text, or null.
  const char *firstOps(std::vector<ClientState> &Cs) {
    OpTrace Ignored;
    const std::size_t N = routed(Work) ? Shards : Cs.size();
    for (std::size_t I = 0; I != N; ++I)
      if (const char *Err = roundTrip(Cs[I], Cs[I].Key, 0, false, Ignored))
        return Err;
    return nullptr;
  }

  /// Stops the responders (sentinel per pair) or the router, servers and
  /// replicas. \returns false if a responder had to give up instead.
  bool teardown() {
    bool Ok = true;
    if (Local) {
      for (std::size_t I = 0; I != Responders.size(); ++I)
        Local->put(makeTuple(ResponderKeys[I], "ping", -1));
      Stopping.store(true, std::memory_order_release);
      // Block-on-group, never threadValue: see NOTES.md "Joining workers".
      waitForAll(std::span<const ThreadRef>(Responders));
      for (const ThreadRef &R : Responders)
        Ok = Ok && R->result().as<bool>();
    }
    if (Router)
      Router->shutdown();
    for (auto &S : Servers)
      if (S)
        S->shutdown();
    for (auto &R : Reps)
      R->shutdown();
    return Ok;
  }
};

// --- Measured windows -------------------------------------------------------

/// The public counters the per-layer metrics are built from, read at each
/// window edge and differenced.
enum Ctr : std::size_t {
  CVpParks,
  CMailboxPosts,
  CParks,
  CDispatches,
  CPreempts,
  CSteals,
  CIoWaits,
  CIoWakeups,
  CPuts,
  CTakes,
  CBlocks,
  CHandoffs,
  CTupleWakeups,
  CNetReads,
  CNetWrites,
  CNetRetries,
  CBreakerOpens,
  CPoolWaits,
  CDeliveries,
  CRetracts,
  COrphans,
  CRedeposits,
  CFailovers,
  CUnreplicated,
  CForwards,
  CForwardFailures,
  CReplPromotions,
  NumCtrs,
};
using Counters = std::array<std::uint64_t, NumCtrs>;

Counters readCounters(VirtualMachine &Vm, IoService &Io, const Fixture &F) {
  Counters C{};
  const obs::SchedStatsSnapshot S = Vm.aggregateStats();
  C[CVpParks] = S.VpParks;
  C[CMailboxPosts] = S.MailboxPosts;
  C[CParks] = S.Parks;
  C[CDispatches] = S.Dispatches;
  C[CPreempts] = S.PreemptsDelivered;
  C[CSteals] = S.DequeSteals + S.StealsSucceeded;
  C[CNetReads] = S.NetReads;
  C[CNetWrites] = S.NetWrites;
  C[CNetRetries] = S.NetRetries;
  C[CBreakerOpens] = S.NetBreakerOpens;
  C[CIoWaits] = Io.stats().Waits.load(std::memory_order_relaxed);
  C[CIoWakeups] = Io.stats().Wakeups.load(std::memory_order_relaxed);
  auto AddSpace = [&](const TupleSpace &Sp) {
    const TupleSpaceStats &St = Sp.stats();
    C[CPuts] += St.Puts.load(std::memory_order_relaxed);
    C[CTakes] += St.Takes.load(std::memory_order_relaxed);
    C[CBlocks] += St.Blocks.load(std::memory_order_relaxed);
    C[CHandoffs] += St.Handoffs.load(std::memory_order_relaxed);
    C[CTupleWakeups] += St.Wakeups.load(std::memory_order_relaxed);
  };
  if (F.Local)
    AddSpace(*F.Local);
  for (const auto &Sp : F.Spaces)
    AddSpace(*Sp);
  if (F.Router) {
    const RouterStatsSnapshot R = F.Router->statsSnapshot();
    C[CDeliveries] = R.Deliveries;
    C[CRetracts] = R.Retracts;
    C[COrphans] = R.Orphans;
    C[CRedeposits] = R.Redeposits;
    C[CFailovers] = R.Failovers;
    C[CUnreplicated] = R.Unreplicated;
    C[CPoolWaits] = F.Router->pool().checkoutWaits();
  }
  for (const auto &R : F.Reps) {
    const ReplicaStatsSnapshot S = R->statsSnapshot();
    C[CForwards] += S.Forwards;
    C[CForwardFailures] += S.ForwardFailures;
    C[CReplPromotions] += S.Promotions;
  }
  return C;
}

/// One or more windows' results, pooled.
struct WindowResult {
  double WallSeconds = 0, CpuSeconds = 0;
  std::uint64_t Ops = 0, Attempted = 0, Failed = 0;
  LatencyHistogram Rtt, PutNs, TakeNs, SelfNs;
  Counters Delta{};
  std::uint64_t OpNsTotal = 0, ChildNsTotal = 0, SelfNsTotal = 0;
  bool Nested = true;

  double opsPerSecond() const { return WallSeconds > 0 ? Ops / WallSeconds : 0; }
  double perOp(Ctr C) const {
    return Ops ? static_cast<double>(Delta[C]) / static_cast<double>(Ops) : 0;
  }

  void merge(const WindowResult &O) {
    WallSeconds += O.WallSeconds;
    CpuSeconds += O.CpuSeconds;
    Ops += O.Ops;
    Attempted += O.Attempted;
    Failed += O.Failed;
    Rtt.merge(O.Rtt);
    PutNs.merge(O.PutNs);
    TakeNs.merge(O.TakeNs);
    SelfNs.merge(O.SelfNs);
    for (std::size_t I = 0; I != NumCtrs; ++I)
      Delta[I] += O.Delta[I];
    OpNsTotal += O.OpNsTotal;
    ChildNsTotal += O.ChildNsTotal;
    SelfNsTotal += O.SelfNsTotal;
    Nested = Nested && O.Nested;
  }
};

/// Folds one traced op into the client's per-layer tallies and, for the
/// first SpanKeepOps ops, its span log.
void recordTraced(ClientState &C, bool Routed, std::uint32_t OpId,
                  std::uint64_t Start, std::uint64_t End, const OpTrace &T) {
  const bool InOrder = Start <= T.PutStart && T.PutStart <= T.PutEnd &&
                       T.PutEnd <= T.TakeStart && T.TakeStart <= T.TakeEnd &&
                       T.TakeEnd <= End;
  C.Nested = C.Nested && InOrder;
  const std::uint64_t Put = T.PutEnd - T.PutStart;
  const std::uint64_t Take = T.TakeEnd - T.TakeStart;
  const std::uint64_t Op = End - Start;
  const std::uint64_t Self = InOrder ? Op - Put - Take : 0;
  C.PutNs.add(Put);
  C.TakeNs.add(Take);
  C.SelfNs.add(Self);
  C.OpNsTotal += Op;
  C.ChildNsTotal += Put + Take;
  C.SelfNsTotal += Self;
  if (C.Spans.size() < SpanKeepOps * 3) {
    C.Spans.push_back({OpId, SpanOp, Start, End});
    C.Spans.push_back(
        {OpId, Routed ? SpanRouterPut : SpanTuplePut, T.PutStart, T.PutEnd});
    C.Spans.push_back({OpId, Routed ? SpanRouterTake : SpanTupleTake,
                       T.TakeStart, T.TakeEnd});
  }
}

/// 0 = warm-up (ops run, not recorded), 1 = measuring, 2 = stop.
std::atomic<int> Phase{0};

/// Runs the 4 clients in a closed loop: a warm-up of 10% of \p Seconds,
/// then \p Seconds measured. An op counts when it started inside the
/// window. A failed op stops its client, so no run can wedge on a broken
/// path; its message lands in \p Errors.
WindowResult runWindow(VirtualMachine &Vm, IoService &Io, Fixture &F,
                       std::vector<ClientState> &Cs, double Seconds,
                       bool Traced, std::vector<std::string> &Errors) {
  WindowResult W;
  for (ClientState &C : Cs)
    C.resetWindow();
  Phase.store(0, std::memory_order_release);
  const bool Routed = routed(F.Work);
  const bool Fanout = F.Work == Kind::RoutedFanout;

  std::vector<ThreadRef> Pool;
  for (ClientState &C : Cs)
    Pool.push_back(TC::forkThread([&F, &C, Traced, Routed,
                                   Fanout]() -> AnyValue {
      std::uint32_t Seq = 0;
      for (;;) {
        const int P = Phase.load(std::memory_order_acquire);
        if (P == 2)
          return AnyValue(true);
        const std::int64_t Key = Fanout ? nextValue(C.Rng) : C.Key;
        const std::int64_t V = nextValue(C.Rng);
        OpTrace T;
        const std::uint64_t Start = nowNs();
        const char *Err = F.roundTrip(C, Key, V, Traced, T);
        const std::uint64_t End = nowNs();
        if (Err) {
          ++C.Attempted;
          ++C.Failed;
          C.Error = Err;
          return AnyValue(false);
        }
        if (P != 1)
          continue;
        ++C.Attempted;
        ++C.Ops;
        C.Rtt.add(End - Start);
        if (Traced)
          recordTraced(C, Routed,
                       (static_cast<std::uint32_t>(C.Index + 1) << 24) | ++Seq,
                       Start, End, T);
      }
    }));

  TC::threadSuspend(static_cast<std::uint64_t>(Seconds * 0.1e9));
  const Counters Before = readCounters(Vm, Io, F);
  const double Cpu0 = cpuSeconds();
  const std::uint64_t T0 = nowNs();
  Phase.store(1, std::memory_order_release);
  TC::threadSuspend(static_cast<std::uint64_t>(Seconds * 1e9));
  Phase.store(2, std::memory_order_release);
  // Block-on-group, never threadValue: see NOTES.md "Joining workers".
  waitForAll(std::span<const ThreadRef>(Pool));
  W.WallSeconds = (nowNs() - T0) * 1e-9;
  W.CpuSeconds = cpuSeconds() - Cpu0;
  const Counters After = readCounters(Vm, Io, F);
  for (std::size_t I = 0; I != NumCtrs; ++I)
    W.Delta[I] = After[I] - Before[I];

  for (ClientState &C : Cs) {
    W.Ops += C.Ops;
    W.Attempted += C.Attempted;
    W.Failed += C.Failed;
    W.Rtt.merge(C.Rtt);
    W.PutNs.merge(C.PutNs);
    W.TakeNs.merge(C.TakeNs);
    W.SelfNs.merge(C.SelfNs);
    W.OpNsTotal += C.OpNsTotal;
    W.ChildNsTotal += C.ChildNsTotal;
    W.SelfNsTotal += C.SelfNsTotal;
    W.Nested = W.Nested && C.Nested;
    if (!C.Error.empty())
      Errors.push_back("client " + std::to_string(C.Index) + ": " + C.Error);
  }
  return W;
}

/// Waits for every registration leg to resolve, then checks the
/// quiescent invariants. Appends a message per violation.
void checkQuiescent(const Fixture &F, const std::vector<ClientState> &Cs,
                    std::vector<std::string> &Errors) {
  std::uint64_t SumPut = 0, SumTaken = 0;
  for (const ClientState &C : Cs) {
    SumPut += C.SumPut;
    SumTaken += C.SumTaken;
  }
  if (F.Local) {
    // Every ping reached a responder once, and every pong a client once.
    if (F.ReceivedSum.load() != SumPut || F.RespondedSum.load() != SumTaken)
      Errors.push_back("ping-pong sums are not conserved");
    if (F.Local->size() != 0)
      Errors.push_back("tuples left in the local space at quiescence");
    return;
  }
  if (SumPut != SumTaken)
    Errors.push_back("routed sums are not conserved");
  Deadline D = Deadline::in(5'000'000'000);
  while (F.Router->pendingLegs() != 0 && !D.expired())
    TC::yieldProcessor();
  if (F.Router->pendingLegs() != 0)
    Errors.push_back("registration legs still pending at quiescence");
  const RouterStatsSnapshot S = F.Router->statsSnapshot();
  if (F.Work == Kind::RoutedFanout &&
      (S.Fanouts == 0 || S.Fanouts != S.Deliveries + S.Retracts + S.Orphans))
    Errors.push_back("fan-out ledger does not balance");
  if (F.Work == Kind::ReplicatedKeyed && S.Unreplicated != 0)
    Errors.push_back("replicated puts degraded to single copy");
  for (const auto &Sp : F.Spaces)
    if (Sp->size() != 0)
      Errors.push_back("tuples left on a shard at quiescence");
}

// --- Output -----------------------------------------------------------------

double ratio(std::uint64_t Num, std::uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) >= 0x20)
      Out += Ch;
  }
  return Out;
}

bool writeSpans(const std::string &Path, const std::vector<Span> &Setup,
                const std::vector<ClientState> &Cs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Emit = [&](const Span &S) {
    const bool Child = S.Id != 0 && S.Name != SpanOp;
    std::fprintf(F,
                 "{\"id\":%u,\"name\":\"%s\",\"parent\":%s,\"start_ns\":%llu,"
                 "\"end_ns\":%llu}\n",
                 S.Id, SpanNames[S.Name], Child ? "\"op\"" : "null",
                 static_cast<unsigned long long>(S.Start),
                 static_cast<unsigned long long>(S.End));
  };
  for (const Span &S : Setup)
    Emit(S);
  for (const ClientState &C : Cs)
    for (const Span &S : C.Spans)
      Emit(S);
  return std::fclose(F) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tsbench --workload local_pingpong|routed_keyed|"
               "routed_fanout|replicated_keyed --seed N --seconds S "
               "--trace 0|1 [--rounds K] [--spans-out FILE]\n");
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  if (Argc % 2 == 0)
    return false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Val = Argv[I + 1];
    if (Flag == "--workload")
      O.WorkloadName = Val;
    else if (Flag == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      O.Seconds = std::strtod(Val.c_str(), nullptr);
    else if (Flag == "--trace")
      O.Trace = Val == "1";
    else if (Flag == "--rounds")
      O.Rounds = std::atoi(Val.c_str());
    else if (Flag == "--spans-out")
      O.SpansOut = Val;
    else
      return false;
  }
  if (!(O.Seconds > 0 && O.Seconds <= 60) || O.Rounds < 1 || O.Rounds > 99)
    return false;
  if (O.WorkloadName == "local_pingpong")
    O.Work = Kind::LocalPingpong;
  else if (O.WorkloadName == "routed_keyed")
    O.Work = Kind::RoutedKeyed;
  else if (O.WorkloadName == "routed_fanout")
    O.Work = Kind::RoutedFanout;
  else if (O.WorkloadName == "replicated_keyed")
    O.Work = Kind::ReplicatedKeyed;
  else
    return false;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O))
    return usage();

  // Seeded inputs: keys (homed per shard via routeKey), tags and value
  // streams. The library sees only the generated tuples.
  std::uint64_t Master = O.Seed;
  std::vector<ClientState> Cs(Clients);
  for (int I = 0; I != Clients; ++I) {
    ClientState &C = Cs[I];
    C.Index = I;
    C.Rng = splitmix(Master);
    C.Key = keyHomedOn(static_cast<std::size_t>(I) % Shards, C.Rng);
    C.Tag = "fan" + std::to_string(I);
  }

  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 2;
  Config.EnablePreemption = true;

  RunWatchdog Dog(static_cast<std::uint64_t>(O.Seconds * (O.Trace ? 2.2 : 1.1)) +
                  60);

  std::vector<double> SetupS, VmS, ShardsS, RouterS, FirstS;
  // End-to-end values of each round; the run reports their good-side
  // quartile.
  std::vector<double> OpsS, P50, P90, P99, CpuPerOp;
  // Deadline timers still queued at each window's end (NOTES.md).
  std::uint64_t PendingTimers = 0;
  std::vector<Span> SetupSpans;
  std::vector<std::string> Errors;
  WindowResult Plain, Traced; // pooled over rounds, for per-layer metrics
  const double WindowSeconds = O.Seconds / O.Rounds;

  // Every setup is timed from VM construction until the first round trip
  // has completed on every shard or pair. Every SetupsPerRound-th fixture
  // then runs a measured window (and a traced one with --trace 1); the
  // others are torn down at once, to give setup_s more samples.
  const int Setups = O.Rounds * SetupsPerRound;
  for (int Setup = 0; Setup != Setups && Errors.empty(); ++Setup) {
    const bool Measured = (Setup + 1) % SetupsPerRound == 0;
    for (ClientState &C : Cs)
      C.SumPut = C.SumTaken = 0;
    const std::uint64_t T0 = nowNs();
    VirtualMachine Vm(Config);
    IoService Io;
    Dog.watchVm(&Vm);

    Vm.run([&]() -> AnyValue {
      const std::uint64_t T1 = nowNs();
      Fixture F(O.Work);
      std::vector<net::ClientConfig> Ring;
      const bool Built = F.buildShards(Vm, Io, Ring, Cs);
      const std::uint64_t T2 = nowNs();
      if (Built)
        F.buildRouter(Vm, Io, std::move(Ring));
      const std::uint64_t T3 = nowNs();
      const char *FirstErr =
          Built ? F.firstOps(Cs) : "a shard server failed to start";
      const std::uint64_t T4 = nowNs();
      if (FirstErr) {
        Errors.push_back(std::string("setup: ") + FirstErr);
        F.teardown();
        return AnyValue();
      }
      SetupS.push_back((T4 - T0) * 1e-9);
      VmS.push_back((T1 - T0) * 1e-9);
      ShardsS.push_back((T2 - T1) * 1e-9);
      RouterS.push_back((T3 - T2) * 1e-9);
      FirstS.push_back((T4 - T3) * 1e-9);
      SetupSpans = {{0, SpanSetupVm, T0, T1},
                    {0, SpanSetupShards, T1, T2},
                    {0, SpanSetupRouter, T2, T3},
                    {0, SpanSetupFirstOp, T3, T4}};
      if (Measured) {
        const WindowResult W =
            runWindow(Vm, Io, F, Cs, WindowSeconds, false, Errors);
        OpsS.push_back(W.opsPerSecond());
        P50.push_back(W.Rtt.quantile(0.50) / 1e3);
        P90.push_back(W.Rtt.quantile(0.90) / 1e3);
        P99.push_back(W.Rtt.quantile(0.99) / 1e3);
        CpuPerOp.push_back(W.Ops ? W.CpuSeconds * 1e6 / W.Ops : 0);
        PendingTimers += Vm.clock().pendingTimers();
        Plain.merge(W);
        if (O.Trace && Errors.empty())
          Traced.merge(runWindow(Vm, Io, F, Cs, WindowSeconds, true, Errors));
        if (Errors.empty())
          checkQuiescent(F, Cs, Errors);
      }
      if (!F.teardown())
        Errors.push_back("a responder stopped without its sentinel");
      return AnyValue();
    });
    Dog.watchVm(nullptr);
  }

  if (O.Trace && Errors.empty()) {
    if (!Traced.Nested ||
        Traced.ChildNsTotal + Traced.SelfNsTotal != Traced.OpNsTotal)
      Errors.push_back("child spans do not account for op wall time");
    if (!O.SpansOut.empty() && !writeSpans(O.SpansOut, SetupSpans, Cs))
      Errors.push_back("cannot write spans to " + O.SpansOut);
  }

  const std::uint64_t Attempted = Plain.Attempted + Traced.Attempted;
  const std::uint64_t Failed = Plain.Failed + Traced.Failed;
  const bool Correct = Errors.empty() && Failed == 0;
  for (const std::string &E : Errors)
    std::fprintf(stderr, "tsbench: %s\n", E.c_str());

  // Every metric measured, each with its unit; run.py selects the ones
  // BENCHMARK.json names.
  std::vector<std::pair<std::string, std::pair<double, const char *>>> Ms;
  auto Add = [&](const char *Name, double V, const char *Unit) {
    Ms.push_back({Name, {V, Unit}});
  };
  auto Count = [](std::uint64_t V) { return static_cast<double>(V); };
  auto Low = [](const std::vector<double> &V) { return goodQuartile(V, false); };
  const WindowResult &W = Plain;
  Add("setup_s", Low(SetupS), "s");
  Add("ops_per_s", goodQuartile(OpsS, true), "1/s");
  Add("rtt_p50_us", Low(P50), "us");
  Add("rtt_p90_us", Low(P90), "us");
  Add("cpu_us_per_op", Low(CpuPerOp), "us");
  Add("ok_ratio", Attempted ? 1.0 - ratio(Failed, Attempted) : 0, "ratio");

  Add("core.vp_parks_per_op", W.perOp(CVpParks), "1/op");
  Add("core.mailbox_posts_per_op", W.perOp(CMailboxPosts), "1/op");
  Add("core.parks_per_op", W.perOp(CParks), "1/op");
  Add("core.dispatches_per_op", W.perOp(CDispatches), "1/op");
  Add("core.preempts_per_op", W.perOp(CPreempts), "1/op");
  Add("core.steals_per_op", W.perOp(CSteals), "1/op");
  Add("e2e.rtt_p99_us", Low(P99), "us");
  Add("core.pending_timers_per_op", ratio(PendingTimers, W.Ops), "1/op");
  Add("mem.peak_rss_mb", peakRssMb(), "MB");
  Add("io.waits_per_op", W.perOp(CIoWaits), "1/op");
  Add("io.wakeups_per_op", W.perOp(CIoWakeups), "1/op");

  const Counters &D = W.Delta;
  Add("tuple.handoff_ratio", ratio(D[CHandoffs], D[CPuts]), "ratio");
  Add("tuple.wakeups_per_put", ratio(D[CTupleWakeups], D[CPuts]), "1/put");
  Add("tuple.blocks_per_take", ratio(D[CBlocks], D[CTakes]), "1/take");

  Add("net.reads_per_op", W.perOp(CNetReads), "1/op");
  Add("net.writes_per_op", W.perOp(CNetWrites), "1/op");
  Add("net.retries", Count(D[CNetRetries]), "count");
  Add("net.breaker_opens", Count(D[CBreakerOpens]), "count");
  Add("net.pool_checkout_waits", Count(D[CPoolWaits]), "count");

  // Every leg, single or fanned out, resolves exactly once as a delivery,
  // a retract or an orphan; one take per op.
  Add("router.legs_per_take",
      ratio(D[CDeliveries] + D[CRetracts] + D[COrphans], W.Ops), "1/take");
  Add("router.retracts_per_take", W.perOp(CRetracts), "1/take");
  Add("router.deliveries_per_take", W.perOp(CDeliveries), "1/take");
  Add("router.redeposits", Count(D[CRedeposits]), "count");
  Add("router.orphans", Count(D[COrphans]), "count");
  Add("router.failovers", Count(D[CFailovers]), "count");

  Add("replica.forwards_per_op", W.perOp(CForwards), "1/op");
  Add("replica.forward_failures", Count(D[CForwardFailures]), "count");
  Add("replica.unreplicated", Count(D[CUnreplicated]), "count");
  Add("replica.promotions", Count(D[CReplPromotions]), "count");

  Add("setup.vm_s", Low(VmS), "s");
  Add("setup.shards_s", Low(ShardsS), "s");
  Add("setup.router_s", Low(RouterS), "s");
  Add("setup.first_op_s", Low(FirstS), "s");
  if (O.Trace) {
    // Span-derived: the local workload's children are TupleSpace calls,
    // the routed ones' SpaceRouter calls; the other pair reads 0.
    const bool Routed = routed(O.Work);
    auto Us = [&](const LatencyHistogram &H, double Q, bool Applies) {
      return Applies ? H.quantile(Q) / 1e3 : 0.0;
    };
    Add("tuple.put_us_p50", Us(Traced.PutNs, 0.50, !Routed), "us");
    Add("tuple.take_us_p50", Us(Traced.TakeNs, 0.50, !Routed), "us");
    Add("tuple.take_us_p99", Us(Traced.TakeNs, 0.99, !Routed), "us");
    Add("router.put_us_p50", Us(Traced.PutNs, 0.50, Routed), "us");
    Add("router.put_us_p99", Us(Traced.PutNs, 0.99, Routed), "us");
    Add("router.take_us_p50", Us(Traced.TakeNs, 0.50, Routed), "us");
    Add("router.take_us_p99", Us(Traced.TakeNs, 0.99, Routed), "us");
    Add("op.self_us_p50", Us(Traced.SelfNs, 0.50, true), "us");
    const double TracedOps = Traced.opsPerSecond();
    Add("trace.overhead_ratio",
        TracedOps > 0 ? W.opsPerSecond() / TracedOps - 1 : 0, "ratio");
  }

  std::string Json = "{\"workload\":\"" + O.WorkloadName +
                     "\",\"seed\":" + std::to_string(O.Seed) +
                     ",\"correct\":" + (Correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(Attempted) +
                     ",\"failed\":" + std::to_string(Failed) +
                     ",\"rtt_samples\":" + std::to_string(W.Rtt.count()) +
                     ",\"rounds\":" + std::to_string(OpsS.size()) +
                     ",\"setup_samples_s\":[";
  for (std::size_t I = 0; I != SetupS.size(); ++I)
    Json += (I ? "," : "") + std::to_string(SetupS[I]);
  Json += "],\"round_values\":{";
  const std::pair<const char *, const std::vector<double> *> Rounds[] = {
      {"ops_per_s", &OpsS}, {"rtt_p50_us", &P50}, {"rtt_p90_us", &P90},
      {"rtt_p99_us", &P99}, {"cpu_us_per_op", &CpuPerOp}};
  for (std::size_t I = 0; I != std::size(Rounds); ++I) {
    Json += std::string(I ? ",\"" : "\"") + Rounds[I].first + "\":[";
    for (std::size_t J = 0; J != Rounds[I].second->size(); ++J)
      Json += (J ? "," : "") + std::to_string((*Rounds[I].second)[J]);
    Json += "]";
  }
  Json += "},\"errors\":[";
  for (std::size_t I = 0; I != Errors.size(); ++I)
    Json += (I ? ",\"" : "\"") + jsonEscape(Errors[I]) + "\"";
  Json += "],\"metrics\":{";
  for (std::size_t I = 0; I != Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.9g", Ms[I].second.first);
    Json += (I ? ",\"" : "\"") + Ms[I].first + "\":{\"value\":" + Buf +
            ",\"unit\":\"" + Ms[I].second.second + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
