//===- obs/SchedStats.cpp - Per-VP scheduler counters ---------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "obs/SchedStats.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

namespace sting::obs {

SchedStatsSnapshot SchedStats::snapshot() const {
  SchedStatsSnapshot S;
  S.Enqueues = Enqueues;
  S.Dequeues = Dequeues;
  S.SkippedStale = SkippedStale;
  S.MailboxPosts = MailboxPosts;
  S.MailboxDrains = MailboxDrains;
  S.Dispatches = Dispatches;
  S.FreshBinds = FreshBinds;
  S.Resumes = Resumes;
  S.Yields = Yields;
  S.Parks = Parks;
  S.Exits = Exits;
  S.IdleCalls = IdleCalls;
  S.TcbReuses = TcbReuses;
  S.TcbAllocs = TcbAllocs;
  S.StealsAttempted = StealsAttempted;
  S.StealsSucceeded = StealsSucceeded;
  S.StealsFailed = StealsFailed;
  S.DequeSteals = DequeSteals;
  S.DequeStealCas = DequeStealCas;
  S.VpParks = VpParks;
  S.VpUnparks = VpUnparks;
  S.PpWakeups = PpWakeups;
  S.PreemptsDelivered = PreemptsDelivered;
  S.PreemptsDeferred = PreemptsDeferred;
  S.ThreadsCreated = ThreadsCreated;
  S.ThreadsTerminated = ThreadsTerminated;
  S.Blocks = Blocks;
  S.Wakeups = Wakeups;
  S.NetAccepts = NetAccepts;
  S.NetReads = NetReads;
  S.NetWrites = NetWrites;
  S.NetBackpressureStalls = NetBackpressureStalls;
  S.NetRetries = NetRetries;
  S.NetBreakerOpens = NetBreakerOpens;
  S.NetShedded = NetShedded;
  S.PoolCheckoutWaits = PoolCheckoutWaits;
  S.TupleHandoffs = TupleHandoffs;
  S.TupleWakeups = TupleWakeups;
  S.RouterRoutes = RouterRoutes;
  S.RouterFanouts = RouterFanouts;
  S.RouterRetracts = RouterRetracts;
  S.RouterFailovers = RouterFailovers;
  S.ReplForwards = ReplForwards;
  S.ReplPromotions = ReplPromotions;
  S.ReplCatchupTuples = ReplCatchupTuples;
  S.RunSliceNanos = RunSliceNanos;
  S.GcPauseNanos = GcPauseNanos;
  return S;
}

SchedStatsSnapshot &
SchedStatsSnapshot::operator+=(const SchedStatsSnapshot &Other) {
  Enqueues += Other.Enqueues;
  Dequeues += Other.Dequeues;
  SkippedStale += Other.SkippedStale;
  MailboxPosts += Other.MailboxPosts;
  MailboxDrains += Other.MailboxDrains;
  Dispatches += Other.Dispatches;
  FreshBinds += Other.FreshBinds;
  Resumes += Other.Resumes;
  Yields += Other.Yields;
  Parks += Other.Parks;
  Exits += Other.Exits;
  IdleCalls += Other.IdleCalls;
  TcbReuses += Other.TcbReuses;
  TcbAllocs += Other.TcbAllocs;
  StealsAttempted += Other.StealsAttempted;
  StealsSucceeded += Other.StealsSucceeded;
  StealsFailed += Other.StealsFailed;
  DequeSteals += Other.DequeSteals;
  DequeStealCas += Other.DequeStealCas;
  VpParks += Other.VpParks;
  VpUnparks += Other.VpUnparks;
  PpWakeups += Other.PpWakeups;
  PreemptsDelivered += Other.PreemptsDelivered;
  PreemptsDeferred += Other.PreemptsDeferred;
  ThreadsCreated += Other.ThreadsCreated;
  ThreadsTerminated += Other.ThreadsTerminated;
  Blocks += Other.Blocks;
  Wakeups += Other.Wakeups;
  NetAccepts += Other.NetAccepts;
  NetReads += Other.NetReads;
  NetWrites += Other.NetWrites;
  NetBackpressureStalls += Other.NetBackpressureStalls;
  NetRetries += Other.NetRetries;
  NetBreakerOpens += Other.NetBreakerOpens;
  NetShedded += Other.NetShedded;
  PoolCheckoutWaits += Other.PoolCheckoutWaits;
  TupleHandoffs += Other.TupleHandoffs;
  TupleWakeups += Other.TupleWakeups;
  RouterRoutes += Other.RouterRoutes;
  RouterFanouts += Other.RouterFanouts;
  RouterRetracts += Other.RouterRetracts;
  RouterFailovers += Other.RouterFailovers;
  ReplForwards += Other.ReplForwards;
  ReplPromotions += Other.ReplPromotions;
  ReplCatchupTuples += Other.ReplCatchupTuples;
  TraceEvents += Other.TraceEvents;
  TraceDrops += Other.TraceDrops;
  RunSliceNanos.merge(Other.RunSliceNanos);
  GcPauseNanos.merge(Other.GcPauseNanos);
  return *this;
}

namespace {

constexpr CounterRow Rows[] = {
    {"enqueues", "sting_enqueues_total", &SchedStatsSnapshot::Enqueues},
    {"dequeues", "sting_dequeues_total", &SchedStatsSnapshot::Dequeues},
    {"stale skips", "sting_stale_skips_total",
     &SchedStatsSnapshot::SkippedStale},
    {"mailbox posts", "sting_mailbox_posts_total",
     &SchedStatsSnapshot::MailboxPosts},
    {"mailbox drains", "sting_mailbox_drains_total",
     &SchedStatsSnapshot::MailboxDrains},
    {"dispatches", "sting_dispatches_total",
     &SchedStatsSnapshot::Dispatches},
    {"  fresh binds", "sting_fresh_binds_total",
     &SchedStatsSnapshot::FreshBinds},
    {"  resumes", "sting_resumes_total", &SchedStatsSnapshot::Resumes},
    {"yields", "sting_yields_total", &SchedStatsSnapshot::Yields},
    {"parks", "sting_parks_total", &SchedStatsSnapshot::Parks},
    {"exits", "sting_exits_total", &SchedStatsSnapshot::Exits},
    {"idle calls", "sting_idle_calls_total",
     &SchedStatsSnapshot::IdleCalls},
    {"tcb reuses", "sting_tcb_reuses_total",
     &SchedStatsSnapshot::TcbReuses},
    {"tcb allocs", "sting_tcb_allocs_total",
     &SchedStatsSnapshot::TcbAllocs},
    {"steals attempted", "sting_steals_attempted_total",
     &SchedStatsSnapshot::StealsAttempted},
    {"steals succeeded", "sting_steals_succeeded_total",
     &SchedStatsSnapshot::StealsSucceeded},
    {"steals failed", "sting_steals_failed_total",
     &SchedStatsSnapshot::StealsFailed},
    {"deque steals", "sting_deque_steals_total",
     &SchedStatsSnapshot::DequeSteals},
    {"deque steal cas", "sting_deque_steal_cas_total",
     &SchedStatsSnapshot::DequeStealCas},
    {"vp parks", "sting_vp_parks_total", &SchedStatsSnapshot::VpParks},
    {"vp unparks", "sting_vp_unparks_total",
     &SchedStatsSnapshot::VpUnparks},
    {"pp wakeups", "sting_pp_wakeups_total",
     &SchedStatsSnapshot::PpWakeups},
    {"preempts delivered", "sting_preempts_delivered_total",
     &SchedStatsSnapshot::PreemptsDelivered},
    {"preempts deferred", "sting_preempts_deferred_total",
     &SchedStatsSnapshot::PreemptsDeferred},
    {"threads created", "sting_threads_created_total",
     &SchedStatsSnapshot::ThreadsCreated},
    {"threads terminated", "sting_threads_terminated_total",
     &SchedStatsSnapshot::ThreadsTerminated},
    {"blocks", "sting_blocks_total", &SchedStatsSnapshot::Blocks},
    {"wakeups", "sting_wakeups_total", &SchedStatsSnapshot::Wakeups},
    {"net accepts", "sting_net_accepts_total",
     &SchedStatsSnapshot::NetAccepts},
    {"net reads", "sting_net_reads_total", &SchedStatsSnapshot::NetReads},
    {"net writes", "sting_net_writes_total",
     &SchedStatsSnapshot::NetWrites},
    {"net bp stalls", "sting_net_backpressure_stalls_total",
     &SchedStatsSnapshot::NetBackpressureStalls},
    {"net retries", "sting_net_retries_total",
     &SchedStatsSnapshot::NetRetries},
    {"net breaker opens", "sting_net_breaker_opens_total",
     &SchedStatsSnapshot::NetBreakerOpens},
    {"net shedded", "sting_net_shedded_total",
     &SchedStatsSnapshot::NetShedded},
    {"pool checkout waits", "sting_pool_checkout_waits_total",
     &SchedStatsSnapshot::PoolCheckoutWaits},
    {"tuple handoffs", "sting_tuple_handoffs_total",
     &SchedStatsSnapshot::TupleHandoffs},
    {"tuple wakeups", "sting_tuple_wakeups_total",
     &SchedStatsSnapshot::TupleWakeups},
    {"router routes", "sting_router_routes_total",
     &SchedStatsSnapshot::RouterRoutes},
    {"router fanouts", "sting_router_fanouts_total",
     &SchedStatsSnapshot::RouterFanouts},
    {"router retracts", "sting_router_retracts_total",
     &SchedStatsSnapshot::RouterRetracts},
    {"router failovers", "sting_router_failovers_total",
     &SchedStatsSnapshot::RouterFailovers},
    {"repl forwards", "sting_repl_forwards_total",
     &SchedStatsSnapshot::ReplForwards},
    {"repl promotions", "sting_repl_promotions_total",
     &SchedStatsSnapshot::ReplPromotions},
    {"repl catchup tuples", "sting_repl_catchup_tuples_total",
     &SchedStatsSnapshot::ReplCatchupTuples},
    {"trace events", "sting_trace_events_total",
     &SchedStatsSnapshot::TraceEvents},
    {"trace drops", "sting_trace_drops_total",
     &SchedStatsSnapshot::TraceDrops},
};

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[256];
  va_list Args;
  va_start(Args, Fmt);
  int N = std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  if (N > 0)
    Out.append(Buf, static_cast<std::size_t>(N) < sizeof(Buf)
                        ? static_cast<std::size_t>(N)
                        : sizeof(Buf) - 1);
}

} // namespace

const CounterRow *counterRows(std::size_t &Count) {
  Count = sizeof(Rows) / sizeof(Rows[0]);
  return Rows;
}

std::string formatStatsReport(const SchedStatsSnapshot &Total,
                              const std::vector<SchedStatsSnapshot> &PerVp) {
  std::string Out;
  Out += "--- scheduler stats ";
  Out.append(59, '-');
  Out += '\n';
  appendf(Out, "%-20s %14s", "counter", "total");
  for (std::size_t V = 0; V != PerVp.size(); ++V)
    appendf(Out, " %10s%zu", "vp", V);
  Out += '\n';
  for (const CounterRow &R : Rows) {
    appendf(Out, "%-20s %14" PRIu64, R.Name, Total.*(R.Field));
    for (const SchedStatsSnapshot &S : PerVp)
      appendf(Out, " %11" PRIu64, S.*(R.Field));
    Out += '\n';
  }
  // Zero samples is the common case (slices are only timed while event
  // tracing is on); print the line anyway so readers learn it exists.
  appendf(Out,
          "run slices: %" PRIu64 " samples, mean %.0fns, "
          "p50 %" PRIu64 "ns, p95 %" PRIu64 "ns, p99 %" PRIu64 "ns\n",
          Total.RunSliceNanos.count(), Total.RunSliceNanos.meanNanos(),
          Total.RunSliceNanos.p50Nanos(), Total.RunSliceNanos.p95Nanos(),
          Total.RunSliceNanos.p99Nanos());
  appendf(Out,
          "gc pauses:  %" PRIu64 " samples, mean %.0fns, "
          "p50 %" PRIu64 "ns, p95 %" PRIu64 "ns, p99 %" PRIu64 "ns\n",
          Total.GcPauseNanos.count(), Total.GcPauseNanos.meanNanos(),
          Total.GcPauseNanos.p50Nanos(), Total.GcPauseNanos.p95Nanos(),
          Total.GcPauseNanos.p99Nanos());
  Out.append(79, '-');
  Out += '\n';
  return Out;
}

} // namespace sting::obs
