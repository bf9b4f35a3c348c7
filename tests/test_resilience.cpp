// The resilient client layer: retry backoff, circuit breaker, endpoint
// failover — and the end-to-end mitigation claim: under a crash of a
// client's primary endpoint, the naive client silently loses every
// transaction in flight to (and routed at) the dead node, while the
// resilient client (commit timeout + failover + backoff) recovers almost
// all of them, deterministically.
#include "core/resilience.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace stabl::core {
namespace {

// ------------------------------------------------------------ policies

TEST(RetryPolicy, BackoffGrowsExponentiallyUpToCap) {
  RetryPolicy policy;
  policy.backoff_base = sim::ms(500);
  policy.backoff_multiplier = 2.0;
  policy.backoff_cap = sim::sec(4);
  policy.jitter_frac = 0.0;
  sim::Rng rng(1);
  EXPECT_EQ(policy.backoff(1, rng), sim::ms(500));
  EXPECT_EQ(policy.backoff(2, rng), sim::sec(1));
  EXPECT_EQ(policy.backoff(3, rng), sim::sec(2));
  EXPECT_EQ(policy.backoff(4, rng), sim::sec(4));
  EXPECT_EQ(policy.backoff(10, rng), sim::sec(4));  // capped
}

TEST(RetryPolicy, JitterStaysWithinFraction) {
  RetryPolicy policy;
  policy.backoff_base = sim::sec(1);
  policy.jitter_frac = 0.1;
  sim::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto delay = policy.backoff(1, rng);
    EXPECT_GE(delay, sim::ms(900));
    EXPECT_LE(delay, sim::ms(1100));
  }
}

TEST(CircuitBreaker, OpensAfterConsecutiveFailuresAndProbes) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_duration = sim::sec(20);
  CircuitBreaker breaker(policy);

  EXPECT_TRUE(breaker.allow(sim::sec(0)));
  EXPECT_FALSE(breaker.on_failure(sim::sec(1)));
  EXPECT_FALSE(breaker.on_failure(sim::sec(2)));
  EXPECT_TRUE(breaker.on_failure(sim::sec(3)));  // third trip opens it
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(sim::sec(10)));

  // Quarantine over: one probe is admitted (half-open).
  EXPECT_TRUE(breaker.allow(sim::sec(24)));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);

  // Failed probe re-opens immediately, below the threshold.
  EXPECT_TRUE(breaker.on_failure(sim::sec(25)));
  EXPECT_FALSE(breaker.allow(sim::sec(30)));

  // Successful probe closes it again.
  EXPECT_TRUE(breaker.allow(sim::sec(50)));
  breaker.on_success();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(sim::sec(51)));
}

TEST(CircuitBreaker, SuccessResetsFailureCount) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 3;
  CircuitBreaker breaker(policy);
  breaker.on_failure(sim::sec(1));
  breaker.on_failure(sim::sec(2));
  breaker.on_success();
  EXPECT_FALSE(breaker.on_failure(sim::sec(3)));
  EXPECT_FALSE(breaker.on_failure(sim::sec(4)));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(EndpointScorer, EwmaBlendsLatencyAndFailures) {
  EndpointScorePolicy policy;
  policy.enabled = true;
  policy.alpha = 0.5;
  policy.failure_penalty_s = 10.0;
  EndpointScorer scorer(3, policy);
  EXPECT_DOUBLE_EQ(scorer.score(0), 0.0);  // unprobed = optimistic

  scorer.on_latency(0, 2.0);  // 0.5*0 + 0.5*2
  EXPECT_DOUBLE_EQ(scorer.score(0), 1.0);
  scorer.on_latency(0, 2.0);  // 0.5*1 + 0.5*2
  EXPECT_DOUBLE_EQ(scorer.score(0), 1.5);
  scorer.on_failure(1);  // 0.5*0 + 0.5*10
  EXPECT_DOUBLE_EQ(scorer.score(1), 5.0);

  // Lowest score wins; ties resolve to the lowest index.
  EXPECT_EQ(scorer.best({0, 1, 2}), 2u);  // 2 never probed, score 0
  EXPECT_EQ(scorer.best({0, 1}), 0u);
  scorer.on_latency(2, 8.0);
  EXPECT_EQ(scorer.best({0, 1, 2}), 0u);
}

TEST(EndpointFailover, ScoringSteersFailoverToTheBestEndpoint) {
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.open_duration = sim::sec(100);
  EndpointScorePolicy score;
  score.enabled = true;
  score.alpha = 1.0;  // score = last observation, keeps the test exact
  EndpointFailover failover({5, 6, 7}, breaker, score);

  // Endpoint 7 has been answering fastest.
  failover.note_latency(6, 4.0);
  failover.note_latency(7, 0.5);
  EXPECT_EQ(failover.select(sim::sec(0)), 5u);  // healthy primary stays

  // Primary dies: scored failover jumps straight to 7, skipping the
  // rotation order's next-in-line 6.
  failover.on_failure(5, sim::sec(1));
  EXPECT_EQ(failover.select(sim::sec(2)), 7u);
  EXPECT_EQ(failover.failovers(), 1u);
}

TEST(EndpointFailover, HedgeTargetAvoidsTheExcludedEndpoint) {
  CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 1;
  breaker.open_duration = sim::sec(100);
  EndpointFailover failover({5, 6, 7}, breaker);

  const auto target = failover.hedge_target(5, sim::sec(0));
  ASSERT_TRUE(target.has_value());
  EXPECT_NE(*target, 5u);

  // Quarantine everything but the excluded endpoint: no hedge possible.
  failover.on_failure(6, sim::sec(1));
  failover.on_failure(7, sim::sec(2));
  EXPECT_FALSE(failover.hedge_target(5, sim::sec(3)).has_value());
}

TEST(EndpointFailover, RotatesAwayFromQuarantinedEndpoints) {
  CircuitBreakerPolicy policy;
  policy.failure_threshold = 1;  // open on the first failure
  policy.open_duration = sim::sec(100);
  EndpointFailover failover({5, 6, 7}, policy);

  EXPECT_EQ(failover.select(sim::sec(0)), 5u);
  failover.on_failure(5, sim::sec(1));
  EXPECT_EQ(failover.select(sim::sec(2)), 6u);
  EXPECT_EQ(failover.failovers(), 1u);
  failover.on_failure(6, sim::sec(3));
  EXPECT_EQ(failover.select(sim::sec(4)), 7u);

  // All quarantined: keep trying the current primary rather than go silent.
  failover.on_failure(7, sim::sec(5));
  EXPECT_EQ(failover.select(sim::sec(6)), 7u);

  // First quarantine elapses; the probe goes back to endpoint 5.
  EXPECT_EQ(failover.select(sim::sec(102)), 5u);
}

// --------------------------------------------- end-to-end mitigation

/// Crash the first client's primary endpoint (an entry node — the paper
/// never faults those, which is exactly why its harness cannot study
/// client-side mitigations).
ExperimentConfig primary_endpoint_crash(bool resilient) {
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.fault = FaultType::kCrash;
  config.fault_targets = {0};
  config.duration = sim::sec(180);
  config.inject_at = sim::sec(60);
  config.seed = 7;
  config.resilience.enabled = resilient;
  return config;
}

TEST(ResilientClient, NaiveClientLosesResilientClientRecovers) {
  const ExperimentResult naive =
      run_experiment(primary_endpoint_crash(false));
  const ExperimentResult resilient =
      run_experiment(primary_endpoint_crash(true));

  // The naive client pinned to node 0 loses every transaction submitted
  // after the crash: roughly 120 s x 40 TPS of the run's traffic.
  EXPECT_LT(naive.committed, naive.submitted);
  EXPECT_GT(naive.submitted - naive.committed, 3000u);
  EXPECT_EQ(naive.resilience.resubmissions, 0u);

  // The resilient client fails over and recovers >= 95% of everything it
  // submitted (the acceptance bar for the mitigation layer).
  EXPECT_GE(static_cast<double>(resilient.committed),
            0.95 * static_cast<double>(resilient.submitted));
  EXPECT_GT(resilient.resilience.resubmissions, 0u);
  EXPECT_GT(resilient.resilience.failovers, 0u);
  EXPECT_GT(resilient.resilience.recovered, 0u);
}

TEST(ResilientClient, DeterministicAcrossRunsAtSameSeed) {
  const ExperimentResult first =
      run_experiment(primary_endpoint_crash(true));
  const ExperimentResult second =
      run_experiment(primary_endpoint_crash(true));
  EXPECT_EQ(first.submitted, second.submitted);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.latencies, second.latencies);
  EXPECT_EQ(first.resilience.resubmissions,
            second.resilience.resubmissions);
  EXPECT_EQ(first.resilience.failovers, second.resilience.failovers);
  EXPECT_EQ(first.resilience.timeouts, second.resilience.timeouts);
  EXPECT_EQ(first.resilience.recovered, second.resilience.recovered);
  EXPECT_EQ(first.events, second.events);
}

TEST(ResilientClient, NoFaultMeansNoRetries) {
  ExperimentConfig config = primary_endpoint_crash(true);
  config.fault = FaultType::kNone;
  config.fault_targets.clear();
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.resilience.failovers, 0u);
  EXPECT_EQ(result.resilience.circuit_opens, 0u);
  EXPECT_EQ(result.resilience.exhausted, 0u);
  EXPECT_GE(static_cast<double>(result.committed),
            0.99 * static_cast<double>(result.submitted));
}

// ------------------------------------------------- hedging end to end

TEST(ResilientClient, HedgedSubmissionsWinUnderEntryCrash) {
  ExperimentConfig config = primary_endpoint_crash(true);
  config.resilience.hedge.enabled = true;
  config.resilience.score.enabled = true;
  const ExperimentResult result = run_experiment(config);

  // The mitigation bar still holds with hedging on, and the hedges did
  // real work: some commits were answered by the hedge endpoint.
  EXPECT_GE(static_cast<double>(result.committed),
            0.95 * static_cast<double>(result.submitted));
  EXPECT_GT(result.resilience.hedges_armed, 0u);
  EXPECT_GT(result.resilience.hedges_won, 0u);
  // Counter sanity: a hedge either wins, is cancelled, or its transaction
  // never commits — never more wins/cancels than armed hedges.
  EXPECT_LE(result.resilience.hedges_won, result.resilience.hedges_armed);
  EXPECT_LE(result.resilience.hedges_cancelled,
            result.resilience.hedges_armed);
}

TEST(ResilientClient, HedgingOffMeansZeroHedgeCounters) {
  const ExperimentResult result =
      run_experiment(primary_endpoint_crash(true));
  EXPECT_EQ(result.resilience.hedges_armed, 0u);
  EXPECT_EQ(result.resilience.hedges_won, 0u);
  EXPECT_EQ(result.resilience.hedges_cancelled, 0u);
}

TEST(ResilientClient, HedgedRunsAreDeterministic) {
  ExperimentConfig config = primary_endpoint_crash(true);
  config.resilience.hedge.enabled = true;
  config.resilience.score.enabled = true;
  const ExperimentResult first = run_experiment(config);
  const ExperimentResult second = run_experiment(config);
  EXPECT_EQ(first.committed, second.committed);
  EXPECT_EQ(first.latencies, second.latencies);
  EXPECT_EQ(first.resilience.hedges_armed, second.resilience.hedges_armed);
  EXPECT_EQ(first.resilience.hedges_won, second.resilience.hedges_won);
  EXPECT_EQ(first.events, second.events);
}

TEST(ResilientClient, RecoversUnderPacketLossToo) {
  // Loss on the entry side: the naive client drops whatever the network
  // eats; the resilient client's commit timeout resubmits it.
  ExperimentConfig config;
  config.chain = ChainKind::kRedbelly;
  config.fault = FaultType::kLoss;
  config.fault_targets = {0, 1};
  config.fault_params.loss_probability = 0.4;
  config.duration = sim::sec(180);
  config.inject_at = sim::sec(60);
  config.recover_at = sim::sec(120);
  config.seed = 11;

  config.resilience.enabled = false;
  const ExperimentResult naive = run_experiment(config);
  config.resilience.enabled = true;
  const ExperimentResult resilient = run_experiment(config);

  EXPECT_GE(resilient.committed, naive.committed);
  EXPECT_GE(static_cast<double>(resilient.committed),
            0.95 * static_cast<double>(resilient.submitted));
}

}  // namespace
}  // namespace stabl::core
