// White-box unit tests of wPAXOS internals, driven packet by packet with a
// FakeContext: acceptor promise/accept rules, queue invariants, response
// routing and aggregation, leader gating, decide handling.
#include <gtest/gtest.h>

#include "core/wpaxos/wpaxos.hpp"
#include "fake_context.hpp"
#include "util/hash.hpp"

namespace amac::core::wpaxos {
namespace {

using testutil::FakeContext;

WireEnvelope decode_last(const FakeContext& ctx) {
  return WireEnvelope::decode(ctx.last_sent());
}

util::Buffer envelope_from(std::uint64_t sender_id, Envelope body) {
  WireEnvelope w;
  w.sender_id = sender_id;
  w.body = std::move(body);
  return w.encode();
}

TEST(WPaxosUnit, StartBroadcastsAllInitServices) {
  WPaxos node(/*id=*/3, /*n=*/5, /*value=*/1);
  FakeContext ctx;
  node.on_start(ctx);
  ASSERT_EQ(ctx.sent.size(), 1u);
  const auto env = decode_last(ctx);
  EXPECT_EQ(env.sender_id, 3u);
  ASSERT_TRUE(env.body.leader);
  EXPECT_EQ(env.body.leader->leader_id, 3u);  // everyone starts self-leader
  ASSERT_TRUE(env.body.search);
  EXPECT_EQ(env.body.search->root, 3u);
  EXPECT_EQ(env.body.search->hops, 1u);
  ASSERT_TRUE(env.body.change);
  // Self-leader at start: the initial proposal's prepare also goes out.
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->kind, ProposerMsg::Kind::kPrepare);
  EXPECT_EQ(env.body.proposer->pn.id, 3u);
}

TEST(WPaxosUnit, LeaderElectionAdoptsLargerIdOnly) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope smaller;
  smaller.leader = LeaderMsg{2};
  ctx.deliver(node, 0, envelope_from(2, smaller));
  EXPECT_EQ(node.omega(), 3u);
  Envelope larger;
  larger.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, larger));
  EXPECT_EQ(node.omega(), 9u);
}

TEST(WPaxosUnit, LeaderMsgRelayedOnward) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);  // free the radio
  Envelope e;
  e.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, e));
  // The new leader id must be queued and broadcast.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.leader);
  EXPECT_EQ(env.body.leader->leader_id, 9u);
}

TEST(WPaxosUnit, TreeServiceAdoptsShorterPathsOnly) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope far;
  far.search = SearchMsg{9, 4};
  ctx.deliver(node, 1, envelope_from(7, far));
  EXPECT_EQ(node.tree().at(9).dist, 4u);
  EXPECT_EQ(node.tree().at(9).parent, 7u);
  Envelope near;
  near.search = SearchMsg{9, 2};
  ctx.deliver(node, 2, envelope_from(8, near));
  EXPECT_EQ(node.tree().at(9).dist, 2u);
  EXPECT_EQ(node.tree().at(9).parent, 8u);
  Envelope worse;
  worse.search = SearchMsg{9, 3};
  ctx.deliver(node, 1, envelope_from(6, worse));
  EXPECT_EQ(node.tree().at(9).dist, 2u);  // unchanged
  EXPECT_EQ(node.tree().at(9).parent, 8u);
}

TEST(WPaxosUnit, TreeRelayIncrementsHops) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope e;
  e.search = SearchMsg{9, 2};
  ctx.deliver(node, 1, envelope_from(8, e));
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.search);
  EXPECT_EQ(env.body.search->root, 9u);
  EXPECT_EQ(env.body.search->hops, 3u);
}

TEST(WPaxosUnit, AcceptorPromisesIncreasingPrepares) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  // Make 9 the leader and give node a parent toward 9 first.
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));

  Envelope prep;
  prep.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep));

  // The response must be queued, positive, addressed toward parent (id 9,
  // since the search came straight from the root's neighbor... here the
  // sender_id of the search was 9).
  ASSERT_FALSE(node.response_queue().empty());
  const auto& r = node.response_queue().front();
  EXPECT_TRUE(r.positive);
  EXPECT_EQ(r.pn, (ProposalNumber{5, 9}));
  EXPECT_EQ(r.stage, AcceptorResponse::Stage::kPrepare);
  EXPECT_EQ(r.count, 1u);
}

TEST(WPaxosUnit, AcceptorRejectsStalePrepareSilently) {
  // A prepare below an existing promise must not produce a positive
  // response; our implementation drops stale propositions entirely (the
  // at-most-once guard is monotone).
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));

  Envelope high;
  high.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {7, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, high));
  const auto queued = node.response_queue().size();

  Envelope low;
  low.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {6, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, low));
  EXPECT_EQ(node.response_queue().size(), queued);  // nothing new
}

TEST(WPaxosUnit, DuplicatePropositionAnsweredOnce) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));

  Envelope prep;
  prep.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep));
  ctx.deliver(node, 2, envelope_from(8, prep));  // flood duplicate
  std::uint64_t total = 0;
  for (const auto& r : node.response_queue()) total += r.count;
  EXPECT_EQ(total, 1u);
}

TEST(WPaxosUnit, ResponsesForOldLeaderPruned) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));
  Envelope prep;
  prep.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep));
  ASSERT_FALSE(node.response_queue().empty());

  // A larger leader appears: queue invariant (1) drops the old responses.
  Envelope bigger;
  bigger.leader = LeaderMsg{12};
  ctx.deliver(node, 4, envelope_from(12, bigger));
  EXPECT_TRUE(node.response_queue().empty());
  EXPECT_EQ(node.omega(), 12u);
}

TEST(WPaxosUnit, ResponsesForStaleProposalPruned) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 1};
  ctx.deliver(node, 4, envelope_from(9, intro));
  Envelope prep5;
  prep5.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {5, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep5));
  Envelope prep6;
  prep6.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {6, 9}, 0};
  ctx.deliver(node, 4, envelope_from(9, prep6));
  // Only the response to pn (6,9) survives (queue invariant (2)).
  ASSERT_EQ(node.response_queue().size(), 1u);
  EXPECT_EQ(node.response_queue().front().pn, (ProposalNumber{6, 9}));
}

TEST(WPaxosUnit, ResponseRelayReAddressedToCurrentParent) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 2};  // parent toward 9 is sender id 7
  ctx.deliver(node, 4, envelope_from(7, intro));

  // A response from a child, addressed to us.
  AcceptorResponse r;
  r.stage = AcceptorResponse::Stage::kPrepare;
  r.pn = {5, 9};
  r.positive = true;
  r.count = 4;
  r.dest = 3;  // us
  Envelope relay;
  relay.response = r;
  ctx.deliver(node, 5, envelope_from(11, relay));
  if (ctx.busy()) ctx.ack(node);  // flush the queued response

  // It must sit in our queue; when sent, dest = parent[9] = 7.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.response);
  EXPECT_EQ(env.body.response->dest, 7u);
  EXPECT_EQ(env.body.response->count, 4u);
}

TEST(WPaxosUnit, ResponseNotAddressedToUsIgnored) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  AcceptorResponse r;
  r.pn = {5, 9};
  r.dest = 8;  // someone else
  Envelope e;
  e.response = r;
  ctx.deliver(node, 5, envelope_from(11, e));
  EXPECT_TRUE(node.response_queue().empty());
}

TEST(WPaxosUnit, AggregationMergesInQueue) {
  WPaxos node(3, 50, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // Keep the radio busy so nothing leaves the queue between deliveries.
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 2};
  ctx.deliver(node, 4, envelope_from(7, intro));

  AcceptorResponse r;
  r.stage = AcceptorResponse::Stage::kPrepare;
  r.pn = {5, 9};
  r.positive = true;
  r.count = 2;
  r.dest = 3;
  r.prev = Proposal{{1, 2}, 0};
  Envelope e1;
  e1.response = r;
  ctx.deliver(node, 5, envelope_from(11, e1));
  r.count = 3;
  r.prev = Proposal{{2, 4}, 1};
  Envelope e2;
  e2.response = r;
  ctx.deliver(node, 6, envelope_from(12, e2));

  ASSERT_EQ(node.response_queue().size(), 1u);
  EXPECT_EQ(node.response_queue().front().count, 5u);
  // Lemma 4.3: the larger previous proposal survives the merge.
  EXPECT_EQ(node.response_queue().front().prev->pn, (ProposalNumber{2, 4}));
  EXPECT_EQ(node.responses_merged(), 1u);
}

TEST(WPaxosUnit, NoAggregationKeepsEntriesSeparate) {
  WPaxosConfig cfg;
  cfg.aggregate_responses = false;
  WPaxos node(3, 50, 1, cfg);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope intro;
  intro.leader = LeaderMsg{9};
  intro.search = SearchMsg{9, 2};
  ctx.deliver(node, 4, envelope_from(7, intro));

  AcceptorResponse r;
  r.stage = AcceptorResponse::Stage::kPrepare;
  r.pn = {5, 9};
  r.positive = true;
  r.count = 1;
  r.dest = 3;
  for (int i = 0; i < 3; ++i) {
    Envelope e;
    e.response = r;
    ctx.deliver(node, static_cast<NodeId>(5 + i),
                envelope_from(11 + i, e));
  }
  EXPECT_EQ(node.response_queue().size(), 3u);
}

TEST(WPaxosUnit, DecideMessageAdoptedAndRelayedOnce) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope e;
  e.proposer = ProposerMsg{ProposerMsg::Kind::kDecide, {}, 0};
  ctx.deliver(node, 1, envelope_from(4, e));
  ASSERT_TRUE(ctx.decision.has_value());
  EXPECT_EQ(*ctx.decision, 0);
  EXPECT_TRUE(node.has_decided());
  // The relay went out exactly once.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->kind, ProposerMsg::Kind::kDecide);
  // Further traffic does not produce more sends.
  ctx.ack(node);
  const auto sent_before = ctx.sent.size();
  ctx.deliver(node, 2, envelope_from(5, e));
  EXPECT_EQ(ctx.sent.size(), sent_before);
}

TEST(WPaxosUnit, ProposerAdoptsPriorProposalFromPromises) {
  // Lemma 4.3's local step, pinned deterministically: a proposer whose
  // promise quorum reports a previously accepted proposal must propose
  // THAT value, not its own.
  WPaxos node(/*id=*/9, /*n=*/5, /*value=*/1);
  FakeContext ctx;
  node.on_start(ctx);  // self-leader: prepare pn(1,9) out, self-promise in
  ctx.ack(node);

  // Two aggregated promises (count 2 + self = 3 > 5/2) carrying a prior
  // accepted proposal {pn=(1,3), value=0}.
  AcceptorResponse promise;
  promise.stage = AcceptorResponse::Stage::kPrepare;
  promise.pn = {1, 9};
  promise.positive = true;
  promise.count = 2;
  promise.prev = Proposal{{1, 3}, 0};
  promise.dest = 9;
  Envelope e;
  e.response = promise;
  ctx.deliver(node, 2, envelope_from(4, e));

  if (ctx.busy()) ctx.ack(node);
  // The propose message must carry the adopted value 0.
  bool saw_propose = false;
  for (const auto& buf : ctx.sent) {
    const auto env = WireEnvelope::decode(buf);
    if (env.body.proposer &&
        env.body.proposer->kind == ProposerMsg::Kind::kPropose) {
      saw_propose = true;
      EXPECT_EQ(env.body.proposer->value, 0) << "must adopt, not propose own";
      EXPECT_EQ(env.body.proposer->pn, (ProposalNumber{1, 9}));
    }
  }
  EXPECT_TRUE(saw_propose);
}

TEST(WPaxosUnit, ProposerUsesOwnValueWithoutPriorProposals) {
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  AcceptorResponse promise;
  promise.stage = AcceptorResponse::Stage::kPrepare;
  promise.pn = {1, 9};
  promise.positive = true;
  promise.count = 2;
  promise.dest = 9;  // no prev
  Envelope e;
  e.response = promise;
  ctx.deliver(node, 2, envelope_from(4, e));
  if (ctx.busy()) ctx.ack(node);
  bool saw_propose = false;
  for (const auto& buf : ctx.sent) {
    const auto env = WireEnvelope::decode(buf);
    if (env.body.proposer &&
        env.body.proposer->kind == ProposerMsg::Kind::kPropose) {
      saw_propose = true;
      EXPECT_EQ(env.body.proposer->value, 1);
    }
  }
  EXPECT_TRUE(saw_propose);
}

TEST(WPaxosUnit, MajorityRejectionTriggersOneRetryWithHigherTag) {
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);  // prepare pn(1,9)
  ctx.ack(node);
  AcceptorResponse reject;
  reject.stage = AcceptorResponse::Stage::kPrepare;
  reject.pn = {1, 9};
  reject.positive = false;
  reject.count = 3;  // > n/2
  reject.max_committed = {7, 8};  // someone committed to tag 7
  reject.dest = 9;
  Envelope e;
  e.response = reject;
  ctx.deliver(node, 2, envelope_from(4, e));
  if (ctx.busy()) ctx.ack(node);
  // Retry must use a tag above the learned commitment.
  bool saw_retry = false;
  for (const auto& buf : ctx.sent) {
    const auto env = WireEnvelope::decode(buf);
    if (env.body.proposer &&
        env.body.proposer->kind == ProposerMsg::Kind::kPrepare &&
        env.body.proposer->pn.tag > 7) {
      saw_retry = true;
    }
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_GT(node.current_max_tag(), 7u);
}

TEST(WPaxosUnit, SingleNodeDecidesAlone) {
  WPaxos node(0, 1, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // n = 1: its own acceptor is the majority; prepare + propose resolve
  // locally and the decision happens without any delivery.
  ASSERT_TRUE(ctx.decision.has_value());
  EXPECT_EQ(*ctx.decision, 1);
}

TEST(WPaxosUnit, ProposerMsgFromUnknownBiggerIdUpdatesLeader) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  Envelope e;
  e.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {1, 42}, 0};
  ctx.deliver(node, 1, envelope_from(40, e));
  // pn.id = 42 is evidence of node 42's existence.
  EXPECT_EQ(node.omega(), 42u);
}

TEST(WPaxosUnit, NonLeaderPropositionNotRelayed) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  // Learn about leader 50 first.
  Envelope lead;
  lead.leader = LeaderMsg{50};
  ctx.deliver(node, 1, envelope_from(50, lead));
  while (ctx.busy()) ctx.ack(node);  // drain queues
  const auto sent_before = ctx.sent.size();

  // A proposition from old leader 42 (< 50) must be ignored entirely.
  Envelope stale;
  stale.proposer = ProposerMsg{ProposerMsg::Kind::kPrepare, {1, 42}, 0};
  ctx.deliver(node, 1, envelope_from(40, stale));
  EXPECT_EQ(ctx.sent.size(), sent_before);
  EXPECT_TRUE(node.response_queue().empty());
}

TEST(WPaxosUnit, ChangeMessagesFloodNewestOnly) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.advance(10);
  Envelope newer;
  newer.change = ChangeMsg{9, 7};
  ctx.deliver(node, 1, envelope_from(7, newer));
  Envelope older;
  older.change = ChangeMsg{5, 8};
  ctx.deliver(node, 2, envelope_from(8, older));
  ctx.ack(node);
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.change);
  EXPECT_EQ(env.body.change->timestamp, 9u);
  EXPECT_EQ(env.body.change->origin, 7u);
}

std::uint64_t proposals_of(const WPaxos& node) {
  mac::ProtocolStats stats;
  node.protocol_stats(stats);
  return stats.proposals;
}

void deliver_change(WPaxos& node, FakeContext& ctx, mac::Time stamp) {
  Envelope e;
  e.change = ChangeMsg{stamp, 4};
  ctx.deliver(node, 1, envelope_from(4, e));
}

// Seen-change skipping. Leader 9 (n = 5) launches its first proposal at
// t=0; at t=10 a change stamped 3 restarts it, so the active proposal
// launched at t=10 while the freshest change it has seen is stamped 3.
void launch_at_ten(WPaxos& node, FakeContext& ctx) {
  node.on_start(ctx);
  ctx.ack(node);
  ctx.advance(10);
  deliver_change(node, ctx, 3);
  ctx.ack(node);
  ASSERT_EQ(proposals_of(node), 2u);
  ASSERT_TRUE(node.proposer_snapshot().active);
}

TEST(WPaxosUnit, ChangeBeforeLaunchDoesNotRestartActiveProposal) {
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  ASSERT_NO_FATAL_FAILURE(launch_at_ten(node, ctx));
  const auto tag = node.current_max_tag();
  deliver_change(node, ctx, 5);  // fresh, but made before the launch
  EXPECT_EQ(proposals_of(node), 2u);
  EXPECT_EQ(node.current_max_tag(), tag);
  // The change service still relays it.
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.change);
  EXPECT_EQ(env.body.change->timestamp, 5u);
  EXPECT_FALSE(env.body.proposer);
}

TEST(WPaxosUnit, ChangeAtOrAfterLaunchRestartsProposal) {
  // Stamped in the launch's own tick: it may have happened after it.
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  ASSERT_NO_FATAL_FAILURE(launch_at_ten(node, ctx));
  const auto tag = node.current_max_tag();
  deliver_change(node, ctx, 10);
  EXPECT_EQ(proposals_of(node), 3u);
  EXPECT_EQ(node.current_max_tag(), tag + 1);
  const auto env = decode_last(ctx);
  ASSERT_TRUE(env.body.proposer);
  EXPECT_EQ(env.body.proposer->kind, ProposerMsg::Kind::kPrepare);
  EXPECT_EQ(env.body.proposer->pn.tag, tag + 1);
}

TEST(WPaxosUnit, VerbatimChangeServiceRestartsOnEveryFreshChange) {
  WPaxosConfig verbatim;
  verbatim.skip_seen_changes = false;
  WPaxos node(9, 5, 1, verbatim);
  FakeContext ctx;
  ASSERT_NO_FATAL_FAILURE(launch_at_ten(node, ctx));
  deliver_change(node, ctx, 5);
  EXPECT_EQ(proposals_of(node), 3u);
}

TEST(WPaxosUnit, IdleLeaderRestartsOnStaleChange) {
  WPaxos node(9, 5, 1);
  FakeContext ctx;
  ASSERT_NO_FATAL_FAILURE(launch_at_ten(node, ctx));
  // Two majorities of rejections spend both attempts of the notification,
  // leaving the leader idle.
  for (int attempt = 0; attempt < kProposalsPerChange; ++attempt) {
    AcceptorResponse reject;
    reject.stage = AcceptorResponse::Stage::kPrepare;
    reject.pn = node.proposer_snapshot().pn;
    reject.positive = false;
    reject.count = 3;
    reject.max_committed = {node.current_max_tag() + 5, 8};
    reject.dest = 9;
    Envelope e;
    e.response = reject;
    ctx.deliver(node, 2, envelope_from(4, e));
    while (ctx.busy()) ctx.ack(node);
  }
  ASSERT_FALSE(node.proposer_snapshot().active);
  ASSERT_EQ(proposals_of(node), 3u);
  deliver_change(node, ctx, 5);  // made before the last launch
  EXPECT_EQ(proposals_of(node), 4u);
  EXPECT_TRUE(node.proposer_snapshot().active);
}

std::uint64_t digest_of(const WPaxos& node) {
  util::Hasher h;
  node.digest(h);
  return h.digest();
}

TEST(WPaxosUnit, DigestTellsQueuedFromSentChange) {
  // Leader 9 hears change {1, 4} once while its radio is busy (the change
  // and the restarted prepare wait in its queues) and once while idle
  // (both go out at once). The two behave differently on the next ack, so
  // Process::digest's contract says they must hash differently.
  WPaxos busy(9, 5, 1);
  FakeContext busy_ctx;
  busy.on_start(busy_ctx);
  deliver_change(busy, busy_ctx, 1);

  WPaxos idle(9, 5, 1);
  FakeContext idle_ctx;
  idle.on_start(idle_ctx);
  idle_ctx.ack(idle);
  deliver_change(idle, idle_ctx, 1);

  EXPECT_NE(digest_of(busy), digest_of(idle));
  busy_ctx.ack(busy);
  idle_ctx.ack(idle);
  EXPECT_EQ(busy_ctx.sent.size(), 2u);  // the queued change and prepare
  EXPECT_EQ(idle_ctx.sent.size(), 2u);  // nothing after the immediate send
  ASSERT_TRUE(WireEnvelope::decode(busy_ctx.last_sent()).body.change);
}

// Dead-root pruning: a node that knows leader 9 hears a search for root 5,
// and a node with searches for roots 5 and 7 queued learns leader 9.
// Returns the node's tree afterwards and the roots of the searches it
// broadcast after its initial envelope.
struct DeadRootRun {
  util::FlatMap<std::uint64_t, TreeEntry> tree;
  std::vector<std::uint64_t> relayed;
};

std::vector<std::uint64_t> relayed_roots(const FakeContext& ctx) {
  std::vector<std::uint64_t> roots;
  for (std::size_t i = 1; i < ctx.sent.size(); ++i) {
    const auto env = WireEnvelope::decode(ctx.sent[i]);
    if (env.body.search) roots.push_back(env.body.search->root);
  }
  return roots;
}

DeadRootRun search_below_omega(const WPaxosConfig& cfg) {
  WPaxos node(3, 5, 1, cfg);
  FakeContext ctx;
  node.on_start(ctx);
  ctx.ack(node);
  Envelope lead;
  lead.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, lead));
  ctx.ack(node);
  Envelope dead;
  dead.search = SearchMsg{5, 1};
  ctx.deliver(node, 1, envelope_from(5, dead));
  while (ctx.busy()) ctx.ack(node);
  return {node.tree(), relayed_roots(ctx)};
}

DeadRootRun leader_change_with_queued_roots(const WPaxosConfig& cfg) {
  WPaxos node(3, 5, 1, cfg);
  FakeContext ctx;
  node.on_start(ctx);  // the radio stays busy while the searches queue
  for (const std::uint64_t root : {5u, 7u}) {
    Envelope e;
    e.search = SearchMsg{root, 1};
    ctx.deliver(node, 1, envelope_from(root, e));
  }
  Envelope lead;
  lead.leader = LeaderMsg{9};
  ctx.deliver(node, 0, envelope_from(9, lead));
  while (ctx.busy()) ctx.ack(node);
  return {node.tree(), relayed_roots(ctx)};
}

TEST(WPaxosUnit, SearchForRootBelowOmegaIsDropped) {
  const auto run = search_below_omega({});
  EXPECT_FALSE(run.tree.contains(5));
  EXPECT_TRUE(run.relayed.empty());
}

TEST(WPaxosUnit, LeaderChangePurgesQueuedLowerRoots) {
  const auto run = leader_change_with_queued_roots({});
  EXPECT_TRUE(run.relayed.empty());
  // Only the queue is purged: the table keeps what it learned before.
  EXPECT_EQ(run.tree.at(5).dist, 1u);
  EXPECT_EQ(run.tree.at(7).dist, 1u);
}

TEST(WPaxosUnit, PruningOffBuildsEveryRootsTree) {
  // Algorithm 4 verbatim: every search that improves a tree is adopted and
  // relayed, whatever the leader.
  WPaxosConfig verbatim;
  verbatim.prune_dead_roots = false;
  const auto below = search_below_omega(verbatim);
  ASSERT_TRUE(below.tree.contains(5));
  EXPECT_EQ(below.tree.at(5).parent, 5u);
  EXPECT_EQ(below.relayed, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(leader_change_with_queued_roots(verbatim).relayed,
            (std::vector<std::uint64_t>{5, 7}));
}

TEST(WPaxosUnit, BusyRadioNeverDoubleBroadcasts) {
  WPaxos node(3, 5, 1);
  FakeContext ctx;
  node.on_start(ctx);
  // Deliver a storm of service messages while the first broadcast is
  // outstanding: wPAXOS must queue, not broadcast (the model would discard).
  for (NodeId s = 10; s < 20; ++s) {
    Envelope e;
    e.leader = LeaderMsg{s};
    e.search = SearchMsg{s, 1};
    ctx.deliver(node, 1, envelope_from(s, e));
  }
  EXPECT_EQ(ctx.sent.size(), 1u);
  EXPECT_EQ(ctx.dropped, 0u);  // it queued instead of relying on discards
}

}  // namespace
}  // namespace amac::core::wpaxos
