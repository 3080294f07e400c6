/**
 * @file
 * Unit tests for the broken-upgrade retry path (Sec. 3.3): a probe
 * invalidates the to-be-upgraded S block while the permission-only
 * upgrade GETX is in flight, so the payload-free DATA grant cannot be
 * used and the miss must be retried as a full GETX. The transition
 * coverage matrix verifies the exact abstract path taken; the golden
 * memory verifies the values.
 */

#include <gtest/gtest.h>

#include "protocol_driver.hh"

namespace protozoa {
namespace {

std::uint64_t
brokenUpgrades(const ConformanceCoverage &cov)
{
    return cov.l1Count(L1State::SM, L1Event::Inv, L1State::SM_B) +
           cov.l1Count(L1State::SM, L1Event::FwdGetX, L1State::SM_B);
}

std::uint64_t
brokenRecoveries(const ConformanceCoverage &cov)
{
    // Either the payload-free grant is consumed and refetched (SM_B ->
    // IM -> M) or the denied upgrade already carried a payload.
    return cov.l1Count(L1State::SM_B, L1Event::DataUpgrade,
                       L1State::IM) +
           cov.l1Count(L1State::SM_B, L1Event::Data, L1State::M);
}

// A remote store invalidates the sharer's block while the sharer's own
// upgrade is in flight. The region is homed next to the remote core so
// its full GETX reaches the directory first, deterministically.
TEST(UpgradeRetry, ProbeBreaksInFlightUpgrade)
{
    for (auto protocol : kAllProtocols) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.predictor = PredictorKind::WordOnly;
        ProtocolDriver d(cfg);

        // Homed at tile 15: adjacent to core 15, far from core 0.
        const Addr a = 15 * 64;

        // Two readers, so both hold S (a lone reader would be granted
        // E and store silently instead of upgrading).
        d.load(0, a);
        d.load(1, a);
        d.issue(15, a, true, 900, 0x100, 0);   // full GETX, wins
        d.issue(0, a, true, 100, 0x104, 0);    // upgrade, broken
        d.drain();

        const ConformanceCoverage &cov = d.sys.conformance();
        EXPECT_EQ(brokenUpgrades(cov), 1u) << protocolName(protocol);
        EXPECT_EQ(brokenRecoveries(cov), 1u) << protocolName(protocol);
        // The upgrade was re-served as a full fetch, so core 0 must
        // have observed core 15's 900 before storing 100 over it; the
        // golden memory flags any lost update.
        EXPECT_EQ(d.load(7, a), 100u) << protocolName(protocol);
        EXPECT_EQ(d.stateOf(15, a), std::nullopt);
        d.expectClean();
    }
}

// The same race from the directory's perspective: the loser's upgrade
// arrives after its reader tracking was cleared, so the dataless grant
// is denied and the response carries a payload.
TEST(UpgradeRetry, DeniedUpgradeIsServedWithPayload)
{
    for (auto protocol : kAllProtocols) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.predictor = PredictorKind::WordOnly;
        ProtocolDriver d(cfg);

        const Addr a = 15 * 64 + 1024;
        d.load(0, a);
        d.load(1, a);
        d.issue(15, a, true, 900, 0x200, 0);
        d.issue(0, a, true, 100, 0x204, 0);
        d.drain();

        const ConformanceCoverage &cov = d.sys.conformance();
        const std::uint64_t denied =
            cov.dirCount(DirState::W, DirEvent::Upgrade, DirState::W) +
            cov.dirCount(DirState::W, DirEvent::Upgrade, DirState::WR) +
            cov.dirCount(DirState::W, DirEvent::Upgrade, DirState::MW) +
            cov.dirCount(DirState::I, DirEvent::Upgrade, DirState::W);
        EXPECT_EQ(denied, 1u) << protocolName(protocol);
        EXPECT_EQ(d.load(3, a), 100u) << protocolName(protocol);
        d.expectClean();
    }
}

// Two resident sharers race upgrades on the same word: exactly one
// breaks, and the values stay coherent under every protocol.
TEST(UpgradeRetry, RacingUpgradesBreakExactlyOne)
{
    for (auto protocol : kAllProtocols) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.predictor = PredictorKind::WordOnly;
        ProtocolDriver d(cfg);

        const Addr a = 0x5000;
        d.load(0, a);
        d.load(15, a);
        d.issue(0, a, true, 100, 0x300, 0);
        d.issue(15, a, true, 200, 0x304, 0);
        d.drain();

        const ConformanceCoverage &cov = d.sys.conformance();
        EXPECT_EQ(brokenUpgrades(cov), 1u) << protocolName(protocol);
        EXPECT_EQ(brokenRecoveries(cov), 1u) << protocolName(protocol);
        // One successful dataless upgrade for the winner.
        EXPECT_EQ(cov.l1Count(L1State::SM, L1Event::DataUpgrade,
                              L1State::M),
                  1u)
            << protocolName(protocol);
        const auto v = d.load(7, a);
        EXPECT_TRUE(v == 100u || v == 200u) << protocolName(protocol);
        d.expectClean();
    }
}

// An upgrade that is NOT broken must never take the retry path: the
// common case stays on the dataless fast path.
TEST(UpgradeRetry, CleanUpgradeStaysDataless)
{
    for (auto protocol : kAllProtocols) {
        SystemConfig cfg;
        cfg.protocol = protocol;
        cfg.predictor = PredictorKind::WordOnly;
        ProtocolDriver d(cfg);

        const Addr a = 0x6000;
        d.load(0, a);
        d.load(1, a);        // both demoted to S
        d.store(0, a, 55);   // unbroken S -> SM -> M upgrade

        const ConformanceCoverage &cov = d.sys.conformance();
        EXPECT_EQ(cov.l1Count(L1State::SM, L1Event::DataUpgrade,
                              L1State::M),
                  1u)
            << protocolName(protocol);
        EXPECT_EQ(brokenUpgrades(cov), 0u) << protocolName(protocol);
        EXPECT_EQ(d.load(1, a), 55u);
        d.expectClean();
    }
}

} // namespace
} // namespace protozoa
