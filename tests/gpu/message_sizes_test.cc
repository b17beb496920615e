/**
 * @file
 * Unit tests for the fabric message-size constants of paper SS III-C.
 */

#include <gtest/gtest.h>

#include "src/interconnect/switch.hh"

using namespace griffin;

TEST(MessageSizes, AccessCountMessageMatchesThePaper)
{
    // Paper SS III-C: 20 pages x (36-bit id + 8-bit count) fits in
    // 110 bytes — "smaller than two cache lines".
    EXPECT_EQ(ic::MessageSizes::accessCountReply, 110u);
    EXPECT_LT(ic::MessageSizes::accessCountReply, 2 * lineBytes);
    // 20 * 44 bits = 880 bits = 110 bytes exactly.
    EXPECT_EQ(ic::MessageSizes::accessCountPages, 20u);
    EXPECT_EQ(20u * (36u + 8u) / 8u,
              ic::MessageSizes::accessCountReply);
}

TEST(MessageSizes, DcaMessagesCarryALine)
{
    EXPECT_EQ(ic::MessageSizes::dcaReadReply,
              lineBytes + ic::MessageSizes::header);
    EXPECT_EQ(ic::MessageSizes::dcaWriteRequest,
              lineBytes + ic::MessageSizes::header);
    EXPECT_LT(ic::MessageSizes::dcaWriteAck,
              ic::MessageSizes::dcaWriteRequest);
}
