// Route and validation tests.
#include <gtest/gtest.h>

#include "routing/route.hpp"
#include "topology/gaussian_cube.hpp"
#include "topology/topology.hpp"

namespace gcube {
namespace {

TEST(Route, EmptyRoute) {
  const Route r(5);
  EXPECT_EQ(r.source(), 5u);
  EXPECT_EQ(r.destination(), 5u);
  EXPECT_EQ(r.length(), 0u);
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.is_simple());
  EXPECT_EQ(r.nodes(), std::vector<NodeId>{5});
}

TEST(Route, DestinationFollowsHops) {
  Route r(0b000);
  r.append(0);
  r.append(2);
  EXPECT_EQ(r.destination(), 0b101u);
  const auto nodes = r.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], 0b000u);
  EXPECT_EQ(nodes[1], 0b001u);
  EXPECT_EQ(nodes[2], 0b101u);
}

TEST(Route, AppendRoute) {
  Route head(0);
  head.append(1);
  Route tail(2);
  tail.append(0);
  head.append(tail);
  EXPECT_EQ(head.length(), 2u);
  EXPECT_EQ(head.destination(), 0b011u);
}

TEST(Route, SimpleDetection) {
  Route r(0);
  r.append(1);
  EXPECT_TRUE(r.is_simple());
  r.append(1);  // back to the start
  EXPECT_FALSE(r.is_simple());
}

TEST(ValidateRoute, AcceptsLegalRoute) {
  const Hypercube h(3);
  Route r(0);
  r.append(0);
  r.append(1);
  r.append(2);
  EXPECT_TRUE(validate_route(h, r));
}

TEST(ValidateRoute, RejectsMissingLink) {
  const GaussianCube gc(6, 4);  // sparse: most high links absent
  // Dimension 3 link requires the low 2 bits to equal 3 % 4 == 3.
  Route r(0b000000);
  r.append(3);
  const auto check = validate_route(gc, r);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("no such link"), std::string::npos);
}

TEST(ValidateRoute, RejectsOutOfRangeDimension) {
  const Hypercube h(3);
  Route r(0);
  r.append(7);
  EXPECT_FALSE(validate_route(h, r).ok);
}

TEST(ValidateRoute, RejectsFaultyLink) {
  const Hypercube h(3);
  FaultSet faults;
  faults.fail_link(0, 1);
  Route r(0);
  r.append(1);
  const auto check = validate_route(h, faults, r);
  EXPECT_FALSE(check.ok);
  EXPECT_EQ(check.reason,
            "hop 0 (dim 1 at node 0): link unusable under fault set");
  // A later hop names its own index and the node it leaves from.
  Route longer(0);
  longer.append(0);
  longer.append(2);
  longer.append(1);
  faults.fail_link(0b101, 1);
  EXPECT_EQ(validate_route(h, faults, longer).reason,
            "hop 2 (dim 1 at node 5): link unusable under fault set");
}

TEST(ValidateRoute, RejectsRouteThroughFaultyNode) {
  const Hypercube h(3);
  FaultSet faults;
  faults.fail_node(0b001);
  Route r(0b000);
  r.append(0);  // into the faulty node
  EXPECT_FALSE(validate_route(h, faults, r).ok);
}

TEST(ValidateRoute, RejectsFaultySource) {
  const Hypercube h(3);
  FaultSet faults;
  faults.fail_node(0);
  EXPECT_FALSE(validate_route(h, faults, Route(0)).ok);
}

TEST(RoutingResult, DeliveredSemantics) {
  RoutingResult r;
  EXPECT_FALSE(r.delivered());
  r.route = Route(0);
  EXPECT_TRUE(r.delivered());
}

}  // namespace
}  // namespace gcube
